"""Domination, pruning phases, and the one-at-a-time deletion epoch.

The worklist phases of run_epoch1/run_core and the incremental bookkeeping
inside run_epoch2 lean on the locality fact (deleting b can only change
domination status inside N(b)); several tests here replay the same decisions
against a full-rescan reimplementation, and run_trial's one scan and the pool
it hands from epoch 1 to epoch 2 are held to the full-scan wrappers.
"""

import functools
import hashlib
import itertools
import json
import math
import operator
import tracemalloc
import weakref

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collapse_lab import collapse_engine as engine
from collapse_lab.collapse_engine import (
    CollapseTrace,
    PhaseReport,
    _dominators,
    _run_phases,
    core_vertices,
    count_dominated_pairs,
    dominated_set,
    find_dominator,
    has_universal_vertex,
    is_universal_degree,
    prune_phase,
    run_core,
    run_epoch1,
    run_epoch2,
    run_trial,
    scan_edges,
)
from collapse_lab.graph_core import (
    AdjacencyGraph,
    bounded_draws,
    mix_seed,
    rng_from_seed,
    sample_edges,
    sample_er,
)
from collapse_lab.simplicial_oracle import clique_census, euler_characteristic
from collapse_lab.theory import expected_dominated_pairs, expected_universal_vertices
from references import _scan, epoch2_sorted_pool, is_closed_nbhd_subset, walk_phases


def graph(n, edges):
    return AdjacencyGraph(n, edges)


def triangle():
    return graph(3, [(0, 1), (1, 2), (0, 2)])


def cycle(n):
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(k):
    return graph(k + 1, [(0, i) for i in range(1, k + 1)])


def random_tree(n, rng):
    return AdjacencyGraph(n, [(v, int(rng.integers(v))) for v in range(1, n)])


# -- domination primitives ------------------------------------------------------


def test_find_dominator_cases():
    g = triangle()
    assert find_dominator(g, 0) == 1  # ties resolve to smallest id
    assert find_dominator(g, 2) == 0
    assert find_dominator(cycle(4), 0) is None
    path = graph(3, [(0, 1), (1, 2)])
    assert find_dominator(path, 0) == 1
    assert find_dominator(path, 1) is None
    g.remove_vertex(1)
    with pytest.raises(ValueError):
        find_dominator(g, 1)


def test_dominated_set_examples():
    assert dominated_set(complete(4)) == [0, 1, 2, 3]
    assert dominated_set(cycle(5)) == []
    assert dominated_set(graph(3, [(0, 1), (1, 2)])) == [0, 2]
    assert dominated_set(AdjacencyGraph(3)) == []  # isolated: never dominated


small_edge_lists = st.integers(1, 9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=24),
    )
)


@settings(deadline=None)
@given(small_edge_lists)
@example((2, [(0, 1)]))  # isolated K2: two leaves dominating each other
@example((5, [(0, 1), (1, 2), (2, 3), (1, 4)]))  # leaves on a path and a pendant
@example((3, []))
def test_is_dominated_equals_neighbor_containment(case):
    n, edges = case
    g = graph(n, [(u, v) for u, v in edges if u != v])
    for v in g.alive_ids():
        expect = any(is_closed_nbhd_subset(g, v, w) for w in g.neighbor_view(v))
        assert bool(_dominators(g, sorted(g.neighbor_view(v)))) == expect
        dominators = sorted(w for w in g.neighbor_view(v) if is_closed_nbhd_subset(g, v, w))
        assert sorted(_dominators(g, sorted(g.neighbor_view(v)))) == dominators


# -- epoch 1 ---------------------------------------------------------------------


def test_prune_phase_triangle():
    g = triangle()
    report = prune_phase(g)
    assert report.removed == [0, 1]  # 2 re-verifies as isolated and stays
    assert report.f0_after == 0
    assert report.isolated_created == 1
    assert g.alive_count() == 1


def test_prune_phase_c4_is_noop():
    g = cycle(4)
    report = prune_phase(g)
    assert report.removed == []
    assert report.f0_after == 4
    assert report.isolated_created == 0


def test_prune_phase_star():
    g = star(6)
    report = prune_phase(g)
    assert report.removed == [1, 2, 3, 4, 5, 6]
    assert report.f0_after == 0
    assert report.isolated_created == 1  # the stranded center
    assert 0 in g.alive_ids()


def test_prune_phase_walks_the_order_rng_permutation():
    # every leaf of a star re-verifies, so the removals are the snapshot in permuted order
    for seed in range(5):
        order = rng_from_seed(seed).permutation(6)
        assert prune_phase(star(6), order_rng=rng_from_seed(seed)).removed == (order + 1).tolist()


def test_run_epoch1_stops_early_on_core():
    g = cycle(4)
    trace = run_epoch1(g, 3)
    assert len(trace.phases) == 1
    assert trace.reached_core
    assert trace.final_f0() == 4
    with pytest.raises(ValueError):
        run_epoch1(g, -1)


def test_run_epoch1_zero_phases():
    g = triangle()
    trace = run_epoch1(g, 0)
    assert trace.phases == []
    assert not trace.reached_core
    assert trace.final_f0() == trace.initial_f0 == 3


def rescan_phases(g, t=None, order_rng=None):
    """Full-rescan reference: repeated prune_phase until one removes nothing, or t phases."""
    reports = []
    while t is None or len(reports) < t:
        reports.append(prune_phase(g, order_rng=order_rng))
        if not reports[-1].removed:
            break
    return reports


@pytest.mark.parametrize("n,p", [(12, 0.2), (30, 0.08), (60, 0.02), (60, 0.05), (60, 0.1)])
def test_phase_loop_matches_full_rescan(n, p):
    cut_short = 0
    for k in range(20):
        g = sample_er(n, p, mix_seed(144, k))
        a, b = g.copy(), g.copy()
        assert run_core(a).phases == rescan_phases(b)
        assert sorted(a.edges()) == sorted(b.edges())
        for t in (0, 1, 2, 5):
            a, b = g.copy(), g.copy()
            trace = run_epoch1(a, t)
            expect = rescan_phases(b, t)
            assert trace.phases == expect
            assert trace.reached_core == (bool(expect) and not expect[-1].removed)
            assert sorted(a.edges()) == sorted(b.edges())
            cut_short += t > 0 and not trace.reached_core
    assert cut_short > 0  # some budgets stop before the core


@settings(deadline=None)
@given(small_edge_lists)
# 0 and 1 are twins; removing 0 leaves 1 undominated at its turn, and removing
# 2 makes it a leaf again, so phase 2 must re-check a failed snapshot member
@example((5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (3, 4)]))
def test_phase_loop_matches_full_rescan_on_small_graphs(case):
    n, edges = case
    g = graph(n, [(u, v) for u, v in edges if u != v])
    assert run_core(g.copy()).phases == rescan_phases(g.copy())


def test_run_core_random_order_matches_full_rescan():
    for k in range(40):
        g = sample_er(50, 0.06, mix_seed(155, k))
        seed = mix_seed(166, k)
        a, b = g.copy(), g.copy()
        trace = run_core(a, order_rng=rng_from_seed(seed))
        assert trace.phases == rescan_phases(b, order_rng=rng_from_seed(seed))
        assert sorted(a.edges()) == sorted(b.edges())


def test_trees_collapse_to_one_vertex():
    rng = rng_from_seed(40)
    for n in (2, 5, 17, 60):
        g = random_tree(n, rng)
        trace = run_core(g)
        assert trace.final_f0() == 0
        assert g.alive_count() == 1
        assert g.non_isolated_count() == 0
        assert trace.reached_core


def test_run_core_complete_graph():
    g = complete(5)
    trace = run_core(g)
    assert trace.final_f0() == 0
    assert g.alive_count() == 1
    assert trace.phases[0].removed == [0, 1, 2, 3]


def test_run_core_cycle_is_its_own_core():
    g = cycle(4)
    trace = run_core(g)
    assert trace.final_f0() == 4
    assert trace.removed_total() == 0
    assert core_vertices(g) == [0, 1, 2, 3]


def test_run_core_disjoint_union():
    # triangle on 0..2 plus a 5-cycle on 3..7: only the triangle collapses
    edges = [(0, 1), (1, 2), (0, 2)] + [(3 + i, 3 + (i + 1) % 5) for i in range(5)]
    g = graph(8, edges)
    trace = run_core(g)
    assert trace.final_f0() == 5
    assert set(core_vertices(g)) == {3, 4, 5, 6, 7}


def test_trace_reports_are_consistent():
    for k in range(12):
        g = sample_er(80, 0.05, mix_seed(66, k))
        trace = run_core(g)
        f0 = trace.initial_f0
        for ph in trace.phases:
            assert ph.isolated_created >= 0
            assert ph.f0_after == f0 - len(ph.removed) - ph.isolated_created
            assert ph.f0_after <= f0
            f0 = ph.f0_after
        assert trace.final_f0() == g.non_isolated_count()
        assert dominated_set(g) == []


# -- epoch 2 ---------------------------------------------------------------------


def test_newly_dominated_matches_global_rescan():
    """Locality claim: deleting b changes domination status only inside N(b)."""
    for k in range(20):
        g = sample_er(40, 0.08, mix_seed(77, k))
        for b in list(g.alive_ids())[::5]:
            h = g.copy()
            before = set(dominated_set(h))
            nb = set(h.neighbor_view(b))
            h.remove_vertex(b)
            assert set(dominated_set(h)) ^ (before - {b}) <= nb


def test_run_epoch2_on_core_is_empty():
    g = cycle(4)
    trace = run_epoch2(g, rng_from_seed(1))
    assert trace.steps == 0
    assert trace.removed == []
    assert trace.y_values == []


def test_run_epoch2_triangle():
    g = triangle()
    trace = run_epoch2(g, rng_from_seed(9))
    assert trace.steps == 2
    assert trace.y_values == [0, 0]
    assert g.non_isolated_count() == 0
    assert g.alive_count() == 1


def test_epoch2_trace_invariants_and_json():
    g = sample_er(50, 0.06, 4)
    trace = run_epoch2(g, rng_from_seed(2))
    assert trace.steps == len(trace.removed) == len(trace.y_values)
    assert all(y >= 0 for y in trace.y_values)
    assert dominated_set(g) == []


def naive_epoch2(g, rng):
    """Full-rescan reference: recompute the dominated pool from scratch each step."""
    removed, ys = [], []
    while True:
        pool = dominated_set(g)
        if not pool:
            return removed, ys
        before = set(pool)
        v = pool[int(rng.integers(len(pool)))]
        g.remove_vertex(v)
        removed.append(v)
        ys.append(len(set(dominated_set(g)) - before))


def test_run_epoch2_matches_full_rescan():
    for k in range(30):
        seed = mix_seed(88, k)
        g = sample_er(45, 0.055, seed)
        a = g.copy()
        b = g.copy()
        trace = run_epoch2(a, rng_from_seed(seed))
        removed, ys = naive_epoch2(b, rng_from_seed(seed))
        assert trace.removed == removed
        assert trace.y_values == ys


BOUNDS = (1, 2, 3, 7, 1000, 25_000, 2**31 + 1, 3 * 2**30, 2**32 - 5, 2**32)


def test_bounded_draws_match_numpy_integers():
    # 3 * 2**30 rejects a quarter of the words; 2**31 + 1 almost half.
    for seed in range(30):
        a, b = rng_from_seed(mix_seed(61, seed)), rng_from_seed(mix_seed(61, seed))
        if seed % 2:  # both generators now hold the upper half of a 64-bit word
            assert a.integers(0, 2**32, dtype=np.uint32) == b.integers(0, 2**32, dtype=np.uint32)
        below = bounded_draws(a)
        pick = rng_from_seed(seed)
        for k in pick.choice(BOUNDS, size=3000).tolist():
            got = below(k)
            assert got == int(b.integers(k)), (seed, k)
            assert 0 <= got < k


def test_bounded_draws_of_one_consume_no_word():
    a, b = rng_from_seed(5), rng_from_seed(5)
    below = bounded_draws(a)
    assert [below(1) for _ in range(5000)] == [0] * 5000
    assert [below(1000) for _ in range(10)] == [int(b.integers(1000)) for _ in range(10)]


def test_bounded_draws_refuse_bounds_outside_32_bits():
    below = bounded_draws(rng_from_seed(0))
    for k in (0, 2**32 + 1):
        with pytest.raises(ValueError):
            below(k)


def test_epoch2_removal_log_is_pinned():
    # trial 0 of `collapse --n 50000 --c 1.5 --t 0 --seed 0`, seeded as the CLI seeds it
    seed = mix_seed(0, 0)
    g = sample_er(50_000, 1.5 / 50_000, seed)
    _, _, e2 = run_trial(g, 0, rng_from_seed(mix_seed(seed, 1)))
    digest = hashlib.sha256(json.dumps([e2.removed, e2.y_values]).encode()).hexdigest()
    assert e2.steps == 24_633
    assert digest == "bd66a3e3947dfbdd9311557c8b88e65ae14bc84450d827bd5effef108b5acc1c"


# -- epoch 2's bucketed pool -------------------------------------------------------
# The pool's buckets span 2^_POOL_SHIFT ids; narrow ones make small graphs
# cross many buckets, and width 0 gives every id a bucket of its own.


def assert_epoch2_matches_the_sorted_pool(g, t, seed):
    """`run_trial`'s epoch 2 on a copy of g against the sorted-list pool after `run_epoch1`."""
    a, b = g.copy(), g.copy()
    e2 = run_trial(a, t, rng_from_seed(seed))[2]
    run_epoch1(b, t)
    assert e2 == epoch2_sorted_pool(b, rng_from_seed(seed), dominated_set(b))
    assert a._alive == b._alive
    assert a._deg == b._deg


@pytest.mark.parametrize("shift", [0, 1, 3, engine._POOL_SHIFT])
def test_epoch2_matches_the_sorted_pool_across_bucket_widths(monkeypatch, shift):
    monkeypatch.setattr(engine, "_POOL_SHIFT", shift)
    for k, (n, c, t) in enumerate(itertools.product((60, 2000), (1.5, 3.0), (0, 1, 2))):
        seed = mix_seed(251, k)
        assert_epoch2_matches_the_sorted_pool(sample_er(n, c / n, seed), t, seed)


DIAMOND = (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])  # K_4 less the edge (2, 3)


@settings(deadline=None)
@given(small_edge_lists, st.integers(0, 2), st.integers(0, 2**64 - 1))
# seed 1 removes hub 1 first: hub 0 leaves the pool as the middle of a path,
# and rejoins it as a leaf once a tip goes
@example(DIAMOND, 0, 1)
def test_epoch2_matches_the_sorted_pool_on_small_graphs(case, t, seed):
    n, edges = case
    g = graph(n, [(u, v) for u, v in edges if u != v])
    for shift in (0, 1, 3, engine._POOL_SHIFT):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_POOL_SHIFT", shift)
            assert_epoch2_matches_the_sorted_pool(g, t, seed)


@pytest.mark.parametrize("shift", [0, 3, engine._POOL_SHIFT])
def test_epoch2_matches_the_sorted_pool_on_edge_cases(monkeypatch, shift):
    monkeypatch.setattr(engine, "_POOL_SHIFT", shift)
    # the empty graph, no edge, one edge, and graphs whose pools drain to nothing
    small = [graph(0, []), graph(1, []), graph(2, []), graph(2, [(0, 1)])]
    for g in small + [triangle(), complete(5), graph(*DIAMOND)]:
        for seed in range(8):
            assert_epoch2_matches_the_sorted_pool(g, 0, seed)
    # n one below, at and one above 1 and 8 bucket widths, its last id a leaf
    # in the pool, so that the last bucket is in use
    width = 1 << shift
    for n in (width - 1, width, width + 1, 8 * width - 1, 8 * width, 8 * width + 1):
        if n < 3:
            continue
        seed = mix_seed(252, n)
        edges = np.column_stack(sample_edges(n - 1, 3 / (n - 1), seed))
        g = AdjacencyGraph(n, np.vstack((edges, [(n - 2, n - 1)])))
        assert n - 1 in dominated_set(g)
        assert_epoch2_matches_the_sorted_pool(g, 0, seed)


# -- one scan per trial ----------------------------------------------------------


def subset_scan(g):
    """Literal reference for _scan: ordered pairs and dominated vertices by containment."""
    per_vertex = {
        u: sum(1 for w in g.neighbor_view(u) if is_closed_nbhd_subset(g, u, w))
        for u in g.alive_ids()
    }
    return sum(per_vertex.values()), [u for u, k in per_vertex.items() if k]


def test_scan_matches_pair_count_and_dominated_set():
    for k in range(30):
        n, p = 10 + 7 * (k % 5), (0.05, 0.1, 0.2)[k % 3]
        g = sample_er(n, p, mix_seed(177, k))
        if k % 2:
            for v in range(0, n, 4):
                g.remove_vertex(v)
        assert _scan(g) == (count_dominated_pairs(g), dominated_set(g)) == subset_scan(g)


@settings(deadline=None)
@given(small_edge_lists)
@example((2, [(0, 1)]))  # isolated K2: two leaves dominating each other
@example((6, [(0, 1), (1, 2), (2, 3), (1, 4)]))  # leaves, a pendant, an isolated vertex
@example((5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (3, 4)]))  # twins 0 and 1
def test_scan_matches_subset_scan_on_small_graphs(case):
    n, edges = case
    g = graph(n, [(u, v) for u, v in edges if u != v])
    assert _scan(g) == (count_dominated_pairs(g), dominated_set(g)) == subset_scan(g)


# -- the array scan ---------------------------------------------------------------


def edge_arrays(g):
    """The edges of g as the (us, vs) int64 arrays that `sample_edges` returns."""
    pairs = np.array(sorted(g.edges()), dtype=np.int64).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def test_scan_edges_matches_scan_on_sampled_graphs():
    for n in range(71):
        for k, p in enumerate((0.0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 0.95, 1.0)):
            seed = mix_seed(231, 10 * n + k)
            g = sample_er(n, p, seed)
            assert scan_edges(n, *sample_edges(n, p, seed)) == _scan(g) == subset_scan(g), (n, p)


@settings(deadline=None)
@given(small_edge_lists)
@example((2, [(0, 1)]))  # isolated K2: two leaves dominating each other
@example((6, [(0, 1), (0, 2), (0, 3), (0, 4)]))  # a star and an isolated vertex
@example((3, [(0, 1), (1, 2), (0, 2)]))  # a triangle
@example((5, [(i, j) for i in range(5) for j in range(i + 1, 5)]))  # K5
@example((5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (3, 4)]))  # twins 0 and 1
def test_scan_edges_matches_scan_on_small_graphs(case):
    n, edges = case
    g = graph(n, [(u, v) for u, v in edges if u != v])
    assert scan_edges(n, *edge_arrays(g)) == _scan(g) == subset_scan(g)


def test_scan_edges_verifies_what_its_filter_passes():
    # For 0 -> 1 the filter's witness is 2 and for 0 -> 2 it is 1; both are
    # adjacent to the candidate, but 3 is not, so 1 and 2 do not dominate 0.
    # The 5 pairs: 3 under 0, and 1 and 2 each under 0 and under each other.
    g = graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    assert scan_edges(4, *edge_arrays(g)) == _scan(g) == (5, [1, 2, 3])


def test_scan_edges_takes_either_orientation():
    g = sample_er(40, 0.2, mix_seed(232, 0))
    us, vs = edge_arrays(g)
    flip = np.arange(len(us)) % 2 == 1
    assert scan_edges(40, np.where(flip, vs, us), np.where(flip, us, vs)) == _scan(g)


def test_scan_edges_in_small_blocks_matches_scan(monkeypatch):
    # blocks of 5 entries hold several pairs at low degree and one pair each on K_60
    monkeypatch.setattr("collapse_lab.collapse_engine._VERIFY_BLOCK", 5)
    for k, p in enumerate((0.05, 0.2, 0.5, 0.9, 1.0)):
        for n in (2, 9, 30, 60):
            seed = mix_seed(233, 10 * n + k)
            assert scan_edges(n, *sample_edges(n, p, seed)) == _scan(sample_er(n, p, seed)), (n, p)


def test_scan_edges_memory_on_a_complete_graph():
    # verification looks up n^3 entries on K_n: 3.3 million on K_150, some 160 MB at once
    us, vs = sample_edges(150, 1.0, 0)
    tracemalloc.start()
    try:
        result = scan_edges(150, us, vs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (150 * 149, list(range(150)))
    assert peak <= 64 * 2**20


def test_scan_edges_memory_on_sparse_input():
    # phase-sparse's size: 1.15 million CSR entries, whose rows peak at about
    # 23 MB; a filter holding every candidate at once would need some 67 MB
    n, seed = 10**5, mix_seed(234, 0)
    us, vs = sample_edges(n, math.log(n) / n, seed)
    tracemalloc.start()
    try:
        result = scan_edges(n, us, vs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == _scan(sample_er(n, math.log(n) / n, seed))
    assert peak <= 40 * 2**20


@pytest.mark.parametrize("block", [1, 2, 3, 64])
def test_scan_edges_across_block_boundaries(monkeypatch, block):
    # small blocks split rows and candidate lists at every offset, and most
    # sizes leave a partial last block; the graphs after removals have dead
    # vertices and are scanned through their alive edges
    monkeypatch.setattr("collapse_lab.collapse_engine._VERIFY_BLOCK", block)
    for k, (n, c) in enumerate(itertools.product((200, 2000), (1.5, 3.0, 12.0))):
        g = sample_er(n, c / n, mix_seed(235, k))
        assert scan_edges(n, *sample_edges(n, c / n, mix_seed(235, k))) == _scan(g), (n, c)
        rng = rng_from_seed(k)
        for v in rng.choice(n, n // 4, replace=False).tolist():
            g.remove_vertex(v)
        run_epoch1(g, 1)
        assert scan_edges(n, *g._edge_arrays()) == _scan(g), (n, c)


def test_phases_hand_over_the_dominated_set():
    for k in range(20):
        g = sample_er(60, (0.02, 0.05, 0.1)[k % 3], mix_seed(188, k))
        for t in (0, 1, 2, 5):
            h = g.copy()
            _, pool = _run_phases(h, t, None, dominated_set(h))
            assert pool == dominated_set(h), (k, t)
        h = g.copy()
        _, pool = _run_phases(h, None, rng_from_seed(k) if k % 2 else None, dominated_set(h))
        assert pool == dominated_set(h) == []


@settings(deadline=None)
@given(small_edge_lists, st.integers(0, 3))
@example((5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (3, 4)]), 1)
def test_phases_hand_over_the_dominated_set_on_small_graphs(case, t):
    n, edges = case
    g = graph(n, [(u, v) for u, v in edges if u != v])
    _, pool = _run_phases(g, t, None, dominated_set(g))
    assert pool == dominated_set(g)


def assert_phases_match_the_walk(g, t, seed=None):
    """_run_phases and the literal walk agree on copies of g: trace, pool, degrees, flags.

    With a seed, both walk in the permutations of rng_from_seed(seed).
    """
    a, b = g.copy(), g.copy()
    rng = None if seed is None else rng_from_seed(seed)
    got = _run_phases(a, t, rng, dominated_set(a))
    expect = walk_phases(b, t, None if seed is None else rng_from_seed(seed))
    assert got == expect, (t, seed)
    assert a._deg == b._deg and a._alive == b._alive, (t, seed)


@pytest.mark.parametrize("n", [60, 2000])
@pytest.mark.parametrize("c", [1.5, 3.0, 12.0])
def test_phases_match_the_walk_on_sampled_graphs(n, c):
    for k in range(4 if n == 60 else 1):
        g = sample_er(n, c / n, mix_seed(245, k))
        for t in (0, 1, 2, 5, None):
            for seed in (None, mix_seed(246, 10 * k + (t or 0))):
                assert_phases_match_the_walk(g, t, seed)


@settings(deadline=None)
@given(small_edge_lists, st.sampled_from([0, 1, 2, 5, None]), st.none() | st.integers(0, 2**64 - 1))
@example((5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (3, 4)]), None, None)  # twins 0 and 1
def test_phases_match_the_walk_on_small_graphs(case, t, seed):
    n, edges = case
    assert_phases_match_the_walk(graph(n, [(u, v) for u, v in edges if u != v]), t, seed)


def test_phases_need_several_rounds_on_triangles(monkeypatch):
    # K_5's members, and a fan's path (each vertex under the hub 0), are chains
    # of adjacent members: every member waits for the one before it
    fan = graph(7, [(0, i) for i in range(1, 7)] + [(i, i + 1) for i in range(1, 6)])
    rows = []
    live_rows = engine._live_rows
    monkeypatch.setattr(engine, "_live_rows", lambda *a: rows.append(1) or live_rows(*a))
    for g in (complete(5), fan):
        for t in (1, None):
            for seed in (None, 0, 1):
                assert_phases_match_the_walk(g, t, seed)
        rows.clear()
        _run_phases(g.copy(), 1, None, dominated_set(g))
        assert len(rows) - 1 >= 3  # one call per round, and one for the next snapshot


@pytest.mark.parametrize("block", [1, 2, 3, 64])
def test_phases_across_block_boundaries(monkeypatch, block):
    # small blocks split the rows of members, of ready sets and of touched
    # vertices at every offset; some graphs have dead vertices before phase 1
    monkeypatch.setattr("collapse_lab.collapse_engine._VERIFY_BLOCK", block)
    for k, (n, c) in enumerate(itertools.product((200, 2000), (1.5, 3.0, 12.0))):
        g = sample_er(n, c / n, mix_seed(247, k))
        if k % 2:
            for v in rng_from_seed(k).choice(n, n // 4, replace=False).tolist():
                g.remove_vertex(v)
        assert_phases_match_the_walk(g, None, None)
        assert_phases_match_the_walk(g, 2, mix_seed(248, k))


def test_phases_memory_on_sparse_input():
    # collapse-phases' graphs at twice the size, 0.15 million CSR entries:
    # 8.0 MB at peak, the snapshot list plus the kernel's temporaries on the
    # vertices phase 1 touched; the bound's 1 MB of headroom is less than an
    # int64 key array over the rows (1.2 MB) would add
    n, seed = 10**5, mix_seed(249, 0)
    g = sample_er(n, 1.5 / n, seed)
    h = g.copy()
    tracemalloc.start()
    try:
        trace = run_epoch1(g, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace == walk_phases(h, 11)[0]
    assert peak <= 9 * 2**20


def test_run_trial_matches_the_full_scan_composition():
    budgets = (0, 1, 2, 5, 11)
    stepped = 0
    for k in range(25):
        seed = mix_seed(199, k)
        g = sample_er(300, (1.5, 3.0)[k % 2] / 300, seed)
        t = budgets[k % len(budgets)]
        a, b = g.copy(), g.copy()
        pairs, trace, e2 = run_trial(a, t, rng_from_seed(seed))
        assert pairs == count_dominated_pairs(b)
        assert trace == run_epoch1(b, t)
        assert e2 == run_epoch2(b, rng_from_seed(seed))
        assert list(a.alive_ids()) == list(b.alive_ids())
        assert sorted(a.edges()) == sorted(b.edges())
        stepped += e2.steps > 0
    assert stepped > 0  # some budgets leave epoch 2 work


def test_run_trial_walks_the_alive_vertices_once(monkeypatch):
    # the one walk is a `scan_edges` call on the alive edges; no `_scan` runs
    g = sample_er(300, 1.5 / 300, mix_seed(211, 0))
    calls = []
    for name in ("scan_edges", "dominated_set"):
        fn = getattr(engine, name)
        monkeypatch.setattr(engine, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    run_trial(g, 3, rng_from_seed(0))
    assert calls == ["scan_edges"]


@pytest.mark.parametrize("t", [0, 1, 2, 11])
def test_run_trial_drops_phase_one_snapshot_before_epoch2(monkeypatch, t):
    # from t = 1 on, nothing holds phase 1's snapshot while epoch 2 runs; at t = 0 it is the pool
    class Snapshot(list):  # a list that takes weak references
        pass

    scan, epoch2 = engine.scan_edges, engine._epoch2
    held, entered = [], []

    def scan_with_weakref(*a):
        pairs, snapshot = scan(*a)
        snapshot = Snapshot(snapshot)
        held.append(weakref.ref(snapshot))
        return pairs, snapshot

    def epoch2_checking(g, rng, pool):
        entered.append(pool if t == 0 else held[0]())
        return epoch2(g, rng, pool)

    monkeypatch.setattr(engine, "scan_edges", scan_with_weakref)
    monkeypatch.setattr(engine, "_epoch2", epoch2_checking)
    g = sample_er(2000, 1.5 / 2000, mix_seed(214, t))
    run_trial(g, t, rng_from_seed(0))
    assert len(held) == 1
    if t == 0:
        assert entered[0] is held[0]()
    else:
        assert entered == [None]


FULL_SCAN_ENTRIES = {
    "dominated_set": dominated_set,
    "count_dominated_pairs": count_dominated_pairs,
    "prune_phase": prune_phase,
    "run_epoch1": lambda g: run_epoch1(g, 3),
    "run_core": run_core,
    "run_epoch2": lambda g: run_epoch2(g, rng_from_seed(0)),
}


@pytest.mark.parametrize("entry", FULL_SCAN_ENTRIES)
def test_each_full_scan_entry_calls_scan_edges_once(monkeypatch, entry):
    # no entry scans twice, and none walks the alive vertices one at a time instead
    g = sample_er(300, 3.0 / 300, mix_seed(213, 0))
    calls = []
    fn = engine.scan_edges
    monkeypatch.setattr(engine, "scan_edges", lambda *a: calls.append(a) or fn(*a))
    FULL_SCAN_ENTRIES[entry](g)
    assert len(calls) == 1


# -- topology and uniqueness -----------------------------------------------------


def test_each_removal_preserves_euler_characteristic():
    for k in range(10):
        g = sample_er(14, 0.3, mix_seed(99, k))
        while True:
            pool = dominated_set(g)
            if not pool:
                break
            chi = euler_characteristic(g)
            g.remove_vertex(pool[0])
            assert euler_characteristic(g) == chi


def _core_fingerprint(h):
    # isomorphism invariants of the fully collapsed graph; the vertex set
    # itself is order-dependent when mutually dominating twins survive
    degs = sorted(h.degree(v) for v in h.alive_ids())
    return len(degs), tuple(degs), clique_census(h, n_limit=h.n)


def two_core(g):
    """Vertex set of the 2-core: peel vertices of degree <= 1 until none is left, O(n + m)."""
    deg = {v: g.degree(v) for v in g.alive_ids()}
    stack = [v for v, d in deg.items() if d <= 1]
    gone = set(stack)
    while stack:
        for w in g.neighbor_view(stack.pop()):
            if w not in gone:
                deg[w] -= 1
                if deg[w] <= 1:
                    gone.add(w)
                    stack.append(w)
    return set(deg) - gone


def test_core_is_order_independent_up_to_isomorphism():
    # also the theorem core <= 2-core: a leaf is dominated, so every core's
    # non-isolated part has minimum degree >= 2, whatever the order
    for k in range(12):
        g = sample_er(70, 0.04, mix_seed(111, k))
        nx_graph = nx.Graph(g.edges())
        nx_graph.add_nodes_from(g.alive_ids())
        core2 = two_core(g)
        assert core2 == set(nx.k_core(nx_graph, 2))
        h = g.copy()
        run_core(h)
        assert set(core_vertices(h)) <= core2
        baseline = _core_fingerprint(h)
        for r in range(5):
            h = g.copy()
            run_core(h, order_rng=rng_from_seed(mix_seed(222, 5 * k + r)))
            assert _core_fingerprint(h) == baseline
            assert set(core_vertices(h)) <= core2


def test_true_twins_make_the_surviving_set_order_dependent():
    # 6 and 7 have the same closed neighborhood, so each dominates the other
    # and the processing order picks the casualty; the survivor keeps both
    # cycle contacts, leaving two different vertex sets for isomorphic cores.
    hexagon = [(i, (i + 1) % 6) for i in range(6)]
    twins = [(6, 7), (6, 0), (6, 3), (7, 0), (7, 3)]
    g1 = graph(8, hexagon + twins)
    run_core(g1)  # ascending order removes 6 first
    g2 = graph(8, hexagon + twins)
    assert find_dominator(g2, 7) == 6
    g2.remove_vertex(7)
    run_core(g2)
    assert not dominated_set(g1) and not dominated_set(g2)
    assert set(core_vertices(g1)) == {0, 1, 2, 3, 4, 5, 7}
    assert set(core_vertices(g2)) == {0, 1, 2, 3, 4, 5, 6}
    assert _core_fingerprint(g1) == _core_fingerprint(g2)


def test_f0_after_tracks_live_count_during_phases():
    g = sample_er(120, 0.03, 13)
    trace = run_epoch1(g, 4)
    assert trace.phases[-1].f0_after == g.non_isolated_count()
    f0s = [trace.initial_f0] + [ph.f0_after for ph in trace.phases]
    assert f0s == sorted(f0s, reverse=True)


def prune_to_core_against_recount(g):
    """prune_phase until one removes nothing, each report held to a literal recount."""

    def isolated():
        return sum(1 for v in g.alive_ids() if g.degree(v) == 0)

    while True:
        before = isolated()
        report = prune_phase(g)
        assert report.f0_after == sum(1 for v in g.alive_ids() if g.degree(v) > 0)
        assert report.isolated_created == isolated() - before
        if not report.removed:
            return


def test_f0_after_is_a_recount_at_every_phase():
    for k in range(20):
        p = (0.02, 0.05, 0.1)[k % 3]
        prune_to_core_against_recount(sample_er(80, p, mix_seed(244, k)))
    for g in (triangle(), star(6), cycle(4), complete(5)):
        prune_to_core_against_recount(g)


@settings(deadline=None)
@given(small_edge_lists)
@example((3, [(0, 1), (1, 2), (0, 2)]))  # 1 is touched by 0's removal, then removed itself
@example((5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (3, 4)]))  # twins 0 and 1
def test_f0_after_is_a_recount_on_small_graphs(case):
    n, edges = case
    prune_to_core_against_recount(graph(n, [(u, v) for u, v in edges if u != v]))


def test_run_epoch1_counts_f0_once(monkeypatch):
    g = sample_er(300, 1.5 / 300, mix_seed(211, 0))
    calls = []
    count = AdjacencyGraph.non_isolated_count
    monkeypatch.setattr(
        AdjacencyGraph, "non_isolated_count", lambda self: calls.append(1) or count(self)
    )
    assert len(run_epoch1(g, 11).phases) > 1
    assert len(calls) == 1


# -- pair statistics --------------------------------------------------------------


def test_count_dominated_pairs_examples():
    assert count_dominated_pairs(graph(2, [(0, 1)])) == 2
    assert count_dominated_pairs(cycle(4)) == 0
    assert count_dominated_pairs(triangle()) == 6
    assert count_dominated_pairs(star(3)) == 3  # each leaf under the center
    assert count_dominated_pairs(AdjacencyGraph(5)) == 0


def test_count_dominated_pairs_matches_subset_scan():
    for k in range(15):
        g = sample_er(25, 0.15, mix_seed(133, k))
        alive = list(g.alive_ids())
        brute = sum(
            1
            for u in alive
            for w in alive
            if u != w and is_closed_nbhd_subset(g, u, w)
        )
        assert count_dominated_pairs(g) == brute


def test_has_universal_vertex():
    assert has_universal_vertex(star(4))
    assert not has_universal_vertex(cycle(4))
    k5_minus = complete(5)
    k5_minus.remove_vertex(0)
    assert has_universal_vertex(k5_minus)  # K4 remains
    g = complete(5)
    adj = graph(5, [(u, v) for u, v in g.edges() if (u, v) != (0, 1)])
    assert has_universal_vertex(adj)  # 2, 3, 4 still see everyone
    assert has_universal_vertex(AdjacencyGraph(1))
    assert not has_universal_vertex(AdjacencyGraph(0))
    assert not has_universal_vertex(AdjacencyGraph(2))
    # seeded ER graphs, half of them with removals, against the literal definition
    for k in range(160):
        n, p = 1 + k % 8, (0.0, 0.3, 0.7, 0.95, 1.0)[k % 5]
        g = sample_er(n, p, mix_seed(443, k))
        if k // 40 % 2:
            for v in range(0, n, 3):
                g.remove_vertex(v)
        expect = any(g.degree(v) == g.alive_count() - 1 for v in g.alive_ids())
        assert has_universal_vertex(g) == expect, (n, p, k)


# -- the scan on the graph's own rows ------------------------------------------------


@pytest.mark.parametrize("block", [1, 2, 3, 64])
def test_scan_edges_on_the_graph_across_block_boundaries(monkeypatch, block):
    # the graph's own rows hold dead entries and dead vertices' rows, which
    # the scan must skip; blocks of vertex ranges split them at every offset
    monkeypatch.setattr("collapse_lab.collapse_engine._VERIFY_BLOCK", block)
    for k, (n, c) in enumerate(itertools.product((200, 1000), (1.5, 3.0, 12.0))):
        g = sample_er(n, c / n, mix_seed(236, k))
        assert scan_edges(g) == _scan(g), (n, c)
        for v in rng_from_seed(k).choice(n, n // 4, replace=False).tolist():
            g.remove_vertex(v)
        assert scan_edges(g) == _scan(g) == scan_edges(n, *g._edge_arrays()), (n, c)
        run_epoch1(g, 1)
        assert scan_edges(g) == _scan(g), (n, c)


def bit(x):
    """The signature bit of id x, by the stated rule on Python ints."""
    return 1 << ((x * 0x9E3779B97F4A7C15 % 2**64) >> 58)


@pytest.mark.parametrize("block", [1, 3, None])
def test_signatures_follow_the_bit_rule(monkeypatch, block):
    # sig[v] ORs the bits of v and of its whole row; blocks of vertex ranges
    # cut the build at every offset, and isolated vertices hold their own bit
    if block is not None:
        monkeypatch.setattr(engine, "_VERIFY_BLOCK", block)
    for k, (n, c) in enumerate(itertools.product((1, 50, 400), (0.5, 3.0, 12.0))):
        g = sample_er(n, min(1.0, c / n), mix_seed(263, k))
        expect = [functools.reduce(operator.or_, map(bit, [v, *g._live(v)])) for v in range(n)]
        assert engine._views(g)[4].tolist() == expect, (n, c)


@pytest.mark.parametrize("block", [1, 5, None])
def test_scan_and_phases_with_a_blind_filter(monkeypatch, block):
    # every id gets the same bit, so every candidate passes the signature
    # filter and the full check alone decides each pair: the scans in both
    # forms, before and after removals, and the phases need no filter
    monkeypatch.setattr(engine, "_bits", lambda x: np.ones(len(x), dtype=np.uint64))
    if block is not None:
        monkeypatch.setattr(engine, "_VERIFY_BLOCK", block)
    for k, (n, c) in enumerate(itertools.product((60, 300), (1.5, 3.0, 12.0))):
        seed = mix_seed(261, k)
        g = sample_er(n, c / n, seed)
        assert scan_edges(n, *sample_edges(n, c / n, seed)) == scan_edges(g) == _scan(g), (n, c)
        assert g._sig.tolist() == [1] * n  # blind
        h = g.copy()
        assert run_core(g) == walk_phases(h)[0], (n, c)
        assert g._alive == h._alive and g._deg == h._deg, (n, c)
        g = sample_er(n, c / n, seed)
        for v in rng_from_seed(k).choice(n, n // 4, replace=False).tolist():
            g.remove_vertex(v)
        assert scan_edges(g) == _scan(g) == scan_edges(n, *g._edge_arrays()), (n, c)


def test_whole_row_signatures_cover_every_live_neighborhood():
    # rows never change and vertices only die: the signatures a graph got
    # from its whole rows stay as they were through removals and a phase,
    # still hold the bits of every live N[v], and keep the scan exact
    for k, (n, c) in enumerate(itertools.product((300, 3000), (1.5, 3.0, 12.0))):
        g = sample_er(n, c / n, mix_seed(262, k))
        assert scan_edges(g) == _scan(g), (n, c)
        sig = g._sig.copy()
        for v in rng_from_seed(k).choice(n, n // 4, replace=False).tolist():
            g.remove_vertex(v)
        run_epoch1(g, 1)
        assert scan_edges(g) == _scan(g), (n, c)
        assert np.array_equal(g._sig, sig) and g.copy()._sig is g._sig, (n, c)
        for v in g.alive_ids():
            live = functools.reduce(operator.or_, map(bit, g.neighbor_view(v) | {v}))
            assert live & ~int(sig[v]) == 0, (n, c, v)


def test_run_trial_lays_out_no_second_copy(monkeypatch):
    # the scan reads the graph's own rows: neither the alive-edge arrays nor
    # a second CSR layout is made
    def refuse(*args):
        raise AssertionError("a second copy of the rows")

    budgets = itertools.product((1.5, 3.0), (0, 2, 11))
    cases = [(300, c, mix_seed(212, k), t) for k, (c, t) in enumerate(budgets)]
    expect = []
    for n, c, seed, t in cases:
        g = sample_er(n, c / n, seed)
        pairs = count_dominated_pairs(g)
        expect.append((pairs, run_epoch1(g, t), run_epoch2(g, rng_from_seed(seed))))
    graphs = [sample_er(n, c / n, seed) for n, c, seed, _ in cases]
    monkeypatch.setattr(AdjacencyGraph, "_edge_arrays", refuse)
    monkeypatch.setattr(engine, "csr_rows", refuse)
    monkeypatch.setattr("collapse_lab.graph_core.csr_rows", refuse)
    for g, (n, c, seed, t), want in zip(graphs, cases, expect):
        assert run_trial(g, t, rng_from_seed(seed)) == want, (c, t)


def _scan_peak(n, us, vs):
    tracemalloc.start()
    try:
        result = scan_edges(n, us, vs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_scan_edges_memory_at_phase_sparse_size():
    # 1.15 million CSR entries: the int64 keys (8.8 MiB) and the rows
    # (5.2 MiB) at once inside `csr_rows` set the peak, 14.0 MiB measured;
    # the kernel's blocks add about 3 MiB to the rows after the keys are
    # gone.  With a second key array kept through the scan it was 22.7 MiB;
    # the 20 MiB bound leaves 6 MiB of headroom.
    n = 10**5
    us, vs = sample_edges(n, math.log(n) / n, mix_seed(237, 0))
    result, peak = _scan_peak(n, us, vs)
    assert result == _scan(sample_er(n, math.log(n) / n, mix_seed(237, 0)))
    assert peak <= 20 * 2**20


def test_scan_edges_memory_at_a_million_vertices():
    # n = 10^6, c = 3: 3 million entries.  `csr_rows`' keys and rows set the
    # peak, 42.1 MiB measured.  The bound is the 64.8 MiB that the scan took
    # when it kept its key array; a full scan whose vertex blocks came from
    # n-sized index arrays (start[vs], the sizes, their running sums) would
    # come near it, and the vertex-range blocks keep it 22 MiB below.
    n = 10**6
    us, vs = sample_edges(n, 3 / n, mix_seed(238, 0))
    result, peak = _scan_peak(n, us, vs)
    assert peak <= 64.8 * 2**20
    assert result == scan_edges(sample_er(n, 3 / n, mix_seed(238, 0)))


# -- every small graph, on one disjoint union ------------------------------------------
# Domination never crosses a component, so one scan of a disjoint union gives
# each of its graphs' results at once.


def test_exhaustive_dominated_pair_expectation_at_six_vertices():
    # all 2^15 graphs on 6 vertices, one union per edge count k: the weighted
    # sum of their ordered pair counts is the exact expectation
    pairs = np.array(list(itertools.combinations(range(6), 2)))
    bits = (np.arange(2**15)[:, None] >> np.arange(15)) & 1
    pairs_by_k = []
    for k in range(16):
        graph_at, pair_at = np.nonzero(bits[bits.sum(1) == k])
        union = AdjacencyGraph(6 * math.comb(15, k), pairs[pair_at] + 6 * graph_at[:, None])
        pairs_by_k.append(scan_edges(union)[0])
    for p in (0.1, 0.3, 0.5, 0.9):
        exact = math.fsum(m * p**k * (1 - p) ** (15 - k) for k, m in enumerate(pairs_by_k))
        assert exact == pytest.approx(2 * expected_dominated_pairs(6, p), rel=1e-12, abs=0), p


def test_union_of_every_graph_up_to_five_vertices_scans_as_its_parts():
    edges, pairs, dominated, offset = [], 0, [], 0
    for n in range(1, 6):
        all_pairs = list(itertools.combinations(range(n), 2))
        for mask in range(2 ** len(all_pairs)):
            part = [uv for j, uv in enumerate(all_pairs) if mask >> j & 1]
            k, dom = _scan(graph(n, part))
            pairs += k
            dominated += [offset + v for v in dom]
            edges += [(offset + u, offset + v) for u, v in part]
            offset += n
    union = scan_edges(graph(offset, edges))
    assert union == scan_edges(offset, *np.array(edges).T) == (pairs, dominated)


def test_exhaustive_universal_vertex_expectation_at_six_vertices():
    # all 2^15 graphs on 6 vertices, one union per edge count k: a vertex of
    # degree 5 in the union is adjacent to all the others of its own graph
    pairs = np.array(list(itertools.combinations(range(6), 2)))
    bits = (np.arange(2**15)[:, None] >> np.arange(15)) & 1
    universal_by_k = []
    for k in range(16):
        graph_at, pair_at = np.nonzero(bits[bits.sum(1) == k])
        union = AdjacencyGraph(6 * math.comb(15, k), pairs[pair_at] + 6 * graph_at[:, None])
        universal_by_k.append(sum(is_universal_degree(6, union.degree(v)) for v in range(union.n)))
    assert universal_by_k[15] == 6 and universal_by_k[4] == 0
    for p in (0.1, 0.3, 0.5, 0.9):
        exact = math.fsum(m * p**k * (1 - p) ** (15 - k) for k, m in enumerate(universal_by_k))
        assert exact == pytest.approx(expected_universal_vertices(6, p), rel=1e-12, abs=0), p


def test_core_of_every_graph_up_to_five_vertices_is_order_free():
    # the strong-collapse core is unique up to isomorphism (Barmak & Minian),
    # so each graph's sorted core degree sequence is the same in every order;
    # a removal keeps the dominator, so no connected component ever empties
    parts, edges, offset = [], [], 0
    for n in range(1, 6):
        all_pairs = list(itertools.combinations(range(n), 2))
        for mask in range(2 ** len(all_pairs)):
            edges += [(offset + u, offset + v) for j, (u, v) in enumerate(all_pairs) if mask >> j & 1]
            parts.append(range(offset, offset + n))
            offset += n
    assert len(parts) == 1099
    union = graph(offset, edges)
    whole = nx.empty_graph(offset)
    whole.add_edges_from(edges)
    components = list(nx.connected_components(whole))
    sequences = []
    for order_rng in (None, rng_from_seed(mix_seed(250, 0)), rng_from_seed(mix_seed(250, 1))):
        g = union.copy()
        run_core(g, order_rng=order_rng)
        assert scan_edges(g)[1] == []
        alive = set(g.alive_ids())
        assert all(alive & c for c in components)
        sequences.append([sorted(g.degree(v) for v in part if v in alive) for part in parts])
    assert sequences[0] == sequences[1] == sequences[2]
