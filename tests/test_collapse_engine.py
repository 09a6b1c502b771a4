"""Domination, pruning phases, and the one-at-a-time deletion epoch.

The worklist phases of run_epoch1/run_core and the incremental bookkeeping
inside run_epoch2 lean on the locality fact (deleting b can only change
domination status inside N(b)); several tests here replay the same decisions
against a full-rescan reimplementation.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collapse_lab.collapse_engine import (
    CollapseTrace,
    PhaseReport,
    _dominators,
    _is_dominated,
    core_vertices,
    count_dominated_pairs,
    dominated_set,
    find_dominator,
    has_universal_vertex,
    newly_dominated_after_deletion,
    prune_phase,
    run_core,
    run_epoch1,
    run_epoch2,
)
from collapse_lab.graph_core import (
    AdjacencyGraph,
    GraphParams,
    mix_seed,
    rng_from_seed,
    sample_er,
)
from collapse_lab.simplicial_oracle import clique_census, euler_characteristic


def graph(n, edges):
    return AdjacencyGraph.from_edges(n, edges)


def triangle():
    return graph(3, [(0, 1), (1, 2), (0, 2)])


def cycle(n):
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(k):
    return graph(k + 1, [(0, i) for i in range(1, k + 1)])


def random_tree(n, rng):
    g = AdjacencyGraph(n)
    for v in range(1, n):
        g.add_edge(v, int(rng.integers(v)))
    return g


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
        expect = any(g.is_closed_nbhd_subset(v, w) for w in g.neighbors(v))
        assert _is_dominated(g, v) == expect
        dominators = [w for w in g.neighbors(v) if g.is_closed_nbhd_subset(v, w)]
        assert sorted(_dominators(g._adj, v)) == dominators


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
    assert g.is_alive(0)


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
        reports.append(prune_phase(g, phase_index=len(reports) + 1, order_rng=order_rng))
        if not reports[-1].removed:
            break
    return reports


@pytest.mark.parametrize("n,p", [(12, 0.2), (30, 0.08), (60, 0.02), (60, 0.05), (60, 0.1)])
def test_phase_loop_matches_full_rescan(n, p):
    cut_short = 0
    for k in range(20):
        g = sample_er(GraphParams(n=n, p=p, seed=mix_seed(144, k)))
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
        g = sample_er(GraphParams(n=50, p=0.06, seed=mix_seed(155, k)))
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
        g = sample_er(GraphParams(n=80, p=0.05, seed=mix_seed(66, k)))
        trace = run_core(g)
        f0 = trace.initial_f0
        for ph in trace.phases:
            assert ph.isolated_created >= 0
            assert ph.f0_after == f0 - len(ph.removed) - ph.isolated_created
            assert ph.f0_after <= f0
            f0 = ph.f0_after
        assert trace.final_f0() == g.non_isolated_count()
        assert dominated_set(g) == []


def test_trace_serialization():
    g = triangle()
    trace = run_core(g)
    blob = json.loads(trace.to_json())
    assert blob["initial_f0"] == 3
    assert blob["reached_core"] is True
    assert blob["phases"][0]["removed"] == [0, 1]
    rows = trace.csv_rows()
    assert rows[0] == "phase,f0_after,removed_count"
    assert rows[1] == "1,0,2"


# -- epoch 2 ---------------------------------------------------------------------


def test_newly_dominated_triangle_none():
    g = triangle()
    before = sorted(g.edges())
    assert newly_dominated_after_deletion(g, 0) == set()
    assert sorted(g.edges()) == before
    assert g.non_isolated_count() == 3


def test_newly_dominated_path_and_cycle():
    p4 = graph(4, [(0, 1), (1, 2), (2, 3)])
    assert newly_dominated_after_deletion(p4, 0) == {1}
    c4 = cycle(4)
    assert newly_dominated_after_deletion(c4, 0) == {1, 3}
    c4.remove_vertex(2)
    with pytest.raises(ValueError):
        newly_dominated_after_deletion(c4, 2)


def test_newly_dominated_matches_global_rescan():
    """Locality claim: the N(b)-only scan equals a full before/after diff."""
    for k in range(20):
        g = sample_er(GraphParams(n=40, p=0.08, seed=mix_seed(77, k)))
        for b in list(g.alive_ids())[::5]:
            local = newly_dominated_after_deletion(g, b)
            h = g.copy()
            before = set(dominated_set(h))
            h.remove_vertex(b)
            assert set(dominated_set(h)) - before == local


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
    g = sample_er(GraphParams(n=50, p=0.06, seed=4))
    trace = run_epoch2(g, rng_from_seed(2))
    assert trace.steps == len(trace.removed) == len(trace.y_values)
    assert all(y >= 0 for y in trace.y_values)
    blob = json.loads(trace.to_json())
    assert blob["removed"] == trace.removed
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
        g = sample_er(GraphParams(n=45, p=0.055, seed=seed))
        a = g.copy()
        b = g.copy()
        trace = run_epoch2(a, rng_from_seed(seed))
        removed, ys = naive_epoch2(b, rng_from_seed(seed))
        assert trace.removed == removed
        assert trace.y_values == ys


# -- topology and uniqueness -----------------------------------------------------


def test_each_removal_preserves_euler_characteristic():
    for k in range(10):
        g = sample_er(GraphParams(n=14, p=0.3, seed=mix_seed(99, k)))
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


def test_core_is_order_independent_up_to_isomorphism():
    for k in range(12):
        g = sample_er(GraphParams(n=70, p=0.04, seed=mix_seed(111, k)))
        h = g.copy()
        run_core(h)
        baseline = _core_fingerprint(h)
        for r in range(5):
            h = g.copy()
            run_core(h, order_rng=rng_from_seed(mix_seed(222, 5 * k + r)))
            assert _core_fingerprint(h) == baseline


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
    g = sample_er(GraphParams(n=120, p=0.03, seed=13))
    trace = run_epoch1(g, 4)
    assert trace.phases[-1].f0_after == g.non_isolated_count()
    f0s = [trace.initial_f0] + [ph.f0_after for ph in trace.phases]
    assert f0s == sorted(f0s, reverse=True)


# -- pair statistics --------------------------------------------------------------


def test_count_dominated_pairs_examples():
    assert count_dominated_pairs(graph(2, [(0, 1)])) == 2
    assert count_dominated_pairs(cycle(4)) == 0
    assert count_dominated_pairs(triangle()) == 6
    assert count_dominated_pairs(star(3)) == 3  # each leaf under the center
    assert count_dominated_pairs(AdjacencyGraph(5)) == 0


def test_count_dominated_pairs_matches_subset_scan():
    for k in range(15):
        g = sample_er(GraphParams(n=25, p=0.15, seed=mix_seed(133, k)))
        alive = list(g.alive_ids())
        brute = sum(
            1
            for u in alive
            for w in alive
            if u != w and g.is_closed_nbhd_subset(u, w)
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
        g = sample_er(GraphParams(n=n, p=p, seed=mix_seed(443, k)))
        if k // 40 % 2:
            for v in range(0, n, 3):
                g.remove_vertex(v)
        expect = any(g.degree(v) == g.alive_count() - 1 for v in g.alive_ids())
        assert has_universal_vertex(g) == expect, (n, p, k)
