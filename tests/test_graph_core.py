"""Sampling, adjacency bookkeeping, and the seed-mixing contract."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collapse_lab import graph_core
from collapse_lab.graph_core import (
    AdjacencyGraph,
    csr_rows,
    fill_rows,
    mix_seed,
    mix_seeds,
    pcg64_states,
    rng_from_seed,
    sample_edges,
    sample_er,
    splitmix64,
)
from references import _pair_index_to_uv, is_closed_nbhd_subset, random_rows, sample_edges_one_shot

# finalizer applied to 0 + k*golden is the published splitmix64 stream for seed 0
SPLITMIX_STREAM_FROM_ZERO = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
]


def test_mix_seed_matches_published_splitmix64_stream():
    for k, expect in enumerate(SPLITMIX_STREAM_FROM_ZERO, start=1):
        assert mix_seed(0, k) == expect


def test_mix_seed_is_64_bit_and_stable():
    assert splitmix64(0) == 0
    assert mix_seed(42, 0) == 12058926934050108962
    assert mix_seed(2**64 - 1, 5) == 13015481187462834606
    for base, idx in [(0, 1), (7, 9), (2**63, 12345)]:
        v = mix_seed(base, idx)
        assert 0 <= v < 2**64


def test_mix_seeds_equals_mix_seed_lane_by_lane():
    indices = list(range(5000)) + [2**32, 2**63 - 1]
    for base in (0, 42, 2**63, 2**64 - 1, -1, 2**64, 2**70 + 5):
        got = mix_seeds(base, np.array(indices, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == [mix_seed(base, i) for i in indices], base
    # int64 indices, as estimate_gamma passes them, and an empty chunk
    assert mix_seeds(7, np.arange(3)).tolist() == [mix_seed(7, i) for i in range(3)]
    assert mix_seeds(7, np.arange(0)).shape == (0,)


def test_pcg64_states_are_the_generators_own():
    seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1] + [mix_seed(32, i) for i in range(200)]
    states = pcg64_states(np.array(seeds, dtype=np.uint64))
    assert states.shape == (4, len(seeds)) and states.dtype == np.uint64
    for seed, (s_hi, s_lo, i_hi, i_lo) in zip(seeds, states.T.tolist()):
        want = rng_from_seed(seed).bit_generator.state["state"]
        assert (s_hi << 64 | s_lo, i_hi << 64 | i_lo) == (want["state"], want["inc"]), seed


def test_fill_rows_from_a_slice_of_states():
    seeds = [mix_seed(33, i) for i in range(40)]
    states = pcg64_states(np.array(seeds, dtype=np.uint64))
    out = np.empty((15, 9))
    fill_rows(states[:, 20:35], out)
    assert np.array_equal(out, [rng_from_seed(s).random(9) for s in seeds[20:35]])
    with pytest.raises(ValueError):
        fill_rows(states[:, :3], out[:2])


def test_fill_rows_reuses_one_generator_and_resets_it_per_row():
    # the second call gets the first call's generator, left holding a buffered
    # half-word and a moved state, and still starts each row afresh
    seeds = [mix_seed(34, i) for i in range(6)]
    states = pcg64_states(np.array(seeds, dtype=np.uint64))
    first, second = np.empty((3, 5)), np.empty((3, 5))
    fill_rows(states[:, :3], first)
    rng = graph_core._row_filler()[0]
    rng.integers(0, 2**32, size=3, dtype=np.uint32)
    fill_rows(states[:, 3:], second)
    assert graph_core._row_filler()[0] is rng
    assert np.array_equal(np.vstack((first, second)), [rng_from_seed(s).random(5) for s in seeds])


def test_rng_from_seed_reproducible():
    a = rng_from_seed(99).random(5)
    b = rng_from_seed(99).random(5)
    assert np.array_equal(a, b)


def test_random_rows_replay_fresh_generators():
    edges = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    seeds = edges + [mix_seed(31, i) for i in range(1200)]
    expect = np.array([rng_from_seed(s).random(70) for s in seeds])
    out = np.empty((len(seeds), 70))
    random_rows(seeds, out)
    assert np.array_equal(out, expect)
    # uneven splits: each call starts its seeds' streams afresh
    out = np.full((len(seeds), 70), np.nan)
    for lo, hi in itertools.pairwise([0, 1, 2, 7, 135, 136, 700, len(seeds)]):
        random_rows(seeds[lo:hi], out[lo:hi])
    assert np.array_equal(out, expect)
    with pytest.raises(ValueError):
        random_rows(seeds[:3], out[:2])


# -- sampler inputs --------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError, match="vertex count must be >= 0"):
        sample_edges(-1, 0.5, 1)
    for p in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match="edge probability must lie in"):
            sample_edges(5, p, 1)


def test_seed_masked_to_64_bits():
    a = sample_er(5, 0.5, 2**70 + 5)
    b = sample_er(5, 0.5, (2**70 + 5) % 2**64)
    assert sorted(a.edges()) == sorted(b.edges())


# -- adjacency structure ---------------------------------------------------------


def triangle() -> AdjacencyGraph:
    return AdjacencyGraph(3, [(0, 1), (1, 2), (0, 2)])


def test_basic_accessors():
    g = triangle()
    assert g.alive_count() == 3
    assert g.non_isolated_count() == 3
    assert g.degree(0) == 2
    assert g.neighbor_view(0) == {1, 2}
    assert g.edge_count() == 3
    assert g.max_degree() == 2
    assert list(g.edges()) == [(0, 1), (0, 2), (1, 2)]


def test_closed_nbhd_subset():
    g = AdjacencyGraph(4, [(0, 1), (1, 2), (2, 3)])
    assert is_closed_nbhd_subset(g, 0, 1)  # N[0]={0,1} within N[1]={0,1,2}
    assert not is_closed_nbhd_subset(g, 1, 0)
    assert not is_closed_nbhd_subset(g, 1, 2)  # 0 not adjacent to 2
    assert is_closed_nbhd_subset(g, 2, 2)


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        AdjacencyGraph(3, [(1, 1)])


def test_edge_ids_outside_the_range_rejected():
    for edge in [(0, 3), (-1, 0)]:  # -1 would index the last set
        with pytest.raises(ValueError, match=r"out of range \[0, 3\)"):
            AdjacencyGraph(3, [edge])


def test_the_first_id_outside_the_range_is_named():
    # edges are read in order, each edge's first end before its second
    for edges, bad in [([(0, 1), (1, 5), (-1, 0)], 5), ([(0, 1), (-2, 7)], -2), ([(2, 9)], 9)]:
        with pytest.raises(ValueError, match=rf"vertex id {bad} out of range \[0, 3\)"):
            AdjacencyGraph(3, edges)


def test_sample_er_hands_the_sampler_arrays_to_the_builder(monkeypatch):
    # the constructor and sample_er share one builder from (us, vs): the
    # sampler's arrays go in as they are, with no (m, 2) stack between
    graphs = {}
    for k, (n, p) in enumerate(itertools.product((0, 1, 2, 40, 300), (0.0, 0.05, 0.5, 1.0))):
        seed = mix_seed(305, k)
        us, vs = sample_edges(n, p, seed)
        graphs[n, p, seed] = AdjacencyGraph(n, list(zip(us.tolist(), vs.tolist())))

    def refuse(*args, **kwargs):
        raise AssertionError("an (m, 2) copy of the edges")

    monkeypatch.setattr(np, "column_stack", refuse)
    monkeypatch.setattr(np, "stack", refuse)
    for (n, p, seed), expect in graphs.items():
        g = sample_er(n, p, seed)
        assert g._dst == expect._dst and g._start == expect._start, (n, p)
        assert g._deg == expect._deg and g._alive == expect._alive, (n, p)


def test_repeated_edges_count_once():
    g = AdjacencyGraph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1
    assert g.non_isolated_count() == 2
    assert g.degree(0) == g.degree(1) == 1


def test_dead_vertex_access_raises():
    g = triangle()
    g.remove_vertex(1)
    with pytest.raises(ValueError):
        g.degree(1)
    with pytest.raises(ValueError):
        g.neighbor_view(1)
    with pytest.raises(ValueError):
        g.remove_vertex(1)


def test_remove_vertex_updates_counts():
    g = AdjacencyGraph(4, [(0, 1), (2, 3)])
    g.remove_vertex(1)
    # 0 lost its only neighbor and became isolated
    assert g.alive_count() == 3
    assert g.non_isolated_count() == 2
    assert g.degree(0) == 0
    g.remove_vertex(3)
    assert g.non_isolated_count() == 0
    assert g.edge_count() == 0


def test_copy_is_independent():
    g = triangle()
    h = g.copy()
    h.remove_vertex(0)
    assert g.alive_count() == 3
    assert h.alive_count() == 2
    assert g.edge_count() == 3


def test_non_isolated_matches_recount_under_deletions():
    rng = rng_from_seed(17)
    for trial in range(10):
        g = sample_er(60, 0.08, mix_seed(900, trial))
        alive = list(g.alive_ids())
        order = rng.permutation(len(alive))
        for j in order[:40]:
            g.remove_vertex(alive[j])
            recount = sum(1 for v in g.alive_ids() if g.degree(v) > 0)
            assert g.non_isolated_count() == recount


def test_degree_statistics_are_ints_read_off_the_live_degrees():
    for n in (0, 1, 3):
        assert (AdjacencyGraph(n).max_degree(), AdjacencyGraph(n).non_isolated_count()) == (0, 0)
    g = sample_er(300, 3 / 300, mix_seed(901, 0))
    for v in rng_from_seed(18).choice(300, 299, replace=False).tolist():
        live = [g.degree(u) for u in g.alive_ids()]
        assert type(g.max_degree()) is int and g.max_degree() == max(live)
        assert type(g.non_isolated_count()) is int
        assert g.non_isolated_count() == sum(d > 0 for d in live)
        g.remove_vertex(v)
    assert (g.max_degree(), g.non_isolated_count()) == (0, 0)


def _holds_model(g, model):
    """g agrees with `model`, a dict of alive vertex -> set of neighbors."""
    assert g.alive_count() == len(model)
    for v, nb in model.items():
        assert g.degree(v) == len(nb)
        assert g.neighbor_view(v) == nb
    assert list(g.edges()) == sorted((u, v) for u, nb in model.items() for v in nb if u < v)
    assert g.edge_count() == sum(map(len, model.values())) // 2
    assert g.non_isolated_count() == sum(1 for nb in model.values() if nb)
    assert g.max_degree() == max(map(len, model.values()), default=0)


graphs_and_orders = st.integers(1, 9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
            max_size=30,
        ),
        st.permutations(range(n)),
    )
)


@settings(deadline=None)
@given(graphs_and_orders)
@example((4, [(0, 1), (1, 0), (0, 1), (2, 1), (1, 2), (3, 0)], [1, 0, 3, 2]))
@example((3, [], [2, 0, 1]))
def test_removals_match_a_dict_of_sets_model(case):
    n, edges, order = case
    g = AdjacencyGraph(n, edges)
    model = {v: set() for v in range(n)}
    for u, v in edges:
        model[u].add(v)
        model[v].add(u)
    _holds_model(g, model)
    for i, v in enumerate(order):
        if i == n // 2:
            h, h_model = g.copy(), {u: set(nb) for u, nb in model.items()}
        g.remove_vertex(v)
        for u in model.pop(v):
            model[u].discard(v)
        _holds_model(g, model)
    _holds_model(h, h_model)


# -- pair index mapping -----------------------------------------------------------


def test_pair_index_bijection_small():
    rng = np.random.default_rng(5)
    for n in (2, 3, 5, 17, 100):
        idx = np.arange(n * (n - 1) // 2, dtype=np.int64)
        u, v = _pair_index_to_uv(idx, n)
        expect = list(itertools.combinations(range(n), 2))
        got = list(zip(u.tolist(), v.tolist()))
        assert got == expect
        # unsorted indices with repeats map one by one
        shuffled = rng.permutation(np.concatenate([idx, idx[rng.integers(0, idx.size, 2 * n)]]))
        u, v = _pair_index_to_uv(shuffled, n)
        assert list(zip(u.tolist(), v.tolist())) == [expect[i] for i in shuffled.tolist()]


def test_pair_index_boundaries_large():
    n = 10**6
    total = n * (n - 1) // 2

    def exact(idx: int) -> tuple[int, int]:
        # integer row search: u is the largest row whose prefix stays <= idx
        lo, hi = 0, n - 2
        while lo < hi:
            mid = (lo + hi + 1) // 2
            prefix = mid * n - mid * (mid + 1) // 2
            if prefix <= idx:
                lo = mid
            else:
                hi = mid - 1
        prefix = lo * n - lo * (lo + 1) // 2
        return lo, lo + 1 + (idx - prefix)

    probes = [0, 1, n - 2, n - 1, total // 3, total // 2, total - 2, total - 1]
    u, v = _pair_index_to_uv(np.array(probes, dtype=np.int64), n)
    for i, idx in enumerate(probes):
        assert (int(u[i]), int(v[i])) == exact(idx)


def test_pair_index_row_boundaries_at_1e7():
    # index arithmetic only: first, last and start-1 index of ~20k rows
    n = 10**7
    rng = rng_from_seed(8)
    rows = np.unique(
        np.concatenate(
            [np.arange(2000), np.arange(n - 2001, n - 1), rng.integers(0, n - 1, 16000)]
        )
    ).astype(np.int64)

    def start(r):
        return r * n - r * (r + 1) // 2

    firsts = start(rows)
    lasts = start(rows + 1) - 1
    idx = np.concatenate([firsts, lasts, firsts[1:] - 1])
    expect = np.concatenate([rows, rows, rows[1:] - 1])
    assert rows[0] == 0 and rows[-1] == n - 2 and len(rows) > 19000
    u, v = _pair_index_to_uv(idx, n)
    assert (u == expect).all()
    assert (start(u) <= idx).all() and (idx < start(u + 1)).all()
    assert (0 <= u).all() and (u < v).all() and (v < n).all()


def test_pair_index_past_the_last_pair_raises():
    # the pairs are indexed [0, n(n-1)/2); no row holds an index outside that range
    n = 100
    for idx in ([n * (n - 1) // 2], [-1, -5], [10**12]):
        # the range is checked before any lookup, so the map raises without
        # printing numpy warnings first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError):
                _pair_index_to_uv(np.array(idx, dtype=np.int64), n)


# -- sampling ----------------------------------------------------------------------


def test_sample_deterministic_and_frozen():
    g = sample_er(10, 0.3, 12345)
    assert sorted(g.edges()) == [
        (0, 1), (0, 3), (0, 8), (1, 4), (1, 6), (1, 8),
        (2, 4), (2, 5), (2, 9), (4, 6), (4, 7), (6, 9),
    ]
    g2 = sample_er(6, 0.5, 777)
    assert sorted(g2.edges()) == [
        (0, 2), (0, 3), (0, 5), (2, 3), (2, 4), (2, 5), (3, 5),
    ]


def test_sample_edges_is_the_sampled_graph():
    cases = [(10, 0.3, 12345), (6, 0.5, 777), (0, 0.5, 1), (1, 0.5, 1), (2, 1.0, 3),
             (20, 0.0, 1), (20, 1.0, 1), (200, 0.04, 31)]
    for n, p, seed in cases:
        us, vs = sample_edges(n, p, seed)
        assert us.dtype == vs.dtype == np.int64
        assert list(zip(us.tolist(), vs.tolist())) == list(sample_er(n, p, seed).edges())


def test_sample_edges_tiny_p_gives_no_edge_and_no_warning():
    # gaps past 2^63 (and, for subnormal p, an infinite quotient) must not wrap in the cast
    for p in (1e-18, 1e-300, 5e-324):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            us, vs = sample_edges(10, p, 1)
        assert us.size == vs.size == 0


def test_sample_adjacency_is_symmetric():
    g = sample_er(200, 0.04, 31)
    for v in g.alive_ids():
        nbrs = g.neighbor_view(v)
        assert v not in nbrs
        for w in nbrs:
            assert v in g.neighbor_view(w)


def test_handshake():
    for seed in range(5):
        g = sample_er(300, 0.02, seed)
        assert sum(g.degree(v) for v in g.alive_ids()) == 2 * g.edge_count()


def test_degenerate_probabilities():
    empty = sample_er(20, 0.0, 1)
    assert empty.edge_count() == 0
    assert empty.non_isolated_count() == 0
    full_a = sample_er(20, 1.0, 1)
    full_b = sample_er(20, 1.0, 999)
    assert full_a.edge_count() == 20 * 19 // 2
    assert sorted(full_a.edges()) == sorted(full_b.edges())


def test_mean_edge_count_sparse():
    """100 seeds at n=10^4, p=1.5/n: total edges within 3 standard errors."""
    n, p, seeds = 10_000, 1.5e-4, 100
    pairs = n * (n - 1) // 2
    counts = [
        sample_er(n, p, mix_seed(7000, i)).edge_count()
        for i in range(seeds)
    ]
    mean = sum(counts) / seeds
    expect = pairs * p
    se = math.sqrt(pairs * p * (1 - p) / seeds)
    assert abs(mean - expect) <= 3 * se, f"mean {mean} vs {expect} (se {se:.2f})"


def test_edge_position_uniformity():
    """Mean endpoint ids across many samples match the uniform-pair values.

    For a uniform pair u < v from an n-vertex set, E[u] = (n-2)/3 and
    E[v] = (2n-2)/3.  Catches bias in the index-to-pair mapping ends.
    """
    n, p, seeds = 2000, 1.5e-3, 100
    us, vs = [], []
    for i in range(seeds):
        g = sample_er(n, p, mix_seed(8000, i))
        for u, v in g.edges():
            us.append(u)
            vs.append(v)
    m = len(us)
    # endpoint variance is below n^2/18 for either coordinate
    se = math.sqrt(n * n / 18.0 / m)
    assert abs(sum(us) / m - (n - 2) / 3.0) <= 4 * se
    assert abs(sum(vs) / m - (2 * n - 2) / 3.0) <= 4 * se


def test_edge_frequency_aggregate():
    """Per-pair inclusion is Bernoulli(p): pooled count over a fixed pair set."""
    n, p, seeds = 60, 0.1, 400
    watched = [(0, 1), (0, n - 1), (n - 2, n - 1), (13, 29)]
    hits = {e: 0 for e in watched}
    for i in range(seeds):
        g = sample_er(n, p, mix_seed(8100, i))
        for e in watched:
            if e[1] in g.neighbor_view(e[0]):
                hits[e] += 1
    se = math.sqrt(p * (1 - p) * seeds)
    for e, h in hits.items():
        assert abs(h - p * seeds) <= 4 * se, f"pair {e}: {h} hits"



# -- lean array stages ---------------------------------------------------------------


def _sampler_cases():
    """(n, p, seed) for the sampler reference: tiny n, p at and near 0 and 1, and tiny p."""
    cases = []
    for k, (n, p) in enumerate(
        itertools.product(
            (0, 1, 2, 3, 5, 17, 60, 300),
            (0.0, 1e-300, 1e-18, 1e-4, 0.01, 0.05, 0.3, 0.5, 0.999, 1.0),
        )
    ):
        cases += [(n, p, mix_seed(301, 3 * k + j)) for j in range(3)]
    cases += [(2000, c / 2000, mix_seed(302, k)) for k, c in enumerate((0.5, 1.5, 3.0, 12.0))]
    return cases


def test_sample_edges_matches_the_one_shot_reference():
    cases = _sampler_cases()
    assert len(cases) >= 200
    for n, p, seed in cases:
        us, vs = sample_edges(n, p, seed)
        ref_us, ref_vs = sample_edges_one_shot(n, p, seed)
        assert us.dtype == vs.dtype == np.int64, (n, p, seed)
        assert np.array_equal(us, ref_us) and np.array_equal(vs, ref_vs), (n, p, seed)


@pytest.mark.parametrize("chunk", [1, 7])
def test_sample_edges_in_tiny_chunks_from_a_tiny_buffer(monkeypatch, chunk):
    # one or seven uniforms a draw, and a first buffer of one index, so that
    # the draws, the growth and the in-place row split cross every boundary
    monkeypatch.setattr("collapse_lab.graph_core._CHUNK", chunk)
    monkeypatch.setattr("collapse_lab.graph_core._edge_capacity", lambda total_pairs, p: 1)
    for n, p, seed in _sampler_cases():
        if n <= 60:
            us, vs = sample_edges(n, p, seed)
            ref_us, ref_vs = sample_edges_one_shot(n, p, seed)
            assert np.array_equal(us, ref_us) and np.array_equal(vs, ref_vs), (n, p, seed)


def test_sample_edges_memory_at_phase_sparse_size():
    # phase-sparse's size: 575 000 edges, 8.8 MiB of int64 output.  The one
    # index buffer becomes vs, and the n - 1 row starts (0.8 MiB) and the
    # chunk's draws come on top: 11.1 MiB measured, about 1.26 times the
    # output; the bound of 1.4 times leaves about 1.2 MiB of headroom.  The
    # draws joined at the end, and the pairs mapped out of place, took 18.4 MiB.
    n = 10**5
    p = math.log(n) / n
    tracemalloc.start()
    try:
        us, vs = sample_edges(n, p, mix_seed(303, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * (us.nbytes + vs.nbytes)


def test_sample_er_memory_at_phase_sparse_size():
    # the sampler's output, the key array and the rows, each once: 23.5 MiB
    # measured, as when the builder took an (m, 2) stack of the output; 32.3
    # MiB when the key array lived beside a second copy of the pairs and the
    # rows went through bytes; the bound leaves 2.5 MiB of headroom
    n = 10**5
    tracemalloc.start()
    try:
        sample_er(n, math.log(n) / n, mix_seed(303, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 26 * 2**20


@settings(deadline=None)
@given(graphs_and_orders)
@example((4, [(0, 1), (1, 0), (0, 1), (2, 1), (1, 2), (3, 0)], [0]))
@example((3, [], [0]))
def test_csr_rows_are_the_sorted_neighbor_sets(case):
    # repeats in both orientations go, and every row size is counted once
    n, edges, _ = case
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    dst, start = csr_rows(n, pairs[:, 0], pairs[:, 1])
    nbrs = [sorted({w for u, v in edges for a, w in ((u, v), (v, u)) if a == x}) for x in range(n)]
    assert start.tolist() == [0] + list(itertools.accumulate(map(len, nbrs)))
    assert dst.tolist() == [w for row in nbrs for w in row]
    assert dst.dtype == np.int32
