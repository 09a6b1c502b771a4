"""Sampling, adjacency bookkeeping, and the seed-mixing contract."""

import itertools
import math
import warnings

import numpy as np
import pytest

from collapse_lab.graph_core import (
    AdjacencyGraph,
    GraphParams,
    _pair_index_to_uv,
    mix_seed,
    rng_from_seed,
    sample_er,
    splitmix64,
)

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


def test_rng_from_seed_reproducible():
    a = rng_from_seed(99).random(5)
    b = rng_from_seed(99).random(5)
    assert np.array_equal(a, b)


# -- GraphParams ---------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        GraphParams(n=-1, p=0.5, seed=1)
    with pytest.raises(ValueError):
        GraphParams(n=5, p=-0.1, seed=1)
    with pytest.raises(ValueError):
        GraphParams(n=5, p=1.5, seed=1)
    with pytest.raises(ValueError):
        GraphParams.from_c(n=10, c=11.0, seed=1)  # p = 1.1


def test_from_c_sets_p():
    params = GraphParams.from_c(n=1000, c=1.5, seed=3)
    assert params.p == 1.5 / 1000
    assert params.n == 1000


def test_seed_masked_to_64_bits():
    a = GraphParams(n=5, p=0.5, seed=2**70 + 5)
    b = GraphParams(n=5, p=0.5, seed=(2**70 + 5) % 2**64)
    assert a.seed == b.seed
    assert sorted(sample_er(a).edges()) == sorted(sample_er(b).edges())


# -- adjacency structure ---------------------------------------------------------


def triangle() -> AdjacencyGraph:
    return AdjacencyGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def test_basic_accessors():
    g = triangle()
    assert g.alive_count() == 3
    assert g.non_isolated_count() == 3
    assert g.degree(0) == 2
    assert g.neighbors(0) == [1, 2]
    assert g.edge_count() == 3
    assert g.max_degree() == 2
    assert list(g.edges()) == [(0, 1), (0, 2), (1, 2)]


def test_closed_nbhd_subset():
    g = AdjacencyGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.is_closed_nbhd_subset(0, 1)  # N[0]={0,1} within N[1]={0,1,2}
    assert not g.is_closed_nbhd_subset(1, 0)
    assert not g.is_closed_nbhd_subset(1, 2)  # 0 not adjacent to 2
    assert g.is_closed_nbhd_subset(2, 2)


def test_self_loop_rejected():
    g = AdjacencyGraph(3)
    with pytest.raises(ValueError):
        g.add_edge(1, 1)


def test_dead_vertex_access_raises():
    g = triangle()
    g.remove_vertex(1)
    with pytest.raises(ValueError):
        g.degree(1)
    with pytest.raises(ValueError):
        g.neighbors(1)
    with pytest.raises(ValueError):
        g.remove_vertex(1)


def test_remove_vertex_updates_counts():
    g = AdjacencyGraph.from_edges(4, [(0, 1), (2, 3)])
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
        g = sample_er(GraphParams(n=60, p=0.08, seed=mix_seed(900, trial)))
        alive = list(g.alive_ids())
        order = rng.permutation(len(alive))
        for j in order[:40]:
            g.remove_vertex(alive[j])
            recount = sum(1 for v in g.alive_ids() if g.degree(v) > 0)
            assert g.non_isolated_count() == recount


# -- pair index mapping -----------------------------------------------------------


def test_pair_index_bijection_small():
    for n in (2, 3, 5, 17, 100):
        idx = np.arange(n * (n - 1) // 2, dtype=np.int64)
        u, v = _pair_index_to_uv(idx, n)
        expect = list(itertools.combinations(range(n), 2))
        got = list(zip(u.tolist(), v.tolist()))
        assert got == expect


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
    # no row holds these indices, so every fix-up pass moves them and none certifies
    n = 100
    for idx in ([n * (n - 1) // 2], [-1, -5], [10**12]):
        # far past the end the float solve meets a negative square root; the
        # map must raise without printing numpy warnings first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError):
                _pair_index_to_uv(np.array(idx, dtype=np.int64), n)


# -- sampling ----------------------------------------------------------------------


def test_sample_deterministic_and_frozen():
    g = sample_er(GraphParams(n=10, p=0.3, seed=12345))
    assert sorted(g.edges()) == [
        (0, 1), (0, 3), (0, 8), (1, 4), (1, 6), (1, 8),
        (2, 4), (2, 5), (2, 9), (4, 6), (4, 7), (6, 9),
    ]
    g2 = sample_er(GraphParams(n=6, p=0.5, seed=777))
    assert sorted(g2.edges()) == [
        (0, 2), (0, 3), (0, 5), (2, 3), (2, 4), (2, 5), (3, 5),
    ]


def test_sample_adjacency_is_symmetric_and_sorted():
    g = sample_er(GraphParams(n=200, p=0.04, seed=31))
    for v in g.alive_ids():
        nbrs = g.neighbors(v)
        assert nbrs == sorted(nbrs)
        assert v not in nbrs
        for w in nbrs:
            assert v in g.neighbor_view(w)


def test_handshake():
    for seed in range(5):
        g = sample_er(GraphParams(n=300, p=0.02, seed=seed))
        assert sum(g.degree(v) for v in g.alive_ids()) == 2 * g.edge_count()


def test_degenerate_probabilities():
    empty = sample_er(GraphParams(n=20, p=0.0, seed=1))
    assert empty.edge_count() == 0
    assert empty.non_isolated_count() == 0
    full_a = sample_er(GraphParams(n=20, p=1.0, seed=1))
    full_b = sample_er(GraphParams(n=20, p=1.0, seed=999))
    assert full_a.edge_count() == 20 * 19 // 2
    assert sorted(full_a.edges()) == sorted(full_b.edges())


def test_mean_edge_count_sparse():
    """100 seeds at n=10^4, p=1.5/n: total edges within 3 standard errors."""
    n, p, seeds = 10_000, 1.5e-4, 100
    pairs = n * (n - 1) // 2
    counts = [
        sample_er(GraphParams(n=n, p=p, seed=mix_seed(7000, i))).edge_count()
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
        g = sample_er(GraphParams(n=n, p=p, seed=mix_seed(8000, i)))
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
        g = sample_er(GraphParams(n=n, p=p, seed=mix_seed(8100, i)))
        for e in watched:
            if e[1] in g.neighbor_view(e[0]):
                hits[e] += 1
    se = math.sqrt(p * (1 - p) * seeds)
    for e, h in hits.items():
        assert abs(h - p * seeds) <= 4 * se, f"pair {e}: {h} hits"

