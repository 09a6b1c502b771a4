"""Offspring trees, synchronized leaf pruning, and the isolation-time estimator.

estimate_gamma applies the layer rule to a block of trees at once: one row
of doubles per tree, layer ends o_{d+1} = 1 + P[o_d] over the row's prefix
sums P, the root first isolated at its number of non-empty layers below, and
its degree after s rounds the number of its children whose descendant range
is still non-empty at depth 1 + s.  A row too short for its tree is drawn
again from its seed with twice the width.  gamma_t is thus the probability
that a Poisson(c) Galton-Watson tree is extinct by generation t, hence the
recursion exp(-c(1 - gamma)).  The per-tree reference (sample_tree and
_root_fate, in references.py) is held equal to the literal round-by-round
simulation (root_collapse, and an in-test stepper on the adjacency form)
across random trees, and estimate_gamma is held equal to that reference.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from collapse_lab import graph_core, tree_process
from collapse_lab.collapse_engine import dominated_set
from collapse_lab.graph_core import mix_seed, rng_from_seed
from collapse_lab.theory import gamma_sequence
from collapse_lab.tree_process import TreeTrialStats, _poisson_cdf, estimate_gamma
from references import (
    PoissonTree,
    _TREE_BATCH,
    _isolation_step,
    _poisson_counts,
    estimate_gamma_per_tree,
    root_collapse,
    root_degree_after,
    sample_tree,
    sample_tree_per_layer,
    to_graph,
)


def path_tree() -> PoissonTree:
    # root - child - grandchild
    return PoissonTree(
        parent=np.array([-1, 0, 1]),
        n_children=np.array([1, 1, 0]),
        layer_offsets=np.array([0, 1, 2, 3]),
    )


def star_tree(k: int) -> PoissonTree:
    return PoissonTree(
        parent=np.array([-1] + [0] * k),
        n_children=np.array([k] + [0] * k),
        layer_offsets=np.array([0, 1, 1 + k]),
    )


def bare_root() -> PoissonTree:
    return PoissonTree(
        parent=np.array([-1]),
        n_children=np.array([0]),
        layer_offsets=np.array([0, 1]),
    )


# -- sampling ---------------------------------------------------------------------


def test_poisson_cdf_table():
    cdf = _poisson_cdf(1.5)
    assert cdf[0] == pytest.approx(math.exp(-1.5), rel=1e-14)
    assert np.all(np.diff(cdf) > 0)
    assert cdf[-1] >= 1.0 - 1e-15
    with pytest.raises(ValueError):
        _poisson_cdf(-0.5)


def test_poisson_cdf_ends_at_the_tail_or_where_the_sum_stops_moving():
    # the tables behind the tree-gamma digests and test_estimate_gamma_golden_values
    for c, size, digest in (
        (1.5, 21, "9f3b794ea67f6b93fbe78db502a112db5e83196074b6d361f61a28883418b06e"),
        (3.0, 27, "5ea457ca69ce8506c3646f7f7947478231ce60b639cce33aad1bfa24d42ab819"),
    ):
        cdf = _poisson_cdf(c)
        assert len(cdf) == size
        assert hashlib.sha256(cdf.astype("<f8").tobytes()).hexdigest() == digest
    # at c = 4, 8, 17, 708 and others the rounded sum stalls a few ulps below
    # 1 - 1e-16; the table must end there, not repeat its last value
    for c in range(1, 709):
        cdf = _poisson_cdf(float(c))
        assert len(cdf) < 10_001, c
        assert np.all(np.diff(cdf) > 0), c
        assert cdf[-1] >= 1.0 - 1e-14, c


def test_poisson_counts_mean():
    cdf = _poisson_cdf(1.5)
    draws = _poisson_counts(cdf, rng_from_seed(3), 50_000)
    assert abs(draws.mean() - 1.5) <= 4 * math.sqrt(1.5 / 50_000)


def test_sample_degenerate():
    rng = rng_from_seed(1)
    for tree in (sample_tree(0.0, 4, rng), sample_tree(1.5, 0, rng)):
        assert tree.size == 1
        assert tree.root_degree() == 0
        assert tree.parent[0] == -1


def test_sample_structure_invariants():
    for k in range(60):
        c = (0.5, 1.5, 3.0)[k % 3]
        depth = 1 + k % 5
        tree = sample_tree(c, depth, rng_from_seed(mix_seed(500, k)))
        n = tree.size
        assert tree.parent[0] == -1
        assert tree.layer_offsets[0] == 0 and tree.layer_offsets[-1] == n
        assert len(tree.layer_offsets) - 1 <= depth + 1
        assert np.all(np.diff(tree.layer_offsets) > 0)  # no layer is empty
        for v in range(1, n):
            p = int(tree.parent[v])
            assert 0 <= p < v  # BFS order
        # children are contiguous blocks in parent order, so the root's are 1..k
        assert np.array_equal(tree.parent[1:], np.repeat(np.arange(n), tree.n_children))
        first = 1
        for v in range(n):
            k_v = int(tree.n_children[v])
            assert all(int(tree.parent[first + j]) == v for j in range(k_v))
            first += k_v
        # the parents of layer d+1 lie in layer d
        offs = tree.layer_offsets
        for d in range(len(offs) - 2):
            parents = tree.parent[offs[d + 1] : offs[d + 2]]
            assert np.all((offs[d] <= parents) & (parents < offs[d + 1]))


def test_mean_size_matches_branching_sum():
    """E[size] at depth d is (c^{d+1}-1)/(c-1); exact value 32.171875 here."""
    c, depth, n = 1.5, 6, 4000
    sizes = np.array(
        [sample_tree(c, depth, rng_from_seed(mix_seed(600, i))).size for i in range(n)],
        dtype=np.float64,
    )
    expect = (c ** (depth + 1) - 1.0) / (c - 1.0)
    assert expect == 32.171875
    se = sizes.std(ddof=1) / math.sqrt(n)
    assert abs(sizes.mean() - expect) <= 4 * se


def test_to_graph_path():
    g = to_graph(path_tree())
    assert sorted(g.edges()) == [(0, 1), (1, 2)]


def test_sample_domain():
    rng = rng_from_seed(0)
    with pytest.raises(ValueError):
        sample_tree(-1.0, 3, rng)
    with pytest.raises(ValueError):
        sample_tree(1.5, -1, rng)
    with pytest.raises(ValueError):
        sample_tree(709.0, 1, rng)
    with pytest.raises(ValueError):
        sample_tree(800.0, 1, rng)
    with pytest.raises(ValueError):
        sample_tree(math.nan, 1, rng)


def test_batched_sampler_matches_per_layer_reference():
    """One batched draw per tree gives the per-layer sampler's tree, dtypes included."""
    # depths stop where a mean tree would pass about 10^5 nodes
    top_depth = {0.0: 8, 0.5: 8, 1.5: 8, 3.0: 8, 6.0: 6, 40.0: 3}
    many_refills = 0
    for c, top in top_depth.items():
        for depth in range(top + 1):
            for k in range(12):
                seed = mix_seed(900 + depth, k)
                got = sample_tree(c, depth, rng_from_seed(seed))
                want = sample_tree_per_layer(c, depth, rng_from_seed(seed))
                for name in ("parent", "n_children", "layer_offsets"):
                    a, b = getattr(got, name), getattr(want, name)
                    assert a.dtype == b.dtype and np.array_equal(a, b), (c, depth, k, name)
                # nodes whose counts were read: all but a full-depth last layer
                offs = want.layer_offsets
                read = offs[-2] if len(offs) == depth + 2 else offs[-1]
                many_refills += read > 4 * _TREE_BATCH  # batches of 64, 128, 256, 512 at least
    assert many_refills >= 50


def test_depth_zero_draws_nothing():
    for c in (0.0, 1.5, 40.0):
        rng = rng_from_seed(3)
        before = rng.bit_generator.state
        assert sample_tree(c, 0, rng).size == 1
        assert rng.bit_generator.state == before


# -- pruning rounds ----------------------------------------------------------------


def test_root_collapse_hand_built():
    assert root_collapse(bare_root(), 0) == 0
    assert root_collapse(star_tree(3), 5) == 1
    assert root_collapse(path_tree(), 5) == 2
    assert root_collapse(path_tree(), 1) is None  # budget too small
    assert _isolation_step(bare_root()) == 0
    assert _isolation_step(star_tree(3)) == 1
    assert _isolation_step(path_tree()) == 2
    with pytest.raises(ValueError):
        root_collapse(path_tree(), -1)


def test_root_degree_after_hand_built():
    tree = path_tree()
    assert root_degree_after(tree, 0) == 1
    assert root_degree_after(tree, 1) == 1  # grandchild went, child survives
    assert root_degree_after(tree, 2) == 0
    star = star_tree(4)
    assert root_degree_after(star, 0) == 4
    assert root_degree_after(star, 1) == 0
    assert root_degree_after(bare_root(), 0) == 0  # steps >= height at height 0
    assert root_degree_after(star_tree(3), 0) == 3
    assert root_degree_after(path_tree(), 0) == 1
    with pytest.raises(ValueError):
        root_degree_after(tree, -1)


def reference_degree_schedule(tree: PoissonTree, rounds: int) -> list[int]:
    """Root degree after each round, by literal simultaneous leaf removal."""
    g = to_graph(tree)
    out = []
    for _ in range(rounds):
        removable = [v for v in g.alive_ids() if v != 0 and g.degree(v) == 1]
        for v in removable:
            g.remove_vertex(v)
        out.append(g.degree(0))
    return out


def test_shortcuts_match_literal_simulation():
    for k in range(120):
        c = (0.5, 1.5, 3.0)[k % 3]
        depth = 1 + k % 5
        tree = sample_tree(c, depth, rng_from_seed(mix_seed(700, k)))
        schedule = reference_degree_schedule(tree, depth + 1)
        for s in range(1, depth + 2):
            assert root_degree_after(tree, s) == schedule[s - 1], (c, depth, k, s)
        assert root_degree_after(tree, 0) == tree.root_degree()
        # first round with degree 0, or 0 for a childless root
        if tree.root_degree() == 0:
            iso = 0
        else:
            iso = 1 + schedule.index(0) if 0 in schedule else None
        assert _isolation_step(tree) == iso
        assert root_collapse(tree, depth + 1) == iso


def test_dominated_set_on_tree_graphs_is_leaf_set():
    """In a tree the dominated vertices are exactly the degree-1 vertices."""
    for k in range(100):
        tree = sample_tree(1.5, 1 + k % 5, rng_from_seed(mix_seed(800, k)))
        g = to_graph(tree)
        leaves = [v for v in g.alive_ids() if g.degree(v) == 1]
        assert dominated_set(g) == leaves
        if tree.size > 1:
            assert (0 in leaves) == (tree.root_degree() == 1)


# -- gamma estimation ----------------------------------------------------------------


def test_estimate_gamma_t1_matches_poisson_zero():
    stats = estimate_gamma(1.5, 1, 20_000, seed=0)
    expect = math.exp(-1.5)
    assert abs(stats.gamma_hat - expect) <= 4 * math.sqrt(expect * (1 - expect) / 20_000)


def test_estimate_gamma_t3_matches_recursion():
    gamma_3 = gamma_sequence(1.5, 3)[3]
    stats = estimate_gamma(1.5, 3, 20_000, seed=1)
    assert abs(stats.gamma_hat - gamma_3) <= 4 * math.sqrt(gamma_3 * (1 - gamma_3) / 20_000)


def test_stats_internal_consistency():
    stats = estimate_gamma(1.5, 4, 3000, seed=7)
    assert len(stats.isolated_by_step) == 4
    assert list(stats.isolated_by_step) == sorted(stats.isolated_by_step)
    # k = 0 bucket of the final-degree histogram is the isolation event
    assert stats.root_degree_hist[0] == stats.isolated_by_step[-1]
    assert sum(stats.root_degree_hist) == stats.trials
    assert stats.pmf_hat(0) == stats.gamma_hat
    assert stats.pmf_hat(len(stats.root_degree_hist)) == 0.0
    assert stats.pmf_hat(-1) == 0.0
    assert stats.stderr == pytest.approx(
        math.sqrt(stats.gamma_hat * (1 - stats.gamma_hat) / stats.trials)
    )


def test_estimate_gamma_deterministic_and_replayable():
    a = estimate_gamma(1.5, 3, 400, seed=11)
    b = estimate_gamma(1.5, 3, 400, seed=11)
    assert a == b
    # trial i is re-drawable in isolation from mix_seed(seed, i)
    iso = 0
    hist = [0] * len(a.root_degree_hist)
    for i in range(400):
        tree = sample_tree(1.5, 3, rng_from_seed(mix_seed(11, i)))
        if _isolation_step(tree) <= 2:
            iso += 1
        hist[root_degree_after(tree, 2)] += 1
    assert iso == a.isolated_by_step[-1]
    assert tuple(hist) == a.root_degree_hist


def test_estimate_gamma_golden_values():
    """Counts recorded before the estimator shared its height rule."""
    a = estimate_gamma(1.5, 4, 2000, 7)
    assert a.isolated_by_step == (439, 625, 717, 772)
    assert a.root_degree_hist == (772, 709, 362, 126, 27, 3, 1)
    b = estimate_gamma(3.0, 6, 1000, 2)
    assert b.isolated_by_step == (57, 64, 64, 64, 64, 64)
    assert b.root_degree_hist == (64, 170, 232, 220, 161, 84, 36, 20, 11, 2)


def test_block_kernel_matches_per_tree_reference():
    """Every tree of every block: the fates of one fresh generator per tree."""
    for c in (0.0, 0.5, 1.0, 1.5, 3.0, 5.0, 20.0):
        for t in range(1, 4 if c >= 5 else 7):
            for seed in (3, 40, 2**64 - 1):
                trials = 131 + 7 * t  # never a whole number of blocks
                got = estimate_gamma(c, t, trials, seed)
                assert got == estimate_gamma_per_tree(c, t, trials, seed), (c, t, seed)


def test_block_kernel_with_tiny_blocks_and_rows(monkeypatch):
    """Rows of 2 doubles and blocks of 8: every doubling pass and partial block runs."""
    monkeypatch.setattr(tree_process, "_FIRST_WIDTH", 2)
    monkeypatch.setattr(tree_process, "_BLOCK_DOUBLES", 8)
    for c, t in ((0.5, 4), (1.5, 1), (1.5, 5), (3.0, 4), (20.0, 2)):
        for seed in (0, 1, 2):
            assert estimate_gamma(c, t, 37, seed) == estimate_gamma_per_tree(c, t, 37, seed)


def test_block_kernel_with_seed_chunks_across_blocks(monkeypatch):
    """Chunks of 5 seeds under blocks of 4 rows: blocks end at chunk ends, not every 4 trials."""
    monkeypatch.setattr(tree_process, "_FIRST_WIDTH", 2)
    monkeypatch.setattr(tree_process, "_BLOCK_DOUBLES", 8)
    monkeypatch.setattr(tree_process, "_SEED_CHUNK", 5)
    for c, t in ((0.5, 4), (1.5, 1), (1.5, 5), (3.0, 4)):
        for seed in (0, 2**64 - 1):
            assert estimate_gamma(c, t, 37, seed) == estimate_gamma_per_tree(c, t, 37, seed)


def test_estimate_gamma_takes_seeds_outside_64_bits():
    for c in (1.5, 3.0):
        for t in (1, 4):
            for seed in (-1, 2**64, 2**64 + 3):
                got = estimate_gamma(c, t, 131, seed)
                assert got == estimate_gamma_per_tree(c, t, 131, seed), (c, t, seed)
            assert estimate_gamma(c, t, 131, -1) == estimate_gamma(c, t, 131, 2**64 - 1)


def test_estimate_gamma_derives_states_once_per_chunk(monkeypatch):
    """No scalar mix_seed, and one state derivation per chunk of trials in each doubling pass."""
    mix_calls, derived, fated = [], [], []

    def spy(log, fn):
        def wrapped(*args):
            log.append(args)
            return fn(*args)

        return wrapped

    for owner in (graph_core, tree_process):  # the module's own name, and an imported one
        monkeypatch.setattr(owner, "mix_seed", spy(mix_calls, graph_core.mix_seed), raising=False)
    monkeypatch.setattr(tree_process, "pcg64_states", spy(derived, tree_process.pcg64_states))
    monkeypatch.setattr(tree_process, "_block_fates", spy(fated, tree_process._block_fates))
    stats = estimate_gamma(1.5, 6, 4000, 0)
    assert stats == estimate_gamma_per_tree(1.5, 6, 4000, 0)
    assert mix_calls == []
    chunks = [len(seeds) for seeds, in derived]
    blocks = [u.shape for _, _, u in fated]
    rows_by_width: dict[int, int] = {}
    for rows, width in blocks:
        rows_by_width[width] = rows_by_width.get(width, 0) + rows
    assert rows_by_width[tree_process._FIRST_WIDTH] == 4000 and len(rows_by_width) >= 2
    # every row drawn has its state derived once, in chunks of at most _SEED_CHUNK
    assert sum(chunks) == sum(rows_by_width.values())
    assert max(chunks) <= tree_process._SEED_CHUNK
    per_pass = sum(-(-rows // tree_process._SEED_CHUNK) for rows in rows_by_width.values())
    assert len(chunks) <= per_pass < len(blocks)


def test_estimate_gamma_memory():
    """One block of 128 rows of 64 doubles at a time, not one matrix for all trees."""
    estimate_gamma(1.5, 6, 10, 0)  # the cdf table and imports, outside the measure
    tracemalloc.start()
    try:
        estimate_gamma(1.5, 6, 4000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000, peak


def test_estimate_gamma_domain():
    with pytest.raises(ValueError):
        estimate_gamma(1.5, 0, 100, seed=0)
    with pytest.raises(ValueError):
        estimate_gamma(1.5, 3, 0, seed=0)
    for c in (-1.0, 709.0, math.nan):
        with pytest.raises(ValueError):
            estimate_gamma(c, 1, 10, 0)


def test_mean_root_degree_at_t1_is_c():
    stats = estimate_gamma(2.0, 1, 20_000, seed=5)
    mean = sum(k * h for k, h in enumerate(stats.root_degree_hist)) / stats.trials
    assert abs(mean - 2.0) <= 4 * math.sqrt(2.0 / 20_000)
