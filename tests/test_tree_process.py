"""Offspring trees, synchronized leaf pruning, and the isolation-time estimator.

estimate_gamma reads the layer rule (_root_fate, through the same wrappers
tested here): the root is first isolated at its number of non-empty layers
below, and after s rounds its degree is the number of distinct depth-1
ancestors at depth 1 + s.  gamma_t is thus the probability that a Poisson(c)
Galton-Watson tree is extinct by generation t, hence the recursion
exp(-c(1 - gamma)).  The literal round-by-round simulation (root_collapse,
and an in-test stepper on the adjacency form) is held equal to the rule
across random trees.
"""

import math

import numpy as np
import pytest

from collapse_lab.collapse_engine import dominated_set
from collapse_lab.graph_core import mix_seed, rng_from_seed
from collapse_lab.theory import gamma_sequence
from collapse_lab.tree_process import (
    PoissonTree,
    TreeTrialStats,
    _isolation_step,
    _poisson_cdf,
    _poisson_counts,
    estimate_gamma,
    root_collapse,
    root_degree_after,
    sample_tree,
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
    assert not cdf.flags.writeable
    assert _poisson_cdf(1.5) is cdf  # cached
    with pytest.raises(ValueError):
        _poisson_cdf(-0.5)


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
    g = path_tree().to_graph()
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
    g = tree.to_graph()
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
        g = tree.to_graph()
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
    gamma_3 = gamma_sequence(1.5, 3).gammas[3]
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


def test_estimate_gamma_domain():
    with pytest.raises(ValueError):
        estimate_gamma(1.5, 0, 100, seed=0)
    with pytest.raises(ValueError):
        estimate_gamma(1.5, 3, 0, seed=0)


def test_mean_root_degree_at_t1_is_c():
    stats = estimate_gamma(2.0, 1, 20_000, seed=5)
    mean = sum(k * h for k, h in enumerate(stats.root_degree_hist)) / stats.trials
    assert abs(mean - 2.0) <= 4 * math.sqrt(2.0 / 20_000)
