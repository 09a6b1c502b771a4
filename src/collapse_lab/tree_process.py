"""Poisson Galton-Watson trees with root-preserving leaf pruning.

The branching picture: a depth-t tree models the t-neighborhood of a vertex in
a sparse random graph.  Pruning removes, in synchronized rounds, every
non-root vertex of degree 1 (in a tree those are exactly the dominated
vertices), and never touches the root.  gamma_t is the probability that the
root is isolated after at most t-1 rounds, and the surviving root degree
after t-1 rounds follows a thinned Poisson law.  The root is isolated within
t-1 rounds exactly when the Galton-Watson tree is extinct by generation t,
so gamma_t is that extinction probability.  The tree is extinct by
generation t + 1 exactly when each of the root's Poisson(c) children starts
a subtree extinct by generation t, which is the recursion
gamma_{t+1} = exp(-c(1 - gamma_t)).

Trees live in flat numpy arrays in BFS order: children of each node are
contiguous, so the parent and n_children columns plus the layer offsets
encode the shape with no per-node objects.  Offspring counts are Poisson
sampled by inversion: a cached cdf table plus searchsorted, equivalent to the
textbook sequential search but batched over the whole tree.

Two layer facts answer both questions the estimator asks.  A non-root
vertex whose descendant subtree has height m is a leaf after m rounds and is
removed in round m + 1, so a child of the root survives s rounds exactly
when it has a descendant at depth 1 + s.  sample_tree never keeps an empty
layer, so the root is first isolated at round len(layer_offsets) - 2, its
number of layers below (0 for a bare root), and after s rounds the root's
degree is the number of distinct depth-1 ancestors of the nodes at depth
1 + s (0 when that layer does not exist).  _root_fate reads both off the
layers; the tests hold it to a literal round-by-round simulation.

Reproducibility: estimate_gamma gives trial i the generator
rng_from_seed(mix_seed(seed, i)), seeded in bulk by graph_core.rngs_from_seeds,
so any single tree can be re-drawn in isolation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graph_core import mix_seed, rngs_from_seeds

_CDF_TAIL = 1e-16
_TREE_BATCH = 64  # first offspring batch: a mean tree at c = 1.5, depth 6 needs 32


@lru_cache(maxsize=64)
def _poisson_cdf(lam: float) -> np.ndarray:
    """Cumulative Poisson(lam) table, until the tail is < 1e-16 or the double sum stops moving."""
    if not lam >= 0:
        raise ValueError(f"rate must be >= 0, got {lam}")
    term = math.exp(-lam)
    if term < sys.float_info.min:
        # a subnormal or zero first term makes every later entry wrong
        raise ValueError(
            f"rate {lam} too large: exp(-rate) is not a normal double (rate <= 708.39 works)"
        )
    total = term
    cdf = [total]
    k = 0
    while total < 1.0 - _CDF_TAIL:
        k += 1
        term *= lam / k
        if total + term == total:
            # Before the mode term / total >= 1 / k, far above the rounding
            # unit, so this happens past the mode, where later terms only
            # shrink: no further entry could differ from this one.
            break
        total += term
        cdf.append(total)
    out = np.array(cdf)
    out.setflags(write=False)
    return out


def _poisson_counts(cdf: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    # inversion: count = #{k : cdf[k] <= u} = searchsorted right
    return np.searchsorted(cdf, rng.random(size), side="right")


@dataclass(frozen=True)
class PoissonTree:
    """Depth-truncated offspring tree in BFS layout.

    parent[0] is -1.  Each node's children are contiguous and appear in the
    order of their parents, so parent[1:] is np.repeat(arange(size),
    n_children) and the root's children are nodes 1..root_degree().
    layer_offsets has one entry per depth plus a terminal size entry, so the
    nodes at depth d occupy indices layer_offsets[d]:layer_offsets[d+1], and
    no layer is empty: the offsets rise strictly.
    """

    parent: np.ndarray
    n_children: np.ndarray
    layer_offsets: np.ndarray

    @property
    def size(self) -> int:
        return len(self.parent)

    def root_degree(self) -> int:
        return int(self.n_children[0])


def sample_tree(c: float, depth: int, rng: np.random.Generator) -> PoissonTree:
    """Grow a Galton-Watson tree with Poisson(c) offspring, truncated at `depth`.

    Node k's count comes from the k-th double of one batch of draws, doubled
    whenever a layer reaches past it: the tree per-layer draws give, with rng
    left up to one batch further on.
    """
    if c < 0:
        raise ValueError(f"offspring mean must be >= 0, got {c}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    cdf = _poisson_cdf(float(c))
    counts: list[int] = []
    offsets = [0, 1]
    drawn = 0  # nodes whose counts were read: every layer but a full-depth last one
    for _ in range(depth):
        drawn = offsets[-1]
        while len(counts) < drawn:
            counts += _poisson_counts(cdf, rng, max(len(counts), _TREE_BATCH)).tolist()
        n_next = sum(counts[offsets[-2] : drawn])
        if n_next == 0:
            break
        offsets.append(drawn + n_next)
    n_children = np.array(counts[:drawn] + [0] * (offsets[-1] - drawn), dtype=np.int64)
    return PoissonTree(
        parent=np.concatenate(([-1], np.repeat(np.arange(drawn), n_children[:drawn]))),
        n_children=n_children,
        layer_offsets=np.array(offsets, dtype=np.int64),
    )


# -- pruning -----------------------------------------------------------------


def _root_fate(tree: PoissonTree, steps: int) -> tuple[int, int]:
    """(round the root is first isolated, root degree after `steps` rounds)."""
    offsets = tree.layer_offsets
    # no layer is empty, so the root's height is its number of layers below
    height = len(offsets) - 2
    if steps >= height:
        return height, 0
    # the children that survive `steps` rounds are the depth-1 ancestors of
    # the nodes at depth 1 + steps; BFS order keeps the ancestors sorted
    ancestors = np.arange(offsets[1 + steps], offsets[2 + steps])
    for _ in range(steps):
        ancestors = tree.parent[ancestors]
    return height, 1 + int(np.count_nonzero(ancestors[1:] != ancestors[:-1]))


# -- Monte-Carlo gamma estimation ---------------------------------------------


@dataclass(frozen=True)
class TreeTrialStats:
    """Aggregates over many depth-t trees pruned for t-1 rounds."""

    t: int
    trials: int
    isolated_by_step: tuple[int, ...]
    root_degree_hist: tuple[int, ...]

    @property
    def gamma_hat(self) -> float:
        return self.isolated_by_step[self.t - 1] / self.trials

    @property
    def stderr(self) -> float:
        g = self.gamma_hat
        return math.sqrt(g * (1.0 - g) / self.trials)

    def pmf_hat(self, k: int) -> float:
        if 0 <= k < len(self.root_degree_hist):
            return self.root_degree_hist[k] / self.trials
        return 0.0


def estimate_gamma(c: float, t: int, trials: int, seed: int) -> TreeTrialStats:
    """Sample depth-t trees and estimate gamma_t and the root-degree law.

    isolated_by_step[s] counts trials whose root was isolated after at most s
    rounds (s = 0..t-1, non-decreasing); gamma_hat reads the s = t-1 entry.
    The degree histogram is taken after t-1 rounds, whose k = 0 bucket is the
    isolation event again.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    fates = np.empty((trials, 2), dtype=np.int64)
    for i, rng in enumerate(rngs_from_seeds(mix_seed(seed, i) for i in range(trials))):
        fates[i] = _root_fate(sample_tree(c, t, rng), t - 1)
    steps, degrees = fates.T
    # a root first isolated at round s counts for every entry from s on
    iso = np.cumsum(np.bincount(steps, minlength=t))[:t]
    return TreeTrialStats(
        t=t,
        trials=trials,
        isolated_by_step=tuple(iso.tolist()),
        root_degree_hist=tuple(np.bincount(degrees).tolist()),
    )
