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

A tree is numbered in BFS order, children of each node contiguous and in
the order of their parents.  Node k's offspring count is the cdf inversion
(a Poisson table, built once per estimate_gamma call, plus searchsorted) of
the k-th double of the tree's own stream, so a depth-t tree is a pure
function of a prefix of that stream.
With P the prefix sums of the counts (P[0] = 0), every node after the root
is some node's child, so the layer ends are o_1 = 1 and o_{d+1} = 1 + P[o_d]:
layer d holds the nodes o_d .. o_{d+1} - 1, and the counts read are those of
the nodes before o_t.

Two layer facts answer both questions the estimator asks.  A non-root
vertex whose descendant subtree has height m is a leaf after m rounds and is
removed in round m + 1, so a child of the root survives s rounds exactly
when it has a descendant at depth 1 + s.  Hence the root is first isolated
at round h, its height: the number of d <= t with a non-empty layer d.  The
descendants of the nodes a .. b - 1 are the nodes 1 + P[a] .. P[b], so
mapping the root's child boundaries 1 .. deg + 1 forward s times by
b -> 1 + P[b] gives each child's descendants at depth 1 + s, and the root's
degree after s rounds is the number of strict rises among them (0 when
h <= s).  The tests hold this rule to a literal round-by-round simulation.

Reproducibility: estimate_gamma gives trial i the generator
rng_from_seed(mix_seed(seed, i)), so any single tree can be re-drawn in
isolation.  It derives the seeds and PCG64 states of _SEED_CHUNK trials at
once, as array operations (graph_core.mix_seeds and pcg64_states), then
draws the chunk's trees a block at a time, one row of doubles per tree
filled from its state by graph_core.fill_rows, and applies the layer rule
to the whole block as array operations.  A row too short for its tree (o_t
past the row's end) is drawn again from its seed with twice the width,
until every tree fits; each such pass derives a trial's state once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .graph_core import fill_rows, mix_seeds, pcg64_states

_CDF_TAIL = 1e-16
_FIRST_WIDTH = 64  # doubles per tree in the first pass: a mean tree at c = 1.5, t = 6 reads 21
_BLOCK_DOUBLES = 2**13  # doubles in one block of rows: 64 KB
_SEED_CHUNK = 2**10  # trials whose seeds and generator states are derived at once: 32 KB of states


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
    return np.array(cdf)


def _block_fates(cdf: np.ndarray, t: int, u: np.ndarray) -> tuple[np.ndarray, ...]:
    """(height, root degree after t-1 rounds, fits) of the tree each row of u draws.

    `fits` is False where the row holds fewer than o_t doubles; that row's
    other two entries are meaningless.
    """
    rows, width = u.shape
    prefix = np.zeros((rows, width + 1), dtype=np.int64)
    np.cumsum(np.searchsorted(cdf, u, side="right"), axis=1, out=prefix[:, 1:])
    flat = prefix.ravel()
    base = np.arange(0, rows * (width + 1), width + 1)[:, None]

    def forward(b: np.ndarray) -> np.ndarray:
        # b -> 1 + P[b] along each row, read at most at the row's end
        return 1 + flat[np.minimum(b, width) + base]

    ends = np.ones((rows, 1), dtype=np.int64)
    height = np.zeros((rows, 1), dtype=np.int64)
    for _ in range(t):
        fits = ends[:, 0] <= width  # the ends only rise, so the last test is o_t's
        nxt = forward(ends)
        height += nxt > ends
        ends = nxt
    deg = prefix[:, 1:2]
    bounds = 1 + np.minimum(np.arange(deg.max() + 1), deg)
    for _ in range(t - 1):
        bounds = forward(bounds)
    return height[:, 0], np.count_nonzero(np.diff(bounds, axis=1), axis=1), fits


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
    cdf = _poisson_cdf(float(c))
    fates = np.empty((trials, 2), dtype=np.int64)
    todo, width = np.arange(trials), _FIRST_WIDTH
    while len(todo):
        rows = max(1, _BLOCK_DOUBLES // width)
        u = np.empty((rows, width))
        short = []
        for lo in range(0, len(todo), _SEED_CHUNK):
            chunk = todo[lo : lo + _SEED_CHUNK]
            states = pcg64_states(mix_seeds(seed, chunk))
            for start in range(0, len(chunk), rows):
                block = chunk[start : start + rows]
                fill_rows(states[:, start : start + rows], u[: len(block)])
                height, degree, fits = _block_fates(cdf, t, u[: len(block)])
                fates[block[fits]] = np.column_stack((height, degree))[fits]
                short.append(block[~fits])
        todo, width = np.concatenate(short), 2 * width
    steps, degrees = fates.T
    # a root first isolated at round s counts for every entry from s on
    iso = np.cumsum(np.bincount(steps, minlength=t))[:t]
    return TreeTrialStats(
        t=t,
        trials=trials,
        isolated_by_step=tuple(iso.tolist()),
        root_degree_hist=tuple(np.bincount(degrees).tolist()),
    )
