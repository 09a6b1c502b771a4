"""Domination testing and the two-epoch collapse process on clique-complex skeletons.

A vertex v is dominated when some neighbor w satisfies N[v] subset-of N[w];
removing a dominated vertex is an elementary strong collapse and preserves the
homotopy type of the clique complex.  The engine never stores more than the
1-skeleton: induced links stay determined by the graph.  The containment test
is written once, in `_dominators`, leaf shortcut included; every other
domination query is built on it.

Two scans give the dominated-pair count and the dominated set: `run_trial`
runs `scan_edges` on the graph's alive edges, and `dominated_set` and
`count_dominated_pairs` walk the alive vertices in `_scan`, cheaper than numpy
on `validate`'s tiny graphs; `prune_phase`, `run_epoch1`, `run_core` and
`run_epoch2` start from the latter, and the tests hold `run_trial` to them.

Epoch 1 runs pruning phases, all in one loop, `_run_phases`.  A phase walks
a snapshot of the dominated set in ascending id order, re-verifies each vertex
against the *current* graph and removes it only if still dominated.  Blind
simultaneous deletion of the snapshot would be unsound (in a triangle all
three vertices are dominated; deleting all of them changes the homotopy
type), so re-verification is what keeps every single removal elementary.
Ties among mutually dominated vertices therefore resolve by ascending id.

The loop carries f0 and the snapshot from phase to phase.  The next snapshot
re-checks only the vertices a phase touched, i.e. the alive neighbors of its
removals (taken just before each removal).  By the locality fact below, a
vertex outside that set kept its status through the phase; a snapshot member
that failed re-verification lost its status to a removed neighbor, so it is
touched.  The re-checked set is therefore exactly the dominated set after the
phase: the next phase's snapshot, or, once the budget is spent, epoch 2's
starting pool.  It is phase 1's snapshot when the budget is 0, and empty once
a phase removes nothing.  f0 drops by the removals, each dominated and so not
isolated, and by the touched vertices left isolated: only a removal isolates.

Epoch 2 removes one uniformly chosen dominated vertex at a time and logs Y_i,
the number of vertices that single deletion newly dominated (`run_epoch2`).

Locality fact used throughout: deleting b can only change the domination
status of b's neighbors.  For any v outside N[b], N[v] is untouched and every
candidate dominator of v at most shrinks by an element not in N[v], so the
containment verdict is unchanged.  The dominated set is therefore maintained
incrementally during epoch 2; tests cross-check against full rescans.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .graph_core import AdjacencyGraph, bounded_draws, csr_rows

_VERIFY_BLOCK = 2**17  # CSR entries, or lookups, per `scan_edges` block: about 10 MB at peak


# -- trace records ----------------------------------------------------------


@dataclass(frozen=True)
class PhaseReport:
    """One pruning phase: who was removed, f0 afterwards, newly isolated count.

    Phase k of a trace is `trace.phases[k - 1]`.
    """

    removed: list[int]
    f0_after: int
    isolated_created: int


@dataclass(frozen=True)
class CollapseTrace:
    phases: list[PhaseReport]
    initial_f0: int
    reached_core: bool

    def final_f0(self) -> int:
        return self.phases[-1].f0_after if self.phases else self.initial_f0

    def removed_total(self) -> int:
        return sum(len(ph.removed) for ph in self.phases)


@dataclass(frozen=True)
class Epoch2Trace:
    steps: int
    removed: list[int]
    y_values: list[int]


# -- domination -------------------------------------------------------------


def _dominators(g: AdjacencyGraph, row: Sequence[int]) -> Sequence[int]:
    """Neighbors w of v with N[v] subset-of N[w], `row` v's alive neighbors ascending.

    That is N(v) - {w} within w's row, whose dead entries match no alive
    vertex; both ascend, so each lookup bisects on from the last.
    """
    if len(row) == 1:  # the loop below agrees, after two row lookups
        return row  # a leaf: N[v] = {v, w} lies in N[w]
    dst, start = g._dst, g._start
    found = []
    for w in row:
        lo, hi = start[w], start[w + 1]
        for x in row:
            if x != w:
                lo = bisect_left(dst, x, lo, hi)
                if lo == hi or dst[lo] != x:
                    break
        else:
            found.append(w)
    return found


def find_dominator(g: AdjacencyGraph, v: int) -> int | None:
    """Smallest-id neighbor w with N[v] subset-of N[w], or None."""
    return min(_dominators(g, sorted(g.neighbor_view(v))), default=None)


def _scan(g: AdjacencyGraph) -> tuple[int, list[int]]:
    """One pass over the alive vertices: the ordered dominated-pair count and the dominated set."""
    pairs = 0
    dominated: list[int] = []
    for v in g.alive_ids():
        k = len(_dominators(g, g._live(v)))
        if k:
            pairs += k
            dominated.append(v)
    return pairs, dominated


def dominated_set(g: AdjacencyGraph) -> list[int]:
    """All alive dominated vertices, ascending."""
    return _scan(g)[1]


def _has(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Whether each query occurs in the ascending array `keys`."""
    at = np.searchsorted(keys, queries)
    np.minimum(at, len(keys) - 1, out=at)
    return keys[at] == queries


def scan_edges(n: int, us: np.ndarray, vs: np.ndarray) -> tuple[int, list[int]]:
    """What `_scan` gives for the graph on [0, n) with the edges (us[i], vs[i]).

    No edge is a loop; either orientation will do, and a repeat counts once.
    Each entry of w's CSR row, keys[i] = w*n + v, is the candidate "w
    dominates v".  A leaf v is dominated by its one neighbor.  Otherwise w
    dominates v iff N(v) - {w} lies in N(w): a one-lookup filter keeps the
    pair only when (w, x) is an edge, x the smallest neighbor of v other than
    w, and every pair that passes is then checked in full.  Every lookup is
    (w, .) in w's own row, so the queries ascend with the entries and no sort
    is needed.  The entries go in blocks of _VERIFY_BLOCK, and so do the
    verification's lookups, so the scan's peak is the rows' own: 23 MB under
    tracemalloc at `phase-sparse`'s size (n = 10^5, mean degree 11.5).
    """
    keys, dst, start = csr_rows(n, us, vs)
    deg = np.diff(start)
    dominated = np.zeros(n, dtype=bool)
    pairs = 0
    for lo in range(0, len(keys), _VERIFY_BLOCK):
        # Filter: x is v's smallest neighbor, or its second smallest when w is
        # the smallest; a leaf has no such x and takes x = w, which passes.
        key, v = keys[lo : lo + _VERIFY_BLOCK], dst[lo : lo + _VERIFY_BLOCK]
        w, row = key // n, start[v]
        first = dst[row]
        x = np.where(first == w, dst[row + (deg[v] > 1)], first)
        keep = (x == w) | _has(keys, key - v + x)
        key, v, w = key[keep], v[keep], w[keep]

        # Verification: every neighbor y != w of v is adjacent to w.  K_n needs
        # n^3 lookups: pairs go in blocks of _VERIFY_BLOCK, or alone if they need more.
        ends = np.concatenate(([0], np.cumsum(deg[v])))
        a = 0
        while a < len(v):
            b = max(a + 1, int(np.searchsorted(ends, ends[a] + _VERIFY_BLOCK, "right")) - 1)
            owner = np.repeat(np.arange(b - a), deg[v[a:b]])
            y = dst[np.arange(ends[a], ends[b]) + (start[v[a:b]] - ends[a:b])[owner]]
            wy = w[a:b][owner]
            missed = ~_has(keys, (key[a:b] - v[a:b])[owner] + y) & (y != wy)
            ok = np.bincount(owner[missed], minlength=b - a) == 0
            pairs += int(ok.sum())
            dominated[v[a:b][ok]] = True
            a = b
    return pairs, np.flatnonzero(dominated).tolist()


# -- epoch 1: pruning phases -------------------------------------------------


def prune_phase(g: AdjacencyGraph, order_rng: np.random.Generator | None = None) -> PhaseReport:
    """One phase of the `_run_phases` loop, its snapshot taken by a full scan.

    The full-scan snapshot makes this the reference that the tests hold the
    loop's carried snapshots to.
    """
    return _run_phases(g, 1, order_rng, dominated_set(g))[0].phases[0]


def _run_phases(
    g: AdjacencyGraph,
    t: int | None,
    order_rng: np.random.Generator | None,
    snapshot: list[int],
) -> tuple[CollapseTrace, list[int]]:
    """Up to t phases (no limit when t is None), stopping once one removes nothing.

    `snapshot` is phase 1's: the dominated set of g, ascending.  A phase walks
    its snapshot as the module docstring says, in ascending order or in an
    `order_rng` permutation drawn anew each phase (the core-uniqueness checks
    use it, the experiments do not).  Also returns the dominated set the
    phases leave, in the same form.
    """
    if t is not None and t < 0:
        raise ValueError(f"phase count must be >= 0, got {t}")
    f0 = initial_f0 = g.non_isolated_count()
    phases: list[PhaseReport] = []
    deg, live = g._deg, g._live
    for _ in itertools.count() if t is None else range(t):
        if order_rng is not None:
            snapshot = [snapshot[j] for j in order_rng.permutation(len(snapshot))]
        removed: list[int] = []
        touched: set[int] = set()
        for v in snapshot:
            nv = live(v)
            if _dominators(g, nv):
                touched.update(nv)
                touched.discard(v)
                g._drop(v, nv)
                removed.append(v)
        isolated = sum(1 for u in touched if not deg[u])
        f0 -= len(removed) + isolated
        phases.append(PhaseReport(removed, f0, isolated))
        snapshot = [v for v in sorted(touched) if _dominators(g, live(v))]
        if not removed:
            break
    return CollapseTrace(phases, initial_f0, bool(phases) and not phases[-1].removed), snapshot


def run_epoch1(g: AdjacencyGraph, t: int) -> CollapseTrace:
    """Run up to t pruning phases, stopping early once a phase removes nothing."""
    return _run_phases(g, t, None, dominated_set(g))[0]


def run_core(g: AdjacencyGraph, order_rng: np.random.Generator | None = None) -> CollapseTrace:
    """Prune until a phase removes nothing; the survivor has no dominated vertex."""
    return _run_phases(g, None, order_rng, dominated_set(g))[0]


def core_vertices(g: AdjacencyGraph) -> list[int]:
    """Alive non-isolated vertices, the canonical basis for core comparisons."""
    return [v for v in g.alive_ids() if g.degree(v) > 0]


# -- epoch 2: one uniform dominated vertex at a time --------------------------


def _epoch2(g: AdjacencyGraph, rng: np.random.Generator, pool: list[int]) -> Epoch2Trace:
    """Epoch 2 from `pool`, which must be the dominated set of g, ascending."""
    removed: list[int] = []
    y_values: list[int] = []
    below = bounded_draws(rng)
    live = g._live
    while pool:
        idx = below(len(pool))
        v = pool[idx]
        nb = live(v)
        g._drop(v, nb)
        del pool[idx]
        y = 0
        for u in nb:
            now = _dominators(g, live(u))  # non-empty iff u is dominated
            at = bisect_left(pool, u)
            before = at < len(pool) and pool[at] == u
            if now and not before:
                y += 1
                pool.insert(at, u)
            elif before and not now:
                del pool[at]
        removed.append(v)
        y_values.append(y)
    return Epoch2Trace(len(removed), removed, y_values)


def run_epoch2(g: AdjacencyGraph, rng: np.random.Generator) -> Epoch2Trace:
    """Remove uniformly chosen dominated vertices until none remain.

    Each step removes `pool[rng.integers(len(pool))]`, `pool` the dominated set
    in ascending order, and logs Y_i = how many vertices the single deletion
    newly dominated.  The pool is kept sorted and updated incrementally (only
    the removed vertex's neighbors can change status), which matches a full
    rescan-and-choose loop decision for decision.  The index is drawn by
    `bounded_draws`' rule, which leaves `rng` advanced in whole batches.
    """
    return _epoch2(g, rng, dominated_set(g))


def run_trial(
    g: AdjacencyGraph, t: int, rng: np.random.Generator
) -> tuple[int, CollapseTrace, Epoch2Trace]:
    """Pair count, then `run_epoch1(g, t)`, then `run_epoch2(g, rng)`, on one `scan_edges`.

    Gives the same values as those three calls in turn: the scan's dominated
    set is phase 1's snapshot, and the set the phases leave is epoch 2's pool.
    """
    pairs, snapshot = scan_edges(g.n, *g._edge_arrays())
    trace, pool = _run_phases(g, t, None, snapshot)
    return pairs, trace, _epoch2(g, rng, pool)


# -- phase-transition statistics ----------------------------------------------


def count_dominated_pairs(g: AdjacencyGraph) -> int:
    """Ordered pairs (u, w) with u != w and N[u] subset-of N[w].

    Containment forces u adjacent to w, so only adjacent ordered pairs are
    scanned.  A mutually dominating edge contributes 2.
    """
    return _scan(g)[0]


def is_universal_degree(alive: int, degree: int) -> bool:
    """Whether a vertex of this degree, among `alive` vertices, is adjacent to all the others."""
    return degree == alive - 1


def has_universal_vertex(g: AdjacencyGraph) -> bool:
    """Whether some alive vertex is adjacent to every other alive vertex."""
    # no degree exceeds alive_count - 1; an empty graph gives 0 == -1
    return is_universal_degree(g.alive_count(), g.max_degree())
