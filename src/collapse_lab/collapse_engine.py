"""Domination testing and the two-epoch collapse process on clique-complex skeletons.

A vertex v is dominated when some neighbor w satisfies N[v] subset-of N[w];
removing a dominated vertex is an elementary strong collapse and preserves the
homotopy type of the clique complex.  The engine never stores more than the
1-skeleton: induced links stay determined by the graph.  The containment test
is written once, in `_dominators`, leaf shortcut included; every other
domination query is built on it.

A collapse trial scans every alive vertex once.  `_scan` counts each vertex's
dominators: the sum is the ordered dominated-pair count, and the vertices
with a nonzero count, ascending, are phase 1's snapshot.  `run_trial` feeds
both epochs from that one pass.  `count_dominated_pairs` and `dominated_set`
are the scan's two halves; `prune_phase`, `run_epoch1`, `run_core` and
`run_epoch2` each start from a scan of their own, and the tests hold
`run_trial` to them.

`scan_edges` gives what `_scan` gives from sorted numpy edge arrays, with no
set graph; the phase-transition trials, which never delete a vertex, use it
on the sampled arrays.  Collapse trials keep `_scan`, which is also
`scan_edges`' test reference.  Fed from the sampled arrays, the array scan
takes about a third of `_scan`'s time at n = 5*10^4, c = 1.5 (some 20 ms
against 60 ms), but a collapse trial needs the set graph for its deletions
anyway, and keeping the arrays and the scan's temporaries beside it raised
the peak RSS of four trials at that size by 3.5-10%.  That holds also when
the array scan runs first, before the sets are built: the same four trials
then peaked 9-10% higher (48.0 to 52.9 MB, and 52.6 to 57.2 MB at t = 0), to
save some 0.08 s of wall time at the default t.

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

Epoch 2 removes one uniformly chosen dominated vertex at a time, logging for
each step the number of vertices that became dominated because of that single
deletion (the Y_i statistic).  The choice is the index numpy's
`rng.integers(len(pool))` would give into the ascending dominated pool; the
rule that draws it is stated in `graph_core.bounded_draws`.

Locality fact used throughout: deleting b can only change the domination
status of b's neighbors.  For any v outside N[b], N[v] is untouched and every
candidate dominator of v at most shrinks by an element not in N[v], so the
containment verdict is unchanged.  The dominated set is therefore maintained
incrementally during epoch 2; tests cross-check against full rescans.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .graph_core import AdjacencyGraph, bounded_draws

_VERIFY_BLOCK = 2**20  # lookups per `scan_edges` verification block, about 50 MB at peak


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


def _dominators(adj: list[set[int]], v: int) -> list[int]:
    """Neighbors w of v with N[v] subset-of N[w]; empty for an isolated v."""
    nv = adj[v]
    if len(nv) == 1:  # the test below agrees (0 == 0) at 2.5-4 times the cost per leaf
        return list(nv)  # a leaf: N[v] = {v, w} lies in N[w]
    target = len(nv) - 1
    # N[v] within N[w] for a neighbor w iff |N(v) & N(w)| == deg(v) - 1: the
    # intersection misses exactly w itself (open neighborhoods omit the owner).
    # A plain loop, not a comprehension: before Python 3.12 a comprehension is
    # one more function call, and on G(n, c/n) most vertices have degree <= 3.
    found = []
    for w in nv:
        if len(nv & adj[w]) == target:
            found.append(w)
    return found


def find_dominator(g: AdjacencyGraph, v: int) -> int | None:
    """Smallest-id neighbor w with N[v] subset-of N[w], or None."""
    g.neighbor_view(v)  # raises for a removed vertex
    return min(_dominators(g._adj, v), default=None)


def _scan(g: AdjacencyGraph) -> tuple[int, list[int]]:
    """One pass over the alive vertices: the ordered dominated-pair count and the dominated set."""
    adj = g._adj
    pairs = 0
    dominated: list[int] = []
    for v in g.alive_ids():
        k = len(_dominators(adj, v))
        if k:
            pairs += k
            dominated.append(v)
    return pairs, dominated


def dominated_set(g: AdjacencyGraph) -> list[int]:
    """All alive dominated vertices, ascending."""
    return _scan(g)[1]


def _key(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The int64 keys a*n + b of the directed edges (a, b)."""
    key = a.astype(np.int64)
    key *= n
    key += b
    return key


def _in_sorted(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Whether each query occurs in the ascending array `keys`.

    The queries are sorted before the binary search: sorted lookups walk
    `keys` in one direction and stay in cache, several times faster than the
    same lookups in random order.
    """
    order = np.argsort(queries)
    queries = queries[order]
    at = np.searchsorted(keys, queries)
    np.minimum(at, len(keys) - 1, out=at)
    found = np.empty(len(queries), dtype=bool)
    found[order] = keys[at] == queries
    return found


def scan_edges(n: int, us: np.ndarray, vs: np.ndarray) -> tuple[int, list[int]]:
    """What `_scan` gives for the graph on [0, n) with the edges (us[i], vs[i]).

    Each edge appears once, in either orientation, and no edge is a loop.  The
    directed edges are sorted once by the key v*n + w, which gives a CSR view:
    v's neighbors, ascending, fill dst[start[v]:start[v + 1]].  A leaf is
    dominated by its one neighbor.  For deg(v) >= 2, w dominates v iff
    N(v) - {w} lies in N(w).  A one-lookup filter keeps (v, w) only when x is
    adjacent to w, x the smallest neighbor of v other than w, and every pair
    that passes is then checked in full.  Vertex ids are int32 where n allows;
    the keys stay int64, since v*n + w reaches 10^14 at n = 10^7.
    """
    ids = np.int32 if n < 2**31 else np.int64
    deg = np.bincount(us, minlength=n) + np.bincount(vs, minlength=n)
    keys = _key(np.concatenate((us, vs)), np.concatenate((vs, us)), n)
    keys.sort()
    dst = (keys % n).astype(ids)
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=start[1:])
    leaves = np.flatnonzero(deg == 1)

    # Filter: x is v's smallest neighbor, or its second smallest when w is the smallest.
    multi = np.flatnonzero(deg >= 2)
    rank = np.repeat(np.arange(len(multi), dtype=ids), deg[multi])
    w = dst[np.repeat(deg >= 2, deg)]
    row = start[multi]
    first, second = dst[row][rank], dst[row + 1][rank]
    x = np.where(w == first, second, first)
    del first, second
    keep = _in_sorted(keys, _key(x, w, n))
    del x
    v, w = multi[rank[keep]], w[keep]
    del rank, keep

    # Verification: every neighbor y != w of v is adjacent to w.  K_n needs n^3
    # lookups: pairs go in blocks of _VERIFY_BLOCK, or alone if they need more.
    ends = np.concatenate(([0], np.cumsum(deg[v])))
    ok = np.empty(len(v), dtype=bool)
    lo = 0
    while lo < len(v):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] + _VERIFY_BLOCK, "right")) - 1)
        owner = np.repeat(np.arange(hi - lo), deg[v[lo:hi]])
        y = dst[np.arange(ends[lo], ends[hi]) + (start[v[lo:hi]] - ends[lo:hi])[owner]]
        wy = w[lo:hi][owner]
        missed = ~_in_sorted(keys, _key(y, wy, n)) & (y != wy)
        ok[lo:hi] = np.bincount(owner[missed], minlength=hi - lo) == 0
        lo = hi
    return len(leaves) + int(ok.sum()), np.union1d(leaves, v[ok]).tolist()


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
    its snapshot in ascending order, or in an `order_rng` permutation drawn
    anew each phase (the core-uniqueness checks use it, the experiments do
    not), and removes each member that `_dominators` re-verifies against the
    current graph.  The alive neighbors of its removals, taken just before
    each one, re-checked, are the next snapshot.  Also returns the dominated
    set the phases leave, in the same form.
    """
    if t is not None and t < 0:
        raise ValueError(f"phase count must be >= 0, got {t}")
    f0 = initial_f0 = g.non_isolated_count()
    phases: list[PhaseReport] = []
    adj = g._adj
    for _ in itertools.count() if t is None else range(t):
        if order_rng is not None:
            snapshot = [snapshot[j] for j in order_rng.permutation(len(snapshot))]
        removed: list[int] = []
        touched: set[int] = set()
        for v in snapshot:
            if _dominators(adj, v):
                touched |= adj[v]
                touched.discard(v)
                g.remove_vertex(v)
                removed.append(v)
        isolated = sum(1 for u in touched if not adj[u])
        f0 -= len(removed) + isolated
        phases.append(PhaseReport(removed, f0, isolated))
        snapshot = [v for v in sorted(touched) if _dominators(adj, v)]
        if not removed:
            break
    return CollapseTrace(phases, initial_f0, bool(phases) and not phases[-1].removed), snapshot


def run_epoch1(g: AdjacencyGraph, t: int) -> CollapseTrace:
    """Run up to t pruning phases, stopping early once a phase removes nothing."""
    return _run_phases(g, t, None, dominated_set(g))[0]


def run_core(
    g: AdjacencyGraph,
    order_rng: np.random.Generator | None = None,
) -> CollapseTrace:
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
    adj = g._adj
    while pool:
        idx = below(len(pool))
        v = pool[idx]
        nb = list(adj[v])  # any order: each neighbor's pool slot is found by bisection
        g.remove_vertex(v)
        del pool[idx]
        y = 0
        for u in nb:
            now = _dominators(adj, u)  # non-empty iff u is dominated
            at = bisect_left(pool, u)
            before = at < len(pool) and pool[at] == u
            if now and not before:
                y += 1
                pool.insert(at, u)
            elif before and not now:
                del pool[at]
        removed.append(v)
        y_values.append(y)
    return Epoch2Trace(
        steps=len(removed),
        removed=removed,
        y_values=y_values,
    )


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
    """Pair count, then `run_epoch1(g, t)`, then `run_epoch2(g, rng)`, on one full scan.

    Gives the same values as those three calls in turn: the scan's dominated
    set is phase 1's snapshot, and the set the phases leave is epoch 2's pool.
    Epoch 2 draws by `bounded_draws`' rule, as in `run_epoch2`.
    """
    pairs, snapshot = _scan(g)
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
