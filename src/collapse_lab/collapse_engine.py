"""Domination testing and the two-epoch collapse process on clique-complex skeletons.

A vertex v is dominated when some neighbor w satisfies N[v] subset-of N[w];
removing a dominated vertex is an elementary strong collapse and preserves the
homotopy type of the clique complex.  The engine never stores more than the
1-skeleton: induced links stay determined by the graph.  The containment test
is written once, in `_dominators`; `_is_dominated`, `find_dominator` and
`count_dominated_pairs` are built on it.

Epoch 1 runs pruning phases.  A phase snapshots the currently dominated set,
walks it in ascending id order, re-verifies each vertex against the *current*
graph and removes it only if still dominated.  Blind simultaneous deletion of
the snapshot would be unsound (in a triangle all three vertices are dominated;
deleting all of them changes the homotopy type), so re-verification is what
keeps every single removal elementary.  Ties among mutually dominated vertices
therefore resolve by ascending id.

Only phase 1 scans every alive vertex.  Each later phase re-checks only the
vertices touched by the previous phase, i.e. the neighbors of its removals
(taken just before each removal).  By the locality fact below, a vertex
outside that set kept its status through the phase; a snapshot member that
failed re-verification lost its status to a removed neighbor, so it is
touched.  The re-checked set is therefore exactly the dominated set at the
start of the next phase, and `prune_phase` keeps the full scan as the
reference.

Epoch 2 removes one uniformly chosen dominated vertex at a time, logging for
each step the number of vertices that became dominated because of that single
deletion (the Y_i statistic).

Locality fact used throughout: deleting b can only change the domination
status of b's neighbors.  For any v outside N[b], N[v] is untouched and every
candidate dominator of v at most shrinks by an element not in N[v], so the
containment verdict is unchanged.  The dominated set is therefore maintained
incrementally during epoch 2; tests cross-check against full rescans.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_left
from dataclasses import dataclass, asdict

import numpy as np

from .graph_core import AdjacencyGraph


# -- trace records ----------------------------------------------------------


@dataclass(frozen=True)
class PhaseReport:
    """One pruning phase: who was removed, f0 afterwards, newly isolated count."""

    phase_index: int
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

    def to_json(self) -> str:
        return json.dumps(
            {
                "initial_f0": self.initial_f0,
                "reached_core": self.reached_core,
                "phases": [asdict(ph) for ph in self.phases],
            }
        )

    def csv_rows(self) -> list[str]:
        """Per-phase rows under the frozen header "phase,f0_after,removed_count"."""
        rows = ["phase,f0_after,removed_count"]
        rows += [f"{ph.phase_index},{ph.f0_after},{len(ph.removed)}" for ph in self.phases]
        return rows


@dataclass(frozen=True)
class Epoch2Trace:
    steps: int
    removed: list[int]
    y_values: list[int]

    def to_json(self) -> str:
        return json.dumps(asdict(self))


# -- domination -------------------------------------------------------------


def _dominators(adj: list[set[int]], v: int) -> list[int]:
    """Neighbors w of v with N[v] subset-of N[w]; empty for an isolated v."""
    nv = adj[v]
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


def _is_dominated(g: AdjacencyGraph, v: int) -> bool:
    """Containment test against every neighbor; isolated vertices never qualify."""
    if len(g.neighbor_view(v)) == 1:
        return True  # a leaf: N[v] = {v, w} lies in N[w]
    # Direct _adj reads: hot path, every w in N(v) is alive by invariant.
    return bool(_dominators(g._adj, v))


def find_dominator(g: AdjacencyGraph, v: int) -> int | None:
    """Smallest-id neighbor w with N[v] subset-of N[w], or None."""
    g.neighbor_view(v)  # raises for a removed vertex
    return min(_dominators(g._adj, v), default=None)


def dominated_set(g: AdjacencyGraph) -> list[int]:
    """All alive dominated vertices, ascending."""
    return [v for v in g.alive_ids() if _is_dominated(g, v)]


# -- epoch 1: pruning phases -------------------------------------------------


def _prune(
    g: AdjacencyGraph,
    snapshot: list[int],
    phase_index: int,
    order_rng: np.random.Generator | None,
) -> tuple[PhaseReport, set[int]]:
    """Remove the snapshot members that re-verify; also return their neighbors.

    The second value is the union of each removed vertex's neighborhood, taken
    just before its removal: the only vertices whose status the phase changed.
    """
    if order_rng is not None:
        snapshot = [snapshot[i] for i in order_rng.permutation(len(snapshot))]
    f0_before = g.non_isolated_count()
    removed: list[int] = []
    touched: set[int] = set()
    adj = g._adj
    for v in snapshot:
        if _is_dominated(g, v):
            touched |= adj[v]
            g.remove_vertex(v)
            removed.append(v)
    f0_after = g.non_isolated_count()
    report = PhaseReport(
        phase_index=phase_index,
        removed=removed,
        f0_after=f0_after,
        isolated_created=f0_before - len(removed) - f0_after,
    )
    return report, touched


def prune_phase(
    g: AdjacencyGraph,
    phase_index: int = 1,
    order_rng: np.random.Generator | None = None,
) -> PhaseReport:
    """Snapshot the dominated set by a full scan, then remove its members that re-verify.

    Processing order is ascending id; `order_rng` substitutes a random
    permutation (used by the core-uniqueness checks, not by the experiments).
    The phase loop of `run_epoch1`/`run_core` gives the same reports; this
    full-scan form is its reference.
    """
    return _prune(g, dominated_set(g), phase_index, order_rng)[0]


def _run_phases(
    g: AdjacencyGraph,
    t: int | None,
    order_rng: np.random.Generator | None,
) -> CollapseTrace:
    """Up to t phases (no limit when t is None), stopping once a phase removes nothing."""
    initial_f0 = g.non_isolated_count()
    phases: list[PhaseReport] = []
    alive = g._alive
    touched: set[int] = set()
    for i in itertools.count(1) if t is None else range(1, t + 1):
        if i == 1:
            snapshot = dominated_set(g)
        else:
            snapshot = [v for v in sorted(touched) if alive[v] and _is_dominated(g, v)]
        report, touched = _prune(g, snapshot, i, order_rng)
        phases.append(report)
        if not report.removed:
            return CollapseTrace(phases=phases, initial_f0=initial_f0, reached_core=True)
    return CollapseTrace(phases=phases, initial_f0=initial_f0, reached_core=False)


def run_epoch1(g: AdjacencyGraph, t: int) -> CollapseTrace:
    """Run up to t pruning phases, stopping early once a phase removes nothing."""
    if t < 0:
        raise ValueError(f"phase count must be >= 0, got {t}")
    return _run_phases(g, t, None)


def run_core(
    g: AdjacencyGraph,
    order_rng: np.random.Generator | None = None,
) -> CollapseTrace:
    """Prune until a phase removes nothing; the survivor has no dominated vertex."""
    return _run_phases(g, None, order_rng)


def core_vertices(g: AdjacencyGraph) -> list[int]:
    """Alive non-isolated vertices, the canonical basis for core comparisons."""
    return [v for v in g.alive_ids() if g.degree(v) > 0]


# -- epoch 2: one uniform dominated vertex at a time --------------------------


def newly_dominated_after_deletion(g: AdjacencyGraph, b: int) -> set[int]:
    """Vertices that are dominated in g minus b but were not dominated in g.

    Measures by delete-and-restore; g is left exactly as it was.  By the
    locality fact only members of N(b) can change status, so only they are
    examined.
    """
    nb = g.neighbors(b)
    was = {u: _is_dominated(g, u) for u in nb}
    g.remove_vertex(b)
    newly = {u for u in nb if not was[u] and _is_dominated(g, u)}
    g.restore_vertex(b, nb)
    return newly


def run_epoch2(g: AdjacencyGraph, rng: np.random.Generator) -> Epoch2Trace:
    """Remove uniformly chosen dominated vertices until none remain.

    Per step logs Y_i = how many vertices the single deletion newly dominated.
    The dominated pool is kept sorted and updated incrementally (only the
    removed vertex's neighbors can change status), which matches a full
    rescan-and-choose loop decision for decision.
    """
    pool = dominated_set(g)
    removed: list[int] = []
    y_values: list[int] = []
    while pool:
        idx = int(rng.integers(len(pool)))
        v = pool[idx]
        nb = g.neighbors(v)
        g.remove_vertex(v)
        del pool[idx]
        y = 0
        for u in nb:
            now = _is_dominated(g, u)
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


# -- phase-transition statistics ----------------------------------------------


def count_dominated_pairs(g: AdjacencyGraph) -> int:
    """Ordered pairs (u, w) with u != w and N[u] subset-of N[w].

    Containment forces u adjacent to w, so only adjacent ordered pairs are
    scanned.  A mutually dominating edge contributes 2.
    """
    adj = g._adj
    return sum(len(_dominators(adj, u)) for u in g.alive_ids())


def has_universal_vertex(g: AdjacencyGraph) -> bool:
    """Whether some alive vertex is adjacent to every other alive vertex."""
    # no degree exceeds alive_count - 1; an empty graph gives 0 == -1
    return g.max_degree() == g.alive_count() - 1
