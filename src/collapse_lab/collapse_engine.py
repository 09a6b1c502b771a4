"""Domination testing and the two-epoch collapse process on clique-complex skeletons.

A vertex v is dominated when some neighbor w satisfies N[v] subset-of N[w];
removing a dominated vertex is an elementary strong collapse and preserves the
homotopy type of the clique complex.  The engine never stores more than the
1-skeleton: induced links stay determined by the graph.  The containment test
is written twice: for one vertex in `_dominators`, and for many at once on
the CSR rows in the array kernel `_verdicts`, which serves both the full scan
`scan_edges` (every alive vertex, with pair counts) and the pruning phases.
The kernel drops most candidates with one AND: each vertex's closed row is
hashed into a 64-bit signature (`_signatures` ORs the bits of its row, and
the scan adds the vertex's own), and N[v] subset-of N[w] can hold only if
the bits of v's live N[v] all lie in w's signature.  It checks
the rest in full.  The tests hold the two forms to each other, and hold the
kernel to them with every candidate let through.

One scan gives the dominated-pair count and the dominated set: `scan_edges`
on the graph's own rows.  `run_trial` calls it once, `dominated_set` and
`count_dominated_pairs` read one half each, and `prune_phase`, `run_epoch1`,
`run_core` and `run_epoch2` start from `dominated_set`.

Epoch 1 runs pruning phases, all in one loop, `_run_phases`.  A phase is a
walk over a snapshot of the dominated set in ascending id order: each vertex
is re-verified against the *current* graph and removed only if still
dominated.  Blind simultaneous deletion of the snapshot would be unsound (in
a triangle all three vertices are dominated; deleting all of them changes
the homotopy type), so re-verification is what keeps every single removal
elementary.  Ties among mutually dominated vertices therefore resolve by
ascending id.

The walk is computed in rank rounds on the graph's arrays (G. E. Blelloch,
J. T. Fineman and J. Shun, "Greedy sequential maximal independent set and
matching are parallel on average", SPAA 2012).  Rank the snapshot by walk
order; a member is ready once every snapshot neighbor of lower rank has been
decided.  A round decides all ready members at once, removes the dominated
ones and takes every decided member out of the ranking, which readies the
members that waited only on them.  This is exact.  By the locality fact
below, v's verdict depends only on which of its neighbors are alive.  Only
snapshot members are removed in a phase, and at v's turn in the walk those of
lower rank are decided and those of higher rank are still alive.  A ready set
has no two adjacent members, so in its round each ready v sees exactly that
live row.  Its verdict is still the snapshot's, dominated, unless the phase
has removed a neighbor of v; only then does the alive-aware kernel
`_verdicts` test v again.  Sampled graphs need one or two rounds a phase;
K_n needs n.

The loop carries f0 and the snapshot from phase to phase.  The next snapshot
re-checks only the vertices a phase touched, i.e. the alive neighbors of its
removals.  By the locality fact, a vertex outside that set kept its status
through the phase; a snapshot member that failed re-verification lost its
status to a removed neighbor, so it is touched.  The re-checked set is
therefore exactly the dominated set after the phase: the next phase's
snapshot, or, once the budget is spent, epoch 2's starting pool.  It is
phase 1's snapshot when the budget is 0, and empty once a phase removes
nothing.  f0 drops by the removals, each dominated and so not isolated, and
by the touched vertices left isolated: only a removal isolates.

Epoch 2 removes one uniformly chosen dominated vertex at a time and logs Y_i,
the number of vertices that single deletion newly dominated (`run_epoch2`).
Its pool is an order-statistic structure: sorted buckets of id ranges under
a Fenwick tree of their sizes, so drawing the member of a given rank, and
adding or dropping a neighbor, each take O(log n) tree steps and one edit of
a short list, where one sorted list would move O(pool) entries.  A neighbor
left with one live neighbor is dominated and one left with none is not, so
`_dominators` tests only the others, and of those only the ones that may lie
on a triangle.  A vertex v with two or more live neighbors that w dominates
has another live neighbor x, and x lies in N[w]: v, w and x make a triangle.
The open row signatures find every triangle vertex, since a common neighbor
x puts bit(x) into the signatures of both v and w (`_on_triangles`).  A
vertex of two or more live neighbors that they rule out is not dominated,
and it was not in the pool before either, when its degree was higher.  The
table costs a pass over the rows, so epoch 2 builds it only when its
starting pool is a large share of the graph.

Locality fact used throughout: deleting b can only change the domination
status of b's neighbors.  For any v outside N[b], N[v] is untouched and every
candidate dominator of v at most shrinks by an element not in N[v], so the
containment verdict is unchanged.  The dominated set is therefore maintained
incrementally during epoch 2; tests cross-check against full rescans.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .graph_core import _GOLDEN, AdjacencyGraph, bounded_draws, csr_rows

_VERIFY_BLOCK = 2**15  # CSR entries, or lookups, per block of the array scans: about 3 MB at peak
_POOL_SHIFT = 11  # epoch 2's pool buckets span 2^11 ids each
# Epoch 2 builds its triangle table when _TRIANGLE_SHARE * pool >= n.  The build costs
# about 60-100 ns a vertex at n = 10^6; at n = 5 * 10^4 (medians of 15 alternating
# runs) the table took epoch 2 from 33.5 to 31.2 ms at pool/n = 0.147 (c = 3, t = 0)
# and from 17.2 to 18.1 ms at pool/n = 0.045, so it pays from about pool/n = 0.07.
_TRIANGLE_SHARE = 8


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
    vertex; both ascend, so each lookup bisects on from the last.  Its callers
    ask about one vertex at a time: epoch 2 and `find_dominator`.
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


def dominated_set(g: AdjacencyGraph) -> list[int]:
    """All alive dominated vertices, ascending."""
    return scan_edges(g)[1]


def _in_rows(dst: np.ndarray, lo: np.ndarray, size: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Whether q[i] occurs in the ascending dst[lo[i] : lo[i] + size[i]], every size[i] >= 1.

    One bisection per query, all in step: lo moves to the last entry <= q[i]
    seen, and the span left to search halves, rounding up, to 1.
    """
    for _ in range(int(size.max(initial=1) - 1).bit_length()):
        half = size >> 1
        mid = lo + half
        lo = np.where(dst[mid] <= q, mid, lo)
        size = size - half
    return dst[lo] == q


def _spans(ends: np.ndarray) -> Iterator[tuple[int, int]]:
    """Cut the spans [ends[k], ends[k + 1]) into blocks of about _VERIFY_BLOCK positions.

    Yields (a, b) for spans a..b-1, one span alone if it is longer.
    """
    a = 0
    while a < len(ends) - 1:
        b = max(a + 1, int(np.searchsorted(ends, ends[a] + _VERIFY_BLOCK, "right")) - 1)
        yield a, b
        a = b


def _owner(ends: np.ndarray, a: int, b: int) -> np.ndarray:
    """The index k - a of the span of each position ends[a] .. ends[b] - 1, as `_spans` cuts them."""
    return np.repeat(np.arange(b - a, dtype=np.int32), np.diff(ends[a : b + 1]))


def _bits(x: np.ndarray) -> np.ndarray:
    """bit(x) = 1 << (the top 6 bits of x * 0x9E3779B97F4A7C15 mod 2^64), per id x, as uint64."""
    h = x.astype(np.uint64)
    h *= np.uint64(_GOLDEN)
    h >>= np.uint64(58)
    return np.left_shift(np.uint64(1), h, out=h)


def _or_runs(bits: np.ndarray, first: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The OR of each run bits[first[k] : first[k] + size[k]], the runs back to back; 0 if empty."""
    out = np.zeros(len(size), dtype=np.uint64)
    full = size > 0  # a nonempty run ends where the next begins, the last at the end of bits
    out[full] = np.bitwise_or.reduceat(bits, first[full])
    return out


def _signatures(dst: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The OR of bit(x) over v's whole row, per vertex v: a one-word Bloom filter of N(v).

    (B. H. Bloom, "Space/time trade-offs in hash coding with allowable
    errors", CACM 1970.)  The scan's callers OR in bit(v) to get sig[v], the
    filter of N[v]; epoch 2's `_on_triangles` compares the open ones.  Rows
    never change and vertices only die, so sig[w] holds the bit of every
    member of w's live N[w], in every scan, phase and copy.  Built a
    `_spans` block at a time: the result is the only n-sized array.
    """
    sig = np.empty(len(start) - 1, dtype=np.uint64)
    for a, b in _spans(start):
        first, size = start[a:b] - start[a], np.diff(start[a : b + 1])
        sig[a:b] = _or_runs(_bits(dst[start[a] : start[b]]), first, size)
    return sig


def _blocks(lo: np.ndarray, size: np.ndarray) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """`_spans` of the spans [lo[k], lo[k] + size[k]): (a, b, owner, pos), pos each position."""
    ends = np.concatenate(([0], np.cumsum(size)))
    for a, b in _spans(ends):
        owner = _owner(ends, a, b)
        yield a, b, owner, np.arange(ends[a], ends[b]) + (lo[a:b] - ends[a:b])[owner]


def _live_rows(
    dst: np.ndarray, start: np.ndarray, alive: np.ndarray, vs: np.ndarray
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """`_blocks` of the rows of vs: (a, b, owner, y), y the alive neighbors of vs[a:b] by owner."""
    for a, b, owner, pos in _blocks(start[vs], start[vs + 1] - start[vs]):
        y = dst[pos]
        live = alive[y]
        yield a, b, owner[live], y[live]


def _views(g: AdjacencyGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """numpy views of g's rows, row starts, alive flags and degrees, which write through, and sig.

    The signatures are built on first use and kept on g; later copies share them.
    """
    dst = np.frombuffer(g._dst, dtype=g._dst.typecode)
    start, alive = np.frombuffer(g._start, dtype=np.int64), np.frombuffer(g._alive, dtype=bool)
    if g._sig is None:
        g._sig = _signatures(dst, start)
        g._sig |= _bits(np.arange(g.n))
    return dst, start, alive, np.frombuffer(g._deg, dtype=dst.dtype), g._sig


def scan_edges(
    g: AdjacencyGraph | int, us: np.ndarray | None = None, vs: np.ndarray | None = None
) -> tuple[int, list[int]]:
    """Ordered dominated-pair count and dominated set of g, or of [0, g) with edges (us[i], vs[i]).

    No edge is a loop; either orientation will do, and a repeat counts once.
    Edges are laid out by `csr_rows`, every vertex alive; a graph's own rows
    are read in place, with no copy.  `_verdicts` takes the vertices in
    ranges a..b-1 whose rows, dst[start[a]:start[b]], hold about
    _VERIFY_BLOCK entries, so the scan adds only block-sized arrays to the
    rows.  From edges its peak is `csr_rows`': 14 MiB under tracemalloc at
    `phase-sparse`'s size (n = 10^5, mean degree 11.5).
    """
    if isinstance(g, AdjacencyGraph):
        dst, start, alive, deg, sig = _views(g)
    else:
        dst, start = csr_rows(g, us, vs)
        alive, deg, sig = np.ones(g, dtype=bool), np.diff(start), _signatures(dst, start)
        sig |= _bits(np.arange(g))
    pairs = 0
    dominated = np.zeros(len(alive), dtype=bool)
    for a, b in _spans(start):
        owner, y = _owner(start, a, b), dst[start[a] : start[b]]
        live = alive[y] & alive[a:b][owner]
        counts = _verdicts(dst, start, deg, sig, np.arange(a, b), owner[live], y[live])
        pairs += int(counts.sum())
        dominated[a:b] = counts > 0
    return pairs, np.flatnonzero(dominated).tolist()


def _verdicts(
    dst: np.ndarray,
    start: np.ndarray,
    deg: np.ndarray,
    sig: np.ndarray,
    vs: np.ndarray,
    owner: np.ndarray,
    y: np.ndarray,
) -> np.ndarray:
    """How many neighbors dominate each of the alive vertices vs.

    y[i] runs over the alive neighbors of vs[owner[i]], grouped by owner and
    ascending; `dst` and `start` are the CSR rows, `deg` the live degrees and
    `sig` the closed row signatures, `_signatures` with bit(v) ORed in.  Each
    entry is the candidate
    "y[i] dominates vs[owner[i]]".  The bits of v's live N[v] must all lie in
    sig[w], so a filter keeps a pair only then, one AND per candidate; where
    every row of vs is whole, those bits are sig[v] itself.  A leaf
    v is dominated by its one neighbor; every other pair that passes is
    checked in full: w dominates v iff N(v) - {w} lies in N(w).  Every lookup
    bisects the candidate's row, so the graph needs no key array, and only
    the rows given count: dead entries of a dominator's row match no alive
    vertex.
    """
    vdeg = deg[vs]
    first = np.cumsum(vdeg) - vdeg  # where each vertex's neighbors begin in y
    if np.array_equal(vdeg, start[vs + 1] - start[vs]):
        live = sig[vs]
    else:
        live = _bits(vs) | _or_runs(_bits(y), first, vdeg)
    keep = (live[owner] & ~sig[y]) == 0
    owner, w = owner[keep], y[keep]
    leaf = vdeg[owner] == 1
    counts = np.bincount(owner[leaf], minlength=len(vdeg))
    owner, w = owner[~leaf], w[~leaf]
    lo = start[w]
    size = start[w + 1] - lo
    # K_n needs n^3 lookups: pairs go in blocks of _VERIFY_BLOCK, or alone if they need more
    for a, b, pair, pos in _blocks(first[owner], vdeg[owner]):
        z = y[pos]
        missed = ~_in_rows(dst, lo[a:b][pair], size[a:b][pair], z) & (z != w[a:b][pair])
        ok = np.bincount(pair[missed], minlength=b - a) == 0
        counts += np.bincount(owner[a:b][ok], minlength=len(vdeg))
    return counts


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

    `snapshot` is phase 1's: the dominated set of g, ascending, so that a
    member none of whose neighbors has gone is removed untested.  A phase walks
    its snapshot as the module docstring says, in ascending order or in an
    `order_rng` permutation drawn anew each phase (the core-uniqueness checks
    use it, the experiments do not).  Also returns the dominated set the
    phases leave, in the same form.  The rounds remove vertices through numpy
    views of g's alive flags and degrees.
    """
    if t is not None and t < 0:
        raise ValueError(f"phase count must be >= 0, got {t}")
    f0 = initial_f0 = g.non_isolated_count()
    if t == 0:
        return CollapseTrace([], initial_f0, False), snapshot
    phases: list[PhaseReport] = []
    dst, start, alive, deg, sig = _views(g)
    unranked = np.iinfo(dst.dtype).max  # every vertex outside the snapshot
    rank = np.full(g.n, unranked, dtype=dst.dtype)
    touched = np.zeros(g.n, dtype=bool)
    for _ in itertools.count() if t is None else range(t):
        if order_rng is not None:
            snapshot = [snapshot[j] for j in order_rng.permutation(len(snapshot))]
        snap = np.array(snapshot, dtype=dst.dtype)
        rank[snap] = np.arange(len(snap))
        gone = np.zeros(len(snap), dtype=bool)
        todo = np.arange(len(snap))  # the undecided ranks; a decided member leaves `rank`
        while len(todo):
            vs = snap[todo]
            ready = np.ones(len(todo), dtype=bool)
            for a, b, owner, y in _live_rows(dst, start, alive, vs):
                now = ready[a:b]  # no undecided snapshot neighbor comes first
                now[owner[rank[y] < todo[a:b][owner]]] = False
                # a member next to no removal is still dominated, as at the phase's start
                dominated = now.copy()
                lost = now & touched[vs[a:b]]
                if lost.any():
                    dominated[lost] = _verdicts(dst, start, deg, sig, vs[a:b], owner, y)[lost] > 0
                if dominated.any():
                    gone[todo[a:b][dominated]] = True
                    v, y_gone = vs[a:b][dominated], y[dominated[owner]]
                    alive[v] = False
                    np.subtract.at(deg, y_gone, 1)
                    deg[v] = 0
                    touched[y_gone] = True
            rank[vs[ready]] = unranked
            todo = todo[~ready]
        removed = list(itertools.compress(snapshot, gone))  # no new int objects: less heap
        near = np.flatnonzero(touched & alive)  # ascending, as the next snapshot must be
        touched[near] = False  # the removed stay marked, and dead
        isolated = int(np.count_nonzero(deg[near] == 0))
        f0 -= len(removed) + isolated
        phases.append(PhaseReport(removed, f0, isolated))
        dominated = np.zeros(len(near), dtype=bool)
        for a, b, owner, y in _live_rows(dst, start, alive, near):
            dominated[a:b] = _verdicts(dst, start, deg, sig, near[a:b], owner, y) > 0
        snapshot = near[dominated].tolist()
        if not removed:
            break
    return CollapseTrace(phases, initial_f0, not phases[-1].removed), snapshot


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


def _on_triangles(g: AdjacencyGraph) -> bytearray:
    """1 for each vertex v that may lie on a triangle of g, 0 for one that lies on none.

    v gets a 1 when some w in its whole row has an open signature
    (`_signatures`) that shares a bit with v's.  A triangle v, w, x puts
    bit(x) into both, so every vertex on a triangle of live vertices gets a
    1, for as long as rows stay as they are and vertices only die.
    """
    dst, start = np.frombuffer(g._dst, dtype=g._dst.typecode), np.frombuffer(g._start, np.int64)
    sig = _signatures(dst, start)
    tri = bytearray(g.n)
    on = np.frombuffer(tri, dtype=bool)
    for a, b in _spans(start):
        owner = _owner(start, a, b)
        hit = (sig[a:b][owner] & sig[dst[start[a] : start[b]]]) != 0
        on[a:b] = np.bincount(owner[hit], minlength=b - a) > 0
    return tri


def _epoch2(g: AdjacencyGraph, rng: np.random.Generator, pool: list[int]) -> Epoch2Trace:
    """Epoch 2 from `pool`, which must be the dominated set of g, ascending; it is left empty.

    The pool is kept as sorted buckets, bucket b holding the members in
    [b << _POOL_SHIFT, (b + 1) << _POOL_SHIFT), under a Fenwick tree of the
    bucket sizes padded to `size`, a power of two (P. M. Fenwick, "A new data
    structure for cumulative frequency tables", Software: Practice and
    Experience, 1994): node i counts buckets i - (i & -i) .. i - 1, and node
    `size` the whole pool.  Drawing the member of rank k descends from that
    node, stepping right past every node whose count is at most k and
    lowering by one each node it does not step past, which are exactly the
    nodes that count the drawn member's bucket.  A neighbor that joins or
    leaves the pool is one `insort` or `del` in its bucket and one tree
    update, and `member` answers whether a vertex is in the pool.

    A neighbor u left with two or more live neighbors is tested only where
    the table of `_on_triangles` holds a 1.  If w dominates u, u's other live
    neighbor x lies in N[w], so u, w and x make a triangle: a 0 means u is not
    dominated now, and it was not in the pool before either, since its degree
    was higher then.  The table is built only when the starting pool holds at
    least a `_TRIANGLE_SHARE`-th of the ids; otherwise it is all ones.
    """
    n, shift = g.n, _POOL_SHIFT
    tri = _on_triangles(g) if _TRIANGLE_SHARE * len(pool) >= n else b"\1" * n
    size = 1 << (n >> shift).bit_length()  # > the last bucket, (n - 1) >> shift
    buckets: list[list[int]] = [[] for _ in range(size)]
    member = bytearray(n)
    for v in pool:
        buckets[v >> shift].append(v)
        member[v] = 1
    pool.clear()  # its members live in the buckets now, not twice through the trial
    tree = [0] * (size + 1)
    for i in range(1, size + 1):
        tree[i] += len(buckets[i - 1])
        if i + (i & -i) <= size:
            tree[i + (i & -i)] += tree[i]
    removed: list[int] = []
    y_values: list[int] = []
    below = bounded_draws(rng)
    dst, start, alive, deg = g._dst, g._start, g._alive, g._deg
    while tree[size]:
        k = below(tree[size])
        b, step = 0, size
        while step:
            if tree[b + step] <= k:
                b += step
                k -= tree[b]
            else:
                tree[b + step] -= 1
            step >>= 1
        v = buckets[b].pop(k)
        member[v] = 0
        lo, hi = start[v], start[v + 1]
        nb = dst[lo:hi]
        if deg[v] != hi - lo:
            nb = [u for u in nb if alive[u]]
        for u in nb:
            deg[u] -= 1
        deg[v] = 0
        alive[v] = 0
        y = 0
        for u in nb:
            d = deg[u]
            if d > 1:
                if not tri[u]:
                    continue  # on no triangle: not dominated, and it was not before
                lo, hi = start[u], start[u + 1]
                row = dst[lo:hi]
                if d != hi - lo:
                    row = [x for x in row if alive[x]]
                now = bool(_dominators(g, row))
            else:
                now = d == 1  # a leaf is dominated, an isolated vertex is not
            if now != member[u]:
                member[u] = now
                b = u >> shift
                if now:
                    y += 1
                    insort(buckets[b], u)
                else:
                    del buckets[b][bisect_left(buckets[b], u)]
                sign = 1 if now else -1
                b += 1
                while b <= size:
                    tree[b] += sign
                    b += b & -b
        removed.append(v)
        y_values.append(y)
    return Epoch2Trace(len(removed), removed, y_values)


def run_epoch2(g: AdjacencyGraph, rng: np.random.Generator) -> Epoch2Trace:
    """Remove uniformly chosen dominated vertices until none remain.

    Each step removes `pool[rng.integers(len(pool))]`, `pool` the dominated set
    in ascending order, and logs Y_i = how many vertices the single deletion
    newly dominated.  The pool is updated incrementally (only the removed
    vertex's neighbors can change status) in id-range buckets that keep its
    order, so every draw picks what a full rescan-and-choose loop picks.  The
    index is drawn by `bounded_draws`' rule, which leaves `rng` advanced in
    whole batches.
    """
    return _epoch2(g, rng, dominated_set(g))


def run_trial(
    g: AdjacencyGraph, t: int, rng: np.random.Generator
) -> tuple[int, CollapseTrace, Epoch2Trace]:
    """Pair count, then `run_epoch1(g, t)`, then `run_epoch2(g, rng)`, on one `scan_edges`.

    Gives the same values as those three calls in turn: the scan's dominated
    set is phase 1's snapshot, and the set the phases leave is epoch 2's pool.
    """
    pairs, snapshot = scan_edges(g)
    trace, pool = _run_phases(g, t, None, snapshot)
    del snapshot  # at t >= 1 no longer the pool: epoch 2's garbage collections need not walk it
    return pairs, trace, _epoch2(g, rng, pool)


# -- phase-transition statistics ----------------------------------------------


def count_dominated_pairs(g: AdjacencyGraph) -> int:
    """Ordered pairs (u, w) with u != w and N[u] subset-of N[w].

    Containment forces u adjacent to w, so only adjacent ordered pairs are
    scanned.  A mutually dominating edge contributes 2.
    """
    return scan_edges(g)[0]


def is_universal_degree(alive: int, degree: int) -> bool:
    """Whether a vertex of this degree, among `alive` vertices, is adjacent to all the others."""
    return degree == alive - 1


def has_universal_vertex(g: AdjacencyGraph) -> bool:
    """Whether some alive vertex is adjacent to every other alive vertex."""
    # no degree exceeds alive_count - 1; an empty graph gives 0 == -1
    return is_universal_degree(g.alive_count(), g.max_degree())
