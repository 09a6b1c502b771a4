"""Simple reference implementations that the fast code in src/ is held to.

Each function here is the plain form of a fast path, or a view of one that
only tests read, and is kept only so that differential tests can compare the
two on the same inputs.  The graph references use the public graph API.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from collapse_lab.collapse_engine import (
    CollapseTrace,
    Epoch2Trace,
    PhaseReport,
    _dominators,
    find_dominator,
)
from collapse_lab.graph_core import (
    _MASK64,
    AdjacencyGraph,
    _split_pairs,
    bounded_draws,
    fill_rows,
    mix_seed,
    pcg64_states,
    rng_from_seed,
)
from collapse_lab.tree_process import TreeTrialStats, _poisson_cdf

_TREE_BATCH = 64  # sample_tree's first offspring batch


def is_closed_nbhd_subset(g: AdjacencyGraph, u: int, w: int) -> bool:
    """Whether N[u] is contained in N[w] (both vertices alive), by the literal set test."""
    return g.neighbor_view(u) | {u} <= g.neighbor_view(w) | {w}


def _scan(g: AdjacencyGraph) -> tuple[int, list[int]]:
    """`scan_edges(g)` one vertex at a time: the ordered dominated-pair count, the dominated set."""
    pairs = 0
    dominated: list[int] = []
    for v in g.alive_ids():
        k = len(_dominators(g, g._live(v)))
        if k:
            pairs += k
            dominated.append(v)
    return pairs, dominated


def walk_phases(
    g: AdjacencyGraph, t: int | None = None, order_rng: np.random.Generator | None = None
) -> tuple[CollapseTrace, list[int]]:
    """`_run_phases` from the full dominated set, as a literal walk, one vertex at a time.

    Each phase walks its snapshot in ascending order (or an `order_rng`
    permutation), removing every member still dominated at its turn; the next
    snapshot re-checks the alive neighbors of the removals, ascending.
    Returns the trace and the dominated set the phases leave.
    """
    f0 = initial_f0 = g.non_isolated_count()
    snapshot = [v for v in g.alive_ids() if find_dominator(g, v) is not None]
    phases: list[PhaseReport] = []
    while t is None or len(phases) < t:
        if order_rng is not None:
            snapshot = [snapshot[j] for j in order_rng.permutation(len(snapshot))]
        removed: list[int] = []
        touched: set[int] = set()
        for v in snapshot:
            if find_dominator(g, v) is not None:
                touched |= g.neighbor_view(v)
                g.remove_vertex(v)
                removed.append(v)
        touched.difference_update(removed)
        isolated = sum(1 for u in touched if g.degree(u) == 0)
        f0 -= len(removed) + isolated
        phases.append(PhaseReport(removed, f0, isolated))
        snapshot = [v for v in sorted(touched) if find_dominator(g, v) is not None]
        if not removed:
            break
    return CollapseTrace(phases, initial_f0, bool(phases) and not phases[-1].removed), snapshot


def epoch2_sorted_pool(g: AdjacencyGraph, rng: np.random.Generator, pool: list[int]) -> Epoch2Trace:
    """`_epoch2` on one sorted list: `pool`, the dominated set of g ascending, updated in place.

    Each step removes `pool[below(len(pool))]` and re-tests the removed
    vertex's neighbors only, inserting or deleting each whose status changed;
    every `del` and `insert` moves O(len(pool)) entries.
    """
    removed: list[int] = []
    y_values: list[int] = []
    below = bounded_draws(rng)
    while pool:
        v = pool.pop(below(len(pool)))
        nb = g.neighbor_view(v)
        g.remove_vertex(v)
        y = 0
        for u in nb:
            now = _dominators(g, sorted(g.neighbor_view(u)))  # non-empty iff u is dominated
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


def _pair_index_to_uv(idx: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (u, v), u < v, at the row-major indices idx: `_split_pairs` on a copy."""
    vs = idx.copy()
    return _split_pairs(vs, n), vs


def random_rows(seeds: list[int], out: np.ndarray) -> None:
    """Fill row i of `out` with the doubles `rng_from_seed(seeds[i]).random()` gives."""
    fill_rows(pcg64_states(np.array([x & _MASK64 for x in seeds], dtype=np.uint64)), out)


def sample_edges_one_shot(n: int, p: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """`sample_edges` with each draw sized to the expected count left, its chunks joined at the end.

    Each draw asks for 1.25 times the edges expected in the pairs left, plus
    32, so most samples need one draw; the landed indices of all draws are
    concatenated and mapped to their pairs at once.
    """
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    total_pairs = n * (n - 1) // 2
    if total_pairs == 0 or p == 0.0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if p == 1.0:
        idx = np.arange(total_pairs, dtype=np.int64)
    else:
        rng = rng_from_seed(seed)
        log_q = math.log1p(-p)
        pos = -1
        chunks: list[np.ndarray] = []
        while pos < total_pairs:
            want = int((total_pairs - pos) * p * 1.25) + 32
            gaps = rng.random(want)
            np.negative(gaps, out=gaps)
            np.log1p(gaps, out=gaps)
            with np.errstate(over="ignore"):
                gaps /= log_q
            np.floor(gaps, out=gaps)
            np.minimum(gaps, total_pairs, out=gaps)
            positions = gaps.astype(np.int64)
            positions += 1
            np.cumsum(positions, out=positions)
            positions += pos
            inside = positions < total_pairs
            if inside.all():
                chunks.append(positions)
                pos = int(positions[-1])
            else:
                chunks.append(positions[inside])
                break
        idx = np.concatenate(chunks)
    return _pair_index_to_uv(idx, n)


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


def _root_fate(tree: PoissonTree, steps: int) -> tuple[int, int]:
    """(round the root is first isolated, root degree after `steps` rounds), read off the layers."""
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


def estimate_gamma_per_tree(c: float, t: int, trials: int, seed: int) -> TreeTrialStats:
    """`estimate_gamma` one tree at a time, each from a fresh rng_from_seed(mix_seed(seed, i))."""
    fates = np.array(
        [_root_fate(sample_tree(c, t, rng_from_seed(mix_seed(seed, i))), t - 1) for i in range(trials)]
    )
    steps, degrees = fates.T
    return TreeTrialStats(
        t=t,
        trials=trials,
        isolated_by_step=tuple(np.cumsum(np.bincount(steps, minlength=t))[:t].tolist()),
        root_degree_hist=tuple(np.bincount(degrees).tolist()),
    )


def sample_tree_per_layer(c: float, depth: int, rng: np.random.Generator) -> PoissonTree:
    """`sample_tree` with one draw per layer: rng.random(layer size), then np.repeat."""
    cdf = _poisson_cdf(float(c))
    parents = [np.array([-1], dtype=np.int64)]
    offsets = [0, 1]
    layer_start = 0
    layer_size = 1
    for _ in range(depth):
        counts = _poisson_counts(cdf, rng, layer_size)
        n_next = int(counts.sum())
        if n_next == 0:
            break
        node_ids = np.arange(layer_start, layer_start + layer_size, dtype=np.int64)
        parents.append(np.repeat(node_ids, counts))
        layer_start += layer_size
        layer_size = n_next
        offsets.append(layer_start + layer_size)
    parent = np.concatenate(parents)
    return PoissonTree(
        parent=parent,
        n_children=np.bincount(parent[1:], minlength=len(parent)),
        layer_offsets=np.array(offsets, dtype=np.int64),
    )


def to_graph(tree: PoissonTree) -> AdjacencyGraph:
    """The same tree as an adjacency graph on vertex ids 0..size-1."""
    edges = [(int(tree.parent[v]), v) for v in range(1, tree.size)]
    return AdjacencyGraph(tree.size, edges)


def root_collapse(tree: PoissonTree, max_steps: int) -> int | None:
    """Prune rounds until the root is isolated; None if max_steps is not enough.

    Each round simultaneously removes every non-root vertex with tree degree 1
    and returns the first round index after which the root has degree 0 (0 for
    a bare root).  Literal simulation; _root_fate uses the layer rule and
    the tests hold the two equal.
    """
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    alive = np.ones(tree.size, dtype=bool)
    kids = tree.n_children.copy()
    if kids[0] == 0:
        return 0
    for step in range(1, max_steps + 1):
        removable = alive & (kids == 0)
        removable[0] = False
        if not removable.any():
            break
        alive[removable] = False
        dec = np.bincount(tree.parent[removable], minlength=tree.size)
        kids -= dec
        if kids[0] == 0:
            return step
    return None


def _isolation_step(tree: PoissonTree) -> int:
    return _root_fate(tree, 0)[0]


def root_degree_after(tree: PoissonTree, steps: int) -> int:
    """Root degree once `steps` pruning rounds have run."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    return _root_fate(tree, steps)[1]
