"""Simple reference implementations that the fast code in src/ is held to.

Each function here is the plain form of a fast path, or a view of one that
only tests read, and is kept only so that differential tests can compare the
two on the same inputs.  The graph references use the public graph API.
"""

import numpy as np

from collapse_lab.graph_core import AdjacencyGraph
from collapse_lab.tree_process import PoissonTree, _poisson_cdf, _poisson_counts, _root_fate


def is_closed_nbhd_subset(g: AdjacencyGraph, u: int, w: int) -> bool:
    """Whether N[u] is contained in N[w] (both vertices alive), by the literal set test."""
    return g.neighbor_view(u) | {u} <= g.neighbor_view(w) | {w}


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
    return AdjacencyGraph.from_edges(tree.size, edges)


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
