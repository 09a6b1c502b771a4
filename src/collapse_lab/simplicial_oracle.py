"""Desk-scale brute-force simplicial checks for the clique complex of a graph.

Validation-only machinery: exact clique counts, Euler characteristic, and the
link-is-a-cone form of vertex domination.  Everything refuses graphs with more
than `DEFAULT_N_LIMIT` (30) alive vertices, a deterministic guard rather than
a timeout, because clique enumeration is exponential in the worst case;
`clique_census` alone takes another limit.
"""

from __future__ import annotations

from .graph_core import AdjacencyGraph

DEFAULT_N_LIMIT = 30


def _check_size(g: AdjacencyGraph, limit: int) -> None:
    alive = g.alive_count()
    if alive > limit:
        raise ValueError(f"oracle refuses graphs with {alive} alive vertices (limit {limit})")


def clique_census(g: AdjacencyGraph, n_limit: int = DEFAULT_N_LIMIT) -> tuple[int, ...]:
    """The f-vector: f[d] = number of (d+1)-cliques, i.e. d-simplices of the clique complex.

    Ordered expansion over neighborhoods visits each clique once, as its
    increasing-id vertex sequence, and counts it without materializing it.
    """
    _check_size(g, n_limit)
    f: list[int] = []

    def grow(cand: list[int], depth: int) -> None:
        if len(f) <= depth:
            f.append(0)
        for u in cand:
            f[depth] += 1
            nu = g.neighbor_view(u)
            nxt = [w for w in cand if w > u and w in nu]
            if nxt:
                grow(nxt, depth + 1)

    grow(list(g.alive_ids()), 0)
    return tuple(f)


def euler_characteristic(g: AdjacencyGraph) -> int:
    """Alternating sum of simplex counts; collapse-invariant audit value."""
    return sum((-1) ** d * count for d, count in enumerate(clique_census(g)))


def is_dominated_via_link(g: AdjacencyGraph, v: int) -> bool:
    """Domination via the link: does the induced subgraph on N(v) have an apex?

    The link of v in a clique complex is the clique complex of the subgraph
    induced on N(v); it is a cone exactly when some vertex there is adjacent
    to all the others.  Isolated vertices have an empty link, which is not a
    cone.  Must agree with the neighborhood-containment test for every vertex.
    """
    _check_size(g, DEFAULT_N_LIMIT)
    link = g.neighbor_view(v)
    if not link:
        return False
    for apex in link:
        na = g.neighbor_view(apex)
        if all(b == apex or b in na for b in link):
            return True
    return False
