"""Desk-scale brute-force simplicial checks for the clique complex of a graph.

Validation-only machinery: exact clique counts, Euler characteristic, and the
link-is-a-cone form of vertex domination.  Everything refuses graphs larger
than `n_limit` (default 30, a deterministic guard rather than a timeout)
because clique enumeration is exponential in the worst case.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph_core import AdjacencyGraph

DEFAULT_N_LIMIT = 30


@dataclass(frozen=True)
class CliqueCensus:
    """f[d] = number of (d+1)-cliques, i.e. d-simplices of the clique complex."""

    f: tuple[int, ...]

    def euler(self) -> int:
        return sum(count if d % 2 == 0 else -count for d, count in enumerate(self.f))


def _check_size(g: AdjacencyGraph, n_limit: int) -> None:
    alive = g.alive_count()
    if alive > n_limit:
        raise ValueError(f"oracle refuses graphs with {alive} alive vertices (limit {n_limit})")


def clique_census(g: AdjacencyGraph, n_limit: int = DEFAULT_N_LIMIT) -> CliqueCensus:
    """Count every clique exactly, by ordered expansion over neighborhoods.

    Each clique is visited once as its increasing-id vertex sequence; counts
    are accumulated per size without materializing the cliques.
    """
    _check_size(g, n_limit)
    alive = list(g.alive_ids())
    f: list[int] = [0]
    f[0] = len(alive)

    def grow(cand: list[int], depth: int) -> None:
        if len(f) <= depth:
            f.append(0)
        for u in cand:
            f[depth] += 1
            nu = g.neighbor_view(u)
            nxt = [w for w in cand if w > u and w in nu]
            if nxt:
                grow(nxt, depth + 1)

    for u in alive:
        nu = g.neighbor_view(u)
        nxt = [w for w in alive if w > u and w in nu]
        if nxt:
            grow(nxt, 1)
    return CliqueCensus(f=tuple(f))


def euler_characteristic(g: AdjacencyGraph, n_limit: int = DEFAULT_N_LIMIT) -> int:
    """Alternating sum of simplex counts; collapse-invariant audit value."""
    return clique_census(g, n_limit).euler()


def is_dominated_via_link(g: AdjacencyGraph, v: int, n_limit: int = DEFAULT_N_LIMIT) -> bool:
    """Domination via the link: does the induced subgraph on N(v) have an apex?

    The link of v in a clique complex is the clique complex of the subgraph
    induced on N(v); it is a cone exactly when some vertex there is adjacent
    to all the others.  Isolated vertices have an empty link, which is not a
    cone.  Must agree with the neighborhood-containment test for every vertex.
    """
    _check_size(g, n_limit)
    link = g.neighbors(v)
    if not link:
        return False
    for apex in link:
        na = g.neighbor_view(apex)
        if all(b == apex or b in na for b in link):
            return True
    return False
