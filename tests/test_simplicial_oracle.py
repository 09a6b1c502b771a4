"""Exact clique censuses and the link-side domination check."""

import math

import pytest

from collapse_lab.collapse_engine import find_dominator
from collapse_lab.graph_core import AdjacencyGraph, GraphParams, mix_seed, sample_er
from collapse_lab.simplicial_oracle import (
    clique_census,
    euler_characteristic,
    is_dominated_via_link,
)


def graph(n, edges):
    return AdjacencyGraph.from_edges(n, edges)


def cycle(n):
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_census_triangle():
    census = clique_census(graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert census.f == (3, 3, 1)
    assert census.euler() == 1


def test_census_k4():
    census = clique_census(complete(4))
    assert census.f == (4, 6, 4, 1)
    assert census.euler() == 1


def test_census_cycles():
    assert clique_census(cycle(4)).f == (4, 4)
    assert euler_characteristic(cycle(4)) == 0
    assert euler_characteristic(cycle(5)) == 0


def test_census_bowtie():
    # two triangles glued at vertex 2
    g = graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    census = clique_census(g)
    assert census.f == (5, 6, 2)
    assert census.euler() == 1


def test_census_k6_binomials():
    census = clique_census(complete(6))
    assert census.f == tuple(math.comb(6, k + 1) for k in range(6))
    assert census.euler() == 1


def test_census_counts_components_and_isolates():
    # triangle, one disjoint edge, one isolated vertex
    g = graph(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
    census = clique_census(g)
    assert census.f == (6, 4, 1)
    assert census.euler() == 3  # chi adds 1 per contractible component
    g.remove_vertex(5)
    assert euler_characteristic(g) == 2


def test_census_empty_graph():
    assert clique_census(AdjacencyGraph(0)).f == (0,)
    assert clique_census(AdjacencyGraph(4)).f == (4,)


def test_size_guard():
    g = AdjacencyGraph(31)
    with pytest.raises(ValueError):
        clique_census(g)
    with pytest.raises(ValueError):
        is_dominated_via_link(g, 0)
    assert clique_census(g, n_limit=31).f == (31,)
    g2 = AdjacencyGraph(40)
    for v in range(10):
        g2.remove_vertex(v)
    # the guard looks at alive count, not id range
    assert clique_census(g2).f == (30,)


def test_link_domination_wheel():
    # hub 0 joined to the 5-cycle 1..5
    rim = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(0, i) for i in range(1, 6)]
    g = graph(6, rim + spokes)
    assert not is_dominated_via_link(g, 0)  # link is C5, no apex
    for v in range(1, 6):
        assert is_dominated_via_link(g, v)  # link is a 3-path, hub is its apex


def test_link_domination_path_and_isolated():
    g = graph(4, [(0, 1), (1, 2)])
    assert is_dominated_via_link(g, 0)
    assert not is_dominated_via_link(g, 1)
    assert is_dominated_via_link(g, 2)
    assert not is_dominated_via_link(g, 3)


def test_link_agrees_with_containment_engine():
    """The two domination definitions must coincide vertexwise."""
    for k in range(30):
        params = GraphParams(n=5 + k % 12, p=0.2 + 0.04 * (k % 12), seed=mix_seed(55, k))
        g = sample_er(params)
        for v in g.alive_ids():
            assert is_dominated_via_link(g, v) == (find_dominator(g, v) is not None)
