"""Graphs, components, and the BFS spanning tree."""

import time
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxloops.graphs import Graph, connected_components, spanning_tree


def triangle():
    return Graph([1, 2, 3], [(1, 2), (1, 3), (2, 3)])


def two_triangles():
    return Graph(range(1, 5), [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])


def test_graph_normalizes_and_sorts():
    g = Graph([3, 1, 2], [(3, 1), (2, 3)])
    assert g.vertices == (1, 2, 3)
    assert g.edges == ((1, 3), (2, 3))
    assert g.neighbors(3) == [1, 2]
    assert g.degree(3) == 2
    assert g.edges_at(3) == [(1, 3), (2, 3)]


def test_graph_validation_errors():
    with pytest.raises(ValueError):
        Graph([1, 2], [(1, 1)])  # loop
    with pytest.raises(ValueError):
        Graph([1, 2], [(1, 2), (2, 1)])  # duplicate after normalization
    with pytest.raises(ValueError):
        Graph([1, 2], [(1, 3)])  # endpoint outside the vertex set


def test_connected_components_preserve_labels():
    g = Graph([1, 2, 3, 4, 5], [(1, 2), (4, 5)])
    comps = connected_components(g)
    assert [c.vertices for c in comps] == [(1, 2), (3,), (4, 5)]
    assert comps[0].edges == ((1, 2),)
    assert not g.is_connected()
    assert triangle().is_connected()


def reference_components(g):
    """The components found one BFS at a time, each collecting its edges by
    a scan over every edge: the quadratic original, kept as the reference."""
    unseen = set(g.vertices)
    comps = []
    while unseen:
        start = min(unseen)
        comp = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v):
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        unseen -= comp
        comps.append(Graph(comp, [e for e in g.edges if e[0] in comp]))
    return comps


@st.composite
def graphs(draw):
    vertices = draw(st.sets(st.integers(-5, 30), max_size=24))
    if not vertices:
        return Graph((), ())
    ends = st.sampled_from(sorted(vertices))
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=40))
    return Graph(vertices, {(i, j) if i < j else (j, i) for i, j in pairs if i != j})


@settings(derandomize=True, max_examples=300, deadline=None)
@given(graphs())
def test_connected_components_match_the_reference(g):
    comps = connected_components(g)
    assert comps == reference_components(g)
    assert g.is_connected() == (len(comps) <= 1)


def test_connected_components_are_linear_in_the_edges():
    # 20000 disjoint edges: a scan of every edge per component is 4 * 10^8
    # steps, while one labelling pass and one pass over the edges are 10^5
    g = Graph(range(40000), [(2 * k, 2 * k + 1) for k in range(20000)])
    start = time.perf_counter()
    comps = connected_components(g)
    elapsed = time.perf_counter() - start
    assert len(comps) == 20000 and comps[-1].edges == ((39998, 39999),)
    assert elapsed < 5.0, elapsed


def test_spanning_tree_triangle():
    st = spanning_tree(triangle())
    assert st.root == 1
    assert st.tree_edges == ((1, 2), (1, 3))
    assert st.nontree_edges == ((2, 3),)
    assert st.chosen_vertex == (2,)


def test_spanning_tree_two_triangles():
    st = spanning_tree(two_triangles())
    assert st.tree_edges == ((1, 2), (1, 3), (2, 4))
    assert st.nontree_edges == ((2, 3), (3, 4))
    assert st.chosen_vertex == (2, 3)


def test_spanning_tree_rejects_disconnected():
    with pytest.raises(ValueError):
        spanning_tree(Graph([1, 2, 3], [(1, 2)]))


def test_cycle_rank_equals_nontree_count():
    g = two_triangles()
    st = spanning_tree(g)
    assert len(st.nontree_edges) == len(g.edges) - len(g.vertices) + 1
