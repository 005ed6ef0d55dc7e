"""Finite simple graphs with sortable integer vertices.

Edges are stored as sorted pairs (i, j), i < j, and every edge list in the
package is kept in lexicographic order so that downstream bases, spanning
trees and reports are deterministic.
"""

from __future__ import annotations

from collections import deque, namedtuple
from typing import Dict, Iterable, List, Sequence, Tuple

Edge = Tuple[int, int]

__all__ = ["Graph", "SpanningTree", "spanning_tree", "connected_components"]


def normalize_edge(e: Sequence[int]) -> Edge:
    i, j = e
    if i == j:
        raise ValueError(f"loop edge at vertex {i}")
    return (i, j) if i < j else (j, i)


class Graph:
    def __init__(self, vertices: Iterable[int], edges: Iterable[Sequence[int]]):
        self.vertices: Tuple[int, ...] = tuple(sorted(set(vertices)))
        vset = set(self.vertices)
        seen = set()
        for e in edges:
            ne = normalize_edge(e)
            if ne[0] not in vset or ne[1] not in vset:
                raise ValueError(f"edge {ne} has an endpoint outside the vertex set")
            if ne in seen:
                raise ValueError(f"duplicate edge {ne}")
            seen.add(ne)
        self.edges: Tuple[Edge, ...] = tuple(sorted(seen))
        self._adj: Dict[int, List[int]] = {v: [] for v in self.vertices}
        for i, j in self.edges:
            self._adj[i].append(j)
            self._adj[j].append(i)
        for v in self.vertices:
            self._adj[v].sort()

    def neighbors(self, v: int) -> List[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def edges_at(self, v: int) -> List[Edge]:
        """Edges incident to v, in lexicographic order (that of the sorted
        neighbours: (w, v) for w < v, then (v, w) for w > v)."""
        return [(w, v) if w < v else (v, w) for w in self._adj.get(v, ())]

    def is_connected(self) -> bool:
        return len(connected_components(self)) <= 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"Graph(vertices={self.vertices}, edges={list(self.edges)})"


def connected_components(g: Graph) -> List[Graph]:
    """Induced components, ordered by smallest vertex; labels preserved.

    One BFS labels every vertex with its component, starting from each
    unlabelled vertex in ascending order, and one pass over the edges hands
    each edge to the component of its endpoints: linear in |V| + |E|.
    """
    comp_of: Dict[int, int] = {}
    members: List[List[int]] = []
    for start in g.vertices:
        if start in comp_of:
            continue
        comp_of[start] = len(members)
        comp = [start]
        for v in comp:  # the list is its own BFS queue
            for w in g.neighbors(v):
                if w not in comp_of:
                    comp_of[w] = len(members)
                    comp.append(w)
        members.append(comp)
    edges: List[List[Edge]] = [[] for _ in members]
    for e in g.edges:
        edges[comp_of[e[0]]].append(e)
    return [Graph(vs, es) for vs, es in zip(members, edges)]


class SpanningTree(namedtuple("SpanningTree", [
    "root",
    "tree_edges",  # lexicographic
    "nontree_edges",  # lexicographic: e_1, ..., e_n
    "chosen_vertex",  # o_j = smaller endpoint of e_j
])):
    __slots__ = ()


def spanning_tree(g: Graph) -> SpanningTree:
    """BFS spanning tree from the smallest vertex, neighbors in ascending
    order; needs a connected graph."""
    if not g.vertices:
        raise ValueError("empty graph")
    root = g.vertices[0]
    seen = {root}
    tree: List[Edge] = []
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in g.neighbors(v):
            if w not in seen:
                seen.add(w)
                tree.append(normalize_edge((v, w)))
                queue.append(w)
    if len(seen) != len(g.vertices):
        raise ValueError("graph is not connected")
    tree_set = set(tree)
    nontree = tuple(e for e in g.edges if e not in tree_set)
    return SpanningTree(
        root=root,
        tree_edges=tuple(sorted(tree)),
        nontree_edges=nontree,
        chosen_vertex=tuple(e[0] for e in nontree),
    )
