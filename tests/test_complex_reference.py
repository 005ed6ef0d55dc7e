"""Differential tests: the star-built edge complex and the gauge-sweep
classification against the reference paths they replaced.

The references below are the earlier implementations, condensed: an edge
complex that lists every subset of at most three edges and filters the
pointed ones, `cofaces` and `vertex_star` as scans, the Z^1 cross-check by
elimination over the whole d1, and the classification that compares every
delta with the first member of each class so far by an exhaustive
`amalgams_isomorphic` search.  Both must give identical results on named
graphs and diagrams and on `hypothesis`-generated ones.
"""

import subprocess
import sys
from itertools import combinations
from typing import Dict, FrozenSet, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxloops import amalgams, gf2
from coxloops.amalgams import (
    ClassificationReport,
    amalgams_isomorphic,
    classify_twisted_amalgams,
    standard_amalgam,
    twisted_amalgam,
)
from coxloops.cohomology import (
    VertexStar,
    _cocycles_by_stars,
    _z1_by_stars,
    build_complex,
    cohomology,
    vertex_coboundary,
    vertex_star,
)
from coxloops.coxeter import CoxeterDiagram
from coxloops.errors import CheckError, ResourceLimitError
from coxloops.graphs import Graph, spanning_tree


class ReferenceComplex:
    """Every edge subset of size <= 3, pointed ones filtered from all."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.edges = graph.edges
        self.edge_pos = {e: k for k, e in enumerate(self.edges)}
        self.pairs = tuple(combinations(self.edges, 2))
        self.triples = tuple(combinations(self.edges, 3))
        self.core: Dict[Tuple, Tuple[int, ...]] = {(e,): e for e in self.edges}
        for s in self.pairs + self.triples:
            common = set(s[0])
            for e in s[1:]:
                common &= set(e)
            self.core[s] = tuple(sorted(common))
        self.pointed_pairs = tuple(s for s in self.pairs if self.core[s])
        self.pointed_triples = tuple(s for s in self.triples if self.core[s])
        self.pair_pos = {s: k for k, s in enumerate(self.pointed_pairs)}
        self.triple_pos = {s: k for k, s in enumerate(self.pointed_triples)}
        self.d0_rows = [
            (1 << self.edge_pos[s[0]]) | (1 << self.edge_pos[s[1]]) for s in self.pointed_pairs
        ]
        self.d1_rows = []
        for s in self.pointed_triples:
            row = 0
            for f in combinations(s, 2):
                row |= 1 << self.pair_pos[f]
            self.d1_rows.append(row)

    def simplices(self) -> List[Tuple]:
        return [(e,) for e in self.edges] + list(self.pairs) + list(self.triples)

    def cofaces(self, sigma) -> List[Tuple]:
        ss = set(sigma)
        return [t for t in self.simplices() if ss < set(t)]


def reference_vertex_star(cx: ReferenceComplex, i: int) -> VertexStar:
    edges = tuple(e for e in cx.edges if i in e)
    pos = {e: k for k, e in enumerate(edges)}
    pairs = tuple(s for s in cx.pointed_pairs if i in cx.core[s])
    triples = tuple(s for s in cx.pointed_triples if i in cx.core[s])
    ppos = {s: k for k, s in enumerate(pairs)}
    d0 = tuple((1 << pos[s[0]]) | (1 << pos[s[1]]) for s in pairs)
    d1 = tuple(sum(1 << ppos[f] for f in combinations(s, 2)) for s in triples)
    return VertexStar(i, edges, pairs, triples, d0, d1)


def reference_z1(cx, z_basis: List[int]) -> int:
    """dim Z^1 by elimination over the whole d1, certifying that the
    closed-form cocycles span its kernel."""
    npairs = len(cx.pointed_pairs)
    kernel = gf2.gf2_kernel_basis(cx.d1_rows, npairs)
    if not gf2.gf2_same_span(z_basis, kernel, npairs):
        raise CheckError("closed-form Z basis does not span ker d1")
    return npairs - gf2.gf2_rank(cx.d1_rows, npairs)


def reference_classification(d: CoxeterDiagram, budget: int = 10_000_000) -> ClassificationReport:
    st_ = spanning_tree(d.underlying_graph())
    n = len(st_.nontree_edges)
    deltas = [frozenset(c) for k in range(n + 1) for c in combinations(range(1, n + 1), k)]
    built = {delta: twisted_amalgam(d, delta) for delta in deltas}
    classes: List[List[FrozenSet[int]]] = []
    pairs = 0
    for delta in deltas:
        for cls in classes:
            pairs += 1
            if amalgams_isomorphic(built[cls[0]], built[delta], budget=budget).isomorphic:
                cls.append(delta)
                break
        else:
            classes.append([delta])
    return ClassificationReport(
        cycle_rank=n,
        nontree_edges=st_.nontree_edges,
        chosen_vertices=st_.chosen_vertex,
        class_count=len(classes),
        classes=tuple(tuple(c) for c in classes),
        pairs_checked=pairs,
    )


ATTRIBUTES = (
    "edges", "edge_pos", "pairs", "triples", "core", "pointed_pairs",
    "pointed_triples", "pair_pos", "triple_pos", "d0_rows", "d1_rows",
)


def assert_same_complex(graph: Graph) -> None:
    cx, ref = build_complex(graph), ReferenceComplex(graph)
    for name in ATTRIBUTES:
        assert getattr(cx, name) == getattr(ref, name), name
    assert cx.simplices() == ref.simplices()
    for sigma in ref.simplices():
        assert cx.cofaces(sigma) == ref.cofaces(sigma), sigma
        assert cx.cofaces(tuple(reversed(sigma))) == ref.cofaces(sigma)
    for sigma in ((), ((0, 99),), ref.edges[:1] * 2, ref.edges[:4]):
        assert cx.cofaces(sigma) == ref.cofaces(sigma), sigma
    for v in graph.vertices + (max(graph.vertices, default=0) + 1,):
        assert graph.edges_at(v) == [e for e in graph.edges if v in e]
        assert vertex_star(cx, v) == reference_vertex_star(ref, v)
    # the per-star Z^1 certificate against global elimination
    z_at = {
        i: [vertex_coboundary(cx, i, e) for e in star.edges[1:]]
        for i, star in cx.stars.items()
    }
    z_basis = [v for vs in z_at.values() for v in vs]
    result = cohomology(cx)
    assert _z1_by_stars(cx, z_at) == reference_z1(ref, z_basis) == result.z1
    # the per-star cocycle test against d1 over the whole complex, on
    # cocycles and on vectors that touch one star or several
    singles = [1 << k for k in range(len(ref.pointed_pairs))]
    vectors = (
        z_basis + list(result.h_basis) + singles
        + [a | b for a, b in zip(singles, singles[1:])] + [sum(singles)]
    )
    assert _cocycles_by_stars(cx, vectors) == [not gf2.apply_rows(ref.d1_rows, v) for v in vectors]


def complete(n: int) -> List[Tuple[int, int]]:
    return [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]


GRAPHS = {
    "empty": Graph([1, 2], []),
    "edge": Graph([1, 2], [(1, 2)]),
    "path": Graph(range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5)]),
    "triangle": Graph([1, 2, 3], complete(3)),
    "star3": Graph(range(1, 5), [(1, 2), (1, 3), (1, 4)]),
    "two_triangles": Graph(range(1, 5), [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]),
    "two_components": Graph(range(1, 8), [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]),
    "K4": Graph(range(1, 5), complete(4)),
    "K6": Graph(range(1, 7), complete(6)),
    "petersen": Graph(
        range(10),
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)],
    ),
    "gapped_labels": Graph([2, 7, 11, 30], [(2, 30), (7, 30), (11, 30), (2, 7)]),
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_complex_matches_reference_on_named_graphs(name):
    assert_same_complex(GRAPHS[name])


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = complete(n)
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return Graph(range(1, n + 1), edges)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(graphs())
def test_complex_matches_reference_on_random_graphs(graph):
    assert_same_complex(graph)


def test_star_path_builds_no_unpointed_simplices():
    graph = GRAPHS["petersen"]
    cx = build_complex(graph)
    for v in graph.vertices:
        vertex_star(cx, v)
    cohomology(cx)
    assert not {"pairs", "triples", "core"} & vars(cx).keys()
    assert len(cx.triples) == 455 and vars(cx)["triples"] is cx.triples


FORGERIES = """
from coxloops.cohomology import build_complex, cohomology
from coxloops.errors import CheckError
from coxloops.graphs import Graph

for kind in ("row_spans_two_stars", "star_row_corrupted"):
    cx = build_complex(Graph(range(1, 5), [(a, b) for a in range(1, 5) for b in range(a + 1, 5)]))
    if kind == "row_spans_two_stars":
        # move the lowest bit of d1 row 0 onto a pair pointed elsewhere
        core = set.intersection(*map(set, cx.pointed_triples[0]))
        foreign = next(k for k, s in enumerate(cx.pointed_pairs) if set(s[0]) & set(s[1]) != core)
        row = cx.d1_rows[0]
        cx.d1_rows[0] = row ^ (row & -row) | 1 << foreign
    else:
        star = cx.stars[1]
        cx.stars[1] = star._replace(d1_rows=(star.d1_rows[0] ^ 1,) + star.d1_rows[1:])
    try:
        cohomology(cx)
    except CheckError as e:
        print(__debug__, kind, "CheckError", e)
    else:
        print(__debug__, kind, "accepted")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_d1_not_block_diagonal_by_star_is_refused(flags):
    proc = subprocess.run(
        [sys.executable, *flags, "-c", FORGERIES], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.split(maxsplit=3) for line in proc.stdout.splitlines()]
    debug = str(not flags)
    assert [line[:3] for line in lines] == [
        [debug, "row_spans_two_stars", "CheckError"],
        [debug, "star_row_corrupted", "CheckError"],
    ]
    assert all("d1 rows [0] are not the lifted rows" in line[3] for line in lines)


NON_COCYCLE = """
import importlib

from coxloops.errors import CheckError
from coxloops.graphs import Graph

# BFS from 1 reaches 2 and 3 through 4, so (2, 3) is the one non-tree edge
# and the smallest edge at 2: the H^1 basis asks for d0_2(a_(2,3)), which
# the Z^1 basis skips.  Forge it as the pair ((1, 4), (2, 4)) alone, which
# is independent over B^1 but no cocycle: d1 of it is the triple at 4.
coho = importlib.import_module("coxloops.cohomology")
cx = coho.build_complex(Graph(range(1, 5), [(1, 4), (2, 3), (2, 4), (3, 4)]))
genuine = coho.vertex_coboundary
coho.vertex_coboundary = lambda cx, i, e: (
    1 << cx.pair_pos[((1, 4), (2, 4))] if (i, e) == (2, (2, 3)) else genuine(cx, i, e)
)
try:
    coho.cohomology(cx)
except CheckError as e:
    print(__debug__, "CheckError", e)
else:
    print(__debug__, "accepted")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_h1_representative_not_a_cocycle_is_refused(flags):
    proc = subprocess.run(
        [sys.executable, *flags, "-c", NON_COCYCLE], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split(maxsplit=2) == [
        str(not flags), "CheckError", "an H^1 representative is not a cocycle\n"
    ]


# ---------------------------------------------------------------------------
# classification


def cox(rank: int, edges) -> CoxeterDiagram:
    return CoxeterDiagram.from_edges(rank, edges)


DIAGRAMS = {
    "triangle": cox(3, [(1, 2, 3), (1, 3, 3), (2, 3, 3)]),
    "two_triangles": cox(4, [(1, 2, 3), (1, 3, 3), (2, 3, 3), (2, 4, 3), (3, 4, 3)]),
    "mixed_triangle": cox(3, [(1, 2, 3), (1, 3, 4), (2, 3, 5)]),
    "affine_A2": cox(3, [(1, 2, 3), (2, 3, 3), (1, 3, 3)]),
    "K4": cox(4, [(a, b, 3) for a, b in complete(4)]),
    "C4_4343": cox(4, [(1, 2, 4), (2, 3, 3), (3, 4, 4), (1, 4, 3)]),
    "path": cox(3, [(1, 2, 4), (2, 3, 3)]),
}


@pytest.mark.parametrize("name", sorted(DIAGRAMS))
def test_classification_matches_reference_on_named_diagrams(name):
    d = DIAGRAMS[name]
    assert classify_twisted_amalgams(standard_amalgam(d)) == reference_classification(d)


@pytest.mark.slow
def test_classification_matches_reference_on_k5_minus_edge():
    d = cox(5, [(a, b, 3) for a, b in complete(5) if (a, b) != (4, 5)])
    rep = classify_twisted_amalgams(standard_amalgam(d))
    assert rep == reference_classification(d)
    assert rep.class_count == 32 and rep.pairs_checked == 496


@st.composite
def diagrams(draw):
    """Connected diagrams of cycle rank <= 3 with labels in {3, 4, 6}."""
    n = draw(st.integers(2, 6))
    tree = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    others = [e for e in complete(n) if e not in tree]
    extra = draw(st.lists(st.sampled_from(others), unique=True, max_size=3)) if others else []
    return cox(n, [(a, b, draw(st.sampled_from([3, 4, 6]))) for a, b in tree + extra])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(diagrams())
def test_classification_matches_reference_on_random_diagrams(d):
    assert classify_twisted_amalgams(standard_amalgam(d)) == reference_classification(d)


def test_k5_has_64_singleton_classes():
    rep = classify_twisted_amalgams(standard_amalgam(cox(5, [(a, b, 3) for a, b in complete(5)])))
    assert rep.cycle_rank == 6 and rep.ok
    assert all(len(cls) == 1 for cls in rep.classes)
    assert rep.pairs_checked == 64 * 63 // 2


@pytest.mark.slow
def test_k6_has_1024_singleton_classes():
    rep = classify_twisted_amalgams(standard_amalgam(cox(6, [(a, b, 3) for a, b in complete(6)])))
    assert rep.cycle_rank == 10 and rep.ok
    assert all(len(cls) == 1 for cls in rep.classes)
    assert rep.pairs_checked == 1024 * 1023 // 2


@pytest.mark.parametrize("name", ["two_triangles", "K4"])
def test_classification_budget_is_the_space_of_one_search(name):
    d = DIAGRAMS[name]
    space = amalgams_isomorphic(standard_amalgam(d), twisted_amalgam(d, [1])).space
    with pytest.raises(ResourceLimitError, match="amalgam isomorphism search"):
        classify_twisted_amalgams(standard_amalgam(d), budget=space - 1)
    assert classify_twisted_amalgams(standard_amalgam(d), budget=space).ok


def test_wrong_orbits_are_refused(monkeypatch):
    d = DIAGRAMS["two_triangles"]
    deltas = [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})]
    singletons = {t: {t} for t in deltas}
    # a merge the isomorphism search does not confirm
    pair = {deltas[0], deltas[1]}
    merged = {**singletons, deltas[0]: pair, deltas[1]: pair}
    # an orbit that misses its own delta, and one that is not symmetric
    missing = {**singletons, deltas[2]: set()}
    lopsided = {**singletons, deltas[3]: {deltas[3], deltas[0]}}
    for orbits, message in ((merged, "merges"), (missing, "own orbit"), (lopsided, "symmetric")):
        monkeypatch.setattr(amalgams, "_twist_orbits", lambda a, st_, budget, o=orbits: o)
        with pytest.raises(CheckError, match=message):
            classify_twisted_amalgams(standard_amalgam(d))
