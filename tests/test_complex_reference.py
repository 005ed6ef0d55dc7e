"""Differential tests: the star-built edge complex and the gauge-sweep
classification against the reference paths they replaced.

The references below are the earlier implementations, condensed: an edge
complex that lists every subset of at most three edges and filters the
pointed ones, `cofaces` and `vertex_star` as scans, the Z^1 cross-check by
elimination over the whole d1, and two classifications: the brute force
that compares every delta with the first member of each class so far by an
exhaustive `amalgams_isomorphic` search, and the same greedy loop reading
its decisions from one gauge sweep per delta T (`reference_twist_orbits`,
verbatim).  All must give identical results on named graphs and diagrams
and on `hypothesis`-generated ones, and every per-T orbit must be T + the
orbit of the standard amalgam, which the one-sweep classification uses.
"""

import importlib
import subprocess
import sys
from itertools import combinations
from typing import Dict, FrozenSet, List, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxloops import amalgams, gf2
from coxloops.amalgams import (
    Amalgam,
    ClassificationReport,
    _edge_candidates,
    _standard_orbit,
    amalgams_isomorphic,
    classify_twisted_amalgams,
    standard_amalgam,
    twisted_amalgam,
)
from coxloops.cohomology import (
    VertexStar,
    _z1_by_stars,
    build_complex,
    cohomology,
    vertex_coboundary,
    vertex_star,
    vertex_twist,
)
from coxloops.coxeter import CoxeterDiagram
from coxloops.errors import CheckError, ResourceLimitError
from coxloops.graphs import Graph, SpanningTree, spanning_tree
from coxloops.groups import compose


class ReferenceComplex:
    """Every edge subset of size <= 3, pointed ones filtered from all, with
    d1 as one dense bit row per pointed triple over all pointed pairs."""

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


def apply_d1(cx, v: int) -> int:
    """d1 v from the complex's faces: bit t is the parity of v on the faces
    of pointed triple t."""
    return sum((sum(v >> p & 1 for p in f) & 1) << t for t, f in enumerate(cx.d1_faces))


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


def reference_sweep_classification(a: Amalgam, budget: int = 10_000_000) -> ClassificationReport:
    """Partition the 2^n normalized twisted amalgams over the diagram of
    the standard amalgam `a` into isomorphism classes; the expected outcome
    is 2^n singleton classes.

    The classes are those of the greedy pairwise comparison (each delta,
    in order, against the first member of every class so far), with the
    same `pairs_checked`.  Each decision reads the delta's orbit from one
    gauge sweep per delta (`reference_twist_orbits`) instead of running an
    exhaustive `amalgams_isomorphic` search per pair; every merge is still
    confirmed by `amalgams_isomorphic` and carries its checked witness.
    The budget applies as in the pairwise search: ResourceLimitError when
    n >= 1 and the space of one search exceeds it.
    """
    if a.twists:
        raise ValueError("classification starts from the standard amalgam")
    d = a.diagram
    st = spanning_tree(a.complex.graph)
    n = len(st.nontree_edges)
    deltas = []
    for k in range(0, n + 1):
        for combo in combinations(range(1, n + 1), k):
            deltas.append(frozenset(combo))
    orbits = reference_twist_orbits(a, st, budget) if n else {frozenset(): {frozenset()}}
    for delta in deltas:
        if delta not in orbits[delta]:
            raise CheckError(f"twisted amalgam {sorted(delta)} missing from its own orbit")
        if any(delta not in orbits[other] for other in orbits[delta]):
            raise CheckError(f"orbit of twisted amalgam {sorted(delta)} is not symmetric")
    classes: List[List[FrozenSet[int]]] = []
    pairs = 0
    for delta in deltas:
        placed = False
        for cls in classes:
            pairs += 1
            if delta in orbits[cls[0]]:
                rep = amalgams_isomorphic(
                    twisted_amalgam(d, cls[0]), twisted_amalgam(d, delta), budget=budget
                )
                if not rep.isomorphic:
                    raise CheckError(
                        f"gauge sweep merges {sorted(delta)} into {sorted(cls[0])}, "
                        "the isomorphism search does not"
                    )
                cls.append(delta)
                placed = True
                break
        if not placed:
            classes.append([delta])
    return ClassificationReport(
        cycle_rank=n,
        nontree_edges=st.nontree_edges,
        chosen_vertices=st.chosen_vertex,
        class_count=len(classes),
        classes=tuple(tuple(cls) for cls in classes),
        pairs_checked=pairs,
    )


def reference_twist_orbits(
    a: Amalgam, st: SpanningTree, budget: int
) -> Dict[FrozenSet[int], Set[FrozenSet[int]]]:
    """For every delta T, the set of deltas S with a_T isomorphic to a_S,
    found by one sweep over the edge assignments theta of
    `amalgams_isomorphic` (a the standard amalgam, which has the same
    candidates as every twisted one).

    The maps a_T and the standard amalgam differ only in the Klein-into-edge
    components psi_{j,e} = iota_{j,e} o gamma_j^{T(j,e)}, and the loop map
    that theta_e induces on a pointed simplex at j through e is
    gamma_j^{S(j,e)} o r_{j,e}(theta_e) o gamma_j^{T(j,e)}, with
    r_{j,e}(f) = iota^-1 o f o iota.  It depends on (j, e) only, so theta
    is accepted exactly when, at every vertex j of degree >= 2, these maps
    agree over the edges at j.  gamma_j is a nontrivial involution, so the
    first edge at j fixes the S-pattern at j up to one flip, and only the
    patterns inside {e_k : o_k = j} are normalized.  The sweep is a
    depth-first search over `cx.edges` in order that tests each vertex as
    soon as its last edge is assigned and prunes the subtree when the test
    fails; each leaf yields the S it reaches.
    """
    cx = a.complex
    edges = cx.edges
    cand = [_edge_candidates(a, e, budget) for e in edges]
    space = 1
    for c in cand:
        space *= len(c)
    if space > budget:
        raise ResourceLimitError(f"amalgam isomorphism search exceeded budget={budget}")
    twist_bit = {
        (o, e): 1 << k for k, (o, e) in enumerate(zip(st.chosen_vertex, st.nontree_edges))
    }

    # per vertex j of degree >= 2, tested after its last edge: for each
    # edge at j its position, its T-bit, and for every candidate and
    # T(j, e) the ids of the induced maps for S(j, e) = 0 and 1; and the
    # S-patterns at j (bit p for the p-th edge at j) that are normalized,
    # with the deltas they stand for
    tests: List[List[Tuple]] = [[] for _ in edges]
    for j in cx.graph.vertices:
        star = cx.stars[j].edges
        if len(star) < 2:
            continue
        gamma = vertex_twist(a.core_loop((j,)).loop)
        ids: Dict[Tuple[int, ...], int] = {}
        rows = []
        for e in star:
            other = star[1] if e == star[0] else star[0]
            iota = a.connecting(tuple(sorted((e, other))), (e,))
            psi = (iota, compose(iota, gamma))
            inv = [{y: x for x, y in enumerate(p)} for p in psi]
            induced = [
                tuple(
                    tuple(
                        ids.setdefault(tuple(inv[s][f[x]] for x in psi[t]), len(ids))
                        for s in (0, 1)
                    )
                    for t in (0, 1)
                )
                for f in cand[cx.edge_pos[e]]
            ]
            rows.append((cx.edge_pos[e], twist_bit.get((j, e), 0), induced))
        normal = [(1 << p, twist_bit[(j, e)]) for p, e in enumerate(star) if (j, e) in twist_bit]
        patterns = {0: 0}
        for bit, delta_bit in normal:
            patterns.update({m | bit: d | delta_bit for m, d in patterns.items()})
        tests[max(r[0] for r in rows)].append((rows, (1 << len(star)) - 1, patterns))

    def orbit_of(tmask: int) -> Set[int]:
        # the vertex tests with T applied: the first edge's position and
        # maps per candidate, then (pattern bit, position, maps) for the rest
        fixed = []
        for at_edge in tests:
            fixed.append([])
            for rows, full, patterns in at_edge:
                applied = [
                    (1 << p, pos, [m[1 if tmask & bit else 0] for m in induced])
                    for p, (pos, bit, induced) in enumerate(rows)
                ]
                fixed[-1].append((applied[0][1:], applied[1:], full, patterns))
        assign = [0] * len(edges)
        found: Set[int] = set()

        def options(first, rest, full, patterns) -> List[int]:
            pos0, maps0 = first
            target = maps0[assign[pos0]][0]
            flips = 0
            for bit, pos, maps in rest:
                m0, m1 = maps[assign[pos]]
                if m1 == target:
                    flips |= bit
                elif m0 != target:
                    return []
            # S(j, first edge) = 0 gives the pattern `flips`, = 1 its complement
            return [patterns[m] for m in (flips, full ^ flips) if m in patterns]

        def dfs(i: int, smask: int) -> None:
            if i == len(edges):
                found.add(smask)
                return
            for ci in range(len(cand[i])):
                assign[i] = ci
                masks = [smask]
                for test in fixed[i]:
                    opts = options(*test)
                    masks = [m | o for m in masks for o in opts]
                    if not masks:
                        break
                for m in masks:
                    dfs(i + 1, m)

        dfs(0, 0)
        return found

    n = len(st.nontree_edges)

    def as_delta(mask: int) -> FrozenSet[int]:
        return frozenset(k + 1 for k in range(n) if mask >> k & 1)

    return {
        as_delta(t): {as_delta(s) for s in orbit_of(t)} for t in range(1 << n)
    }


ATTRIBUTES = (
    "edges", "edge_pos", "pairs", "triples", "core", "pointed_pairs",
    "pointed_triples", "pair_pos", "d0_rows",
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
    # d1 as faces: the supports of the dense rows, ascending
    assert cx.d1_faces == [tuple(gf2.support(row)) for row in ref.d1_rows]
    # the star map: each pointed pair's core vertex and place in that star
    assert cx.pair_star == [
        (i, reference_vertex_star(ref, i).pairs.index(s))
        for s in ref.pointed_pairs
        for i in ref.core[s]
    ]
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
    # d1 from the faces against the dense d1, on cocycles and on vectors
    # that touch one star or several
    singles = [1 << k for k in range(len(ref.pointed_pairs))]
    vectors = (
        z_basis + list(result.h_basis) + singles
        + [a | b for a, b in zip(singles, singles[1:])] + [sum(singles)]
    )
    dense = [gf2.apply_rows(ref.d1_rows, v) for v in vectors]
    assert [apply_d1(cx, v) for v in vectors] == dense
    # what the B^1 and H^1 certificates claim, by elimination over the dense
    # rows: the H^1 representatives are cocycles, B spans im d0, and B u H
    # is independent
    npairs = len(ref.pointed_pairs)
    assert not any(dense[len(z_basis):len(z_basis) + result.h1])
    d0_cols = gf2.transpose(ref.d0_rows, len(ref.edges))
    assert gf2.gf2_same_span(result.b_basis, d0_cols, npairs)
    assert gf2.gf2_rank(result.b_basis + result.h_basis, npairs) == result.b1 + result.h1


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

for kind in ("stars_overlap", "row_spans_two_stars", "star_row_corrupted", "row_missing"):
    cx = build_complex(Graph(range(1, 5), [(a, b) for a in range(1, 5) for b in range(a + 1, 5)]))
    if kind == "stars_overlap":
        # star 2 claims a pair of star 1 in place of its own first pair
        star = cx.stars[2]
        cx.stars[2] = star._replace(pairs=cx.stars[1].pairs[:1] + star.pairs[1:])
    elif kind == "row_spans_two_stars":
        # move the first face of d1 row 0 onto a pair pointed elsewhere
        core = set.intersection(*map(set, cx.pointed_triples[0]))
        foreign = next(k for k, s in enumerate(cx.pointed_pairs) if set(s[0]) & set(s[1]) != core)
        cx.d1_faces[0] = (foreign,) + cx.d1_faces[0][1:]
    elif kind == "star_row_corrupted":
        star = cx.stars[1]
        cx.stars[1] = star._replace(d1_rows=(star.d1_rows[0] ^ 1,) + star.d1_rows[1:])
    else:
        # drop the last pointed triple with its row: its star row is left over
        cx.pointed_triples = cx.pointed_triples[:-1]
        del cx.d1_faces[-1]
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
        [debug, "stars_overlap", "CheckError"],
        [debug, "row_spans_two_stars", "CheckError"],
        [debug, "star_row_corrupted", "CheckError"],
        [debug, "row_missing", "CheckError"],
    ]
    assert lines[0][3] == "the vertex stars do not partition the pointed pairs"
    assert all("d1 rows [0] are not the lifted rows" in line[3] for line in lines[1:3])
    assert lines[3][3] == "d1 rows [] are not the lifted rows of their vertex stars"


def test_closed_form_cocycle_leaving_its_star_is_refused(monkeypatch):
    coho = importlib.import_module("coxloops.cohomology")
    cx = build_complex(GRAPHS["triangle"])
    genuine = coho.vertex_coboundary
    foreign = 1 << cx.pair_pos[((1, 2), (2, 3))]  # a pair pointed at vertex 2
    monkeypatch.setattr(
        coho, "vertex_coboundary", lambda cx, i, e: genuine(cx, i, e) | foreign * (i == 1)
    )
    with pytest.raises(CheckError, match="a closed-form cocycle at 1 leaves its star"):
        cohomology(cx)


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


B_AND_H_FORGERIES = """
import importlib

from coxloops.errors import CheckError
from coxloops.graphs import Graph

coho = importlib.import_module("coxloops.cohomology")
genuine = coho.spanning_tree
# two triangles on the edge (2, 3): BFS from 1 leaves (2, 3) and (3, 4)
# out of the tree, at the vertices 2 and 3
graph = Graph(range(1, 5), [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
for kind in ("column_of_one_edge", "class_repeated"):
    cx = coho.build_complex(graph)
    if kind == "column_of_one_edge":
        # pointed pair 0 is ((1, 2), (1, 3)); its d0 row keeps the bit of
        # (1, 2) alone, so the d0 columns of the component no longer sum to 0
        cx.d0_rows[0] &= -cx.d0_rows[0]
    else:
        # the first non-tree edge twice: each representative is a cocycle,
        # and there are h1 of them, but they span one class
        coho.spanning_tree = lambda g: genuine(g)._replace(
            nontree_edges=genuine(g).nontree_edges[:1] * 2,
            chosen_vertex=genuine(g).chosen_vertex[:1] * 2,
        )
    try:
        coho.cohomology(cx)
    except CheckError as e:
        print(__debug__, kind, "CheckError", e)
    else:
        print(__debug__, kind, "accepted")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_b1_not_spanning_or_h1_dependent_is_refused(flags):
    proc = subprocess.run(
        [sys.executable, *flags, "-c", B_AND_H_FORGERIES], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    debug = str(not flags)
    assert [line.split(maxsplit=3) for line in proc.stdout.splitlines()] == [
        [debug, "column_of_one_edge", "CheckError", "closed-form B basis does not span im d0"],
        [debug, "class_repeated", "CheckError", "H^1 representatives are not independent over B^1"],
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


def as_mask(delta) -> int:
    return sum(1 << (k - 1) for k in delta)


def assert_orbits_are_translates(a: Amalgam) -> None:
    """Every per-T orbit of the reference sweep is T + the orbit of the
    standard amalgam, and that orbit is the one-sweep `_standard_orbit`."""
    st_ = spanning_tree(a.complex.graph)
    if not st_.nontree_edges:
        return
    orbits = reference_twist_orbits(a, st_, 10_000_000)
    base = {as_mask(s) for s in orbits[frozenset()]}
    assert base == _standard_orbit(a, st_, 10_000_000)
    assert len(orbits) == 1 << len(st_.nontree_edges)
    for t, orbit in orbits.items():
        assert {as_mask(s) for s in orbit} == {as_mask(t) ^ o for o in base}, sorted(t)


def assert_same_classification(d: CoxeterDiagram, brute_force: bool = True) -> ClassificationReport:
    a = standard_amalgam(d)
    rep = classify_twisted_amalgams(a)
    assert rep == reference_sweep_classification(a)
    if brute_force:
        assert rep == reference_classification(d)
    assert_orbits_are_translates(a)
    return rep


@pytest.mark.parametrize("name", sorted(DIAGRAMS))
def test_classification_matches_reference_on_named_diagrams(name):
    assert_same_classification(DIAGRAMS[name])


@pytest.mark.slow
def test_classification_matches_reference_on_k5_minus_edge():
    d = cox(5, [(a, b, 3) for a, b in complete(5) if (a, b) != (4, 5)])
    rep = assert_same_classification(d)
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
    assert_same_classification(d)


def test_k5_has_64_singleton_classes():
    rep = assert_same_classification(cox(5, [(a, b, 3) for a, b in complete(5)]), brute_force=False)
    assert rep.cycle_rank == 6 and rep.ok
    assert all(len(cls) == 1 for cls in rep.classes)
    assert rep.pairs_checked == 64 * 63 // 2


@pytest.mark.slow
def test_k6_matches_the_per_delta_sweeps():
    assert_same_classification(cox(6, [(a, b, 3) for a, b in complete(6)]), brute_force=False)


def test_k6_has_1024_singleton_classes():
    rep = classify_twisted_amalgams(standard_amalgam(cox(6, [(a, b, 3) for a, b in complete(6)])))
    assert rep.cycle_rank == 10 and rep.ok
    assert all(len(cls) == 1 for cls in rep.classes)
    assert rep.pairs_checked == 1024 * 1023 // 2


def test_k7_has_32768_singleton_classes():
    rep = classify_twisted_amalgams(standard_amalgam(cox(7, [(a, b, 3) for a, b in complete(7)])))
    assert rep.cycle_rank == 15 and rep.ok
    assert all(len(cls) == 1 for cls in rep.classes)
    assert rep.classes[:3] == ((frozenset(),), (frozenset({1}),), (frozenset({2}),))
    assert rep.classes[-1] == (frozenset(range(1, 16)),)
    assert rep.pairs_checked == 32768 * 32767 // 2 == 536_854_528


@pytest.mark.parametrize("name", ["two_triangles", "K4"])
def test_classification_budget_is_the_space_of_one_search(name):
    d = DIAGRAMS[name]
    space = amalgams_isomorphic(standard_amalgam(d), twisted_amalgam(d, [1])).space
    with pytest.raises(ResourceLimitError, match="amalgam isomorphism search"):
        classify_twisted_amalgams(standard_amalgam(d), budget=space - 1)
    assert classify_twisted_amalgams(standard_amalgam(d), budget=space).ok


def test_wrong_orbits_are_refused(monkeypatch):
    d = DIAGRAMS["two_triangles"]  # cycle rank 2: deltas 0, {1}, {2}, {1, 2} as masks 0-3
    forgeries = (
        ({1}, "missing from its own orbit"),
        ({0, 1, 2}, "not closed under symmetric difference"),
        ({0, 1}, "merges \\[1\\] into \\[\\], the isomorphism search does not"),
    )
    for orbit, message in forgeries:
        monkeypatch.setattr(amalgams, "_standard_orbit", lambda a, st_, budget, o=orbit: set(o))
        with pytest.raises(CheckError, match=message):
            classify_twisted_amalgams(standard_amalgam(d))



def test_cosets_and_pairs_follow_the_greedy_loop(monkeypatch):
    """A forged orbit {0, {1, 3}} on K4 (cycle rank 3) with every merge
    confirmed: the cosets and `pairs_checked` equal those of the greedy
    loop reading the translated orbits, as a real orbit past {0} would."""
    d = DIAGRAMS["K4"]
    base = {0, 0b101}

    def as_delta(mask: int) -> FrozenSet[int]:
        return frozenset(k + 1 for k in range(3) if mask >> k & 1)

    def confirmed(a, b, budget):
        return amalgams.IsoReport(True, {}, 1, 1, False)

    module = sys.modules[__name__]
    monkeypatch.setattr(amalgams, "_standard_orbit", lambda a, st_, budget: set(base))
    monkeypatch.setattr(amalgams, "amalgams_isomorphic", confirmed)
    monkeypatch.setattr(module, "amalgams_isomorphic", confirmed)
    monkeypatch.setattr(
        module,
        "reference_twist_orbits",
        lambda a, st_, budget: {as_delta(t): {as_delta(t ^ o) for o in base} for t in range(8)},
    )
    a = standard_amalgam(d)
    rep = classify_twisted_amalgams(a)
    assert rep == reference_sweep_classification(a)
    assert rep.class_count == 4 and rep.pairs_checked == 16

FORGED_LEMMA = """
from coxloops import amalgams
from coxloops.coxeter import CoxeterDiagram
from coxloops.errors import CheckError

d = CoxeterDiagram.from_edges(4, [(1, 2, 3), (1, 3, 3), (2, 3, 3), (2, 4, 3), (3, 4, 3)])
a = amalgams.standard_amalgam(d)
# an automorphism of order 3 of the Klein loop {e, s, u, su} at a vertex;
# it commutes with no twist gamma_j, an involution
cycle = (0, 2, 3, 1)
# a permutation of the edge loop L_(1,2) acting as `cycle` on the Klein
# subloop of vertex 1 and fixing everything else
iota = a.connecting(((1, 2), (1, 3)), ((1, 2),))
forged = list(range(a.loop_of(((1, 2),)).order))
for x, y in enumerate(cycle):
    forged[iota[x]] = iota[y]
candidates = amalgams._edge_candidates
fakes = {
    "gamma": ("vertex_twist", lambda loop: cycle),
    "candidate": (
        "_edge_candidates",
        lambda a, e, budget: candidates(a, e, budget) + [tuple(forged)] * (e == (1, 2)),
    ),
}
for kind, (name, fake) in fakes.items():
    genuine = getattr(amalgams, name)
    setattr(amalgams, name, fake)
    try:
        amalgams.classify_twisted_amalgams(a)
    except CheckError as e:
        print(__debug__, kind, "CheckError", e)
    else:
        print(__debug__, kind, "accepted")
    setattr(amalgams, name, genuine)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_induced_map_not_commuting_with_the_twist_is_refused(flags):
    proc = subprocess.run(
        [sys.executable, *flags, "-c", FORGED_LEMMA], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.split(maxsplit=3) for line in proc.stdout.splitlines()]
    debug = str(not flags)
    assert [line[:3] for line in lines] == [
        [debug, "gamma", "CheckError"],
        [debug, "candidate", "CheckError"],
    ]
    message = (
        "an induced map at vertex 1 through edge (1, 2) does not commute with the vertex twist"
    )
    assert [line[3] for line in lines] == [message, message]
