"""GF(2) cohomology of edge complexes: dimensions, bases, coefficient groups.

Frozen values: (z1, b1, h1) for the named graphs, the full triangle bases,
and the divergence of the literal coface-stabilizer reading of the
coefficient groups on sparse graphs (order 12 vs closed form 2).  At the
`H¹` frontier (`-m slow`), the dims and a digest of the bases of seeded
graphs with 1500 and 4000 edges.
"""

import hashlib
import random
import subprocess
import sys
from itertools import combinations

import pytest

from coxloops.cohomology import (
    build_complex,
    coefficient_group,
    cohomology,
    edge_twist,
    vertex_coboundary,
    vertex_star,
    vertex_twist,
)
from coxloops.coxeter import CoxeterDiagram, diagram_a, enumerate_group
from coxloops.amalgams import standard_amalgam
from coxloops.gf2 import apply_rows, support
from coxloops.graphs import Graph
from coxloops.groups import cyclic
from coxloops.loops import chein_loop

TRIANGLE = Graph([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
K4 = Graph(range(1, 5), [(a, b) for a in range(1, 5) for b in range(a + 1, 5)])
STAR3 = Graph(range(1, 5), [(1, 2), (1, 3), (1, 4)])
TWO_TRIANGLES = Graph(range(1, 5), [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])


def test_dims_frozen():
    assert cohomology(build_complex(TRIANGLE)).dims == (3, 2, 1)
    assert cohomology(build_complex(K4)).dims == (8, 5, 3)
    assert cohomology(build_complex(STAR3)).dims == (2, 2, 0)
    assert cohomology(build_complex(TWO_TRIANGLES)).dims == (6, 4, 2)


def test_triangle_bases_frozen():
    r = cohomology(build_complex(TRIANGLE))
    # C^1 coordinates: the three pointed pairs in lexicographic order
    assert r.pair_index == (
        ((1, 2), (1, 3)),
        ((1, 2), (2, 3)),
        ((1, 3), (2, 3)),
    )
    # local coboundaries d0_i(a_e), one per (vertex, non-smallest edge at it)
    assert r.z_basis == (1, 2, 4)
    # global coboundaries d0(a_e) for e beyond the component's smallest edge
    assert r.b_basis == (5, 6)
    # one class per non-tree edge; here the single cycle edge (2, 3)
    assert r.h_basis == (2,)
    assert r.h_basis_edges == ((2, 3),)
    assert support(r.h_basis[0]) == [1]  # the pair ((1,2),(2,3))


def test_complex_counts_k4():
    cx = build_complex(K4)
    assert len(cx.edges) == 6
    assert len(cx.pairs) == 15
    assert len(cx.triples) == 20
    # three disjoint edge pairs (perfect matchings) are not pointed
    assert len(cx.pointed_pairs) == 12
    # pointed triples = the four full vertex stars; triangles have empty core
    assert len(cx.pointed_triples) == 4
    assert len(cx.d0_rows) == 12
    assert len(cx.d1_rows) == 4


def test_cofaces_in_triangle_complex():
    cx = build_complex(TRIANGLE)
    e = ((1, 2),)
    cof = cx.cofaces(e)
    assert len(cof) == 3  # two pairs and the full triple
    assert all(set(e) < set(t) for t in cof)
    assert cx.cofaces(tuple(cx.edges)) == []


def test_coboundary_composition_is_zero():
    for g in (TRIANGLE, K4, TWO_TRIANGLES):
        cx = build_complex(g)
        from coxloops.gf2 import transpose

        for col in transpose(cx.d0_rows, len(cx.edges)):
            assert apply_rows(cx.d1_rows, col) == 0


def test_vertex_coboundary_requires_incidence():
    cx = build_complex(TRIANGLE)
    # at vertex 1 the only partner of (1,2) is (1,3): the pair at index 0
    assert vertex_coboundary(cx, 1, (1, 2)) == 0b001
    # at vertex 2 the partner is (2,3): the pair ((1,2),(2,3)) at index 1
    assert vertex_coboundary(cx, 2, (1, 2)) == 0b010
    with pytest.raises(AssertionError):
        vertex_coboundary(cx, 3, (1, 2))


def test_vertex_stars_acyclic_on_named_graphs():
    for g in (TRIANGLE, K4, STAR3, TWO_TRIANGLES):
        cx = build_complex(g)
        for v in g.vertices:
            star = vertex_star(cx, v)
            assert star.is_acyclic()
    # star shape frozen for K4: 3 edges, 3 pointed pairs, 1 triple per vertex
    cx = build_complex(K4)
    s = vertex_star(cx, 1)
    assert (len(s.edges), len(s.pairs), len(s.triples)) == (3, 3, 1)


def test_disconnected_graphs_sum_and_strict_rejects():
    two = Graph(
        [1, 2, 3, 4, 5, 6],
        [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)],
    )
    r = cohomology(build_complex(two))
    assert r.dims == (6, 4, 2)
    assert r.components == 2
    with pytest.raises(ValueError):
        cohomology(build_complex(two), strict=True)
    # isolated vertices contribute nothing but count as components
    iso = Graph([1, 2, 3, 4], [(1, 2), (1, 3), (2, 3)])
    r2 = cohomology(build_complex(iso))
    assert r2.dims == (3, 2, 1)
    assert r2.components == 2
    with pytest.raises(ValueError):
        cohomology(build_complex(iso), strict=True)


def _random_connected_graph(rng: random.Random) -> Graph:
    while True:
        n = rng.randint(2, 8)
        vertices = list(range(1, n + 1))
        edges = [e for e in combinations(vertices, 2) if rng.random() < 0.5]
        g = Graph(vertices, edges)
        if g.edges and g.is_connected():
            return g


def test_random_connected_graphs_closed_form_matches_elimination():
    # cross_check=True re-derives every dimension and span by Gaussian
    # elimination inside `cohomology` and raises CheckError on any mismatch
    rng = random.Random(7)
    for _ in range(100):
        g = _random_connected_graph(rng)
        r = cohomology(build_complex(g), cross_check=True)
        n_edges, n_vertices = len(g.edges), len(g.vertices)
        assert r.h1 == n_edges - n_vertices + 1
        assert r.z1 - r.b1 == r.h1
        assert len(r.z_basis) == r.z1
        assert len(r.b_basis) == r.b1
        assert len(r.h_basis) == r.h1
        assert len(r.h_basis_edges) == r.h1
        cx = build_complex(g)
        for v in g.vertices:
            assert vertex_star(cx, v).is_acyclic()


def test_vertex_twist_is_the_klein_swap():
    t = chein_loop(cyclic(2))
    assert vertex_twist(t) == (0, 3, 2, 1)
    with pytest.raises(AssertionError):
        vertex_twist(chein_loop(cyclic(3)))  # wrong group half


def test_vertex_twist_rejects_wrong_loop_under_optimize():
    # the order check must hold even with asserts stripped by -O
    code = "\n".join([
        "from coxloops.cohomology import vertex_twist",
        "from coxloops.errors import CheckError",
        "from coxloops.groups import cyclic",
        "from coxloops.loops import chein_loop",
        "try:",
        "    vertex_twist(chein_loop(cyclic(3)))",
        "except CheckError as e:",
        "    print(__debug__, 'CheckError', e)",
        "else:",
        "    print(__debug__, 'accepted')",
    ])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[:2] == ["False", "CheckError"]
    assert "order 6" in proc.stdout


def test_edge_twist_on_dihedral_doubles():
    w = enumerate_group(diagram_a(2))  # S3 with its two reflections marked
    t = chein_loop(w)
    f = edge_twist(t)
    n = t.group_order
    # involution, inversion on rotations, swap with the coset on reflections
    assert all(f[f[x]] == x for x in range(t.order))
    rot = {0, w.product[w.generators[0]][w.generators[1]]}
    rot.add(w.product[w.generators[1]][w.generators[0]])
    for x in rot:
        assert f[x] == w.inverse[x]
    for s in w.generators:
        assert f[s] == n + s


def test_coefficient_groups_structural_a3_and_triangle():
    # closed form (trivial for empty core, order 2 otherwise) must agree
    # with the brute-force subloop stabilizers at every simplex
    for d in (
        diagram_a(3),
        CoxeterDiagram.from_edges(3, [(1, 2, 3), (1, 3, 3), (2, 3, 3)]),
    ):
        am = standard_amalgam(d)
        for sigma in am.complex.simplices():
            cg = coefficient_group(sigma, am, mode="structural")
            assert cg.agrees
            expected = 1 if not am.core_of(sigma) else 2
            assert cg.order == expected
            assert (cg.generator is None) == (expected == 1)


def test_coefficient_group_complex_mode_diverges_on_paths():
    # the literal coface-stabilizer reading is coarser on sparse graphs:
    # a path edge has a single coface, whose image is stabilized by 12 of
    # the 108 automorphisms, not just the closed-form 2
    am = standard_amalgam(diagram_a(3))
    sigma = ((1, 2),)
    cg = coefficient_group(sigma, am, mode="complex")
    assert cg.order == 2
    assert cg.brute_order == 12
    assert not cg.agrees
    # mode="none" skips the brute force entirely
    cg_none = coefficient_group(sigma, am, mode="none")
    assert cg_none.brute_order is None and cg_none.agrees
    with pytest.raises(ValueError):
        coefficient_group(sigma, am, mode="bogus")


# ---------------------------------------------------------------------------
# the H^1 frontier: thousands of edges, with every cross-check on


def frontier_graph(seed: int, nverts: int, nedges: int) -> Graph:
    """A seeded connected graph: a random spanning tree (each vertex, in
    shuffled order, joins a random earlier one) plus distinct random extra
    edges."""
    rng = random.Random(seed)
    order = list(range(1, nverts + 1))
    rng.shuffle(order)
    edges = {tuple(sorted((order[k], order[rng.randrange(k)]))) for k in range(1, nverts)}
    while len(edges) < nedges:
        edges.add(tuple(sorted(rng.sample(range(1, nverts + 1), 2))))
    return Graph(range(1, nverts + 1), sorted(edges))


def bases_digest(r) -> str:
    """sha256 of the Z^1, B^1 and H^1 bases, each vector in hex."""
    h = hashlib.sha256()
    for basis in (r.z_basis, r.b_basis, r.h_basis):
        h.update(",".join(format(v, "x") for v in basis).encode() + b";")
    return h.hexdigest()


# (seed, vertices, edges) -> (z1, b1, h1) and the bases' digest, pinned
# with the column-scan elimination that lowest-bit pivots replaced
H1_FRONTIER = [
    (
        (1500, 750, 1500),
        (2250, 1499, 751),
        "69842418d4eb5b54a51ada0e03270543e49d79267aba5bdc65e350283b3e77a7",
    ),
    (
        (4000, 2000, 4000),
        (6000, 3999, 2001),
        "406e2a4a546f6e1358b26e1c35295fd045e4ed2921b2bcfadcf04757aec09011",
    ),
]


@pytest.mark.slow
@pytest.mark.parametrize("shape,dims,digest", H1_FRONTIER, ids=["1500_edges", "4000_edges"])
def test_h1_frontier_frozen(shape, dims, digest):
    r = cohomology(build_complex(frontier_graph(*shape)), cross_check=True)
    assert (r.dims, bases_digest(r)) == (dims, digest)
