"""GF(2) cohomology of edge complexes: dimensions, bases, coefficient groups.

Frozen values: (z1, b1, h1) for the named graphs, the full triangle bases,
and the divergence of the literal coface-stabilizer reading of the
coefficient groups on sparse graphs (order 12 vs closed form 2).  At the
`H¹` frontier (`-m slow`), the dims and a digest of the bases of seeded
graphs with 1500 and 4000 edges and of two dense ones (2000 edges on 200
vertices, 4000 on 400), and the peak memory of the larger dense one.
"""

import hashlib
import importlib
import io
import json
import os
import random
import resource
import subprocess
import sys
from contextlib import redirect_stdout
from itertools import combinations

import pytest

from coxloops import cli, gf2
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
from coxloops.gf2 import support
from coxloops.graphs import Graph
from coxloops.groups import cyclic
from coxloops.loops import chein_loop
from test_complex_reference import apply_d1

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
    assert len(cx.d1_faces) == 4


def test_coboundary_composition_is_zero():
    for g in (TRIANGLE, K4, TWO_TRIANGLES):
        cx = build_complex(g)
        from coxloops.gf2 import transpose

        for col in transpose(cx.d0_rows, len(cx.edges)):
            assert apply_d1(cx, col) == 0


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


def test_stars_share_rows_and_kernels_by_local_matrix(monkeypatch):
    calls = []
    kernel_basis = gf2.gf2_kernel_basis
    monkeypatch.setattr(gf2, "gf2_kernel_basis", lambda *a: calls.append(a) or kernel_basis(*a))
    cx = build_complex(K4)  # four stars of degree 3
    stars = list(cx.stars.values())
    assert all(s.d0_rows is stars[0].d0_rows and s.d1_rows is stars[0].d1_rows for s in stars)
    assert all(s.is_acyclic() for s in stars) and len(calls) == 1
    assert all(s.kernel is stars[0].kernel for s in stars)
    # a forged star holding the complex's memo still gets its own
    # elimination, certified by gf2_kernel_basis; a `_replace`d star holds
    # no memo at all
    forged = stars[0]._replace(d1_rows=(stars[0].d1_rows[0] ^ 1,))
    assert forged.kernels is None
    forged.kernels = cx.kernels
    assert forged.kernel == (1, 6) and stars[0].kernel == (3, 5) and not forged.is_acyclic()
    assert calls[-1] == (forged.d1_rows, 3) and len(calls) == 2
    # equal rows in another tuple are the same local matrix
    copy = stars[1]._replace(d1_rows=tuple(list(stars[1].d1_rows)))
    copy.kernels = cx.kernels
    assert copy.kernel is stars[0].kernel and len(calls) == 2


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


def test_coefficient_group_none_mode_skips_the_brute_force():
    am = standard_amalgam(diagram_a(3))
    sigma = ((1, 2),)
    cg_none = coefficient_group(sigma, am, mode="none")
    assert cg_none.order == 2 and cg_none.brute_order is None and cg_none.agrees
    for mode in ("complex", "bogus"):
        with pytest.raises(ValueError):
            coefficient_group(sigma, am, mode=mode)


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_a_stabilizer_disagreeing_with_the_closed_form_fails_verify(flags):
    # every canonical subloop forged to {0}, which every automorphism fixes:
    # the stabilizer at the A2 edge is all 108 automorphisms of M(S3, 2),
    # not the closed form's 2, and the check must hold without asserts too.
    # Forged at the vertex cores only, on A3, the edges pass and the first
    # pointed pair fails: all 6 automorphisms of the Klein loop fix {0}
    cases = [
        ("lambda self, core, sub: (0,)", "rank 2\\nedge 1 2 3", "((1, 2),)", 108),
        (
            "lambda self, core, sub: (0,) if len(core) == 1 else genuine(self, core, sub)",
            "rank 3\\nedge 1 2 3\\nedge 2 3 3",
            "((1, 2), (2, 3))",
            6,
        ),
    ]
    for forgery, body, sigma, brute in cases:
        code = "\n".join([
            "import io, sys",
            "from coxloops import cli",
            "from coxloops.amalgams import Amalgam",
            "genuine = Amalgam.core_subloop",
            f"Amalgam.core_subloop = {forgery}",
            f"sys.stdin = io.TextIOWrapper(io.BytesIO(b'coxeter v1\\n{body}\\n'))",
            "print(__debug__, cli.main(['verify', '-']))",
        ])
        proc = subprocess.run(
            [sys.executable, *flags, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.stdout.split() == [str(not flags), "2"], proc.stderr
        assert proc.stderr == (
            f"check failure: coefficient group at {sigma}: closed form 2 != stabilizer order {brute}\n"
        )


@pytest.mark.parametrize("flags", [[], ["--no-cross-check"]])
def test_verify_computes_one_coefficient_group_per_distinct_core(monkeypatch, flags):
    # K5 has 175 simplices and 16 distinct cores: 10 edges, 5 vertices and
    # the empty core; each core is computed at its first simplex, and every
    # simplex still gets its order
    layer = importlib.import_module("coxloops.cohomology")
    genuine = layer.coefficient_group
    calls = []

    def counting(sigma, *args, **kwargs):
        calls.append(sigma)
        return genuine(sigma, *args, **kwargs)

    monkeypatch.setattr(layer, "coefficient_group", counting)
    edges = "".join(f"edge {a} {b} 3\n" for a in range(1, 6) for b in range(a + 1, 6))
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(f"coxeter v1\nrank 5\n{edges}".encode())))
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["verify", "-", "--json", *flags]) == 0
    cx = build_complex(Graph(range(1, 6), [(a, b) for a in range(1, 6) for b in range(a + 1, 6)]))
    firsts = {}
    for sigma in cx.simplices():
        firsts.setdefault(cx.core_of(sigma), sigma)
    assert len(calls) == 16 and calls == list(firsts.values())
    [entry] = [c for c in json.loads(out.getvalue())["checks"] if c["name"] == "coefficient_groups_match_stabilizers"]
    if not flags:
        assert entry["simplices"] == len(entry["orders"]) == 175
        assert entry["orders"] == [2 if cx.core_of(s) else 1 for s in cx.simplices()]


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
# with the column-scan elimination that lowest-bit pivots replaced; the
# 2000-edge dense graph's with the dense global d1 rows that its faces
# replaced, the 4000-edge one's with the elimination of B u H over all
# pointed pairs that the half-edge coordinates replaced
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
    (
        (2000, 200, 2000),
        (3800, 1999, 1801),
        "572c7ecaafe72f4749c6315ba7ce306fc657a98b2070f76542fdd1b1d1b98a42",
    ),
    (
        (4001, 400, 4000),
        (7600, 3999, 3601),
        "08545a27a0471937abcf186a60bbcf819d43f8dfbf010c4a2b6bad1cc28b8cf5",
    ),
]


@pytest.mark.slow
@pytest.mark.parametrize(
    "shape,dims,digest",
    H1_FRONTIER,
    ids=["1500_edges", "4000_edges", "2000_dense_edges", "4000_dense_edges"],
)
def test_h1_frontier_frozen(shape, dims, digest):
    r = cohomology(build_complex(frontier_graph(*shape)), cross_check=True)
    assert (r.dims, bases_digest(r)) == (dims, digest)


DENSE_H1 = """
import json, sys
from coxloops.cohomology import build_complex, cohomology
from coxloops.graphs import Graph

edges = [tuple(e) for e in json.load(sys.stdin)]
print(json.dumps(cohomology(build_complex(Graph(range(1, 101), edges)), cross_check=True).dims))
"""


def _address_space_limit():
    # runs in the child before exec: 256 MB of address space, which the
    # sparse d1 fits in (about 100 MB) and dense d1 rows (about 540 MB) do not
    resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))


def test_dense_graph_cohomology_fits_in_256_mb():
    # average degree 20: 130,612 pointed triples over 19,857 pointed pairs
    edges = frontier_graph(100, 100, 1000).edges
    proc = subprocess.run(
        [sys.executable, "-c", DENSE_H1],
        input=json.dumps(edges),
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=_address_space_limit,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [1900, 999, 901]


DENSE_PEAK = """
import json, sys
from coxloops.cohomology import build_complex, cohomology
from coxloops.graphs import Graph

nverts, edges = json.load(sys.stdin)
r = cohomology(build_complex(Graph(range(1, nverts + 1), map(tuple, edges))), cross_check=True)
with open("/proc/self/status") as fh:
    peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps([r.dims, peak_kb]))
"""


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="peak memory is read from VmHWM")
def test_dense_4000_edges_certify_within_300_mb():
    # average degree 20: 530,537 pointed triples over 79,833 pointed pairs;
    # a fresh process, so the peak is this build and certificate alone
    edges = frontier_graph(4001, 400, 4000).edges
    proc = subprocess.run(
        [sys.executable, "-c", DENSE_PEAK],
        input=json.dumps([400, edges]),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    dims, peak_kb = json.loads(proc.stdout)
    assert dims == [7600, 3999, 3601] and peak_kb <= 300 << 10
