"""Acceptance gate: the eight headline guarantees, one test each.

Every test prints a single ``[PASS]``/``[FAIL]`` line (run with ``-s`` or
``-rA`` to see them on success) and enforces its runtime budget.  All
expected values are frozen; nothing here is derived from the code under
test at run time.
"""

import json
import random
import subprocess
import sys
import time
from itertools import combinations

from coxloops import gf2
from coxloops.amalgams import (
    amalgams_isomorphic,
    classify_twisted_amalgams,
    cocycle_to_amalgam,
    delta_cocycle,
    standard_amalgam,
    twisted_amalgam,
)
from coxloops.cohomology import (
    build_complex,
    coefficient_group,
    cohomology,
)
from coxloops.coxeter import CoxeterDiagram, diagram_a, diagram_b, diagram_i2, enumerate_group
from coxloops.graphs import Graph
from coxloops.groups import alternating4, cyclic, dihedral, klein4, quaternion, symmetric3
from coxloops.loops import (
    chein_loop,
    is_associative,
    is_loop,
    is_moufang,
    verify_chein_identities,
    verify_doubling_identities,
)
from coxloops.morphisms import (
    automorphism_group,
    classify_trichotomy,
    verify_doubled_dihedral_automorphisms,
    verify_semidirect_automorphisms,
)
from test_amalgam_reference import face_maps, reference_amalgams_isomorphic
from test_complex_reference import apply_d1

TRIANGLE = CoxeterDiagram.from_edges(3, [(1, 2, 3), (1, 3, 3), (2, 3, 3)])
TWO_TRIANGLES = CoxeterDiagram.from_edges(
    4, [(1, 2, 3), (1, 3, 3), (2, 3, 3), (2, 4, 3), (3, 4, 3)]
)


def _gate(num, desc, limit_s, body):
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"[FAIL] criterion {num}/8: {desc}")
        raise
    dt = time.perf_counter() - t0
    if dt >= limit_s:
        print(f"[FAIL] criterion {num}/8: {desc} ({dt:.2f}s over the {limit_s}s budget)")
        raise AssertionError(f"criterion {num} took {dt:.2f}s, budget {limit_s}s")
    print(f"[PASS] criterion {num}/8: {desc} ({dt:.2f}s)")


def test_criterion_1_doubled_loop_construction():
    def body():
        w = enumerate_group(diagram_a(2))
        t = chein_loop(w)
        assert t.order == 12
        assert is_loop(t.product)
        for name, rep in is_moufang(t).items():
            assert rep.holds, name
            assert rep.checked == 12**3
        for name, rep in verify_chein_identities(t).items():
            assert rep.holds, name
            assert rep.checked == 6**2
        assoc = is_associative(t)
        assert not assoc.holds and assoc.counterexample is not None

    _gate(1, "doubled loop of the order-6 dihedral group", 1.0, body)


def test_criterion_2_identity_suite_on_rank_2_and_3_groups():
    def body():
        for d in (diagram_a(2), diagram_b(2), diagram_i2(5), diagram_a(3)):
            w = enumerate_group(d)
            k = len(w.generators)
            reports = verify_doubling_identities(w)
            for name, rep in reports.items():
                assert rep.holds, (d.rank, name)
            # uwu = w^-1 for every group element, both ways round
            assert reports["u_conjugation_right"].checked == w.order
            assert reports["u_conjugation_left"].checked == w.order
            # ((g1 g2) u)^2 = e over all generator pairs (with identity)
            assert reports["involution_squares"].checked == (k + 1) ** 2

    _gate(2, "full identity suite on four small reflection groups", 5.0, body)


def test_criterion_3_automorphism_orders_and_sets():
    def body():
        gl3_2 = (8 - 1) * (8 - 2) * (8 - 4)
        assert gl3_2 == 168
        assert automorphism_group(chein_loop(klein4())).order == gl3_2
        assert automorphism_group(chein_loop(quaternion())).order == 192 == 8 * 24
        assert automorphism_group(chein_loop(symmetric3())).order == 108 == 3**2 * 6 * 2
        assert automorphism_group(chein_loop(dihedral(4))).order == 192 == 4**2 * 6 * 2
        # set equality, not just order: the constructed families are the
        # whole automorphism group
        q8 = verify_semidirect_automorphisms(quaternion())
        assert q8.ok and q8.set_matches and q8.aut_order == 192
        s3 = verify_doubled_dihedral_automorphisms(cyclic(3))
        assert s3.ok and s3.set_matches and s3.aut_order == 108

    _gate(3, "automorphism group orders 168/192/108/192 with set equality", 60.0, body)


def test_criterion_4_trichotomy_is_total_on_the_small_group_corpus():
    def body():
        assert classify_trichotomy(klein4()).case == 1
        assert classify_trichotomy(quaternion()).case == 2
        assert classify_trichotomy(symmetric3()).case == 3
        corpus = (
            [(cyclic(n), 1 if n <= 2 else 2) for n in range(1, 13)]
            + [(dihedral(2), 1)]  # the Klein group again, by another route
            + [(dihedral(m), 3) for m in range(3, 7)]
            + [(quaternion(), 2), (alternating4(), 2)]
        )
        for g, expected in corpus:
            rep = classify_trichotomy(g)
            assert rep.case == expected, (g.order, rep.case, expected)
            assert rep.case in (1, 2, 3)

    _gate(4, "trichotomy classifies every corpus group of order <= 12", 30.0, body)


def test_criterion_5_cohomology_on_100_random_graphs():
    def body():
        rng = random.Random(7)
        done = 0
        while done < 100:
            n = rng.randint(2, 8)
            vertices = list(range(1, n + 1))
            edges = [e for e in combinations(vertices, 2) if rng.random() < 0.5]
            g = Graph(vertices, edges)
            if not (g.edges and g.is_connected()):
                continue
            done += 1
            # cross_check re-derives dims by elimination, matches the
            # closed-form spans, and rejects dependent H^1 representatives
            r = cohomology(build_complex(g), cross_check=True)
            ne, nv = len(g.edges), len(g.vertices)
            assert r.z1 == 2 * ne - nv
            assert r.b1 == ne - 1
            assert r.h1 == ne - nv + 1
            assert (len(r.z_basis), len(r.b_basis), len(r.h_basis)) == r.dims
            cx = build_complex(g)  # the constructor verifies d1 o d0 = 0
            npairs = len(cx.pointed_pairs)
            for v in r.z_basis + r.h_basis:
                assert apply_d1(cx, v) == 0
            assert gf2.gf2_rank(list(r.z_basis), npairs) == r.z1
            assert gf2.gf2_rank(list(r.b_basis), npairs) == r.b1
            assert gf2.gf2_rank(list(r.b_basis + r.h_basis), npairs) == r.b1 + r.h1

    _gate(5, "cohomology dimensions and bases on 100 random graphs", 5.0, body)


def test_criterion_6_coefficient_groups_match_stabilizers():
    def body():
        for d in (diagram_a(3), TRIANGLE):
            a = standard_amalgam(d)
            for sigma in a.complex.simplices():
                # structural mode raises CheckError on any closed-form /
                # brute-force disagreement and asserts the generator is an
                # automorphism of the simplex loop
                cg = coefficient_group(sigma, a, mode="structural")
                assert cg.agrees
                assert cg.order == (2 if cg.core else 1)
                assert (cg.generator is None) == (cg.order == 1)

    _gate(6, "coefficient groups equal brute-force stabilizers", 30.0, body)


def test_criterion_7_twisted_amalgam_classification():
    def body():
        tri = classify_twisted_amalgams(standard_amalgam(TRIANGLE))
        assert tri.cycle_rank == 1
        assert tri.class_count == 2 == 2**tri.cycle_rank
        two = classify_twisted_amalgams(standard_amalgam(TWO_TRIANGLES))
        assert two.cycle_rank == 2
        assert two.class_count == 4 == 2**two.cycle_rank
        # negatives are certified by the elimination, over the whole
        # assignment space that the product search exhausts
        pair = (twisted_amalgam(TRIANGLE, []), twisted_amalgam(TRIANGLE, [1]))
        rep = amalgams_isomorphic(*pair)
        assert not rep.isomorphic and rep.exhausted
        assert reference_amalgams_isomorphic(*pair).assignments == rep.space
        assert rep.assignments == 0
        # the empty twist set is the standard amalgam, map for map
        std = standard_amalgam(TRIANGLE)
        assert face_maps(twisted_amalgam(TRIANGLE, [])) == face_maps(std)
        # cocycles: cohomologous inputs land in one class, coboundaries in
        # the standard class
        res = cohomology(build_complex(TRIANGLE.underlying_graph()))
        z = res.h_basis[0]
        assert delta_cocycle(TRIANGLE, [1]) == z
        b = res.b_basis[0]
        shifted = amalgams_isomorphic(
            cocycle_to_amalgam(TRIANGLE, z), cocycle_to_amalgam(TRIANGLE, z ^ b)
        )
        assert shifted.isomorphic and shifted.witness is not None
        back_to_std = amalgams_isomorphic(cocycle_to_amalgam(TRIANGLE, b), std)
        assert back_to_std.isomorphic

    _gate(7, "2^n amalgam classes on the triangle and two-triangle graphs", 120.0, body)


def test_criterion_8_verify_reports_are_deterministic():
    corpus = [
        "coxeter v1\nrank 2\nedge 1 2 3\n",
        "coxeter v1\nrank 2\nedge 1 2 4\n",
        "coxeter v1\nrank 3\nedge 1 2 3\nedge 2 3 3\n",
        "coxeter v1\nrank 3\nedge 1 2 3\nedge 1 3 3\nedge 2 3 3\n",
        "graph v1\nvertices 3\nedge 1 2\nedge 1 3\nedge 2 3\n",
        "graph v1\nvertices 6\nedge 1 2\nedge 1 3\nedge 2 3\nedge 4 5\n",
        "table v1 4\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\n",
        "table v1 5\n0 1 2 3 4\n1 0 3 4 2\n2 3 4 0 1\n3 4 1 2 0\n4 2 0 1 3\n",
    ]

    def one(text):
        return subprocess.run(
            [sys.executable, "-m", "coxloops.cli", "verify", "-", "--json"],
            input=text,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def body():
        for text in corpus:
            first, second = one(text), one(text)
            assert first.returncode == second.returncode
            assert first.stdout and first.stdout == second.stdout
            json.loads(first.stdout)  # well-formed JSON

    _gate(8, "verify produces byte-identical JSON on the whole corpus", 120.0, body)
