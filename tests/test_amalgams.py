"""Amalgams over a diagram: construction, verification, completion,
isomorphism testing, and the classification by twist subsets.

Frozen values: completion orders 48/96/240 for the three spherical rank-3
diagrams, 2 classes on one triangle (certified by exhausting all 8 edge
assignments), 4 classes on the two-triangle graph, and the cocycle/twist
correspondence delta <-> z_delta; and, under `-m slow`, the digest and the
peak memory of `verify` on seeded diagrams of 106 and 200 edges.
"""

import os
import subprocess
import sys

import pytest

from coxloops.amalgams import (
    amalgams_isomorphic,
    classify_twisted_amalgams,
    cocycle_to_amalgam,
    delta_cocycle,
    loop_completion,
    standard_amalgam,
    twisted_amalgam,
    verify_amalgam,
    verify_completion,
)
from coxloops.cohomology import build_complex, cohomology
from coxloops.coxeter import CoxeterDiagram, diagram_a, diagram_b, diagram_h, enumerate_group
from coxloops.errors import ResourceLimitError
from test_amalgam_reference import reference_amalgams_isomorphic

TRIANGLE = CoxeterDiagram.from_edges(3, [(1, 2, 3), (1, 3, 3), (2, 3, 3)])
TWO_TRIANGLES = CoxeterDiagram.from_edges(
    4, [(1, 2, 3), (1, 3, 3), (2, 3, 3), (2, 4, 3), (3, 4, 3)]
)
MIXED_TRIANGLE = CoxeterDiagram.from_edges(3, [(1, 2, 3), (1, 3, 4), (2, 3, 5)])


@pytest.mark.parametrize(
    "diagram,loop_order",
    [(diagram_a(3), 48), (diagram_b(3), 96), (diagram_h(3), 240)],
    ids=["a3", "b3", "h3"],
)
def test_standard_amalgam_and_completion(diagram, loop_order):
    a = standard_amalgam(diagram)
    rep = verify_amalgam(a)
    assert rep.ok
    assert rep.injective_ok and rep.homomorphism_ok and rep.composition_ok
    # the doubled loop of the whole group completes the amalgam
    loop, maps = loop_completion(a, enumerate_group(diagram))
    assert loop.order == loop_order
    comp = verify_completion(a, loop, maps)
    assert comp.ok
    assert comp.loop_order == loop_order
    assert comp.injective_ok and comp.homomorphism_ok and comp.commuting_ok


def test_standard_amalgam_structure_on_path():
    a = standard_amalgam(diagram_a(3))
    # two edges and one pointed pair; two face maps; no triple chains
    rep = verify_amalgam(a)
    assert rep.simplices == 3
    assert rep.maps_checked == 2
    assert rep.chains_checked == 0
    assert a.kind == "standard"
    # loops: edges carry M(W_edge, 2) of order 12, the pair M(Z2, 2)
    e1 = (tuple(sorted((1, 2))),)
    assert a.loop_of(e1).order == 12
    pair = tuple(sorted([tuple(sorted((1, 2))), tuple(sorted((2, 3)))]))
    assert a.core_of(pair) == (2,)
    assert a.loop_of(pair).order == 4


def test_triangle_amalgam_has_triple_chains():
    a = standard_amalgam(TRIANGLE)
    rep = verify_amalgam(a)
    assert rep.ok
    # 3 edges + 3 pairs + 1 triple; pairs contribute 2 maps each, the
    # triple 6; chains are the 6 factorizations triple -> pair -> edge
    assert rep.simplices == 7
    assert rep.maps_checked == 12
    assert rep.chains_checked == 6


def test_twisted_amalgams_verify():
    for delta in ([], [1]):
        a = twisted_amalgam(TRIANGLE, delta)
        assert verify_amalgam(a).ok
    assert twisted_amalgam(TRIANGLE, []).kind == "twisted[]"
    assert twisted_amalgam(TRIANGLE, [1]).kind == "twisted[1]"


def test_twisted_amalgam_rejects_bad_delta():
    with pytest.raises(ValueError):
        twisted_amalgam(TRIANGLE, [2])  # only one non-tree edge
    with pytest.raises(ValueError):
        twisted_amalgam(TRIANGLE, [0])
    with pytest.raises(ValueError):
        twisted_amalgam(TWO_TRIANGLES, [3])


def test_infinite_labels_are_rejected():
    d = CoxeterDiagram.from_edges(2, [(1, 2, float("inf"))])
    with pytest.raises(ValueError):
        standard_amalgam(d)


def test_classification_triangle_frozen():
    rep = classify_twisted_amalgams(standard_amalgam(TRIANGLE))
    assert rep.ok
    assert rep.cycle_rank == 1
    assert rep.class_count == 2
    assert rep.classes == ((frozenset(),), (frozenset({1}),))
    assert rep.nontree_edges == ((2, 3),)
    assert rep.chosen_vertices == (2,)
    assert rep.pairs_checked == 1


def test_classification_two_triangles_frozen():
    rep = classify_twisted_amalgams(standard_amalgam(TWO_TRIANGLES))
    assert rep.ok
    assert rep.cycle_rank == 2
    assert rep.class_count == 4
    assert rep.classes == (
        (frozenset(),),
        (frozenset({1}),),
        (frozenset({2}),),
        (frozenset({1, 2}),),
    )
    assert rep.nontree_edges == ((2, 3), (3, 4))
    assert rep.chosen_vertices == (2, 3)
    assert rep.pairs_checked == 6


def test_classification_mixed_labels():
    rep = classify_twisted_amalgams(standard_amalgam(MIXED_TRIANGLE))
    assert rep.ok
    assert rep.class_count == 2


def test_classification_count_matches_h1():
    for d in (TRIANGLE, TWO_TRIANGLES):
        rep = classify_twisted_amalgams(standard_amalgam(d))
        h1 = cohomology(build_complex(d.underlying_graph())).h1
        assert rep.cycle_rank == h1
        assert rep.class_count == 2**h1


def test_negative_iso_is_certified_by_exhaustion():
    a = standard_amalgam(TRIANGLE)
    b = twisted_amalgam(TRIANGLE, [1])
    rep = amalgams_isomorphic(a, b)
    assert not rep.isomorphic
    assert rep.witness is None
    assert rep.exhausted
    # the product search walks the whole space; the elimination checks no
    # assignment against the maps
    assert reference_amalgams_isomorphic(a, b).assignments == rep.space == 8
    assert rep.assignments == 0


def test_positive_iso_carries_verified_witness():
    a = twisted_amalgam(TRIANGLE, [1])
    z = delta_cocycle(TRIANGLE, [1])
    b = cocycle_to_amalgam(TRIANGLE, z)
    rep = amalgams_isomorphic(a, b)
    assert rep.isomorphic
    assert rep.witness is not None
    # self-isomorphism via the identity family
    rep_self = amalgams_isomorphic(a, a)
    assert rep_self.isomorphic


def test_delta_cocycle_correspondence():
    # z_delta is the sum of the non-tree local coboundaries picked by delta,
    # and its amalgam is isomorphic to the normalized twisted amalgam
    assert delta_cocycle(TRIANGLE, []) == 0
    assert delta_cocycle(TRIANGLE, [1]) == cohomology(build_complex(TRIANGLE.underlying_graph())).h_basis[0]
    for d, deltas in ((TRIANGLE, ([], [1])), (TWO_TRIANGLES, ([], [1], [2], [1, 2]))):
        for delta in deltas:
            z = delta_cocycle(d, delta)
            rep = amalgams_isomorphic(cocycle_to_amalgam(d, z), twisted_amalgam(d, delta))
            assert rep.isomorphic


@pytest.mark.parametrize("delta", [[0], [2], [-1], ["1"]])
def test_delta_outside_1_to_n_is_refused(delta):
    for build in (delta_cocycle, twisted_amalgam):
        with pytest.raises(ValueError, match=r"delta must be a subset of 1\.\.1"):
            build(TRIANGLE, delta)


def test_delta_is_a_set():
    # a repeated index twists e_1 once, in the cocycle as in the amalgam
    z = delta_cocycle(TRIANGLE, [1, 1])
    assert z == delta_cocycle(TRIANGLE, [1]) != 0
    assert twisted_amalgam(TRIANGLE, [1, 1]).twists == twisted_amalgam(TRIANGLE, [1]).twists
    rep = amalgams_isomorphic(cocycle_to_amalgam(TRIANGLE, z), twisted_amalgam(TRIANGLE, [1, 1]))
    assert rep.isomorphic


def test_coboundaries_give_the_standard_class():
    r = cohomology(build_complex(TRIANGLE.underlying_graph()))
    std = standard_amalgam(TRIANGLE)
    for b in r.b_basis:
        a = cocycle_to_amalgam(TRIANGLE, b)
        assert amalgams_isomorphic(a, std).isomorphic


def test_cohomologous_cocycles_give_isomorphic_amalgams():
    r = cohomology(build_complex(TRIANGLE.underlying_graph()))
    z = r.h_basis[0]
    b = r.b_basis[0]
    shifted = cocycle_to_amalgam(TRIANGLE, z ^ b)
    assert amalgams_isomorphic(shifted, twisted_amalgam(TRIANGLE, [1])).isomorphic
    neg = amalgams_isomorphic(shifted, standard_amalgam(TRIANGLE))
    assert not neg.isomorphic and neg.exhausted


def test_cocycle_validation():
    with pytest.raises(ValueError):
        cocycle_to_amalgam(TRIANGLE, 1 << 3)  # only 3 pointed pairs
    with pytest.raises(ValueError):
        cocycle_to_amalgam(TRIANGLE, -1)
    # on the two-triangle graph the pointed triples impose real cocycle
    # conditions; a single pair inside a vertex star violates them
    g = TWO_TRIANGLES.underlying_graph()
    from coxloops.cohomology import build_complex

    cx = build_complex(g)
    bad_pair = tuple(sorted([tuple(sorted((1, 2))), tuple(sorted((2, 3)))]))
    bad = 1 << cx.pair_pos[bad_pair]
    with pytest.raises(ValueError):
        cocycle_to_amalgam(TWO_TRIANGLES, bad)
    # disconnected graphs are rejected
    dd = CoxeterDiagram.from_edges(4, [(1, 2, 3), (3, 4, 3)])
    with pytest.raises(ValueError):
        cocycle_to_amalgam(dd, 0)


def test_iso_rejects_incomparable_amalgams():
    with pytest.raises(ValueError):
        amalgams_isomorphic(standard_amalgam(TRIANGLE), standard_amalgam(diagram_a(3)))
    with pytest.raises(ValueError):
        amalgams_isomorphic(standard_amalgam(TRIANGLE), standard_amalgam(MIXED_TRIANGLE))


def test_iso_budget_is_hard():
    a = standard_amalgam(TRIANGLE)
    b = twisted_amalgam(TRIANGLE, [1])
    with pytest.raises(ResourceLimitError):
        amalgams_isomorphic(a, b, budget=3)
    with pytest.raises(ResourceLimitError):
        classify_twisted_amalgams(standard_amalgam(TRIANGLE), budget=3)


# `random_connected_graph(Random(1), 100, 106)` of benchmarks/corpus.py, all
# labels 3: cycle rank 7, 198,591 simplices and 1,168,650 face pairs
SEEDED_106 = [
    (29, 61), (17, 40), (48, 92), (33, 66), (8, 43), (1, 97), (26, 57), (27, 74), (26, 46), (17, 53),
    (64, 76), (26, 41), (20, 26), (67, 81), (25, 67), (54, 66), (77, 81), (74, 92), (12, 23), (6, 91),
    (53, 88), (66, 89), (11, 39), (39, 92), (91, 94), (29, 70), (22, 97), (99, 100), (5, 21), (31, 84),
    (21, 79), (3, 55), (40, 44), (8, 55), (38, 54), (20, 69), (12, 15), (21, 45), (67, 87), (37, 59),
    (10, 38), (7, 50), (46, 83), (44, 76), (5, 39), (21, 58), (81, 89), (38, 65), (5, 97), (65, 91),
    (31, 95), (39, 80), (72, 79), (66, 98), (49, 51), (37, 68), (51, 100), (10, 51), (37, 82), (24, 67),
    (35, 94), (56, 88), (17, 85), (12, 37), (31, 75), (14, 46), (7, 21), (25, 70), (13, 65), (26, 59),
    (47, 48), (38, 60), (11, 90), (32, 54), (52, 54), (58, 59), (45, 91), (5, 19), (42, 48), (2, 53),
    (58, 67), (18, 81), (42, 73), (29, 97), (11, 82), (63, 71), (55, 87), (54, 67), (5, 93), (22, 71),
    (5, 34), (16, 79), (9, 40), (21, 85), (5, 38), (30, 69), (51, 95), (53, 86), (23, 93), (43, 80),
    (54, 62), (28, 46), (4, 22), (52, 78), (38, 96), (17, 36),
]

VERIFY_PEAK = """
import hashlib, io, sys
from coxloops.cli import main
out = io.BytesIO()
sys.stdout = io.TextIOWrapper(out, encoding="utf-8", newline="")
code = main(["verify", "-", "--json"])
sys.stdout.flush()
with open("/proc/self/status") as fh:
    peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(code, hashlib.sha256(out.getvalue()).hexdigest(), peak_kb, file=sys.__stdout__)
"""


def verify_peak(nverts, edges):
    """(exit code, report digest, VmHWM in kB) of `verify --json` on the
    diagram of `edges`, all labels 3, in a fresh process, so the peak is
    this run alone."""
    text = "\n".join(["coxeter v1", f"rank {nverts}"] + [f"edge {a} {b} 3" for a, b in edges]) + "\n"
    proc = subprocess.run(
        [sys.executable, "-c", VERIFY_PEAK], input=text, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    code, digest, peak_kb = proc.stdout.split()
    return code, digest, int(peak_kb)


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="peak memory is read from VmHWM")
def test_verify_on_106_edges_within_100_mb():
    # the digest was taken while the amalgam held one image tuple per face
    # pair (318 MB VmHWM)
    code, digest, peak_kb = verify_peak(100, SEEDED_106)
    assert (code, digest) == ("0", "8a9749c0a9fac4e8d858ae2dd0610b95199f7202775db9bc265bb95feeb7f690")
    assert peak_kb <= 100 << 10


# `random_connected_graph(Random(1), 194, 200)` of benchmarks/corpus.py, all
# labels 3: cycle rank 7, 1,333,500 simplices
SEEDED_200 = [
    (45, 63), (81, 186), (154, 188), (46, 102), (120, 180), (28, 122), (74, 127), (27, 150), (22, 161),
    (68, 162), (33, 168), (145, 169), (33, 131), (175, 193), (64, 175), (17, 82), (20, 118), (90, 91),
    (43, 176), (142, 164), (69, 129), (9, 94), (106, 131), (10, 182), (51, 56), (88, 141), (19, 157),
    (51, 187), (99, 117), (68, 171), (160, 175), (44, 144), (6, 119), (39, 55), (16, 33), (29, 151),
    (44, 163), (121, 167), (78, 143), (132, 150), (46, 156), (130, 152), (68, 168), (84, 102), (86, 147),
    (10, 80), (42, 68), (139, 173), (116, 155), (60, 106), (56, 159), (26, 48), (5, 11), (65, 158),
    (10, 126), (61, 146), (64, 170), (22, 76), (30, 172), (179, 183), (51, 144), (89, 106), (68, 119),
    (148, 172), (84, 178), (57, 160), (31, 173), (161, 190), (45, 179), (19, 24), (18, 73), (53, 62),
    (32, 153), (21, 92), (35, 183), (80, 147), (1, 158), (49, 141), (18, 103), (8, 186), (121, 170),
    (149, 179), (28, 34), (37, 92), (50, 167), (19, 161), (50, 59), (44, 58), (11, 33), (77, 171),
    (11, 165), (94, 161), (71, 191), (43, 174), (5, 145), (95, 132), (37, 104), (168, 183), (40, 160),
    (4, 80), (106, 138), (19, 135), (14, 18), (23, 179), (163, 176), (2, 122), (141, 147), (117, 154),
    (52, 133), (109, 118), (36, 183), (67, 92), (37, 43), (28, 137), (50, 155), (29, 65), (43, 111),
    (74, 125), (140, 161), (77, 129), (19, 29), (123, 160), (70, 105), (92, 115), (5, 128), (160, 168),
    (102, 160), (53, 110), (38, 85), (82, 187), (75, 172), (39, 188), (5, 172), (101, 176), (28, 98),
    (19, 132), (38, 42), (74, 110), (18, 68), (139, 177), (131, 184), (20, 112), (20, 134), (24, 54),
    (24, 53), (72, 92), (96, 160), (134, 189), (70, 124), (122, 136), (20, 160), (67, 177), (70, 78),
    (44, 117), (37, 181), (3, 141), (144, 166), (13, 44), (102, 185), (81, 108), (36, 65), (12, 163),
    (50, 93), (147, 183), (5, 39), (28, 192), (130, 150), (147, 194), (91, 184), (131, 153), (96, 100),
    (80, 97), (17, 46), (42, 93), (32, 47), (38, 114), (88, 133), (40, 66), (25, 160), (41, 131),
    (7, 64), (164, 175), (48, 50), (29, 124), (42, 177), (107, 141), (87, 187), (113, 141), (15, 191),
    (61, 80), (15, 138), (37, 81), (13, 159), (44, 131), (32, 83), (28, 33), (38, 173), (28, 120),
    (79, 105), (24, 106),
]


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="peak memory is read from VmHWM")
def test_verify_on_200_edges_within_100_mb():
    # the digest was taken while the complex held a core entry for each of
    # the C(200, 3) triples (193 MB VmHWM)
    code, digest, peak_kb = verify_peak(194, SEEDED_200)
    assert (code, digest) == ("0", "b326876171d6907a443f788ce3bd2c2850835b7e83ba3117659dac326c053766")
    assert peak_kb <= 100 << 10
