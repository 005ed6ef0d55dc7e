"""Diagram validation, spherical recognition, and coset enumeration."""

import math
import subprocess
import sys
import tracemalloc
from itertools import product as iproduct

import pytest

from coxloops.coxeter import (
    CoxeterDiagram,
    diagram_a,
    diagram_b,
    diagram_d,
    diagram_e,
    diagram_f4,
    diagram_h,
    diagram_i2,
    embed_parabolic,
    enumerate_group,
    enumerate_order,
    recognize_spherical,
    regular_action,
    subdiagram,
)
from coxloops.errors import DiagramError, ResourceLimitError
from coxloops.groups import dihedral, element_statistics
from coxloops.morphisms import is_homomorphism

FROZEN_ORDERS = [
    (diagram_a(1), 2),
    (diagram_a(2), 6),
    (diagram_b(2), 8),
    (diagram_i2(5), 10),
    (diagram_i2(6), 12),
    (diagram_i2(7), 14),
    (diagram_a(3), 24),
    (diagram_b(3), 48),
    (diagram_h(3), 120),
    (diagram_a(4), 120),
    (diagram_b(4), 384),
    (diagram_d(4), 192),
    (diagram_f4(), 1152),
    (diagram_a(5), 720),
    (diagram_d(5), 1920),
]


def test_diagram_validation():
    with pytest.raises(DiagramError):
        CoxeterDiagram([])  # rank 0
    with pytest.raises(DiagramError):
        CoxeterDiagram([[1, 3]])  # not square
    with pytest.raises(DiagramError):
        CoxeterDiagram([[2]])  # diagonal must be 1
    with pytest.raises(DiagramError):
        CoxeterDiagram([[1, 3], [4, 1]])  # asymmetric
    with pytest.raises(DiagramError):
        CoxeterDiagram([[1, 1], [1, 1]])  # off-diagonal label < 2


def test_from_edges_validation():
    with pytest.raises(DiagramError):
        CoxeterDiagram.from_edges(2, [(1, 1, 3)])  # loop
    with pytest.raises(DiagramError):
        CoxeterDiagram.from_edges(2, [(1, 3, 3)])  # out of range
    with pytest.raises(DiagramError):
        CoxeterDiagram.from_edges(2, [(1, 2, 3), (2, 1, 4)])  # duplicate
    d = CoxeterDiagram.from_edges(3, [(1, 2, 3)])
    assert d.m(1, 2) == 3 and d.m(2, 1) == 3 and d.m(1, 3) == 2 and d.m(1, 1) == 1


def test_recognition_frozen_orders():
    for d, expect in FROZEN_ORDERS:
        rec = recognize_spherical(d)
        assert rec.spherical and rec.order == expect, (d, rec)


def test_recognition_exceptional_orders_without_enumeration():
    assert recognize_spherical(diagram_e(6)).order == 51840
    assert recognize_spherical(diagram_e(7)).order == 2903040
    assert recognize_spherical(diagram_e(8)).order == 696729600
    assert recognize_spherical(diagram_h(4)).order == 14400


def test_recognition_disconnected_product():
    d = CoxeterDiagram.from_edges(5, [(1, 2, 3), (4, 5, 4)])
    rec = recognize_spherical(d)
    assert rec.spherical and rec.order == 96  # A2 x A1 x B2
    assert [(c.name, c.vertices, c.order) for c in rec.components] == [
        ("A2", (1, 2), 6),
        ("A1", (3,), 2),
        ("B2", (4, 5), 8),
    ]


NON_SPHERICAL = [
    (CoxeterDiagram.from_edges(3, [(1, 2, 3), (1, 3, 3), (2, 3, 3)]), "cycle"),
    (CoxeterDiagram([[1, math.inf], [math.inf, 1]]), "infinite"),
    (CoxeterDiagram.from_edges(5, [(1, 5, 3), (2, 5, 3), (3, 5, 3), (4, 5, 3)]), "degree >= 4"),
    (CoxeterDiagram.from_edges(3, [(1, 2, 4), (2, 3, 4)]), "two labels >= 4"),
    (CoxeterDiagram.from_edges(4, [(1, 2, 3), (2, 3, 5), (3, 4, 3)]), "label 5"),
    (
        CoxeterDiagram.from_edges(
            6, [(1, 3, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3), (4, 6, 3)]
        ),
        "two branch vertices",
    ),
    (
        CoxeterDiagram.from_edges(
            9,
            [(1, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3), (5, 6, 3), (6, 7, 3), (7, 8, 3), (6, 9, 3)],
        ),
        "branch arms",
    ),
]


def test_recognition_non_spherical_with_reasons():
    for d, fragment in NON_SPHERICAL:
        rec = recognize_spherical(d)
        assert not rec.spherical
        bad = [c for c in rec.components if c.reason]
        assert bad and any(fragment in c.reason for c in bad), (d, fragment)


def test_enumeration_matches_recognition():
    for d, expect in FROZEN_ORDERS:
        assert enumerate_order(d) == expect, d


def test_enumeration_h4_needs_higher_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_order(diagram_h(4))  # 14400 > default cap 10000
    assert enumerate_order(diagram_h(4), cap=20000) == 14400


def test_enumerated_table_is_a_group_with_coxeter_relations():
    for d in (diagram_a(3), diagram_b(3), diagram_i2(5)):
        g = enumerate_group(d)  # validates identity/Latin/assoc internally
        assert g.order == recognize_spherical(d).order
        gens = g.generators
        assert len(gens) == d.rank
        for k, s in enumerate(gens):
            assert g.product[s][s] == 0
            for l in range(k + 1, d.rank):
                m = d.m(k + 1, l + 1)
                x, c = g.product[s][gens[l]], 0
                y = 0
                while True:
                    y = g.product[y][x]
                    c += 1
                    if y == 0:
                        break
                assert c == m  # s_k s_l has order exactly m_kl


def test_enumeration_bfs_shortlex_words():
    g = enumerate_group(diagram_a(2))
    assert g.labels == ("e", "s1", "s2", "s1*s2", "s2*s1", "s1*s2*s1")
    assert g.words == ((), (0,), (1,), (0, 1), (1, 0), (0, 1, 0))
    assert g.generators == (1, 2)
    # words replay to their element through the table
    for x, w in enumerate(g.words):
        acc = 0
        for i in w:
            acc = g.product[acc][g.generators[i]]
        assert acc == x


def test_dihedral_cross_check():
    for m in (3, 4, 5, 6, 7):
        g = enumerate_group(diagram_i2(m))
        ref = dihedral(m)
        assert g.order == ref.order == 2 * m
        assert sorted(g.element_order(x) for x in range(g.order)) == sorted(
            ref.element_order(x) for x in range(ref.order)
        )
        assert g.is_abelian() == ref.is_abelian()


def test_subdiagram_and_parabolic_embedding():
    b3 = diagram_b(3)
    sub = subdiagram(b3, [1, 2])
    assert sub.m(1, 2) == b3.m(1, 2)
    w_sub = enumerate_group(sub)
    w = enumerate_group(b3)
    images = embed_parabolic(w_sub, [0, 1], w)
    assert len(set(images)) == w_sub.order
    assert is_homomorphism(images, w_sub, w)
    with pytest.raises(DiagramError):
        subdiagram(b3, [0])
    with pytest.raises(DiagramError):
        subdiagram(b3, [])


def _all_rank3_diagrams():
    labels = [2, 3, 4, 5, 6, math.inf]
    for m12, m13, m23 in iproduct(labels, repeat=3):
        yield CoxeterDiagram([[1, m12, m13], [m12, 1, m23], [m13, m23, 1]])


def test_rank3_sweep_recognition_vs_enumeration():
    """Every rank-3 diagram over labels {2..6, inf}: spherical recognition
    agrees with actual enumeration (order for finite, cap-bust for infinite
    is exercised in the slow sweep)."""
    finite = infinite = 0
    for d in _all_rank3_diagrams():
        rec = recognize_spherical(d)
        if rec.spherical:
            finite += 1
            assert enumerate_order(d, cap=2000) == rec.order, d
        else:
            infinite += 1
            assert any(c.reason for c in rec.components)
    assert finite + infinite == 216
    # frozen count: 1 (A1^3) + 3*4 (A1 x I2(m), m finite) + 3*5 (paths with
    # ordered labels from {3,3}, {3,4}, {3,5}) = 28
    assert finite == 28


@pytest.mark.slow
def test_rank3_sweep_infinite_groups_bust_the_cap():
    for d in _all_rank3_diagrams():
        rec = recognize_spherical(d)
        if not rec.spherical:
            with pytest.raises(ResourceLimitError):
                enumerate_order(d, cap=1500)


@pytest.mark.slow
def test_rank4_sweep_recognition_vs_enumeration():
    labels = [2, 3, 4, 5]
    pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    count = 0
    for ms in iproduct(labels, repeat=6):
        edges = [(i, j, m) for (i, j), m in zip(pairs, ms) if m != 2]
        d = CoxeterDiagram.from_edges(4, edges)
        rec = recognize_spherical(d)
        if rec.spherical:
            count += 1
            assert enumerate_order(d, cap=20000) == rec.order, d
    assert count > 0


def test_e6_enumeration_slowish_but_exact():
    assert enumerate_order(diagram_e(6), cap=60000) == 51840


def test_regular_action_and_statistics_stay_in_linear_memory():
    # the traced peak of D5's action (1920 elements, rank 5) and of the
    # statistics walk over it: the action and the BFS tree, no stored words
    # and no row list per coset (the row-major table with stored words
    # peaked at about 830 KB)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        w = regular_action(diagram_d(5))
        stats = element_statistics(w.act, w.tree)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert stats.order == 1920 and stats.element_orders[12] == 160
    assert peak < 600 * 1024, peak


FORGED_ACTIONS = """
from coxloops import coxeter
from coxloops.coxeter import diagram_a, regular_action
from coxloops.errors import CheckError
from coxloops.groups import element_statistics

A2 = regular_action(diagram_a(2))
compact, enumerate_cosets = coxeter._CosetTable.compact, coxeter._enumerate_cosets


def hole(ct):  # coset 1 loses its s_1 entry, coset 0 its s_2 entry
    ct.cols[0][1] = ct.cols[1][0] = -1
    return compact(ct)


cases = {
    "undefined_entry": lambda: setattr(coxeter._CosetTable, "compact", hole),
    # A1 twice over: s_1 swaps 0 with 1 and 2 with 3, nothing joins them
    "disconnected": lambda: setattr(coxeter, "_enumerate_cosets", lambda d, cap: [[1, 0, 3, 2]]),
    "equal_generators": lambda: setattr(coxeter, "_enumerate_cosets", lambda d, cap: [[1, 0]] * 2),
}
for kind, forge in cases.items():
    forge()
    try:
        regular_action(diagram_a(2))
    except CheckError as e:
        print(__debug__, kind, "CheckError", e)
    else:
        print(__debug__, kind, "accepted")
    coxeter._CosetTable.compact, coxeter._enumerate_cosets = compact, enumerate_cosets

trees = {
    # 4 and 5 are each other's parents: neither path reaches 0
    "tree_cycle": A2.tree[:4] + ((5, 0), (4, 1)),
    # element 5 read as s_2 s_1, the word of element 4
    "wrong_word": A2.tree[:5] + ((2, 0),),
}
for kind, tree in trees.items():
    try:
        element_statistics(A2.act, tree)
    except CheckError as e:
        print(__debug__, kind, "CheckError", e)
    else:
        print(__debug__, kind, "accepted")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_forged_enumerations_and_trees_are_refused(flags):
    proc = subprocess.run(
        [sys.executable, *flags, "-c", FORGED_ACTIONS], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    debug = str(not flags)
    assert proc.stdout.splitlines() == [
        f"{debug} undefined_entry CheckError coset 0 has an undefined entry after enumeration",
        f"{debug} disconnected CheckError coset graph must be connected",
        f"{debug} equal_generators CheckError simple reflections must be distinct nontrivial elements",
        f"{debug} tree_cycle CheckError the tree path of element 4 does not reach 0",
        f"{debug} wrong_word CheckError the word of element 5 reaches 4",
    ]
