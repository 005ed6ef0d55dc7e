"""Automorphism groups of doubled loops and the two structure theorems.

Frozen values: |Aut| for the corpus loops (168 for the elementary abelian
order-8 loop, 108 for M(S3,2), 192 for M(D4,2) and M(Q8,2)), canonical
dihedral decompositions, and the full trichotomy over sixteen small groups.
At the `Aut` frontier (`-m slow`), |Aut| and the search's node count for
W and M(W, 2) with W = A5 and F4 (loop orders 1440 and 2304).
"""

import gc
import subprocess
import sys

import pytest

from coxloops.coxeter import diagram_a, diagram_f4, diagram_i2, enumerate_group
from coxloops.errors import ResourceLimitError
from coxloops.groups import (
    alternating4,
    compose,
    cyclic,
    dihedral,
    direct_product,
    klein4,
    quaternion,
    subgroup_table,
    symmetric3,
)
from coxloops.loops import chein_loop
from coxloops.morphisms import (
    AutGroup,
    automorphism_group,
    classify_trichotomy,
    dihedral_decomposition,
    generating_set,
    invert_images,
    is_automorphism,
    is_homomorphism,
    lifted_automorphism,
    translation_automorphism,
    verify_dihedral_decomposition_automorphisms,
    verify_doubled_dihedral_automorphisms,
    verify_semidirect_automorphisms,
)


def test_compose_and_invert_images():
    f = (1, 2, 0)
    g = (2, 0, 1)
    assert compose(f, g) == (0, 1, 2)
    assert invert_images(f) == g
    assert compose(f, invert_images(f)) == (0, 1, 2)


def test_is_homomorphism():
    v = klein4()
    # swapping the two factors is an automorphism
    assert is_homomorphism((0, 2, 1, 3), v, v)
    assert is_automorphism(v, (0, 2, 1, 3))
    # projection onto the second coordinate is a hom onto cyclic(2)
    assert is_homomorphism((0, 1, 0, 1), v, cyclic(2))
    # not a homomorphism
    assert not is_homomorphism((0, 1, 2, 2), v, v)
    # wrong length is never an automorphism
    assert not is_automorphism(v, (0, 1, 2))


def test_generating_set_deterministic():
    assert generating_set(cyclic(6)) == (1,)
    assert generating_set(klein4()) == (1, 2)
    assert generating_set(chein_loop(symmetric3())) == (1, 3, 6)


AUT_ORDERS = [
    ("klein4_group", klein4(), 6),  # GL(2,2)
    ("s3", symmetric3(), 6),
    ("d4", dihedral(4), 8),
    ("q8", quaternion(), 24),
    ("cyclic6", cyclic(6), 2),
]


@pytest.mark.parametrize("name,table,expected", AUT_ORDERS, ids=[r[0] for r in AUT_ORDERS])
def test_group_aut_orders_frozen(name, table, expected):
    aut = automorphism_group(table)
    assert aut.order == expected
    # sanity: all elements really are automorphisms, identity included
    assert tuple(range(table.order)) in aut
    for f in aut.elements[:10]:
        assert is_automorphism(table, f)


LOOP_AUT_ORDERS = [
    ("elementary_abelian_8", chein_loop(klein4()), 168),  # GL(3,2)
    ("m_s3_2", chein_loop(symmetric3()), 108),
    ("m_d4_2", chein_loop(dihedral(4)), 192),
    ("m_q8_2", chein_loop(quaternion()), 192),
]


@pytest.mark.parametrize(
    "name,loop,expected", LOOP_AUT_ORDERS, ids=[r[0] for r in LOOP_AUT_ORDERS]
)
def test_loop_aut_orders_frozen(name, loop, expected):
    aut = automorphism_group(loop)
    assert aut.order == expected


# name, diagram, (|Aut W|, nodes), (|Aut M(W, 2)|, nodes)
AUT_FRONTIER = [
    ("A5", diagram_a(5), (1440, 204), (1036800, 216)),
    ("F4", diagram_f4(), (4608, 143), (5308416, 155)),
]


@pytest.mark.slow
@pytest.mark.parametrize(
    "name,diagram,group_aut,loop_aut", AUT_FRONTIER, ids=[r[0] for r in AUT_FRONTIER]
)
def test_aut_frontier_frozen(name, diagram, group_aut, loop_aut):
    g = enumerate_group(diagram)
    aut = automorphism_group(g)
    assert (aut.order, aut.nodes) == group_aut
    aut = automorphism_group(chein_loop(g))
    assert (aut.order, aut.nodes) == loop_aut


def test_aut_group_closed_under_composition_and_inverse():
    aut = automorphism_group(chein_loop(symmetric3()))
    elems = frozenset(aut.elements)
    sample = aut.elements[:: max(1, aut.order // 8)]
    for f in sample:
        assert invert_images(f) in elems
        for g in sample:
            assert compose(f, g) in elems


def test_automorphism_budget_is_hard():
    # a loop not used by any other test, so the memo cache cannot mask this
    t = chein_loop(dihedral(5))
    with pytest.raises(ResourceLimitError):
        automorphism_group(t, budget=3)


def test_translation_and_lift_are_automorphisms():
    t = chein_loop(symmetric3())
    n = t.group_order
    for g in range(n):
        tr = translation_automorphism(t, g)
        assert is_automorphism(t, tr)
        # fixes the group half pointwise
        assert tr[:n] == tuple(range(n))
    # translations compose like the group: tr_g o tr_h = tr_{g*h}
    g, h = 1, 3
    gh = t.product[g][h]
    assert compose(translation_automorphism(t, g), translation_automorphism(t, h)) == translation_automorphism(
        t, gh
    )
    # lift of a group automorphism
    aut_g = automorphism_group(symmetric3())
    for psi in aut_g.elements:
        assert is_automorphism(t, lifted_automorphism(t, psi))


def test_dihedral_decomposition_frozen():
    assert dihedral_decomposition(symmetric3()) == ((0, 1, 2), 3)
    assert dihedral_decomposition(dihedral(4)) == ((0, 1, 2, 3), 4)
    assert dihedral_decomposition(dihedral(6)) == ((0, 1, 2, 3, 4, 5), 6)
    assert dihedral_decomposition(quaternion()) is None
    assert dihedral_decomposition(alternating4()) is None
    assert dihedral_decomposition(cyclic(6)) is None
    assert dihedral_decomposition(cyclic(5)) is None  # odd order
    # the Klein four-group decomposes, but trichotomy case 1 wins (below)
    assert dihedral_decomposition(klein4()) == ((0, 1), 2)


TRICHOTOMY = [
    ("z1", cyclic(1), 1),
    ("z2", cyclic(2), 1),
    ("klein4", klein4(), 1),
    ("z2_cubed", direct_product(klein4(), cyclic(2)), 1),
    ("z3", cyclic(3), 2),
    ("z4", cyclic(4), 2),
    ("z5", cyclic(5), 2),
    ("z6", cyclic(6), 2),
    ("z9", cyclic(9), 2),
    ("z12", cyclic(12), 2),
    ("z2_x_z4", direct_product(cyclic(2), cyclic(4)), 2),
    ("q8", quaternion(), 2),
    ("a4", alternating4(), 2),
    ("d3", dihedral(3), 3),
    ("d4", dihedral(4), 3),
    ("d6", dihedral(6), 3),
]


@pytest.mark.parametrize("name,group,case", TRICHOTOMY, ids=[r[0] for r in TRICHOTOMY])
def test_trichotomy_corpus(name, group, case):
    rep = classify_trichotomy(group)
    assert rep.case == case
    assert rep.loop_order == 2 * group.order
    assert rep.label == {1: "elementary_abelian", 2: "indecomposable", 3: "dihedral"}[case]
    if case == 3:
        assert rep.decomposition is not None
        sub, u = rep.decomposition
        assert len(sub) * 2 == group.order and u not in sub
    else:
        assert rep.decomposition is None


def test_semidirect_theorem_case2():
    # Q8: Aut(M(Q8,2)) = Q8 x| Aut(Q8), order 8 * 24 = 192
    rep = verify_semidirect_automorphisms(quaternion())
    assert rep.ok
    assert rep.aut_order == 192
    assert rep.group_aut_order == 24
    assert rep.expected_order == 192
    # cyclic(5): order 10 loop, Aut = Z5 x| Z4 of order 20
    rep5 = verify_semidirect_automorphisms(cyclic(5))
    assert rep5.ok and rep5.aut_order == 20


def test_semidirect_theorem_fails_on_case3_input():
    # S3 is dihedral over Z3, so Aut(M(S3,2)) is strictly larger than
    # the semidirect construction: 108 vs 6 * 6 = 36
    rep = verify_semidirect_automorphisms(symmetric3())
    assert not rep.ok
    assert rep.aut_order == 108
    assert rep.expected_order == 36
    assert rep.translations_ok and rep.lifts_ok  # the subgroup still embeds
    assert not rep.set_matches


def test_doubled_dihedral_theorem_case3():
    # H = Z3: L = M(S3, 2), Aut = (3*3) * 6 * 2 = 108
    rep = verify_doubled_dihedral_automorphisms(cyclic(3))
    assert rep.ok
    assert rep.h_order == 3 and rep.loop_order == 12
    assert rep.aut_order == 108 and rep.expected_order == 108
    assert rep.centralizer_witness == 1
    # H = Z4: L = M(D4, 2), Aut = (4*4) * 6 * 2 = 192
    rep4 = verify_doubled_dihedral_automorphisms(cyclic(4))
    assert rep4.ok
    assert rep4.aut_order == 192 and rep4.loop_order == 16


DECOMPOSED = [
    ("d6", dihedral(6)),
    ("i2_8", enumerate_group(diagram_i2(8))),
    ("d4_x_z2", direct_product(dihedral(4), cyclic(2))),
]


@pytest.mark.parametrize("name,group", DECOMPOSED, ids=[r[0] for r in DECOMPOSED])
def test_doubled_dihedral_theorem_on_the_groups_own_decomposition(name, group):
    # the theorem read in the caller's labels reuses the loop's search and
    # agrees with the canonical M(M(H, 2), 2) built from H
    elements, u1 = dec = dihedral_decomposition(group)
    aut = automorphism_group(chein_loop(group))
    rep = verify_dihedral_decomposition_automorphisms(group, dec)
    canonical = verify_doubled_dihedral_automorphisms(subgroup_table(group, elements))
    assert rep.ok and canonical.ok
    assert rep.nodes == aut.nodes
    assert rep.centralizer_witness == elements[canonical.centralizer_witness]
    unlabelled = dict(centralizer_witness=0, nodes=0)
    assert rep._replace(**unlabelled) == canonical._replace(**unlabelled)


def test_doubled_dihedral_rejects_bad_h():
    with pytest.raises(AssertionError):
        verify_doubled_dihedral_automorphisms(symmetric3())  # not abelian
    with pytest.raises(AssertionError):
        verify_doubled_dihedral_automorphisms(klein4())  # exponent 2


def test_aut_memo_lives_as_long_as_its_table():
    # AutGroup is a tuple, which takes no weak reference: count the live ones
    def live() -> int:
        gc.collect()
        return sum(type(o) is AutGroup for o in gc.get_objects())

    before = live()
    t = chein_loop(cyclic(33))  # order 66
    automorphism_group(t)
    assert live() == before + 1
    del t
    assert live() == before


def test_argument_checks_raise_under_optimize():
    # a non-injective parabolic embedding, a non-abelian H and a
    # decomposition whose involution lies in H must be refused even with
    # asserts stripped by -O
    code = "\n".join([
        "from coxloops.coxeter import diagram_a, embed_parabolic, enumerate_group",
        "from coxloops.errors import CheckError",
        "from coxloops.groups import symmetric3",
        "from coxloops.groups import dihedral",
        "from coxloops.morphisms import (",
        "    verify_dihedral_decomposition_automorphisms, verify_doubled_dihedral_automorphisms)",
        "a2 = enumerate_group(diagram_a(2))",
        "for call in (",
        "    lambda: embed_parabolic(a2, [0, 0], a2),",
        "    lambda: verify_doubled_dihedral_automorphisms(symmetric3()),",
        "    lambda: verify_dihedral_decomposition_automorphisms(dihedral(6), (range(6), 1)),",
        "):",
        "    try:",
        "        call()",
        "    except CheckError as e:",
        "        print(__debug__, 'CheckError', e)",
        "    except Exception as e:",
        "        print(__debug__, type(e).__name__)",
        "    else:",
        "        print(__debug__, 'returned')",
    ])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "False CheckError parabolic embedding must be injective",
        "False CheckError H must be abelian",
        "False CheckError H, H*u1, H*u2 and H*u3 do not partition the loop",
    ]
