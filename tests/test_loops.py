"""Doubled loops M(G, 2): construction oracles and the identity suite.

Frozen values: first counterexamples (instance, values, checked count) for
the order-5 non-Moufang loop and for associativity in M(S3, 2); identity
counts for the doubling suite on small Coxeter groups.
"""

import pytest

from coxloops.coxeter import diagram_a, diagram_b, diagram_h, diagram_i2, enumerate_group
from coxloops.groups import closure, cyclic, dihedral, klein4, symmetric3
from coxloops.loops import (
    CHEIN_NAMES,
    MOUFANG_NAMES,
    LoopTable,
    chein_loop,
    chein_values,
    is_associative,
    is_loop,
    is_moufang,
    is_quasigroup,
    moufang_values,
    verify_chein_identities,
    verify_doubling_identities,
)

# the smallest loop that is not Moufang (order 5, identity 0)
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def test_chein_loop_of_trivial_group():
    t = chein_loop(cyclic(1))
    assert t.order == 2
    assert t.group_order == 1
    assert t.product == ((0, 1), (1, 0))
    assert t.labels == ("e", "u")


def test_chein_loop_of_cyclic3_is_dihedral():
    # M(Z3, 2): associative (Z3 abelian) but not commutative — u inverts
    t = chein_loop(cyclic(3))
    assert t.order == 6
    assert is_associative(t).holds
    assert not t.is_commutative()
    u = t.group_order
    r = 1
    assert t.product[t.product[u][r]][u] == 2  # u r u = r^-1


def test_chein_loop_of_klein4_is_elementary_abelian():
    t = chein_loop(klein4())
    assert t.order == 8
    assert t.is_elementary_abelian()


def test_chein_loop_of_s3_frozen():
    # the smallest nonassociative Moufang loop, order 12
    t = chein_loop(symmetric3())
    assert t.order == 12
    assert t.group_order == 6
    assert t.labels[6] == "u"
    rep = is_associative(t)
    assert not rep.holds
    # (r*s)*u uses the group product, r*(s*u) the twisted coset rule
    assert rep.counterexample == (1, 3, 6)
    assert rep.values == (11, 10)
    assert rep.checked == 187
    moufang = is_moufang(t)
    assert set(moufang) == set(MOUFANG_NAMES)
    for name in MOUFANG_NAMES:
        assert moufang[name].holds
        assert moufang[name].checked == 12**3


@pytest.mark.parametrize(
    "diagram",
    [diagram_h(3), pytest.param(diagram_a(4), marks=pytest.mark.slow)],
    ids=["h3", "a4"],
)
def test_order_240_loops_are_moufang(diagram):
    # loop order 240, every triple of every identity (13.8 M instances each)
    t = chein_loop(enumerate_group(diagram))
    assert t.order == 240
    for name, rep in is_moufang(t).items():
        assert rep.holds, rep.brief()
        assert rep.checked == 240**3


def test_coset_elements_are_involutions():
    # (g u)^2 = g^-1 g = e in every doubled loop
    for g in (cyclic(4), symmetric3(), dihedral(4)):
        t = chein_loop(g)
        n = t.group_order
        for x in range(n, 2 * n):
            assert t.element_order(x) == 2


def test_loop5_is_loop_but_not_moufang_frozen():
    assert is_loop(LOOP5)
    t = LoopTable(LOOP5)
    rep = is_associative(t)
    assert not rep.holds
    assert rep.counterexample == (1, 1, 2)
    assert rep.values == (2, 4)
    assert rep.checked == 33
    m1 = is_moufang(t)["m1"]
    assert not m1.holds
    assert m1.counterexample == (1, 0, 2)
    assert m1.values == (2, 4)
    assert m1.checked == 28
    assert "FAILS at (1, 0, 2)" in m1.brief()


def test_identity_report_brief_on_success():
    rep = is_associative(chein_loop(cyclic(2)))
    assert rep.holds
    assert rep.brief() == "assoc: holds (64 instances)"


def test_quasigroup_and_loop_predicates():
    assert is_quasigroup(LOOP5)
    # repeated value in a row
    assert not is_quasigroup([[0, 0], [1, 1]])
    assert not is_loop([[0, 0], [1, 1]])
    # Latin but identity is not two-sided (row 0 shifted)
    shifted = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
    assert is_quasigroup(shifted)
    assert not is_loop(shifted)
    # ragged rows
    assert not is_loop([[0, 1], [1]])


def test_loop_table_validation():
    with pytest.raises(AssertionError):
        LoopTable([[0, 0], [1, 1]])
    with pytest.raises(AssertionError):
        LoopTable([[1, 0], [0, 1]])  # 0 is not the identity
    # validate=False skips the axioms (identity fails here) at caller's risk
    t = LoopTable([[0, 1], [0, 1]], validate=False)
    assert t.order == 2


def test_moufang_values_unknown_name():
    t = chein_loop(cyclic(2))
    with pytest.raises(ValueError):
        moufang_values(t, "m4", 0, 0, 0)
    with pytest.raises(ValueError):
        chein_values(t, "c4", 0, 0)


def test_chein_values_without_a_group_half():
    # a bad argument, like `verify_chein_identities` on the same loop: not
    # a CheckError, which the CLI maps to a failed cross-check
    t = LoopTable(LOOP5)
    with pytest.raises(ValueError, match="group half"):
        chein_values(t, "c1", 0, 0)
    with pytest.raises(ValueError, match="group half"):
        verify_chein_identities(t)


def test_chein_identities_hold_for_doubled_loops():
    for g in (cyclic(5), symmetric3(), dihedral(4)):
        t = chein_loop(g)
        reports = verify_chein_identities(t)
        assert tuple(reports) == CHEIN_NAMES
        for name in CHEIN_NAMES:
            assert reports[name].holds
            assert reports[name].checked == g.order**2


def test_chein_identities_need_group_half():
    t = LoopTable([[0, 1], [1, 0]])  # no group_order marked
    with pytest.raises(ValueError):
        verify_chein_identities(t)


DOUBLING_SUITE_ORDER = (
    "involution_squares",
    "u_conjugation_right",
    "u_conjugation_left",
    "c1",
    "c2",
    "c3",
    "gen_u_swap",
    "gen_left_absorb",
    "gen_right_absorb",
    "gen_pair_collapse",
    "gen_right_commute",
    "left_peeling",
)


@pytest.mark.parametrize(
    "diagram",
    [diagram_a(2), diagram_b(2), diagram_i2(5), diagram_a(3)],
    ids=["a2", "b2", "i2_5", "a3"],
)
def test_doubling_suite_holds_on_coxeter_groups(diagram):
    w = enumerate_group(diagram)
    reports = verify_doubling_identities(w)
    assert tuple(reports) == DOUBLING_SUITE_ORDER
    for name, rep in reports.items():
        assert rep.holds, rep.brief()
    k = len(w.generators)
    n = w.order
    assert reports["involution_squares"].checked == (k + 1) ** 2
    assert reports["u_conjugation_right"].checked == n
    assert reports["c1"].checked == n**2
    assert reports["gen_u_swap"].checked == k
    assert reports["gen_pair_collapse"].checked == k**2
    assert reports["left_peeling"].checked == k + k**2 + k**3 + k**4


def test_doubling_suite_requires_marked_involutions():
    with pytest.raises(ValueError):
        verify_doubling_identities(klein4())  # no marked generators
    with pytest.raises(AssertionError):
        verify_doubling_identities(cyclic(3))  # generator of order 3


def test_subloop_closure():
    t = chein_loop(symmetric3())
    u = t.group_order
    assert closure(t, [u]) == (0, u)
    # the group half is closed
    assert closure(t, t.group_generators) == tuple(range(6))
    # one reflection together with u: a Klein four-subloop
    s = t.group_generators[0]
    assert len(closure(t, [s, u])) == 4
    # a reflection with a rotated coset element still closes at order 4
    assert closure(t, [s, u + 1]) == (0, 3, 7, 11)
    # both reflections and u generate everything
    assert len(closure(t, list(t.group_generators) + [u])) == 12
    assert closure(t, []) == (0,)
