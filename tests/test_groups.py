"""Group tables: constructors, validation, subgroup machinery.

Frozen values: orders and element-order multisets of the corpus groups, and
full subgroup-lattice counts for the classical small cases.
"""

import subprocess
import sys
from collections import Counter

import pytest

from coxloops.groups import (
    GroupTable,
    all_subgroups,
    alternating4,
    closure,
    cyclic,
    dihedral,
    direct_product,
    klein4,
    quaternion,
    subgroup_table,
    symmetric3,
)


def order_histogram(g):
    return Counter(g.element_order(a) for a in range(g.order))


def test_cyclic_basics():
    for n in (1, 2, 3, 6, 12):
        g = cyclic(n)
        assert g.order == n
        assert g.is_abelian()
        if n > 1:
            assert g.element_order(1) == n
    assert cyclic(1).labels == ("e",)
    assert cyclic(4).element_order(2) == 2


def test_dihedral_basics():
    for m in (2, 3, 4, 5, 6):
        g = dihedral(m)
        assert g.order == 2 * m
        assert g.is_abelian() == (m <= 2)
        # distinguished generators are two reflections whose product rotates
        s, t = g.generators
        assert g.element_order(s) == 2 and g.element_order(t) == 2
        assert g.element_order(g.product[s][t]) == m


def test_quaternion_frozen():
    q = quaternion()
    assert q.order == 8
    assert not q.is_abelian()
    assert order_histogram(q) == {1: 1, 2: 1, 4: 6}
    assert [a for a in range(1, 8) if q.product[a][a] == 0] == [1]  # -1 is the unique involution
    assert q.labels[1] == "-1"


def test_alternating4_frozen():
    a4 = alternating4()
    assert a4.order == 12
    assert not a4.is_abelian()
    assert order_histogram(a4) == {1: 1, 2: 3, 3: 8}


def test_klein4_elementary_abelian():
    v = klein4()
    assert v.order == 4
    assert v.is_elementary_abelian()
    assert [a for a in range(1, 4) if v.product[a][a] == 0] == [1, 2, 3]


def test_symmetric3_is_dihedral3():
    s3 = symmetric3()
    d3 = dihedral(3)
    assert s3.product == d3.product


def test_inverse_and_conjugation():
    g = dihedral(4)
    p, inv = g.product, g.inverse
    for a in range(g.order):
        assert p[a][inv[a]] == 0
        assert p[inv[a]][a] == 0
    # b^-1 a b: conjugating a rotation by a reflection inverts it
    r, s = 1, 4
    assert p[p[inv[s]][r]][s] == inv[r]
    # identity is central
    for b in range(g.order):
        assert p[p[inv[b]][0]][b] == 0


def test_direct_product_cyclic_2_3_is_cyclic6():
    g = direct_product(cyclic(2), cyclic(3))
    assert g.order == 6
    assert g.is_abelian()
    assert max(g.element_order(a) for a in range(6)) == 6
    assert order_histogram(g) == order_histogram(cyclic(6))


def test_direct_product_labels():
    g = direct_product(cyclic(2), cyclic(2))
    assert g.labels == ("(e,e)", "(e,r)", "(r,e)", "(r,r)")


def test_closure_in_dihedral():
    g = dihedral(4)
    # rotations: generated by r = 1
    assert closure(g, [1]) == (0, 1, 2, 3)
    # a single reflection gives an order-2 subgroup
    assert closure(g, [4]) == (0, 4)
    # a rotation and a reflection generate everything
    assert closure(g, [1, 4]) == tuple(range(8))
    assert closure(g, []) == (0,)


def test_subgroup_table_rotations():
    g = dihedral(6)
    rot = subgroup_table(g, range(6))
    assert rot.order == 6
    assert rot.is_abelian()
    assert rot.element_order(1) == 6
    assert rot.labels == g.labels[:6]


def test_subgroup_table_reindexes():
    g = dihedral(4)
    # {e, r^2, s, r^2 s} is a Klein four-subgroup on elements {0, 2, 4, 6}
    v = subgroup_table(g, [0, 2, 4, 6])
    assert v.order == 4
    assert v.is_elementary_abelian()
    assert v.labels == ("e", "r2", "s", "r2*s")


def test_subgroup_table_errors():
    g = dihedral(4)
    with pytest.raises(ValueError):
        subgroup_table(g, [1, 2, 3])  # missing the identity
    with pytest.raises(ValueError):
        subgroup_table(g, [0, 1])  # not closed: 1*1 = 2 is outside


def test_all_subgroups_frozen_counts():
    # cyclic(12): one subgroup per divisor of 12
    assert len(all_subgroups(cyclic(12))) == 6
    # Klein four-group: trivial + three C2 + itself
    assert len(all_subgroups(klein4())) == 5
    # S3: trivial + three C2 + one C3 + itself
    assert len(all_subgroups(symmetric3())) == 6
    # D4: trivial + five C2 + (C4 and two Klein fours) + itself
    assert len(all_subgroups(dihedral(4))) == 10
    # Q8: trivial + center + three C4 + itself
    assert len(all_subgroups(quaternion())) == 6
    # A4: trivial + three C2 + four C3 + V4 + itself (and no order-6 subgroup)
    subs = all_subgroups(alternating4())
    assert len(subs) == 10
    assert sorted(len(s) for s in subs) == [1, 2, 2, 2, 3, 3, 3, 3, 4, 12]
    assert not any(len(s) == 6 for s in subs)


def test_all_subgroups_entries_are_subgroups():
    g = dihedral(4)
    for sub in all_subgroups(g):
        assert closure(g, sub) == sub
        table = subgroup_table(g, sub)  # must not raise
        assert table.order == len(sub)


def test_validation_rejects_bad_tables():
    with pytest.raises(AssertionError):
        GroupTable([[0, 1], [1, 1]])  # row 1 is not a permutation
    with pytest.raises(AssertionError):
        GroupTable([[1, 0], [0, 1]])  # 0 is not the identity
    # a Latin square with identity that is not associative (smallest: order 5)
    loop5 = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(AssertionError):
        GroupTable(loop5)


def test_validation_rejects_nonassociative_table_under_optimize():
    # the order-5 loop must be refused even with asserts stripped by -O
    code = "\n".join([
        "from coxloops.errors import CheckError",
        "from coxloops.groups import GroupTable",
        "rows = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]]",
        "try:",
        "    GroupTable(rows)",
        "except CheckError as e:",
        "    print(__debug__, 'CheckError', e)",
        "else:",
        "    print(__debug__, 'accepted')",
    ])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "CheckError", "associativity", "fails", "at", "(1,1,2)"]


def test_validate_false_skips_checks():
    g = GroupTable([[0, 1], [1, 0]], validate=False)
    assert g.order == 2
    assert g.inverse == (0, 1)
