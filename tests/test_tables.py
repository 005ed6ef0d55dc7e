"""The one table type: loop axioms checked by one function, in one order.

`is_loop`, `is_quasigroup`, `LoopTable(rows)` and `GroupTable(rows)` all
read `groups.loop_axiom_failures`; they are compared here with reference
predicates on small tables that are ragged, out of range, identity-breaking
or not Latin, and on isotopes of groups and of a non-associative loop.
"""

from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxloops.errors import CheckError
from coxloops.groups import GroupTable, loop_axiom_failures
from coxloops.loops import LoopTable, is_loop, is_quasigroup

LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def reference_axioms(rows):
    """(Latin, two-sided identity 0, associative), each False on a table
    that is not n rows of n entries in 0..n-1."""
    n = len(rows)
    if not all(len(r) == n and all(0 <= x < n for x in r) for r in rows):
        return False, False, False
    perm = list(range(n))
    latin = all(sorted(r) == perm for r in rows) and all(
        sorted(r[j] for r in rows) == perm for j in range(n)
    )
    identity = n > 0 and list(rows[0]) == perm and [r[0] for r in rows] == perm
    assoc = all(
        rows[rows[x][y]][z] == rows[x][rows[y][z]] for x, y, z in iproduct(range(n), repeat=3)
    )
    return latin, identity, assoc


def accepts(cls, rows) -> bool:
    try:
        cls(rows)
    except CheckError:
        return False
    return True


@st.composite
def small_tables(draw):
    n = draw(st.integers(0, 5))
    base = draw(st.sampled_from(["random", "cyclic", "loop5"]))
    if base == "loop5":
        rows, n = [list(r) for r in LOOP5], 5
    elif base == "cyclic":
        rows = [[(a + b) % n for b in range(n)] for a in range(n)]
    else:
        rows = [[draw(st.integers(-1, n)) for _ in range(n)] for _ in range(n)]
    if n and draw(st.booleans()):
        # an isotopy: Latin stays Latin, the identity may move off 0
        pr, pc, ps = (draw(st.permutations(range(n))) for _ in range(3))
        rows = [[ps[rows[pr[a]][pc[b]]] if 0 <= rows[pr[a]][pc[b]] < n else -1
                 for b in range(n)] for a in range(n)]
    mutation = draw(st.sampled_from(["none", "entry", "ragged", "extra_row"]))
    if n and mutation == "entry":
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(st.integers(-1, n + 1))
    elif n and mutation == "ragged":
        rows[draw(st.integers(0, n - 1))].pop()
    elif mutation == "extra_row":
        rows.append(list(range(n)))
    return rows


@settings(derandomize=True, max_examples=400, deadline=None)
@given(small_tables())
def test_predicates_and_constructors_match_the_reference(rows):
    latin, identity, assoc = reference_axioms(rows)
    assert is_quasigroup(rows) == latin
    assert is_loop(rows) == (latin and identity)
    assert accepts(LoopTable, rows) == (latin and identity)
    assert accepts(GroupTable, rows) == (latin and identity and assoc)


def test_entries_out_of_range_are_not_quasigroups():
    assert not is_loop([[0, 1, 2], [1, 2, 9], [2, 9, 1]])
    assert not is_quasigroup([[0, 5], [5, 0]])
    assert not is_quasigroup([[0, -1], [-1, 0]])


def test_empty_tables_are_rejected_with_a_check_error():
    for cls in (GroupTable, LoopTable):
        with pytest.raises(CheckError, match="at least one element"):
            cls([])
    assert not is_loop([])


def test_failures_come_in_one_fixed_order():
    # an identity-breaking, non-Latin table reports the identity first
    rows = [[1, 1], [0, 0]]
    assert [axiom for axiom, _ in loop_axiom_failures(rows)] == ["identity", "latin", "latin"]
    with pytest.raises(CheckError, match="0 must be a two-sided identity"):
        LoopTable(rows)
    # a shape failure stops the check
    assert list(loop_axiom_failures([[0, 1], [1]])) == [
        ("shape", "row 1 is not a list of 2 elements 0..1")
    ]
    assert [m for _, m in loop_axiom_failures([[0, 1, 2], [1, 1, 0], [2, 0, 1]])] == [
        "not a quasigroup: row 1 repeats a value",
        "not a quasigroup: column 1 repeats a value",
    ]
