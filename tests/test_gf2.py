"""Bit-packed GF(2) linear algebra."""

import random
import subprocess
import sys

import pytest

from coxloops import gf2


def test_vector_support_roundtrip():
    assert gf2.vector_from_support([0, 3, 5]) == 0b101001
    assert gf2.support(0b101001) == [0, 3, 5]
    assert gf2.support(0) == []
    assert gf2.vector_from_support([]) == 0


def test_rref_known_matrix():
    # rows of an independent 3x4 matrix over columns 0..3
    rows = [
        gf2.vector_from_support([0, 1, 3]),
        gf2.vector_from_support([1, 2, 3]),
        gf2.vector_from_support([2, 3]),
    ]
    pivots, reduced = gf2.gf2_rref(rows, 4)
    assert pivots == [0, 1, 2]
    # fully reduced: each pivot column appears in exactly one row
    for k, col in enumerate(pivots):
        assert sum(1 for r in reduced if r & (1 << col)) == 1
        assert reduced[k] & (1 << col)
    assert gf2.gf2_rank(rows, 4) == 3


def test_rank_with_dependent_rows():
    a = 0b0011
    b = 0b0101
    rows = [a, b, a ^ b, 0]
    assert gf2.gf2_rank(rows, 4) == 2


def test_kernel_basis_annihilates_and_has_right_size():
    rows = [0b1011, 0b0110]
    ker = gf2.gf2_kernel_basis(rows, 4)
    assert len(ker) == 2  # 4 unknowns - rank 2
    for v in ker:
        assert gf2.apply_rows(rows, v) == 0
    assert gf2.gf2_rank(ker, 4) == 2


def test_rowspan_membership():
    rows = [0b011, 0b110]
    assert gf2.gf2_is_in_rowspan(rows, 3, 0b101)  # the sum
    assert gf2.gf2_is_in_rowspan(rows, 3, 0)
    assert not gf2.gf2_is_in_rowspan(rows, 3, 0b100)


def test_same_span_is_basis_independent():
    rows = [0b011, 0b110]
    other = [0b101, 0b110]  # same space, different spanning set
    assert gf2.gf2_same_span(rows, other, 3)
    assert not gf2.gf2_same_span(rows, [0b111], 3)


def test_transpose_involution():
    rows = [0b101, 0b011, 0b000, 0b110]
    cols = gf2.transpose(rows, 3)
    assert len(cols) == 3
    back = gf2.transpose(cols, len(rows))
    assert back == rows


def test_apply_rows_matches_manual_dot_products():
    rows = [0b110, 0b011]
    # x = (1,0,1): <110,101>=1, <011,101>=1
    assert gf2.apply_rows(rows, 0b101) == 0b11
    assert gf2.apply_rows(rows, 0) == 0


def test_random_rank_nullity_consistency():
    rng = random.Random(7)
    for _ in range(200):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 10)
        rows = [rng.getrandbits(ncols) for _ in range(nrows)]
        rank = gf2.gf2_rank(rows, ncols)
        ker = gf2.gf2_kernel_basis(rows, ncols)
        assert rank + len(ker) == ncols
        for v in ker:
            assert gf2.apply_rows(rows, v) == 0
        # every original row lies in the span of the reduced basis
        basis = gf2.gf2_row_reduce_basis(rows, ncols)
        for r in rows:
            assert gf2.gf2_is_in_rowspan(basis, ncols, r)


OUT_OF_RANGE = """
from coxloops import gf2

cases = [
    ("rref", lambda: gf2.gf2_rref([0b011, 0b1000], 3)),  # every bit at or above ncols
    ("rank", lambda: gf2.gf2_rank([0b1001], 3)),  # bits on both sides of ncols
    ("kernel", lambda: gf2.gf2_kernel_basis([0b1, -1], 3)),  # a negative row
    ("span", lambda: gf2.gf2_same_span([0b1], [1 << 64], 64)),
    ("member", lambda: gf2.gf2_is_in_rowspan([0b01, 0b10], 2, 0b111)),
]
for name, call in cases:
    try:
        call()
    except ValueError as e:
        print(__debug__, name, "ValueError", e)
    else:
        print(__debug__, name, "returned")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_bits_at_or_above_ncols_are_refused(flags):
    proc = subprocess.run(
        [sys.executable, *flags, "-c", OUT_OF_RANGE], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    debug = str(not flags)
    assert [line.split(maxsplit=3) for line in proc.stdout.splitlines()] == [
        [debug, "rref", "ValueError", "row 1 has a bit at or above column 3"],
        [debug, "rank", "ValueError", "row 0 has a bit at or above column 3"],
        [debug, "kernel", "ValueError", "row 1 has a bit at or above column 3"],
        [debug, "span", "ValueError", "row 0 has a bit at or above column 64"],
        [debug, "member", "ValueError", "vector has a bit at or above column 2"],
    ]
