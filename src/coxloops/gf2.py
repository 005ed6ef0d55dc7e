"""Linear algebra over GF(2) on bit-packed rows.

A vector in GF(2)^n is an int whose bit j is coordinate j; a matrix is a
list of such ints (one per row).  Everything here is plain Gaussian
elimination, deterministic, and small enough to stay in pure Python.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .errors import CheckError

__all__ = [
    "vector_from_support",
    "support",
    "gf2_rank",
    "gf2_rref",
    "gf2_kernel_basis",
    "gf2_is_in_rowspan",
    "gf2_same_span",
    "transpose",
]


def vector_from_support(coords: Sequence[int]) -> int:
    v = 0
    for j in coords:
        v ^= 1 << j
    return v


def support(v: int) -> List[int]:
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out


def gf2_rref(rows: Sequence[int], ncols: int) -> Tuple[List[int], List[int]]:
    """Reduced row echelon form.

    Returns (pivot_cols, reduced_rows) where reduced_rows contains only the
    nonzero rows, one per pivot column, in ascending pivot order.  Fully
    reduced: each pivot column has a single 1.  Raises ValueError when a
    row has a bit at or above `ncols`.

    One pass over the rows keeps a pivot row per lowest set bit: each row
    is XOR-reduced by the pivot of its current lowest bit until that bit
    is new (the row becomes its pivot) or the row vanishes.  Then, in
    descending pivot order, each pivot row XORs out the other pivot bits it
    holds with rows already reduced.  The RREF of a span is unique, so the
    result does not depend on the order the rows come in.
    """
    pivot_of: Dict[int, int] = {}  # lowest set bit -> pivot row
    for i, r in enumerate(rows):
        if r >> ncols:
            raise ValueError(f"row {i} has a bit at or above column {ncols}")
        while r:
            low = r & -r
            p = pivot_of.get(low)
            if p is None:
                pivot_of[low] = r
                break
            r ^= p
    lows = sorted(pivot_of)
    mask = sum(lows)  # distinct powers of two: the OR of the pivot bits
    for low in reversed(lows):
        r = pivot_of[low]
        others = r & mask & ~low
        while others:
            bit = others & -others
            r ^= pivot_of[bit]
            others ^= bit
        pivot_of[low] = r
    return [low.bit_length() - 1 for low in lows], [pivot_of[low] for low in lows]


def gf2_rank(rows: Sequence[int], ncols: int) -> int:
    return len(gf2_rref(rows, ncols)[0])


def gf2_kernel_basis(rows: Sequence[int], ncols: int) -> List[int]:
    """Basis of {x : M x = 0}, M given by rows over ncols unknowns.

    One basis vector per free column, in ascending column order; this is the
    standard canonical kernel basis read off the RREF.

    M B = 0 is certified once per row: with `cols[k]` the set of basis
    vectors that have bit k (as a bit mask), bit j of the XOR of `cols`
    over a row's support is the row's product with basis vector j, so that
    XOR must vanish.
    """
    pivots, reduced = gf2_rref(rows, ncols)
    pivot_set = set(pivots)
    basis: List[int] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = 1 << free
        for pcol, prow in zip(pivots, reduced):
            if prow & (1 << free):
                v ^= 1 << pcol
        basis.append(v)
    cols = transpose(basis, ncols)
    for r in rows:
        products = 0
        while r:
            k = r.bit_length() - 1
            products ^= cols[k]
            r ^= 1 << k
        if products:
            raise CheckError("kernel basis vector not annihilated by the matrix")
    return basis


def gf2_is_in_rowspan(rows: Sequence[int], ncols: int, v: int) -> bool:
    """Whether v lies in the span of `rows`: v reduced by the RREF's pivots
    vanishes.  Nothing in the package calls it; it stays public as the
    membership query of this module's toolkit, which the tests use.
    """
    if v >> ncols:
        raise ValueError(f"vector has a bit at or above column {ncols}")
    for col, row in zip(*gf2_rref(rows, ncols)):
        if v >> col & 1:
            v ^= row
    return not v


def gf2_same_span(rows_a: Sequence[int], rows_b: Sequence[int], ncols: int) -> bool:
    return gf2_rref(rows_a, ncols)[1] == gf2_rref(rows_b, ncols)[1]


def transpose(rows: Sequence[int], ncols: int) -> List[int]:
    cols = [0] * ncols
    for i, r in enumerate(rows):
        while r:
            low = r & -r
            cols[low.bit_length() - 1] |= 1 << i
            r ^= low
    return cols
