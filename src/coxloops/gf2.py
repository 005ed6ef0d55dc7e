"""Linear algebra over GF(2) on bit-packed rows.

A vector in GF(2)^n is an int whose bit j is coordinate j; a matrix is a
list of such ints (one per row).  Everything here is plain Gaussian
elimination, deterministic, and small enough to stay in pure Python.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .errors import CheckError

__all__ = [
    "vector_from_support",
    "support",
    "gf2_rank",
    "gf2_rref",
    "gf2_row_reduce_basis",
    "gf2_kernel_basis",
    "gf2_is_in_rowspan",
    "gf2_same_span",
    "transpose",
    "apply_rows",
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
    reduced: each pivot column has a single 1.
    """
    reduced: List[int] = []
    pivots: List[int] = []
    work = list(rows)
    for col in range(ncols):
        mask = 1 << col
        pivot_row = None
        for i, r in enumerate(work):
            if r & mask:
                pivot_row = work.pop(i)
                break
        if pivot_row is None:
            continue
        reduced = [r ^ pivot_row if r & mask else r for r in reduced]
        work = [r ^ pivot_row if r & mask else r for r in work]
        reduced.append(pivot_row)
        pivots.append(col)
    # sort rows by pivot column (they were appended in pivot order already)
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [pivots[i] for i in order], [reduced[i] for i in order]


def gf2_rank(rows: Sequence[int], ncols: int) -> int:
    return len(gf2_rref(rows, ncols)[0])


def gf2_row_reduce_basis(rows: Sequence[int], ncols: int) -> List[int]:
    """Canonical (RREF) basis of the span of the given rows."""
    return gf2_rref(rows, ncols)[1]


def gf2_kernel_basis(rows: Sequence[int], ncols: int) -> List[int]:
    """Basis of {x : M x = 0}, M given by rows over ncols unknowns.

    One basis vector per free column, in ascending column order; this is the
    standard canonical kernel basis read off the RREF.
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
    if any(parity(r & v) for v in basis for r in rows):
        raise CheckError("kernel basis vector not annihilated by the matrix")
    return basis


def gf2_is_in_rowspan(rows: Sequence[int], ncols: int, v: int) -> bool:
    r = gf2_rank(rows, ncols)
    return gf2_rank(list(rows) + [v], ncols) == r


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


def parity(x: int) -> int:
    return x.bit_count() & 1


def apply_rows(rows: Sequence[int], x: int) -> int:
    """Matrix-vector product: bit i of the result is <row_i, x>."""
    out = 0
    for i, r in enumerate(rows):
        if parity(r & x):
            out |= 1 << i
    return out
