"""Finite groups as explicit multiplication tables.

Elements are 0..order-1 with 0 the identity.  The table is dense, so
everything here is meant for desk-scale orders (the test corpus tops out in
the hundreds).  Corpus constructors for the standard small groups live here
too; Coxeter groups get their tables from coset enumeration in `coxeter`.

`compose` is the one permutation-composition kernel of the package: table
rows and columns are maps on 0..n-1, and the table build, the doubling,
the cubic identity sweeps and the homomorphism checks all work by
composing whole rows at C speed (`operator.itemgetter`) instead of looking
up one entry at a time.
"""

from __future__ import annotations

from itertools import permutations
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import CheckError

__all__ = [
    "compose",
    "composer",
    "GroupTable",
    "from_table",
    "cyclic",
    "dihedral",
    "quaternion",
    "alternating4",
    "klein4",
    "symmetric3",
    "direct_product",
    "closure",
    "subgroup_table",
    "all_subgroups",
]


def composer(g: Sequence[int]) -> Callable[[Sequence[int]], Tuple[int, ...]]:
    """The map f -> f o g, built once for composing many f with one g.

    `itemgetter(*g)(f)` is the tuple f[g[0]], f[g[1]], ...; with a single
    key it would return a bare value, so lengths 0 and 1 are special.
    """
    if len(g) > 1:
        return itemgetter(*g)
    return lambda f: tuple(f[v] for v in g)


def compose(f: Sequence[int], g: Sequence[int]) -> Tuple[int, ...]:
    """(f o g)(x) = f(g(x)), as a tuple."""
    return composer(g)(f)


class GroupTable:
    """A finite group: `product[a][b]`, identity 0, computed inverses.

    `generators` optionally marks a distinguished involutive generating set
    (for Coxeter groups, the simple reflections in diagram-vertex order) and
    `words` then carries a shortlex word over those generators for every
    element.  `memo` keeps what `chein_loop` and `automorphism_group`
    compute from the table, for as long as the table lives.
    """

    def __init__(
        self,
        product: Sequence[Sequence[int]],
        labels: Optional[Sequence[str]] = None,
        generators: Sequence[int] = (),
        words: Optional[Sequence[Tuple[int, ...]]] = None,
        validate: bool = True,
    ):
        self.product: Tuple[Tuple[int, ...], ...] = tuple(tuple(r) for r in product)
        self.order: int = len(self.product)
        self.generators: Tuple[int, ...] = tuple(generators)
        self.words = None if words is None else tuple(tuple(w) for w in words)
        if labels is None:
            labels = [f"g{i}" for i in range(self.order)]
            labels[0] = "e"
        self.labels: Tuple[str, ...] = tuple(labels)
        if validate:
            self._validate()
        self.inverse: Tuple[int, ...] = tuple(self.product[a].index(0) for a in range(self.order))
        self.memo: Dict[str, object] = {}

    def _validate(self) -> None:
        n = self.order
        rows = self.product
        if n < 1:
            raise CheckError("a group has at least one element")
        for a, row in enumerate(rows):
            if len(row) != n or not all(0 <= x < n for x in row):
                raise CheckError(f"row {a} is not a list of {n} elements 0..{n - 1}")
        for a in range(n):
            if rows[0][a] != a or rows[a][0] != a:
                raise CheckError("0 must be the identity")
            if len(set(rows[a])) != n:
                raise CheckError(f"row {a} is not a permutation")
            if len({rows[b][a] for b in range(n)}) != n:
                raise CheckError(f"column {a} is not a permutation")
            if 0 not in rows[a]:
                raise CheckError(f"element {a} has no inverse")
        # (a*b)*c == a*(b*c) for all c is the row identity L_ab == L_a o L_b
        for a in range(n):
            ra = rows[a]
            for b in range(n):
                lhs, rhs = rows[ra[b]], compose(ra, rows[b])
                if lhs != rhs:
                    c = next(c for c in range(n) if lhs[c] != rhs[c])
                    raise CheckError(f"associativity fails at ({a},{b},{c})")

    def mul(self, a: int, b: int) -> int:
        return self.product[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, a: int, b: int) -> int:
        """b^-1 a b"""
        return self.product[self.product[self.inverse[b]][a]][b]

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.product[x][a]
            k += 1
        return k

    def is_abelian(self) -> bool:
        p = self.product
        return all(p[a][b] == p[b][a] for a in range(self.order) for b in range(a))

    def is_elementary_abelian(self) -> bool:
        """Every element squares to the identity (this forces abelian)."""
        return all(self.product[a][a] == 0 for a in range(self.order))

    def involutions(self) -> List[int]:
        return [a for a in range(1, self.order) if self.product[a][a] == 0]

    def __repr__(self) -> str:
        return f"GroupTable(order={self.order})"


def from_table(rows: Sequence[Sequence[int]], labels: Optional[Sequence[str]] = None) -> GroupTable:
    return GroupTable(rows, labels=labels)


def cyclic(n: int) -> GroupTable:
    if n < 1:
        raise CheckError(f"a cyclic group has order >= 1, got {n}")
    rows = [[(a + b) % n for b in range(n)] for a in range(n)]
    labels = ["e"] + [f"r{'' if a == 1 else a}" for a in range(1, n)]
    return GroupTable(rows, labels=labels, generators=(1,) if n > 1 else ())


def dihedral(m: int) -> GroupTable:
    """Dihedral group of order 2m: element b*m + a is r^a s^b.

    For m >= 2 the distinguished generators are the two reflections s and
    r*s, which present it as the Coxeter group of the rank-2 diagram with
    label m.
    """
    if m < 1:
        raise CheckError(f"a dihedral group has m >= 1, got {m}")
    n = 2 * m

    def idx(a: int, b: int) -> int:
        return b * m + a % m

    rows = [[0] * n for _ in range(n)]
    for a1 in range(m):
        for b1 in range(2):
            for a2 in range(m):
                for b2 in range(2):
                    a = (a2 + a1) % m if b2 == 0 else (a2 - a1) % m
                    rows[idx(a1, b1)][idx(a2, b2)] = idx(a, (b1 + b2) % 2)
    labels = [f"r{a}" for a in range(m)] + [f"r{a}*s" for a in range(m)]
    labels[0] = "e"
    labels[m] = "s"
    gens = (1,) if m == 1 else (m, m + 1)
    return GroupTable(rows, labels=labels, generators=gens)


def quaternion() -> GroupTable:
    """Q8 with elements 1, -1, i, -i, j, -j, k, -k in that order."""
    base = {
        ("1", "1"): ("", "1"), ("1", "i"): ("", "i"), ("1", "j"): ("", "j"), ("1", "k"): ("", "k"),
        ("i", "1"): ("", "i"), ("i", "i"): ("-", "1"), ("i", "j"): ("", "k"), ("i", "k"): ("-", "j"),
        ("j", "1"): ("", "j"), ("j", "i"): ("-", "k"), ("j", "j"): ("-", "1"), ("j", "k"): ("", "i"),
        ("k", "1"): ("", "k"), ("k", "i"): ("", "j"), ("k", "j"): ("-", "i"), ("k", "k"): ("-", "1"),
    }
    units = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def split(u: str) -> Tuple[int, str]:
        return (1, u[1:]) if u.startswith("-") else (0, u)

    def mul(u: str, v: str) -> str:
        su, au = split(u)
        sv, av = split(v)
        sign, axis = base[(au, av)]
        s = (su + sv + (1 if sign == "-" else 0)) % 2
        return ("-" if s else "") + axis

    rows = [[units.index(mul(u, v)) for v in units] for u in units]
    return GroupTable(rows, labels=units)


def alternating4() -> GroupTable:
    """A4 as even permutations of {0,1,2,3}, sorted; (p*q)(x) = p(q(x))."""
    def sign(p: Tuple[int, ...]) -> int:
        s = 0
        for i in range(4):
            for j in range(i + 1, 4):
                if p[i] > p[j]:
                    s ^= 1
        return s

    elems = sorted(p for p in permutations(range(4)) if sign(p) == 0)
    index = {p: i for i, p in enumerate(elems)}
    rows = [
        [index[tuple(p[q[x]] for x in range(4))] for q in elems]
        for p in elems
    ]
    labels = ["".join(map(str, p)) for p in elems]
    return GroupTable(rows, labels=labels)


def klein4() -> GroupTable:
    return direct_product(cyclic(2), cyclic(2))


def symmetric3() -> GroupTable:
    return dihedral(3)


def direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    n = g.order * h.order
    rows = [[0] * n for _ in range(n)]
    for a1 in range(g.order):
        for b1 in range(h.order):
            for a2 in range(g.order):
                for b2 in range(h.order):
                    rows[a1 * h.order + b1][a2 * h.order + b2] = (
                        g.product[a1][a2] * h.order + h.product[b1][b2]
                    )
    labels = [
        f"({g.labels[a]},{h.labels[b]})" for a in range(g.order) for b in range(h.order)
    ]
    return GroupTable(rows, labels=labels)


def closure(g, subset: Iterable[int]) -> Tuple[int, ...]:
    """Subgroup (or subloop) generated by `subset`, as a sorted element tuple.

    Only `g.product` is read, so `g` may be a group or a loop table.  In a
    finite loop, closure under multiplication is enough: translations
    restrict to bijections of the closed set, so divisions and the identity
    come along automatically.
    """
    seen = {0} | set(subset)
    frontier = list(seen)
    while frontier:
        new = []
        for a in frontier:
            for b in list(seen):
                for c in (g.product[a][b], g.product[b][a]):
                    if c not in seen:
                        seen.add(c)
                        new.append(c)
        frontier = new
    return tuple(sorted(seen))


def subgroup_table(g: GroupTable, elements: Iterable[int]) -> GroupTable:
    """The multiplication table of a subgroup, re-indexed to 0..k-1 in the
    subgroup's own element order (ascending); labels are inherited."""
    elems = sorted(set(elements))
    if not elems or elems[0] != 0:
        raise ValueError("a subgroup must contain the identity 0")
    pos = {x: k for k, x in enumerate(elems)}
    rows = []
    for a in elems:
        row = []
        for b in elems:
            c = g.product[a][b]
            if c not in pos:
                raise ValueError(f"subset not closed: {a}*{b} = {c} is outside")
            row.append(pos[c])
        rows.append(row)
    return GroupTable(rows, labels=[g.labels[x] for x in elems])


def all_subgroups(g: GroupTable) -> List[Tuple[int, ...]]:
    """Every subgroup, as sorted element tuples, ordered by (size, elements).

    Standard lattice walk: grow each known subgroup by one extra generator
    until nothing new appears.  Fine for the desk-scale corpus.
    """
    found = {(0,)}
    frontier = [(0,)]
    while frontier:
        new = []
        for sub in frontier:
            inside = set(sub)
            for x in range(1, g.order):
                if x in inside:
                    continue
                bigger = closure(g, sub + (x,))
                if bigger not in found:
                    found.add(bigger)
                    new.append(bigger)
        frontier = new
    return sorted(found, key=lambda s: (len(s), s))
