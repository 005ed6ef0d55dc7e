"""Finite groups and loops as explicit multiplication tables.

Elements are 0..order-1 with 0 the identity.  The table is dense, so
everything here is meant for desk-scale orders (the test corpus tops out in
the hundreds).  Corpus constructors for the standard small groups live here
too; Coxeter groups get their tables from coset enumeration in `coxeter`.

One table type, `_Table`, underlies `GroupTable` and `loops.LoopTable`: a
group is an associative loop.  Each axiom has one certificate here, run by
validated construction: `loop_axiom_failures` for every table, and
`is_associative` for a `GroupTable`.

`compose` is the one permutation-composition kernel of the package: table
rows and columns are maps on 0..n-1, and the table build, the doubling,
the cubic identity sweeps (`_sweep`, shared with the Moufang identities in
`loops`) and the homomorphism checks all work by composing whole rows at C
speed (`operator.itemgetter`) instead of looking up one entry at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import CheckError

__all__ = [
    "compose",
    "composer",
    "loop_axiom_failures",
    "IdentityReport",
    "is_associative",
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


def loop_axiom_failures(rows: Sequence[Sequence[int]]) -> Iterator[Tuple[str, str]]:
    """The loop axioms `rows` breaks, as (axiom, message) pairs in this
    order: "shape" (a row is not n entries in 0..n-1; checking stops),
    "identity" (0 is not a two-sided identity), then "latin" for each row
    and then each column that repeats a value.  A loop breaks none, a
    quasigroup at most "identity".
    """
    n = len(rows)
    for a, row in enumerate(rows):
        if len(row) != n or min(row) < 0 or max(row) >= n:
            yield "shape", f"row {a} is not a list of {n} elements 0..{n - 1}"
            return
    if n == 0:
        yield "identity", "a table has at least one element, the identity 0"
    elif any(rows[0][a] != a or rows[a][0] != a for a in range(n)):
        yield "identity", "0 must be a two-sided identity"
    for kind, lines in (("row", rows), ("column", zip(*rows))):
        for a, line in enumerate(lines):
            if len(set(line)) != n:
                yield "latin", f"not a quasigroup: {kind} {a} repeats a value"


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of checking one identity over its full quantifier domain.

    `counterexample` is the first failing instance in the documented
    iteration order (plain lexicographic over the domain), and `values`
    are the evaluated sides at that instance (all must be equal to hold).
    """

    name: str
    holds: bool
    checked: int
    counterexample: Optional[Tuple[int, ...]]
    values: Optional[Tuple[int, ...]]

    def brief(self) -> str:
        if self.holds:
            return f"{self.name}: holds ({self.checked} instances)"
        return (
            f"{self.name}: FAILS at {self.counterexample} "
            f"with values {self.values} ({self.checked} instances tried)"
        )


def _sweep(
    name: str,
    n: int,
    sides_at: Callable[[int], Callable[[int], Sequence[Tuple[int, ...]]]],
    values: Callable[[int, int, int], Tuple[int, ...]],
) -> IdentityReport:
    """A cubic identity over all triples (x, y, z), lexicographic, checked
    one pair (x, y) at a time: `sides_at(x)(y)` gives the sides as maps of
    z, and the first z where any side differs completes the counterexample.
    """
    for x in range(n):
        sides_of = sides_at(x)
        for y in range(n):
            first, *rest = sides_of(y)
            if any(side != first for side in rest):
                z = next(z for z in range(n) if any(side[z] != first[z] for side in rest))
                return IdentityReport(name, False, (x * n + y) * n + z + 1, (x, y, z), values(x, y, z))
    return IdentityReport(name, True, n**3, None, None)


def is_associative(t: _Table) -> IdentityReport:
    """(x*y)*z == x*(y*z) over all triples (x, y, z), lexicographic.

    As translations: L_{xy} == L_x L_y.
    """
    p = t.product
    after = [composer(row) for row in p]  # after[y](f) = f o L_y

    def sides_at(x: int):
        px = p[x]
        return lambda y: (p[px[y]], after[y](px))

    return _sweep(
        "assoc", t.order, sides_at, lambda x, y, z: (p[p[x][y]][z], p[x][p[y][z]])
    )


class _Table:
    """`product[a][b]` with identity 0, right inverses `rinv` (two-sided in
    groups and Moufang loops), and a `memo` that keeps what `chein_loop`
    and `automorphism_group` compute from the table while it lives.
    `validate` runs `_certify`: the loop axioms, and more in a subclass.
    """

    label_prefix = "x"

    def __init__(self, product: Sequence[Sequence[int]], labels: Optional[Sequence[str]], validate: bool):
        self.product: Tuple[Tuple[int, ...], ...] = tuple(tuple(r) for r in product)
        self.order: int = len(self.product)
        if validate:
            self._certify()
        if labels is None:
            labels = [f"{self.label_prefix}{i}" if i else "e" for i in range(self.order)]
        self.labels: Tuple[str, ...] = tuple(labels)
        self.rinv: Tuple[int, ...] = tuple(row.index(0) for row in self.product)
        self.memo: Dict[str, object] = {}

    def _certify(self) -> None:
        failure = next(loop_axiom_failures(self.product), None)
        if failure is not None:
            raise CheckError(failure[1])

    def mul(self, a: int, b: int) -> int:
        return self.product[a][b]

    def element_order(self, x: int) -> int:
        """Order of x under left powers x, x*x, x*(x*x), ...

        Left translation by x is a permutation, so the sequence returns to
        the identity; for power-associative loops (groups and all our
        loops) this is the usual element order.
        """
        k, y = 1, x
        while y != 0:
            y = self.product[x][y]
            k += 1
        return k

    def is_commutative(self) -> bool:
        p = self.product
        return all(p[a][b] == p[b][a] for a in range(self.order) for b in range(a))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(order={self.order})"


class GroupTable(_Table):
    """A finite group: a table whose certificate adds associativity.

    `generators` optionally marks a distinguished involutive generating set
    (for Coxeter groups, the simple reflections in diagram-vertex order) and
    `words` then carries a shortlex word over those generators for every
    element.  `inverse` is `rinv`.
    """

    label_prefix = "g"

    def __init__(
        self,
        product: Sequence[Sequence[int]],
        labels: Optional[Sequence[str]] = None,
        generators: Sequence[int] = (),
        words: Optional[Sequence[Tuple[int, ...]]] = None,
        validate: bool = True,
    ):
        self.generators: Tuple[int, ...] = tuple(generators)
        self.words = None if words is None else tuple(tuple(w) for w in words)
        super().__init__(product, labels, validate)
        self.inverse = self.rinv

    def _certify(self) -> None:
        super()._certify()
        assoc = is_associative(self)
        if not assoc.holds:
            raise CheckError("associativity fails at ({},{},{})".format(*assoc.counterexample))

    is_abelian = _Table.is_commutative

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, a: int, b: int) -> int:
        """b^-1 a b"""
        return self.product[self.product[self.inverse[b]][a]][b]

    def is_elementary_abelian(self) -> bool:
        """Every element squares to the identity (this forces abelian)."""
        return all(self.product[a][a] == 0 for a in range(self.order))

    def involutions(self) -> List[int]:
        return [a for a in range(1, self.order) if self.product[a][a] == 0]


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
