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
the cubic identity sweeps, the homomorphism checks, subloop `closure` and
the propagation step of the `Aut` search all work by composing or
gathering whole rows at C speed instead of looking up one entry at a time.
The kernel has two widths.  Tuples compose with `operator.itemgetter`,
about 10 ns an entry.  When a table's order is at most 256 every entry
fits in a byte, and its byte views (`_ByteViews`, built once per table)
compose f o g as `g.translate(f_padded)`, about 1 ns an entry.

Every identity report of the package comes from one engine, `_sweep`: for
each value of the leading variables, in lexicographic order, every side is
one sequence over the trailing variables, and the sides are compared
whole.  The first difference gives the counterexample, its values and the
`checked` count of the per-instance definition.  The cubic sweeps
(`is_associative` here, the Moufang identities in `loops`) choose the
width from the order alone, through `_cubic`: in the byte width every side
is one n*n-byte string over all (y, z) for one x, built from a few `join`
and `translate` calls; past order 256 it is one tuple over z for one pair
(x, y), from compositions made once per x.

`element_statistics` needs no table at all: it walks one word per element
through a right regular action, each word read off a tree of the action
(a Coxeter group's `coxeter.regular_action` with its BFS tree, or a
table's columns with the star tree), so `group` reports the element
orders of W in memory linear in |W|.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import permutations
from itertools import product as iproduct
from math import prod
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
    "ElementStatistics",
    "element_statistics",
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


class IdentityReport(namedtuple("IdentityReport", "name holds checked counterexample values")):
    """Outcome of checking one identity over its full quantifier domain.

    `counterexample` is the first failing instance in the documented
    iteration order (plain lexicographic over the domain), and `values`
    are the evaluated sides at that instance (all must be equal to hold);
    both are None when it holds.
    """

    __slots__ = ()

    def brief(self) -> str:
        if self.holds:
            return f"{self.name}: holds ({self.checked} instances)"
        return (
            f"{self.name}: FAILS at {self.counterexample} "
            f"with values {self.values} ({self.checked} instances tried)"
        )


def _sweep(
    name: str,
    keys: Iterable[Tuple[int, ...]],
    shape: Sequence[int],
    sides_at: Callable[..., Sequence[Sequence[int]]],
) -> IdentityReport:
    """An identity over its whole domain, lexicographic, checked one key at
    a time: the one engine behind every `IdentityReport`.

    `keys` are the values of the leading variables, in order, and `shape`
    gives the ranges of the trailing ones.  `sides_at(*key)` returns every
    side as one sequence (bytes or a tuple) over the trailing variables,
    flattened row-major (the last variable fastest), and the sides are
    compared whole.  At the first key where they differ, the least position
    i where any side differs from the first completes the counterexample
    (the key, then i unflattened by `shape`), `values` are the sides read
    at i, and `checked` is k*size + i + 1 for the k-th key (from 0).
    """
    size = prod(shape)
    k = -1
    for k, key in enumerate(keys):
        first, *rest = sides = sides_at(*key)
        if any(side != first for side in rest):
            i, values = next((i, vs) for i, vs in enumerate(zip(*sides)) if vs.count(vs[0]) < len(vs))
            trailing, j = [], i
            for width in reversed(shape):
                j, last = divmod(j, width)
                trailing.append(last)
            return IdentityReport(name, False, k * size + i + 1, (*key, *reversed(trailing)), values)
    return IdentityReport(name, True, (k + 1) * size, None, None)


def _per_x(sides_at: Callable[[int], Callable[[int], Sequence[Tuple[int, ...]]]]) -> Callable:
    """`sides_at(x)(y)` as a function of (x, y) that builds `sides_at(x)`,
    and the compositions it precomputes, once per x."""
    at = lru_cache(maxsize=1)(sides_at)
    return lambda x, y: at(x)(y)


def _cubic(
    t: _Table,
    pairs: Callable[[_Table], Dict[str, Callable]],
    blocks: Callable[[_Table], Dict[str, Callable]],
) -> Dict[str, IdentityReport]:
    """Cubic identities over all triples (x, y, z) of `t`, one `_sweep`
    each, in the order of their sides.  When every entry fits in a byte,
    `blocks(t)` gives each identity's sides for one x as byte strings over
    all (y, z); past order 256, `pairs(t)` gives them as tuples over z for
    one pair (x, y), from a map of y built once per x.
    """
    n = t.order
    if n <= 256:
        return {name: _sweep(name, iproduct(range(n)), (n, n), at) for name, at in blocks(t).items()}
    return {
        name: _sweep(name, iproduct(range(n), repeat=2), (n,), _per_x(at)) for name, at in pairs(t).items()
    }


def _assoc_pairs(t: _Table) -> Dict[str, Callable]:
    p = t.product
    after = [composer(row) for row in p]  # after[y](f) = f o L_y

    def sides_at(x: int):
        px = p[x]
        return lambda y: (p[px[y]], after[y](px))

    return {"assoc": sides_at}


def _assoc_blocks(t: _Table) -> Dict[str, Callable]:
    v = t.byte_views
    rows, flat, lpad = v.rows, v.flat, v.padded_rows
    # the rows L_{xy} end to end, and the whole table under L_x
    return {"assoc": lambda x: (b"".join(map(rows.__getitem__, rows[x])), flat.translate(lpad[x]))}


def is_associative(t: _Table) -> IdentityReport:
    """(x*y)*z == x*(y*z) over all triples (x, y, z), lexicographic.

    As translations: L_{xy} == L_x L_y.
    """
    return _cubic(t, _assoc_pairs, _assoc_blocks)["assoc"]


class _ByteViews:
    """A table of order n <= 256 as bytes: rows (L_a: b -> a*b) and columns
    (R_b: a -> a*b) as n-byte strings, the same padded with zeros to the
    256 bytes that `bytes.translate` takes as a map, and `flat`, the whole
    table row-major (flat[y*n + z] = y*z).  `g.translate(padded f)` is
    f o g; every entry is below n, so the padding is never read.
    """

    def __init__(self, product: Sequence[Sequence[int]]):
        pad = bytes(256 - len(product))
        self.rows = tuple(map(bytes, product))
        self.cols = tuple(map(bytes, zip(*product)))
        self.padded_rows = tuple(row + pad for row in self.rows)
        self.padded_cols = tuple(col + pad for col in self.cols)
        self.flat = b"".join(self.rows)


class _Table:
    """`product[a][b]` with identity 0, right inverses `rinv` (two-sided in
    groups and Moufang loops), and a `memo` that keeps what `chein_loop`
    and `automorphism_group` compute from the table while it lives.
    `validate` runs `_certify`: the loop axioms, and more in a subclass.
    `rinv`, `columns` and `byte_views` are built on first use.
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
        self.memo: Dict[str, object] = {}

    @cached_property
    def rinv(self) -> Tuple[int, ...]:
        # built on first use, so a table nothing inverts skips this O(n^2)
        # scan; tables built with validate=False (`enumerate_group`,
        # `chein_loop` and the two the CLI certifies itself) have Latin
        # rows, so every row holds 0
        return tuple(row.index(0) for row in self.product)

    @cached_property
    def columns(self) -> Tuple[Tuple[int, ...], ...]:
        # columns[b][a] = a*b, the right translation R_b as a tuple
        return tuple(zip(*self.product))

    @cached_property
    def byte_views(self) -> _ByteViews:
        return _ByteViews(self.product)

    def _certify(self) -> None:
        failure = next(loop_axiom_failures(self.product), None)
        if failure is not None:
            raise CheckError(failure[1])

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

    @property
    def inverse(self) -> Tuple[int, ...]:
        return self.rinv

    def _certify(self) -> None:
        super()._certify()
        assoc = is_associative(self)
        if not assoc.holds:
            raise CheckError("associativity fails at ({},{},{})".format(*assoc.counterexample))

    is_abelian = _Table.is_commutative

    def is_elementary_abelian(self) -> bool:
        """Every element squares to the identity (this forces abelian)."""
        return all(self.product[a][a] == 0 for a in range(self.order))


class ElementStatistics(namedtuple("ElementStatistics", "order abelian elementary_abelian involutions element_orders")):
    """A finite group's elements: how many there are, whether they commute
    or all square to the identity, how many are involutions, and how many
    have each order (`element_orders`, ascending by order)."""

    __slots__ = ()


def element_statistics(act: Sequence[Sequence[int]], tree: Sequence[Tuple[int, int]]) -> ElementStatistics:
    """The element statistics of a finite group G from its right regular
    action, without a product table.

    `act[x][g]` is g*s_x for generators s_0, s_1, ... of G (0 is the
    identity), and `tree[g]` is (p, x) with g = p*s_x, one entry for every
    element, each path of parents ending at 0 (`tree[0]` is not read).
    The word of g is the generators on its path from 0, read off the tree
    when g's walk starts; its first pass must reach g, so the words name
    |G| distinct elements.  The order of g is the number of steps
    y <- y*g, each walking g's word through `act`, that take 0 back to 0:
    the work is the sum of ord(g) * len(word of g).  G is abelian iff its
    generators commute pairwise; the involutions and elementary-abelian
    follow from the orders.  A Coxeter group passes
    `coxeter.regular_action`'s BFS tree, a table its columns with the star
    tree (0, a).  A walk that is not back at 0 after |G| steps raises
    CheckError: then `act` is no group's regular action.
    """
    n = len(tree)
    counts: Dict[int, int] = {}
    for g in range(n):
        rows, b = [], g
        while b:
            b, x = tree[b]
            rows.append(act[x])
            if len(rows) >= n:
                raise CheckError(f"the tree path of element {g} does not reach 0")
        rows.reverse()
        y = 0
        for row in rows:
            y = row[y]
        if y != g:
            raise CheckError(f"the word of element {g} reaches {y}")
        k = 1
        while y:
            if k >= n:
                raise CheckError(f"the walk of element {g} is not back at 0 after {n} steps")
            for row in rows:
                y = row[y]
            k += 1
        counts[k] = counts.get(k, 0) + 1
    gens = [row[0] for row in act]
    # s_j s_i == s_i s_j, read as (0 * s_j) * s_i and (0 * s_i) * s_j
    abelian = all(act[i][gens[j]] == act[j][gens[i]] for i in range(len(gens)) for j in range(i))
    return ElementStatistics(
        n, abelian, max(counts) <= 2, counts.get(2, 0), {k: counts[k] for k in sorted(counts)}
    )


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


def closure(g: _Table, subset: Iterable[int]) -> Tuple[int, ...]:
    """Subgroup (or subloop) generated by `subset`, as a sorted element tuple.

    `g` may be a group or a loop table.  In a finite loop, closure under
    multiplication is enough: translations restrict to bijections of the
    closed set, so divisions and the identity come along automatically.

    Each element taken from the queue is multiplied on both sides by every
    element taken so far, itself included, as two gathers: its row and its
    column at those elements.  So every pair of taken elements is
    multiplied both ways, and once the queue runs dry the set is closed.
    """
    p, cols = g.product, g.columns
    seen = {0, *subset}
    queue = list(seen)
    done: List[int] = []
    while queue:
        a = queue.pop()
        done.append(a)
        at_done = composer(done)
        for line in (p[a], cols[a]):
            products = at_done(line)
            if not seen.issuperset(products):
                new = set(products).difference(seen)
                seen |= new
                queue.extend(new)
    return tuple(sorted(seen))


def subgroup_table(g: GroupTable, elements: Iterable[int]) -> GroupTable:
    """The multiplication table of a subgroup, re-indexed to 0..k-1 in the
    subgroup's own element order (ascending); labels are inherited.  A
    finite subset of a group that holds 0 and is closed under the product
    is a subgroup, so the table inherits g's certificate."""
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
    return GroupTable(rows, labels=[g.labels[x] for x in elems], validate=False)


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
