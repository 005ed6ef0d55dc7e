"""Finite loops as multiplication tables, and the doubled loop M(G, 2).

A loop is a finite quasigroup with identity element 0.  Given a group G of
order N, the doubled loop lives on 2N elements: indices 0..N-1 are G, and
N + g stands for the coset element g*u (so u itself is index N).  The
product extends the group by the three twisted rules

    g1 * (g2 u) = (g2 g1) u
    (g1 u) * g2 = (g1 g2^-1) u
    (g1 u) * (g2 u) = g2^-1 g1

which always produce a Moufang loop; it is associative exactly when G is
abelian.  All identity checkers report the first counterexample in the
documented quantifier order (plain lexicographic iteration), together with
the values of both sides so failures can be replayed.

`LoopTable` shares the one table type of `groups`, where both axiom
certificates live: `is_loop`, `is_quasigroup` and a validated `LoopTable`
read `loop_axiom_failures`, and `is_associative` is re-exported from there.
A subloop is generated as a subgroup is, by `groups.closure`.

The doubled table is built from the one composition kernel of `groups`,
and every identity suite here runs through its one sweep, `groups._sweep`.
A cubic identity is an identity between translations (rows L_x: z -> x*z,
columns R_x: z -> z*x).  Up to order 256, for each x in turn, every side
is one byte string over all (y, z), built from whole rows and columns by a
few `join` and `translate` calls (`_moufang_blocks`); past order 256, one
tuple over z for each pair (x, y) (`_moufang_pairs`).  Each doubling rule
is an equality of two maps on G for fixed g1, gathered from whole rows and
columns of the loop's own table.  The generator identities keep their
per-instance sides, read over the last generator slot.  In every case the
first difference between the sides gives the counterexample and the
`checked` count of the per-instance iteration.
"""

from __future__ import annotations

from itertools import product as iproduct
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import CheckError
from .groups import GroupTable, IdentityReport, _cubic, _sweep, _Table, compose, composer
from .groups import is_associative, loop_axiom_failures

__all__ = [
    "LoopTable",
    "IdentityReport",
    "chein_loop",
    "is_quasigroup",
    "is_loop",
    "is_associative",
    "is_moufang",
    "moufang_values",
    "chein_values",
    "verify_chein_identities",
    "verify_doubling_identities",
    "MOUFANG_NAMES",
    "CHEIN_NAMES",
]

MOUFANG_NAMES = ("m1", "m2", "m3")
CHEIN_NAMES = ("c1", "c2", "c3")


class LoopTable(_Table):
    """A finite loop: `product[x][y]`, identity 0.

    Doubled loops remember their group half: `group_order` is N (so u is
    index N and indices >= N are the coset G*u), and `group_generators`
    marks the distinguished generators of the group part, if any.
    """

    def __init__(
        self,
        product: Sequence[Sequence[int]],
        labels: Optional[Sequence[str]] = None,
        group_order: Optional[int] = None,
        group_generators: Sequence[int] = (),
        validate: bool = True,
    ):
        self.group_order = group_order
        self.group_generators: Tuple[int, ...] = tuple(group_generators)
        super().__init__(product, labels, validate)

    def is_elementary_abelian(self) -> bool:
        """An elementary abelian group: commutative, exponent 2, associative."""
        p = self.product
        if any(p[x][x] != 0 for x in range(self.order)):
            return False
        if not self.is_commutative():
            return False
        return is_associative(self).holds


def is_quasigroup(rows: Sequence[Sequence[int]]) -> bool:
    """Every row and column a permutation of 0..n-1; no identity needed."""
    return all(axiom == "identity" for axiom, _ in loop_axiom_failures(rows))


def is_loop(rows: Sequence[Sequence[int]]) -> bool:
    return next(loop_axiom_failures(rows), None) is None


def chein_loop(g: GroupTable) -> LoopTable:
    """The doubled loop M(G, 2) on 2|G| elements (see module docstring),
    built once per group and kept in `g.memo`: callers share it and its memo.
    """
    if "double" in g.memo:
        return g.memo["double"]
    n = g.order
    gp, inv = g.product, g.inverse
    shift = tuple(range(n, 2 * n))  # g -> g*u
    rows: List[Tuple[int, ...]] = [()] * (2 * n)
    for a, col in enumerate(zip(*gp)):
        # a*b, a*(b u) = (b a) u; (a u)*b = (a b^-1) u, (a u)*(b u) = b^-1 a
        rows[a] = gp[a] + compose(shift, col)
        rows[n + a] = compose(shift, compose(gp[a], inv)) + compose(col, inv)
    labels = list(g.labels) + [("u" if a == 0 else f"{g.labels[a]}*u") for a in range(n)]
    g.memo["double"] = LoopTable(
        rows, labels=labels, group_order=n, group_generators=g.generators, validate=False
    )
    return g.memo["double"]


# ---------------------------------------------------------------------------
# identity reports


def moufang_values(t: LoopTable, name: str, x: int, y: int, z: int) -> Tuple[int, ...]:
    """Evaluate the sides of one Moufang identity at (x, y, z).

    m1: z*(x*(y*x)) == ((z*x)*y)*x
    m2: x*(y*(x*z)) == ((x*y)*x)*z
    m3: (x*y)*(z*x) == (x*(y*z))*x == x*((y*z)*x)   (both bracketings)

    `is_moufang` does not call this.  It stays public, like `chein_values`:
    both belong to the exported names that `tests/test_package.py` pins,
    and they are the per-instance definitions the tests check the sweeps'
    whole-row sides against.
    """
    p = t.product
    if name == "m1":
        return (p[z][p[x][p[y][x]]], p[p[p[z][x]][y]][x])
    if name == "m2":
        return (p[x][p[y][p[x][z]]], p[p[p[x][y]][x]][z])
    if name == "m3":
        w = p[y][z]
        return (p[p[x][y]][p[z][x]], p[p[x][w]][x], p[x][p[w][x]])
    raise ValueError(f"unknown Moufang identity {name!r}")


def _moufang_pairs(t: LoopTable) -> Dict[str, Callable]:
    p = t.product
    cols = list(zip(*p))
    after_l = [composer(row) for row in p]  # after_l[y](f) = f o L_y
    after_r = [composer(col) for col in cols]  # after_r[y](f) = f o R_y

    def m1(x: int):
        px, rx, then_rx = p[x], cols[x], after_r[x]
        return lambda y: (cols[px[p[y][x]]], then_rx(after_r[y](rx)))

    def m2(x: int):
        px, then_lx = p[x], after_l[x]
        return lambda y: (then_lx(after_l[y](px)), p[p[px[y]][x]])

    def m3(x: int):
        px, then_rx = p[x], after_r[x]
        rx_lx, lx_rx = after_l[x](cols[x]), then_rx(px)
        return lambda y: (then_rx(p[px[y]]), after_l[y](rx_lx), after_l[y](lx_rx))

    return dict(zip(MOUFANG_NAMES, (m1, m2, m3)))


def _moufang_blocks(t: LoopTable) -> Dict[str, Callable]:
    v = t.byte_views
    rows, cols, lpad, rpad, flat = v.rows, v.cols, v.padded_rows, v.padded_cols, v.flat
    join = b"".join

    def m1(x: int):
        rx = cols[x]  # for each y: the column of x*(y*x); R_y R_x
        return (
            join(map(cols.__getitem__, rx.translate(lpad[x]))),
            join(map(rx.translate, rpad)).translate(rpad[x]),
        )

    def m2(x: int):
        lx = rows[x]  # for each y: L_y L_x; the row of (x*y)*x
        return (
            join(map(lx.translate, lpad)).translate(lpad[x]),
            join(map(rows.__getitem__, lx.translate(rpad[x]))),
        )

    def m3(x: int):
        lx, rx = rows[x], cols[x]  # for each y: L_{xy} R_x; all of L_y under R_x L_x, L_x R_x
        return (
            join(map(rx.translate, map(lpad.__getitem__, lx))),
            flat.translate(lpad[x].translate(rpad[x])),
            flat.translate(rpad[x].translate(lpad[x])),
        )

    return dict(zip(MOUFANG_NAMES, (m1, m2, m3)))


def is_moufang(t: LoopTable) -> Dict[str, IdentityReport]:
    """All three Moufang identities over all triples (x, y, z).

    As translations, with L_x: z -> x*z and R_x: z -> z*x:

    m1: R_{x(yx)} == R_x R_y R_x
    m2: L_x L_y L_x == L_{(xy)x}
    m3: L_{xy} R_x == R_x L_x L_y == L_x R_x L_y
    """
    return _cubic(t, _moufang_pairs, _moufang_blocks)


def chein_values(t: LoopTable, name: str, g1: int, g2: int) -> Tuple[int, int]:
    """Evaluate the sides of one doubling rule at (g1, g2), g1, g2 in G.

    With u the coset representative (index N) and all products taken in the
    loop itself:

    c1: g1*(g2*u) == (g2*g1)*u
    c2: (g1*u)*g2 == (g1*g2^-1)*u
    c3: (g1*u)*(g2*u) == g2^-1*g1

    `verify_chein_identities` does not call this.  It stays public, like
    `moufang_values`: both belong to the exported names that
    `tests/test_package.py` pins, and they are the per-instance definitions
    the tests check the sweeps' whole-row sides against.  A loop without a
    group half is a bad argument (ValueError), as there.
    """
    p = t.product
    u = t.group_order
    if u is None:
        raise ValueError("loop does not carry a group half (group_order is None)")
    if name == "c1":
        return (p[g1][p[g2][u]], p[p[g2][g1]][u])
    if name == "c2":
        return (p[p[g1][u]][g2], p[p[g1][t.rinv[g2]]][u])
    if name == "c3":
        return (p[p[g1][u]][p[g2][u]], p[t.rinv[g2]][g1])
    raise ValueError(f"unknown doubling rule {name!r}")


def verify_chein_identities(t: LoopTable) -> Dict[str, IdentityReport]:
    """The three doubling rules over all pairs (g1, g2) in G x G.

    For each g1, every side is one tuple over g2, gathered from whole rows
    and columns of the loop's own table, so nothing assumes that g*u is
    index N + g or that g^-1 lies in G.  With `at_u` the map g2 -> g2*u
    and `u_col` the column of u:

    c1: row g1 after at_u == u_col after the column of g1 on G
    c2: row g1*u on G == u_col after row g1 after the inverse map
    c3: row g1*u after at_u == the column of g1 read at the inverses
    """
    if t.group_order is None:
        raise ValueError("loop does not carry a group half (group_order is None)")
    n = u = t.group_order
    p, inv = t.product, t.rinv[:n]
    u_col = tuple(map(itemgetter(u), p))
    at_u = u_col[:n]
    g_rows, inv_rows = p[:n], compose(p, inv)  # the rows of g2 and of g2^-1

    def col(g1: int, rows: Sequence[Tuple[int, ...]]) -> Tuple[int, ...]:
        return tuple(map(itemgetter(g1), rows))

    sides = {
        "c1": lambda g1: (compose(p[g1], at_u), compose(u_col, col(g1, g_rows))),
        "c2": lambda g1: (p[p[g1][u]][:n], compose(u_col, compose(p[g1], inv))),
        "c3": lambda g1: (compose(p[p[g1][u]], at_u), col(g1, inv_rows)),
    }
    return {name: _sweep(name, iproduct(range(n)), (n,), sides[name]) for name in CHEIN_NAMES}


def verify_doubling_identities(g: GroupTable) -> Dict[str, IdentityReport]:
    """Exhaustive identity suite for L = M(G, 2) over an involution-generated
    group (e.g. a Coxeter group with its simple reflections marked).

    Beyond the three doubling rules this checks, with S the marked
    generators and all products in L:

    - involution_squares: ((g1*g2)*u)^2 == e for g1, g2 in {e} + S
    - u_conjugation_right: (u*w)*u == w^-1 for every w in G
    - u_conjugation_left:  u*(w*u) == w^-1 for every w in G
    - gen_u_swap:        s*u == u*s
    - gen_left_absorb:   si*(sj*u) == (sj*si)*u
    - gen_right_absorb:  (si*u)*sj == (si*sj)*u
    - gen_pair_collapse: (si*u)*(sj*u) == sj*si
    - gen_right_commute: (u*si)*sj == sj*(u*si)
    - left_peeling: u*(s_{i1}...s_{ik}) == s_{i1}*(u*(s_{i2}...s_{ik})) for
      every generator word of length 1..4 (instances are index tuples into
      the generator list, iterated by length then lexicographically)

    Generator identities quantify over generator *slots*; counterexamples
    report slot indices (0-based).  All marked generators must be
    involutions.  Each identity is one `_sweep`: the u-conjugations compare
    gathers of row u and the column of u with the inverse map, and the
    generator identities keep their per-instance sides, read over the last
    slot.
    """
    if not g.generators:
        raise ValueError("group has no marked generators")
    if any(g.product[s][s] != 0 for s in g.generators):
        raise CheckError("marked generators must be involutions")
    t = chein_loop(g)
    p = t.product
    n = u = g.order
    gens = g.generators
    m = len(gens)
    u_col = tuple(map(itemgetter(u), p))

    def over_last(name: str, keys: Iterable[Tuple[int, ...]], width: int, values: Callable) -> IdentityReport:
        # the instances key + (j,), j < width: each side as one tuple over j
        return _sweep(
            name, keys, (width,), lambda *key: tuple(zip(*(values(*key, j) for j in range(width))))
        )

    out: Dict[str, IdentityReport] = {}
    core = [0] + list(gens)
    out["involution_squares"] = over_last(
        "involution_squares",
        iproduct(range(len(core))),
        len(core),
        lambda i, j: (p[p[p[core[i]][core[j]]][u]][p[p[core[i]][core[j]]][u]], 0),
    )
    out["u_conjugation_right"] = _sweep(
        "u_conjugation_right", [()], (n,), lambda: (compose(u_col, p[u][:n]), g.inverse)
    )
    out["u_conjugation_left"] = _sweep(
        "u_conjugation_left", [()], (n,), lambda: (compose(p[u], u_col[:n]), g.inverse)
    )
    out.update(verify_chein_identities(t))
    out["gen_u_swap"] = over_last("gen_u_swap", [()], m, lambda i: (p[gens[i]][u], p[u][gens[i]]))
    slot_pairs = {
        "gen_left_absorb": lambda i, j: (p[gens[i]][p[gens[j]][u]], p[p[gens[j]][gens[i]]][u]),
        "gen_right_absorb": lambda i, j: (p[p[gens[i]][u]][gens[j]], p[p[gens[i]][gens[j]]][u]),
        "gen_pair_collapse": lambda i, j: (p[p[gens[i]][u]][p[gens[j]][u]], p[gens[j]][gens[i]]),
        "gen_right_commute": lambda i, j: (p[p[u][gens[i]]][gens[j]], p[gens[j]][p[u][gens[i]]]),
    }
    for name, values in slot_pairs.items():
        out[name] = over_last(name, iproduct(range(m)), m, values)

    def peel(*word: int) -> Tuple[int, int]:
        w = 0
        for i in word:
            w = g.product[w][gens[i]]
        tail = 0
        for i in word[1:]:
            tail = g.product[tail][gens[i]]
        return (p[u][w], p[gens[word[0]]][p[u][tail]])

    # the words of length 1..4 by length, then lexicographic: every prefix
    # of length 0..3 in that order, then its last letter
    prefixes = (w for k in range(4) for w in iproduct(range(m), repeat=k))
    out["left_peeling"] = over_last("left_peeling", prefixes, m, peel)
    return out
