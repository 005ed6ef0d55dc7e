"""Differential tests: the composition kernels against the reference paths
they replaced.

The references below are the earlier implementations, condensed: the
table build that replays a shortlex word for every entry, the doubled loop
built entry by entry, the per-triple identity sweeps, the cubic
associativity loop of group validation, and the per-pair homomorphism
check.  Both sides must agree entry for entry, including whole
`IdentityReport`s and the first failing instance, on the frozen Coxeter
corpus and its Chein loops, on relabelled small groups, and on non-Moufang
loops whose failures land at many positions.

The GF(2) elimination with lowest-bit pivots is checked against the
column-scan `gf2_rref` it replaced: equal pivots and rows on `hypothesis`
matrices, equal answers from the routines built on it, and equal
`cohomology` results with the reference patched in.

HLT skips a relator that already closes at the coset being scanned, and
reads liveness off the union-find parent; `reference_enumerate_cosets`,
the loop that scanned every relator and asked `rep`, must make the same
`define` calls and return the same columns.

The cubic sweeps have two widths, per x on bytes up to order 256 and per
pair (x, y) on tuples past it; both are run on the same tables, across the
boundary, and must give the same reports.

Every identity report comes from the one sweep `groups._sweep`.  Its
reference is `_run`, one instance at a time, with the per-instance sides:
`moufang_values` for m1-m3, and `chein_values` and the generator suite's
lambdas for `verify_doubling_identities`, whose whole reports must be equal
on the corpus and on forged doubles (entries swapped inside the coset
half, the coset half relabelled), where g*u is not index N + g and the
rules fail at many positions.

`group`'s element statistics walk words through a regular action
(`element_statistics`) instead of reading them from a dense table; the
reference is `GroupTable.element_order`, `is_abelian` and
`is_elementary_abelian`, and the involution list `GroupTable` used to
carry, on `enumerate_group`'s table, for diagrams and for table inputs.
"""

import random
import subprocess
import sys
from itertools import product as iproduct
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coxloops import coxeter, gf2
from coxloops.cohomology import build_complex, cohomology
from coxloops.coxeter import (
    INF,
    CoxeterDiagram,
    _enumerate_cosets,
    _word_label,
    diagram_a,
    diagram_b,
    diagram_d,
    diagram_e,
    diagram_f4,
    diagram_h,
    diagram_i2,
    enumerate_group,
    recognize_spherical,
    regular_action,
)
from coxloops.errors import CheckError, ResourceLimitError
from coxloops.graphs import Graph
from coxloops.groups import (
    ElementStatistics,
    GroupTable,
    _assoc_blocks,
    _assoc_pairs,
    _per_x,
    _sweep,
    alternating4,
    cyclic,
    dihedral,
    direct_product,
    element_statistics,
    klein4,
    quaternion,
    symmetric3,
)
from coxloops.loops import (
    CHEIN_NAMES,
    MOUFANG_NAMES,
    IdentityReport,
    LoopTable,
    _moufang_blocks,
    _moufang_pairs,
    chein_loop,
    chein_values,
    is_associative,
    is_moufang,
    moufang_values,
    verify_doubling_identities,
)
from coxloops.morphisms import automorphism_group, is_homomorphism
from test_complex_reference import GRAPHS, graphs

# ---------------------------------------------------------------------------
# reference paths


class ReferenceCosetTable:
    """The row-major HLT table the column layout replaced: `tab[c][x]` is
    coset c times generator x, and compaction renumbers through a dict."""

    def __init__(self, ngens: int, cap: int):
        self.ngens, self.cap = ngens, cap
        self.tab: List[List[int]] = [[-1] * ngens]
        self.parent: List[int] = [0]
        self.live = 1

    def rep(self, c: int) -> int:
        p = self.parent
        root = c
        while p[root] != root:
            root = p[root]
        while p[c] != root:
            p[c], c = root, p[c]
        return root

    def define(self, c: int, x: int) -> int:
        d = len(self.tab)
        self.tab.append([-1] * self.ngens)
        self.parent.append(d)
        self.tab[c][x], self.tab[d][x] = d, c
        self.live += 1
        if self.live > self.cap:
            raise ResourceLimitError(f"coset enumeration exceeded cap={self.cap} live cosets")
        return d

    def merge(self, a: int, b: int, queue: List[int]) -> None:
        a, b = sorted((self.rep(a), self.rep(b)))
        if a != b:
            self.parent[b] = a
            self.live -= 1
            queue.append(b)

    def coincidence(self, a: int, b: int) -> None:
        queue: List[int] = []
        self.merge(a, b, queue)
        for y in queue:  # grows while it is read
            for x in range(self.ngens):
                d = self.tab[y][x]
                if d < 0:
                    continue
                self.tab[y][x] = -1
                if self.tab[d][x] == y:
                    self.tab[d][x] = -1
                mu, nu = self.rep(y), self.rep(d)
                if self.tab[mu][x] >= 0:
                    self.merge(self.tab[mu][x], nu, queue)
                elif self.tab[nu][x] >= 0:
                    self.merge(self.tab[nu][x], mu, queue)
                else:
                    self.tab[mu][x], self.tab[nu][x] = nu, mu

    def scan_and_fill(self, alpha: int, word: Sequence[int]) -> None:
        tab = self.tab
        f, i, b, j = alpha, 0, alpha, len(word) - 1
        while True:
            while i <= j and tab[f][word[i]] >= 0:
                f, i = tab[f][word[i]], i + 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and tab[b][word[j]] >= 0:
                b, j = tab[b][word[j]], j - 1
            if j < i:
                return self.coincidence(f, b)
            if j == i:
                tab[f][word[i]], tab[b][word[i]] = b, f
                return
            self.define(f, word[i])

    def compact(self) -> List[List[int]]:
        live = [c for c in range(len(self.tab)) if self.rep(c) == c]
        renum = {c: i for i, c in enumerate(live)}
        out = []
        for c in live:
            row = self.tab[c]
            if not all(e >= 0 for e in row):
                raise CheckError(f"coset {c} has an undefined entry after enumeration")
            out.append([renum[self.rep(e)] for e in row])
        return out


def reference_hlt(d: CoxeterDiagram, cap: int, made: Optional[List] = None) -> ReferenceCosetTable:
    """HLT run to completion on the row-major table; the table is also
    appended to `made`, so a run that trips the cap can be inspected."""
    n = d.rank
    labels = [(i, j, d.matrix[i][j]) for i in range(n) for j in range(i + 1, n)]
    if any(m != INF and 2 * m > cap for _, _, m in labels):
        raise ResourceLimitError(f"coset enumeration exceeded cap={cap} live cosets")
    relators = [[i, j] * m for i, j, m in labels if m != INF]
    ct = ReferenceCosetTable(n, cap)
    if made is not None:
        made.append(ct)
    alpha = 0
    while alpha < len(ct.tab):
        if ct.rep(alpha) == alpha:
            for w in relators:
                ct.scan_and_fill(alpha, w)
                if ct.rep(alpha) != alpha:
                    break
            if ct.rep(alpha) == alpha:
                for x in range(n):
                    if ct.tab[alpha][x] < 0:
                        ct.define(alpha, x)
        alpha += 1
    return ct


def reference_regular_action(d: CoxeterDiagram, cap: int = 10000):
    """(act, words, tree) from the row-major table: BFS shortlex renumbering
    with a stored word for every element."""
    action = reference_hlt(d, cap).compact()
    n_cos, n = len(action), d.rank
    order_of = [-1] * n_cos
    order_of[0] = 0
    bfs, words, tree = [0], [()], [(0, -1)]
    head = 0
    while head < len(bfs):
        c = bfs[head]
        for x in range(n):
            e = action[c][x]
            if order_of[e] < 0:
                order_of[e] = len(bfs)
                words.append(words[head] + (x,))
                tree.append((head, x))
                bfs.append(e)
        head += 1
    if head != n_cos:
        raise CheckError("coset graph must be connected")
    act = tuple(tuple(order_of[action[c][x]] for c in bfs) for x in range(n))
    return act, tuple(words), tuple(tree)


def reference_element_statistics(act, words) -> ElementStatistics:
    """The statistics walk over stored words, one word per element."""
    n = len(words)
    counts: Dict[int, int] = {}
    for g, word in enumerate(words):
        y, k = 0, 0
        while True:
            for x in word:
                y = act[x][y]
            k += 1
            if y == 0:
                break
            if k >= n:
                raise CheckError(f"the walk of element {g} is not back at 0 after {n} steps")
        counts[k] = counts.get(k, 0) + 1
    gens = [row[0] for row in act]
    abelian = all(act[i][gens[j]] == act[j][gens[i]] for i in range(len(gens)) for j in range(i))
    return ElementStatistics(
        n, abelian, max(counts) <= 2, counts.get(2, 0), {k: counts[k] for k in sorted(counts)}
    )


def tree_words(tree) -> List[Tuple[int, ...]]:
    """Each element's word: the generators on its path from 0 in `tree`."""
    words: List[Tuple[int, ...]] = [()]
    for parent, x in tree[1:]:
        words.append(words[parent] + (x,))
    return words


def reference_enumerate_group(d: CoxeterDiagram) -> GroupTable:
    """BFS shortlex renumbering, then a*b by replaying b's word from a."""
    act, words, _ = reference_regular_action(d)
    n_cos, n = len(words), d.rank
    product = []
    for a in range(n_cos):
        row = []
        for b in range(n_cos):
            c = a
            for x in words[b]:
                c = act[x][c]
            row.append(c)
        product.append(row)
    generators = tuple(act[x][0] for x in range(n))
    labels = [_word_label(w) for w in words]
    return GroupTable(product, labels=labels, generators=generators, words=words, validate=False)


def reference_chein_loop(g: GroupTable) -> LoopTable:
    n = g.order
    gp, gi = g.product, g.inverse
    rows = [[0] * (2 * n) for _ in range(2 * n)]
    for a in range(n):
        ra, rau = rows[a], rows[n + a]
        for b in range(n):
            ra[b] = gp[a][b]
            ra[n + b] = n + gp[b][a]
            rau[b] = n + gp[a][gi[b]]
            rau[n + b] = gp[gi[b]][a]
    labels = list(g.labels) + [("u" if a == 0 else f"{g.labels[a]}*u") for a in range(n)]
    return LoopTable(rows, labels=labels, group_order=n, group_generators=g.generators, validate=False)


def _run(
    name: str,
    instances: Iterable[Tuple[int, ...]],
    fn: Callable[..., Tuple[int, ...]],
) -> IdentityReport:
    checked = 0
    for xs in instances:
        checked += 1
        vals = fn(*xs)
        v0 = vals[0]
        if any(v != v0 for v in vals[1:]):
            return IdentityReport(name, False, checked, tuple(xs), tuple(vals))
    return IdentityReport(name, True, checked, None, None)


def reference_chein_identities(t: LoopTable) -> Dict[str, IdentityReport]:
    """The three doubling rules one pair (g1, g2) at a time."""
    n = t.group_order
    out = {}
    for name in CHEIN_NAMES:
        out[name] = _run(
            name,
            iproduct(range(n), repeat=2),
            lambda g1, g2, _n=name: chein_values(t, _n, g1, g2),
        )
    return out


def reference_doubling_identities(g: GroupTable) -> Dict[str, IdentityReport]:
    """`verify_doubling_identities` one instance at a time."""
    t = chein_loop(g)
    p = t.product
    u = g.order
    gens = g.generators
    out: Dict[str, IdentityReport] = {}

    core = [0] + list(gens)
    out["involution_squares"] = _run(
        "involution_squares",
        iproduct(range(len(core)), repeat=2),
        lambda i, j: (p[p[p[core[i]][core[j]]][u]][p[p[core[i]][core[j]]][u]], 0),
    )
    out["u_conjugation_right"] = _run(
        "u_conjugation_right",
        ((w,) for w in range(g.order)),
        lambda w: (p[p[u][w]][u], g.inverse[w]),
    )
    out["u_conjugation_left"] = _run(
        "u_conjugation_left",
        ((w,) for w in range(g.order)),
        lambda w: (p[u][p[w][u]], g.inverse[w]),
    )
    out.update(reference_chein_identities(t))
    out["gen_u_swap"] = _run(
        "gen_u_swap",
        ((i,) for i in range(len(gens))),
        lambda i: (p[gens[i]][u], p[u][gens[i]]),
    )
    out["gen_left_absorb"] = _run(
        "gen_left_absorb",
        iproduct(range(len(gens)), repeat=2),
        lambda i, j: (p[gens[i]][p[gens[j]][u]], p[p[gens[j]][gens[i]]][u]),
    )
    out["gen_right_absorb"] = _run(
        "gen_right_absorb",
        iproduct(range(len(gens)), repeat=2),
        lambda i, j: (p[p[gens[i]][u]][gens[j]], p[p[gens[i]][gens[j]]][u]),
    )
    out["gen_pair_collapse"] = _run(
        "gen_pair_collapse",
        iproduct(range(len(gens)), repeat=2),
        lambda i, j: (p[p[gens[i]][u]][p[gens[j]][u]], p[gens[j]][gens[i]]),
    )
    out["gen_right_commute"] = _run(
        "gen_right_commute",
        iproduct(range(len(gens)), repeat=2),
        lambda i, j: (p[p[u][gens[i]]][gens[j]], p[gens[j]][p[u][gens[i]]]),
    )

    def words() -> Iterable[Tuple[int, ...]]:
        for k in range(1, 5):
            yield from iproduct(range(len(gens)), repeat=k)

    def peel(*word: int) -> Tuple[int, int]:
        w = 0
        for i in word:
            w = g.product[w][gens[i]]
        tail = 0
        for i in word[1:]:
            tail = g.product[tail][gens[i]]
        return (p[u][w], p[gens[word[0]]][p[u][tail]])

    out["left_peeling"] = _run("left_peeling", words(), peel)
    return out


def reference_is_associative(t) -> IdentityReport:
    p, n = t.product, t.order
    return _run(
        "assoc", iproduct(range(n), repeat=3), lambda x, y, z: (p[p[x][y]][z], p[x][p[y][z]])
    )


def reference_is_moufang(t) -> Dict[str, IdentityReport]:
    return {
        name: _run(
            name,
            iproduct(range(t.order), repeat=3),
            lambda x, y, z, _n=name: moufang_values(t, _n, x, y, z),
        )
        for name in MOUFANG_NAMES
    }


def reference_associativity_failure(rows: Sequence[Sequence[int]]) -> Optional[Tuple[int, int, int]]:
    """The first (a, b, c) of the cubic validation loop with (ab)c != a(bc)."""
    n = len(rows)
    for a, b, c in iproduct(range(n), repeat=3):
        if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
            return (a, b, c)
    return None


def reference_is_homomorphism(images: Sequence[int], dom, cod) -> bool:
    dp, cp = dom.product, cod.product
    n = len(dp)
    if len(images) != n:
        return False
    return all(images[dp[x][y]] == cp[images[x]][images[y]] for x in range(n) for y in range(n))


# ---------------------------------------------------------------------------
# helpers


def relabel_rows(rows: Sequence[Sequence[int]], perm: Sequence[int]) -> List[List[int]]:
    """The same table with element x renamed perm[x] (perm fixes 0)."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[rows[a][b]]
    return out


def swap_intercalate(g: GroupTable, s: int, x: int, y: int) -> List[List[int]]:
    """g's table with the 2x2 subsquare on rows {x, xs} and columns
    {y, ys} swapped, for a central involution s and x, y not in {e, s}: the
    result is still a loop with identity 0, and rarely a group."""
    p = g.product
    rows = [list(r) for r in p]
    xs, ys = p[x][s], p[y][s]
    for a in (x, xs):
        rows[a][y], rows[a][ys] = rows[a][ys], rows[a][y]
    return rows


def swap_first_intercalate(rows: Sequence[Sequence[int]], a: int, c: int) -> List[List[int]]:
    """`rows` with the 2x2 subsquare on rows a, b and columns c, d swapped,
    where a*c = b*d and a*d = b*c, for the least such b: a loop again when
    a, c and d are not the identity, and one needing no central involution."""
    rows = [list(r) for r in rows]
    for b in range(1, len(rows)):
        d = rows[a].index(rows[b][c])
        if b != a and 0 != d != c and rows[b][d] == rows[a][c]:
            for r in (a, b):
                rows[r][c], rows[r][d] = rows[r][d], rows[r][c]
            return rows
    raise ValueError(f"no intercalate on row {a} and column {c}")


def left_zero(n: int, x0: int, row: Sequence[int], transpose: bool = False) -> LoopTable:
    """Not a loop: a*b = a, except that row x0 is `row` (or the transpose).
    Both sweep widths read only the entries, so failures can be placed at
    any x, also the first and the last, which a loop's identity forbids."""
    rows = [[a] * n for a in range(n)]
    rows[x0] = list(row)
    return LoopTable(list(zip(*rows)) if transpose else rows, validate=False)


def reports_by_width(t) -> Tuple[Dict[str, IdentityReport], Dict[str, IdentityReport]]:
    """assoc and m1-m3 swept per pair (x, y) on tuples over z, and per x on
    bytes over (y, z)."""
    n = t.order
    pairs, blocks = {**_assoc_pairs(t), **_moufang_pairs(t)}, {**_assoc_blocks(t), **_moufang_blocks(t)}
    return (
        {name: _sweep(name, iproduct(range(n), repeat=2), (n,), _per_x(at)) for name, at in pairs.items()},
        {name: _sweep(name, iproduct(range(n)), (n, n), at) for name, at in blocks.items()},
    )


def dispatched(t) -> Dict[str, IdentityReport]:
    return {"assoc": is_associative(t), **is_moufang(t)}


def reference_reports(t) -> Dict[str, IdentityReport]:
    return {"assoc": reference_is_associative(t), **reference_is_moufang(t)}


def assert_same_loop(new: LoopTable, ref: LoopTable) -> None:
    assert (new.product, new.labels, new.rinv) == (ref.product, ref.labels, ref.rinv)
    assert (new.group_order, new.group_generators) == (ref.group_order, ref.group_generators)


# ---------------------------------------------------------------------------
# the frozen Coxeter corpus

CORPUS = {
    "A1": diagram_a(1),
    "A2": diagram_a(2),
    "A3": diagram_a(3),
    "A4": diagram_a(4),
    "B3": diagram_b(3),
    "D4": diagram_d(4),
    "F4": diagram_f4(),
    "H3": diagram_h(3),
    "I2_5": diagram_i2(5),
    "I2_8": diagram_i2(8),
    "A1xB2": CoxeterDiagram.from_edges(3, [(2, 3, 4)]),
}
GROUPS = {name: enumerate_group(d) for name, d in CORPUS.items()}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_enumerate_group_matches_word_replay(name):
    new, ref = GROUPS[name], reference_enumerate_group(CORPUS[name])
    assert (new.product, new.labels, new.words) == (ref.product, ref.labels, ref.words)
    assert (new.generators, new.inverse) == (ref.generators, ref.inverse)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_chein_loop_matches_entrywise_build(name):
    g = GROUPS[name]
    new, ref = chein_loop(g), reference_chein_loop(g)
    assert_same_loop(new, ref)
    if g.order <= 240:
        # associativity fails within the first rows on a nonabelian group's
        # loop (after 5.3 M instances on F4's, too slow for the reference)
        assert is_associative(new) == reference_is_associative(ref)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "I2_5", "I2_8", "A1xB2"])
def test_identity_reports_match_per_triple_sweeps(name):
    g = GROUPS[name]
    t = chein_loop(g)
    assert is_moufang(t) == reference_is_moufang(t)
    assert is_associative(t) == reference_is_associative(t)
    assert is_associative(g) == reference_is_associative(g)


@pytest.mark.slow
def test_identity_reports_match_per_triple_sweeps_b3_loop():
    t = chein_loop(GROUPS["B3"])
    assert is_moufang(t) == reference_is_moufang(t)


@pytest.mark.slow
@pytest.mark.parametrize("name", ["H3", "A4"])
def test_block_sweeps_match_per_triple_sweeps_at_loop_order_240(name):
    t = chein_loop(GROUPS[name])
    assert t.order == 240
    assert is_moufang(t) == reference_is_moufang(t)
    assert "byte_views" in vars(t)


# ---------------------------------------------------------------------------
# the doubling rules and the generator suite: whole-row sides per key
# against one instance at a time


def forged_double(g: GroupTable, swaps: Sequence[Tuple[int, int, int]], coset_perm: Sequence[int] = ()) -> GroupTable:
    """A copy of g whose double is M(G, 2) with the coset half relabelled by
    `coset_perm` (a permutation of N..2N-1, so that g*u need not be index
    N + g), then, for each (r, c, d) in `swaps`, with the entries (r, c)
    and (r, d) swapped.  The rows stay permutations, so every element keeps
    a right inverse; the table is rarely a loop."""
    n = g.order
    perm = list(range(n)) + (list(coset_perm) or list(range(n, 2 * n)))
    rows = relabel_rows(chein_loop(g).product, perm)
    for r, c, d in swaps:
        rows[r][c], rows[r][d] = rows[r][d], rows[r][c]
    h = GroupTable(g.product, labels=g.labels, generators=g.generators, words=g.words, validate=False)
    h.memo["double"] = LoopTable(rows, group_order=n, group_generators=g.generators, validate=False)
    return h


def seeded_forgeries(seed: int, count: int) -> List[GroupTable]:
    """`count` forged doubles: 1-3 swaps each, inside the coset half (a
    group row's swaps stay in the coset columns), every other one with its
    coset half relabelled."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        g = GROUPS[["A2", "A3", "B3", "I2_5", "A1xB2", "H3"][k % 6]]
        n = g.order
        perm = list(range(n, 2 * n))
        rng.shuffle(perm)
        swaps = []
        for _ in range(1 + k % 3):
            r = rng.randrange(2 * n)
            swaps.append((r, *rng.sample(range(n if r < n else 0, 2 * n), 2)))
        out.append(forged_double(g, swaps, perm if k % 2 else ()))
    return out


B3 = GROUPS["B3"]
FORGED = seeded_forgeries(3, 12) + [
    # row 5 of G loses its 0 to a coset column: 5's right inverse is a coset element
    forged_double(B3, [(5, B3.inverse[5], B3.order + 3)]),
]


@pytest.mark.parametrize("name", sorted(set(CORPUS) - {"F4"}))
def test_doubling_identities_match_per_instance(name):
    g = GROUPS[name]
    assert verify_doubling_identities(g) == reference_doubling_identities(g)


@pytest.mark.slow
def test_doubling_identities_match_per_instance_f4():
    g = GROUPS["F4"]
    assert verify_doubling_identities(g) == reference_doubling_identities(g)


@pytest.mark.parametrize("k", range(len(FORGED)))
def test_doubling_identities_match_on_forged_doubles(k):
    assert verify_doubling_identities(FORGED[k]) == reference_doubling_identities(FORGED[k])


def test_forged_doubles_fail_everywhere():
    # the forgeries exercise each doubling rule at several positions, and
    # several generator identities
    failures: Dict[str, set] = {}
    for g in FORGED:
        for name, rep in verify_doubling_identities(g).items():
            if not rep.holds:
                failures.setdefault(name, set()).add((g.order, rep.counterexample))
    assert all(len(failures[name]) >= 5 for name in CHEIN_NAMES)
    assert {"gen_u_swap", "gen_left_absorb", "gen_right_absorb", "gen_pair_collapse", "left_peeling"} <= set(failures)
    assert any(chein_loop(g).product[g.order - 1][g.order] != 2 * g.order - 1 for g in FORGED)


@st.composite
def forged_doubles(draw):
    g = GROUPS[draw(st.sampled_from(["A1", "A2", "A3", "I2_5", "I2_8", "A1xB2"]))]
    n = g.order
    perm = draw(st.permutations(range(n, 2 * n)))
    cells = st.integers(0, 2 * n - 1).flatmap(
        lambda r: st.tuples(st.just(r), *[st.integers(n if r < n else 0, 2 * n - 1)] * 2)
    )
    return forged_double(g, draw(st.lists(cells, max_size=4)), perm)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(forged_doubles())
def test_doubling_identities_match_on_random_forgeries(g):
    assert verify_doubling_identities(g) == reference_doubling_identities(g)


# ---------------------------------------------------------------------------
# the width boundary: bytes up to order 256, tuples past it


def holds(n: int) -> Dict[str, IdentityReport]:
    return {name: IdentityReport(name, True, n**3, None, None) for name in ("assoc",) + MOUFANG_NAMES}


# the first failing triples, placed at the first and the last x and at z = n - 1
LAST = 255
PLACED = [
    (left_zero(3, 0, [2, 2, 0]), {"assoc": (0, 0, 0), "m1": (0, 1, 0), "m2": (0, 0, 2), "m3": (0, 0, 0)}),
    (left_zero(3, 2, [2, 2, 0], transpose=True), {"assoc": (2, 0, 2), "m1": (2, 0, 0), "m2": (0, 2, 2), "m3": (2, 0, 0)}),
    (
        left_zero(256, 0, [0] * LAST + [LAST]),
        {"assoc": (0, 1, LAST), "m1": (1, LAST, 0), "m2": (0, 1, LAST), "m3": (0, 1, LAST)},
    ),
    (
        left_zero(256, LAST, [LAST] * LAST + [0]),
        {"assoc": (LAST, 0, LAST), "m1": (0, LAST, LAST), "m2": (LAST, 0, 0), "m3": (LAST, 0, 0)},
    ),
    (
        left_zero(256, LAST, [LAST] * LAST + [0], transpose=True),
        {"assoc": (LAST, 0, LAST), "m1": (LAST, 0, 0), "m2": (0, LAST, LAST), "m3": (LAST, 0, 0)},
    ),
]


@pytest.mark.parametrize("k", range(len(PLACED)))
def test_widths_agree_on_placed_failures(k):
    t, first = PLACED[k]
    by_pairs, by_blocks = reports_by_width(t)
    assert by_blocks == by_pairs
    assert {name: r.counterexample for name, r in by_blocks.items()} == first
    assert dispatched(t) == by_blocks
    if t.order < 256:
        assert by_blocks == reference_reports(t)


@pytest.mark.parametrize(
    "rows",
    [
        [[0]],
        cyclic(2).product,
        chein_loop(cyclic(1)).product,
        chein_loop(cyclic(2)).product,
        swap_intercalate(chein_loop(dihedral(64)), 32, 1, 1),
        swap_intercalate(chein_loop(dihedral(64)), 32, 255, 255),
        swap_first_intercalate(chein_loop(dihedral(64)).product, 255, 255),
    ],
    ids=["order_1", "order_2", "double_1", "double_2", "double_d64_swapped_first",
         "double_d64_swapped_last", "double_d64_swapped_corner"],
)
def test_widths_agree_up_to_order_256(rows):
    t = LoopTable(rows)
    reports = dispatched(t)
    assert "byte_views" in vars(t)  # the sweeps ran on bytes
    assert reports_by_width(t) == (reports, reports)
    assert reports == reference_reports(t)


def test_widths_agree_on_cyclic_256():
    # every identity holds, over 256^3 triples: too many for the reference
    t = LoopTable(cyclic(256).product)
    reports = dispatched(t)
    assert "byte_views" in vars(t)
    assert reports_by_width(t) == (reports, reports)
    assert reports == holds(256)


def test_per_pair_width_past_order_256():
    # entries past 255 do not fit in a byte: the sweeps stay on tuples
    t = LoopTable(cyclic(257).product)
    assert dispatched(t) == holds(257)
    assert "byte_views" not in vars(t)
    with pytest.raises(ValueError):
        t.byte_views
    swapped = LoopTable(swap_first_intercalate(chein_loop(dihedral(65)).product, 1, 1))
    assert swapped.order == 260
    reports = dispatched(swapped)
    assert reports == reference_reports(swapped)
    assert not any(r.holds for r in reports.values())
    assert "byte_views" not in vars(swapped)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B3", "I2_5", "A1xB2"])
def test_homomorphism_check_matches_on_loop_automorphisms(name):
    t = chein_loop(GROUPS[name])
    elements = automorphism_group(t).elements
    for k, images in enumerate(elements[:: 1 + len(elements) // 64]):
        assert is_homomorphism(images, t, t) and reference_is_homomorphism(images, t, t)
        # transpose two images: still a bijection, no longer a homomorphism
        bad = list(images)
        i, j = 1 + k % (t.order - 1), t.order - 1 - k % (t.order - 1)
        bad[i], bad[j] = bad[j], bad[i]
        assert is_homomorphism(bad, t, t) == reference_is_homomorphism(bad, t, t)


# ---------------------------------------------------------------------------
# hypothesis: relabellings and non-Moufang loops

SMALL = [symmetric3(), dihedral(4), quaternion(), cyclic(6), klein4(), cyclic(5),
         direct_product(cyclic(2), cyclic(4))]

# groups with a central involution s, for the intercalate swap
CENTRAL = [(cyclic(4), 2), (klein4(), 3), (cyclic(6), 3), (cyclic(8), 4), (cyclic(12), 6),
           (quaternion(), 1), (dihedral(4), 2), (direct_product(cyclic(2), cyclic(4)), 2),
           (direct_product(quaternion(), cyclic(2)), 2), (direct_product(dihedral(4), cyclic(2)), 1)]


@st.composite
def relabelled_groups(draw):
    g = draw(st.sampled_from(SMALL))
    perm = [0] + draw(st.permutations(range(1, g.order)))
    return GroupTable(relabel_rows(g.product, perm), labels=[g.labels[perm.index(x)] for x in range(g.order)])


@st.composite
def swapped_loops(draw):
    """A relabelled group table with one intercalate swapped."""
    g, s = draw(st.sampled_from(CENTRAL))
    outside = [a for a in range(g.order) if a not in (0, s)]
    x, y = draw(st.sampled_from(outside)), draw(st.sampled_from(outside))
    perm = [0] + draw(st.permutations(range(1, g.order)))
    return relabel_rows(swap_intercalate(g, s, x, y), perm)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(relabelled_groups())
def test_relabelled_chein_loops_match(g):
    new, ref = chein_loop(g), reference_chein_loop(g)
    assert_same_loop(new, ref)
    reports = dispatched(new)
    assert reports == reference_reports(ref)
    assert reports_by_width(new) == (reports, reports)
    assert reports_by_width(g) == (dispatched(g),) * 2


@settings(derandomize=True, max_examples=40, deadline=None)
@given(relabelled_groups(), st.data())
def test_relabelled_loops_match(g, data):
    # relabelling the doubled loop moves its associativity failures around
    t = chein_loop(g)
    perm = [0] + data.draw(st.permutations(range(1, t.order)))
    rel = LoopTable(relabel_rows(t.product, perm))
    reports = dispatched(rel)
    assert reports == reference_reports(rel)
    assert reports_by_width(rel) == (reports, reports)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(swapped_loops())
def test_non_moufang_loops_match(rows):
    t = LoopTable(rows)
    reports = dispatched(t)
    assert reports == reference_reports(t)
    assert reports_by_width(t) == (reports, reports)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.integers(0, n - 1), st.lists(st.integers(0, n - 1), min_size=n, max_size=n), st.booleans())
))
def test_widths_agree_on_placed_rows(case):
    x0, row, transpose = case
    t = left_zero(len(row), x0, row, transpose)
    by_pairs, by_blocks = reports_by_width(t)
    assert by_pairs == by_blocks == reference_reports(t)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(swapped_loops())
def test_group_validation_reports_the_first_failing_triple(rows):
    failure = reference_associativity_failure(rows)
    if failure is None:
        assert GroupTable(rows).order == len(rows)
    else:
        with pytest.raises(CheckError, match=r"associativity fails at \((\d+),(\d+),(\d+)\)") as e:
            GroupTable(rows)
        assert str(e.value) == "associativity fails at ({},{},{})".format(*failure)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(relabelled_groups(), st.data())
def test_homomorphism_check_matches_on_random_maps(g, data):
    t = chein_loop(g)
    auts = automorphism_group(g).elements
    cases = [
        (g, g, data.draw(st.sampled_from(auts))),
        (g, g, data.draw(st.lists(st.integers(0, g.order - 1), min_size=g.order, max_size=g.order))),
        (g, t, list(range(g.order))),  # the inclusion G -> M(G, 2)
        (t, t, [0] + data.draw(st.permutations(range(1, t.order)))),
    ]
    for dom, cod, images in cases:
        assert is_homomorphism(images, dom, cod) == reference_is_homomorphism(images, dom, cod)


# ---------------------------------------------------------------------------
# GF(2) elimination: lowest-bit pivots against the column scan


def reference_rref(rows: Sequence[int], ncols: int) -> Tuple[List[int], List[int]]:
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


def reference_is_in_rowspan(rows: Sequence[int], ncols: int, v: int) -> bool:
    """Membership by two ranks."""
    r = len(reference_rref(rows, ncols)[0])
    return len(reference_rref(list(rows) + [v], ncols)[0]) == r


@st.composite
def matrices(draw):
    """0-40 rows over 1-200 columns: dense, sparse and zero rows, then
    repeats and sums of drawn rows, shuffled."""
    ncols = draw(st.integers(1, 200))
    dense = st.integers(0, (1 << ncols) - 1)
    sparse = st.lists(st.integers(0, ncols - 1), max_size=4).map(gf2.vector_from_support)
    rows = draw(st.lists(st.one_of(dense, sparse, st.just(0)), max_size=32))
    if rows:
        picks = st.sampled_from(rows)
        pairs = draw(st.lists(st.tuples(picks, picks), max_size=8))
        rows = rows + [a ^ b if k % 2 else a for k, (a, b) in enumerate(pairs)]
    return draw(st.permutations(rows)), ncols


def answers(rows: List[int], other: List[int], probes: List[int], ncols: int) -> tuple:
    """What the routines built on `gf2.gf2_rref` answer on one matrix."""
    return (
        gf2.gf2_rank(rows, ncols),
        gf2.gf2_rref(rows, ncols)[1],
        gf2.gf2_kernel_basis(rows, ncols),
        gf2.gf2_same_span(rows, other, ncols),
        gf2.gf2_same_span(rows, rows[::-1] + other[:1], ncols),
        [gf2.gf2_is_in_rowspan(rows, ncols, v) for v in probes],
    )


@settings(derandomize=True, max_examples=300, deadline=None)
@given(matrices(), st.data())
def test_rref_matches_column_scan(matrix, data):
    rows, ncols = matrix
    assert gf2.gf2_rref(rows, ncols) == reference_rref(rows, ncols)
    other = data.draw(st.lists(st.integers(0, (1 << ncols) - 1), max_size=6))
    # vectors in the span and (mostly) out of it
    probes = other + [r ^ o for r in rows[:4] for o in other[:1]] + rows[:2] + [0]
    new = answers(rows, other, probes, ncols)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf2, "gf2_rref", reference_rref)
        assert answers(rows, other, probes, ncols) == new
    assert new[5] == [reference_is_in_rowspan(rows, ncols, v) for v in probes]


def cohomology_by_kernel(graph: Graph) -> tuple:
    """`cohomology` with every cross-check on, with lowest-bit pivots and
    with the column scan, each on a fresh complex."""
    new = cohomology(build_complex(graph), cross_check=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf2, "gf2_rref", reference_rref)
        return new, cohomology(build_complex(graph), cross_check=True)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_cohomology_matches_column_scan_on_named_graphs(name):
    new, ref = cohomology_by_kernel(GRAPHS[name])
    assert new == ref


@settings(derandomize=True, max_examples=60, deadline=None)
@given(graphs())
def test_cohomology_matches_column_scan_on_random_graphs(graph):
    new, ref = cohomology_by_kernel(graph)
    assert new == ref


def test_rref_matches_column_scan_under_optimize():
    # the elimination and the cross-checks built on it must not rest on
    # `assert`: the same answers with asserts stripped by -O
    code = "\n".join([
        "import random, sys",
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})",
        "from test_kernels_reference import GRAPHS, cohomology_by_kernel, reference_rref",
        "from coxloops import gf2",
        "rng = random.Random(12)",
        "cases = [(rng.randint(1, 200), rng.randint(0, 40)) for _ in range(200)]",
        "mats = [([rng.getrandbits(n) & rng.getrandbits(n) for _ in range(m)], n) for n, m in cases]",
        "print(__debug__, all(gf2.gf2_rref(*mat) == reference_rref(*mat) for mat in mats))",
        "print(all(new == ref for new, ref in map(cohomology_by_kernel, GRAPHS.values())))",
    ])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "True"]


# ---------------------------------------------------------------------------
# element statistics from the regular action against the dense table


def reference_involutions(g: GroupTable) -> List[int]:
    """The involutions, as `GroupTable.involutions` listed them."""
    return [a for a in range(1, g.order) if g.product[a][a] == 0]


def reference_statistics(g: GroupTable) -> ElementStatistics:
    orders: Dict[int, int] = {}
    for x in range(g.order):
        k = g.element_order(x)
        orders[k] = orders.get(k, 0) + 1
    return ElementStatistics(
        g.order,
        g.is_abelian(),
        g.is_elementary_abelian(),
        len(reference_involutions(g)),
        {k: orders[k] for k in sorted(orders)},
    )


def assert_same_statistics(new: ElementStatistics, ref: ElementStatistics) -> None:
    assert new == ref
    assert list(new.element_orders.items()) == list(ref.element_orders.items())


def assert_diagram_statistics(d: CoxeterDiagram) -> None:
    w, g = regular_action(d), enumerate_group(d)
    # the primitive is the action the table was built over
    assert tree_words(w.tree) == list(g.words) and w.generators == g.generators
    assert all(w.act[x][a] == g.product[a][s] for x, s in enumerate(g.generators) for a in range(g.order))
    assert_same_statistics(element_statistics(w.act, w.tree), reference_statistics(g))


def table_statistics(g: GroupTable) -> ElementStatistics:
    return element_statistics(g.columns, [(0, a) for a in range(g.order)])


def _product_diagram(*parts: CoxeterDiagram) -> CoxeterDiagram:
    n = sum(d.rank for d in parts)
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    base = 0
    for d in parts:
        for i in range(d.rank):
            for j in range(d.rank):
                m[base + i][base + j] = d.matrix[i][j]
        base += d.rank
    return CoxeterDiagram(m)


IRREDUCIBLE = {
    **{f"A{n}": diagram_a(n) for n in range(1, 6)},
    **{f"B{n}": diagram_b(n) for n in range(2, 5)},
    "D4": diagram_d(4),
    "D5": diagram_d(5),
    "F4": diagram_f4(),
    "H3": diagram_h(3),
    **{f"I2_{m}": diagram_i2(m) for m in range(2, 13)},
}
REDUCIBLE = {
    "A1xB2": _product_diagram(diagram_a(1), diagram_b(2)),
    "A2xA2": _product_diagram(diagram_a(2), diagram_a(2)),
}


@pytest.mark.parametrize("name", sorted({**IRREDUCIBLE, **REDUCIBLE}))
def test_statistics_from_the_action_match_the_table(name):
    assert_diagram_statistics({**IRREDUCIBLE, **REDUCIBLE}[name])


@st.composite
def spherical_diagrams(draw):
    """A spherical diagram of rank <= 4 and order <= 1200: a product of
    irreducible ones, its vertices shuffled."""
    small = [d for d in IRREDUCIBLE.values() if d.rank <= 4]
    parts = draw(st.lists(st.sampled_from(small), min_size=1, max_size=4).filter(
        lambda ps: sum(d.rank for d in ps) <= 4
    ))
    d = _product_diagram(*parts)
    perm = draw(st.permutations(range(d.rank)))
    d = CoxeterDiagram([[d.matrix[perm[i]][perm[j]] for j in range(d.rank)] for i in range(d.rank)])
    rec = recognize_spherical(d)
    assert rec.spherical
    assume(rec.order <= 1200)
    return d


@settings(derandomize=True, max_examples=40, deadline=None)
@given(spherical_diagrams())
def test_statistics_match_on_random_spherical_diagrams(d):
    assert_diagram_statistics(d)


TABLES = {
    **{f"D{m}": dihedral(m) for m in range(1, 9)},
    **{f"C{n}": cyclic(n) for n in (1, 2, 5, 6, 8)},
    "Q8": quaternion(),
    "V4": klein4(),
    "A4": alternating4(),
    "C2xC4": direct_product(cyclic(2), cyclic(4)),
    "V4xV4": direct_product(klein4(), klein4()),
    "Q8xC2": direct_product(quaternion(), cyclic(2)),
    "D4xC2": direct_product(dihedral(4), cyclic(2)),
    "S3xC3": direct_product(symmetric3(), cyclic(3)),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_statistics_of_tables_match(name):
    assert_same_statistics(table_statistics(TABLES[name]), reference_statistics(TABLES[name]))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(relabelled_groups())
def test_statistics_of_relabelled_tables_match(g):
    assert_same_statistics(table_statistics(g), reference_statistics(g))


# ---------------------------------------------------------------------------
# the column-major coset table and the tree-read words against the
# row-major table with stored words


class RecordingTable(coxeter._CosetTable):
    """The live table, kept for inspection after the run ends or trips."""

    made: List["RecordingTable"] = []

    def __init__(self, ngens: int, cap: int):
        super().__init__(ngens, cap)
        RecordingTable.made.append(self)


def transposed(rows: Sequence[Sequence[int]], ngens: int) -> List[List[int]]:
    return [[row[x] for row in rows] for x in range(ngens)]


def hlt_outcome(run: Callable[[], List[List[int]]]):
    """The columns a run returns, or the message of its ResourceLimitError."""
    try:
        return run()
    except ResourceLimitError as e:
        return str(e)


def assert_same_hlt(d: CoxeterDiagram, cap: int, monkeypatch):
    """Both HLT runs at `cap` end alike: the same compacted columns (rows
    transposed on the reference side), or the same ResourceLimitError at
    the same define, with the same table entries and union-find forest.
    Returns the outcome."""
    RecordingTable.made, made = [], []
    monkeypatch.setattr(coxeter, "_CosetTable", RecordingTable)
    new = hlt_outcome(lambda: _enumerate_cosets(d, cap))
    ref = hlt_outcome(lambda: transposed(reference_hlt(d, cap, made).compact(), d.rank))
    assert new == ref
    assert len(RecordingTable.made) == len(made) <= 1
    for ct, rt in zip(RecordingTable.made, made):  # none if the dihedral pre-check trips
        assert ct.cols == transposed(rt.tab, d.rank) and ct.parent == rt.parent
    return new


def assert_same_action(d: CoxeterDiagram) -> None:
    w = regular_action(d)
    act, words, tree = reference_regular_action(d)
    assert (w.act, w.tree) == (act, tree)
    assert tree_words(w.tree) == list(words)
    new = element_statistics(w.act, w.tree)
    assert_same_statistics(new, reference_element_statistics(act, words))


def assert_same_trips(d: CoxeterDiagram, caps: Iterable[int], monkeypatch) -> None:
    for cap in caps:
        out = assert_same_hlt(d, cap, monkeypatch)
        assert out == f"coset enumeration exceeded cap={cap} live cosets" or len(out[0]) <= cap


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_coset_columns_match_the_row_major_table(name, monkeypatch):
    assert isinstance(assert_same_hlt(CORPUS[name], 10000, monkeypatch), list)
    assert_same_action(CORPUS[name])


@pytest.mark.parametrize("name", sorted(set(CORPUS) - {"F4"}))
def test_every_cap_trips_where_the_row_major_table_does(name, monkeypatch):
    order = GROUPS[name].order
    assert_same_trips(CORPUS[name], range(1, order + 2), monkeypatch)


@pytest.mark.slow
def test_every_cap_trips_where_the_row_major_table_does_f4(monkeypatch):
    assert_same_trips(CORPUS["F4"], range(1, GROUPS["F4"].order + 2), monkeypatch)


@st.composite
def small_diagrams(draw):
    """A diagram of rank <= 4 over the labels 2-6 and infinity."""
    n = draw(st.integers(1, 4))
    labels = st.sampled_from([2, 3, 4, 5, 6, INF])
    m = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = draw(labels)
    return CoxeterDiagram(m)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(small_diagrams())
def test_coset_columns_match_on_random_diagrams(d):
    # past 400 live cosets (every infinite group here) only the trip is
    # compared; a finite group is compared at every cap up to |W| + 1
    # when |W| <= 120, and around |W| past that
    with pytest.MonkeyPatch.context() as monkeypatch:
        out = assert_same_hlt(d, 400, monkeypatch)
        if isinstance(out, list):
            assert_same_action(d)
            order = len(out[0])
            caps = range(1, order + 2) if order <= 120 else (order // 2, order - 1, order, order + 1)
            assert_same_trips(d, caps, monkeypatch)


@pytest.mark.parametrize("seed", range(8))
def test_an_undefined_entry_is_refused_with_the_row_major_message(seed, monkeypatch):
    # holes poked into the finished table at seeded live cosets: both
    # compactions name the least coset with a hole, in row order
    d = CORPUS[["A3", "B3", "H3", "A1xB2"][seed % 4]]
    RecordingTable.made = []
    monkeypatch.setattr(coxeter, "_CosetTable", RecordingTable)
    _enumerate_cosets(d, 10000)
    [ct] = RecordingTable.made
    rt = ReferenceCosetTable(d.rank, 10000)
    rt.tab, rt.parent = transposed(ct.cols, len(ct.parent)), list(ct.parent)
    live = [c for c in range(len(ct.parent)) if ct.rep(c) == c]
    rng = random.Random(seed)
    for _ in range(rng.randint(1, 3)):
        c, x = rng.choice(live), rng.randrange(d.rank)
        ct.cols[x][c] = rt.tab[c][x] = -1
    with pytest.raises(CheckError) as new:
        ct.compact()
    with pytest.raises(CheckError) as ref:
        rt.compact()
    assert str(new.value) == str(ref.value)


# ---------------------------------------------------------------------------
# HLT with closed relators skipped against the loop that scanned them all


def reference_enumerate_cosets(d: CoxeterDiagram, cap: int) -> List[List[int]]:
    """`_enumerate_cosets` as it was: every relator scanned at every live
    coset, liveness read through `rep`."""
    n = d.rank
    labels = [(i, j, d.matrix[i][j]) for i in range(n) for j in range(i + 1, n)]
    if any(m != INF and 2 * m > cap for _, _, m in labels):
        raise ResourceLimitError(f"coset enumeration exceeded cap={cap} live cosets")
    ct = coxeter._CosetTable(n, cap)
    cols = ct.cols
    relators = [[cols[i], cols[j]] * m for i, j, m in labels if m != INF]
    alpha = 0
    while alpha < len(ct.parent):
        if ct.rep(alpha) != alpha:
            alpha += 1
            continue
        for w in relators:
            ct.scan_and_fill(alpha, w)
            if ct.rep(alpha) != alpha:
                break
        if ct.rep(alpha) == alpha:
            for col in cols:
                if col[alpha] < 0:
                    ct.define(alpha, col)
        alpha += 1
    return ct.compact()


class CountingTable(coxeter._CosetTable):
    """The live table, counting its `define` calls."""

    made: List["CountingTable"] = []

    def __init__(self, ngens: int, cap: int):
        super().__init__(ngens, cap)
        self.defines = 0
        CountingTable.made.append(self)

    def define(self, c: int, col: List[int]) -> int:
        self.defines += 1
        return super().define(c, col)


def assert_same_enumeration(d: CoxeterDiagram, cap: int, monkeypatch):
    """Both loops end alike at `cap`, the same columns or the same
    ResourceLimitError, after the same number of `define` calls and with
    the same table.  Returns the outcome."""
    monkeypatch.setattr(coxeter, "_CosetTable", CountingTable)
    CountingTable.made = []
    new = hlt_outcome(lambda: _enumerate_cosets(d, cap))
    ref = hlt_outcome(lambda: reference_enumerate_cosets(d, cap))
    assert new == ref
    [ct, rt] = CountingTable.made
    assert ct.defines == rt.defines > 0
    assert ct.cols == rt.cols and ct.parent == rt.parent
    return new


HLT_DIAGRAMS = {
    **{f"A{n}": diagram_a(n) for n in range(1, 6)},
    **{f"B{n}": diagram_b(n) for n in range(2, 5)},
    "D4": diagram_d(4),
    "D5": diagram_d(5),
    "F4": diagram_f4(),
    "H3": diagram_h(3),
    **{f"I2_{m}": diagram_i2(m) for m in (2, 3, 5, 8, 12)},
}


@pytest.mark.parametrize("name", sorted(HLT_DIAGRAMS))
def test_skipping_closed_relators_defines_the_same_cosets(name, monkeypatch):
    out = assert_same_enumeration(HLT_DIAGRAMS[name], 10000, monkeypatch)
    assert isinstance(out, list) and len(out[0]) == recognize_spherical(HLT_DIAGRAMS[name]).order


@pytest.mark.parametrize("cap", [10, 50, 200])
def test_skipping_closed_relators_trips_affine_a2_at_the_same_define(cap, monkeypatch):
    affine_a2 = CoxeterDiagram.from_edges(3, [(1, 2, 3), (1, 3, 3), (2, 3, 3)])
    out = assert_same_enumeration(affine_a2, cap, monkeypatch)
    assert out == f"coset enumeration exceeded cap={cap} live cosets"


@pytest.mark.slow
@pytest.mark.parametrize("name", ["H4", "E6"])
def test_skipping_closed_relators_defines_the_same_cosets_slow(name, monkeypatch):
    d = diagram_h(4) if name == "H4" else diagram_e(6)
    out = assert_same_enumeration(d, 60000, monkeypatch)
    assert len(out[0]) == recognize_spherical(d).order
