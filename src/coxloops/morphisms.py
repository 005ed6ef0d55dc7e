"""Loop and group morphisms, automorphism groups, and the structure of
Aut(M(G, 2)).

A morphism is its image tuple on 0..n-1, an automorphism included, and
maps compose with `groups.compose`.

`automorphism_group` searches Aut level by level along the stabilizer chain
of a greedy generating set g1..gk, deepest level first.  Assigning an image
to one more generator forces images of everything it generates, and every
forced pair is checked against the table, so a completed assignment is an
automorphism by construction.  The checks run on whole rows: each newly
forced element's row and column, gathered at the known elements, against
the row and column of its image, gathered at their images.  Candidate
images are filtered by cheap isomorphism invariants and pruned by orbits:
an image already reached by the automorphisms found so far, or in the
orbit of a refuted image, is not tried again.  The search stays
exhaustive, since every other candidate is either completed or refuted.
The result, `AutGroup`, is a base and strong generating set (Seress,
*Permutation Group Algorithms*, 2003, ch. 4): the generators g1..gk as
base, the search's leaves as strong generators, and one transversal per
level.  Its order is the product of the transversal sizes, membership
sifts an image tuple through the levels, and the |Aut| image tuples
themselves are listed only on demand, which nothing in the package makes.
A `budget` caps the number of candidate assignments tried
(`AutGroup.nodes`), and raising past it is a hard error, never a silent
truncation.  The result is memoized on the
table it was computed from (`memo["aut"]`), so it lives exactly as long
as that table; a memo hit honours the budget too.

The two structure theorems verified here describe Aut(L) for L = M(G, 2):

- if G has no generalized dihedral decomposition (trichotomy case 2),
  Aut(L) = {translation o lift} and is isomorphic to G x| Aut(G);
- if G = M(H, 2) for abelian H with an element of order > 2 (case 3, G is
  the generalized dihedral group over H), then Aut(L) factors as
  N . S . A with N = H x H (coset rescalings), S = S3 (permuting the three
  involutions u1, u2, u3 = u1*u2 over the common core H), A = Aut(H).

Both verifications certify the factorization by counting: the
constructed families are groups of automorphisms, checked on their
generators; their products are distinct, checked by the images of the
doubling involutions; and the number of products is |Aut(L)|, the order of
the complete search.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property
from operator import eq
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import CheckError, ResourceLimitError
from .groups import GroupTable, closure, compose, composer, subgroup_table
from .loops import LoopTable, chein_loop

__all__ = [
    "invert_images",
    "is_homomorphism",
    "is_automorphism",
    "AutGroup",
    "automorphism_group",
    "generating_set",
    "translation_automorphism",
    "lifted_automorphism",
    "dihedral_decomposition",
    "classify_trichotomy",
    "TrichotomyReport",
    "SemidirectAutReport",
    "DoubledDihedralAutReport",
    "verify_semidirect_automorphisms",
    "verify_doubled_dihedral_automorphisms",
    "verify_dihedral_decomposition_automorphisms",
]


def invert_images(f: Sequence[int]) -> Tuple[int, ...]:
    out = [0] * len(f)
    for x, v in enumerate(f):
        out[v] = x
    return tuple(out)


def is_homomorphism(images: Sequence[int], dom, cod) -> bool:
    """f(x*y) == f(x)*f(y) over all pairs; dom/cod expose .product.

    Checked one x at a time as maps of y: f o L_x == L_{f(x)} o f.
    """
    dp, cp = dom.product, cod.product
    n = len(dp)
    if len(images) != n:
        return False
    after_f = composer(images)  # after_f(h) = h o f
    return all(compose(images, dp[x]) == after_f(cp[images[x]]) for x in range(n))


def is_automorphism(t, images: Sequence[int]) -> bool:
    return (
        len(images) == t.order
        and len(set(images)) == t.order
        and is_homomorphism(images, t, t)
    )


def generating_set(t) -> Tuple[int, ...]:
    """Greedy small generating set: repeatedly adjoin the smallest element
    not yet generated.  Deterministic."""
    gens: List[int] = []
    have = {0}
    while len(have) < t.order:
        x = min(set(range(t.order)) - have)
        gens.append(x)
        have = set(closure(t, gens))
    return tuple(gens)


def _profiles(t) -> List[Tuple]:
    """Cheap per-element isomorphism invariants used to prune the search."""
    n = t.order
    p, cols = t.product, t.columns
    orders = [t.element_order(x) for x in range(n)]
    sq_roots = [0] * n
    for y in range(n):
        sq_roots[p[y][y]] += 1
    commuting = [sum(map(eq, p[x], cols[x])) for x in range(n)]
    return [(orders[x], sq_roots[x], commuting[x]) for x in range(n)]


_AutGroupFields = namedtuple("_AutGroupFields", [
    "base",
    "strong_generators",
    "transversals",  # one dict per level: image of the base point -> automorphism
    "nodes",  # candidate assignments tried by the search
    "degree",  # the order of the table
])


class AutGroup(_AutGroupFields):  # no __slots__: `elements` is cached in __dict__
    """The full automorphism group as a base and strong generating set.

    `base` is the generating set g1..gk of the search.  `transversals[i]`
    maps each image b of gi under the automorphisms fixing g1..g(i-1) to
    one of them sending gi to b (the identity for b = gi).
    `strong_generators` are the search's leaves, deepest level first; every
    transversal element is a product of them.  Every automorphism is
    t1 o ... o tk with ti from `transversals[i]`, exactly once.

    Construction certifies that the products are distinct (CheckError, not
    `assert`, so also under `python -O`): each element of `transversals[i]`
    fixes g1..g(i-1) and sends gi to its own key, so the images of gi are
    pairwise distinct.  Evaluating t1 o ... o tk at g1 then recovers t1, at
    g2 the next factor, and so on, so `order` is the product of the
    transversal sizes.  Equality and hash are by identity.
    """

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def __new__(cls, *args, **kwargs) -> "AutGroup":
        self = super().__new__(cls, *args, **kwargs)
        for i, (g, level) in enumerate(zip(self.base, self.transversals)):
            for b, f in level.items():
                if f[g] != b:
                    raise CheckError(
                        f"a transversal element of level {i} maps {g} to {f[g]}, not {b}"
                    )
                if any(f[h] != h for h in self.base[:i]):
                    raise CheckError(
                        f"a transversal element of level {i} moves an earlier base point"
                    )
        return self

    @classmethod
    def _make(cls, iterable) -> "AutGroup":  # so that `_replace` is certified too
        return cls(*iterable)

    @property
    def order(self) -> int:
        return math.prod(len(level) for level in self.transversals)

    @cached_property
    def elements(self) -> Tuple[Tuple[int, ...], ...]:
        """Every automorphism as an image tuple, sorted; |Aut| of them, so
        built only on demand.  The package itself never lists them: the
        theorems count, and set stabilizers walk the transversals
        (`cohomology._set_stabilizer`); the tests keep them as a reference."""
        elements: List[Tuple[int, ...]] = [tuple(range(self.degree))]
        for level in reversed(self.transversals):
            elements = [compose(f, suffix) for f in level.values() for suffix in elements]
        return tuple(sorted(elements))

    def __contains__(self, images) -> bool:
        """Sift `images` through the levels: at level i divide by the
        transversal element that sends gi where the remainder does; a member
        leaves the identity, anything else fails on the way or at the end."""
        rest = tuple(images)
        identity = tuple(range(self.degree))
        if sorted(rest) != list(identity):
            return False
        for g, level in zip(self.base, self.transversals):
            f = level.get(rest[g])
            if f is None:
                return False
            rest = compose(invert_images(f), rest)
        return rest == identity


def _budget_error(budget: int) -> ResourceLimitError:
    return ResourceLimitError(f"automorphism search exceeded budget={budget} nodes")


def _close_orbit(tree: Dict[int, Optional[Tuple]], perms: Sequence[Tuple[int, ...]]) -> None:
    """Close the point set `tree` under `perms`.  Each new point d maps to
    the step (c, f) with f[c] == d that reached it, so the points are a
    Schreier tree in insertion order."""
    queue = list(tree)
    while queue:
        c = queue.pop()
        for f in perms:
            d = f[c]
            if d not in tree:
                tree[d] = (c, f)
                queue.append(d)


def automorphism_group(t, budget: int = 10_000_000) -> AutGroup:
    """Exhaustive Aut(t) of a GroupTable or LoopTable.

    The search runs over the levels of the stabilizer chain of the
    generators g1..gk from `generating_set`, deepest level first.  At level
    i, g1..g(i-1) are fixed, and the automorphisms found so far (all of
    which fix them) act on the profile-compatible images b of gi.  An image
    is skipped if it lies in the orbit of gi, or in the orbit of an image
    already refuted.  Otherwise `extend` propagates gi -> b and a
    depth-first search over the later generators stops at its first leaf:
    a leaf is an automorphism and joins the strong generators, and a
    subtree without a leaf refutes b.  Each level's orbit comes with a
    transversal, and Aut(t) is the set of products t1 o ... o tk of one
    transversal element per level, each automorphism exactly once; these
    levels are the returned `AutGroup`.

    `extend` propagates on whole rows.  For each newly forced x it gathers
    x*y and y*x over the known y (row x and column x at them, one
    `composer(known)`), and f(x)*f(y) and f(y)*f(x) the same way from the
    row and column of f(x) at the known images.  When the current images
    of the products equal the forced ones as whole tuples there is nothing
    to do; otherwise it walks the pairs, assigning new images or returning
    None on a conflict.  Every pair of known elements is checked in both
    orders, so `extend` accepts exactly when the partial map extends to an
    injective homomorphism on the subloop its domain generates, whatever
    order the checks run in.

    `nodes` counts the candidate assignments tried, i.e. the `extend`
    calls, including the k that fix g1..gk to themselves.  More than
    `budget` of them raise ResourceLimitError: the search is never silently
    truncated.  The result is memoized in `t.memo`, since amalgam work asks
    for the same edge loops over and over; the memo lives as long as `t`,
    and a hit raises the same error when its search needed more than
    `budget` nodes, so it behaves exactly like a fresh search.  CheckError
    (not `assert`, so also under `python -O`) reports a generating set
    that does not generate or transversals that fail the distinct-products
    certificate of `AutGroup`.
    """
    cached = t.memo.get("aut")
    if cached is not None:
        if cached.nodes > budget:
            raise _budget_error(budget)
        return cached
    n = t.order
    p, cols = t.product, t.columns
    gens = generating_set(t)
    prof = _profiles(t)
    candidates: Dict[int, List[int]] = {
        g: [x for x in range(n) if prof[x] == prof[g]] for g in gens
    }
    nodes = 0

    def extend(images: List[int], used: List[bool], known: List[int], a: int, b: int):
        """Set images[a] = b, propagate forced products; None on conflict."""
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _budget_error(budget)
        if used[b]:
            return None
        images = images[:]
        used = used[:]
        known = known[:]
        images[a] = b
        used[b] = True
        known.append(a)
        queue = [a]
        while queue:
            x = queue.pop()
            ix = images[x]
            # x*y and y*x for every known y, and the images they are forced to
            at_known = composer(known)
            at_images = composer(at_known(images))
            for line, image_line in ((p[x], p[ix]), (cols[x], cols[ix])):
                zs = at_known(line)
                izs = at_images(image_line)
                if composer(zs)(images) == izs:
                    continue
                for z, iz in zip(zs, izs):
                    current = images[z]
                    if current < 0:
                        if used[iz]:
                            return None
                        images[z] = iz
                        used[iz] = True
                        known.append(z)
                        queue.append(z)
                    elif current != iz:
                        return None
        return images, used, known

    def first_leaf(idx: int, state, b: int) -> Optional[Tuple[int, ...]]:
        """First automorphism extending `state` by gens[idx] -> b, if any."""
        state = extend(*state, gens[idx], b)
        if state is None:
            return None
        if idx + 1 == len(gens):
            return tuple(state[0])
        for c in candidates[gens[idx + 1]]:
            leaf = first_leaf(idx + 1, state, c)
            if leaf is not None:
                return leaf
        return None

    # prefixes[i]: gens[:i] fixed to themselves, which fixes the subloop
    # they generate; with every generator fixed, the identity must be complete
    images0 = [-1] * n
    used0 = [False] * n
    images0[0] = 0
    used0[0] = True
    prefixes = [(images0, used0, [0])]
    for g in gens:
        prefixes.append(extend(*prefixes[-1], g, g))
    if len(prefixes[-1][2]) != n:
        raise CheckError(f"generating_set {gens} does not generate the table")

    identity = tuple(range(n))
    found: List[Tuple[int, ...]] = []  # strong generators, deepest level first
    transversals: List[Dict[int, Tuple[int, ...]]] = []
    for i in reversed(range(len(gens))):
        g = gens[i]
        # the automorphisms found so far fix gens[:i]; under them, the orbit
        # of g is reached and the orbits of refuted images are refuted
        orbit: Dict[int, Optional[Tuple]] = {g: None}
        refuted: Dict[int, Optional[Tuple]] = {}
        for b in candidates[g]:
            if b in orbit or b in refuted:
                continue
            leaf = first_leaf(i, prefixes[i], b)
            if leaf is None:
                refuted[b] = None
                _close_orbit(refuted, found)
            else:
                found.append(leaf)
                _close_orbit(orbit, found)
                _close_orbit(refuted, found)
        transversal = {g: identity}
        for c, step in orbit.items():
            if step is not None:
                parent, f = step
                transversal[c] = compose(f, transversal[parent])
        transversals.append(transversal)

    t.memo["aut"] = AutGroup(gens, tuple(found), tuple(reversed(transversals)), nodes, n)
    return t.memo["aut"]


# ---------------------------------------------------------------------------
# the distinguished automorphisms of a doubled loop


def translation_automorphism(t: LoopTable, g: int) -> Tuple[int, ...]:
    """phi_g: fixes the group half pointwise, maps x*u to (g*x)*u."""
    n = t.group_order
    if n is None or not 0 <= g < n:
        raise CheckError(f"translation needs a doubled loop and a group element, got {g}")
    gp = t.product  # group products live in the top-left block
    return tuple(range(n)) + tuple(n + gp[g][x] for x in range(n))


def lifted_automorphism(t: LoopTable, psi: Sequence[int]) -> Tuple[int, ...]:
    """The automorphism of M(G, 2) induced by psi in Aut(G): x*u -> psi(x)*u."""
    n = t.group_order
    if n is None or len(psi) != n:
        raise CheckError("a lift needs a doubled loop and a map of its group half")
    return tuple(psi) + tuple(n + psi[x] for x in range(n))


# ---------------------------------------------------------------------------
# trichotomy


class TrichotomyReport(namedtuple("TrichotomyReport", [
    "case",  # 1, 2, or 3
    "label",  # elementary_abelian / indecomposable / dihedral
    "loop_order",
    "decomposition",  # (H elements, u'), or None
])):
    __slots__ = ()


def dihedral_decomposition(g: GroupTable) -> Optional[Tuple[Tuple[int, ...], int]]:
    """Find (H, u'): H an abelian index-2 subgroup, u' an involution outside
    it inverting H by conjugation — i.e. witness G = M(H, 2).

    Every index-2 subgroup contains S = <x^2 : x in G>, and G/S is an
    elementary abelian 2-group, so the index-2 subgroups are the kernels of
    the nonzero functionals on G/S.  Each element gets GF(2) coordinates
    over a greedy basis of G/S (the smallest element outside the span so
    far); each functional's kernel is one candidate H.

    Deterministic: the candidates are scanned in element order and the
    smallest qualifying u' is taken, so the witness is canonical.
    """
    if g.order % 2 != 0:
        return None
    p, inv = g.product, g.inverse
    coords = dict.fromkeys(closure(g, {p[x][x] for x in range(g.order)}), 0)
    dim = 0
    for x in range(g.order):
        if x not in coords:
            for y, c in list(coords.items()):
                coords[p[x][y]] = c | 1 << dim
            dim += 1
    kernels = sorted(
        tuple(x for x in range(g.order) if not (coords[x] & f).bit_count() % 2)
        for f in range(1, 1 << dim)
    )
    for sub in kernels:
        inside = set(sub)
        if any(p[a][b] != p[b][a] for a in sub for b in sub):
            continue
        for u in range(g.order):
            if u in inside or p[u][u] != 0:
                continue
            if all(p[p[u][h]][u] == inv[h] for h in sub):
                return (sub, u)
    return None


def classify_trichotomy(g: GroupTable) -> TrichotomyReport:
    """Exactly one of three mutually exclusive shapes for L = M(G, 2):

    1. L is an elementary abelian 2-group (iff G is one, including G = 1);
    2. G admits no generalized dihedral decomposition: Aut(L) is the
       semidirect product G x| Aut(G);
    3. G = M(H, 2) for abelian, non-elementary-abelian H: Aut(L) is
       strictly larger (see verify_doubled_dihedral_automorphisms).

    Case 1 is checked first, so for elementary abelian G the (always
    existing) decomposition is not reported.
    """
    t = chein_loop(g)
    if t.is_elementary_abelian():
        return TrichotomyReport(1, "elementary_abelian", t.order, None)
    dec = dihedral_decomposition(g)
    if dec is None:
        return TrichotomyReport(2, "indecomposable", t.order, None)
    return TrichotomyReport(3, "dihedral", t.order, dec)


# ---------------------------------------------------------------------------
# case 2: Aut(M(G,2)) = G x| Aut(G)


class SemidirectAutReport(namedtuple("SemidirectAutReport", [
    "loop_order",
    "aut_order",
    "group_aut_order",
    "expected_order",  # |G| * |Aut(G)|
    "translations_ok",
    "lifts_ok",
    "normal_relation_ok",  # lift o translation_g o lift^-1 == translation_psi(g)
    "intersection_trivial",
    "set_matches",
    "nodes",
])):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return (
            self.translations_ok
            and self.lifts_ok
            and self.normal_relation_ok
            and self.intersection_trivial
            and self.set_matches
            and self.aut_order == self.expected_order
        )


def verify_semidirect_automorphisms(g: GroupTable, budget: int = 10_000_000) -> SemidirectAutReport:
    """Certify Aut(M(G,2)) == {translation_x o lift_psi} by counting.

    T = {translation_x : x in G} and Λ = {lift_psi : psi in Aut(G)}.  With
    S = generating_set(G) (the base of Aut(G)), u the doubling involution
    and the strong generators of Aut(G) from its search, every statement
    the count rests on is checked:

    - translations_ok: translation_s is an automorphism for s in S, and
      translation_s o translation_x == translation_(s*x) for s in S and x
      in G.  As S generates G, every translation is a product of these
      generators, so T is a group of automorphisms.  translation_x maps u
      to x*u, so |T| = |G|.
    - lifts_ok: x*u is the element |G| + x for every x in G, so an
      automorphism is fixed by its values on G and at u.  The lift of each
      strong generator a is an automorphism that fixes u and agrees with a
      on G.  The group these lifts generate thus fixes u, maps G onto
      itself and restricts onto the group the strong generators generate,
      Aut(G); its element restricting to psi sends x*u to psi(x)*u, so it
      is lift_psi.  Hence Λ is a group of |Aut(G)| automorphisms.
    - normal_relation_ok: lift_a o translation_s o lift_a^-1 ==
      translation_a(s) for every strong generator a and s in S.  Both
      sides are multiplicative in s and in a, so this gives the relation
      for every psi and x.
    - intersection_trivial: translation_x fixes u only for x = e, where it
      is the identity, and every lift fixes u, so T and Λ meet in 1.
    - set_matches: then the products translation o lift are |G|·|Aut(G)|
      distinct automorphisms, so they are all of Aut(L) exactly when that
      count is the order |Aut(L)| of the complete search.

    On an input outside trichotomy case 2 the count falls short of
    |Aut(L)| (there are extra automorphisms) and set_matches is False.
    """
    t = chein_loop(g)
    n, gp, u = g.order, g.product, g.order
    aut_g = automorphism_group(g, budget=budget)
    aut_l = automorphism_group(t, budget=budget)
    gens = aut_g.base  # generating_set(G)
    translations = [translation_automorphism(t, x) for x in range(n)]
    lifts = {a: lifted_automorphism(t, a) for a in aut_g.strong_generators}
    moves_u = all(translations[x][u] == n + x for x in range(n))
    translations_ok = (
        moves_u
        and all(is_automorphism(t, translations[s]) for s in gens)
        and all(
            compose(translations[s], translations[x]) == translations[gp[s][x]]
            for s in gens
            for x in range(n)
        )
    )
    fix_u = all(f[u] == u for f in lifts.values())
    lifts_ok = (
        fix_u
        and all(t.product[x][u] == n + x for x in range(n))
        and all(f[:n] == a and is_automorphism(t, f) for a, f in lifts.items())
    )
    relation_ok = all(
        compose(f, compose(translations[s], invert_images(f)))
        == translations[a[s]]
        for a, f in lifts.items()
        for s in gens
    )
    intersection_trivial = moves_u and fix_u and translations[0] == tuple(range(t.order))
    expected = n * aut_g.order
    return SemidirectAutReport(
        loop_order=t.order,
        aut_order=aut_l.order,
        group_aut_order=aut_g.order,
        expected_order=expected,
        translations_ok=translations_ok,
        lifts_ok=lifts_ok,
        normal_relation_ok=relation_ok,
        intersection_trivial=intersection_trivial,
        set_matches=translations_ok
        and lifts_ok
        and intersection_trivial
        and expected == aut_l.order,
        nodes=aut_l.nodes,
    )


# ---------------------------------------------------------------------------
# case 3: Aut(M(M(H,2),2)) = (H x H) x| (S3 x Aut(H))


class DoubledDihedralAutReport(namedtuple("DoubledDihedralAutReport", [
    "h_order",
    "loop_order",
    "aut_order",
    "expected_order",  # |H|^2 * 6 * |Aut(H)|
    "klein_ok",  # {e, u1, u2, u3} is a Klein 4-subloop
    "centralizer_ok",  # C_L(h) == H for the recorded h of order > 2
    "centralizer_witness",
    "rescalings_ok",  # N = H x H: automorphisms, closed, exact size
    "symmetric_ok",  # S = <sigma1, sigma2> has order 6, nonabelian
    "lifts_ok",  # A = doubly lifted Aut(H)
    "set_matches",
    "nodes",
])):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return (
            self.klein_ok
            and self.centralizer_ok
            and self.rescalings_ok
            and self.symmetric_ok
            and self.lifts_ok
            and self.set_matches
            and self.aut_order == self.expected_order
        )


def verify_doubled_dihedral_automorphisms(
    h: GroupTable, budget: int = 10_000_000
) -> DoubledDihedralAutReport:
    """Certify the automorphism structure of L = M(M(H,2),2), for an
    abelian group H with an element of order > 2, by counting:
    `verify_dihedral_decomposition_automorphisms` on G = M(H,2) with its
    canonical decomposition, H = 0..|H|-1 and u1 = |H|."""
    if not h.is_abelian():
        raise CheckError("H must be abelian")
    g_loop = chein_loop(h)  # associative since H is abelian
    g = GroupTable(g_loop.product, labels=g_loop.labels, validate=True)
    return verify_dihedral_decomposition_automorphisms(g, (tuple(range(h.order)), h.order), budget)


def verify_dihedral_decomposition_automorphisms(
    g: GroupTable, decomposition: Tuple[Sequence[int], int], budget: int = 10_000_000
) -> DoubledDihedralAutReport:
    """Certify the automorphism structure of L = M(G,2) by counting, for G
    with a generalized dihedral decomposition (H, u1) as found by
    `dihedral_decomposition`: G = M(H,2) for the abelian index-2 subgroup H
    (sorted elements of G), which must have an element of order > 2, and
    the involution u1 outside it.

    The four cosets of H in L are H, H*u1, H*u2, H*u3, with u2 the doubling
    involution of L and u3 = u1*u2.  So every x in L is h*uc for exactly
    one h in H and c in 0..3 (u0 = e), its coordinates (h, c).  They are
    read from `coset`, built from the products of L: coset[c][k] = hk*uc
    for the k-th element hk of H.  That `coset` lists every element of L
    once is certified (CheckError, also under `python -O`).

    The constructed automorphisms, in coordinates, are:
    - rescalings f_{h1,h2}: (h, c) -> (h*s_c, c) with s = (e, h1, h2,
      (h1*h2)^-1): fix H, multiply the H*u1 coset by h1, the H*u2 coset by
      h2 and the H*u3 coset by (h1*h2)^-1;
    - sigma1 = translation by u1, sigma2: (h, c) -> (h, (0, 3, 2, 1)[c]),
      which swaps u1 and u3; together they generate the S3 permuting u1,
      u2, u3;
    - lifts of psi in Aut(H) applied on both doubling levels: (h, c) ->
      (psi(h), c).

    With S_H = generating_set(H) (the base of Aut(H)) and the strong
    generators of Aut(H), every statement the count rests on is checked:

    - rescalings_ok: f_{e,e} is the identity, f_{s,e} and f_{e,s} are
      automorphisms for s in S_H, and f_{s,e} o f_{h1,h2} ==
      f_{s*h1,h2} (likewise for f_{e,s}) for every h1, h2.  So N = {f} is
      a group of automorphisms isomorphic to H x H.  f_{h1,h2} maps u1 to
      h1*u1, u2 to h2*u2 and u3 to (h1*h2)^-1*u3, so the rescalings are
      distinct and each keeps u1, u2, u3 in their cosets.
    - symmetric_ok: sigma1 and sigma2 are automorphisms and do not commute,
      and the group S they generate has 6 elements.
    - lifts_ok: every element of L is h*uc and u3 = u1*u2, so an
      automorphism is fixed by its values on H, u1 and u2.  The double lift
      of each strong generator a is an automorphism that fixes u1 and u2
      and agrees with a on H; as in `verify_semidirect_automorphisms`, the
      group these lifts generate is then A = {double lift of psi : psi in
      Aut(H)}, |Aut(H)| automorphisms fixing u1, u2 and u3.
    - set_matches: also S permutes {u1, u2, u3}, and its six elements
      differ on (u1, u2).  Then f o sigma o a == f' o sigma' o a' forces
      sigma == sigma' (the cosets of the images of u1 and u2 name
      sigma(u1) and sigma(u2)), then f'^-1 o f == sigma o a' o a^-1 o
      sigma^-1, which fixes u1 and u2, so f == f' and a == a'.  The
      products are |H|^2·6·|Aut(H)| distinct automorphisms, all of
      Aut(L) exactly when that count is the order of the complete search,
      `automorphism_group(chein_loop(g))`, which the caller may already
      hold in the loop's memo.
    """
    elements, u1 = decomposition
    h = subgroup_table(g, elements)
    if not h.is_abelian():
        raise CheckError("H must be abelian")
    witness = next(
        (x for x in range(h.order) if h.element_order(x) > 2), None
    )
    if witness is None:
        raise CheckError("H must contain an element of order > 2")

    t = chein_loop(g)
    nh = h.order
    hs = tuple(sorted(set(elements)))  # hs[k] is element k of `h`
    hp, hinv = h.product, h.inverse
    p = t.product
    u2 = g.order
    u3 = p[u1][u2]
    coset = [tuple(p[x][uc] for x in hs) for uc in (0, u1, u2, u3)]
    where = {x: (k, c) for c, line in enumerate(coset) for k, x in enumerate(line)}
    if len(where) != t.order:
        raise CheckError("H, H*u1, H*u2 and H*u3 do not partition the loop")
    coords = [where[x] for x in range(t.order)]

    klein = {0, u1, u2, u3}
    klein_ok = (
        closure(t, [u1, u2]) == tuple(sorted(klein))
        and p[u1][u1] == 0
        and p[u2][u2] == 0
        and p[u3][u3] == 0
        and p[u1][u2] == p[u2][u1] == u3
    )

    w = hs[witness]
    centralizer = [x for x in range(t.order) if p[x][w] == p[w][x]]
    centralizer_ok = centralizer == list(hs)

    def rescaling(h1: int, h2: int) -> Tuple[int, ...]:
        shift = (0, h1, h2, hinv[hp[h1][h2]])
        return tuple(coset[c][hp[k][shift[c]]] for k, c in coords)

    aut_h = automorphism_group(h, budget=budget)
    identity = tuple(range(t.order))
    rescalings = {(h1, h2): rescaling(h1, h2) for h1 in range(nh) for h2 in range(nh)}
    steps = [(s, 0) for s in aut_h.base] + [(0, s) for s in aut_h.base]
    rescalings_ok = (
        rescalings[(0, 0)] == identity
        and all(
            (f[u1], f[u2], f[u3]) == (coset[1][a], coset[2][b], coset[3][hinv[hp[a][b]]])
            for (a, b), f in rescalings.items()
        )
        and all(is_automorphism(t, rescalings[st]) for st in steps)
        and all(
            compose(rescalings[(a, b)], rescalings[(c, d)])
            == rescalings[(hp[a][c], hp[b][d])]
            for a, b in steps
            for c, d in rescalings
        )
    )

    sigma1 = translation_automorphism(t, u1)
    sigma2 = tuple(coset[(0, 3, 2, 1)[c]][k] for k, c in coords)
    symmetric = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for f in frontier:
            for s in (sigma1, sigma2):
                fs = compose(f, s)
                if fs not in symmetric:
                    symmetric.add(fs)
                    new.append(fs)
        frontier = new
    symmetric_ok = (
        len(symmetric) == 6
        and is_automorphism(t, sigma1)
        and is_automorphism(t, sigma2)
        and compose(sigma1, sigma2) != compose(sigma2, sigma1)
    )
    permutes_klein = all({s[u1], s[u2], s[u3]} == {u1, u2, u3} for s in symmetric) and len(
        {(s[u1], s[u2]) for s in symmetric}
    ) == len(symmetric)

    lifts = {a: tuple(coset[c][a[k]] for k, c in coords) for a in aut_h.strong_generators}
    lifts_ok = all(
        f[u1] == u1 and f[u2] == u2 and compose(f, hs) == compose(hs, a) and is_automorphism(t, f)
        for a, f in lifts.items()
    )

    aut_l = automorphism_group(t, budget=budget)
    expected = nh * nh * 6 * aut_h.order
    return DoubledDihedralAutReport(
        h_order=nh,
        loop_order=t.order,
        aut_order=aut_l.order,
        expected_order=expected,
        klein_ok=klein_ok,
        centralizer_ok=centralizer_ok,
        centralizer_witness=w,
        rescalings_ok=rescalings_ok,
        symmetric_ok=symmetric_ok,
        lifts_ok=lifts_ok,
        set_matches=rescalings_ok
        and symmetric_ok
        and permutes_klein
        and lifts_ok
        and expected == aut_l.order,
        nodes=aut_l.nodes,
    )
