"""Loop and group morphisms, automorphism groups, and the structure of
Aut(M(G, 2)).

`automorphism_group` searches Aut level by level along the stabilizer chain
of a greedy generating set g1..gk, deepest level first.  Assigning an image
to one more generator forces images of everything it generates, and every
forced pair is checked against the table, so a completed assignment is an
automorphism by construction.  Candidate images are filtered by cheap
isomorphism invariants and pruned by orbits: an image already reached by
the automorphisms found so far, or in the orbit of a refuted image, is not
tried again.  The search stays exhaustive, since every other candidate is
either completed or refuted.  Aut is listed as the products of one
transversal element per level.  A `budget` caps the number of candidate
assignments tried (`AutGroup.nodes`), and raising past it is a hard error,
never a silent truncation.  The result is memoized on the table it was
computed from (`memo["aut"]`), so it lives exactly as long as that table;
a memo hit honours the budget too.

The two structure theorems verified here describe Aut(L) for L = M(G, 2):

- if G has no generalized dihedral decomposition (trichotomy case 2),
  Aut(L) = {translation o lift} and is isomorphic to G x| Aut(G);
- if G = M(H, 2) for abelian H with an element of order > 2 (case 3, G is
  the generalized dihedral group over H), then Aut(L) factors as
  N . S . A with N = H x H (coset rescalings), S = S3 (permuting the three
  involutions u1, u2, u3 = u1*u2 over the common core H), A = Aut(H).

Both verifications compare the constructed set against the brute-force
automorphism group element by element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import CheckError, ResourceLimitError
from .groups import GroupTable, closure, compose, composer
from .loops import LoopTable, chein_loop, subloop_closure

__all__ = [
    "Morphism",
    "compose_images",
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
]


@dataclass(frozen=True)
class Morphism:
    """A map between loops/groups given by its image tuple on 0..n-1."""

    images: Tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.images[x]

    @property
    def degree(self) -> int:
        return len(self.images)

    def is_bijective(self) -> bool:
        return len(set(self.images)) == len(self.images)


compose_images = compose  # (f o g)(x) = f(g(x))


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
        have = set(subloop_closure(t, gens))
    return tuple(gens)


def _profiles(t) -> List[Tuple]:
    """Cheap per-element isomorphism invariants used to prune the search."""
    n = t.order
    p = t.product
    orders = [t.element_order(x) for x in range(n)]
    sq_roots = [0] * n
    for y in range(n):
        sq_roots[p[y][y]] += 1
    commuting = [sum(1 for y in range(n) if p[x][y] == p[y][x]) for x in range(n)]
    return [(orders[x], sq_roots[x], commuting[x]) for x in range(n)]


@dataclass(frozen=True)
class AutGroup:
    """The full automorphism group as sorted image tuples."""

    elements: Tuple[Tuple[int, ...], ...]
    nodes: int  # candidate assignments tried by the search

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def element_set(self) -> FrozenSet[Tuple[int, ...]]:
        return frozenset(self.elements)

    def __contains__(self, images) -> bool:
        return tuple(images) in self.element_set

    def morphisms(self) -> List[Morphism]:
        return [Morphism(e) for e in self.elements]


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
    transversal element per level, each automorphism exactly once, so
    |Aut(t)| is the product of the orbit lengths.

    `nodes` counts the candidate assignments tried, i.e. the `extend`
    calls, including the k that fix g1..gk to themselves.  More than
    `budget` of them raise ResourceLimitError: the search is never silently
    truncated.  The result is memoized in `t.memo`, since amalgam work asks
    for the same edge loops over and over; the memo lives as long as `t`,
    and a hit raises the same error when its search needed more than
    `budget` nodes, so it behaves exactly like a fresh search.  CheckError
    (not `assert`, so also under `python -O`) reports a generating set
    that does not generate or transversal products that are not distinct.
    """
    cached = t.memo.get("aut")
    if cached is not None:
        if cached.nodes > budget:
            raise _budget_error(budget)
        return cached
    n = t.order
    p = t.product
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
        images = images[:]
        used = used[:]
        known = known[:]
        if used[b]:
            return None
        images[a] = b
        used[b] = True
        known.append(a)
        queue = [a]
        while queue:
            x = queue.pop()
            ix = images[x]
            for y in list(known):
                iy = images[y]
                for s, u, is_, iu in ((x, y, ix, iy), (y, x, iy, ix)):
                    z = p[s][u]
                    iz = p[is_][iu]
                    if images[z] < 0:
                        if used[iz]:
                            return None
                        images[z] = iz
                        used[iz] = True
                        known.append(z)
                        queue.append(z)
                    elif images[z] != iz:
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
    transversals: List[List[Tuple[int, ...]]] = []
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
                transversal[c] = tuple(map(f.__getitem__, transversal[parent]))
        transversals.append(list(transversal.values()))

    order = math.prod(len(level) for level in transversals)
    # Aut = T1 o ... o Tk; transversals run deepest level first
    elements: List[Tuple[int, ...]] = [identity]
    for level in transversals:
        elements = [tuple(map(f.__getitem__, suffix)) for f in level for suffix in elements]
    elements.sort()
    if len(elements) != order or any(a == b for a, b in zip(elements, elements[1:])):
        raise CheckError("the transversal products are not distinct automorphisms")
    t.memo["aut"] = AutGroup(tuple(elements), nodes)
    return t.memo["aut"]


# ---------------------------------------------------------------------------
# the distinguished automorphisms of a doubled loop


def translation_automorphism(t: LoopTable, g: int) -> Morphism:
    """phi_g: fixes the group half pointwise, maps x*u to (g*x)*u."""
    n = t.group_order
    if n is None or not 0 <= g < n:
        raise CheckError(f"translation needs a doubled loop and a group element, got {g}")
    gp = t.product  # group products live in the top-left block
    images = list(range(n)) + [n + gp[g][x] for x in range(n)]
    return Morphism(tuple(images))


def lifted_automorphism(t: LoopTable, psi: Sequence[int]) -> Morphism:
    """The automorphism of M(G, 2) induced by psi in Aut(G): x*u -> psi(x)*u."""
    n = t.group_order
    if n is None or len(psi) != n:
        raise CheckError("a lift needs a doubled loop and a map of its group half")
    images = [psi[x] for x in range(n)] + [n + psi[x] for x in range(n)]
    return Morphism(tuple(images))


# ---------------------------------------------------------------------------
# trichotomy


@dataclass(frozen=True)
class TrichotomyReport:
    case: int  # 1, 2, or 3
    label: str  # elementary_abelian / indecomposable / dihedral
    loop_order: int
    decomposition: Optional[Tuple[Tuple[int, ...], int]]  # (H elements, u')


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


@dataclass(frozen=True)
class SemidirectAutReport:
    loop_order: int
    aut_order: int
    group_aut_order: int
    expected_order: int  # |G| * |Aut(G)|
    translations_ok: bool
    lifts_ok: bool
    normal_relation_ok: bool  # lift o translation_g o lift^-1 == translation_psi(g)
    intersection_trivial: bool
    set_matches: bool
    nodes: int

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
    """Check Aut(M(G,2)) == {translation_g o lift_psi} element by element.

    Meaningful for trichotomy case 2; on other inputs the set comparison
    simply comes out False (there are extra automorphisms).
    """
    t = chein_loop(g)
    aut_g = automorphism_group(g, budget=budget)
    aut_l = automorphism_group(t, budget=budget)
    translations = [translation_automorphism(t, x).images for x in range(g.order)]
    lifts = [lifted_automorphism(t, psi).images for psi in aut_g.elements]
    translations_ok = all(is_automorphism(t, f) for f in translations)
    lifts_ok = all(is_automorphism(t, f) for f in lifts)
    relation_ok = True
    for psi, lift in zip(aut_g.elements, lifts):
        lift_inv = invert_images(lift)
        for x in range(g.order):
            lhs = compose_images(lift, compose_images(translations[x], lift_inv))
            if lhs != translations[psi[x]]:
                relation_ok = False
                break
        if not relation_ok:
            break
    inter = set(translations) & set(lifts)
    combined = {compose_images(tr, lf) for tr in translations for lf in lifts}
    return SemidirectAutReport(
        loop_order=t.order,
        aut_order=aut_l.order,
        group_aut_order=aut_g.order,
        expected_order=g.order * aut_g.order,
        translations_ok=translations_ok,
        lifts_ok=lifts_ok,
        normal_relation_ok=relation_ok,
        intersection_trivial=inter == {tuple(range(t.order))},
        set_matches=combined == set(aut_l.elements),
        nodes=aut_l.nodes,
    )


# ---------------------------------------------------------------------------
# case 3: Aut(M(M(H,2),2)) = (H x H) x| (S3 x Aut(H))


@dataclass(frozen=True)
class DoubledDihedralAutReport:
    h_order: int
    loop_order: int
    aut_order: int
    expected_order: int  # |H|^2 * 6 * |Aut(H)|
    klein_ok: bool  # {e, u1, u2, u3} is a Klein 4-subloop
    centralizer_ok: bool  # C_L(h) == H for the recorded h of order > 2
    centralizer_witness: int
    rescalings_ok: bool  # N = H x H: automorphisms, closed, exact size
    symmetric_ok: bool  # S = <sigma1, sigma2> has order 6, nonabelian
    lifts_ok: bool  # A = doubly lifted Aut(H)
    set_matches: bool
    nodes: int

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


def _doubled_coords(h_order: int, h_inv: Sequence[int], x: int):
    """Coordinates (h, c) of x in L = M(M(H,2),2), c in 0..3.

    The four cosets of H in L are H, H*u1, H*u2, H*u3 with u1 the doubling
    involution of G = M(H,2) and u2 that of L; u3 = u1*u2.  Indexwise:
    c=0: x = h; c=1: x = |H| + h (h*u1); c=2: x = 2|H| + h (h*u2);
    c=3: x = 3|H| + h^-1 (h*u3), the inversion coming from h*u3 = (h^-1*u1)*u2.
    """
    c, r = divmod(x, h_order)
    return (h_inv[r] if c == 3 else r, c)


def _doubled_elem(h_order: int, h_inv: Sequence[int], h: int, c: int) -> int:
    return c * h_order + (h_inv[h] if c == 3 else h)


def verify_doubled_dihedral_automorphisms(
    h: GroupTable, budget: int = 10_000_000
) -> DoubledDihedralAutReport:
    """Exhaustively verify the automorphism structure of L = M(M(H,2),2)
    for an abelian group H with an element of order > 2.

    The constructed automorphisms are:
    - rescalings f_{h1,h2}: fix H, multiply the H*u1 coset by h1 and the
      H*u2 coset by h2 (the H*u3 coset then picks up (h1*h2)^-1);
    - sigma1 = translation by u1, sigma2 = the swap of u1 and u3 fixing
      H and H*u2 pointwise up to inversion; together they generate the S3
      permuting u1, u2, u3;
    - lifts of Aut(H) applied on both doubling levels.

    Every product rescaling o sigma o lift is compared against the brute
    force Aut(L) as a set.
    """
    if not h.is_abelian():
        raise CheckError("H must be abelian")
    witness = next(
        (x for x in range(h.order) if h.element_order(x) > 2), None
    )
    if witness is None:
        raise CheckError("H must contain an element of order > 2")

    g_loop = chein_loop(h)  # associative since H is abelian
    g = GroupTable(g_loop.product, labels=g_loop.labels, validate=True)
    t = chein_loop(g)
    nh, ng = h.order, g.order
    hp, hinv = h.product, h.inverse
    p = t.product
    u1, u2 = nh, ng
    u3 = p[u1][u2]
    if u3 != ng + nh:
        raise CheckError(f"u1*u2 is {u3}, not the coset element {ng + nh}")

    klein = {0, u1, u2, u3}
    klein_ok = (
        subloop_closure(t, [u1, u2]) == tuple(sorted(klein))
        and p[u1][u1] == 0
        and p[u2][u2] == 0
        and p[u3][u3] == 0
        and p[u1][u2] == p[u2][u1] == u3
    )

    centralizer = [x for x in range(t.order) if p[x][witness] == p[witness][x]]
    centralizer_ok = centralizer == list(range(nh))

    def rescaling(h1: int, h2: int) -> Tuple[int, ...]:
        shift = (0, h1, h2, hinv[hp[h1][h2]])
        images = []
        for x in range(t.order):
            hh, c = _doubled_coords(nh, hinv, x)
            images.append(_doubled_elem(nh, hinv, hp[hh][shift[c]], c))
        return tuple(images)

    rescalings = {(h1, h2): rescaling(h1, h2) for h1 in range(nh) for h2 in range(nh)}
    rescalings_ok = (
        all(is_automorphism(t, f) for f in rescalings.values())
        and len(set(rescalings.values())) == nh * nh
        and all(
            compose_images(rescalings[(a, b)], rescalings[(c, d)])
            == rescalings[(hp[a][c], hp[b][d])]
            for (a, b), (c, d) in iproduct(rescalings, repeat=2)
        )
    )

    sigma1 = translation_automorphism(t, u1).images
    sigma2_images = []
    for x in range(t.order):
        hh, c = _doubled_coords(nh, hinv, x)
        sigma2_images.append(_doubled_elem(nh, hinv, hh, (0, 3, 2, 1)[c]))
    sigma2 = tuple(sigma2_images)
    symmetric = {tuple(range(t.order))}
    frontier = [tuple(range(t.order))]
    while frontier:
        new = []
        for f in frontier:
            for s in (sigma1, sigma2):
                fs = compose_images(f, s)
                if fs not in symmetric:
                    symmetric.add(fs)
                    new.append(fs)
        frontier = new
    symmetric_ok = (
        len(symmetric) == 6
        and all(is_automorphism(t, f) for f in symmetric)
        and compose_images(sigma1, sigma2) != compose_images(sigma2, sigma1)
    )

    aut_h = automorphism_group(h, budget=budget)
    lifts = []
    for psi in aut_h.elements:
        psi_g = lifted_automorphism(g_loop, psi).images
        lifts.append(lifted_automorphism(t, psi_g).images)
    lifts_ok = all(is_automorphism(t, f) for f in lifts) and len(set(lifts)) == aut_h.order

    aut_l = automorphism_group(t, budget=budget)
    combined = {
        compose_images(f, compose_images(s, a))
        for f in rescalings.values()
        for s in symmetric
        for a in lifts
    }
    return DoubledDihedralAutReport(
        h_order=nh,
        loop_order=t.order,
        aut_order=aut_l.order,
        expected_order=nh * nh * 6 * aut_h.order,
        klein_ok=klein_ok,
        centralizer_ok=centralizer_ok,
        centralizer_witness=witness,
        rescalings_ok=rescalings_ok,
        symmetric_ok=symmetric_ok,
        lifts_ok=lifts_ok,
        set_matches=combined == set(aut_l.elements),
        nodes=aut_l.nodes,
    )
