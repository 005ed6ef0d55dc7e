"""Amalgams of doubled loops over a diagram, and their classification.

For a diagram with underlying graph D, the amalgam assigns to every
simplex sigma of the edge complex (a set of 1-3 edges) the loop
G_sigma = L_J doubled from the standard parabolic W_J, where J is the
common-vertex core of sigma: the full doubled dihedral loop M(W_ij, 2)
on a single edge, the Klein loop on a pointed pair/triple, and Z2 = {e, u}
when the core is empty.  Connecting maps go from bigger simplices to
smaller ones (whose loops are bigger) and are the standard parabolic
embeddings, except that the Klein-into-edge components phi_{j,e} may be
composed with the vertex twist gamma_j (s_j -> s_j*u).  The subset of
twisted (j, e) components is the whole content of an amalgam here: maps
between equal cores are identities and Z2 embeds by u -> u, both forced.

The classification: with a spanning tree fixed, twisting exactly the
components (o_j, e_j) at the non-tree edges e_j, j in delta, yields 2^n
pairwise non-isomorphic amalgams (n the cycle rank), and every cocycle
yields an amalgam in the class of its cohomology class in H^1(D).

An isomorphism is fixed by its edge assignments theta, one automorphism
per edge loop stabilizing the embedded subloops.  Every map an edge
induces at a vertex j is the identity or the vertex twist gamma_j, which
is certified on the finite local data; so the assignments that carry one
amalgam to another are the solutions of one GF(2) system
(`_twist_system`).  `amalgams_isomorphic` reads a solution from its
kernel and certifies the whole family, or certifies non-isomorphism by
the elimination: no kernel vector reaches the twists that differ.

`classify_twisted_amalgams` needs one elimination, not one per pair:
with one leading column per delta bit, the kernel of the same system
gives the orbit O of the standard amalgam (every a_S isomorphic to it)
as its image.  The orbit of every a_T is T + O, O is certified to be a
subgroup of the deltas under symmetric difference, and the classes are
its cosets.  That is the H^1 = Z^1 / B^1 statement, certified by one
elimination instead of 2^(2n-1) searches.

What an amalgam holds: one loop per distinct core, and one image tuple
per distinct (core of tau, core of rho, twisted), keyed by face pair for
the maps out of a pointed simplex (`stored`) and by the target's core for
the maps out of an empty core (`free`).  The simplices are generated by
the edge complex and their cores read by rule (`EdgeComplex.core_of`), so
nothing is held per unpointed simplex.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations
from math import prod
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from . import gf2
from .cohomology import EdgeComplex, _set_stabilizer, build_complex, vertex_coboundary, vertex_twist
from .coxeter import CoxeterDiagram, embed_parabolic, enumerate_group, subdiagram
from .errors import CheckError, ResourceLimitError
from .graphs import Edge, SpanningTree, spanning_tree
from .groups import GroupTable, closure, compose
from .loops import LoopTable, chein_loop
from .morphisms import is_automorphism, is_homomorphism

Simplex = Tuple[Edge, ...]

__all__ = [
    "Amalgam",
    "standard_amalgam",
    "twisted_amalgam",
    "cocycle_to_amalgam",
    "verify_amalgam",
    "AmalgamReport",
    "loop_completion",
    "verify_completion",
    "CompletionReport",
    "amalgams_isomorphic",
    "IsoReport",
    "classify_twisted_amalgams",
    "ClassificationReport",
    "delta_cocycle",
]


class CoreData(namedtuple("CoreData", [
    "core",
    "group",
    "loop",
    "gen_of",  # diagram vertex -> its reflection in the loop
    "u",  # index of the doubling involution
])):
    """The standard loop attached to a core J (0, 1 or 2 vertices)."""

    __slots__ = ()


def _proper_faces(tau: Simplex) -> List[Simplex]:
    """The proper faces of tau, as `combinations(tau, k)` lists them."""
    if len(tau) == 3:
        e, f, g = tau
        return [(e,), (f,), (g,), (e, f), (e, g), (f, g)]
    return [(tau[0],), (tau[1],)] if len(tau) == 2 else []


class Amalgam:
    def __init__(
        self,
        diagram: CoxeterDiagram,
        cx: EdgeComplex,
        core_data: Dict[Tuple[int, ...], CoreData],
        stored: Dict[Tuple[Simplex, Simplex], Tuple[int, ...]],
        free: Dict[Tuple[int, ...], Tuple[int, ...]],
        kind: str,
        twists: FrozenSet[Tuple[int, Edge]],
    ):
        self.diagram = diagram
        self.complex = cx
        self._core_data = core_data
        self.stored = stored  # (tau, rho) -> images, for every tau with a core
        self.free = free  # core of rho -> images of the map into G_rho from an empty core
        self.kind = kind
        self.twists = twists

    def faces(self, tau: Simplex) -> List[Tuple[Simplex, Tuple[int, ...]]]:
        """(rho, images of psi: G_tau -> G_rho) for each proper face rho of
        tau.  A map is fixed by the two cores and the twist, and interned
        by them; out of an empty core (nearly every simplex of a large
        complex, never twisted) it is `free[core of rho]`, so only the maps
        out of a core are `stored`.  KeyError unless tau is a simplex."""
        core = self.complex.core
        if self.complex.core_of(tau):
            return [(rho, self.stored[tau, rho]) for rho in _proper_faces(tau)]
        return [(rho, self.free[core.get(rho, ())]) for rho in _proper_faces(tau)]

    def core_of(self, sigma: Simplex) -> Tuple[int, ...]:
        return self.complex.core_of(tuple(sigma))

    def loop_of(self, sigma: Simplex) -> LoopTable:
        return self._core_data[self.core_of(sigma)].loop

    def core_loop(self, core: Tuple[int, ...]) -> CoreData:
        return self._core_data[tuple(core)]

    def connecting(self, tau: Simplex, rho: Simplex) -> Tuple[int, ...]:
        return dict(self.faces(tuple(tau)))[tuple(rho)]

    def core_subloop(self, core: Sequence[int], sub: Sequence[int]) -> Tuple[int, ...]:
        """Canonical subloop of L_core generated by the reflections of
        `sub` (a subset of core) together with u."""
        data = self._core_data[tuple(core)]
        return closure(data.loop, [data.gen_of[v] for v in sub] + [data.u])

    def __repr__(self) -> str:
        return f"Amalgam(kind={self.kind!r}, edges={len(self.complex.edges)})"


def _build_core_data(d: CoxeterDiagram, cx: EdgeComplex) -> Dict[Tuple[int, ...], CoreData]:
    """The loops of all cores: one group and one doubled loop per distinct
    core subdiagram (every vertex is A1, and edges with equal labels share
    theirs), so each distinct loop has one `Aut` memo."""
    for i, j in cx.graph.edges:
        if d.m(i, j) == float("inf"):
            raise ValueError(
                f"edge ({i},{j}) has an infinite label; amalgam loops need finite edges"
            )
    out: Dict[Tuple[int, ...], CoreData] = {}
    trivial = GroupTable([[0]], labels=["e"], words=[()], validate=False)
    out[()] = CoreData((), trivial, chein_loop(trivial), {}, 1)
    groups: Dict[CoxeterDiagram, GroupTable] = {}
    cores = [(v,) for v in cx.graph.vertices] + [tuple(e) for e in cx.graph.edges]
    for core in cores:
        sub = subdiagram(d, core)
        if sub not in groups:
            groups[sub] = enumerate_group(sub)
        w = groups[sub]
        gen_of = {v: w.generators[k] for k, v in enumerate(core)}
        out[core] = CoreData(core, w, chein_loop(w), gen_of, w.order)
    return out


def _inclusion_images(src: GroupTable, positions: Sequence[int], tgt: GroupTable) -> Tuple[int, ...]:
    """Images of the standard embedding M(src, 2) -> M(tgt, 2) of doubled
    parabolics (`embed_parabolic` on the group half, g*u -> g*u on the
    coset; the trivial group gives u -> u)."""
    group_images = embed_parabolic(src, positions, tgt)
    return group_images + tuple(tgt.order + g for g in group_images)


def _build(
    d: CoxeterDiagram, cx: EdgeComplex, twists: FrozenSet[Tuple[int, Edge]], kind: str
) -> Amalgam:
    core_data = _build_core_data(d, cx)
    interned: Dict[Tuple, Tuple[int, ...]] = {}

    def images(j_tau: Tuple[int, ...], j_rho: Tuple[int, ...], twisted: bool) -> Tuple[int, ...]:
        key = (j_tau, j_rho, twisted)
        if key not in interned:
            if j_tau == j_rho:
                interned[key] = tuple(range(core_data[j_tau].loop.order))
            else:
                positions = [j_rho.index(v) for v in j_tau]
                interned[key] = _inclusion_images(core_data[j_tau].group, positions, core_data[j_rho].group)
                if twisted:
                    interned[key] = compose(interned[key], vertex_twist(core_data[j_tau].loop))
        return interned[key]

    # the simplices with a core are the singletons, which have no proper
    # face, and the pointed pairs and triples of the stars
    stored: Dict[Tuple[Simplex, Simplex], Tuple[int, ...]] = {}
    for v, star in cx.stars.items():
        for tau in star.pairs + star.triples:
            for rho in _proper_faces(tau):
                stored[tau, rho] = images((v,), cx.core[rho], len(rho) == 1 and (v, rho[0]) in twists)
    free = {}
    for j in core_data:
        free[j] = images((), j, False)
    return Amalgam(d, cx, core_data, stored, free, kind, twists)


def standard_amalgam(d: CoxeterDiagram) -> Amalgam:
    """The inclusion amalgam; requires finite labels on all edges."""
    return _build(d, build_complex(d.underlying_graph()), frozenset(), "standard")


def twisted_amalgam(d: CoxeterDiagram, delta: Iterable[int]) -> Amalgam:
    """The normalized twisted amalgam for delta, a set of 1-based indices
    into the non-tree edges e_1 < ... < e_n of the BFS spanning tree:
    component (o_j, e_j) is twisted exactly for j in delta."""
    graph = d.underlying_graph()
    st = spanning_tree(graph)  # also rejects disconnected graphs
    dset = frozenset(delta)
    return _build(d, build_complex(graph), _twists(st, dset), f"twisted{sorted(dset)}")


def _twists(st: SpanningTree, delta: FrozenSet[int]) -> FrozenSet[Tuple[int, Edge]]:
    """The components (o_j, e_j) for j in delta; ValueError unless delta is
    a subset of 1..n."""
    n = len(st.nontree_edges)
    if not all(isinstance(j, int) and 1 <= j <= n for j in delta):
        raise ValueError(f"delta must be a subset of 1..{n}, got {sorted(delta)}")
    return frozenset((st.chosen_vertex[j - 1], st.nontree_edges[j - 1]) for j in delta)


def cocycle_to_amalgam(d: CoxeterDiagram, z: int) -> Amalgam:
    """The amalgam of a 1-cocycle z (bitmask over the pointed pairs of the
    edge complex, in lexicographic order).

    At each vertex j the cocycle condition makes z consistent on the star,
    so there are local potentials c_{j,e} with c_{j,e} + c_{j,f} = z_{ef};
    they are normalized by c = 0 on the lex-smallest edge at j, and the
    components with c_{j,e} = 1 are twisted.  Changing the normalization
    composes the maps out of L_j with gamma_j, an isomorphic amalgam.
    """
    graph = d.underlying_graph()
    if not graph.is_connected():
        raise ValueError("cocycle amalgams need a connected graph")
    cx = build_complex(graph)
    npairs = len(cx.pointed_pairs)
    if z < 0 or z >> npairs:
        raise ValueError(f"cocycle has bits outside the {npairs} pointed pairs")
    on = set(gf2.support(z))
    if any(sum(p in on for p in faces) & 1 for faces in cx.d1_faces):
        raise ValueError("not a cocycle: d1(z) != 0")
    twists = set()
    for j, star in cx.stars.items():
        pot = dict.fromkeys(star.edges, 0)
        for e, f in star.pairs:  # the pairs at the lex-smallest edge come first
            bit = (z >> cx.pair_pos[(e, f)]) & 1
            if e == star.edges[0]:
                pot[f] = bit
            elif (pot[e] ^ pot[f]) != bit:
                raise CheckError("cocycle is inconsistent on a vertex star")
        twists.update((j, e) for e in star.edges if pot[e])
    return _build(d, cx, frozenset(twists), "cocycle")


# ---------------------------------------------------------------------------
# verification


class AmalgamReport(namedtuple("AmalgamReport", "simplices maps_checked chains_checked "
                               "injective_ok homomorphism_ok composition_ok")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.injective_ok and self.homomorphism_ok and self.composition_ok


def verify_amalgam(a: Amalgam) -> AmalgamReport:
    """Connecting maps are injective homomorphisms and compose correctly
    along every chain sigma < rho < tau.

    Every face pair and chain is visited and counted, but each distinct
    (images, domain, codomain) is certified once and each distinct chain
    (outer, inner, direct) composed once: the keys are the maps' values,
    so a pair that carries any other map is certified on its own."""
    core, loop = a.complex.core, {}
    for j, data in a._core_data.items():
        loop[j] = data.loop
    maps: Set[Tuple] = set()
    chains: Set[Tuple] = set()
    below: Dict[Simplex, List[Tuple[Simplex, Tuple[int, ...]]]] = {}  # the faces of each pair
    nsimplices = nmaps = nchains = 0
    for tau in a.complex.simplices():  # the pairs come before the triples
        nsimplices += 1
        down = a.faces(tau)
        nmaps += len(down)
        dom = loop[core.get(tau, ())]
        for rho, images in down:
            maps.add((images, dom, loop[core.get(rho, ())]))
        if len(tau) == 2:
            below[tau] = down
        elif len(tau) == 3:
            direct = dict(down)
            for rho in combinations(tau, 2):
                inner = direct[rho]
                nchains += len(below[rho])
                for sig, outer in below[rho]:
                    chains.add((outer, inner, direct[sig]))
    inj = hom = comp = True
    for images, dom, cod in maps:
        inj &= len(set(images)) == len(images)
        hom &= is_homomorphism(images, dom, cod)
    for outer, inner, direct in chains:
        comp &= compose(outer, inner) == direct
    return AmalgamReport(
        simplices=nsimplices,
        maps_checked=nmaps,
        chains_checked=nchains,
        injective_ok=inj,
        homomorphism_ok=hom,
        composition_ok=comp,
    )


class CompletionReport(namedtuple("CompletionReport", "loop_order maps_checked "
                                  "injective_ok homomorphism_ok commuting_ok")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.injective_ok and self.homomorphism_ok and self.commuting_ok


def loop_completion(a: Amalgam, w: GroupTable):
    """The loop M(W, 2) of the whole diagram together with the embeddings
    of every loop of the amalgam `a`; `w` is the (finite) Coxeter group W
    of `a.diagram` with its simple reflections in vertex order, as
    `enumerate_group` gives it.

    Returns (loop, maps) with maps[sigma] the image tuple of G_sigma, one
    tuple per core."""
    if len(w.generators) != a.diagram.rank:
        raise ValueError(f"W has {len(w.generators)} generators, the diagram rank {a.diagram.rank}")
    loop = chein_loop(w)
    maps: Dict[Simplex, Tuple[int, ...]] = {}
    by_core: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    for sigma in a.complex.simplices():
        core = a.core_of(sigma)
        if core not in by_core:
            by_core[core] = _inclusion_images(a.core_loop(core).group, [v - 1 for v in core], w)
        maps[sigma] = by_core[core]
    return loop, maps


def verify_completion(
    a: Amalgam, loop: LoopTable, maps: Dict[Simplex, Tuple[int, ...]]
) -> CompletionReport:
    """phi_rho o psi_tau^rho == phi_tau for every face pair, with every
    phi an injective homomorphism into the completing loop.

    Each distinct (phi, domain) is certified once, and each distinct
    square (phi_rho, psi, phi_tau) checked once, keyed by the maps' values."""
    embeds: Set[Tuple] = set()
    squares: Set[Tuple] = set()
    for tau in a.complex.simplices():
        embeds.add((maps[tau], a.loop_of(tau)))
        for rho, psi in a.faces(tau):
            squares.add((maps[rho], psi, maps[tau]))
    inj = hom = comm = True
    for phi, dom in embeds:
        inj &= len(set(phi)) == len(phi)
        hom &= is_homomorphism(phi, dom, loop)
    for phi_rho, psi, phi_tau in squares:
        comm &= compose(phi_rho, psi) == phi_tau
    return CompletionReport(
        loop_order=loop.order,
        maps_checked=len(maps),
        injective_ok=inj,
        homomorphism_ok=hom,
        commuting_ok=comm,
    )


# ---------------------------------------------------------------------------
# isomorphism of amalgams


class IsoReport(namedtuple("IsoReport", [
    "isomorphic",
    "witness",  # simplex -> images of its theta, or None
    "assignments",  # edge assignments checked against the maps: 1 with a witness, else 0
    "space",  # the product of the per-edge candidate counts
    "exhausted",  # True: the elimination decides over the whole space
])):
    __slots__ = ()


def _edge_candidates(a: Amalgam, e: Edge, budget: int) -> List[Tuple[int, ...]]:
    """Automorphisms of the edge loop compatible with every coface image.

    The connecting-map images out of a coface depend only on its core (the
    twists act inside the subloop), which is an end of e or empty, so the
    candidate set is the stabilizer of one image per distinct core inside
    Aut(L_e): the Klein subloop of each end of degree >= 2, from a pointed
    pair there, and {0, u} when some coface has empty core.  When both
    ends have degree >= 2, {0, u} is where their Klein subloops meet, so
    it is stabilized already; else a coface of empty core is e with an
    edge disjoint from it."""
    cx = a.complex
    near = [f for f in (next((f for f in cx.stars[j].edges if f != e), None) for j in e) if f]
    cofaces = [(e, f) for f in near]
    if len(near) < 2:
        cofaces += [(e, g) for g in cx.edges if not set(g) & set(e)][:1]
    targets = {frozenset(a.connecting(tuple(sorted(tau)), (e,))) for tau in cofaces}
    return _set_stabilizer(a.loop_of((e,)), targets, budget)


def _star(cx: EdgeComplex) -> bool:
    """Whether one vertex lies on every edge."""
    return bool(set(cx.graph.vertices).intersection(*cx.edges))


def _twist_system(a: Amalgam, lead: Dict[Tuple[int, Edge], int], width: int, budget: int):
    """The GF(2) system whose solutions are the edge assignments theta,
    one candidate per edge, that carry an amalgam a_T of `a`'s type onto
    an a_S, with `width` leading columns set on each slot (j, e) by the
    bit mask `lead[(j, e)]`.

    The maps of a_T and a_S differ only in the Klein-into-edge components
    psi_{j,e} = iota_{j,e} o gamma_j^{T(j,e)}, and the loop map that
    theta_e induces on a pointed simplex at j through e is
    gamma_j^{S(j,e)} o r_{j,e}(theta_e) o gamma_j^{T(j,e)}, with
    r_{j,e}(f) = iota^-1 o f o iota.  It depends on (j, e) only, so theta
    is accepted exactly when, at every vertex j of degree >= 2, these maps
    agree over the edges at j.

    Lemma, certified here for every such j, e and candidate f: r_{j,e}(f)
    commutes with gamma_j, and is the identity or gamma_j, read as the bit
    b_{j,e}(f) (CheckError otherwise).  It holds when f fixes u, since
    the automorphisms of the Klein loop that fix u are the identity and
    gamma_j; and each candidate stabilizes the Klein subloops of both ends
    of e, which meet in the identity and u, or, when e is pendant, the one
    at j and the image {identity, u} of an edge disjoint from e.  Only on
    a star graph (one vertex on every edge) has a pendant edge no disjoint
    edge; there the candidates that fix u are the ones read.

    So theta is accepted exactly when S(j,e) + T(j,e) + b_{j,e}(theta_e)
    is one value c_j over the star of each j of degree >= 2: only the sum
    of the twist sets counts.  The candidates of e = (v, w) form a group
    and r is a homomorphism, so the pairs R_e of (b_{v,e}, b_{w,e}) form a
    subgroup of Z2^2, certified closed under XOR, with coordinates x_e
    over its basis.  One row per slot (j, e): the leading bits + the R_e
    coordinate at j + c_j = 0, over the unknowns (leading, c, x), so a
    solution with leading bits l stands for S + T = l . lead per slot.

    Returns (space, rows, ncols, edge_theta): the product of the candidate
    counts, the rows over their ncols columns, and the map from a solution
    to theta on the edges.  ResourceLimitError when the space exceeds the
    budget.
    """
    cx = a.complex
    cand = {e: _edge_candidates(a, e, budget) for e in cx.edges}
    space = prod(len(c) for c in cand.values())
    if space > budget:
        raise ResourceLimitError(f"amalgam isomorphism search exceeded budget={budget}")
    if _star(cx):
        cand = {e: [f for f in c if f[a.core_loop(e).u] == a.core_loop(e).u] for e, c in cand.items()}

    # the unknowns: the leading bits, c_j for the k-th vertex j in column
    # width + k, then a basis of each R_e; one row per slot (j, e), and per
    # candidate of e = (v, w) its pair in R_e, b_{v,e} in bit 0 and b_{w,e} in bit 1
    rows: Dict[Tuple[int, Edge], int] = {}
    pairs = {e: [0] * len(c) for e, c in cand.items()}
    for k, j in enumerate(cx.graph.vertices):
        star = cx.stars[j].edges
        if len(star) < 2:
            continue
        gamma = vertex_twist(a.core_loop((j,)).loop)
        for e in star:
            other = star[1] if e == star[0] else star[0]
            iota = a.connecting(tuple(sorted((e, other))), (e,))
            psi = (iota, compose(iota, gamma))
            inv = [{y: x for x, y in enumerate(q)} for q in psi]
            for i, f in enumerate(cand[e]):
                # m[t][s]: the induced map for T(j, e) = t and S(j, e) = s
                m = [[tuple(inv[s][f[x]] for x in psi[t]) for s in (0, 1)] for t in (0, 1)]
                if m[0] != m[1][::-1]:
                    raise CheckError(
                        f"an induced map at vertex {j} through edge {e} "
                        "does not commute with the vertex twist"
                    )
                if m[0][0] not in (tuple(range(len(gamma))), gamma):
                    raise CheckError(
                        f"an induced map at vertex {j} through edge {e} "
                        "is neither the identity nor the vertex twist"
                    )
                pairs[e][i] |= (m[0][0] == gamma) << e.index(j)
            rows[(j, e)] = lead.get((j, e), 0) | 1 << (width + k)
    ncols = width + len(cx.graph.vertices)
    columns: Dict[Edge, List[Tuple[int, int]]] = {}  # e -> (column, pair) per basis element of R_e
    for e, restrictions in pairs.items():
        r = set(restrictions)
        basis = gf2.gf2_rref(list(r), 2)[1]
        if len(r) != 1 << len(basis):
            raise CheckError(f"the candidate restrictions on edge {e} are not closed under XOR")
        columns[e] = []
        for b in basis:  # an end of degree 1 has no slot, and its bit is 0
            for end, j in enumerate(e):
                if b >> end & 1:
                    rows[(j, e)] |= 1 << ncols
            columns[e].append((ncols, b))
            ncols += 1

    def edge_theta(v: int) -> Dict[Simplex, Tuple[int, ...]]:
        # per edge, the first candidate whose pair is v's R_e coordinates
        theta = {}
        for e, basis in columns.items():
            pair = 0
            for col, b in basis:
                pair ^= b * (v >> col & 1)
            theta[(e,)] = cand[e][pairs[e].index(pair)]
        return theta

    return space, list(rows.values()), ncols, edge_theta


def amalgams_isomorphic(a: Amalgam, b: Amalgam, budget: int = 10_000_000) -> IsoReport:
    """Decide whether a family theta_sigma in Aut(G_sigma) with
    theta_rho o psi_a == psi_b o theta_tau on every face pair exists.

    theta on the edge simplices determines theta everywhere else (the
    connecting maps are injective with equal images on both sides), and
    the edge assignments that work are the solutions of `_twist_system`
    with one leading column, set on the slots of a.twists ^ b.twists: the
    kernel vectors with that bit set.  From one of them, theta_e is read
    off its R_e coordinates, theta on each larger simplex through its
    first edge face, and `_assert_witness` certifies the family.  No such
    vector certifies non-isomorphism by the system's lemma.  On a star
    graph, where the lemma reads only the candidates fixing u, the edge
    twists realize every gamma_j, so every pair is isomorphic, and a
    system without a solution raises CheckError.
    """
    if a.complex.graph != b.complex.graph:
        raise ValueError("amalgams live over different graphs")
    if any(data.loop.product != b.core_loop(j).loop.product for j, data in a._core_data.items()):
        raise ValueError("amalgams do not share their standard loops")
    if any(frozenset(x) != frozenset(b.stored[key]) for key, x in a.stored.items()) or any(
        frozenset(x) != frozenset(b.free[j]) for j, x in a.free.items()
    ):
        raise ValueError("amalgams are not of a common type (images differ)")

    space, rows, ncols, edge_theta = _twist_system(a, dict.fromkeys(a.twists ^ b.twists, 1), 1, budget)
    v = next((v for v in gf2.gf2_kernel_basis(rows, ncols) if v & 1), None)
    if v is None:
        if _star(a.complex):
            raise CheckError(
                "the amalgams over a star graph are isomorphic, but the system has no solution"
            )
        return IsoReport(False, None, 0, space, True)
    theta = edge_theta(v)
    for tau in a.complex.simplices():
        rho = tau[:1]
        if len(tau) > 1 and a.core_of(tau):
            inv = {y: x for x, y in enumerate(b.stored[tau, rho])}
            theta[tau] = tuple(inv[theta[rho][y]] for y in a.stored[tau, rho])
        elif len(tau) > 1:
            theta[tau] = (0, 1)  # Aut(Z2) is trivial
    _assert_witness(a, b, theta)
    return IsoReport(True, theta, 1, space, True)


def _assert_witness(a: Amalgam, b: Amalgam, theta: Dict[Simplex, Tuple[int, ...]]) -> None:
    for sigma in a.complex.simplices():
        if not is_automorphism(a.loop_of(sigma), theta[tuple(sigma)]):
            raise CheckError("isomorphism witness is not an automorphism family")
    for tau in a.complex.simplices():
        for (rho, psi_a), (_, psi_b) in zip(a.faces(tau), b.faces(tau)):
            if compose(theta[rho], psi_a) != compose(psi_b, theta[tau]):
                raise CheckError("isomorphism witness fails to commute")


# ---------------------------------------------------------------------------
# classification


class ClassificationReport(namedtuple("ClassificationReport", [
    "cycle_rank",
    "nontree_edges",
    "chosen_vertices",
    "class_count",
    "classes",  # deltas (frozensets) grouped by class
    "pairs_checked",
])):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.class_count == 2 ** self.cycle_rank


def classify_twisted_amalgams(a: Amalgam, budget: int = 10_000_000) -> ClassificationReport:
    """Partition the 2^n normalized twisted amalgams over the diagram of
    the standard amalgam `a` into isomorphism classes; the expected outcome
    is 2^n singleton classes.

    One GF(2) elimination (`_standard_orbit`) gives the orbit O of the
    standard amalgam, as the image of the kernel of the system over the
    edge assignments, and certifies that the orbit of every delta T is
    T + O.  O is certified to contain the empty delta and to be closed
    under symmetric difference, so the classes are the cosets of O,
    numbered in the order their first deltas come (by size, then
    lexicographically).
    `pairs_checked` is that of the greedy pairwise comparison, each delta
    against the first member of every class so far: k + 1 for a delta that
    joins class k, the number of classes so far for one that opens a new
    class.  Every merge is still confirmed by `amalgams_isomorphic` and
    carries its checked witness.  The budget applies as there:
    ResourceLimitError when n >= 1 and the product of the per-edge
    candidate counts exceeds it, though no elimination walks that space.
    """
    if a.twists:
        raise ValueError("classification starts from the standard amalgam")
    d = a.diagram
    st = spanning_tree(a.complex.graph)
    n = len(st.nontree_edges)
    orbit = _standard_orbit(a, st, budget) if n else {0}
    if 0 not in orbit:
        raise CheckError("the standard amalgam is missing from its own orbit")
    if len(orbit) != 1 << gf2.gf2_rank(list(orbit), n):
        raise CheckError(
            "the orbit of the standard amalgam is not closed under symmetric difference"
        )
    classes: List[List[FrozenSet[int]]] = []
    class_of: Dict[int, int] = {}  # delta bitmask (bit k - 1 for e_k) -> its class
    pairs = 0
    for size in range(n + 1):
        for combo in combinations(range(1, n + 1), size):
            delta = frozenset(combo)
            mask = sum(1 << (k - 1) for k in combo)
            c = class_of.get(mask)
            if c is None:
                pairs += len(classes)
                for o in orbit:
                    class_of[mask ^ o] = len(classes)
                classes.append([delta])
                continue
            pairs += c + 1
            pair = [_build(d, a.complex, _twists(st, t), f"twisted{sorted(t)}") for t in (classes[c][0], delta)]
            if not amalgams_isomorphic(*pair, budget=budget).isomorphic:
                raise CheckError(
                    f"the orbit merges {sorted(delta)} into {sorted(classes[c][0])}, "
                    "the isomorphism search does not"
                )
            classes[c].append(delta)
    return ClassificationReport(
        cycle_rank=n,
        nontree_edges=st.nontree_edges,
        chosen_vertices=st.chosen_vertex,
        class_count=len(classes),
        classes=tuple(tuple(cls) for cls in classes),
        pairs_checked=pairs,
    )


def _standard_orbit(a: Amalgam, st: SpanningTree, budget: int) -> Set[int]:
    """The deltas S (bit k - 1 for e_k) with a_S isomorphic to the standard
    amalgam `a`: the kernel of `_twist_system` with one leading column per
    delta bit, set on the slot (o_k, e_k), read on the delta bits.  The
    system counts only the sum of the twist sets, so the orbit of a_T is
    T + this orbit, and one system with T empty serves every T."""
    n = len(st.nontree_edges)
    lead = {(o, e): 1 << k for k, (o, e) in enumerate(zip(st.chosen_vertex, st.nontree_edges))}
    _, rows, ncols, _ = _twist_system(a, lead, n, budget)
    orbit = {0}
    for v in gf2.gf2_kernel_basis(rows, ncols):
        v &= (1 << n) - 1
        if v not in orbit:
            orbit |= {o ^ v for o in orbit}
    return orbit


def delta_cocycle(d: CoxeterDiagram, delta: Iterable[int]) -> int:
    """The cocycle sum of d0_{o_j}(a_{e_j}) over j in delta, in the pointed
    pair coordinates of the edge complex — the class twisted_amalgam(delta)
    realizes."""
    graph = d.underlying_graph()
    st = spanning_tree(graph)
    cx = build_complex(graph)
    z = 0
    for o, e in _twists(st, frozenset(delta)):
        z ^= vertex_coboundary(cx, o, e)
    return z
