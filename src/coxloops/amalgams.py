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
`amalgams_isomorphic` decides isomorphism by exhaustive search over the
only free choices — the automorphisms of the edge loops stabilizing the
embedded subloops — propagating each choice to every higher simplex and
checking consistency, so a failed search certifies non-isomorphism.

`classify_twisted_amalgams` needs one gauge sweep, not one search per
pair: the same space of edge assignments theta, walked depth first from
the standard amalgam with each vertex tested as soon as its edges are
assigned, lists the orbit O of the standard amalgam (every a_S isomorphic
to it) at once.  Every map an edge induces at a vertex j commutes with
the vertex twist gamma_j, which the sweep certifies on the finite local
data; so the orbit of every a_T is T + O, O is certified to be a subgroup
of the deltas under symmetric difference, and the classes are its cosets.
That is the H^1 = Z^1 / B^1 statement, certified by exhaustion in one
sweep instead of 2^(2n-1) searches.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, product as iproduct
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from . import gf2
from .cohomology import EdgeComplex, _set_stabilizer, build_complex, vertex_coboundary, vertex_twist
from .coxeter import CoxeterDiagram, embed_parabolic, enumerate_group, subdiagram
from .errors import CheckError, ResourceLimitError
from .graphs import Edge, SpanningTree, spanning_tree
from .groups import GroupTable, closure, compose
from .loops import LoopTable, chein_loop
from .morphisms import is_homomorphism

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


class Amalgam:
    def __init__(
        self,
        diagram: CoxeterDiagram,
        cx: EdgeComplex,
        core_data: Dict[Tuple[int, ...], CoreData],
        maps: Dict[Tuple[Simplex, Simplex], Tuple[int, ...]],
        kind: str,
        twists: FrozenSet[Tuple[int, Edge]],
    ):
        self.diagram = diagram
        self.complex = cx
        self._core_data = core_data
        self.maps = maps  # (tau, rho) -> images of psi: G_tau -> G_rho, rho < tau
        self.kind = kind
        self.twists = twists

    def simplices(self) -> List[Simplex]:
        return self.complex.simplices()

    def core_of(self, sigma: Simplex) -> Tuple[int, ...]:
        return self.complex.core[tuple(sigma)]

    def loop_of(self, sigma: Simplex) -> LoopTable:
        return self._core_data[self.core_of(sigma)].loop

    def core_loop(self, core: Tuple[int, ...]) -> CoreData:
        return self._core_data[tuple(core)]

    def connecting(self, tau: Simplex, rho: Simplex) -> Tuple[int, ...]:
        return self.maps[(tuple(tau), tuple(rho))]

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
    klein_twist = {
        (v,): vertex_twist(core_data[(v,)].loop) for v in cx.graph.vertices
    }
    maps: Dict[Tuple[Simplex, Simplex], Tuple[int, ...]] = {}
    for tau in cx.simplices():
        j_tau = cx.core[tau]
        for size in range(1, len(tau)):
            for rho_edges in combinations(tau, size):
                rho = tuple(rho_edges)
                j_rho = cx.core[rho]
                if j_tau == j_rho:
                    images = tuple(range(core_data[j_tau].loop.order))
                else:
                    positions = [j_rho.index(v) for v in j_tau]
                    images = _inclusion_images(
                        core_data[j_tau].group, positions, core_data[j_rho].group
                    )
                    if len(j_tau) == 1 and len(rho) == 1 and (j_tau[0], rho[0]) in twists:
                        images = compose(images, klein_twist[j_tau])
                maps[(tau, rho)] = images
    return Amalgam(d, cx, core_data, maps, kind, twists)


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
    along every chain sigma < rho < tau."""
    inj = hom = comp = True
    nmaps = 0
    for (tau, rho), images in a.maps.items():
        nmaps += 1
        if len(set(images)) != len(images):
            inj = False
        if not is_homomorphism(images, a.loop_of(tau), a.loop_of(rho)):
            hom = False
    chains = 0
    for tau in a.simplices():
        if len(tau) < 3:
            continue
        for mid in range(2, len(tau)):
            for rho_edges in combinations(tau, mid):
                rho = tuple(rho_edges)
                for small in range(1, mid):
                    for sig_edges in combinations(rho, small):
                        sig = tuple(sig_edges)
                        chains += 1
                        via = compose(a.connecting(rho, sig), a.connecting(tau, rho))
                        if via != a.connecting(tau, sig):
                            comp = False
    return AmalgamReport(
        simplices=len(a.simplices()),
        maps_checked=nmaps,
        chains_checked=chains,
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

    Returns (loop, maps) with maps[sigma] the image tuple of G_sigma."""
    if len(w.generators) != a.diagram.rank:
        raise ValueError(f"W has {len(w.generators)} generators, the diagram rank {a.diagram.rank}")
    loop = chein_loop(w)
    maps: Dict[Simplex, Tuple[int, ...]] = {}
    for sigma in a.simplices():
        core = a.core_of(sigma)
        maps[sigma] = _inclusion_images(a.core_loop(core).group, [v - 1 for v in core], w)
    return loop, maps


def verify_completion(
    a: Amalgam, loop: LoopTable, maps: Dict[Simplex, Tuple[int, ...]]
) -> CompletionReport:
    """phi_rho o psi_tau^rho == phi_tau for every face pair, with every
    phi an injective homomorphism into the completing loop."""
    inj = hom = comm = True
    for sigma in a.simplices():
        phi = maps[tuple(sigma)]
        if len(set(phi)) != len(phi):
            inj = False
        if not is_homomorphism(phi, a.loop_of(sigma), loop):
            hom = False
    for (tau, rho), psi in a.maps.items():
        if compose(maps[rho], psi) != maps[tau]:
            comm = False
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
    "assignments",  # assignments actually examined
    "space",  # full size of the search space
    "exhausted",  # search covered the whole space (certifies a negative)
])):
    __slots__ = ()


def _edge_candidates(a: Amalgam, e: Edge, budget: int) -> List[Tuple[int, ...]]:
    """Automorphisms of the edge loop compatible with every coface image.

    The connecting-map images out of a coface depend only on the core (the
    twists act inside the subloop), so the candidate set is the stabilizer
    of the embedded Klein subloops — and of {0, u} when some coface has
    empty core — inside Aut(L_e)."""
    sigma = (e,)
    targets = {frozenset(a.connecting(tau, sigma)) for tau in a.complex.cofaces(sigma)}
    return _set_stabilizer(a.loop_of(sigma), targets, budget)


def amalgams_isomorphic(a: Amalgam, b: Amalgam, budget: int = 10_000_000) -> IsoReport:
    """Exhaustively search for a family theta_sigma in Aut(G_sigma) with
    theta_rho o psi_a == psi_b o theta_tau on every face pair.

    theta on the edge simplices determines theta everywhere else (the
    connecting maps are injective with equal images on both sides), so the
    search space is the product of the per-edge stabilizer sets; failure
    after covering the whole space certifies non-isomorphism.
    """
    if a.complex.graph != b.complex.graph:
        raise ValueError("amalgams live over different graphs")
    for sigma in a.simplices():
        if a.loop_of(sigma).product != b.loop_of(sigma).product:
            raise ValueError("amalgams do not share their standard loops")
    for key in a.maps:
        if frozenset(a.maps[key]) != frozenset(b.maps[key]):
            raise ValueError("amalgams are not of a common type (images differ)")

    edges = list(a.complex.edges)
    cand = {e: _edge_candidates(a, e, budget) for e in edges}
    space = 1
    for e in edges:
        space *= len(cand[e])

    # preinvert the b-maps out of every >=2 simplex once
    binv: Dict[Tuple[Simplex, Simplex], Dict[int, int]] = {}
    for (tau, rho), images in b.maps.items():
        if len(rho) == 1 and b.core_of(tau):
            binv[(tau, rho)] = {y: x for x, y in enumerate(images)}

    assignments = 0
    for choice in iproduct(*(cand[e] for e in edges)):
        assignments += 1
        if assignments > budget:
            raise ResourceLimitError(
                f"amalgam isomorphism search exceeded budget={budget}"
            )
        theta = {(e,): f for e, f in zip(edges, choice)}
        ok = True
        for tau in a.simplices():
            if len(tau) < 2:
                continue
            if not a.core_of(tau):
                theta[tau] = (0, 1)  # Aut(Z2) is trivial
                continue
            derived: Optional[Tuple[int, ...]] = None
            for e in tau:
                rho = (e,)
                lookup = binv[(tau, rho)]
                te = theta[rho]
                pa = a.maps[(tau, rho)]
                cur = tuple(lookup[te[pa[x]]] for x in range(len(pa)))
                if derived is None:
                    derived = cur
                elif derived != cur:
                    ok = False
                    break
            if not ok:
                break
            theta[tau] = derived
        if ok:
            _assert_witness(a, b, theta)
            return IsoReport(True, theta, assignments, space, assignments >= space)
    return IsoReport(False, None, assignments, space, True)


def _assert_witness(a: Amalgam, b: Amalgam, theta: Dict[Simplex, Tuple[int, ...]]) -> None:
    from .morphisms import is_automorphism

    for sigma in a.simplices():
        if not is_automorphism(a.loop_of(sigma), theta[tuple(sigma)]):
            raise CheckError("isomorphism witness is not an automorphism family")
    for (tau, rho) in a.maps:
        lhs = compose(theta[rho], a.maps[(tau, rho)])
        rhs = compose(b.maps[(tau, rho)], theta[tau])
        if lhs != rhs:
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

    One gauge sweep (`_standard_orbit`) lists the orbit O of the standard
    amalgam, and certifies that the orbit of every delta T is T + O.  O is
    certified to contain the empty delta and to be closed under symmetric
    difference, so the classes are the cosets of O, numbered in the order
    their first deltas come (by size, then lexicographically).
    `pairs_checked` is that of the greedy pairwise comparison, each delta
    against the first member of every class so far: k + 1 for a delta that
    joins class k, the number of classes so far for one that opens a new
    class.  Every merge is still confirmed by `amalgams_isomorphic` and
    carries its checked witness.  The budget applies as in the pairwise
    search: ResourceLimitError when n >= 1 and the space of one search
    exceeds it.
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
            rep = amalgams_isomorphic(
                twisted_amalgam(d, classes[c][0]), twisted_amalgam(d, delta), budget=budget
            )
            if not rep.isomorphic:
                raise CheckError(
                    f"gauge sweep merges {sorted(delta)} into {sorted(classes[c][0])}, "
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
    amalgam `a`, found by one sweep over the edge assignments theta of
    `amalgams_isomorphic` (every twisted amalgam has the same candidates).

    The maps of a_T and of `a` differ only in the Klein-into-edge
    components psi_{j,e} = iota_{j,e} o gamma_j^{T(j,e)}, and the loop map
    that theta_e induces on a pointed simplex at j through e is
    gamma_j^{S(j,e)} o r_{j,e}(theta_e) o gamma_j^{T(j,e)}, with
    r_{j,e}(f) = iota^-1 o f o iota.  It depends on (j, e) only, so theta
    is accepted exactly when, at every vertex j of degree >= 2, these maps
    agree over the edges at j.

    Translation lemma, certified here for every such j, e and candidate f:
    r_{j,e}(f) commutes with gamma_j (CheckError otherwise).  Then flipping
    T(j,e) and S(j,e) together leaves the map unchanged, so the orbit of
    a_T is T + (the orbit of `a`), and one sweep with T empty serves every
    T.  (The lemma holds on every connected graph with n >= 1: each
    candidate stabilizes the Klein subloops of both endpoints of e, which
    meet in the identity and u, or, when e is pendant, the one at j and
    the image {identity, u} of a cycle edge disjoint from e.  So it fixes
    u, and r_{j,e}(f) is the identity or gamma_j.)

    gamma_j is a nontrivial involution, so the first edge at j fixes the
    S-pattern at j up to one flip, and only the patterns inside
    {e_k : o_k = j} are normalized.  The sweep is a depth-first search
    over `cx.edges` in order that tests each vertex as soon as its last
    edge is assigned and prunes the subtree when the test fails; each leaf
    yields the S it reaches.
    """
    cx = a.complex
    edges = cx.edges
    cand = [_edge_candidates(a, e, budget) for e in edges]
    space = 1
    for c in cand:
        space *= len(c)
    if space > budget:
        raise ResourceLimitError(f"amalgam isomorphism search exceeded budget={budget}")
    twist_bit = {
        (o, e): 1 << k for k, (o, e) in enumerate(zip(st.chosen_vertex, st.nontree_edges))
    }

    # per vertex j of degree >= 2, tested after its last edge: the first
    # edge's position and, per candidate, the ids of its induced maps for
    # S(j, e) = 0 and 1; then (pattern bit, position, maps) for every other
    # edge at j; and the S-patterns at j (bit p for the p-th edge at j)
    # that are normalized, with the deltas they stand for
    tests: List[List[Tuple]] = [[] for _ in edges]
    for j in cx.graph.vertices:
        star = cx.stars[j].edges
        if len(star) < 2:
            continue
        gamma = vertex_twist(a.core_loop((j,)).loop)
        ids: Dict[Tuple[int, ...], int] = {}
        rows = []
        for p, e in enumerate(star):
            other = star[1] if e == star[0] else star[0]
            iota = a.connecting(tuple(sorted((e, other))), (e,))
            psi = (iota, compose(iota, gamma))
            inv = [{y: x for x, y in enumerate(q)} for q in psi]
            maps = []
            for f in cand[cx.edge_pos[e]]:
                # m[t][s]: the induced map for T(j, e) = t and S(j, e) = s
                m = [
                    [ids.setdefault(tuple(inv[s][f[x]] for x in psi[t]), len(ids)) for s in (0, 1)]
                    for t in (0, 1)
                ]
                if m[0] != m[1][::-1]:
                    raise CheckError(
                        f"an induced map at vertex {j} through edge {e} "
                        "does not commute with the vertex twist"
                    )
                maps.append(m[0])
            rows.append((1 << p, cx.edge_pos[e], maps))
        normal = [(1 << p, twist_bit[(j, e)]) for p, e in enumerate(star) if (j, e) in twist_bit]
        patterns = {0: 0}
        for bit, delta_bit in normal:
            patterns.update({m | bit: d | delta_bit for m, d in patterns.items()})
        last = max(pos for _, pos, _ in rows)
        tests[last].append((rows[0][1:], rows[1:], (1 << len(star)) - 1, patterns))

    assign = [0] * len(edges)
    found: Set[int] = set()

    def options(first, rest, full, patterns) -> List[int]:
        pos0, maps0 = first
        target = maps0[assign[pos0]][0]
        flips = 0
        for bit, pos, maps in rest:
            m0, m1 = maps[assign[pos]]
            if m1 == target:
                flips |= bit
            elif m0 != target:
                return []
        # S(j, first edge) = 0 gives the pattern `flips`, = 1 its complement
        return [patterns[m] for m in (flips, full ^ flips) if m in patterns]

    def dfs(i: int, smask: int) -> None:
        if i == len(edges):
            found.add(smask)
            return
        for ci in range(len(cand[i])):
            assign[i] = ci
            masks = [smask]
            for test in tests[i]:
                opts = options(*test)
                masks = [m | o for m in masks for o in opts]
                if not masks:
                    break
            for m in masks:
                dfs(i + 1, m)

    dfs(0, 0)
    return found


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
