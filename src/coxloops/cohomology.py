"""GF(2) cohomology of the edge complex of a graph, with explicit bases.

For a graph D with edge set E, the complex F consists of the nonempty
edge subsets of size <= 3; a subset is *pointed* if its edges share a
common vertex.  C^r is the GF(2) vector space on the pointed subsets of
size r+1, with coboundaries

    (d0 a)_{ef}  = a_e + a_f
    (d1 b)_{efg} = b_{ef} + b_{eg} + b_{fg}

restricted to pointed targets.  Coordinates are always ordered
lexicographically (edges as sorted vertex pairs, simplices as sorted edge
tuples), so every matrix, basis and report is deterministic.

The complex is built from vertex stars: in a simple graph a pointed pair
or triple has exactly one core vertex, so the pointed simplices are the
pairs and triples of edges at each vertex, sum C(deg, k) of them, and the
C(|E|, 3) subsets without a common vertex are only listed when something
asks for them (amalgams do; cohomology and vertex stars never do).
Each vertex star, with its local coboundaries, is built once per complex.
d1 o d0 = 0 is certified one pointed triple at a time.

For a connected graph with cycle rank n, dim H^1 = |E| - |V| + 1 = n, and
closed-form bases exist: local coboundaries d0_i(a_e) (all pointed pairs
at vertex i containing e) span the cocycles, global coboundaries d0(a_e)
span the coboundaries, and the classes of d0_{o_j}(a_{e_j}) over the
non-tree edges e_j of a spanning tree form a basis of H^1.  The module
verifies all of this by Gaussian elimination: Z^1 one vertex star at a
time (d1 is certified block-diagonal by star, so ker d1 is the direct sum
of the star kernels, and the H^1 representatives are tested as cocycles
star by star too), B^1 and H^1 globally.

Coefficient systems: for the standard amalgam over a diagram, the
coefficient group A_sigma attached to a simplex is the subgroup of
Aut(G_sigma) stabilizing the canonical subloops below sigma's core.  In
closed form it is trivial when the core is empty and has order 2
otherwise, generated by `edge_twist` (single edge) or `vertex_twist`
(pointed pair/triple); `coefficient_group` computes both the closed form
and a brute-force stabilizer and insists they agree.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Collection, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from . import gf2
from .errors import CheckError
from .graphs import Edge, Graph, connected_components, spanning_tree
from .loops import LoopTable, subloop_closure
from .morphisms import automorphism_group, is_automorphism

Simplex = Tuple[Edge, ...]  # sorted tuple of edges

__all__ = [
    "EdgeComplex",
    "build_complex",
    "CohomologyResult",
    "cohomology",
    "VertexStar",
    "vertex_star",
    "vertex_coboundary",
    "vertex_twist",
    "edge_twist",
    "CoefficientGroup",
    "coefficient_group",
]


class _VertexStarFields(NamedTuple):
    vertex: int
    edges: Tuple[Edge, ...]  # edges at the vertex = C^0_i coordinates
    pairs: Tuple[Simplex, ...]  # pointed pairs at the vertex = C^1_i
    triples: Tuple[Simplex, ...]
    d0_rows: Tuple[int, ...]  # C^0_i -> C^1_i
    d1_rows: Tuple[int, ...]  # C^1_i -> C^2_i


class VertexStar(_VertexStarFields):  # no __slots__: `kernel` is cached in __dict__
    """The subcomplex C^*_i of simplices pointed exactly at vertex i, in
    local coordinates (positions in `edges`, `pairs` and `triples`)."""

    @cached_property
    def kernel(self) -> Tuple[int, ...]:
        """Canonical basis of ker d1_i, from one elimination kept on the star."""
        return tuple(gf2.gf2_kernel_basis(self.d1_rows, len(self.pairs)))

    def is_acyclic(self) -> bool:
        """H^1 of a star vanishes: ker d1_i == im d0_i."""
        image = gf2.transpose(self.d0_rows, len(self.edges))
        return gf2.gf2_same_span(self.kernel, image, len(self.pairs))


def _star(i: int, edges: Tuple[Edge, ...]) -> VertexStar:
    pos = {e: k for k, e in enumerate(edges)}
    pairs = tuple(combinations(edges, 2))
    triples = tuple(combinations(edges, 3))
    ppos = {s: k for k, s in enumerate(pairs)}
    d0 = tuple((1 << pos[s[0]]) | (1 << pos[s[1]]) for s in pairs)
    d1 = tuple(sum(1 << ppos[f] for f in combinations(s, 2)) for s in triples)
    return VertexStar(i, edges, pairs, triples, d0, d1)


def vertex_star(cx: EdgeComplex, i: int) -> VertexStar:
    """The subcomplex of simplices pointed exactly at vertex i (empty for a
    vertex outside the graph).

    Every pointed pair/triple has a unique common vertex, so C^1 and C^2
    decompose as direct sums of these stars.  Nothing in the package calls
    it; it stays public because it answers for any vertex, and the
    benchmark tracer wraps it by this name.
    """
    return cx.stars[i] if i in cx.stars else _star(i, ())


class EdgeComplex:
    """All edge subsets of size <= 3, with the pointed ones coordinatized.

    In a simple graph two distinct edges share at most one vertex, so a
    pointed pair or triple has exactly one core vertex and lies in exactly
    one vertex star.  `stars` holds one `VertexStar` per vertex, built
    once; the pointed simplices are the union of the stars' pairs and
    triples (sum of C(deg, k) work instead of C(E, k)), sorted into the
    lexicographic order of the filtered all-subsets scan.  The unpointed
    simplices (`pairs`, `triples` and their empty cores in `core`) are only
    built on first use.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.edges: Tuple[Edge, ...] = graph.edges
        self.edge_pos: Dict[Edge, int] = {e: k for k, e in enumerate(self.edges)}
        self.stars: Dict[int, VertexStar] = {
            v: _star(v, tuple(graph.edges_at(v))) for v in graph.vertices
        }
        self.pointed_pairs: Tuple[Simplex, ...] = tuple(
            sorted(s for star in self.stars.values() for s in star.pairs)
        )
        self.pointed_triples: Tuple[Simplex, ...] = tuple(
            sorted(s for star in self.stars.values() for s in star.triples)
        )
        self.pair_pos: Dict[Simplex, int] = {s: k for k, s in enumerate(self.pointed_pairs)}
        self.triple_pos: Dict[Simplex, int] = {s: k for k, s in enumerate(self.pointed_triples)}
        # d0: rows = pointed pairs over edge coordinates
        self.d0_rows: List[int] = [
            (1 << self.edge_pos[s[0]]) | (1 << self.edge_pos[s[1]])
            for s in self.pointed_pairs
        ]
        # d1: rows = pointed triples over pointed-pair coordinates; every
        # 2-face of a pointed triple is pointed, so lookups never miss.  The
        # rows do not come from the star rows, so `cohomology` can compare.
        # Row t of d1 o d0 is the XOR of the d0 rows of t's faces, and
        # must vanish.
        self.d1_rows: List[int] = []
        for s in self.pointed_triples:
            row = 0
            composed = 0
            for f in combinations(s, 2):
                k = self.pair_pos[f]
                row |= 1 << k
                composed ^= self.d0_rows[k]
            if composed:
                raise CheckError("d1 o d0 != 0")
            self.d1_rows.append(row)

    @cached_property
    def pairs(self) -> Tuple[Simplex, ...]:
        return tuple(combinations(self.edges, 2))

    @cached_property
    def triples(self) -> Tuple[Simplex, ...]:
        return tuple(combinations(self.edges, 3))

    @cached_property
    def core(self) -> Dict[Simplex, Tuple[int, ...]]:
        """Common vertices of every simplex; empty for the unpointed ones."""
        core: Dict[Simplex, Tuple[int, ...]] = {(e,): e for e in self.edges}
        core.update(dict.fromkeys(self.pairs, ()))
        core.update(dict.fromkeys(self.triples, ()))
        for v, star in self.stars.items():
            core.update(dict.fromkeys(star.pairs + star.triples, (v,)))
        return core

    @cached_property
    def _simplices(self) -> Tuple[Simplex, ...]:
        return tuple((e,) for e in self.edges) + self.pairs + self.triples

    def simplices(self) -> List[Simplex]:
        """Every simplex (size <= 3), singletons first, then pairs, triples."""
        return list(self._simplices)

    def cofaces(self, sigma: Simplex) -> List[Simplex]:
        """Proper cofaces of sigma in the complex, in `simplices()` order.

        Adding the same number of further edges to sigma in lexicographic
        order of the added edges yields the cofaces in lexicographic order,
        so they come out as a scan of `simplices()` would list them.
        """
        ss = set(sigma)
        if not ss <= self.edge_pos.keys():
            return []
        rest = [e for e in self.edges if e not in ss]
        return [
            tuple(sorted(ss.union(extra)))
            for size in range(len(ss) + 1, 4)
            for extra in combinations(rest, size - len(ss))
        ]


def build_complex(graph: Graph) -> EdgeComplex:
    return EdgeComplex(graph)


def vertex_coboundary(cx: EdgeComplex, i: int, e: Edge) -> int:
    """The local coboundary d0_i(a_e): sum of a_{e,f} over f != e at vertex i.

    This is the projection of d0(a_e) to the pairs pointed at i.
    """
    if i not in e:
        raise CheckError(f"edge {e} is not incident to vertex {i}")
    v = 0
    for f in cx.stars[i].edges if i in cx.stars else ():
        if f != e:
            v |= 1 << cx.pair_pos[tuple(sorted((e, f)))]
    return v


class CohomologyResult(NamedTuple):
    graph: Graph
    z1: int
    b1: int
    h1: int
    pair_index: Tuple[Simplex, ...]  # coordinates of C^1
    z_basis: Tuple[int, ...]  # closed-form cocycle basis
    b_basis: Tuple[int, ...]  # closed-form coboundary basis
    h_basis: Tuple[int, ...]  # representatives of an H^1 basis
    h_basis_edges: Tuple[Edge, ...]  # the non-tree edge behind each class
    components: int

    @property
    def dims(self) -> Tuple[int, int, int]:
        return (self.z1, self.b1, self.h1)


def cohomology(cx: EdgeComplex, strict: bool = False, cross_check: bool = True) -> CohomologyResult:
    """Dimensions and explicit bases of Z^1, B^1, H^1 over GF(2), for the
    edge complex `cx` of a graph.

    Disconnected graphs are handled per component and summed (isolated
    vertices contribute nothing); `strict=True` rejects them instead.
    The closed forms are checked against Gaussian elimination unless
    `cross_check` is off: Z^1 and the cocycle test of the H^1
    representatives per vertex star (`_z1_by_stars`, `_cocycles_by_stars`),
    B^1 and the independence of H^1 over the whole complex.
    """
    graph = cx.graph
    comps = connected_components(graph)
    edge_comps = [c for c in comps if c.edges]
    if strict and len(comps) > 1:
        raise ValueError(f"graph has {len(comps)} components (strict mode)")
    npairs = len(cx.pointed_pairs)

    # closed-form dimensions
    z1 = sum(d - 1 for v in graph.vertices if (d := graph.degree(v)) >= 2)
    b1 = sum(len(c.edges) - 1 for c in edge_comps)
    h1 = z1 - b1

    # closed-form bases, assembled per component in global coordinates;
    # the cocycles at i skip f_i = the lex-smallest edge at i
    z_at = {
        i: [vertex_coboundary(cx, i, e) for e in star.edges[1:]]
        for i, star in cx.stars.items()
    }
    z_basis = [v for vs in z_at.values() for v in vs]
    b_basis: List[int] = []
    d0_cols = gf2.transpose(cx.d0_rows, len(cx.edges))
    for c in edge_comps:
        for e in c.edges[1:]:  # skip e_0 = lex-smallest edge of the component
            b_basis.append(d0_cols[cx.edge_pos[e]])
    h_basis: List[int] = []
    h_edges: List[Edge] = []
    for c in edge_comps:
        st = spanning_tree(c)
        for e, o in zip(st.nontree_edges, st.chosen_vertex):
            h_basis.append(vertex_coboundary(cx, o, e))
            h_edges.append(e)

    if cross_check:
        z1_elim = _z1_by_stars(cx, z_at)
        b_span = gf2.gf2_row_reduce_basis(d0_cols, npairs)
        b1_elim = len(b_span)  # rank d0 = rank of its columns
        if (z1, b1, h1) != (z1_elim, b1_elim, z1_elim - b1_elim):
            raise CheckError(
                f"closed-form dims {(z1, b1, h1)} != elimination "
                f"{(z1_elim, b1_elim, z1_elim - b1_elim)}"
            )
        if gf2.gf2_row_reduce_basis(b_basis, npairs) != b_span:
            raise CheckError("closed-form B basis does not span im d0")
        if gf2.gf2_rank(b_basis + h_basis, npairs) != b1 + h1:
            raise CheckError("H^1 representatives are not independent over B^1")
        if not all(_cocycles_by_stars(cx, h_basis)):
            raise CheckError("an H^1 representative is not a cocycle")
    if len(z_basis) != z1 or len(b_basis) != b1 or len(h_basis) != h1:
        raise CheckError("closed-form basis sizes disagree with dimensions")

    return CohomologyResult(
        graph=graph,
        z1=z1,
        b1=b1,
        h1=h1,
        pair_index=cx.pointed_pairs,
        z_basis=tuple(z_basis),
        b_basis=tuple(b_basis),
        h_basis=tuple(h_basis),
        h_basis_edges=tuple(h_edges),
        components=len(comps),
    )


def _z1_by_stars(cx: EdgeComplex, z_at: Dict[int, List[int]]) -> int:
    """dim Z^1 by elimination, one vertex star at a time, certifying that
    the closed-form cocycles `z_at[i]` at each vertex i span ker d1 there.

    The stars' pairs must partition the pointed pairs, and every row of
    the global d1 must be its star's row lifted to global pair coordinates.
    Then d1 is block-diagonal by star, ker d1 is the direct sum of the
    lifted star kernels, and dim Z^1 is the sum of the star nullities.
    """
    lifts = {i: [cx.pair_pos[s] for s in star.pairs] for i, star in cx.stars.items()}
    if sorted(p for lift in lifts.values() for p in lift) != list(range(len(cx.pointed_pairs))):
        raise CheckError("the vertex stars do not partition the pointed pairs")
    lifted = {
        cx.triple_pos[s]: sum(1 << lifts[i][k] for k in gf2.support(row))
        for i, star in cx.stars.items()
        for s, row in zip(star.triples, star.d1_rows)
    }
    bad = [t for t, row in enumerate(cx.d1_rows) if lifted.get(t) != row]
    if bad or len(lifted) != len(cx.d1_rows):
        raise CheckError(f"d1 rows {bad} are not the lifted rows of their vertex stars")
    z1 = 0
    for i, star in cx.stars.items():
        local = [[k for k, p in enumerate(lifts[i]) if v >> p & 1] for v in z_at[i]]
        if any(len(ks) != v.bit_count() for ks, v in zip(local, z_at[i])):
            raise CheckError(f"a closed-form cocycle at {i} leaves its star")
        z_local = [gf2.vector_from_support(ks) for ks in local]
        if not gf2.gf2_same_span(z_local, star.kernel, len(star.pairs)):
            raise CheckError(f"closed-form Z basis does not span ker d1 at vertex {i}")
        z1 += len(star.kernel)
    return z1


def _cocycles_by_stars(cx: EdgeComplex, vectors: Sequence[int]) -> List[bool]:
    """Whether d1 v == 0, for each v in `vectors`, one vertex star at a time.

    Exact once `_z1_by_stars` has certified d1 block-diagonal by star: the
    rows of d1 at the triples of star i are then d1_i lifted, so d1 v == 0
    iff each star that v touches annihilates v's restriction to its pairs.
    """
    where = {
        cx.pair_pos[s]: (i, k) for i, star in cx.stars.items() for k, s in enumerate(star.pairs)
    }
    out = []
    for v in vectors:
        local: Dict[int, int] = {}
        for p in gf2.support(v):
            i, k = where[p]
            local[i] = local.get(i, 0) | 1 << k
        out.append(not any(gf2.apply_rows(cx.stars[i].d1_rows, w) for i, w in local.items()))
    return out


# ---------------------------------------------------------------------------
# coefficient groups of the standard amalgam


def vertex_twist(t: LoopTable) -> Tuple[int, ...]:
    """The order-2 automorphism of the Klein doubled loop M(Z2, 2) swapping
    the generator s with s*u and fixing u."""
    if t.group_order != 2 or t.order != 4:
        raise CheckError(f"vertex twist needs M(Z2, 2), got a loop of order {t.order}")
    images = (0, 3, 2, 1)
    if not is_automorphism(t, images):
        raise CheckError("vertex twist must be an automorphism")
    return images


def edge_twist(t: LoopTable) -> Tuple[int, ...]:
    """The order-2 automorphism of a doubled dihedral loop M(W, 2):
    inversion on the rotation subgroup H < W, w -> w*u on the reflections,
    h*u -> h^-1*u, w*u -> w.

    W must carry its two reflection generators (`group_generators`); H is
    the subgroup they generate in even length, i.e. <s_i*s_j>.
    """
    n = t.group_order
    gens = t.group_generators
    if n is None or len(gens) != 2:
        raise CheckError("edge twist needs a doubled loop with two reflection generators")
    rot = set(subloop_closure(t, [t.product[gens[0]][gens[1]]]))
    if len(rot) * 2 != n:
        raise CheckError("generators must present a dihedral group")
    images = []
    for x in range(n):
        images.append(t.rinv[x] if x in rot else n + x)
    for g in range(n):
        images.append(n + t.rinv[g] if g in rot else g)
    images_t = tuple(images)
    if not is_automorphism(t, images_t):
        raise CheckError("edge twist must be an automorphism")
    if any(images_t[images_t[x]] != x for x in range(t.order)):
        raise CheckError("edge twist must be an involution")
    return images_t


class CoefficientGroup(NamedTuple):
    simplex: Simplex
    core: Tuple[int, ...]
    order: int
    generator: Optional[Tuple[int, ...]]  # images in Aut(G_sigma), None if trivial
    brute_order: Optional[int]  # None when the cross-check was skipped
    mode: str

    @property
    def agrees(self) -> bool:
        return self.brute_order is None or self.brute_order == self.order


def coefficient_group(
    sigma: Sequence[Edge],
    amalgam,
    mode: str = "structural",
    budget: int = 10_000_000,
) -> CoefficientGroup:
    """The coefficient group A_sigma inside Aut(G_sigma), with cross-check.

    Closed form: trivial when the edges of sigma have no common vertex;
    otherwise order 2, generated by `edge_twist` for a single edge and by
    `vertex_twist` of the core vertex for pointed pairs/triples.

    mode="structural" (default) cross-checks against the brute force
    stabilizer of every canonical subloop L_K, K a proper subset of the
    core, inside Aut(G_sigma).  mode="complex" instead stabilizes the
    images of the connecting maps from the cofaces of sigma in the edge
    complex — the literal reading, which agrees on locally rich graphs
    (e.g. the triangle) but is coarser on sparse ones.  mode="none" skips
    the brute force.
    """
    sigma = tuple(sorted(tuple(sorted(e)) for e in sigma))
    loop: LoopTable = amalgam.loop_of(sigma)
    core = amalgam.core_of(sigma)

    if not core:
        closed_order, gen = 1, None
    elif len(sigma) == 1:
        closed_order, gen = 2, edge_twist(loop)
    else:
        closed_order, gen = 2, vertex_twist(loop)

    if mode == "structural":
        targets = [
            frozenset(amalgam.core_subloop(core, sub))
            for k in range(len(core))
            for sub in combinations(core, k)
        ]
    elif mode == "complex":
        targets = [
            frozenset(amalgam.connecting_images(rho, sigma))
            for rho in amalgam.complex.cofaces(sigma)
        ]
    elif mode != "none":
        raise ValueError(f"unknown mode {mode!r}")
    brute = None if mode == "none" else len(_set_stabilizer(loop, targets, budget))

    if gen is not None and not is_automorphism(loop, gen):
        raise CheckError(f"coefficient group generator at {sigma} is not an automorphism")
    result = CoefficientGroup(sigma, core, closed_order, gen, brute, mode)
    if mode == "structural" and not result.agrees:
        raise CheckError(
            f"coefficient group at {sigma}: closed form {closed_order} != "
            f"stabilizer order {brute}"
        )
    return result


def _set_stabilizer(
    loop: LoopTable, targets: Collection[FrozenSet[int]], budget: int
) -> List[Tuple[int, ...]]:
    """The automorphisms of `loop` that map every target set onto itself,
    in `automorphism_group(loop).elements` order."""
    aut = automorphism_group(loop, budget=budget)
    return [f for f in aut.elements if all(frozenset(f[x] for x in s) == s for s in targets)]
