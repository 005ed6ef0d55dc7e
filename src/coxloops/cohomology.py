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
Each vertex star is built once per complex.  Its local coboundaries
depend on its degree only, so each complex builds them once per degree
and eliminates each distinct local d1 once (`EdgeComplex.kernels`).
The global d1 is kept as each pointed triple's three faces, never as dense
rows, and d1 o d0 = 0 is certified one pointed triple at a time.

For a connected graph with cycle rank n, dim H^1 = |E| - |V| + 1 = n, and
closed-form bases exist: local coboundaries d0_i(a_e) (all pointed pairs
at vertex i containing e) span the cocycles, global coboundaries d0(a_e)
span the coboundaries, and the classes of d0_{o_j}(a_{e_j}) over the
non-tree edges e_j of a spanning tree form a basis of H^1.  The module
verifies all of this with one elimination per distinct star kernel and one
global one.  Z^1 is certified one vertex star at a time: d1 is
block-diagonal by star, so ker d1 is the direct sum of the star kernels,
and the closed-form cocycles at each vertex span its star's kernel.  B^1
spans im d0 because the d0 columns of each component sum to 0.  The one
global elimination, of B^1 and the H^1 representatives together, shows
them independent.  Each H^1 representative at vertex o is one of the
certified cocycles at o, or their sum, so it is a cocycle.

Coefficient systems: for the standard amalgam over a diagram, the
coefficient group A_sigma attached to a simplex is the subgroup of
Aut(G_sigma) stabilizing the canonical subloops below sigma's core.  In
closed form it is trivial when the core is empty and has order 2
otherwise, generated by `edge_twist` (single edge) or `vertex_twist`
(pointed pair/triple); `coefficient_group` computes both the closed form
and a brute-force stabilizer and insists they agree.  The stabilizer tests
every automorphism, walking the products of Aut's transversals without
listing Aut (`_set_stabilizer`).
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, reduce
from itertools import combinations
from operator import xor
from typing import Collection, Dict, FrozenSet, List, Optional, Sequence, Tuple

from . import gf2
from .errors import CheckError
from .graphs import Edge, Graph, connected_components, spanning_tree
from .groups import closure, composer
from .loops import LoopTable
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


_VertexStarFields = namedtuple("_VertexStarFields", [
    "vertex",
    "edges",  # edges at the vertex = C^0_i coordinates
    "pairs",  # pointed pairs at the vertex = C^1_i
    "triples",
    "d0_rows",  # C^0_i -> C^1_i
    "d1_rows",  # C^1_i -> C^2_i
])


class VertexStar(_VertexStarFields):  # no __slots__: `kernel` is cached in __dict__
    """The subcomplex C^*_i of simplices pointed exactly at vertex i, in
    local coordinates (positions in `edges`, `pairs` and `triples`).

    A star built by an `EdgeComplex` holds the complex's `kernels` and
    `acyclic` memos, keyed by the exact local matrices, so stars with the
    same local matrices share one elimination of each kind; any other star,
    a `_replace`d one included, eliminates its own rows."""

    kernels: Optional[Dict[Tuple[Tuple[int, ...], int], Tuple[int, ...]]] = None
    acyclic: Optional[Dict[Tuple, bool]] = None

    @cached_property
    def kernel(self) -> Tuple[int, ...]:
        """Canonical basis of ker d1_i, certified by `gf2_kernel_basis`."""
        key = (self.d1_rows, len(self.pairs))
        memo = {} if self.kernels is None else self.kernels
        if key not in memo:
            memo[key] = tuple(gf2.gf2_kernel_basis(*key))
        return memo[key]

    def is_acyclic(self) -> bool:
        """H^1 of a star vanishes: ker d1_i == im d0_i."""
        key = (self.d0_rows, len(self.edges), self.kernel, len(self.pairs))
        memo = {} if self.acyclic is None else self.acyclic
        if key not in memo:
            image = gf2.transpose(self.d0_rows, len(self.edges))
            memo[key] = gf2.gf2_same_span(self.kernel, image, len(self.pairs))
        return memo[key]


def _local_rows(degree: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """d0 and d1 of a star with `degree` edges, in local coordinates: they
    depend on the degree only."""
    pairs = list(combinations(range(degree), 2))
    ppos = {s: k for k, s in enumerate(pairs)}
    d0 = tuple((1 << a) | (1 << b) for a, b in pairs)
    d1 = tuple(sum(1 << ppos[f] for f in combinations(s, 2)) for s in combinations(range(degree), 3))
    return d0, d1


def _star(i: int, edges: Tuple[Edge, ...], rows: Tuple[Tuple[int, ...], Tuple[int, ...]]) -> VertexStar:
    """The star at i over `edges`, with `rows` = `_local_rows(len(edges))`."""
    return VertexStar(i, edges, tuple(combinations(edges, 2)), tuple(combinations(edges, 3)), *rows)


def vertex_star(cx: EdgeComplex, i: int) -> VertexStar:
    """The subcomplex of simplices pointed exactly at vertex i (empty for a
    vertex outside the graph).

    Every pointed pair/triple has a unique common vertex, so C^1 and C^2
    decompose as direct sums of these stars.  Nothing in the package calls
    it; it stays public because it answers for any vertex, and the
    benchmark tracer wraps it by this name.
    """
    return cx.stars[i] if i in cx.stars else _star(i, (), _local_rows(0))


class EdgeComplex:
    """All edge subsets of size <= 3, with the pointed ones coordinatized.

    In a simple graph two distinct edges share at most one vertex, so a
    pointed pair or triple has exactly one core vertex and lies in exactly
    one vertex star.  `stars` holds one `VertexStar` per vertex, built
    once; the pointed simplices are the union of the stars' pairs and
    triples (sum of C(deg, k) work instead of C(E, k)), sorted into the
    lexicographic order of the filtered all-subsets scan.  `pair_star`, the
    one star map, takes pointed pair k to (its star's vertex, its index
    there); `d1_faces` is d1 as each pointed triple's three face positions.
    Stars of one degree share their local rows; `kernels` holds one
    certified kernel basis per distinct local d1, and `acyclic` one
    acyclicity test per distinct pair of local d0 and kernel.  The
    unpointed simplices (`pairs`, `triples` and their empty cores in
    `core`) are only built on first use.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.edges: Tuple[Edge, ...] = graph.edges
        self.edge_pos: Dict[Edge, int] = {e: k for k, e in enumerate(self.edges)}
        # the local rows once per degree, the star kernels and acyclicity
        # tests once per distinct local matrix
        local: Dict[int, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
        self.kernels: Dict[Tuple[Tuple[int, ...], int], Tuple[int, ...]] = {}
        self.acyclic: Dict[Tuple, bool] = {}
        self.stars: Dict[int, VertexStar] = {}
        for v in graph.vertices:
            edges = tuple(graph.edges_at(v))
            if len(edges) not in local:
                local[len(edges)] = _local_rows(len(edges))
            self.stars[v] = star = _star(v, edges, local[len(edges)])
            star.kernels, star.acyclic = self.kernels, self.acyclic
        slots = sorted(
            (s, (v, k)) for v, star in self.stars.items() for k, s in enumerate(star.pairs)
        )
        self.pointed_pairs: Tuple[Simplex, ...] = tuple(s for s, _ in slots)
        self.pair_star: List[Tuple[int, int]] = [slot for _, slot in slots]
        self.pointed_triples: Tuple[Simplex, ...] = tuple(
            sorted(s for star in self.stars.values() for s in star.triples)
        )
        self.pair_pos: Dict[Simplex, int] = {s: k for k, s in enumerate(self.pointed_pairs)}
        # d0: rows = pointed pairs over edge coordinates
        self.d0_rows: List[int] = [
            (1 << self.edge_pos[s[0]]) | (1 << self.edge_pos[s[1]])
            for s in self.pointed_pairs
        ]
        # faces from `pair_pos`, not from the star rows, so `cohomology` can
        # compare; row t of d1 o d0 is the XOR of the d0 rows at t's faces
        self.d1_faces: List[Tuple[int, ...]] = [
            tuple(self.pair_pos[f] for f in combinations(s, 2)) for s in self.pointed_triples
        ]
        d0 = self.d0_rows
        if any(d0[a] ^ d0[b] ^ d0[c] for a, b, c in self.d1_faces):
            raise CheckError("d1 o d0 != 0")

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


class CohomologyResult(namedtuple("CohomologyResult", [
    "graph",
    "z1",
    "b1",
    "h1",
    "pair_index",  # coordinates of C^1
    "z_basis",  # closed-form cocycle basis
    "b_basis",  # closed-form coboundary basis
    "h_basis",  # representatives of an H^1 basis
    "h_basis_edges",  # the non-tree edge behind each class
    "components",
])):
    __slots__ = ()

    @property
    def dims(self) -> Tuple[int, int, int]:
        return (self.z1, self.b1, self.h1)


def cohomology(cx: EdgeComplex, strict: bool = False, cross_check: bool = True) -> CohomologyResult:
    """Dimensions and explicit bases of Z^1, B^1, H^1 over GF(2), for the
    edge complex `cx` of a graph.

    Disconnected graphs are handled per component and summed (isolated
    vertices contribute nothing); `strict=True` rejects them instead.
    The closed forms are certified unless `cross_check` is off: Z^1 by
    elimination per vertex star (`_z1_by_stars`), B^1 spanning im d0 by the
    zero sum of each component's d0 columns, B^1 and H^1 independent by
    one elimination over the whole complex, and each H^1 representative as
    one of the certified cocycles at its vertex or their sum.
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
    h_at: List[int] = []  # the vertex o of each representative d0_o(a_e)
    for c in edge_comps:
        st = spanning_tree(c)
        for e, o in zip(st.nontree_edges, st.chosen_vertex):
            h_basis.append(vertex_coboundary(cx, o, e))
            h_edges.append(e)
            h_at.append(o)

    if cross_check:
        z1_elim = _z1_by_stars(cx, z_at)
        if z1 != z1_elim:
            raise CheckError(
                f"closed-form dims {(z1, b1, h1)} != elimination {(z1_elim, b1, z1_elim - b1)}"
            )
        # each pointed pair has both its edges in one component, so the d0
        # columns of a component sum to 0: the column B skips is the sum of
        # the others, and B spans im d0
        if any(reduce(xor, (d0_cols[cx.edge_pos[e]] for e in c.edges)) for c in edge_comps):
            raise CheckError("closed-form B basis does not span im d0")
        # the one global elimination: B u H independent, so B is a basis of
        # im d0 (rank d0 = b1), and H is independent over B
        if gf2.gf2_rank(b_basis + h_basis, npairs) != b1 + h1:
            raise CheckError("H^1 representatives are not independent over B^1")
        # `_z1_by_stars` certified the cocycles z_at[o]; d0_o(a_e) is one of
        # them, or their sum when e is o's first edge
        if any(h not in z_at[o] and h != reduce(xor, z_at[o], 0) for h, o in zip(h_basis, h_at)):
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

    `cx.pair_star` must map the pointed pairs one to one onto the stars'
    pairs, and each global d1 row (the sum of its faces) must be its star
    row lifted.  Then d1 is block-diagonal by star, ker d1 is the direct
    sum of the lifted star kernels, and dim Z^1 sums the star nullities.
    """
    slots = sorted(((i, k), s) for i, star in cx.stars.items() for k, s in enumerate(star.pairs))
    if sorted(zip(cx.pair_star, cx.pointed_pairs)) != slots or len(cx.pointed_pairs) != len(slots):
        raise CheckError("the vertex stars do not partition the pointed pairs")
    rows = {s: (i, r) for i, star in cx.stars.items() for s, r in zip(star.triples, star.d1_rows)}
    bad = [  # each star row is popped by the one global row of its triple
        t for t, (s, faces) in enumerate(zip(cx.pointed_triples, cx.d1_faces))
        if [*_restrict(cx, faces).items()] != [rows.pop(s, None)]
    ]
    if bad or rows or len(cx.d1_faces) != len(cx.pointed_triples):
        raise CheckError(f"d1 rows {bad} are not the lifted rows of their vertex stars")
    z1 = 0
    for i, star in cx.stars.items():
        z_local = [_restrict(cx, gf2.support(v)) for v in z_at[i]]
        if any(w.keys() - {i} for w in z_local):
            raise CheckError(f"a closed-form cocycle at {i} leaves its star")
        if not gf2.gf2_same_span([w.get(i, 0) for w in z_local], star.kernel, len(star.pairs)):
            raise CheckError(f"closed-form Z basis does not span ker d1 at vertex {i}")
        z1 += len(star.kernel)
    return z1


def _restrict(cx: EdgeComplex, positions: Sequence[int]) -> Dict[Optional[int], int]:
    """The sum of the unit vectors at `positions` in C^1, split by
    `cx.pair_star` into one local vector per star it touches (None: outside)."""
    local: Dict[Optional[int], int] = {}
    for p in positions:
        i, k = cx.pair_star[p] if 0 <= p < len(cx.pointed_pairs) else (None, 0)
        local[i] = local.get(i, 0) ^ 1 << k
    return local


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
    rot = set(closure(t, [t.product[gens[0]][gens[1]]]))
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


class CoefficientGroup(namedtuple("CoefficientGroup", [
    "simplex",
    "core",
    "order",
    "generator",  # images in Aut(G_sigma), None if trivial
    "brute_order",  # None when the cross-check was skipped
    "mode",
])):
    __slots__ = ()

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
    core, inside Aut(G_sigma); mode="none" skips the brute force.
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
    sorted: the list that filtering `automorphism_group(loop).elements`
    gives, with Aut never listed.

    A bijection f maps every target onto itself exactly when it keeps each
    point's signature, the targets that contain it: sig o f == sig.  The
    walk forms every product t1 o ... o tk over Aut's transversals depth
    first, carrying the prefix p and sig o p, and tests each complete
    product with one gather, sig o p o tk == sig; p o tk is formed for the
    members only.  So every automorphism is tested, and only the prefixes
    and the members are held.
    """
    aut = automorphism_group(loop, budget=budget)
    bits = [0] * aut.degree  # bit i: the point lies in the i-th target
    for i, s in enumerate(targets):
        for x in s:
            bits[x] |= 1 << i
    sig = tuple(bits)
    identity = tuple(range(aut.degree))
    levels = [[composer(t) for t in level.values()] for level in aut.transversals]
    last = levels.pop() if levels else [composer(identity)]
    members: List[Tuple[int, ...]] = []
    stack = [(identity, sig, 0)]
    while stack:
        p, c, i = stack.pop()
        if i < len(levels):
            stack.extend([(g(p), g(c), i + 1) for g in levels[i]])
        else:
            members.extend([g(p) for g in last if g(c) == sig])
    members.sort()
    return members
