"""Coxeter diagrams and their groups as explicit tables.

A diagram of rank n is the symmetric matrix (m_ij) with m_ii = 1 and
m_ij in {2, 3, ...} or infinity off the diagonal.  Vertices are named
1..n to match the input format; matrix indices are 0-based internally.

The group W is enumerated with the HLT (scan-and-fill) coset enumeration
over the trivial subgroup, using the symmetric one-column-per-generator
table trick available because every generator is an involution; see Holt,
"Handbook of Computational Group Theory", ch. 5.  Cosets are renumbered
into BFS shortlex order afterwards, so element 0 is the identity and
elements come with canonical shortlex words over the generators.

The product table is read off the BFS tree of that renumbering: if b is
reached from its parent p by generator s, then b*c = p*(s*c) for every c,
so row b is row p composed with left translation by s, one
`groups.composer` call per element.  The generators' left translations
come from the same tree: s*b = (s*p).x when b = p.x.

Finite (spherical) diagrams are recognized by the standard classification
of finite Coxeter groups (connected components must be trees of shape
A/B/D/E/F/H/I2 with the usual label restrictions), which gives the order
in closed form; `enumerate_order` provides the independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import CheckError, DiagramError, ResourceLimitError
from .graphs import Graph, connected_components
from .groups import GroupTable, composer

__all__ = [
    "INF",
    "CoxeterDiagram",
    "ComponentType",
    "SphericalReport",
    "recognize_spherical",
    "enumerate_group",
    "enumerate_order",
    "subdiagram",
    "embed_parabolic",
    "diagram_a",
    "diagram_b",
    "diagram_d",
    "diagram_e",
    "diagram_f4",
    "diagram_h",
    "diagram_i2",
]

INF = math.inf


def _check_label(m, i: int, j: int) -> None:
    if m == INF:
        return
    if not isinstance(m, int) or isinstance(m, bool):
        raise DiagramError(f"m[{i + 1}][{j + 1}] = {m!r} is not an integer or infinity")
    if m < 2:
        raise DiagramError(f"m[{i + 1}][{j + 1}] = {m} must be >= 2 off the diagonal")


class CoxeterDiagram:
    """Validated Coxeter matrix; vertices are 1..rank."""

    def __init__(self, matrix: Sequence[Sequence]):
        n = len(matrix)
        if n == 0:
            raise DiagramError("rank must be >= 1")
        rows = []
        for i, row in enumerate(matrix):
            if len(row) != n:
                raise DiagramError(f"matrix row {i + 1} has length {len(row)}, expected {n}")
            rows.append(tuple(row))
        for i in range(n):
            if rows[i][i] != 1:
                raise DiagramError(f"m[{i + 1}][{i + 1}] = {rows[i][i]!r}, diagonal must be 1")
            for j in range(i + 1, n):
                _check_label(rows[i][j], i, j)
                if rows[i][j] != rows[j][i]:
                    raise DiagramError(
                        f"matrix is not symmetric at ({i + 1},{j + 1}): "
                        f"{rows[i][j]!r} vs {rows[j][i]!r}"
                    )
        self.rank = n
        self.matrix: Tuple[Tuple, ...] = tuple(rows)

    @classmethod
    def from_edges(cls, rank: int, edges: Sequence[Tuple[int, int, object]]) -> "CoxeterDiagram":
        """Build from 1-based (i, j, m) triples; unlisted pairs get m = 2."""
        if rank < 1:
            raise DiagramError("rank must be >= 1")
        mat = [[2] * rank for _ in range(rank)]
        for k in range(rank):
            mat[k][k] = 1
        seen = set()
        for i, j, m in edges:
            if not (1 <= i <= rank and 1 <= j <= rank):
                raise DiagramError(f"edge ({i},{j}) out of range for rank {rank}")
            if i == j:
                raise DiagramError(f"edge ({i},{j}) is a loop")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise DiagramError(f"duplicate edge ({key[0]},{key[1]})")
            seen.add(key)
            mat[i - 1][j - 1] = mat[j - 1][i - 1] = m
        return cls(mat)

    def m(self, i: int, j: int):
        """Label between 1-based vertices i and j."""
        return self.matrix[i - 1][j - 1]

    @property
    def vertices(self) -> Tuple[int, ...]:
        return tuple(range(1, self.rank + 1))

    def edges(self) -> List[Tuple[int, int, object]]:
        """Edges of the underlying graph (m >= 3), 1-based, with labels."""
        out = []
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                if self.matrix[i][j] != 2:
                    out.append((i + 1, j + 1, self.matrix[i][j]))
        return out

    def underlying_graph(self) -> Graph:
        return Graph(self.vertices, [(i, j) for i, j, _ in self.edges()])

    def __eq__(self, other) -> bool:
        return isinstance(other, CoxeterDiagram) and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"CoxeterDiagram(rank={self.rank}, edges={self.edges()})"


# ---------------------------------------------------------------------------
# classification of finite Coxeter groups


@dataclass(frozen=True)
class ComponentType:
    name: str  # "A3", "I2(7)", "G2", ... or "-" when not spherical
    vertices: Tuple[int, ...]
    order: Optional[int]
    reason: Optional[str] = None  # set when the component is not spherical


@dataclass(frozen=True)
class SphericalReport:
    spherical: bool
    order: Optional[int]
    components: Tuple[ComponentType, ...]


def _component_type(d: CoxeterDiagram, verts: Tuple[int, ...]) -> ComponentType:
    """Classify one connected component of the underlying graph."""
    def fail(reason: str) -> ComponentType:
        return ComponentType("-", verts, None, reason)

    n = len(verts)
    edges = [(i, j, d.m(i, j)) for k, i in enumerate(verts) for j in verts[k + 1:] if d.m(i, j) != 2]
    if any(m == INF for _, _, m in edges):
        return fail("an edge label is infinite")
    if n == 1:
        return ComponentType("A1", verts, 2)
    if len(edges) >= n:
        return fail("the underlying graph contains a cycle")
    # connected with n-1 edges: a tree
    if n == 2:
        m = edges[0][2]
        name = {3: "A2", 4: "B2", 6: "G2"}.get(m, f"I2({m})")
        return ComponentType(name, verts, 2 * m)
    deg: Dict[int, int] = {v: 0 for v in verts}
    adj: Dict[int, List[Tuple[int, int]]] = {v: [] for v in verts}
    for i, j, m in edges:
        deg[i] += 1
        deg[j] += 1
        adj[i].append((j, m))
        adj[j].append((i, m))
    if any(v >= 4 for v in deg.values()):
        return fail("a vertex has degree >= 4")
    branch = [v for v in verts if deg[v] == 3]
    big = [(i, j, m) for i, j, m in edges if m >= 4]
    if len(branch) >= 2:
        return fail("two branch vertices")
    if branch:
        if big:
            return fail("a branch vertex together with a label >= 4")
        # walk the three arms from the branch vertex
        arms = []
        for w, _ in sorted(adj[branch[0]]):
            length, prev, cur = 1, branch[0], w
            while deg[cur] == 2:
                nxt = [x for x, _ in adj[cur] if x != prev][0]
                prev, cur = cur, nxt
                length += 1
            arms.append(length)
        arms.sort()
        a, b, c = arms
        if a + b + c + 1 != n:
            raise CheckError(f"branch arms {arms} do not cover the {n} vertices")
        if a == 1 and b == 1:
            return ComponentType(f"D{n}", verts, 2 ** (n - 1) * math.factorial(n))
        if (a, b) == (1, 2) and c in (2, 3, 4):
            order = {2: 51840, 3: 2903040, 4: 696729600}[c]
            return ComponentType(f"E{n}", verts, order)
        return fail(f"branch arms {arms} are not of type D or E")
    # a path
    if len(big) >= 2:
        return fail("two labels >= 4 on a path")
    if not big:
        return ComponentType(f"A{n}", verts, math.factorial(n + 1))
    i, j, m = big[0]
    at_end = deg[i] == 1 or deg[j] == 1
    if m == 4 and at_end:
        return ComponentType(f"B{n}", verts, 2 ** n * math.factorial(n))
    if m == 4 and n == 4:
        return ComponentType("F4", verts, 1152)
    if m == 5 and at_end and n == 3:
        return ComponentType("H3", verts, 120)
    if m == 5 and at_end and n == 4:
        return ComponentType("H4", verts, 14400)
    return fail(f"label {m} at this position is not spherical for rank {n}")


def recognize_spherical(d: CoxeterDiagram) -> SphericalReport:
    comps = [_component_type(d, c.vertices) for c in connected_components(d.underlying_graph())]
    spherical = all(c.order is not None for c in comps)
    order = math.prod(c.order for c in comps) if spherical else None
    return SphericalReport(spherical, order, tuple(comps))


# ---------------------------------------------------------------------------
# HLT coset enumeration (trivial subgroup, involutive generators)


class _CosetTable:
    def __init__(self, ngens: int, cap: int):
        self.ngens = ngens
        self.cap = cap
        self.tab: List[List[int]] = [[-1] * ngens]
        self.parent: List[int] = [0]  # union-find over coset indices
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
        self.tab[c][x] = d
        self.tab[d][x] = c
        self.live += 1
        if self.live > self.cap:
            raise ResourceLimitError(
                f"coset enumeration exceeded cap={self.cap} live cosets"
            )
        return d

    def _merge(self, a: int, b: int, queue: List[int]) -> None:
        a, b = self.rep(a), self.rep(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        self.parent[b] = a
        self.live -= 1
        queue.append(b)

    def coincidence(self, a: int, b: int) -> None:
        queue: List[int] = []
        self._merge(a, b, queue)
        k = 0
        while k < len(queue):
            y = queue[k]
            k += 1
            for x in range(self.ngens):
                d = self.tab[y][x]
                if d < 0:
                    continue
                self.tab[y][x] = -1
                if self.tab[d][x] == y:
                    self.tab[d][x] = -1
                mu, nu = self.rep(y), self.rep(d)
                if self.tab[mu][x] >= 0:
                    self._merge(self.tab[mu][x], nu, queue)
                elif self.tab[nu][x] >= 0:
                    self._merge(self.tab[nu][x], mu, queue)
                else:
                    self.tab[mu][x] = nu
                    self.tab[nu][x] = mu

    def scan_and_fill(self, alpha: int, word: Sequence[int]) -> None:
        tab = self.tab
        f, i = alpha, 0
        b, j = alpha, len(word) - 1
        while True:
            while i <= j and tab[f][word[i]] >= 0:
                f = tab[f][word[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and tab[b][word[j]] >= 0:
                b = tab[b][word[j]]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                tab[f][word[i]] = b
                tab[b][word[i]] = f
                return
            self.define(f, word[i])


def _enumerate_cosets(d: CoxeterDiagram, cap: int) -> List[List[int]]:
    """Run HLT to completion; return the compacted generator-action table."""
    n = d.rank
    relators: List[List[int]] = []
    for i in range(n):
        for j in range(i + 1, n):
            m = d.matrix[i][j]
            if m != INF:
                relators.append([i, j] * m)
    ct = _CosetTable(n, cap)
    alpha = 0
    while alpha < len(ct.tab):
        if ct.rep(alpha) != alpha:
            alpha += 1
            continue
        for w in relators:
            ct.scan_and_fill(alpha, w)
            if ct.rep(alpha) != alpha:
                break
        if ct.rep(alpha) == alpha:
            for x in range(n):
                if ct.tab[alpha][x] < 0:
                    ct.define(alpha, x)
        alpha += 1
    # compact to live cosets
    live = [c for c in range(len(ct.tab)) if ct.rep(c) == c]
    renum = {c: i for i, c in enumerate(live)}
    out = []
    for c in live:
        row = ct.tab[c]
        if not all(e >= 0 for e in row):
            raise CheckError(f"coset {c} has an undefined entry after enumeration")
        out.append([renum[ct.rep(e)] for e in row])
    return out


def _word_label(word: Sequence[int]) -> str:
    return "e" if not word else "*".join(f"s{p + 1}" for p in word)


def enumerate_order(d: CoxeterDiagram, cap: int = 10000) -> int:
    """Order of W via coset enumeration only (no product table)."""
    return len(_enumerate_cosets(d, cap))


def enumerate_group(d: CoxeterDiagram, cap: int = 10000) -> GroupTable:
    """The full multiplication table of W, elements in BFS shortlex order.

    Memory is quadratic in the order; see enumerate_order for a cheap
    finiteness/order check on larger groups.
    """
    action = _enumerate_cosets(d, cap)
    n_cos = len(action)
    n = d.rank
    # renumber cosets in BFS shortlex order and record canonical words and
    # the BFS tree: tree[b] = (parent of b, generator x with b = parent.x)
    order_of: List[int] = [-1] * n_cos
    bfs: List[int] = [0]
    order_of[0] = 0
    words: List[Tuple[int, ...]] = [()]
    tree: List[Tuple[int, int]] = [(0, -1)]
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
    # act[x][c] = c.x, the right action of generator x on elements
    act = [[order_of[action[c][x]] for c in bfs] for x in range(n)]
    generators = tuple(act[x][0] for x in range(n))
    if len(set(generators)) != n or 0 in generators:
        raise CheckError("simple reflections must be distinct nontrivial elements")
    # left translation by each generator along the BFS tree:
    # s*b = (s*parent(b)).last(b)
    left = []
    for s in generators:
        row = [s] * n_cos
        for b in range(1, n_cos):
            parent, x = tree[b]
            row[b] = act[x][row[parent]]
        left.append(composer(row))
    # row b of the product: b*c = parent(b)*(last(b)*c)
    product: List[Tuple[int, ...]] = [tuple(range(n_cos))]
    for parent, x in tree[1:]:
        product.append(left[x](product[parent]))
    labels = [_word_label(w) for w in words]
    return GroupTable(product, labels=labels, generators=generators, words=words, validate=False)


# ---------------------------------------------------------------------------
# standard parabolic subgroups


def subdiagram(d: CoxeterDiagram, j_verts: Sequence[int]) -> CoxeterDiagram:
    """Induced diagram on the 1-based vertex subset (sorted)."""
    js = sorted(set(j_verts))
    if not js:
        raise DiagramError("subdiagram needs at least one vertex")
    if js[0] < 1 or js[-1] > d.rank:
        raise DiagramError(f"vertices {js} out of range for rank {d.rank}")
    return CoxeterDiagram([[d.m(i, j) for j in js] for i in js])


def embed_parabolic(
    sub: GroupTable, positions: Sequence[int], target: GroupTable
) -> Tuple[int, ...]:
    """Images of the standard parabolic embedding.

    `positions[p]` is the generator slot in `target` for generator p of
    `sub`; each element of `sub` maps to the evaluation of its canonical
    word.  Injectivity is checked (standard parabolic subgroups embed).
    """
    if sub.words is None:
        raise CheckError("the parabolic subgroup carries no generator words")
    images = []
    for w in sub.words:
        c = 0
        for p in w:
            c = target.product[c][target.generators[positions[p]]]
        images.append(c)
    if len(set(images)) != sub.order:
        raise CheckError("parabolic embedding must be injective")
    return tuple(images)


# ---------------------------------------------------------------------------
# named diagram families (handy for tests and docs)


def diagram_a(n: int) -> CoxeterDiagram:
    return CoxeterDiagram.from_edges(n, [(i, i + 1, 3) for i in range(1, n)])


def diagram_b(n: int) -> CoxeterDiagram:
    if n < 2:
        raise CheckError(f"B_n needs n >= 2, got {n}")
    edges = [(i, i + 1, 3) for i in range(1, n - 1)] + [(n - 1, n, 4)]
    return CoxeterDiagram.from_edges(n, edges)


def diagram_d(n: int) -> CoxeterDiagram:
    if n < 4:
        raise CheckError(f"D_n needs n >= 4, got {n}")
    edges = [(i, i + 1, 3) for i in range(1, n - 1)] + [(n - 2, n, 3)]
    return CoxeterDiagram.from_edges(n, edges)


def diagram_e(n: int) -> CoxeterDiagram:
    if n not in (6, 7, 8):
        raise CheckError(f"E_n needs n in 6..8, got {n}")
    edges = [(i, i + 1, 3) for i in range(1, n - 1)] + [(3, n, 3)]
    return CoxeterDiagram.from_edges(n, edges)


def diagram_f4() -> CoxeterDiagram:
    return CoxeterDiagram.from_edges(4, [(1, 2, 3), (2, 3, 4), (3, 4, 3)])


def diagram_h(n: int) -> CoxeterDiagram:
    if n not in (3, 4):
        raise CheckError(f"H_n needs n in 3..4, got {n}")
    edges = [(1, 2, 5)] + [(i, i + 1, 3) for i in range(2, n)]
    return CoxeterDiagram.from_edges(n, edges)


def diagram_i2(m: int) -> CoxeterDiagram:
    return CoxeterDiagram.from_edges(2, [(1, 2, m)])
