"""Coxeter diagrams and their groups as explicit tables.

A diagram of rank n is the symmetric matrix (m_ij) with m_ii = 1 and
m_ij in {2, 3, ...} or infinity off the diagonal.  Vertices are named
1..n to match the input format; matrix indices are 0-based internally.

The group W is enumerated with the HLT (scan-and-fill) coset enumeration
over the trivial subgroup, using the symmetric one-column-per-generator
table trick available because every generator is an involution; see Holt,
"Handbook of Computational Group Theory", ch. 5.  The table is stored by
column: one flat list per generator, `cols[x][c]` the coset c times s_x,
so a coset costs one slot per generator instead of a list of its own, and
a relator is scanned as the list of its generators' columns.  Compaction
renumbers the live cosets through a list indexed by coset.  Cosets are
then renumbered into BFS shortlex order, so element 0 is the identity.
That renumbered action, W acting on itself from the right by the simple
reflections, is the shared primitive `regular_action`: the action and the
BFS tree, each linear in |W| with a small constant, and `group` reads the
element statistics from it (`groups.element_statistics`) without building
a table.  No words are stored: the shortlex word of an element is the
generators on its tree path from the identity, read off the tree where it
is needed (the statistics walk, and `enumerate_group`'s labels, `words`
and, through them, the parabolic embeddings).

`enumerate_group` is `regular_action` plus the dense product table, read
off the BFS tree of that renumbering: if b is reached from its parent p by
generator s, then b*c = p*(s*c) for every c, so row b is row p composed
with left translation by s, one `groups.composer` call per element.  The
generators' left translations come from the same tree: s*b = (s*p).x when
b = p.x.

Finite (spherical) diagrams are recognized by the standard classification
of finite Coxeter groups (connected components must be trees of shape
A/B/D/E/F/H/I2 with the usual label restrictions), which gives the order
in closed form; `enumerate_order` provides the independent cross-check.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Dict, List, Sequence, Tuple

from .errors import CheckError, DiagramError, ResourceLimitError
from .graphs import Graph, connected_components
from .groups import GroupTable, composer

__all__ = [
    "INF",
    "CoxeterDiagram",
    "ComponentType",
    "SphericalReport",
    "recognize_spherical",
    "RegularAction",
    "regular_action",
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


class ComponentType(namedtuple("ComponentType", [
    "name",  # "A3", "I2(7)", "G2", ... or "-" when not spherical
    "vertices",
    "order",  # None when not spherical
    "reason",  # set when the component is not spherical (default None)
], defaults=(None,))):
    __slots__ = ()


class SphericalReport(namedtuple("SphericalReport", "spherical order components")):
    __slots__ = ()


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
    """The HLT table, one column per generator: `cols[x][c]` is coset c
    times generator x, -1 while undefined.  A relator is scanned as the
    list of its generators' columns."""

    def __init__(self, ngens: int, cap: int):
        self.cap = cap
        self.cols: List[List[int]] = [[-1] for _ in range(ngens)]
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

    def define(self, c: int, col: List[int]) -> int:
        d = len(self.parent)
        for column in self.cols:
            column.append(-1)
        self.parent.append(d)
        col[c] = d
        col[d] = c
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
            for col in self.cols:
                d = col[y]
                if d < 0:
                    continue
                col[y] = -1
                if col[d] == y:
                    col[d] = -1
                mu, nu = self.rep(y), self.rep(d)
                if col[mu] >= 0:
                    self._merge(col[mu], nu, queue)
                elif col[nu] >= 0:
                    self._merge(col[nu], mu, queue)
                else:
                    col[mu] = nu
                    col[nu] = mu

    def scan_and_fill(self, alpha: int, word: Sequence[List[int]]) -> None:
        f, i = alpha, 0
        b, j = alpha, len(word) - 1
        while True:
            while i <= j and word[i][f] >= 0:
                f = word[i][f]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and word[j][b] >= 0:
                b = word[j][b]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                word[i][f] = b
                word[i][b] = f
                return
            self.define(f, word[i])

    def compact(self) -> List[List[int]]:
        """The columns restricted to the live cosets, renumbered 0, 1, ...

        A merged coset's root is smaller than it, so one ascending pass
        numbers every coset, live or merged, by its root's rank.
        """
        renum: List[int] = []
        live: List[int] = []
        for c in range(len(self.parent)):
            r = self.rep(c)
            if r == c:
                renum.append(len(live))
                live.append(c)
            else:
                renum.append(renum[r])
        out, undefined = [], []
        for col in self.cols:
            entries = [col[c] for c in live]
            if -1 in entries:
                undefined.append(live[entries.index(-1)])
            out.append([renum[e] for e in entries])
        if undefined:
            raise CheckError(f"coset {min(undefined)} has an undefined entry after enumeration")
        return out


def _enumerate_cosets(d: CoxeterDiagram, cap: int) -> List[List[int]]:
    """Run HLT to completion; return the compacted columns, `cols[x][c]`
    the coset c times generator x.

    Each finite label m gives a dihedral subgroup of order 2m, so |W| >= 2m;
    past the cap the run is refused before its relator of length 2m is built.
    """
    n = d.rank
    labels = [(i, j, d.matrix[i][j]) for i in range(n) for j in range(i + 1, n)]
    if any(m != INF and 2 * m > cap for _, _, m in labels):
        raise ResourceLimitError(f"coset enumeration exceeded cap={cap} live cosets")
    ct = _CosetTable(n, cap)
    cols = ct.cols
    relators = [[cols[i], cols[j]] * m for i, j, m in labels if m != INF]
    # a coset is live while it is its own root: a merge points the larger
    # root at the smaller, so parent[alpha] == alpha is rep(alpha) == alpha
    parent = ct.parent
    alpha = 0
    while alpha < len(parent):
        if parent[alpha] != alpha:
            alpha += 1
            continue
        for w in relators:
            # a relator that already closes at alpha leaves the scan nothing to do
            f = alpha
            for col in w:
                f = col[f]
                if f < 0:
                    break
            if f == alpha:
                continue
            ct.scan_and_fill(alpha, w)
            if parent[alpha] != alpha:
                break
        if parent[alpha] == alpha:
            for col in cols:
                if col[alpha] < 0:
                    ct.define(alpha, col)
        alpha += 1
    return ct.compact()


def _word_label(word: Sequence[int]) -> str:
    return "e" if not word else "*".join(f"s{p + 1}" for p in word)


def enumerate_order(d: CoxeterDiagram, cap: int = 10000) -> int:
    """Order of W via coset enumeration only (no product table)."""
    return len(_enumerate_cosets(d, cap)[0])


class RegularAction(namedtuple("RegularAction", "act tree")):
    """W acting on itself from the right, elements in BFS shortlex order.

    `act[x][g]` is g*s_x for the simple reflection s_x (vertex x + 1), and
    `tree[b]` is (parent of b, x) with b = parent * s_x in the BFS tree of
    that renumbering (`tree[0]` is (0, -1)).  Element 0 is the identity.
    The shortlex word of b is the generators on its tree path from 0.
    """

    __slots__ = ()

    @property
    def generators(self) -> Tuple[int, ...]:
        """The simple reflections, in diagram-vertex order."""
        return tuple(row[0] for row in self.act)


def regular_action(d: CoxeterDiagram, cap: int = 10000) -> RegularAction:
    """W as its right regular action, from coset enumeration over the
    trivial subgroup, renumbered in BFS shortlex order.

    This is the primitive under `enumerate_group`, and `group` reads its
    element statistics from it without building a table.  Memory is linear
    in the order: the action and the BFS tree, no words.
    """
    cols = _enumerate_cosets(d, cap)
    n_cos = len(cols[0])
    # renumber cosets in BFS shortlex order and record the BFS tree:
    # tree[b] = (parent of b, generator x with b = parent.x)
    order_of: List[int] = [-1] * n_cos
    bfs: List[int] = [0]
    order_of[0] = 0
    tree: List[Tuple[int, int]] = [(0, -1)]
    head = 0
    while head < len(bfs):
        c = bfs[head]
        for x, col in enumerate(cols):
            e = col[c]
            if order_of[e] < 0:
                order_of[e] = len(bfs)
                tree.append((order_of[c], x))
                bfs.append(e)
        head += 1
    if head != n_cos:
        raise CheckError("coset graph must be connected")
    # act[x][b] = b.x, the right action of generator x on elements; each
    # column is dropped once renumbered, so at most one column and its
    # renumbered row are held side by side
    act = []
    for x in range(len(cols)):
        col, cols[x] = cols[x], None
        act.append(tuple([order_of[col[c]] for c in bfs]))
    w = RegularAction(tuple(act), tuple(tree))
    generators = w.generators
    if len(set(generators)) != len(act) or 0 in generators:
        raise CheckError("simple reflections must be distinct nontrivial elements")
    return w


def enumerate_group(d: CoxeterDiagram, cap: int = 10000) -> GroupTable:
    """The full multiplication table of W: `regular_action`, then the dense
    table built over that action, elements in BFS shortlex order, with the
    shortlex words read off the BFS tree.

    Memory is quadratic in the order; see enumerate_order for a cheap
    finiteness/order check on larger groups, and `regular_action` for the
    element statistics without a table.
    """
    return _group_table(regular_action(d, cap))


def _group_table(w: RegularAction) -> GroupTable:
    """The dense table of `enumerate_group`, built over the action `w`."""
    act, tree, generators = w.act, w.tree, w.generators
    n_cos = len(tree)
    words: List[Tuple[int, ...]] = [()]
    for parent, x in tree[1:]:
        words.append(words[parent] + (x,))
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
    labels = [_word_label(word) for word in words]
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
