"""Differential tests: the level-by-level `Aut` search, its base and
strong generating set, and the index-2 `dihedral_decomposition` against
the reference paths they replaced.

The references below are the earlier implementations, condensed: a
leaf-by-leaf backtracking search that lists every automorphism as its own
leaf, the element-list path that expanded the transversals into every
product and answered membership from the set of them, and a scan of the
whole subgroup lattice.  They must give identical results on the
trichotomy corpus, on the tables of `test_morphisms.py`, on the order-240
loops of H3 and A4, and on relabelled small groups and their Chein loops.

The level search itself, and the subloop closure, are also kept as they
were before their propagation ran on whole rows: one product per pair of
elements, in both orders (`reference_automorphism_group`,
`reference_closure`, with the profiles and generating set they used).  The
row gathers must reproduce them exactly: the same base, strong generators,
transversals and node count, and the same closures.

The set stabilizers of the coefficient groups and amalgams walk the
transversals without listing `Aut`. They must equal the filter of the
listed `AutGroup.elements`, in its order, on the edge and vertex loops of
A2, B2 and I2(5..8) and on the trivial loop, for `hypothesis`-drawn
families of unions of subloops and arbitrary subsets.
"""

import functools
import math
import subprocess
import sys
from itertools import combinations, islice
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coxloops.cohomology import _set_stabilizer
from coxloops.coxeter import diagram_a, diagram_b, diagram_h, diagram_i2, enumerate_group
from coxloops.errors import ResourceLimitError
from coxloops.groups import (
    GroupTable,
    all_subgroups,
    alternating4,
    closure,
    cyclic,
    dihedral,
    direct_product,
    klein4,
    quaternion,
    symmetric3,
)
from coxloops.loops import LoopTable, chein_loop
from coxloops.morphisms import (
    _close_orbit,
    _profiles,
    automorphism_group,
    dihedral_decomposition,
    generating_set,
    verify_semidirect_automorphisms,
)


def reference_extend(p, images, used, known, a, b):
    """Set images[a] = b and propagate: every forced product, one pair at a
    time, each new element against every known one in both orders; None
    on a conflict."""
    images, used, known = images[:], used[:], known[:]
    if used[b]:
        return None
    images[a] = b
    used[b] = True
    known.append(a)
    queue = [a]
    while queue:
        x = queue.pop()
        for y in list(known):
            for s, u in ((x, y), (y, x)):
                z, iz = p[s][u], p[images[s]][images[u]]
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


def reference_automorphisms(t) -> Tuple[Tuple[int, ...], ...]:
    """Every automorphism as a leaf of one backtracking search over the
    images of `generating_set(t)`, sorted."""
    n, p = t.order, t.product
    gens = generating_set(t)
    prof = _profiles(t)
    found: List[Tuple[int, ...]] = []

    def dfs(idx, images, used, known):
        if idx == len(gens):
            assert min(images) >= 0
            found.append(tuple(images))
            return
        g = gens[idx]
        for b in range(n):
            if prof[b] == prof[g]:
                r = reference_extend(p, images, used, known, g, b)
                if r is not None:
                    dfs(idx + 1, *r)

    dfs(0, [0] + [-1] * (n - 1), [True] + [False] * (n - 1), [0])
    return tuple(sorted(found))


def reference_closure(t, subset) -> Tuple[int, ...]:
    """The subloop generated by `subset`, one product at a time: every
    element of each new frontier times every element seen, both ways."""
    seen = {0} | set(subset)
    frontier = list(seen)
    while frontier:
        new = []
        for a in frontier:
            for b in list(seen):
                for c in (t.product[a][b], t.product[b][a]):
                    if c not in seen:
                        seen.add(c)
                        new.append(c)
        frontier = new
    return tuple(sorted(seen))


def reference_profiles(t) -> List[Tuple]:
    n, p = t.order, t.product
    sq_roots = [0] * n
    for y in range(n):
        sq_roots[p[y][y]] += 1
    commuting = [sum(1 for y in range(n) if p[x][y] == p[y][x]) for x in range(n)]
    return [(t.element_order(x), sq_roots[x], commuting[x]) for x in range(n)]


def reference_generating_set(t) -> Tuple[int, ...]:
    gens: List[int] = []
    have = {0}
    while len(have) < t.order:
        gens.append(min(set(range(t.order)) - have))
        have = set(reference_closure(t, gens))
    return tuple(gens)


def reference_automorphism_group(t):
    """The level search of `automorphism_group` propagating through
    `reference_extend`; no budget and no memo.  Returns (base,
    strong_generators, transversals, nodes)."""
    n, p = t.order, t.product
    gens = reference_generating_set(t)
    prof = reference_profiles(t)
    candidates = {g: [x for x in range(n) if prof[x] == prof[g]] for g in gens}
    nodes = 0

    def extend(*state):
        nonlocal nodes
        nodes += 1
        return reference_extend(p, *state)

    def first_leaf(idx, state, b):
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

    prefixes = [([0] + [-1] * (n - 1), [True] + [False] * (n - 1), [0])]
    for g in gens:
        prefixes.append(extend(*prefixes[-1], g, g))
    if len(prefixes[-1][2]) != n:
        raise AssertionError(f"{gens} does not generate the table")
    identity = tuple(range(n))
    found: List[Tuple[int, ...]] = []
    transversals: List[Dict[int, Tuple[int, ...]]] = []
    for i in reversed(range(len(gens))):
        g = gens[i]
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
                transversal[c] = tuple(f[v] for v in transversal[parent])
        transversals.append(transversal)
    return gens, tuple(found), tuple(reversed(transversals)), nodes


def search_fields(aut):
    return aut.base, aut.strong_generators, aut.transversals, aut.nodes


def reference_element_list(aut) -> Tuple[Tuple[int, ...], ...]:
    """The element-list path: every product t1 o ... o tk of one
    transversal element per level, sorted, each automorphism exactly once."""
    elements = [tuple(range(aut.degree))]
    for level in reversed(aut.transversals):
        elements = [
            tuple(map(f.__getitem__, suffix)) for f in level.values() for suffix in elements
        ]
    elements.sort()
    assert len(elements) == math.prod(map(len, aut.transversals))
    assert all(a < b for a, b in zip(elements, elements[1:]))
    return tuple(elements)


def reference_dihedral_decomposition(g: GroupTable) -> Optional[Tuple[Tuple[int, ...], int]]:
    """The subgroup-lattice scan: index-2 subgroups in (size, elements) order."""
    if g.order % 2 != 0:
        return None
    p, inv = g.product, g.inverse
    for sub in all_subgroups(g):
        if len(sub) != g.order // 2:
            continue
        if any(p[a][b] != p[b][a] for a in sub for b in sub):
            continue
        for u in range(g.order):
            if u not in sub and p[u][u] == 0 and all(p[p[u][h]][u] == inv[h] for h in sub):
                return (sub, u)
    return None


def relabel(g: GroupTable, perm: List[int]) -> GroupTable:
    """The same group with element x renamed perm[x] (perm fixes 0)."""
    rows = [[0] * g.order for _ in range(g.order)]
    for a in range(g.order):
        for b in range(g.order):
            rows[perm[a]][perm[b]] = perm[g.product[a][b]]
    return GroupTable(rows)


# the trichotomy corpus of test_morphisms.py plus the groups of its Aut tables
GROUPS = {
    "z1": cyclic(1),
    "z2": cyclic(2),
    "klein4": klein4(),
    "z2_cubed": direct_product(klein4(), cyclic(2)),
    "z3": cyclic(3),
    "z4": cyclic(4),
    "z5": cyclic(5),
    "z6": cyclic(6),
    "z9": cyclic(9),
    "z12": cyclic(12),
    "z2_x_z4": direct_product(cyclic(2), cyclic(4)),
    "q8": quaternion(),
    "a4": alternating4(),
    "d3": symmetric3(),
    "d4": dihedral(4),
    "d5": dihedral(5),
    "d6": dihedral(6),
}
MORE_GROUPS = {
    "a3": enumerate_group(diagram_a(3)),
    "i2_8": enumerate_group(diagram_i2(8)),
    "d4_x_z2": direct_product(dihedral(4), cyclic(2)),
    "q8_x_z2": direct_product(quaternion(), cyclic(2)),
    "z3_x_klein4": direct_product(cyclic(3), klein4()),
    "s3_x_z3": direct_product(symmetric3(), cyclic(3)),
}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_aut_matches_reference_on_corpus(name):
    g = GROUPS[name]
    for t in (g, chein_loop(g)):
        assert automorphism_group(t).elements == reference_automorphisms(t)


@pytest.mark.parametrize("name", sorted(MORE_GROUPS))
def test_aut_matches_reference_on_larger_groups(name):
    g = MORE_GROUPS[name]
    assert automorphism_group(g).elements == reference_automorphisms(g)


SMALL = [symmetric3(), dihedral(4), quaternion(), alternating4(), cyclic(6), klein4(),
         direct_product(cyclic(2), cyclic(4))]


@st.composite
def relabelled_groups(draw):
    g = draw(st.sampled_from(SMALL))
    perm = [0] + draw(st.permutations(range(1, g.order)))
    return relabel(g, perm)


@st.composite
def swapped_loops(draw):
    """A small group or its Chein loop with one intercalate swapped, rows
    a, b and columns c, d with a*c = b*d and a*d = b*c, then relabelled: a
    loop again, and rarely Moufang, so products in one order no longer
    follow from those in the other."""
    g = draw(st.sampled_from(SMALL))
    rows = [list(r) for r in draw(st.sampled_from((g, chein_loop(g)))).product]
    n = len(rows)
    a, c = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
    b = next(
        (b for b in range(1, n) if b != a and rows[a].index(rows[b][c]) not in (0, c)
         and rows[b][rows[a].index(rows[b][c])] == rows[a][c]),
        None,
    )
    assume(b is not None)
    d = rows[a].index(rows[b][c])
    for r in (a, b):
        rows[r][c], rows[r][d] = rows[r][d], rows[r][c]
    perm = [0] + draw(st.permutations(range(1, n)))
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[perm[x]][perm[y]] = perm[rows[x][y]]
    return LoopTable(out)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(relabelled_groups())
def test_aut_matches_reference_on_relabellings(g):
    for t in (g, chein_loop(g)):
        assert automorphism_group(t).elements == reference_automorphisms(t)
        assert search_fields(automorphism_group(t)) == reference_automorphism_group(t)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(swapped_loops())
def test_search_matches_per_pair_reference_on_swapped_loops(t):
    assert search_fields(automorphism_group(t)) == reference_automorphism_group(t)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.one_of(relabelled_groups(), relabelled_groups().map(chein_loop), swapped_loops()),
    st.data(),
)
def test_closure_matches_pair_by_pair_reference(t, data):
    elements = st.integers(0, t.order - 1)
    subsets = [(), (0,)] + [tuple(data.draw(st.lists(elements, max_size=4))) for _ in range(3)]
    for subset in subsets:
        assert closure(t, subset) == reference_closure(t, subset)


@pytest.mark.parametrize("name", sorted(GROUPS) + sorted(MORE_GROUPS))
def test_dihedral_decomposition_matches_lattice_scan(name):
    g = {**GROUPS, **MORE_GROUPS}[name]
    assert dihedral_decomposition(g) == reference_dihedral_decomposition(g)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(relabelled_groups())
def test_dihedral_decomposition_matches_lattice_scan_on_relabellings(g):
    assert dihedral_decomposition(g) == reference_dihedral_decomposition(g)


# the order-240 loops of the ROADMAP frontier, and their groups
LARGE_GROUPS = {
    "H3": enumerate_group(diagram_h(3)),
    "A4": enumerate_group(diagram_a(4)),
}


@pytest.mark.parametrize("name", sorted(GROUPS) + sorted(MORE_GROUPS) + sorted(LARGE_GROUPS))
def test_search_matches_per_pair_reference(name):
    g = {**GROUPS, **MORE_GROUPS, **LARGE_GROUPS}[name]
    for t in (g, chein_loop(g)):
        assert generating_set(t) == reference_generating_set(t)
        assert _profiles(t) == reference_profiles(t)
        assert search_fields(automorphism_group(t)) == reference_automorphism_group(t)


def test_search_matches_per_pair_reference_under_optimize():
    # the row gathers must not rest on `assert`: the same search, the same
    # closures, with asserts stripped by -O
    code = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})",
        "from test_morphisms_reference import (",
        "    reference_automorphism_group, reference_closure, search_fields)",
        "from coxloops.groups import closure, dihedral",
        "from coxloops.loops import chein_loop",
        "from coxloops.morphisms import automorphism_group",
        "t = chein_loop(dihedral(6))",
        "print(__debug__, search_fields(automorphism_group(t)) == reference_automorphism_group(t))",
        "subsets = ((), (0,), (1,), (6, 13), (2, 12))",
        "print(all(closure(t, s) == reference_closure(t, s) for s in subsets))",
    ])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "True"]


def _swap(f, i, j):
    f = list(f)
    f[i], f[j] = f[j], f[i]
    return tuple(f)


def _probes(aut, members):
    """Image tuples to sift: every member; transpositions of the identity;
    members with the images of two points off the base swapped, which agree
    with a member on every base point and so reach the last level; and
    forged tuples of the wrong length, with a repeated value or with a
    value out of range."""
    n = aut.degree
    yield from members
    pairs = list(combinations(range(n), 2))
    for i, j in pairs[:: 1 + len(pairs) // 512]:
        yield _swap(range(n), i, j)
    off_base = [x for x in range(n) if x not in aut.base]
    for f in members[:: 1 + len(members) // 16]:
        for i, j in islice(combinations(off_base, 2), 16):
            yield _swap(f, i, j)
        yield f[:-1]
        yield f + (n,)
        yield (-1,) + f[1:]
        yield f[:-1] + (n,)
        yield f[:-1] + f[:1]


def assert_matches_element_list(t):
    aut = automorphism_group(t)
    members = reference_element_list(aut)
    member_set = frozenset(members)
    assert aut.elements == members
    assert aut.order == len(members)
    for images in _probes(aut, members):
        assert (images in aut) == (images in member_set), images


@pytest.mark.parametrize("name", sorted(GROUPS) + sorted(MORE_GROUPS) + sorted(LARGE_GROUPS))
def test_bsgs_matches_element_list(name):
    g = {**GROUPS, **MORE_GROUPS, **LARGE_GROUPS}[name]
    for t in (g, chein_loop(g)):
        assert_matches_element_list(t)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(relabelled_groups())
def test_bsgs_matches_element_list_on_relabellings(g):
    for t in (g, chein_loop(g)):
        assert_matches_element_list(t)


def test_forged_transversals_raise_under_optimize():
    # the distinct-products certificate must refuse a transversal element
    # that moves an earlier base point and two elements with the same base
    # image (the identity filed under the image 2 of base point 1), even
    # with asserts stripped by -O
    code = "\n".join([
        "from coxloops.errors import CheckError",
        "from coxloops.groups import symmetric3",
        "from coxloops.loops import chein_loop",
        "from coxloops.morphisms import AutGroup, automorphism_group",
        "aut = automorphism_group(chein_loop(symmetric3()))",
        "levels = [dict(level) for level in aut.transversals]",
        # the base is (1, 3, 6); levels[0][2] fixes 3 but moves 1
        "moves = [dict(level) for level in levels]",
        "moves[1][3] = levels[0][2]",
        "repeats = [dict(level) for level in levels]",
        "repeats[0][2] = repeats[0][1]",
        "for forged in (levels, moves, repeats):",
        "    try:",
        "        AutGroup(aut.base, aut.strong_generators, tuple(forged), aut.nodes, aut.degree)",
        "    except CheckError as e:",
        "        print(__debug__, 'CheckError', e)",
        "    else:",
        "        print(__debug__, 'returned')",
    ])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "False returned",
        "False CheckError a transversal element of level 1 moves an earlier base point",
        "False CheckError a transversal element of level 0 maps 1 to 1, not 2",
    ]


def test_memo_hit_respects_budget():
    t = chein_loop(symmetric3())
    full = automorphism_group(t)
    assert full.nodes > 1
    with pytest.raises(ResourceLimitError):
        automorphism_group(t, budget=1)
    with pytest.raises(ResourceLimitError):
        automorphism_group(t, budget=full.nodes - 1)
    assert automorphism_group(t, budget=full.nodes) is full


def test_memo_covers_tables_above_order_64():
    t = chein_loop(cyclic(33))  # order 66
    assert automorphism_group(t) is automorphism_group(t)


def test_incomplete_generating_set_raises_under_optimize():
    # a partial generator assignment must not pass for an automorphism, even
    # with asserts stripped by -O
    code = "\n".join([
        "import coxloops.morphisms as m",
        "from coxloops.errors import CheckError",
        "from coxloops.groups import symmetric3",
        "from coxloops.loops import chein_loop",
        "full = m.generating_set",
        "m.generating_set = lambda t: full(t)[:-1]",
        "try:",
        "    m.automorphism_group(chein_loop(symmetric3()))",
        "except CheckError:",
        "    print(__debug__, 'CheckError')",
        "else:",
        "    print(__debug__, 'returned')",
    ])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "CheckError"]


def test_h3_loop_automorphisms():
    # trichotomy case 2: |Aut(M(H3, 2))| = |H3| * |Aut(H3)| = 120 * 120
    h3 = enumerate_group(diagram_h(3))
    assert automorphism_group(chein_loop(h3)).order == 14400
    assert verify_semidirect_automorphisms(h3).ok


# ---------------------------------------------------------------------------
# set stabilizers: the transversal walk against the filter of the listed Aut

# the vertex loop M(Z2, 2), the edge loops M(W, 2) of rank-2 diagrams, and
# the trivial loop, whose Aut has no levels at all
STABILIZER_LOOPS = {
    "trivial": lambda: LoopTable([[0]]),
    "vertex": lambda: chein_loop(cyclic(2)),
    "A2": lambda: chein_loop(enumerate_group(diagram_a(2))),
    "B2": lambda: chein_loop(enumerate_group(diagram_b(2))),
    **{f"I2({m})": (lambda m=m: chein_loop(enumerate_group(diagram_i2(m)))) for m in range(5, 9)},
}


@functools.lru_cache(maxsize=None)
def stabilizer_loop(name: str) -> LoopTable:
    return STABILIZER_LOOPS[name]()


@st.composite
def stabilizer_cases(draw):
    name = draw(st.sampled_from(sorted(STABILIZER_LOOPS)))
    loop = stabilizer_loop(name)
    points = st.integers(0, loop.order - 1)
    subloop_unions = st.lists(st.lists(points, max_size=2), min_size=1, max_size=3).map(
        lambda gens: frozenset().union(*(closure(loop, g) for g in gens))
    )
    targets = draw(st.lists(st.one_of(subloop_unions, st.frozensets(points)), max_size=4))
    return name, targets


@settings(derandomize=True, max_examples=200, deadline=None)
@given(stabilizer_cases())
def test_set_stabilizer_walk_matches_the_filtered_elements(case):
    name, targets = case
    loop = stabilizer_loop(name)
    expected = [
        f for f in automorphism_group(loop).elements
        if all(frozenset(f[x] for x in s) == s for s in targets)
    ]
    assert _set_stabilizer(loop, targets, 10_000_000) == expected


@pytest.mark.parametrize("name", sorted(STABILIZER_LOOPS))
def test_set_stabilizer_of_nothing_is_all_of_aut(name):
    loop = stabilizer_loop(name)
    assert _set_stabilizer(loop, [], 10_000_000) == list(automorphism_group(loop).elements)
