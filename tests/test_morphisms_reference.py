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
"""

import math
import subprocess
import sys
from itertools import combinations, islice
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxloops.coxeter import diagram_a, diagram_h, diagram_i2, enumerate_group
from coxloops.errors import ResourceLimitError
from coxloops.groups import (
    GroupTable,
    all_subgroups,
    alternating4,
    cyclic,
    dihedral,
    direct_product,
    klein4,
    quaternion,
    symmetric3,
)
from coxloops.loops import chein_loop
from coxloops.morphisms import (
    _profiles,
    automorphism_group,
    dihedral_decomposition,
    generating_set,
    verify_semidirect_automorphisms,
)


def reference_automorphisms(t) -> Tuple[Tuple[int, ...], ...]:
    """Every automorphism as a leaf of one backtracking search over the
    images of `generating_set(t)`, sorted."""
    n, p = t.order, t.product
    gens = generating_set(t)
    prof = _profiles(t)
    found: List[Tuple[int, ...]] = []

    def extend(images, used, known, a, b):
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

    def dfs(idx, images, used, known):
        if idx == len(gens):
            assert min(images) >= 0
            found.append(tuple(images))
            return
        g = gens[idx]
        for b in range(n):
            if prof[b] == prof[g]:
                r = extend(images, used, known, g, b)
                if r is not None:
                    dfs(idx + 1, *r)

    dfs(0, [0] + [-1] * (n - 1), [True] + [False] * (n - 1), [0])
    return tuple(sorted(found))


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


@settings(derandomize=True, max_examples=30, deadline=None)
@given(relabelled_groups())
def test_aut_matches_reference_on_relabellings(g):
    for t in (g, chein_loop(g)):
        assert automorphism_group(t).elements == reference_automorphisms(t)


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
