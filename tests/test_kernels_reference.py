"""Differential tests: the composition kernels against the reference paths
they replaced.

The references below are the earlier implementations, condensed: the
table build that replays a shortlex word for every entry, the doubled loop
built entry by entry, the per-triple identity sweeps, the cubic
associativity loop of group validation, and the per-pair homomorphism
check.  Both sides must agree entry for entry, including whole
`IdentityReport`s and the first failing instance, on the frozen Coxeter
corpus and its Chein loops, on relabelled small groups, and on non-Moufang
loops whose failures land at many positions.
"""

from itertools import product as iproduct
from typing import Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxloops.coxeter import (
    CoxeterDiagram,
    _enumerate_cosets,
    _word_label,
    diagram_a,
    diagram_b,
    diagram_d,
    diagram_f4,
    diagram_h,
    diagram_i2,
    enumerate_group,
)
from coxloops.errors import CheckError
from coxloops.groups import (
    GroupTable,
    cyclic,
    dihedral,
    direct_product,
    klein4,
    quaternion,
    symmetric3,
)
from coxloops.loops import (
    MOUFANG_NAMES,
    IdentityReport,
    LoopTable,
    _run,
    chein_loop,
    is_associative,
    is_moufang,
    moufang_values,
)
from coxloops.morphisms import automorphism_group, is_homomorphism

# ---------------------------------------------------------------------------
# reference paths


def reference_enumerate_group(d: CoxeterDiagram) -> GroupTable:
    """BFS shortlex renumbering, then a*b by replaying b's word from a."""
    action = _enumerate_cosets(d, 10000)
    n_cos, n = len(action), d.rank
    order_of = [-1] * n_cos
    order_of[0] = 0
    bfs, words = [0], [()]
    head = 0
    while head < len(bfs):
        c = bfs[head]
        head += 1
        for x in range(n):
            e = action[c][x]
            if order_of[e] < 0:
                order_of[e] = len(bfs)
                words.append(words[head - 1] + (x,))
                bfs.append(e)
    act = [[order_of[action[c][x]] for x in range(n)] for c in bfs]
    product = []
    for a in range(n_cos):
        row = []
        for b in range(n_cos):
            c = a
            for x in words[b]:
                c = act[c][x]
            row.append(c)
        product.append(row)
    generators = tuple(act[0][x] for x in range(n))
    labels = [_word_label(w) for w in words]
    return GroupTable(product, labels=labels, generators=generators, words=words, validate=False)


def reference_chein_loop(g: GroupTable) -> LoopTable:
    n = g.order
    gp, gi = g.product, g.inverse
    rows = [[0] * (2 * n) for _ in range(2 * n)]
    for a in range(n):
        ra, rau = rows[a], rows[n + a]
        for b in range(n):
            ra[b] = gp[a][b]
            ra[n + b] = n + gp[b][a]
            rau[b] = n + gp[a][gi[b]]
            rau[n + b] = gp[gi[b]][a]
    labels = list(g.labels) + [("u" if a == 0 else f"{g.labels[a]}*u") for a in range(n)]
    return LoopTable(rows, labels=labels, group_order=n, group_generators=g.generators, validate=False)


def reference_is_associative(t) -> IdentityReport:
    p, n = t.product, t.order
    return _run(
        "assoc", iproduct(range(n), repeat=3), lambda x, y, z: (p[p[x][y]][z], p[x][p[y][z]])
    )


def reference_is_moufang(t) -> Dict[str, IdentityReport]:
    return {
        name: _run(
            name,
            iproduct(range(t.order), repeat=3),
            lambda x, y, z, _n=name: moufang_values(t, _n, x, y, z),
        )
        for name in MOUFANG_NAMES
    }


def reference_associativity_failure(rows: Sequence[Sequence[int]]) -> Optional[Tuple[int, int, int]]:
    """The first (a, b, c) of the cubic validation loop with (ab)c != a(bc)."""
    n = len(rows)
    for a, b, c in iproduct(range(n), repeat=3):
        if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
            return (a, b, c)
    return None


def reference_is_homomorphism(images: Sequence[int], dom, cod) -> bool:
    dp, cp = dom.product, cod.product
    n = len(dp)
    if len(images) != n:
        return False
    return all(images[dp[x][y]] == cp[images[x]][images[y]] for x in range(n) for y in range(n))


# ---------------------------------------------------------------------------
# helpers


def relabel_rows(rows: Sequence[Sequence[int]], perm: Sequence[int]) -> List[List[int]]:
    """The same table with element x renamed perm[x] (perm fixes 0)."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[rows[a][b]]
    return out


def swap_intercalate(g: GroupTable, s: int, x: int, y: int) -> List[List[int]]:
    """g's table with the 2x2 subsquare on rows {x, xs} and columns
    {y, ys} swapped, for a central involution s and x, y not in {e, s}: the
    result is still a loop with identity 0, and rarely a group."""
    p = g.product
    rows = [list(r) for r in p]
    xs, ys = p[x][s], p[y][s]
    for a in (x, xs):
        rows[a][y], rows[a][ys] = rows[a][ys], rows[a][y]
    return rows


def assert_same_loop(new: LoopTable, ref: LoopTable) -> None:
    assert (new.product, new.labels, new.rinv) == (ref.product, ref.labels, ref.rinv)
    assert (new.group_order, new.group_generators) == (ref.group_order, ref.group_generators)


# ---------------------------------------------------------------------------
# the frozen Coxeter corpus

CORPUS = {
    "A1": diagram_a(1),
    "A2": diagram_a(2),
    "A3": diagram_a(3),
    "A4": diagram_a(4),
    "B3": diagram_b(3),
    "D4": diagram_d(4),
    "F4": diagram_f4(),
    "H3": diagram_h(3),
    "I2_5": diagram_i2(5),
    "I2_8": diagram_i2(8),
    "A1xB2": CoxeterDiagram.from_edges(3, [(2, 3, 4)]),
}
GROUPS = {name: enumerate_group(d) for name, d in CORPUS.items()}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_enumerate_group_matches_word_replay(name):
    new, ref = GROUPS[name], reference_enumerate_group(CORPUS[name])
    assert (new.product, new.labels, new.words) == (ref.product, ref.labels, ref.words)
    assert (new.generators, new.inverse) == (ref.generators, ref.inverse)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_chein_loop_matches_entrywise_build(name):
    g = GROUPS[name]
    new, ref = chein_loop(g), reference_chein_loop(g)
    assert_same_loop(new, ref)
    if g.order <= 240:
        # associativity fails within the first rows on a nonabelian group's
        # loop (after 5.3 M instances on F4's, too slow for the reference)
        assert is_associative(new) == reference_is_associative(ref)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "I2_5", "I2_8", "A1xB2"])
def test_identity_reports_match_per_triple_sweeps(name):
    g = GROUPS[name]
    t = chein_loop(g)
    assert is_moufang(t) == reference_is_moufang(t)
    assert is_associative(t) == reference_is_associative(t)
    assert is_associative(g) == reference_is_associative(g)


@pytest.mark.slow
def test_identity_reports_match_per_triple_sweeps_b3_loop():
    t = chein_loop(GROUPS["B3"])
    assert is_moufang(t) == reference_is_moufang(t)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B3", "I2_5", "A1xB2"])
def test_homomorphism_check_matches_on_loop_automorphisms(name):
    t = chein_loop(GROUPS[name])
    elements = automorphism_group(t).elements
    for k, images in enumerate(elements[:: 1 + len(elements) // 64]):
        assert is_homomorphism(images, t, t) and reference_is_homomorphism(images, t, t)
        # transpose two images: still a bijection, no longer a homomorphism
        bad = list(images)
        i, j = 1 + k % (t.order - 1), t.order - 1 - k % (t.order - 1)
        bad[i], bad[j] = bad[j], bad[i]
        assert is_homomorphism(bad, t, t) == reference_is_homomorphism(bad, t, t)


# ---------------------------------------------------------------------------
# hypothesis: relabellings and non-Moufang loops

SMALL = [symmetric3(), dihedral(4), quaternion(), cyclic(6), klein4(), cyclic(5),
         direct_product(cyclic(2), cyclic(4))]

# groups with a central involution s, for the intercalate swap
CENTRAL = [(cyclic(4), 2), (klein4(), 3), (cyclic(6), 3), (cyclic(8), 4), (cyclic(12), 6),
           (quaternion(), 1), (dihedral(4), 2), (direct_product(cyclic(2), cyclic(4)), 2),
           (direct_product(quaternion(), cyclic(2)), 2), (direct_product(dihedral(4), cyclic(2)), 1)]


@st.composite
def relabelled_groups(draw):
    g = draw(st.sampled_from(SMALL))
    perm = [0] + draw(st.permutations(range(1, g.order)))
    return GroupTable(relabel_rows(g.product, perm), labels=[g.labels[perm.index(x)] for x in range(g.order)])


@st.composite
def swapped_loops(draw):
    """A relabelled group table with one intercalate swapped."""
    g, s = draw(st.sampled_from(CENTRAL))
    outside = [a for a in range(g.order) if a not in (0, s)]
    x, y = draw(st.sampled_from(outside)), draw(st.sampled_from(outside))
    perm = [0] + draw(st.permutations(range(1, g.order)))
    return relabel_rows(swap_intercalate(g, s, x, y), perm)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(relabelled_groups())
def test_relabelled_chein_loops_match(g):
    new, ref = chein_loop(g), reference_chein_loop(g)
    assert_same_loop(new, ref)
    assert is_moufang(new) == reference_is_moufang(ref)
    assert is_associative(new) == reference_is_associative(ref)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(relabelled_groups(), st.data())
def test_relabelled_loops_match(g, data):
    # relabelling the doubled loop moves its associativity failures around
    t = chein_loop(g)
    perm = [0] + data.draw(st.permutations(range(1, t.order)))
    rel = LoopTable(relabel_rows(t.product, perm))
    assert is_moufang(rel) == reference_is_moufang(rel)
    assert is_associative(rel) == reference_is_associative(rel)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(swapped_loops())
def test_non_moufang_loops_match(rows):
    t = LoopTable(rows)
    assert is_moufang(t) == reference_is_moufang(t)
    assert is_associative(t) == reference_is_associative(t)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(swapped_loops())
def test_group_validation_reports_the_first_failing_triple(rows):
    failure = reference_associativity_failure(rows)
    if failure is None:
        assert GroupTable(rows).order == len(rows)
    else:
        with pytest.raises(CheckError, match=r"associativity fails at \((\d+),(\d+),(\d+)\)") as e:
            GroupTable(rows)
        assert str(e.value) == "associativity fails at ({},{},{})".format(*failure)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(relabelled_groups(), st.data())
def test_homomorphism_check_matches_on_random_maps(g, data):
    t = chein_loop(g)
    auts = automorphism_group(g).elements
    cases = [
        (g, g, data.draw(st.sampled_from(auts))),
        (g, g, data.draw(st.lists(st.integers(0, g.order - 1), min_size=g.order, max_size=g.order))),
        (g, t, list(range(g.order))),  # the inclusion G -> M(G, 2)
        (t, t, [0] + data.draw(st.permutations(range(1, t.order)))),
    ]
    for dom, cod, images in cases:
        assert is_homomorphism(images, dom, cod) == reference_is_homomorphism(images, dom, cod)
