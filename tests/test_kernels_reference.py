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

The cubic sweeps have two widths, per x on bytes up to order 256 and per
pair (x, y) on tuples past it; both are run on the same tables, across the
boundary, and must give the same reports.
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
    _assoc_blocks,
    _assoc_pairs,
    _assoc_values,
    _block_sweep,
    _reports,
    _sweep,
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
    _moufang_blocks,
    _moufang_pairs,
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


def swap_first_intercalate(rows: Sequence[Sequence[int]], a: int, c: int) -> List[List[int]]:
    """`rows` with the 2x2 subsquare on rows a, b and columns c, d swapped,
    where a*c = b*d and a*d = b*c, for the least such b: a loop again when
    a, c and d are not the identity, and one needing no central involution."""
    rows = [list(r) for r in rows]
    for b in range(1, len(rows)):
        d = rows[a].index(rows[b][c])
        if b != a and 0 != d != c and rows[b][d] == rows[a][c]:
            for r in (a, b):
                rows[r][c], rows[r][d] = rows[r][d], rows[r][c]
            return rows
    raise ValueError(f"no intercalate on row {a} and column {c}")


def left_zero(n: int, x0: int, row: Sequence[int], transpose: bool = False) -> LoopTable:
    """Not a loop: a*b = a, except that row x0 is `row` (or the transpose).
    Both sweep widths read only the entries, so failures can be placed at
    any x, also the first and the last, which a loop's identity forbids."""
    rows = [[a] * n for a in range(n)]
    rows[x0] = list(row)
    return LoopTable(list(zip(*rows)) if transpose else rows, validate=False)


def reports_by_width(t) -> Tuple[Dict[str, IdentityReport], Dict[str, IdentityReport]]:
    """assoc and m1-m3 swept per pair on tuples, and per x on bytes."""
    return tuple(
        {**_reports(t, sweep, assoc(t), _assoc_values), **_reports(t, sweep, moufang(t), moufang_values)}
        for sweep, assoc, moufang in (
            (_sweep, _assoc_pairs, _moufang_pairs),
            (_block_sweep, _assoc_blocks, _moufang_blocks),
        )
    )


def dispatched(t) -> Dict[str, IdentityReport]:
    return {"assoc": is_associative(t), **is_moufang(t)}


def reference_reports(t) -> Dict[str, IdentityReport]:
    return {"assoc": reference_is_associative(t), **reference_is_moufang(t)}


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


@pytest.mark.slow
@pytest.mark.parametrize("name", ["H3", "A4"])
def test_block_sweeps_match_per_triple_sweeps_at_loop_order_240(name):
    t = chein_loop(GROUPS[name])
    assert t.order == 240
    assert is_moufang(t) == reference_is_moufang(t)
    assert "byte_views" in vars(t)


# ---------------------------------------------------------------------------
# the width boundary: bytes up to order 256, tuples past it


def holds(n: int) -> Dict[str, IdentityReport]:
    return {name: IdentityReport(name, True, n**3, None, None) for name in ("assoc",) + MOUFANG_NAMES}


# the first failing triples, placed at the first and the last x and at z = n - 1
LAST = 255
PLACED = [
    (left_zero(3, 0, [2, 2, 0]), {"assoc": (0, 0, 0), "m1": (0, 1, 0), "m2": (0, 0, 2), "m3": (0, 0, 0)}),
    (left_zero(3, 2, [2, 2, 0], transpose=True), {"assoc": (2, 0, 2), "m1": (2, 0, 0), "m2": (0, 2, 2), "m3": (2, 0, 0)}),
    (
        left_zero(256, 0, [0] * LAST + [LAST]),
        {"assoc": (0, 1, LAST), "m1": (1, LAST, 0), "m2": (0, 1, LAST), "m3": (0, 1, LAST)},
    ),
    (
        left_zero(256, LAST, [LAST] * LAST + [0]),
        {"assoc": (LAST, 0, LAST), "m1": (0, LAST, LAST), "m2": (LAST, 0, 0), "m3": (LAST, 0, 0)},
    ),
    (
        left_zero(256, LAST, [LAST] * LAST + [0], transpose=True),
        {"assoc": (LAST, 0, LAST), "m1": (LAST, 0, 0), "m2": (0, LAST, LAST), "m3": (LAST, 0, 0)},
    ),
]


@pytest.mark.parametrize("k", range(len(PLACED)))
def test_widths_agree_on_placed_failures(k):
    t, first = PLACED[k]
    by_pairs, by_blocks = reports_by_width(t)
    assert by_blocks == by_pairs
    assert {name: r.counterexample for name, r in by_blocks.items()} == first
    assert dispatched(t) == by_blocks
    if t.order < 256:
        assert by_blocks == reference_reports(t)


@pytest.mark.parametrize(
    "rows",
    [
        [[0]],
        cyclic(2).product,
        chein_loop(cyclic(1)).product,
        chein_loop(cyclic(2)).product,
        swap_intercalate(chein_loop(dihedral(64)), 32, 1, 1),
        swap_intercalate(chein_loop(dihedral(64)), 32, 255, 255),
        swap_first_intercalate(chein_loop(dihedral(64)).product, 255, 255),
    ],
    ids=["order_1", "order_2", "double_1", "double_2", "double_d64_swapped_first",
         "double_d64_swapped_last", "double_d64_swapped_corner"],
)
def test_widths_agree_up_to_order_256(rows):
    t = LoopTable(rows)
    reports = dispatched(t)
    assert "byte_views" in vars(t)  # the sweeps ran on bytes
    assert reports_by_width(t) == (reports, reports)
    assert reports == reference_reports(t)


def test_widths_agree_on_cyclic_256():
    # every identity holds, over 256^3 triples: too many for the reference
    t = LoopTable(cyclic(256).product)
    reports = dispatched(t)
    assert "byte_views" in vars(t)
    assert reports_by_width(t) == (reports, reports)
    assert reports == holds(256)


def test_per_pair_width_past_order_256():
    # entries past 255 do not fit in a byte: the sweeps stay on tuples
    t = LoopTable(cyclic(257).product)
    assert dispatched(t) == holds(257)
    assert "byte_views" not in vars(t)
    with pytest.raises(ValueError):
        t.byte_views
    swapped = LoopTable(swap_first_intercalate(chein_loop(dihedral(65)).product, 1, 1))
    assert swapped.order == 260
    reports = dispatched(swapped)
    assert reports == reference_reports(swapped)
    assert not any(r.holds for r in reports.values())
    assert "byte_views" not in vars(swapped)


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
    reports = dispatched(new)
    assert reports == reference_reports(ref)
    assert reports_by_width(new) == (reports, reports)
    assert reports_by_width(g) == (dispatched(g),) * 2


@settings(derandomize=True, max_examples=40, deadline=None)
@given(relabelled_groups(), st.data())
def test_relabelled_loops_match(g, data):
    # relabelling the doubled loop moves its associativity failures around
    t = chein_loop(g)
    perm = [0] + data.draw(st.permutations(range(1, t.order)))
    rel = LoopTable(relabel_rows(t.product, perm))
    reports = dispatched(rel)
    assert reports == reference_reports(rel)
    assert reports_by_width(rel) == (reports, reports)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(swapped_loops())
def test_non_moufang_loops_match(rows):
    t = LoopTable(rows)
    reports = dispatched(t)
    assert reports == reference_reports(t)
    assert reports_by_width(t) == (reports, reports)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.integers(0, n - 1), st.lists(st.integers(0, n - 1), min_size=n, max_size=n), st.booleans())
))
def test_widths_agree_on_placed_rows(case):
    x0, row, transpose = case
    t = left_zero(len(row), x0, row, transpose)
    by_pairs, by_blocks = reports_by_width(t)
    assert by_pairs == by_blocks == reference_reports(t)


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
