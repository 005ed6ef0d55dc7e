"""Differential tests: the connecting maps keyed by cores and the certificates
that check each distinct map once, against the per-pair reference.

The references below are the earlier implementations, condensed: `_build`
storing one image tuple per face pair, `verify_amalgam` and
`verify_completion` certifying every face pair and chain on its own, and
`coefficient_group` computing the twist and the brute-force stabilizer for
every simplex, and `amalgams_isomorphic` as the product search over every
edge assignment.  On the named diagrams and on `hypothesis` diagrams of up to
10 edges with labels 3-6, the standard, twisted and cocycle amalgams must
carry the same maps in the same order, and give equal reports, also with
the map of one key forged at every face pair of that key.  The isomorphism
decisions must agree with the product search on every pair of twist sets,
drawn or listed, and on cocycle amalgams, star trees included.

The amalgam holds one map per key (core of tau, core of rho), and the
certificates read the keys and chains that `_keys` lists, not the
simplices: the walk over every simplex is `reference_keys` here, and
`_keys` must list exactly its distinct face-pair and chain cores, each
once, with the same maps, chains and squares, on the named diagrams, on
`hypothesis` diagrams, star trees and any graphs with standard, twisted,
cocycle and drawn amalgams, and on a seeded 106-edge diagram.

The forged-map cases run the CLI in a subprocess, with and without
`python -O`: a key with a non-injective or a non-homomorphic map, or one
whose chains do not commute, fails `standard_amalgam_valid`, and a forged
completion embedding clears its flag.
"""

import json
import subprocess
import sys
from itertools import combinations, product
from math import prod
from typing import Dict, Iterable, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxloops import amalgams, cli
from coxloops.amalgams import (
    Amalgam,
    AmalgamReport,
    CompletionReport,
    IsoReport,
    _assert_witness,
    _edge_candidates,
    _keys,
    amalgams_isomorphic,
    classify_twisted_amalgams,
    cocycle_to_amalgam,
    loop_completion,
    standard_amalgam,
    twisted_amalgam,
    verify_amalgam,
    verify_completion,
)
from coxloops.cohomology import (
    CoefficientGroup,
    EdgeComplex,
    _set_stabilizer,
    build_complex,
    coefficient_group,
    cohomology,
    edge_twist,
    vertex_twist,
)
from coxloops.coxeter import (
    CoxeterDiagram,
    diagram_a,
    diagram_b,
    diagram_d,
    diagram_h,
    diagram_i2,
    enumerate_group,
)
from coxloops.errors import CheckError, ResourceLimitError
from coxloops.graphs import spanning_tree
from coxloops.groups import compose
from coxloops.morphisms import is_automorphism, is_homomorphism
from test_complex_reference import DIAGRAMS, complete, cox, cyclic_diagrams

FaceMap = Dict[Tuple, Tuple[int, ...]]

# ---------------------------------------------------------------------------
# reference paths


def reference_maps(a: Amalgam) -> FaceMap:
    """One image tuple per face pair, built pair by pair from the
    amalgam's own complex, core loops and twists."""
    cx = a.complex
    klein_twist = {(v,): vertex_twist(a.core_loop((v,)).loop) for v in cx.graph.vertices}
    maps: FaceMap = {}
    for tau in cx.simplices():
        j_tau = cx.core_of(tau)
        for size in range(1, len(tau)):
            for rho in combinations(tau, size):
                j_rho = cx.core_of(rho)
                if j_tau == j_rho:
                    images = tuple(range(a.core_loop(j_tau).loop.order))
                else:
                    positions = [j_rho.index(v) for v in j_tau]
                    images = amalgams._inclusion_images(
                        a.core_loop(j_tau).group, positions, a.core_loop(j_rho).group
                    )
                    if len(j_tau) == 1 and len(rho) == 1 and (j_tau[0], rho[0]) in a.twists:
                        images = compose(images, klein_twist[j_tau])
                maps[(tau, rho)] = images
    return maps


def reference_verify_amalgam(a: Amalgam, maps: FaceMap) -> AmalgamReport:
    inj = hom = comp = True
    nmaps = 0
    for (tau, rho), images in maps.items():
        nmaps += 1
        if len(set(images)) != len(images):
            inj = False
        if not is_homomorphism(images, a.loop_of(tau), a.loop_of(rho)):
            hom = False
    chains = 0
    for tau in a.complex.simplices():
        if len(tau) < 3:
            continue
        for mid in range(2, len(tau)):
            for rho in combinations(tau, mid):
                for small in range(1, mid):
                    for sig in combinations(rho, small):
                        chains += 1
                        if compose(maps[(rho, sig)], maps[(tau, rho)]) != maps[(tau, sig)]:
                            comp = False
    return AmalgamReport(len(list(a.complex.simplices())), nmaps, chains, inj, hom, comp)


def reference_verify_completion(a: Amalgam, loop, phis, maps: FaceMap) -> CompletionReport:
    inj = hom = comm = True
    for sigma in a.complex.simplices():
        phi = phis[sigma]
        if len(set(phi)) != len(phi):
            inj = False
        if not is_homomorphism(phi, a.loop_of(sigma), loop):
            hom = False
    for (tau, rho), psi in maps.items():
        if compose(phis[rho], psi) != phis[tau]:
            comm = False
    return CompletionReport(loop.order, len(phis), inj, hom, comm)


def reference_keys(a: Amalgam, simplices: Iterable[Tuple]) -> Tuple[Set, ...]:
    """What a walk over `simplices` certifies: the distinct cores of its
    face pairs (j, k) and of its chains (j, k, m), for tau > rho > sigma
    of cores j, k, m, and the values read at them: the maps (images,
    domain, codomain) and the chains (outer, inner, direct) of
    `verify_amalgam`, and the squares (core of rho, images, core of tau)
    that `verify_completion` and `_assert_witness` read."""
    core_of = a.complex.core_of
    loop = {j: a.core_loop(j).loop for j in a._core_data}
    pairs: Set[Tuple] = set()
    chains: Set[Tuple] = set()
    maps: Set[Tuple] = set()
    composed: Set[Tuple] = set()
    squares: Set[Tuple] = set()
    for tau in simplices:
        down = a.faces(tau)
        j = core_of(tau)
        for rho, images in down:
            k = core_of(rho)
            pairs.add((j, k))
            maps.add((images, loop[j], loop[k]))
            squares.add((k, images, j))
        if len(tau) == 3:
            direct = dict(down)
            for rho in combinations(tau, 2):
                for sig, outer in a.faces(rho):
                    chains.add((j, core_of(rho), core_of(sig)))
                    composed.add((outer, direct[rho], direct[sig]))
    return pairs, chains, maps, composed, squares


def key_values(a: Amalgam) -> Tuple[Set, ...]:
    """`reference_keys` read off `_keys` and `a.maps` instead of a walk."""
    pairs, chains = _keys(a.complex)
    loop = {j: a.core_loop(j).loop for j in a._core_data}
    maps = a.maps
    return (
        set(pairs),
        set(chains),
        {(maps[j, k], loop[j], loop[k]) for j, k in pairs},
        {(maps[k, m], maps[j, k], maps[j, m]) for j, k, m in chains},
        {(k, maps[j, k], j) for j, k in pairs},
    )


def reference_coefficient_group(sigma, a: Amalgam, mode: str, budget: int = 10_000_000) -> CoefficientGroup:
    sigma = tuple(sorted(tuple(sorted(e)) for e in sigma))
    loop = a.loop_of(sigma)
    core = a.core_of(sigma)
    if not core:
        closed_order, gen = 1, None
    elif len(sigma) == 1:
        closed_order, gen = 2, edge_twist(loop)
    else:
        closed_order, gen = 2, vertex_twist(loop)
    brute = None
    if mode == "structural":
        targets = [frozenset(a.core_subloop(core, sub)) for k in range(len(core)) for sub in combinations(core, k)]
        brute = len(_set_stabilizer(loop, targets, budget))
    if gen is not None and not is_automorphism(loop, gen):
        raise CheckError(f"coefficient group generator at {sigma} is not an automorphism")
    result = CoefficientGroup(sigma, core, closed_order, gen, brute, mode)
    if mode == "structural" and not result.agrees:
        raise CheckError(f"coefficient group at {sigma}: closed form {closed_order} != stabilizer order {brute}")
    return result


def reference_amalgams_isomorphic(a: Amalgam, b: Amalgam, budget: int = 10_000_000) -> IsoReport:
    """The product search: the input checks over every simplex and face
    pair, then every edge assignment of the product of the per-edge
    candidates, in order, propagated to every larger simplex through its
    edge faces (the b-maps preinverted once) and tested for consistency.
    The first consistent one, read per core (every simplex of one core
    gets one theta), is certified by `_assert_witness`; a negative walks
    the whole space.  The maps are read through `faces`."""
    if a.complex.graph != b.complex.graph:
        raise ValueError("amalgams live over different graphs")
    for sigma in a.complex.simplices():
        if a.loop_of(sigma).product != b.loop_of(sigma).product:
            raise ValueError("amalgams do not share their standard loops")
    for tau in a.complex.simplices():
        for (_, x), (_, y) in zip(a.faces(tau), b.faces(tau)):
            if frozenset(x) != frozenset(y):
                raise ValueError("amalgams are not of a common type (images differ)")
    edges = list(a.complex.edges)
    cand = {e: _edge_candidates(a, e, budget) for e in edges}
    space = prod(len(cand[e]) for e in edges)
    # per pointed simplex, each edge face with its a-map and its b-map inverted
    into_edges = {
        tau: [
            (rho, x, {y: i for i, y in enumerate(z)})
            for (rho, x), (_, z) in zip(a.faces(tau), b.faces(tau)) if len(rho) == 1
        ]
        for tau in a.complex.simplices() if len(tau) > 1 and a.core_of(tau)
    }
    assignments = 0
    for choice in product(*(cand[e] for e in edges)):
        assignments += 1
        if assignments > budget:
            raise ResourceLimitError(f"amalgam isomorphism search exceeded budget={budget}")
        theta = {(e,): f for e, f in zip(edges, choice)}
        ok = True
        for tau in a.complex.simplices():
            if len(tau) < 2:
                continue
            if not a.core_of(tau):
                theta[tau] = (0, 1)  # Aut(Z2) is trivial
                continue
            derived = {tuple(binv[theta[rho][y]] for y in x) for rho, x, binv in into_edges[tau]}
            if len(derived) > 1:
                ok = False
                break
            theta[tau] = derived.pop()
        if ok:
            witness = {a.core_of(sigma): x for sigma, x in theta.items() if a.core_of(sigma)}
            assert all(witness[a.core_of(sigma)] == x for sigma, x in theta.items() if a.core_of(sigma))
            _assert_witness(a, b, witness)
            return IsoReport(True, witness, assignments, space, assignments >= space)
    return IsoReport(False, None, assignments, space, True)


# ---------------------------------------------------------------------------
# comparisons


def face_maps(a: Amalgam) -> FaceMap:
    """Every face pair's images, in walk order, read through `a.faces`."""
    return {(tau, rho): images for tau in a.complex.simplices() for rho, images in a.faces(tau)}


def assert_same_amalgam(a: Amalgam) -> FaceMap:
    """The same maps in the same order as the per-pair build, each one
    interned, and the same verification report, also with the map of a
    key forged, in `a.maps` and at every face pair of that key in the
    reference.  Returns the reference maps."""
    ref = reference_maps(a)
    maps = face_maps(a)
    assert list(maps.items()) == list(ref.items())
    for key, images in ref.items():
        assert a.connecting(*key) is maps[key]
    # the maps with one key (the two cores, twisted or not) are one tuple
    core_of, by_key = a.complex.core_of, {}
    for (tau, rho), images in maps.items():
        j = core_of(tau)
        twisted = len(j) == 1 and len(rho) == 1 and (j[0], rho[0]) in a.twists
        by_key.setdefault((j, core_of(rho), twisted), set()).add(id(images))
    assert all(len(ids) == 1 for ids in by_key.values())
    assert verify_amalgam(a) == reference_verify_amalgam(a, ref)
    for forge in FORGES:
        for key in list(a.maps)[:3]:
            genuine = a.maps[key]
            pairs = [(tau, rho) for tau, rho in ref if (core_of(tau), core_of(rho)) == key]
            a.maps[key] = forge(genuine)
            ref.update(dict.fromkeys(pairs, a.maps[key]))
            try:
                assert verify_amalgam(a) == reference_verify_amalgam(a, ref)
            finally:
                a.maps[key] = genuine
                ref.update(dict.fromkeys(pairs, genuine))
    return ref


FORGES = [
    lambda images: (images[0],) * len(images),  # not injective
    lambda images: images[1:] + images[:1],  # the identity moved
    lambda images: compose(images, (0, 3, 2, 1)) if len(images) == 4 else images,  # the vertex twist
]


def assert_same_coefficients(a: Amalgam) -> None:
    for mode in ("structural", "none"):
        for sigma in a.complex.simplices():
            assert coefficient_group(sigma, a, mode=mode) == reference_coefficient_group(sigma, a, mode)


def per_simplex(a: Amalgam, phis: Dict) -> Dict:
    """The per-core embeddings of `loop_completion` at every simplex."""
    return {sigma: phis[a.core_of(sigma)] for sigma in a.complex.simplices()}


def assert_same_completion(a: Amalgam, ref: FaceMap) -> None:
    loop, phis = loop_completion(a, enumerate_group(a.diagram))
    assert list(phis) == list(a._core_data)
    assert verify_completion(a, loop, phis) == reference_verify_completion(a, loop, per_simplex(a, phis), ref)
    for core in phis:
        for forge in FORGES:
            forged = {**phis, core: forge(phis[core])}
            assert verify_completion(a, loop, forged) == reference_verify_completion(
                a, loop, per_simplex(a, forged), ref
            )


def cocycles(d: CoxeterDiagram):
    """A class representative shifted by a coboundary, and a coboundary."""
    r = cohomology(build_complex(d.underlying_graph()))
    z = r.h_basis[0] if r.h_basis else 0
    b = r.b_basis[0] if r.b_basis else 0
    return [z ^ b, b]


SPHERICAL = {
    "A1": diagram_a(1),
    "A3": diagram_a(3),
    "A4": diagram_a(4),
    "B3": diagram_b(3),
    "D4": diagram_d(4),
    "H3": diagram_h(3),
    "I2_6": diagram_i2(6),
    "A1xB2": CoxeterDiagram.from_edges(3, [(2, 3, 4)]),
}


@pytest.mark.parametrize("name", sorted(DIAGRAMS))
def test_maps_and_reports_match_the_per_pair_build_on_named_diagrams(name):
    d = DIAGRAMS[name]
    n = len(spanning_tree(d.underlying_graph()).nontree_edges)
    amalgams_ = [standard_amalgam(d)] + [twisted_amalgam(d, [k]) for k in range(1, n + 1)]
    amalgams_ += [cocycle_to_amalgam(d, z) for z in cocycles(d)]
    for a in amalgams_:
        assert_same_amalgam(a)
    assert_same_coefficients(amalgams_[0])


@pytest.mark.parametrize("name", sorted(SPHERICAL))
def test_completion_matches_the_per_pair_check(name):
    d = SPHERICAL[name]
    for a in [standard_amalgam(d)] + [cocycle_to_amalgam(d, z) for z in cocycles(d) if z]:
        assert_same_completion(a, assert_same_amalgam(a))
    assert_same_coefficients(standard_amalgam(d))


def test_a_twisted_completion_fails_as_in_the_per_pair_check():
    # on a tree every cocycle is a coboundary; its amalgam twists some
    # components, which the standard embeddings into M(W, 2) do not commute with
    d = diagram_a(4)
    a = cocycle_to_amalgam(d, cocycles(d)[1])
    assert a.twists
    loop, phis = loop_completion(a, enumerate_group(d))
    rep = verify_completion(a, loop, phis)
    assert rep == reference_verify_completion(a, loop, per_simplex(a, phis), reference_maps(a))
    assert rep.injective_ok and rep.homomorphism_ok and not rep.commuting_ok


def test_empty_core_pairs_are_derived_not_stored():
    a = standard_amalgam(DIAGRAMS["K4"])
    cx = a.complex
    walked = {(cx.core_of(tau), cx.core_of(rho)) for tau, rho in face_maps(a)}
    assert a.maps.keys() == walked
    assert len(a.maps) == len(walked) < len(face_maps(a)) == 2 * len(cx.pairs) + 6 * len(cx.triples)
    # the maps out of an empty core are read from the cores of the faces
    tau = next(t for t in cx.triples if not cx.core_of(t))
    assert all(a.connecting(tau, rho) is a.maps[(), cx.core_of(rho)] for rho, _ in a.faces(tau))
    for key in [(tau, tau), (tau, ((9, 9),)), (tau[:1], tau[:1]), ((), ()), (tau[::-1], tau[:1])]:
        with pytest.raises(KeyError):
            a.connecting(*key)


def test_memoized_coefficient_groups_keep_the_budget():
    # each call runs the stabilizer under its own budget: a smaller one
    # after a larger one still refuses
    a = standard_amalgam(DIAGRAMS["triangle"])
    edge = next(a.complex.simplices())
    assert coefficient_group(edge, a).brute_order == 2
    with pytest.raises(ResourceLimitError):
        coefficient_group(edge, a, budget=1)
    with pytest.raises(ResourceLimitError):
        reference_coefficient_group(edge, a, "structural", budget=1)


def test_the_amalgam_path_holds_no_unpointed_simplex():
    # the run's amalgam and its verification (which walks its representative
    # simplices) and the coefficient checks (which walk all 175 simplices,
    # 115 of them without a core) on K5 never list the 45 pairs or the 120
    # triples
    text = "coxeter v1\nrank 5\n" + "".join(f"edge {a} {b} 3\n" for a, b in combinations(range(1, 6), 2))
    ctx = cli._Run(*cli.parse_input(text), cli._parse_args(["verify", "-"]))
    a = ctx.amalgam
    assert verify_amalgam(a).simplices == 175
    [entry] = cli._coefficient_checks(ctx)
    assert entry["simplices"] == 175
    assert not {"pairs", "triples"} & vars(a.complex).keys()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(cyclic_diagrams(), st.data())
def test_maps_and_reports_match_the_per_pair_build_on_random_diagrams(d, data):
    n = len(spanning_tree(d.underlying_graph()).nontree_edges)
    delta = data.draw(st.sets(st.integers(1, n)))
    z = data.draw(st.sampled_from(cocycles(d)))
    for a in (standard_amalgam(d), twisted_amalgam(d, delta), cocycle_to_amalgam(d, z)):
        assert_same_amalgam(a)
    assert_same_coefficients(standard_amalgam(d))


# ---------------------------------------------------------------------------
# isomorphism against the product search


def assert_same_decision(a: Amalgam, b: Amalgam) -> None:
    """The same decision and space as the product search; a positive
    carries a certified witness and counts the one assignment read, a
    negative none."""
    rep = amalgams_isomorphic(a, b, budget=10**12)
    ref = reference_amalgams_isomorphic(a, b, budget=10**12)
    assert (rep.isomorphic, rep.space) == (ref.isomorphic, ref.space)
    assert rep.exhausted and rep.assignments == rep.isomorphic
    if rep.isomorphic:
        _assert_witness(a, b, rep.witness)
        assert rep.witness.keys() == ref.witness.keys() == {a.core_of(s) for s in a.complex.simplices()} - {()}
    else:
        assert rep.witness is None


def drawn(d: CoxeterDiagram, twists) -> Amalgam:
    return amalgams._build(d, build_complex(d.underlying_graph()), frozenset(twists), "drawn")


def slots(d: CoxeterDiagram):
    """Every component (j, e), degree-1 ends included."""
    return [(j, e) for e in d.underlying_graph().edges for j in e]


@st.composite
def star_trees(draw):
    """P3 and K_{1,3}, the graphs of A3, B3, H3 and D4, with labels 3-6
    and a drawn centre."""
    n = draw(st.sampled_from([3, 4]))
    c = draw(st.integers(1, n))
    return cox(n, [(min(c, k), max(c, k), draw(st.integers(3, 6))) for k in range(1, n + 1) if k != c])


@pytest.mark.parametrize("name", sorted(DIAGRAMS) + sorted(SPHERICAL))
def test_isomorphism_matches_the_product_search_on_small_twist_sets(name):
    # every twist set of up to two components against the standard amalgam
    d = {**DIAGRAMS, **SPHERICAL}[name]
    std = standard_amalgam(d)
    for k in range(3):
        for twists in combinations(slots(d), k):
            assert_same_decision(std, drawn(d, twists))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.one_of(cyclic_diagrams(), star_trees()), st.data())
def test_isomorphism_matches_the_product_search_on_random_pairs(d, data):
    z_basis = cohomology(build_complex(d.underlying_graph())).z_basis

    def side() -> Amalgam:
        if data.draw(st.booleans()):
            z = 0
            for b in data.draw(st.lists(st.sampled_from(z_basis), unique=True)):
                z ^= b
            return cocycle_to_amalgam(d, z)
        return drawn(d, data.draw(st.sets(st.sampled_from(slots(d)))))

    assert_same_decision(side(), side())


def test_input_checks_fail_as_the_simplex_walk():
    tri = DIAGRAMS["triangle"]
    forged = standard_amalgam(tri)
    key = next(key for key in forged.maps if len(key[0]) == 1 and len(key[1]) == 2)
    forged.maps[key] = tuple(range(len(forged.maps[key])))
    # the map into the loop of an edge from the empty core of the triangle
    forged_free = standard_amalgam(tri)
    forged_free.maps[(), (1, 2)] = (0, 1)
    cases = [
        (standard_amalgam(tri), standard_amalgam(diagram_a(3)), "different graphs"),
        (standard_amalgam(tri), standard_amalgam(DIAGRAMS["mixed_triangle"]), "standard loops"),
        (forged, standard_amalgam(DIAGRAMS["mixed_triangle"]), "standard loops"),
        (standard_amalgam(tri), forged, "images differ"),
        (forged, twisted_amalgam(tri, [1]), "images differ"),
        (twisted_amalgam(tri, [1]), forged_free, "images differ"),
    ]
    for a, b, message in cases:
        with pytest.raises(ValueError, match=message) as new:
            amalgams_isomorphic(a, b)
        with pytest.raises(ValueError) as ref:
            reference_amalgams_isomorphic(a, b)
        assert str(new.value) == str(ref.value)


# ---------------------------------------------------------------------------
# the keys against the walk over every simplex


def assert_same_keys(a: Amalgam) -> None:
    """`_keys` lists exactly the walk's distinct face-pair and chain cores,
    each once, and the maps, chains and squares read at them are the
    walk's."""
    pairs, chains = _keys(a.complex)
    assert len(pairs) == len(set(pairs)) and len(chains) == len(set(chains))
    assert key_values(a) == reference_keys(a, a.complex.simplices())


def amalgams_of(d: CoxeterDiagram, data=None):
    """The standard amalgam of d; on a connected graph also the twisted
    amalgams (one per non-tree edge, or one of a drawn delta) and the
    cocycle amalgams of `cocycles`; and the amalgams of drawn twist sets
    (every set of one or two components, or one drawn set of up to four)."""
    out = [standard_amalgam(d)]
    graph = d.underlying_graph()
    if graph.is_connected():
        n = len(spanning_tree(graph).nontree_edges)
        deltas = [data.draw(st.sets(st.integers(1, n)))] if data and n else [[k] for k in range(1, n + 1)]
        out += [twisted_amalgam(d, delta) for delta in deltas]
        out += [cocycle_to_amalgam(d, z) for z in cocycles(d)]
    if data:
        out.append(drawn(d, data.draw(st.sets(st.sampled_from(slots(d)), max_size=4)) if slots(d) else ()))
    else:
        out += [drawn(d, twists) for k in (1, 2) for twists in combinations(slots(d), k)]
    return out


@st.composite
def any_graphs(draw):
    """Diagrams of 1-7 vertices over any edge set of at most 8 edges,
    disconnected ones, single edges and edgeless ones included."""
    n = draw(st.integers(1, 7))
    edges = draw(st.lists(st.sampled_from(complete(n)), unique=True, max_size=8)) if n > 1 else []
    return cox(n, [(a, b, draw(st.integers(3, 6))) for a, b in edges])


@pytest.mark.parametrize("name", sorted(DIAGRAMS) + sorted(SPHERICAL))
def test_representatives_carry_every_key_of_the_walk_on_named_diagrams(name):
    for a in amalgams_of({**DIAGRAMS, **SPHERICAL}[name]):
        assert_same_keys(a)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.one_of(cyclic_diagrams(), star_trees(), any_graphs()), st.data())
def test_representatives_carry_every_key_of_the_walk_on_random_diagrams(d, data):
    for a in amalgams_of(d, data):
        assert_same_keys(a)


def test_representatives_carry_every_key_of_the_walk_on_106_edges():
    # the keys stand for their face pairs and chains: each is one class of them
    from test_amalgams import SEEDED_106  # it imports this module

    d = cox(100, [(a, b, 3) for a, b in SEEDED_106])
    a = standard_amalgam(d)
    assert_same_keys(a)
    _, _, maps, chains, _ = key_values(a)
    assert (len(maps), len(chains)) == (6, 5)
    assert tuple(map(len, _keys(a.complex))) == (358, 388)
    assert sum(1 for _ in a.complex.simplices()) == 198_591
    assert_same_keys(twisted_amalgam(d, [1, 7]))


def near_star(n: int) -> CoxeterDiagram:
    """Vertex 1 joined to n - 1 others, plus the edge (2, 3): n edges, cycle
    rank 1, and every simplex but the few through (2, 3) pointed at 1."""
    return cox(n, [(1, k, 3) for k in range(2, n + 1)] + [(2, 3, 3)])


def test_the_certificates_walk_no_simplex_of_the_complex(monkeypatch):
    k4, star = DIAGRAMS["K4"], near_star(40)
    coboundary, star_coboundary = cocycles(k4)[1], cocycles(star)[1]
    cases = {
        "verify_amalgam": lambda: [verify_amalgam(a) for a in amalgams_of(k4)],
        "completion": lambda: [
            verify_completion(a, *loop_completion(a, enumerate_group(d)))
            for d in (diagram_a(3), diagram_d(4))
            for a in (standard_amalgam(d), cocycle_to_amalgam(d, cocycles(d)[1]))
        ],
        "isomorphic": lambda: amalgams_isomorphic(standard_amalgam(k4), cocycle_to_amalgam(k4, coboundary)),
        "near_star": lambda: [
            verify_amalgam(standard_amalgam(star)),
            classify_twisted_amalgams(standard_amalgam(star), budget=10**40),
            amalgams_isomorphic(standard_amalgam(star), twisted_amalgam(star, [1]), budget=10**40),
            amalgams_isomorphic(standard_amalgam(star), cocycle_to_amalgam(star, star_coboundary), budget=10**40),
        ],
    }
    before = {name: case() for name, case in cases.items()}
    assert before["isomorphic"].isomorphic and before["isomorphic"].witness
    assert [rep.ok for rep in before["completion"]] == [True, False, True, False]
    assert [rep.ok for rep in before["near_star"][:2]] == [True, True]
    assert [rep.isomorphic for rep in before["near_star"][2:]] == [False, True]

    def refuse(self):
        raise RuntimeError("a certificate walked every simplex or read the core table")

    monkeypatch.setattr(EdgeComplex, "simplices", refuse)
    monkeypatch.setattr(EdgeComplex, "core", property(refuse))
    cx = build_complex(k4.underlying_graph())
    with pytest.raises(RuntimeError):
        next(cx.simplices())
    with pytest.raises(RuntimeError):
        cx.core_of(((1, 2),))
    assert {name: case() for name, case in cases.items()} == before


def test_a_forged_free_map_fails_verify_amalgam():
    # every map out of an empty core of K4 is read: each edge has a
    # disjoint edge, and each vertex an edge avoiding it
    keys = [key for key in standard_amalgam(DIAGRAMS["K4"]).maps if key[0] == ()]
    assert len(keys) == 6 + 4 + 1
    for key in keys:
        for forge in FORGES[:2]:
            a = standard_amalgam(DIAGRAMS["K4"])
            a.maps[key] = forge(a.maps[key])
            rep = verify_amalgam(a)
            assert not rep.ok
            assert rep == reference_verify_amalgam(a, face_maps(a))


def test_theta_off_the_identity_on_an_empty_core_fails_the_witness():
    k4 = DIAGRAMS["K4"]
    a, b = standard_amalgam(k4), cocycle_to_amalgam(k4, cocycles(k4)[1])
    witness = amalgams_isomorphic(a, b).witness
    assert () not in witness
    _assert_witness(a, b, {**witness, (): (0, 1)})
    # the only automorphism of Z2 is the identity
    with pytest.raises(CheckError, match="not an automorphism family"):
        _assert_witness(a, b, {**witness, (): (1, 0)})
    # a core of a simplex left out, each edge and each vertex, reads as the
    # identity of Z2, which is no automorphism of its loop
    assert witness.keys() == set(a.complex.edges) | {(v,) for v in a.complex.graph.vertices}
    for core in witness:
        with pytest.raises(CheckError, match="not an automorphism family"):
            _assert_witness(a, b, {key: x for key, x in witness.items() if key != core})


# ---------------------------------------------------------------------------
# forged maps through the CLI


FORGED_MAPS = """
import contextlib, io, json, sys
from coxloops import amalgams, cli
from coxloops.cohomology import vertex_twist
from coxloops.groups import compose

D4 = "coxeter v1\\nrank 4\\nedge 1 2 3\\nedge 2 3 3\\nedge 2 4 3\\n"
FORGES = {
    "non_injective": lambda images: (images[0],) * len(images),
    "non_homomorphic": lambda images: images[1:] + images[:1],
    # an injective homomorphism
    "twisted": lambda images: compose(images, (0, 3, 2, 1)),
}
# the keys forged: the map from the Klein loop of vertex 2 into the loop
# of edge (1, 2), at every face pair of that key, and the identity of that
# Klein loop from the pointed triple to its pairs.  Twisted, the first is
# the twisted amalgam's own map, so only the second is forged so; the
# chains through the triple do not commute with it.
EDGE, IDENTITY = ((2,), (1, 2)), ((2,), (2,))
CASES = [
    ("non_injective", EDGE, "non_injective"),
    ("non_homomorphic", EDGE, "non_homomorphic"),
    ("identity_non_injective", IDENTITY, "non_injective"),
    ("identity_non_homomorphic", IDENTITY, "non_homomorphic"),
    ("twisted", IDENTITY, "twisted"),
]
genuine_build, genuine_completion = amalgams._build, amalgams.loop_completion


def run():
    sys.stdin = io.TextIOWrapper(io.BytesIO(D4.encode()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "-", "--json"])
    return code, {c["name"]: c for c in json.loads(out.getvalue())["checks"]}


for kind, key, name in CASES:
    def build(*args, key=key, forge=FORGES[name]):
        a = genuine_build(*args)
        a.maps[key] = forge(a.maps[key])
        return a
    amalgams._build = build
    code, checks = run()
    valid = checks["standard_amalgam_valid"]
    print(__debug__, kind, code, valid["status"], json.dumps(valid.get("witness")))
amalgams._build = genuine_build

# the completion's embedding of the core (2,) forged
for kind, forge in FORGES.items():
    def completion(a, w, forge=forge):
        loop, maps = genuine_completion(a, w)
        maps[(2,)] = forge(maps[(2,)])
        return loop, maps
    amalgams.loop_completion = completion
    code, checks = run()
    embeds = checks["completion_embeds_amalgam"]
    print(__debug__, "completion_" + kind, code, embeds["status"], json.dumps(embeds.get("witness")))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_forged_maps_fail_their_checks(flags):
    proc = subprocess.run(
        [sys.executable, *flags, "-c", FORGED_MAPS], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.split(maxsplit=4) for line in proc.stdout.splitlines()]
    debug = str(not flags)
    assert [line[:4] for line in lines] == [
        [debug, kind, "2", "fail"]
        for kind in ("non_injective", "non_homomorphic", "identity_non_injective", "identity_non_homomorphic")
        + ("twisted", "completion_non_injective", "completion_non_homomorphic", "completion_twisted")
    ]
    # the constant map onto the identity is a homomorphism.  A map into an
    # edge, forged at every face pair of its key, still composes along the
    # chains through the pointed triple, whose inner map is the identity,
    # as in the per-simplex check with the same face pairs forged
    witnesses = [json.loads(line[4]) for line in lines]
    assert witnesses == [
        {"injective_ok": False, "homomorphism_ok": True, "composition_ok": True},
        {"injective_ok": True, "homomorphism_ok": False, "composition_ok": True},
        {"injective_ok": False, "homomorphism_ok": True, "composition_ok": False},
        {"injective_ok": True, "homomorphism_ok": False, "composition_ok": False},
        {"injective_ok": True, "homomorphism_ok": True, "composition_ok": False},
        {"injective_ok": False, "homomorphism_ok": True, "commuting_ok": False},
        {"injective_ok": True, "homomorphism_ok": False, "commuting_ok": False},
        {"injective_ok": True, "homomorphism_ok": True, "commuting_ok": False},
    ]


CERTIFICATES = """
from itertools import combinations
from coxloops import amalgams, gf2
from coxloops.coxeter import CoxeterDiagram, diagram_a
from coxloops.errors import CheckError


def decide(kind, a, b):
    try:
        rep = amalgams.amalgams_isomorphic(a, b)
    except CheckError as e:
        print(__debug__, kind, "CheckError", e)
    else:
        print(__debug__, kind, rep.isomorphic, rep.assignments, rep.space, rep.exhausted)


tri = CoxeterDiagram.from_edges(3, [(1, 2, 3), (1, 3, 3), (2, 3, 3)])
# a kernel vector of the leading bit alone: theta_e the identity on every
# edge, which does not carry the standard amalgam to the twisted one
genuine = gf2.gf2_kernel_basis
gf2.gf2_kernel_basis = lambda rows, ncols: [1]
decide("forged_solution", amalgams.standard_amalgam(tri), amalgams.twisted_amalgam(tri, [1]))
gf2.gf2_kernel_basis = genuine

# on the star tree of A3 with the identity as the only candidate, the
# twist at the centre cannot be undone: no solution, and no certificate
a3 = diagram_a(3)
std = amalgams.standard_amalgam(a3)
candidates = amalgams._edge_candidates
amalgams._edge_candidates = lambda a, e, budget: [tuple(range(a.loop_of((e,)).order))]
decide("star", std, amalgams._build(a3, std.complex, frozenset({(2, (1, 2))}), "drawn"))
amalgams._edge_candidates = candidates

k7 = CoxeterDiagram.from_edges(7, [(i, j, 3) for i, j in combinations(range(1, 8), 2)])
decide("K7", amalgams.standard_amalgam(k7), amalgams.twisted_amalgam(k7, [1]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_isomorphism_certificates(flags):
    # a forged solution fails the witness check, a system without a
    # solution on a star tree is refused, and K7's negative is certified
    # without walking its 2^21 assignments
    proc = subprocess.run(
        [sys.executable, *flags, "-c", CERTIFICATES], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    debug = str(not flags)
    assert proc.stdout.splitlines() == [
        f"{debug} forged_solution CheckError isomorphism witness fails to commute",
        f"{debug} star CheckError the amalgams over a star graph are isomorphic, but the system has no solution",
        f"{debug} K7 False 0 2097152 True",
    ]
