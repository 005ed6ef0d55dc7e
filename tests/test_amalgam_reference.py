"""Differential tests: the interned connecting maps and the certificates
that check each distinct map once, against the per-pair reference.

The references below are the earlier implementations, condensed: `_build`
storing one image tuple per face pair, `verify_amalgam` and
`verify_completion` certifying every face pair and chain on its own, and
`coefficient_group` computing the twist and the brute-force stabilizer for
every simplex, and `amalgams_isomorphic` as the product search over every
edge assignment.  On the named diagrams and on `hypothesis` diagrams of up to
10 edges with labels 3-6, the standard, twisted and cocycle amalgams must
carry the same maps in the same order, and give equal reports, also with
one stored map forged: the new certificates key each map by its value, so
a forged map is checked on its own.  The isomorphism decisions must
agree with the product search on every pair of twist sets, drawn or
listed, and on cocycle amalgams, star trees included.

The forged-map cases run the CLI in a subprocess, with and without
`python -O`: a face pair with a non-injective or a non-homomorphic map, or
a chain that does not commute, fails `standard_amalgam_valid`, and a
completion map outside the interned set clears its flag.
"""

import json
import subprocess
import sys
from itertools import combinations, product
from math import prod
from typing import Dict, Tuple

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
    amalgams_isomorphic,
    cocycle_to_amalgam,
    loop_completion,
    standard_amalgam,
    twisted_amalgam,
    verify_amalgam,
    verify_completion,
)
from coxloops.cohomology import (
    CoefficientGroup,
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
from test_complex_reference import DIAGRAMS, cox, cyclic_diagrams

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
    The first consistent one is certified by `_assert_witness`; a negative
    walks the whole space."""
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
    binv = {key: {y: x for x, y in enumerate(images)} for key, images in b.stored.items() if len(key[1]) == 1}
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
            derived = {tuple(binv[tau, (e,)][theta[(e,)][y]] for y in a.stored[tau, (e,)]) for e in tau}
            if len(derived) > 1:
                ok = False
                break
            theta[tau] = derived.pop()
        if ok:
            _assert_witness(a, b, theta)
            return IsoReport(True, theta, assignments, space, assignments >= space)
    return IsoReport(False, None, assignments, space, True)


# ---------------------------------------------------------------------------
# comparisons


def face_maps(a: Amalgam) -> FaceMap:
    """Every face pair's images, in walk order, read through `a.faces`."""
    return {(tau, rho): images for tau in a.complex.simplices() for rho, images in a.faces(tau)}


def assert_same_amalgam(a: Amalgam) -> FaceMap:
    """The same maps in the same order as the per-pair build, each one
    interned, and the same verification report, also with a stored map
    forged.  Returns the reference maps."""
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
        for key in list(a.stored)[:3]:
            genuine = a.stored[key]
            a.stored[key] = ref[key] = forge(genuine)
            try:
                assert verify_amalgam(a) == reference_verify_amalgam(a, ref)
            finally:
                a.stored[key] = ref[key] = genuine
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


def assert_same_completion(a: Amalgam, ref: FaceMap) -> None:
    loop, phis = loop_completion(a, enumerate_group(a.diagram))
    assert list(phis) == list(a.complex.simplices())
    assert verify_completion(a, loop, phis) == reference_verify_completion(a, loop, phis, ref)
    for sigma in list(phis)[:4]:
        for forge in FORGES:
            forged = dict(phis)
            forged[sigma] = forge(phis[sigma])
            assert verify_completion(a, loop, forged) == reference_verify_completion(a, loop, forged, ref)


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
    assert rep == reference_verify_completion(a, loop, phis, reference_maps(a))
    assert rep.injective_ok and rep.homomorphism_ok and not rep.commuting_ok


def test_empty_core_pairs_are_derived_not_stored():
    a = standard_amalgam(DIAGRAMS["K4"])
    cx = a.complex
    pointed = len(cx.pointed_pairs) * 2 + len(cx.pointed_triples) * 6
    assert len(a.stored) == pointed < len(face_maps(a)) == 2 * len(cx.pairs) + 6 * len(cx.triples)
    # the maps out of an empty core are read from the cores of the faces
    tau = next(t for t in cx.triples if not cx.core_of(t))
    assert all(a.connecting(tau, rho) is a.free[cx.core_of(rho)] for rho, _ in a.faces(tau))
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
    # the run's amalgam, its verification and its coefficient checks on K5
    # walk all 175 simplices, 115 of them without a core, and never list
    # the 45 pairs or the 120 triples
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
        assert rep.witness.keys() == set(a.complex.simplices())
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
    key = next(key for key in forged.stored if len(key[1]) == 1)
    forged.stored[key] = tuple(range(len(forged.stored[key])))
    # the map into the loop of an edge from the empty core of the triangle
    forged_free = standard_amalgam(tri)
    forged_free.free[(1, 2)] = (0, 1)
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
# forged maps through the CLI


FORGED_MAPS = """
import contextlib, io, json, sys
from coxloops import amalgams, cli
from coxloops.cohomology import vertex_twist
from coxloops.groups import compose

D4 = "coxeter v1\\nrank 4\\nedge 1 2 3\\nedge 2 3 3\\nedge 2 4 3\\n"
# the pointed pair ((1, 2), (2, 3)) at vertex 2, and its face ((1, 2),)
KEY = (((1, 2), (2, 3)), ((1, 2),))
FORGES = {
    "non_injective": lambda images: (images[0],) * len(images),
    "non_homomorphic": lambda images: images[1:] + images[:1],
    # an injective homomorphism: the map of the twisted component, which
    # the chain through the pointed triple at vertex 2 does not commute with
    "twisted": lambda images: compose(images, (0, 3, 2, 1)),
}
genuine_build, genuine_completion = amalgams._build, amalgams.loop_completion


def run():
    sys.stdin = io.TextIOWrapper(io.BytesIO(D4.encode()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "-", "--json"])
    return code, {c["name"]: c for c in json.loads(out.getvalue())["checks"]}


for kind, forge in FORGES.items():
    def build(*args, forge=forge):
        a = genuine_build(*args)
        a.stored[KEY] = forge(a.stored[KEY])
        return a
    amalgams._build = build
    code, checks = run()
    valid = checks["standard_amalgam_valid"]
    print(__debug__, kind, code, valid["status"], json.dumps(valid.get("witness")))
amalgams._build = genuine_build

# completion maps outside the interned set: the pair's embedding forged
for kind, forge in FORGES.items():
    def completion(a, w, forge=forge):
        loop, maps = genuine_completion(a, w)
        maps[KEY[0]] = forge(maps[KEY[0]])
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
        for kind in ("non_injective", "non_homomorphic", "twisted")
        + ("completion_non_injective", "completion_non_homomorphic", "completion_twisted")
    ]
    # the constant map onto the identity is a homomorphism
    witnesses = [json.loads(line[4]) for line in lines]
    assert witnesses == [
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
