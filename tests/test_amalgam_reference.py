"""Differential tests: the interned connecting maps and the certificates
that check each distinct map once, against the per-pair reference.

The references below are the earlier implementations, condensed: `_build`
storing one image tuple per face pair, `verify_amalgam` and
`verify_completion` certifying every face pair and chain on its own, and
`coefficient_group` computing the twist and the brute-force stabilizer for
every simplex.  On the named diagrams and on `hypothesis` diagrams of up to
10 edges with labels 3-6, the standard, twisted and cocycle amalgams must
carry the same maps in the same order, and give equal reports, also with
one stored map forged: the new certificates key each map by its value, so
a forged map is checked on its own.

The forged-map cases run the CLI in a subprocess, with and without
`python -O`: a face pair with a non-injective or a non-homomorphic map, or
a chain that does not commute, fails `standard_amalgam_valid`, and a
completion map outside the interned set clears its flag.
"""

import json
import subprocess
import sys
from itertools import combinations
from typing import Dict, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxloops import amalgams, cli
from coxloops.amalgams import (
    Amalgam,
    AmalgamReport,
    CompletionReport,
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
from test_complex_reference import DIAGRAMS, cyclic_diagrams

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
