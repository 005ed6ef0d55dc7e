"""One CLI run builds each artifact once.

`main` runs in-process with counting wrappers around every module binding
of the builders.  Per run, the spherical recognition, the edge complex,
H^1, the standard amalgam (`amalgams._build`, which the CLI calls over the
complex H^1 uses), its core loops and the whole group W are built at most
once; and `enumerate_group` runs once per distinct core subdiagram
plus once for W, unless W is itself a core (rank <= 2).  `group` on a
diagram reads the element statistics from W's regular action and builds
W's table over that same action only to print it (order <= 64): it runs
`regular_action` once and never `enumerate_group`, and a forged action
whose walks never return is a check failure (exit 2), with or without
`python -O`.  Fresh `Aut`
searches (calls of `generating_set`, which memo hits skip) are counted too:
one per table searched, so the case-3 theorem reuses the search of its
loop.  So are the certificates of an input table: its loop-axiom checks
(`loop_axiom_failures`) and associativity sweeps (`is_associative`), each
made once per run.  A certificate counts when its table equals the input.

On a graph, each vertex star's kernel is eliminated once per run, with
or without the cross-check, and no elimination runs over the global d1
or over whole-complex C^1 vectors; the cross-check makes one elimination
over the 2|E| half-edge coordinates, of the lifts of the B^1 basis and
the H^1 representatives with each star's all-ones block.

Every identity that `loop` or `verify` reports with a `checked` count, and
the associativity behind an `associative` field, is one `groups._sweep`
call, and the run makes no other.

`verify` on a diagram drops the amalgam, its complex and H^1 from the run
before the doubled-loop blocks, and the Moufang sweep's byte views before
the theorems: neither reads them.

`Aut` is never listed: no `aut` or `verify` run builds `AutGroup.elements`.
The set stabilizers of the coefficient groups and amalgams walk Aut's
transversals instead, so `verify` on I2(8) (|Aut| = 1536 on the edge loop)
peaks under 300 KB of traced memory.
"""

import contextlib
import functools
import importlib
import io
import json
import subprocess
import sys
import tracemalloc

import pytest

from coxloops import coxeter, gf2, graphs, groups, loops, morphisms
from coxloops.cli import main, parse_input
from coxloops.coxeter import RegularAction
from coxloops.groups import dihedral, quaternion

MODULES = ("cli", "amalgams", "cohomology", "coxeter", "groups", "loops", "morphisms")
BUILDERS = (
    "recognize_spherical",
    "cohomology",
    "_build",
    "_build_core_data",
    "build_complex",
    "enumerate_group",
    "generating_set",
)
CERTIFICATES = ("loop_axiom_failures", "is_associative")


def _cox(rank, edges):
    return "\n".join(["coxeter v1", f"rank {rank}"] + [f"edge {i} {j} {m}" for i, j, m in edges]) + "\n"


INPUTS = {
    "A3": _cox(3, [(1, 2, 3), (2, 3, 3)]),
    "B3": _cox(3, [(1, 2, 3), (2, 3, 4)]),
    "K4": _cox(4, [(i, j, 3) for i in range(1, 5) for j in range(i + 1, 5)]),
    "K5": _cox(5, [(i, j, 3) for i in range(1, 6) for j in range(i + 1, 6)]),
    "A2": _cox(2, [(1, 2, 3)]),
    "I2(8)": _cox(2, [(1, 2, 8)]),
    "A1xB2": _cox(3, [(2, 3, 4)]),
    "F4": _cox(4, [(1, 2, 3), (2, 3, 4), (3, 4, 3)]),
    "D6": "\n".join(["table v1 12"] + [" ".join(map(str, r)) for r in dihedral(6).product]) + "\n",
    "Q8": "\n".join(["table v1 8"] + [" ".join(map(str, r)) for r in quaternion().product]) + "\n",
    "graph": "graph v1\nedge 1 2\nedge 2 3\nedge 1 3\nedge 3 4\nedge 4 5\nedge 5 3\n",
}

# (command, input) -> builds per run; "whole" counts enumerate_group on the
# input diagram itself
EXPECTED = {
    ("verify", "B3"): dict(
        recognize_spherical=1, cohomology=1, _build=1, _build_core_data=1,
        build_complex=1, enumerate_group=4, whole=1, generating_set=3,
    ),
    ("verify", "K5"): dict(
        recognize_spherical=1, cohomology=1, _build=1, _build_core_data=1,
        build_complex=1, enumerate_group=2, whole=0, generating_set=3,
    ),
    ("verify", "A2"): dict(
        recognize_spherical=1, cohomology=1, _build=1, _build_core_data=1,
        build_complex=1, enumerate_group=2, whole=1, generating_set=2,
    ),
    ("verify", "I2(8)"): dict(
        recognize_spherical=1, cohomology=1, _build=1, _build_core_data=1,
        build_complex=1, enumerate_group=2, whole=1, generating_set=2,
    ),
    ("amalgams", "A2"): dict(
        recognize_spherical=1, cohomology=1, _build=1, _build_core_data=1,
        build_complex=1, enumerate_group=2, whole=1,
    ),
    ("amalgams", "I2(8)"): dict(
        recognize_spherical=1, cohomology=1, _build=1, _build_core_data=1,
        build_complex=1, enumerate_group=2, whole=1,
    ),
    ("verify", "D6"): dict(generating_set=2, loop_axiom_failures=1, is_associative=1),
    ("verify", "Q8"): dict(generating_set=2, loop_axiom_failures=1, is_associative=1),
    ("parse", "D6"): dict(loop_axiom_failures=1),
    ("parse", "Q8"): dict(loop_axiom_failures=1),
    ("group", "D6"): dict(loop_axiom_failures=1, is_associative=1),
    ("group", "Q8"): dict(loop_axiom_failures=1, is_associative=1),
    ("loop", "D6"): dict(loop_axiom_failures=1, is_associative=1),
    ("loop", "Q8"): dict(loop_axiom_failures=1, is_associative=1),
    ("aut", "D6"): dict(generating_set=3, loop_axiom_failures=1, is_associative=1),
    ("aut", "Q8"): dict(generating_set=2, loop_axiom_failures=1, is_associative=1),
    ("verify", "graph"): dict(cohomology=1, build_complex=1),
    ("cohomology", "graph"): dict(cohomology=1, build_complex=1),
    ("amalgams", "K4"): dict(
        recognize_spherical=1, cohomology=1, _build=1, _build_core_data=1,
        build_complex=1, enumerate_group=2, whole=0, generating_set=1,
    ),
    ("aut", "A3"): dict(recognize_spherical=1, enumerate_group=1, whole=1, generating_set=2),
    ("group", "F4"): dict(recognize_spherical=1),
    ("group", "A3"): dict(recognize_spherical=1),
}


@pytest.mark.parametrize("command,name", sorted(EXPECTED))
def test_one_build_per_artifact(command, name, monkeypatch):
    counts = dict.fromkeys(BUILDERS + CERTIFICATES + ("whole",), 0)
    modules = [importlib.import_module(f"coxloops.{m}") for m in MODULES]
    diagram = table = None

    def counting(builder, fn):
        def wrapper(*args, **kwargs):
            if builder in CERTIFICATES:
                rows = args[0] if builder == "loop_axiom_failures" else args[0].product
                if tuple(map(tuple, rows)) == table:
                    counts[builder] += 1
                return fn(*args, **kwargs)
            counts[builder] += 1
            if builder == "enumerate_group" and args[0] == diagram:
                counts["whole"] += 1
            return fn(*args, **kwargs)
        return wrapper

    for builder in BUILDERS + CERTIFICATES:
        fn = next(getattr(m, builder) for m in modules if callable(getattr(m, builder, None)))
        wrapper = counting(builder, fn)
        for m in modules:
            if getattr(m, builder, None) is fn:
                monkeypatch.setattr(m, builder, wrapper)
    kind, obj = parse_input(INPUTS[name])
    if kind == "coxeter":
        diagram = obj
    if kind == "table":
        table = tuple(map(tuple, obj))
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(INPUTS[name].encode())))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, "-", "--json"]) == 0
    assert counts == {**dict.fromkeys(counts, 0), **EXPECTED[(command, name)]}


@pytest.mark.parametrize("flags", [[], ["--no-cross-check"]])
@pytest.mark.parametrize("command", ["cohomology", "verify"])
def test_one_elimination_per_vertex_star(command, flags, monkeypatch):
    complexes, kernel_rows, eliminated = [], [], []
    cohomology = importlib.import_module("coxloops.cohomology")
    build, kernel, rref = cohomology.build_complex, gf2.gf2_kernel_basis, gf2.gf2_rref

    def building(graph):
        complexes.append(build(graph))
        return complexes[-1]

    def kernel_counting(rows, ncols):
        kernel_rows.append(rows)
        return kernel(rows, ncols)

    def rref_recording(rows, ncols):  # every gf2 elimination runs through it
        eliminated.append((list(rows), ncols))
        return rref(rows, ncols)

    monkeypatch.setattr(cohomology, "build_complex", building)
    monkeypatch.setattr(gf2, "gf2_kernel_basis", kernel_counting)
    monkeypatch.setattr(gf2, "gf2_rref", rref_recording)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(INPUTS["graph"].encode())))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([command, "-", "--json", *flags]) == 0
    [cx] = complexes
    npairs = len(cx.pointed_pairs)
    d1_rows = [gf2.vector_from_support(faces) for faces in cx.d1_faces]
    assert d1_rows and (d1_rows, npairs) not in eliminated
    # nothing is eliminated over whole-complex C^1 vectors: the cross-check
    # eliminates the lifts of B u H once, over the half-edge coordinates,
    # with each star's all-ones block K_i after them
    report = json.loads(out.getvalue())
    assert all(ncols != npairs for _, ncols in eliminated)
    blocks, half_edges = [], 0
    for star in cx.stars.values():
        blocks.append((1 << len(star.edges)) - 1 << half_edges)
        half_edges += len(star.edges)
    assert half_edges == 2 * len(cx.edges) != npairs
    lifted = [rows for rows, ncols in eliminated if ncols == half_edges]
    assert [(len(rows), rows[-len(blocks):]) for rows in lifted] == [
        (len(report["b_basis"]) + len(report["h_basis"]) + len(blocks), blocks)
    ] * (not flags)
    # one elimination per distinct local matrix: the stars of one degree
    # share their rows and their kernel
    local = {(s.d1_rows, len(s.pairs)) for s in cx.stars.values()}
    assert len(cx.graph.vertices) == 5 and len(local) == len(kernel_rows) == 2
    assert {id(s.d1_rows) for s in cx.stars.values()} == set(map(id, kernel_rows))
    assert all(s.kernel is cx.kernels[s.d1_rows, len(s.pairs)] for s in cx.stars.values())


@pytest.mark.parametrize("flags", [[], ["--no-cross-check"]])
@pytest.mark.parametrize("command", ["cohomology", "verify"])
def test_one_acyclicity_test_per_local_matrix(command, flags, monkeypatch):
    # is_acyclic eliminates the kernel against the image of d0, once per
    # distinct local matrix: the kernel is the first span it compares
    complexes, compared = [], []
    cohomology = importlib.import_module("coxloops.cohomology")
    build, same_span = cohomology.build_complex, gf2.gf2_same_span

    def building(graph):
        complexes.append(build(graph))
        return complexes[-1]

    def comparing(rows_a, rows_b, ncols):
        compared.append(rows_a)
        return same_span(rows_a, rows_b, ncols)

    monkeypatch.setattr(cohomology, "build_complex", building)
    monkeypatch.setattr(gf2, "gf2_same_span", comparing)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(INPUTS["graph"].encode())))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([command, "-", "--json", *flags]) == 0
    [cx] = complexes
    kernels = [s.kernel for s in cx.stars.values()]
    assert len(cx.stars) == 5 and len(cx.acyclic) == 2
    assert sum(any(rows is k for k in kernels) for rows in compared) == 2
    assert {"name": "vertex_stars_acyclic", "status": "pass"} in json.loads(out.getvalue())["checks"]


@pytest.mark.parametrize("name", ["connected", "disconnected", "B3"])
def test_cohomology_walks_the_components_once(name, monkeypatch):
    # H^1 counts the components, and the report's `connected` is read off
    # that count; parse walks them for `connected` itself.  A diagram's
    # recognition walks them too, and `verify` and `amalgams` read whether
    # the diagram is connected off it: two walks, one per source
    if name == "B3":
        text, expected = INPUTS["B3"], {"cohomology": 1, "parse": 1, "verify": 2, "amalgams": 2}
    else:
        text = INPUTS["graph"] + ("edge 6 7\n" if name == "disconnected" else "")
        expected = {"cohomology": 1, "parse": 1}
    walks = []
    components = graphs.connected_components

    def walking(g):
        walks.append(g)
        return components(g)

    for module in (graphs, coxeter, importlib.import_module("coxloops.cohomology")):
        monkeypatch.setattr(module, "connected_components", walking)
    reports = {}
    for command, count in expected.items():
        walks.clear()
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([command, "-", "--json"]) == 0
        reports[command] = json.loads(out.getvalue())
        assert len(walks) == count, command
    if name == "B3":
        return
    connected = name == "connected"
    assert reports["cohomology"]["connected"] is reports["parse"]["connected"] is connected
    assert reports["cohomology"]["components"] == (1 if connected else 2)


@pytest.mark.parametrize("name", ["B3", "D6"])
@pytest.mark.parametrize("command", ["loop", "verify"])
def test_one_sweep_per_identity_reported(command, name, monkeypatch):
    swept = []
    sweep = groups._sweep

    def counting(identity, *args):
        swept.append(identity)
        return sweep(identity, *args)

    for module in (groups, loops):
        monkeypatch.setattr(module, "_sweep", counting)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(INPUTS[name].encode())))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([command, "-", "--json"]) == 0
    report = json.loads(out.getvalue())
    reported = [check["name"] for check in report["checks"] if "checked" in check]
    if report.get("associative") is not None:
        reported.append("assoc")
    assert "c1" in reported or "m1" in reported
    assert sorted(swept) == sorted(reported)


@pytest.mark.parametrize("name", ["A2", "I2(8)", "B3", "A1xB2"])
def test_the_doubled_loop_blocks_run_without_the_amalgam(name, monkeypatch):
    from coxloops import cli

    held = []
    theorems = cli._theorems

    def recording(ctx, *args):
        held.append(sorted({"amalgam", "complex", "cohomology"} & vars(ctx).keys()))
        held.append("byte_views" in vars(loops.chein_loop(ctx.group)))
        return theorems(ctx, *args)

    monkeypatch.setattr(cli, "_theorems", recording)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(INPUTS[name].encode())))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "-", "--json"]) == 0
    assert held == [[], False]


@pytest.mark.parametrize("name", ["B3", "A1xB2", "I2(8)", "D6"])
@pytest.mark.parametrize("command", ["aut", "verify"])
def test_theorems_never_list_aut(command, name, monkeypatch):
    listed = []  # the degree of each Aut listed
    elements = morphisms.AutGroup.elements.func

    def listing(aut):
        listed.append(aut.degree)
        return elements(aut)

    monkeypatch.setattr(morphisms.AutGroup, "elements", functools.cached_property(listing))
    morphisms.AutGroup.elements.__set_name__(morphisms.AutGroup, "elements")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(INPUTS[name].encode())))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, "-", "--json"]) == 0
    assert listed == []


class _Sink:
    def write(self, text):
        pass

    def flush(self):
        pass


def test_verify_walks_aut_in_small_memory(monkeypatch):
    # listing Aut of the I2(8) edge loop (1536 tuples of 32) peaked at about
    # 600 KB; the walk holds the prefixes and the members only
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(INPUTS["I2(8)"].encode())))
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        with contextlib.redirect_stdout(_Sink()):
            assert main(["verify", "-", "--json"]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak < 300_000


@pytest.mark.parametrize("name", ["A2", "B3"])
def test_one_regular_action_per_group_run(name, monkeypatch):
    # the statistics and the printed table share one action; enumerate_group
    # would walk W a second time
    actions = []
    action = coxeter.regular_action

    def counting(d, cap=10000):
        actions.append(d)
        return action(d, cap)

    monkeypatch.setattr(coxeter, "regular_action", counting)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(INPUTS[name].encode())))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["group", "-", "--json"]) == 0
    assert json.loads(out.getvalue())["table"] is not None
    assert len(actions) == 1


# A2's six elements on the BFS tree of the words (), s1, s2, s1s2, s2s1,
# s1s2s1, with s_1 sending 0 to 1 and then climbing to 5, where it stays:
# no walk but the identity's ever returns to 0
FORGED = RegularAction(((1, 2, 3, 4, 5, 5),) * 2, ((0, -1), (0, 0), (0, 1), (1, 1), (2, 0), (3, 0)))


def test_a_forged_action_is_a_check_failure(monkeypatch):
    monkeypatch.setattr(coxeter, "regular_action", lambda d, cap: FORGED)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(INPUTS["A2"].encode())))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["group", "-", "--json"]) == 2
    assert err.getvalue() == "check failure: the walk of element 1 is not back at 0 after 6 steps\n"


def test_a_forged_action_is_a_check_failure_under_optimize():
    code = "\n".join([
        "import io, sys",
        "from coxloops import cli, coxeter",
        f"coxeter.regular_action = lambda d, cap: coxeter.RegularAction{tuple(FORGED)!r}",
        f"sys.stdin = io.TextIOWrapper(io.BytesIO({INPUTS['A2'].encode()!r}))",
        "print(__debug__, cli.main(['group', '-']))",
    ])
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.stdout.split() == ["False", "2"], proc.stderr
    assert "check failure: the walk of element 1 is not back at 0" in proc.stderr
