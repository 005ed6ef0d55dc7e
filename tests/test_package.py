"""Package-wide guards: the exported names, the names the benchmark
tracer wraps, no `assert` in the sources, and a cold start that stays
light.

Certificates must hold under `python -O`, which strips `assert`, so every
check in `src/coxloops/` raises `CheckError` instead.  Every command is a
fresh process that pays for each module it loads and builds, so the
package builds its records as `collections.namedtuple` subclasses, never
as `typing.NamedTuple` (which compiles every field annotation) or
dataclasses (`dataclasses` pulls in `inspect`); the CLI reads its flags
with a small table-driven parser, not `argparse`, which pulls in `gettext`
and `locale`; and the report's input digest comes from CPython's built-in
SHA-256 module, not from `hashlib`, which loads OpenSSL.  Beyond what an
interpreter that has used `json` holds, a command loads only the package,
`__future__` and that SHA-256 module; a `--json` command loads no JSON
module at all, and streams its report from the CLI's own writer, the
bytes of `json.dumps(report, indent=2)`.  The package registers its
layers lazily, so `import coxloops.cli` runs only `errors`, and a command
runs only the layers its code path reaches; the package's exports,
`__all__` and `dir` are served on first use, as the eager star imports
once served them.
"""

import ast
import importlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coxloops
import coxloops.cli

PACKAGE = Path(coxloops.__file__).resolve().parent
SUBMODULES = (
    "errors", "gf2", "graphs", "groups", "coxeter", "loops", "morphisms", "cohomology", "amalgams",
)

# the names `coxloops.__all__` listed by hand before it was derived
EXPORTED_BEFORE = """
CheckError DiagramError FormatError ResourceLimitError gf2_rref gf2_rank
gf2_kernel_basis gf2_same_span Graph SpanningTree connected_components spanning_tree
GroupTable cyclic dihedral quaternion alternating4 klein4 symmetric3
direct_product closure subgroup_table all_subgroups INF CoxeterDiagram ComponentType
SphericalReport recognize_spherical enumerate_order enumerate_group subdiagram
embed_parabolic diagram_a diagram_b diagram_d diagram_e diagram_f4 diagram_h diagram_i2
LoopTable IdentityReport chein_loop is_quasigroup is_loop is_associative
is_moufang moufang_values chein_values verify_chein_identities
verify_doubling_identities AutGroup TrichotomyReport
SemidirectAutReport DoubledDihedralAutReport automorphism_group
invert_images is_homomorphism is_automorphism generating_set translation_automorphism
lifted_automorphism dihedral_decomposition classify_trichotomy
verify_semidirect_automorphisms verify_doubled_dihedral_automorphisms EdgeComplex
build_complex CohomologyResult cohomology VertexStar vertex_star vertex_coboundary
vertex_twist edge_twist CoefficientGroup coefficient_group Amalgam standard_amalgam
twisted_amalgam cocycle_to_amalgam delta_cocycle verify_amalgam AmalgamReport
loop_completion verify_completion CompletionReport amalgams_isomorphic IsoReport
classify_twisted_amalgams ClassificationReport __version__
""".split()


def test_every_earlier_export_still_resolves():
    assert len(EXPORTED_BEFORE) == 91
    for name in EXPORTED_BEFORE:
        assert name in coxloops.__all__
        assert hasattr(coxloops, name)


# the benchmark's tracer (`benchmarks/tracer.py`, read here, never changed)
# looks up every function it wraps by module and name, so a deleted or moved
# function would make every traced run fail
TRACER_CONTRACT = """
import importlib, json, sys
sys.path[:0] = [{bench!r}, {src!r}]
import tracer
names = sorted(set(tracer.SPANS) | set(tracer.COUNTERS))
missing = [q for q in names if not hasattr(importlib.import_module(q.rpartition(".")[0]), q.rpartition(".")[2])]
t = tracer.Tracer(0)
if not missing:
    t.install()
print(json.dumps({{"names": len(names), "missing": missing, "unwrapped": t.unwrapped()}}))
"""


def test_every_name_the_tracer_wraps_resolves():
    bench = Path(__file__).resolve().parents[1] / "benchmarks"
    code = TRACER_CONTRACT.format(bench=str(bench), src=str(PACKAGE.parent))
    # -B: importing the tracer writes no bytecode under benchmarks/
    proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["names"] > 0 and result["missing"] == [] and result["unwrapped"] == []


def test_every_submodule_export_is_a_package_export():
    for m in SUBMODULES:
        module = importlib.import_module(f"coxloops.{m}")
        for name in module.__all__:
            assert name in coxloops.__all__
            assert getattr(coxloops, name) is getattr(module, name)
    assert len(coxloops.__all__) == len(set(coxloops.__all__))
    # the layers the package does not bind by name: those an export of theirs names
    assert coxloops._SHADOWED == tuple(
        m for m in SUBMODULES if m in importlib.import_module(f"coxloops.{m}").__all__
    )


def test_no_assert_statement_in_the_package():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) >= 11
    asserts = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_no_module_imports_dataclasses():
    imports = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                imports.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert imports == []


def test_no_module_uses_typing_named_tuple():
    uses = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "typing":
                named = any(alias.name == "NamedTuple" for alias in node.names)
            elif isinstance(node, ast.Attribute):
                named = node.attr == "NamedTuple"
            else:
                continue
            if named:
                uses.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert uses == []


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_cli_import_loads_neither_dataclasses_nor_inspect(flags):
    code = "import sys, coxloops.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# a fresh interpreter that has used json, as a command that renders the
# human-readable text does, and imported the light stdlib modules the
# package names, as every command does; `importlib.util` among them, for
# `LazyLoader`, which a `site` .pth file may or may not have loaded
BASELINE = """
import json, sys
import collections, functools, importlib, importlib.util, itertools, math, operator, os, types, typing
json.loads(json.dumps({"a": [1, None]}, indent=2))
print(json.dumps(sorted(sys.modules)))
"""

# one command run by `main` on standard input, in a fresh interpreter
COMMAND = """
import io, json, sys
sys.stdin = io.TextIOWrapper(io.BytesIO({text!r}.encode()))
from coxloops.cli import main
code = main({args!r})
print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)
"""

COLD_RUNS = [
    (["parse", "-"], "coxeter v1\nrank 3\nedge 1 2 3\nedge 2 3 4\n"),
    (["group", "-"], "coxeter v1\nrank 3\nedge 1 2 3\nedge 2 3 4\n"),
    (["loop", "-", "--json"], "coxeter v1\nrank 3\nedge 1 2 3\nedge 2 3 4\n"),
    (["verify", "-"], "coxeter v1\nrank 3\nedge 1 2 3\nedge 2 3 4\n"),
    (["verify", "-", "--json"], "table v1 4\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\n"),
    (["cohomology", "-"], "graph v1\nedge 1 2\nedge 2 3\nedge 1 3\nedge 3 4\n"),
]


def _fresh(flags, code):
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_a_command_loads_only_the_package_beyond_json(flags):
    baseline = set(json.loads(_fresh(flags, BASELINE).stdout))
    assert not {"argparse", "gettext", "locale"} & baseline
    # the SHA-256 module: CPython's built-in one, so never `_hashlib`, or
    # hashlib on a build that has none
    sha = {name for name in ("_sha2", "_sha256") if importlib.util.find_spec(name)}
    allowed = {"__future__", *(sha or ("hashlib", "_hashlib", "_blake2"))}
    for args, text in COLD_RUNS:
        proc = _fresh(flags, COMMAND.format(text=text, args=args))
        code, loaded = json.loads(proc.stderr.splitlines()[-1])
        assert code == 0, args
        added = {name for name in set(loaded) - baseline if name.split(".")[0] != "coxloops"}
        assert added <= allowed, (args, sorted(added - allowed))
        assert not {"argparse", "gettext", "locale"} & set(loaded), args


# one `--json` command run by `main` in a fresh interpreter, reporting the
# modules loaded when `main` returns, before anything could load `json` to
# print them
JSON_COMMAND = """
import io, sys
sys.stdin = io.TextIOWrapper(io.BytesIO({text!r}.encode()))
from coxloops.cli import main
code = main({args!r})
loaded = sorted(sys.modules)
print(repr([code, loaded]), file=sys.stderr)
"""

JSON_MODULES = {"json", "json.decoder", "json.scanner", "json.encoder", "_json"}


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_a_json_report_loads_no_json_module(flags):
    for args, text in COLD_RUNS:
        args = args if "--json" in args else [*args, "--json"]
        proc = _fresh(flags, JSON_COMMAND.format(text=text, args=args))
        code, loaded = ast.literal_eval(proc.stderr.splitlines()[-1])
        assert code == 0, args
        assert proc.stdout.startswith('{\n  "schema": 1,'), args
        assert not JSON_MODULES & set(loaded), (args, sorted(JSON_MODULES & set(loaded)))


# the layers whose bodies have run: a layer the package registered lazily
# gets its names, `__all__` first among them, when its body runs
LAYERS_RUN = f"""
import io, json, sys
def ran():
    ran = []
    for m in {SUBMODULES!r}:
        module = sys.modules.get("coxloops." + m)
        if module is not None and "__all__" in object.__getattribute__(module, "__dict__"):
            ran.append(m)
    return sorted(ran)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_importing_the_cli_runs_no_layer_but_errors(flags):
    code = LAYERS_RUN + """
import coxloops.cli
registered = sorted(n for n in sys.modules if n.startswith("coxloops."))
print(json.dumps([registered, ran()]))
"""
    registered, ran = json.loads(_fresh(flags, code).stdout)
    assert registered == sorted(f"coxloops.{m}" for m in (*SUBMODULES, "cli"))
    assert ran == ["errors"]


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_the_first_import_writes_every_layers_bytecode(flags, tmp_path):
    # a command that first reaches a layer never compiles it: the package
    # import writes the bytecode of every layer that has none, running none
    shutil.copytree(PACKAGE, tmp_path / "coxloops", ignore=shutil.ignore_patterns("__pycache__"))
    code = LAYERS_RUN + "import coxloops; print(json.dumps([coxloops.__file__, ran()]))"
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPATH")}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, timeout=60,
        cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [str(tmp_path / "coxloops" / "__init__.py"), []]
    for m in SUBMODULES:
        source = str(tmp_path / "coxloops" / f"{m}.py")
        assert Path(importlib.util.cache_from_source(source, optimization="1" if flags else "")).is_file(), m


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_an_import_after_an_edit_rewrites_that_layers_bytecode(flags, tmp_path):
    # bytecode older than its source is stale: the package import compiles
    # that layer again, so the first command after an edit does not
    shutil.copytree(PACKAGE, tmp_path / "coxloops", ignore=shutil.ignore_patterns("__pycache__"))
    code = LAYERS_RUN + "import coxloops; print(json.dumps(ran()))"
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPATH")}

    def import_package():
        proc = subprocess.run(
            [sys.executable, *flags, "-c", code], capture_output=True, text=True, timeout=60,
            cwd=tmp_path, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []

    import_package()
    source = tmp_path / "coxloops" / "gf2.py"
    cached = Path(importlib.util.cache_from_source(str(source), optimization="1" if flags else ""))
    source.write_text(source.read_text(encoding="utf-8") + "# edited\n", encoding="utf-8")
    # two seconds past the bytecode, whatever the file system's clock resolution
    os.utime(source, ns=(source.stat().st_atime_ns, cached.stat().st_mtime_ns + 2_000_000_000))
    import_package()
    # a timestamp pyc records its source's mtime and size (PEP 552)
    stat = source.stat()
    recorded = cached.read_bytes()[8:16]
    assert recorded == b"".join(
        (value & 0xFFFFFFFF).to_bytes(4, "little") for value in (int(stat.st_mtime), stat.st_size)
    )


# one command run by `main`, as in COMMAND, reporting the layers it ran
COMMAND_LAYERS = LAYERS_RUN + """
sys.stdin = io.TextIOWrapper(io.BytesIO({text!r}.encode()))
from coxloops.cli import main
code = main({args!r})
print(json.dumps([code, ran()]), file=sys.stderr)
"""

# one input of each dialect
TEXTS = {
    "coxeter": "coxeter v1\nrank 3\nedge 1 2 3\nedge 2 3 4\n",
    "graph": "graph v1\nedge 1 2\nedge 2 3\nedge 1 3\nedge 3 4\n",
    "table": "table v1 4\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\n",
}
BELOW_LOOPS = ["errors", "graphs", "groups", "coxeter"]
TO_COHOMOLOGY = ["errors", "gf2", "graphs", "cohomology"]

# command and input dialect -> the layers whose bodies the command runs
LAYERS_BY_RUN = {
    ("parse", "coxeter"): BELOW_LOOPS,
    ("parse", "graph"): ["errors", "graphs"],
    ("parse", "table"): ["errors", "groups", "loops"],
    ("group", "coxeter"): BELOW_LOOPS,
    ("group", "table"): ["errors", "groups", "loops"],
    ("loop", "coxeter"): [*BELOW_LOOPS, "loops"],
    ("aut", "coxeter"): [*BELOW_LOOPS, "loops", "morphisms"],
    ("cohomology", "coxeter"): [*BELOW_LOOPS, "gf2", "cohomology"],
    ("cohomology", "graph"): TO_COHOMOLOGY,
    ("amalgams", "coxeter"): SUBMODULES,
    ("verify", "graph"): TO_COHOMOLOGY,
    ("verify", "coxeter"): SUBMODULES,
}


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("command,kind", sorted(LAYERS_BY_RUN))
def test_a_command_runs_only_its_layers(command, kind, flags):
    code = COMMAND_LAYERS.format(text=TEXTS[kind], args=[command, "-", "--json"])
    result, ran = json.loads(_fresh(flags, code).stderr.splitlines()[-1])
    assert result == 0
    assert ran == sorted(LAYERS_BY_RUN[command, kind])


# H^1 of a graph through the library, with the cross-check on
GRAPH_H1_LAYERS = LAYERS_RUN + """
from coxloops.cohomology import build_complex, cohomology
from coxloops.graphs import Graph
dims = cohomology(build_complex(Graph(range(1, 5), [(1, 2), (2, 3), (1, 3), (3, 4)]))).dims
print(json.dumps([dims, ran()]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_h1_of_a_graph_runs_only_its_layers(flags):
    dims, ran = json.loads(_fresh(flags, GRAPH_H1_LAYERS).stdout)
    assert dims == [4, 3, 1] and ran == sorted(TO_COHOMOLOGY)


PACKAGE_API = LAYERS_RUN + """
import coxloops
ran_at_import = ran()
names = dir(coxloops)
star = {}
exec("from coxloops import *", star)
print(json.dumps({
    "ran_at_import": ran_at_import,
    "ran": ran(),
    "all": coxloops.__all__,
    "dir": names,
    "star": sorted(star.keys() - {"__builtins__"}),
    "same": all(star[name] is getattr(coxloops, name) for name in coxloops.__all__),
    "cohomology": coxloops.cohomology is sys.modules["coxloops.cohomology"].cohomology,
    "layers": {m: getattr(coxloops, m) is sys.modules["coxloops." + m] for m in coxloops._SUBMODULES},
}))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_the_package_api_is_served_on_first_use(flags):
    got = json.loads(_fresh(flags, PACKAGE_API).stdout)
    # importing the package runs no layer; `dir` runs them all
    assert got["ran_at_import"] == [] and got["ran"] == sorted(SUBMODULES)
    assert set(EXPORTED_BEFORE) <= set(got["all"]) and len(got["all"]) == len(set(got["all"]))
    assert got["star"] == sorted(got["all"]) and got["same"]
    assert set(got["all"]) | set(SUBMODULES) <= set(got["dir"]) and got["dir"] == sorted(got["dir"])
    # the function H^1 wins over its layer; every other layer is the
    # package attribute of its name
    assert got["cohomology"]
    assert got["layers"] == {m: m != "cohomology" for m in SUBMODULES}


class _Writes:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)

    def flush(self):
        pass


# the most one write of a report may hold: a batch of `_WRITE_BATCH`
# chunks, each a scalar with its key or a short list of ints, a few KB in
# the reports below
MAX_WRITE = 16 * 1024


def test_streamed_report_is_json_dumps_byte_for_byte(monkeypatch):
    # more than three batches of encoder chunks, so the report crosses batch
    # boundaries; short int lists are one chunk each, a long one is walked
    batch = coxloops.cli._WRITE_BATCH
    report = {
        "schema": 1,
        "checks": [
            {
                "name": f"c{i}",
                "values": [i, -i, None, True, 0.5, "\u00e9\n"],
                "ids": (i, 2**64 + i),
                "empty": {},
            }
            for i in range(1500)
        ],
        "long": [2**64 + i for i in range(3 * batch)],
        "ok": True,
    }
    chunks = sum(1 for _ in json.JSONEncoder(indent=2).iterencode(report))
    assert chunks > 3 * batch
    out = _Writes()
    monkeypatch.setattr(sys, "stdout", out)
    coxloops.cli._write_report(report, True)
    assert "".join(out.writes) == json.dumps(report, indent=2) + "\n"
    assert len(out.writes) > 3
    assert max(map(len, out.writes)) <= MAX_WRITE


class _Int(int):
    # json writes an int subclass with `int.__repr__`, not its own
    def __repr__(self):
        return "_Int()"

    __str__ = __repr__


# characters json escapes, or writes as they are, at the edges of each class
_SPECIAL = '"\\/\x00\x08\t\n\x1f \x7f\x80\u00e9\u2028\ud800\uffff\U0001f600'
_TEXT = st.text(st.sampled_from(_SPECIAL) | st.characters(), max_size=6)
_SCALARS = (
    _TEXT
    | st.integers()
    | st.sampled_from([2**64, -(2**64), 10**30, _Int(5), True, False, None])
    | st.sampled_from([0.5, -0.0, float("inf"), float("-inf"), float("nan")])
    | st.floats()
)
_KEYS = _TEXT | st.sampled_from([0, -3, 2**64, True, False, None, 0.5, -0.0, float("nan")])
_VALUES = st.recursive(
    _SCALARS | st.lists(st.integers(), max_size=4),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_TEXT, inner, max_size=4)
        | st.dictionaries(_KEYS, inner, max_size=4)
    ),
    max_leaves=24,
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_VALUES)
def test_written_values_are_json_dumps_byte_for_byte(value):
    out = _Writes()
    with redirect_stdout(out):
        coxloops.cli._write_report(value, True)
    assert "".join(out.writes) == json.dumps(value, indent=2) + "\n"
    assert max(map(len, out.writes)) <= MAX_WRITE


def test_cohomology_payload_hands_the_encoder_the_results_tuples():
    # the report's simplices and edges are the result's own tuples, not a
    # list per entry; json writes a tuple as the array a list would give
    text = "graph v1\nedge 1 2\nedge 2 3\nedge 1 3\nedge 3 4\n"
    ctx = coxloops.cli._Run(*coxloops.cli.parse_input(text), coxloops.cli._parse_args(["cohomology", "-"]))
    payload, _ = coxloops.cli._cohomology_blocks(ctx)
    res = ctx.cohomology
    for key, entries in (
        ("pair_index", res.pair_index),
        ("h_basis_edges", res.h_basis_edges),
        ("edges", ctx.graph.edges),
    ):
        assert type(payload[key]) is list and entries
        assert len(payload[key]) == len(entries)
        assert all(a is b for a, b in zip(payload[key], entries)), key
