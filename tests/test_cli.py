"""End-to-end command-line runs: exit codes, JSON reports, determinism.

Every test drives the installed module through a subprocess, exactly as a
user would, except the differential checks of the report's input digest
against `hashlib`.  Exit codes: 0 = all checks pass, 2 = a check failed,
3 = resource limit, 4 = parse/usage/I-O error.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import test_golden as golden
from test_cohomology import frontier_graph
from coxloops import cli
from coxloops.groups import cyclic, direct_product, quaternion

CLI = [sys.executable, "-m", "coxloops.cli"]

A2 = "coxeter v1\nrank 2\nedge 1 2 3\n"
TRIANGLE_COX = "coxeter v1\nrank 3\nedge 1 2 3\nedge 1 3 3\nedge 2 3 3\n"
TRIANGLE_GRAPH = "graph v1\nvertices 3\nedge 1 2\nedge 1 3\nedge 2 3\n"
H4 = "coxeter v1\nrank 4\nedge 1 2 5\nedge 2 3 3\nedge 3 4 3\n"
KLEIN_TABLE = "table v1 4\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\n"
LOOP5_TABLE = (
    "table v1 5\n0 1 2 3 4\n1 0 3 4 2\n2 3 4 0 1\n3 4 1 2 0\n4 2 0 1 3\n"
)
DISCONNECTED_GRAPH = "graph v1\nvertices 6\nedge 1 2\nedge 1 3\nedge 2 3\nedge 4 5\n"


def table_text(g):
    rows = g.product
    return "\n".join([f"table v1 {len(rows)}"] + [" ".join(map(str, r)) for r in rows]) + "\n"


def run(args, stdin=""):
    return subprocess.run(
        CLI + list(args), input=stdin, capture_output=True, text=True, timeout=120
    )


def run_json(args, stdin=""):
    proc = run(list(args) + ["--json"], stdin)
    report = json.loads(proc.stdout) if proc.stdout else None
    return proc, report


def test_parse_coxeter_stdin():
    proc = run(["parse", "-"], A2)
    assert proc.returncode == 0
    assert "order: 6" in proc.stdout
    assert proc.stdout.rstrip().endswith("OK")


def test_parse_graph_and_table():
    assert run(["parse", "-"], TRIANGLE_GRAPH).returncode == 0
    assert run(["parse", "-"], KLEIN_TABLE).returncode == 0


def test_parse_errors_exit_4():
    bad_header = run(["parse", "-"], "nonsense v9\n")
    assert bad_header.returncode == 4
    assert "error:" in bad_header.stderr
    # m = 2 must be expressed by omitting the edge line
    bad_label = run(["parse", "-"], "coxeter v1\nrank 2\nedge 1 2 2\n")
    assert bad_label.returncode == 4
    assert "line 3" in bad_label.stderr
    # edge before the rank line
    assert run(["parse", "-"], "coxeter v1\nedge 1 2 3\nrank 2\n").returncode == 4
    # ragged table row
    assert run(["parse", "-"], "table v1 2\n0 1\n1\n").returncode == 4


def test_usage_errors_exit_4():
    assert run(["bogus", "-"], "").returncode == 4
    assert run(["group", "/nonexistent/path"], "").returncode == 4
    assert run(["group", "-", "--cap", "0"], A2).returncode == 4
    # --help stays conventional
    assert run(["--help"]).returncode == 0


# argv forms with the parent parser's outcome, taken from `argparse` before
# the table-driven parser replaced it: (argv, exit code, the report's config
# as (cap, budget, strict, cross_check), "help", or the last stderr line).
# "F" stands for an A2 diagram file; `-` reads the same diagram from stdin.
# Each form runs behind a leading `--json`, so that its config is readable.
ARGV_FORMS = [
    (['parse', 'F'], 0, (10000, 10000000, False, True)),
    (['parse', 'F', '--cap', '5'], 0, (5, 10000000, False, True)),
    (['parse', 'F', '--cap=5'], 0, (5, 10000000, False, True)),
    (['parse', 'F', '--bud', '7'], 0, (10000, 7, False, True)),
    (['parse', 'F', '--bud=7'], 0, (10000, 7, False, True)),
    (['parse', 'F', '--no-cross'], 0, (10000, 10000000, False, False)),
    (['parse', 'F', '--n'], 0, (10000, 10000000, False, False)),
    (['parse', 'F', '--s', '--j'], 0, (10000, 10000000, True, True)),
    (['--strict', 'parse', 'F'], 0, (10000, 10000000, True, True)),
    (['parse', '--strict', 'F'], 0, (10000, 10000000, True, True)),
    (['parse', 'F', '--strict'], 0, (10000, 10000000, True, True)),
    (['--cap', '5', 'parse', '--budget', '9', 'F', '--no-cross-check'], 0, (5, 9, False, False)),
    (['--', 'parse', 'F'], 0, (10000, 10000000, False, True)),
    (['parse', '--', 'F'], 0, (10000, 10000000, False, True)),
    (['parse', 'F', '--'], 0, (10000, 10000000, False, True)),
    (['parse', 'F', '--strict', '--'], 4, 'coxloops: error: unrecognized arguments: --'),
    (['parse', 'F', 'extra', '--'], 4, 'coxloops: error: unrecognized arguments: extra --'),
    (['parse', 'F', '--', '--'], 4, 'coxloops: error: unrecognized arguments: --'),
    (['--cap', '--', '5', 'parse', 'F'], 4, 'coxloops: error: argument --cap: expected one argument'),
    (['parse', '-'], 0, (10000, 10000000, False, True)),
    (['parse', '--', '-'], 0, (10000, 10000000, False, True)),
    (['--cap=3', '--', 'parse', '-'], 0, (3, 10000000, False, True)),
    (['parse', 'F', '--cap', '-1'], 4, 'error: --cap and --budget must be >= 1'),
    (['parse', 'F', '--cap', 'x'], 4, "coxloops: error: argument --cap: invalid int value: 'x'"),
    (['parse', 'F', '--cap'], 4, 'coxloops: error: argument --cap: expected one argument'),
    (['parse', 'F', '--cap', '0'], 4, 'error: --cap and --budget must be >= 1'),
    (['parse', 'F', '--budget', '-5'], 4, 'error: --cap and --budget must be >= 1'),
    (['parse', 'F', '--cap='], 4, "coxloops: error: argument --cap: invalid int value: ''"),
    (['parse', 'F', '--cap', '--strict'], 4, 'coxloops: error: argument --cap: expected one argument'),
    (['parse', 'F', '--cap', '-x'], 4, 'coxloops: error: argument --cap: expected one argument'),
    (['parse', 'F', '--cap', '5', '--cap', '6'], 0, (6, 10000000, False, True)),
    (['parse', 'F', '--cap', ' 1_0 '], 0, (10, 10000000, False, True)),
    (['parse', 'F', '--cap', '+12'], 0, (12, 10000000, False, True)),
    (['parse', 'F', '--cap', '1.5'], 4, "coxloops: error: argument --cap: invalid int value: '1.5'"),
    (['parse', 'F', '--json=1'], 4, "coxloops: error: argument --json: ignored explicit argument '1'"),
    (['parse', 'F', '--strict=1'], 4, "coxloops: error: argument --strict: ignored explicit argument '1'"),
    (['parse', 'F', '--no-cross-check='], 4, "coxloops: error: argument --no-cross-check: ignored explicit argument ''"),
    (['parse', 'F', '--foo'], 4, 'coxloops: error: unrecognized arguments: --foo'),
    (['parse', 'F', '-x'], 4, 'coxloops: error: unrecognized arguments: -x'),
    (['parse', 'F', '-cap', '5'], 4, 'coxloops: error: unrecognized arguments: -cap 5'),
    (['parse', 'F', '--CAP', '5'], 4, 'coxloops: error: unrecognized arguments: --CAP 5'),
    (['parse', 'F', '---cap', '5'], 4, 'coxloops: error: unrecognized arguments: ---cap 5'),
    (['parse', 'F', '--foo=1'], 4, 'coxloops: error: unrecognized arguments: --foo=1'),
    (['parse', 'F', 'extra'], 4, 'coxloops: error: unrecognized arguments: extra'),
    (['parse', 'F', '--', '--strict'], 4, 'coxloops: error: unrecognized arguments: --strict'),
    (['bogus', 'F'], 4, "coxloops: error: argument command: invalid choice: 'bogus' (choose from 'parse', 'group', 'loop', 'aut', 'cohomology', 'amalgams', 'verify')"),
    ([], 4, 'coxloops: error: the following arguments are required: command, input'),
    (['parse'], 4, 'coxloops: error: the following arguments are required: input'),
    (['--strict'], 4, 'coxloops: error: the following arguments are required: command, input'),
    (['-h'], 0, 'help'),
    (['--help'], 0, 'help'),
    (['--he'], 0, 'help'),
    (['parse', 'F', '--h'], 0, 'help'),
    (['parse', 'F', '-h'], 0, 'help'),
    (['bogus', '--help'], 4, "coxloops: error: argument command: invalid choice: 'bogus' (choose from 'parse', 'group', 'loop', 'aut', 'cohomology', 'amalgams', 'verify')"),
    (['--help', 'bogus'], 0, 'help'),
    (['parse', 'F', '--foo', '--help'], 0, 'help'),
    (['parse', 'F', 'extra', '-h'], 0, 'help'),
    (['parse', 'F', '--cap', 'x', '--help'], 4, "coxloops: error: argument --cap: invalid int value: 'x'"),
    (['parse', 'F', '--help', '--cap', 'x'], 0, 'help'),
    (['parse', '--', 'F', '--help'], 4, 'coxloops: error: unrecognized arguments: --help'),
    (['verify', 'F', '--cap', '5'], 0, (5, 10000000, False, True)),
    (['verify', 'F', '--budget=1'], 3, 'resource limit: automorphism search exceeded budget=1 nodes'),
    (['loop', 'F', '--bu', '10'], 0, (10000, 10, False, True)),
    (['aut', '--no-cross-check', '-', '--strict'], 0, (10000, 10000000, True, False)),
]


def _main_in_process(argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(A2.encode())))
    code = cli.main(argv)
    return code, *capsys.readouterr()


@pytest.mark.parametrize("form, code, outcome", ARGV_FORMS, ids=[" ".join(f[0]) or "<none>" for f in ARGV_FORMS])
def test_argv_forms_match_the_argparse_parser(form, code, outcome, tmp_path, monkeypatch, capsys):
    path = tmp_path / "a2.cox"
    path.write_text(A2, encoding="utf-8")
    argv = ["--json", *(str(path) if a == "F" else a for a in form)]
    got, out, err = _main_in_process(argv, monkeypatch, capsys)
    assert got == code
    if isinstance(outcome, tuple):
        cfg = json.loads(out)["config"]
        assert (cfg["cap"], cfg["budget"], cfg["strict"], cfg["cross_check"]) == outcome
    elif outcome == "help":
        assert out.startswith("usage: coxloops ") and err == ""
    else:
        assert out == "" and err.splitlines()[-1] == outcome
        if outcome.startswith("coxloops: error:"):
            assert err.startswith("usage: coxloops ")


def _argparse_parser():
    """The `argparse` parser the table-driven one replaced, as it stood."""
    parser = argparse.ArgumentParser(prog="coxloops")
    parser.add_argument("command", choices=cli.COMMANDS)
    parser.add_argument("input")
    parser.add_argument("--cap", type=int, default=10000)
    parser.add_argument("--budget", type=int, default=10_000_000)
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--strict", action="store_true")
    parser.add_argument("--no-cross-check", dest="cross_check", action="store_false")
    return parser


# words that reach every path of the parser: commands, flags exact and by
# prefix, with values after `=`, negative numbers, `-h` bundles, `--`
ARGV_WORDS = [
    "parse", "verify", "bogus", "F", "-", "--", "---", "", "x", "5", "-1", "-1.5", "-.5", "-1.",
    "-1e3", "-inf", "1_0", " 3 ", "a b", "-a b", "-5x", "-c", "-x", "--foo", "--cap", "--cap=5",
    "--cap=", "--ca", "--budget", "--bud=7", "--json", "--json=1", "--j", "--strict", "--s=",
    "--no-cross", "--no-cross-check=0", "--=1", "-h", "-h=", "-h=1", "-hh", "-hx", "-hhx",
    "--help", "--help=1", "--he", "--h=",
]


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(ARGV_WORDS), max_size=6))
def test_parser_matches_argparse(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            expected = ("ok", vars(_argparse_parser().parse_args(argv)))
    except SystemExit as e:
        expected = ("help",) if e.code == 0 else ("error", err.getvalue().splitlines()[-1])
    # argparse reads `-- --` after the command as the input [], which the
    # old main then failed to open with a TypeError traceback
    assume(expected[0] != "ok" or isinstance(expected[1]["input"], str))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cfg = cli._parse_args(argv)
        got = ("help",) if cfg is None else ("ok", vars(cfg))
    except cli._UsageError as e:
        got = ("error", f"coxloops: error: {e}")
    assert got == expected


def test_help_names_every_command_and_flag(monkeypatch, capsys):
    for flag in ("-h", "--help"):
        code, out, err = _main_in_process([flag], monkeypatch, capsys)
        assert code == 0 and err == ""
        for word in (*cli.COMMANDS, "input", "--cap", "--budget", "--json", "--strict", "--no-cross-check"):
            assert word in out, word


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_usage_errors_show_no_traceback(flags):
    for args in (["--cap", "x", "parse", "-"], ["parse", "-", "--foo"], ["bogus", "-"], [],
                 ["parse", "-", "--json=1"], ["parse", "-", "--cap"], ["parse", "-", "--budget", "0"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "coxloops.cli", *args],
            input=A2, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 4, args
        assert proc.stdout == "" and "error:" in proc.stderr, args
        assert "Traceback" not in proc.stderr, args


def _write_into_a_closed_pipe(flags, args, text):
    """Run the CLI with stdout a pipe whose reader is gone."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, *flags, "-m", "coxloops.cli", *args],
            input=text, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_a_closed_stdout_exits_4_without_a_traceback(flags):
    graph = "graph v1\n" + "".join(f"edge {i} {j}\n" for i, j in frontier_graph(1500, 750, 1500).edges)
    # a report written while streaming, and one still buffered at exit
    for args, text in ((["cohomology", "-", "--json"], graph), (["parse", "-"], A2)):
        proc = _write_into_a_closed_pipe(flags, args, text)
        assert proc.returncode == 4, (args, proc.stderr)
        assert proc.stderr.startswith("error: cannot write the report:"), args
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr, args


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_disk_exits_4():
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            CLI + ["parse", "-", "--json"], input=A2, stdout=full, stderr=subprocess.PIPE,
            text=True, timeout=60,
        )
    assert proc.returncode == 4 and "Traceback" not in proc.stderr
    assert "No space left on device" in proc.stderr


def test_group_a2_json():
    proc, r = run_json(["group", "-"], A2)
    assert proc.returncode == 0
    assert r["schema"] == 1
    assert r["kind"] == "coxeter"
    assert r["group_order"] == 6
    assert r["abelian"] is False
    assert r["element_orders"] == {"1": 1, "2": 3, "3": 2}
    assert {c["name"] for c in r["checks"]} == {
        "finite_type",
        "order_matches_classification",
    }
    assert all(c["status"] == "pass" for c in r["checks"])
    assert r["ok"] is True


def test_group_nonassociative_table_fails():
    proc, r = run_json(["group", "-"], LOOP5_TABLE)
    assert proc.returncode == 2
    assoc = next(c for c in r["checks"] if c["name"] == "associativity")
    assert assoc["status"] == "fail"
    assert assoc["witness"] == {"instance": [1, 1, 2], "values": [2, 4]}
    assert r["ok"] is False
    # human rendering names the failure and the witness
    human = run(["group", "-"], LOOP5_TABLE)
    assert human.returncode == 2
    assert "[FAIL] associativity" in human.stdout
    assert human.stdout.rstrip().endswith("FAILED (1 checks)")


@pytest.mark.xfail(
    strict=True, reason="group on a table sweeps associativity past --budget (ROADMAP item 5)"
)
def test_group_table_associativity_respects_the_budget():
    proc, r = run_json(["group", "-", "--budget", "1"], table_text(quaternion()))
    assoc = next(c for c in r["checks"] if c["name"] == "associativity")
    assert assoc["status"] == "skip"


def test_group_h4_cap_paths():
    # H4 has order 14400: the default cap 10000 stops coset enumeration
    proc = run(["group", "-"], H4)
    assert proc.returncode == 3
    assert "resource limit" in proc.stderr
    # with a higher cap the order is counted and cross-checked, while the
    # dense table (14400^2 entries) stays behind the work budget
    proc2, r = run_json(["group", "-", "--cap", "20000"], H4)
    assert proc2.returncode == 0
    assert r["group_order"] == 14400
    assert r["table"] is None
    by_name = {c["name"]: c for c in r["checks"]}
    assert by_name["order_matches_classification"]["status"] == "pass"
    assert by_name["element_statistics"]["status"] == "skip"


def test_loop_a2_runs_the_full_identity_suite():
    proc, r = run_json(["loop", "-"], A2)
    assert proc.returncode == 0
    assert r["group_order"] == 6 and r["loop_order"] == 12
    assert r["associative"] is False
    assert r["assoc_witness"] == [1, 2, 6]
    names = [c["name"] for c in r["checks"]]
    assert names == [
        "finite_type",
        "involution_squares",
        "u_conjugation_right",
        "u_conjugation_left",
        "c1",
        "c2",
        "c3",
        "gen_u_swap",
        "gen_left_absorb",
        "gen_right_absorb",
        "gen_pair_collapse",
        "gen_right_commute",
        "left_peeling",
        "m1",
        "m2",
        "m3",
    ]
    assert all(c["status"] == "pass" for c in r["checks"])


def test_loop_on_plain_table_skips_doubling_rules():
    proc, r = run_json(["loop", "-"], KLEIN_TABLE)
    assert proc.returncode == 0
    by_name = {c["name"]: c for c in r["checks"]}
    assert by_name["c1"]["status"] == "skip"
    assert by_name["m1"]["status"] == "pass"
    assert r["associative"] is True


def test_aut_klein_table_doubles_to_psl():
    proc, r = run_json(["aut", "-"], KLEIN_TABLE)
    assert proc.returncode == 0
    assert r["aut_order"] == 6  # GL(2,2) on the group itself
    assert r["doubled"]["aut_order"] == 168  # GL(3,2) on M(V4, 2)
    assert r["doubled"]["trichotomy"]["case"] == 1
    by_name = {c["name"]: c for c in r["checks"]}
    assert by_name["aut_order_is_general_linear"]["status"] == "pass"


def _address_space_limit():
    # runs in the CLI subprocess before exec: a 1.5 GB address-space cap,
    # which listing the 9,999,360 automorphisms of Z2^5 does not fit
    resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))


# |GL(k, 2)|
GL2 = {4: 20160, 5: 9999360, 6: 20158709760}


@pytest.mark.parametrize("command", ["aut", "verify"])
@pytest.mark.parametrize("k", [4, 5])
def test_elementary_abelian_tables_never_list_aut(command, k):
    # the double of Z2^k is Z2^(k+1), with |GL(k+1, 2)| automorphisms
    n = 1 << k
    rows = [" ".join(str(a ^ b) for b in range(n)) for a in range(n)]
    proc = subprocess.run(
        CLI + [command, "-", "--json"],
        input="\n".join([f"table v1 {n}"] + rows) + "\n",
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=_address_space_limit,
    )
    assert proc.returncode == 0, proc.stderr
    r = json.loads(proc.stdout)
    doubled = r["doubled"] if command == "aut" else r
    assert doubled["aut_order"] == GL2[k + 1]
    if command == "aut":
        assert r["aut_order"] == GL2[k]
    by_name = {c["name"]: c for c in r["checks"]}
    assert by_name["aut_order_is_general_linear"]["status"] == "pass"


@pytest.mark.parametrize("command", ["group", "amalgams", "verify"])
def test_huge_label_stops_at_the_cap_before_allocating(command):
    # the dihedral subgroup of a label m has order 2m, so a finite 2m past
    # the cap is refused before the relator (s_i s_j)^m is spelled out
    proc = subprocess.run(
        CLI + [command, "-", "--cap", "200"],
        input="coxeter v1\nrank 2\nedge 1 2 99999999999\n",
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=_address_space_limit,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("resource limit: coset enumeration exceeded cap=")
    assert "Traceback" not in proc.stderr


def test_cohomology_triangle_json():
    proc, r = run_json(["cohomology", "-"], TRIANGLE_GRAPH)
    assert proc.returncode == 0
    assert r["dims"] == {"z1": 3, "b1": 2, "h1": 1}
    assert r["connected"] is True
    assert all(c["status"] == "pass" for c in r["checks"])


def test_cohomology_rejects_tables_and_strict_rejects_disconnected():
    assert run(["cohomology", "-"], KLEIN_TABLE).returncode == 4
    ok = run(["cohomology", "-"], DISCONNECTED_GRAPH)
    assert ok.returncode == 0
    strict = run(["cohomology", "-", "--strict"], DISCONNECTED_GRAPH)
    assert strict.returncode == 4


def test_amalgams_triangle_two_classes():
    proc, r = run_json(["amalgams", "-"], TRIANGLE_COX)
    assert proc.returncode == 0
    assert r["cycle_rank"] == 1
    assert r["num_amalgams"] == 2
    assert r["class_count"] == 2
    assert r["classes"] == [[[]], [[1]]]
    assert r["completion"] is None  # affine triangle: no global group
    by_name = {c["name"]: c for c in r["checks"]}
    assert by_name["class_count_is_2_pow_cycle_rank"]["status"] == "pass"
    assert by_name["cycle_rank_matches_h1"]["status"] == "pass"
    assert by_name["completion_embeds_amalgam"]["status"] == "skip"


def test_amalgams_input_validation():
    assert run(["amalgams", "-"], TRIANGLE_GRAPH).returncode == 4
    disconnected = "coxeter v1\nrank 4\nedge 1 2 3\nedge 3 4 3\n"
    assert run(["amalgams", "-"], disconnected).returncode == 4
    infinite = "coxeter v1\nrank 2\nedge 1 2 inf\n"
    assert run(["amalgams", "-"], infinite).returncode == 4


def test_verify_graph_runs_cohomology_only():
    proc, r = run_json(["verify", "-"], TRIANGLE_GRAPH)
    assert proc.returncode == 0
    names = {c["name"] for c in r["checks"]}
    assert "coboundary_composition_zero" in names
    assert "standard_amalgam_valid" not in names


def test_verify_a2_full_pipeline():
    proc, r = run_json(["verify", "-"], A2)
    assert proc.returncode == 0
    names = [c["name"] for c in r["checks"]]
    for expected in (
        "coboundary_composition_zero",
        "coefficient_groups_match_stabilizers",
        "standard_amalgam_valid",
        "completion_embeds_amalgam",
        "order_matches_classification",
        "c1",
        "m1",
        "aut_of_doubled_dihedral",
    ):
        assert expected in names
    assert all(c["status"] == "pass" for c in r["checks"])
    assert r["amalgams"]["completion"] == {"loop_order": 12}
    assert r["cohomology"]["dims"] == {"z1": 0, "b1": 0, "h1": 0}


def test_verify_nonspherical_triangle_skips_global_checks():
    proc, r = run_json(["verify", "-"], TRIANGLE_COX)
    assert proc.returncode == 0
    by_name = {c["name"]: c for c in r["checks"]}
    assert by_name["group_enumeration"]["status"] == "skip"
    assert "not spherical" in by_name["group_enumeration"]["note"]
    assert by_name["class_count_is_2_pow_cycle_rank"]["status"] == "pass"
    assert r["ok"] is True


def test_verify_table_runs_theorem_block_at_desk_scale():
    proc, r = run_json(["verify", "-"], KLEIN_TABLE)
    assert proc.returncode == 0
    names = {c["name"] for c in r["checks"]}
    assert "aut_order_is_general_linear" in names
    assert r["ok"] is True


def test_verify_large_table_reports_the_theorem_block():
    proc, r = run_json(["verify", "-"], table_text(direct_product(cyclic(6), cyclic(36))))
    assert proc.returncode == 0
    names = {c["name"] for c in r["checks"]}
    assert names & {
        "automorphism_theorems",
        "aut_order_is_general_linear",
        "aut_is_semidirect_product",
        "aut_of_doubled_dihedral",
    }


def test_json_reports_are_byte_identical_across_runs():
    for args, text in (
        (["group", "-"], A2),
        (["verify", "-"], TRIANGLE_COX),
        (["amalgams", "-"], TRIANGLE_COX),
        (["cohomology", "-"], TRIANGLE_GRAPH),
    ):
        first = run(list(args) + ["--json"], text)
        second = run(list(args) + ["--json"], text)
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout
        assert first.stdout  # non-empty


def test_file_input_matches_stdin(tmp_path):
    p = tmp_path / "a2.cox"
    p.write_text(A2, encoding="utf-8")
    from_file, r_file = run_json(["group", str(p)])
    from_stdin, r_stdin = run_json(["group", "-"], A2)
    assert from_file.returncode == from_stdin.returncode == 0
    # identical up to the echoed input path
    assert r_file["input"] == str(p) and r_stdin["input"] == "-"
    assert r_file["input_sha256"] == r_stdin["input_sha256"]
    for k in ("group_order", "element_orders", "checks", "ok"):
        assert r_file[k] == r_stdin[k]


# the input digest comes from CPython's built-in SHA-256, not from hashlib,
# so each check below holds it against hashlib


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.binary(max_size=1 << 12))
def test_digest_matches_hashlib(data):
    assert cli.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def test_digest_matches_hashlib_on_empty_and_8mb_inputs():
    for data in (b"", random.Random(0).randbytes(8 << 20)):
        assert cli.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def test_input_digest_matches_hashlib_on_every_golden_input():
    inputs = {**golden.INPUTS, **golden.LIMIT_INPUTS, **golden.FRONTIER_INPUTS}
    for name, text in inputs.items():
        code, out, _ = golden.run(("parse", name, "--json"))
        assert code == 0, name
        assert json.loads(out)["input_sha256"] == hashlib.sha256(text.encode()).hexdigest()


def test_report_is_the_same_without_a_builtin_sha256():
    code = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from coxloops import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print('_hashlib' in sys.modules, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    fallback = subprocess.run(
        [sys.executable, "-c", code, "verify", "-", "--json"],
        input=A2, capture_output=True, text=True, timeout=120,
    )
    builtin = run(["verify", "-", "--json"], A2)
    assert fallback.returncode == builtin.returncode == 0
    assert fallback.stdout == builtin.stdout
    assert fallback.stderr == "True\n"
