"""Self-test of the benchmark itself.

    python3 benchmarks/selftest.py

Shows that the tracer leaves `cli.main` output byte-identical, that every
module binding of each traced function is wrapped, that the oracle counts a
tampered expected field as a failure, and that inputs depend only on the
seed.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _expect(condition, message="") -> None:
    """Like `assert`, but also under `python -O`."""
    if not condition:
        raise AssertionError(message)


def _run(argv):
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=ENV, capture_output=True)


def check_trace_is_transparent(workdir: Path) -> None:
    for command, name in (("verify", "A2"), ("verify", "graph_40_60"), ("aut", "D6")):
        path = corpus.write_inputs([name], 7, workdir)[name].path
        plain = _run([str(HERE / "entry.py"), command, str(path), "--json"])
        spans = workdir / "spans.json"
        traced = _run([str(HERE / "tracer.py"), str(spans), "0", "--", command, str(path), "--json"])
        _expect(plain.returncode == traced.returncode == 0, (plain.returncode, traced.returncode))
        _expect(plain.stdout == traced.stdout, f"{command} {name}: traced stdout differs")
        trace = json.loads(spans.read_text())
        _expect(trace["spans"] and all(span[4] == 0 for span in trace["spans"]))
        wall = 1.0
        m = tracer.summarize([trace], [wall])
        accounted = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS) + m["cli.process_start_s"]
        _expect(abs(accounted - wall) < 1e-9, (accounted, wall))


def check_every_binding_wrapped(workdir: Path) -> None:
    t = tracer.Tracer(0)
    t.install()
    _expect(t.unwrapped() == [], t.unwrapped())
    bound = set(t.bindings)
    for binding in (
        ("coxloops.cli", "automorphism_group"),
        ("coxloops.amalgams", "automorphism_group"),
        ("coxloops.cohomology", "automorphism_group"),
        ("coxloops.morphisms", "automorphism_group"),
        ("coxloops", "automorphism_group"),
        ("coxloops.gf2", "gf2_rref"),
        ("coxloops.cli", "main"),
    ):
        _expect(binding in bound, binding)
    for qual in set(tracer.SPANS) | set(tracer.COUNTERS):
        mod, _, attr = qual.rpartition(".")
        _expect((mod, attr) in bound, qual)


def check_oracle_catches_tampering(workdir: Path) -> None:
    expected = oracle.load_expected()
    cases = [("verify", "A2", "aut_order"), ("verify", "graph_40_60", "dims")]
    for command, name, field in cases:
        inp = corpus.write_inputs([name], 3, workdir)[name]
        out = _run([str(HERE / "entry.py"), command, str(inp.path), "--json"])
        want = expected[f"{command}/{name}"]
        _expect(oracle.check(want, out.returncode, out.stdout, inp.derived) == [])
        _expect(oracle.check(want, 2, out.stdout, inp.derived), "wrong exit code not caught")
        if field in want["fields"]:
            tampered = json.loads(json.dumps(want))
            tampered["fields"][field] += 1
            _expect(oracle.check(tampered, out.returncode, out.stdout, inp.derived), f"{field} not caught")
        else:
            derived = dict(inp.derived, dims=dict(inp.derived["dims"], h1=inp.derived["dims"]["h1"] + 1))
            _expect(oracle.check(want, out.returncode, out.stdout, derived), "derived dims not caught")
        tampered = json.loads(json.dumps(want))
        tampered["fields"]["checks"][0][1] = "fail"
        _expect(oracle.check(tampered, out.returncode, out.stdout, inp.derived), "check status not caught")


def check_inputs_follow_seed(workdir: Path) -> None:
    names = ["graph_120_200", "D6", "Q8", "B3"]

    def files(seed: int, sub: str):
        written = corpus.write_inputs(names, seed, workdir / sub)
        return {n: written[n].path.read_text() for n in names}

    a, b, c = files(5, "a"), files(5, "b"), files(6, "c")
    _expect(a == b, "the same seed must give the same inputs")
    _expect(a["graph_120_200"] != c["graph_120_200"] and a["D6"] != c["D6"])
    _expect(a["B3"] == c["B3"], "Coxeter inputs are fixed by name")
    for name in ("D6", "Q8"):
        rows = [list(map(int, line.split())) for line in c[name].splitlines()[1:]]
        _expect(all(rows[0][x] == x and rows[x][0] == x for x in range(len(rows))), "identity moved")


def main() -> int:
    workdir = HERE / ".work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    failures = 0
    for check in (
        check_trace_is_transparent,
        check_every_binding_wrapped,
        check_oracle_catches_tampering,
        check_inputs_follow_seed,
    ):
        try:
            check(workdir)
            print(f"PASS {check.__name__}")
        except AssertionError as e:
            failures += 1
            print(f"FAIL {check.__name__}: {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
