"""Whether this checkout's CLI writes what another checkout's writes.

    python3 tools/same_reports.py PARENT_CHECKOUT [--seed N]

Runs every (command, input) pair of the benchmark's workloads (`WORKLOADS`
in `benchmarks/run.py`), and `parse` on each of their inputs, with and
without `--json` and with and without `python -O`: once on the `src/` of
this checkout and once on the `src/` of PARENT_CHECKOUT.  The inputs are
written from the seed by `benchmarks/corpus.write_inputs` into a temporary
directory, the working directory of every run, so both sides' reports
name the same input paths.

Prints each (command, input, flags) whose standard output, standard error
or exit code differs between the two, then a count of the identical ones;
exits 1 if any differs, else 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Tuple

ROOT = Path(__file__).resolve().parent.parent
# the benchmark's modules are read, never written: no bytecode goes there
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "benchmarks"))

import corpus  # noqa: E402
import run  # noqa: E402

MAIN = "import sys; from coxloops.cli import main; sys.exit(main())"
VARIANTS = [(python, report) for python in ([], ["-O"]) for report in ([], ["--json"])]


def pairs() -> List[Tuple[str, str]]:
    """Each workload's (command, input) pairs in order, then `parse` on
    each input, without repeats."""
    commands = [pair for workload in run.WORKLOADS.values() for pair in workload]
    names = sorted({name for _, name in commands})
    return list(dict.fromkeys(commands + [("parse", name) for name in names]))


def start(checkout: Path, argv: List[str], cwd: str) -> subprocess.Popen:
    # a default Python, as the benchmark runs the program: none of the
    # caller's PYTHON* settings, only PYTHONPATH at the checkout's source
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env["PYTHONPATH"] = str(checkout / "src")
    return subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_CHECKOUT")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "src" / "coxloops").is_dir():
        parser.error(f"{parent} has no src/coxloops")

    todo = pairs()
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        inputs = corpus.write_inputs(sorted({name for _, name in todo}), args.seed, Path(tmp))
        for command, name in todo:
            path = inputs[name].path.name
            for python, report in VARIANTS:
                cmd = [sys.executable, *python, "-c", MAIN, command, path, *report]
                # both sides at once, each to its own pipes
                procs = [start(checkout, cmd, tmp) for checkout in (ROOT, parent)]
                (out, err, code), (parent_out, parent_err, parent_code) = (
                    (*proc.communicate(), proc.returncode) for proc in procs
                )
                diffs = [what for what, same in (
                    ("stdout", out == parent_out),
                    ("stderr", err == parent_err),
                    (f"exit code {code} != {parent_code}", code == parent_code),
                ) if not same]
                if diffs:
                    differ += 1
                    flags = " ".join([*python, *report])
                    print(f"differs: {command} {name} {flags}".rstrip() + f": {', '.join(diffs)}", flush=True)
    total = len(todo) * len(VARIANTS)
    print(f"{total - differ}/{total} identical (seed {args.seed})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
