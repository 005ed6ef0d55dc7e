"""End-to-end benchmark of the `coxloops` CLI.

    python3 benchmarks/run.py --workload {tables,aut,complex,verify,all} \\
        --seed N --seconds S --trace {0,1}

Run it from a checkout of the repository on Linux with at least 2 CPUs; it
needs only the Python standard library and runs the program from `src/`
with `PYTHONPATH=src`.

A user is a mathematician at a desk who runs one `coxloops` command on one
diagram, graph or table and waits for a certified report.  So every sample
is a fresh interpreter running one command (`entry.py`, the console entry
point), and samples run one after another: one client, closed loop.  A
fresh process per sample also keeps the process-global `Aut` memo from
turning repeated samples into memo hits.  Inputs are written from `--seed`
by `corpus.py`; the program only receives their paths.  Every output is
checked by `oracle.py`.

Host speed on a shared machine swings by a third within seconds, so each
sample is normalised by a fixed pure-Python calibration loop: one block of
it just before the sample, one just after, and short chunks every
SAMPLE_GAP_S while the command runs (on the other CPU, about a tenth of
the time).  A sample in calibration units (`cal`) is its wall time divided
by the mean calibration time per unit over those three parts.

With `--trace 0` a run measures, within `--seconds`:

- `setup_s`: for each input, the median over repetitions of a fresh-process
  `coxloops parse` run (interpreter start, import, sniffing and validating
  the input), summed over the workload's inputs, in seconds at the
  reference speed CAL_REF_S per calibration unit;
- `wall_norm`: for each command, the median over the run's passes of its
  normalised wall time, summed over the workload's commands;
- `peak_rss_mb`: the highest peak RSS of any command process;
- `ok_rate`: correct outputs over attempted ones, i.e. 1 - `error_rate`.
  An output is wrong if the process crashes, exits with the wrong code or
  reports a wrong value in a frozen field.

It also prints the raw `wall_s` (the same sum in seconds, not normalised)
and `error_rate`.  With `--trace 1` a run alternates untraced passes with
passes traced by `tracer.py` and reports the per-layer metrics of
BENCHMARK.json.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402

ROOT = HERE.parent
WORK = HERE / ".work"
# program processes run like a default Python: none of the caller's PYTHON*
# settings (PYTHONDONTWRITEBYTECODE would recompile the program in every
# sample), only PYTHONPATH pointing at the program's source
CHILD_ENV = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
CHILD_ENV["PYTHONPATH"] = str(ROOT / "src")

# workload -> commands (command, input name), run in this order every pass
WORKLOADS: Dict[str, List[Tuple[str, str]]] = {
    # coset enumeration, dense tables (1152^2 and 1920^2 entries), doubling
    # and the cubic identity sweeps; Aut, complexes and amalgams do nothing
    "tables": [("group", "F4"), ("group", "D5"), ("loop", "A3"), ("loop", "B3")],
    # Aut search on loops of order 48-96 and the subgroup lattice, both
    # input paths and trichotomy cases 2 and 3; tables are too small to matter
    "aut": [("aut", "A3"), ("aut", "I2_8"), ("aut", "B3"), ("aut", "D6")],
    # the edge complex of a 200-edge graph (1.3 M triples) and 496 exhaustive
    # amalgam isomorphism searches; Aut work is memo hits on order-12 loops
    "complex": [("cohomology", "graph_120_200"), ("amalgams", "K5_minus_edge")],
    # the command users run most, on a desk corpus that hits the verify gates
    # from both sides (loop order <= 64, cycle rank <= 4); start-up and CLI
    # orchestration are a large share
    "verify": [
        ("verify", name)
        for name in (
            "A2", "A3", "A1xB2", "I2_8", "B3", "affine_A2",
            "K4", "C4_4343", "K5", "graph_40_60", "Q8", "D6",
        )
    ],
}
COMMANDS = ("group", "loop", "aut", "cohomology", "amalgams", "verify")

CHUNK = 50_000  # iterations in one chunk of the calibration loop
UNIT_CHUNKS = 10  # one calibration unit (cal) is this many chunks
SAMPLE_GAP_S = 0.045  # pause between calibration chunks while a command runs
# fixed reference speed for setup_s, in seconds per calibration unit: the
# unit's time on the 2-CPU baseline host when other tenants leave it alone
# (baseline.json has the median over all baseline runs, quiet or not)
CAL_REF_S = 0.035
SETUP_REPS = 3  # fresh-process parse runs per input for setup_s
HARD_LIMIT_S = 160.0  # a run never lasts longer than this, hung commands included


def _chunk() -> float:
    """Seconds taken by one chunk of a fixed pure-Python loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(CHUNK):
        acc = (acc * 31 + i) & 0xFFFF
    return time.perf_counter() - start


@dataclass
class Sample:
    key: str  # "<command>/<input>"
    wall: float
    rss_mb: float
    problems: List[str]
    norm: float = 0.0


class Runner:
    """Spawns program processes, checks their outputs and calibrates."""

    def __init__(self, workdir: Path, inputs: Dict[str, corpus.Input], deadline: float):
        self.workdir = workdir
        self.inputs = inputs
        self.deadline = deadline
        self.expected = oracle.load_expected()
        self.samples: List[Sample] = []
        self.unit_times: List[float] = []  # seconds per calibration unit, per block

    def calibrate(self) -> List[float]:
        """One calibration unit's worth of chunks."""
        chunks = [_chunk() for _ in range(UNIT_CHUNKS)]
        self.unit_times.append(sum(chunks))
        return chunks

    def spawn(self, argv: List[str], during: List[float]) -> Tuple[int, float, float, bytes]:
        """Run one process, timing calibration chunks into `during` while it
        runs; return exit code, wall seconds, peak RSS in MB and stdout."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        ended = threading.Event()
        end: List[float] = []
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, stdin=subprocess.DEVNULL, stdout=out, stderr=err)

            def reap() -> None:
                proc.wait()
                end.append(time.perf_counter())
                ended.set()

            waiter = threading.Thread(target=reap)
            waiter.start()
            while not ended.wait(SAMPLE_GAP_S):
                if time.monotonic() > self.deadline:
                    proc.kill()
                during.append(_chunk())
            waiter.join()
        err_lines = err_path.read_text(errors="replace").splitlines()
        rss_kb = int(err_lines[-1].split()[1]) if err_lines and err_lines[-1].startswith("peak_rss_kb ") else 0
        return proc.returncode, end[0] - start, rss_kb / 1024.0, out_path.read_bytes()

    def run(self, command: str, name: str, during: List[float], trace: Optional[Tuple[Path, int]] = None) -> Sample:
        inp = self.inputs[name]
        args = [command, str(inp.path.relative_to(ROOT)), "--json"]
        if trace is None:
            argv = [sys.executable, str(HERE / "entry.py"), *args]
        else:
            spans_path, cmd_id = trace
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path), str(cmd_id), "--", *args]
        code, wall, rss, stdout = self.spawn(argv, during)
        key = f"{command}/{name}"
        sample = Sample(key, wall, rss, oracle.check(self.expected[key], code, stdout, inp.derived))
        self.samples.append(sample)
        return sample

    def timed_pass(self, commands, trace_dir: Optional[Path] = None) -> List[Sample]:
        """One pass over the commands, each sample normalised by the
        calibration chunks timed before, during and after it."""
        out = []
        before = self.calibrate()
        for k, (command, name) in enumerate(commands):
            during: List[float] = []
            trace = None if trace_dir is None else (trace_dir / f"{k}.json", k)
            sample = self.run(command, name, during, trace)
            after = self.calibrate()
            chunks = before + during + after
            sample.norm = sample.wall / (sum(chunks) / len(chunks) * UNIT_CHUNKS)
            before = after
            out.append(sample)
        return out

    def time_left(self) -> bool:
        return time.monotonic() < self.deadline


def _sum_of_medians(passes: List[List[Sample]], attr: str) -> float:
    """Median of each command over the passes, summed over the commands."""
    return sum(statistics.median(getattr(p[k], attr) for p in passes) for k in range(len(passes[0])))


def _rounds(runner: Runner, start: float, seconds: float, one_round) -> None:
    """Repeat `one_round` while the next one is expected to end within `seconds`."""
    while True:
        t0 = time.monotonic()
        one_round()
        now = time.monotonic()
        if now - start + (now - t0) > seconds or not runner.time_left():
            return


def measure(runner: Runner, commands, seconds: float) -> Tuple[Dict[str, float], List[str]]:
    start = time.monotonic()
    parses = [("parse", name) for name in sorted({name for _, name in commands})]
    setup = [runner.timed_pass(parses) for _ in range(SETUP_REPS)]
    passes: List[List[Sample]] = []
    _rounds(runner, start, seconds, lambda: passes.append(runner.timed_pass(commands)))
    metrics = {
        "setup_s": CAL_REF_S * _sum_of_medians(setup, "norm"),
        "wall_norm": _sum_of_medians(passes, "norm"),
        "peak_rss_mb": max(s.rss_mb for p in passes for s in p),
        "ok_rate": 1.0 - sum(bool(s.problems) for s in runner.samples) / len(runner.samples),
    }
    lines = [
        f"  wall_s {_sum_of_medians(passes, 'wall'):.6f} s (raw; raw setup {_sum_of_medians(setup, 'wall'):.6f} s)",
        f"  passes {len(passes)}, setup repetitions {SETUP_REPS} per input",
    ]
    for k, (command, name) in enumerate(commands):
        walls = [p[k].wall for p in passes]
        norms = [p[k].norm for p in passes]
        lines.append(
            f"  {command:10s} {name:15s} median {statistics.median(walls):8.3f} s"
            f"  {statistics.median(norms):9.2f} cal  (n={len(walls)})"
        )
    return metrics, lines


def _load_trace(path: Path) -> Dict:
    """A traced command's spans; none if it was killed before writing them."""
    if not path.exists():
        return {"spans": [], "tally": {}}
    return json.loads(path.read_text())


def measure_traced(runner: Runner, commands, seconds: float) -> Tuple[Dict[str, float], List[str]]:
    start = time.monotonic()
    plain: List[List[Sample]] = []
    traced: List[List[Sample]] = []
    summaries: List[Dict[str, float]] = []

    def one_round() -> None:
        plain.append(runner.timed_pass(commands))
        trace_dir = runner.workdir / f"trace{len(traced)}"
        trace_dir.mkdir()
        samples = runner.timed_pass(commands, trace_dir)
        traces = [_load_trace(trace_dir / f"{k}.json") for k in range(len(commands))]
        traced.append(samples)
        summaries.append(tracer.summarize(traces, [s.wall for s in samples]))

    _rounds(runner, start, seconds, one_round)
    metrics = {key: statistics.median(s[key] for s in summaries) for key in summaries[0]}
    for command in COMMANDS:
        metrics[f"cli.cmd.{command}_norm"] = sum(
            statistics.median(p[k].norm for p in plain) for k, (c, _) in enumerate(commands) if c == command
        )
    untraced_norm = _sum_of_medians(plain, "norm")
    traced_norm = _sum_of_medians(traced, "norm")
    metrics["trace.overhead_norm"] = traced_norm - untraced_norm
    accounted = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS) + metrics["cli.process_start_s"]
    dominant = max(tracer.LAYERS, key=lambda layer: metrics[f"{layer}.self_s"])
    lines = [
        f"  rounds {len(traced)} (one untraced and one traced pass each)",
        f"  traced wall {_sum_of_medians(traced, 'wall'):.3f} s; layer self times + process start {accounted:.3f} s",
        f"  wall_norm untraced {untraced_norm:.2f} cal, traced {traced_norm:.2f} cal",
        f"  dominant layer: {dominant}",
    ]
    return metrics, lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    commands = WORKLOADS[workload]
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inputs = corpus.write_inputs(sorted({name for _, name in commands}), seed, workdir / "inputs")
    runner = Runner(workdir, inputs, time.monotonic() + HARD_LIMIT_S)
    metrics, lines = (measure_traced if trace else measure)(runner, commands, seconds)
    failed = [s for s in runner.samples if s.problems]
    lines.append(f"  error_rate {len(failed) / len(runner.samples):.6f} ratio ({len(failed)}/{len(runner.samples)})")
    for s in failed[:5]:
        lines.append(f"  FAILED {s.key}: {'; '.join(s.problems)}")
    q1, q2, q3 = statistics.quantiles(runner.unit_times, n=4)
    lines.append(
        f"  calibration unit: median {q2:.4f} s, quartiles {q1:.4f}-{q3:.4f} s (n={len(runner.unit_times)})"
    )
    return metrics, len(runner.samples), len(failed), lines


def _unit(key: str) -> str:
    if key.endswith("_mb"):
        return "MB"
    if key.endswith("_norm"):
        return "cal"
    if key.endswith("_per_s"):
        return "1/s"
    if key.endswith("_s"):
        return "s"
    if key.endswith(("_rate", "_share", "_yield")):
        return "ratio"
    return "count"


def _program_importable() -> bool:
    probe = subprocess.run(
        [sys.executable, "-c", "import coxloops.cli"],
        cwd=ROOT,
        env=CHILD_ENV,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=60,
    )
    return probe.returncode == 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # also compiles the program's bytecode, so no timed sample pays for that
    if not _program_importable():
        print("error: cannot import coxloops.cli from src/", file=sys.stderr)
        return 2
    # the reaper thread must get the interpreter lock back quickly from the
    # calibration chunks, or it would add its wait to the sample's wall time
    sys.setswitchinterval(0.0005)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: Dict[str, Dict] = {}
    for workload in workloads:
        m, n, bad, lines = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        attempted += n
        failed += bad
        print(f"{workload} (seed {args.seed}, {args.seconds:g} s, trace {args.trace}):")
        for key, value in m.items():
            print(f"  {key:32s} {value:14.6f} {_unit(key)}")
        print("\n".join(lines), flush=True)
        prefix = "" if len(workloads) == 1 else f"{workload}."
        for key, value in m.items():
            metrics[prefix + key] = {"value": value, "unit": _unit(key)}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
