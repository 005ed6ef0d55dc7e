"""Benchmark-side tracer for `coxloops` layers.

Run as a child process in place of the `coxloops` entry point:

    PYTHONPATH=src python3 benchmarks/tracer.py SPANS.json CMD_ID -- <coxloops argv>

It replaces each traced public function at every module binding that holds
it (for example both `coxloops.cli.automorphism_group` and
`coxloops.amalgams.automorphism_group`), calls `coxloops.cli.main(argv)`,
and exits with its return code.  Standard output is left to the program,
byte for byte.  Spans (name, start, end, parent, command id) are kept in
memory and written to SPANS.json when the process exits, together with work
counts taken from the traced calls' arguments and return values only: no
program code is touched.

`summarize` turns the span files of one traced pass into the per-layer
metrics listed in BENCHMARK.json.  A span's self time is its duration minus
the time covered by its child spans, so the self times of all spans under
`cli.main` add up to the in-process time of the command.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from entry import report_peak_rss

# traced function (module.name) -> span name "<layer>.<group>"; a layer is a
# module under src/coxloops, and each group's self time is `<layer>.<group>_s`
SPANS: Dict[str, str] = {
    "coxloops.cli.main": "cli.main",
    "coxloops.coxeter.enumerate_group": "coxeter.enumerate",
    "coxloops.coxeter.enumerate_order": "coxeter.enumerate",
    "coxloops.loops.chein_loop": "loops.chein_loop",
    "coxloops.loops.is_moufang": "loops.sweep",
    "coxloops.loops.is_associative": "loops.sweep",
    "coxloops.loops.verify_doubling_identities": "loops.sweep",
    "coxloops.loops.verify_chein_identities": "loops.sweep",
    "coxloops.morphisms.automorphism_group": "morphisms.aut",
    "coxloops.morphisms.classify_trichotomy": "morphisms.trichotomy",
    "coxloops.morphisms.verify_semidirect_automorphisms": "morphisms.theorem",
    "coxloops.morphisms.verify_doubled_dihedral_automorphisms": "morphisms.theorem",
    "coxloops.groups.all_subgroups": "groups.subgroups",
    "coxloops.cohomology.build_complex": "cohomology.build_complex",
    "coxloops.cohomology.cohomology": "cohomology.cohomology",
    "coxloops.cohomology.vertex_star": "cohomology.vertex_star",
    "coxloops.cohomology.coefficient_group": "cohomology.coefficient_group",
    "coxloops.gf2.gf2_rref": "gf2.elim",
    "coxloops.gf2.gf2_rank": "gf2.elim",
    "coxloops.gf2.gf2_kernel_basis": "gf2.elim",
    "coxloops.gf2.gf2_same_span": "gf2.elim",
    "coxloops.amalgams.standard_amalgam": "amalgams.build",
    "coxloops.amalgams.twisted_amalgam": "amalgams.build",
    "coxloops.amalgams.amalgams_isomorphic": "amalgams.iso",
    "coxloops.amalgams.classify_twisted_amalgams": "amalgams.classify",
    "coxloops.amalgams.loop_completion": "amalgams.completion",
    "coxloops.amalgams.verify_completion": "amalgams.completion",
    "coxloops.amalgams.verify_amalgam": "amalgams.verify",
}

# traced function -> counter fed with (args, result, tally, seen)
Counter = Callable[[Sequence, object, Dict[str, float], set], None]


def _add(tally: Dict[str, float], key: str, amount: float = 1) -> None:
    tally[key] = tally.get(key, 0) + amount


def _repeat(tally, seen, metric: str, key) -> None:
    """Count a call whose input equals one already passed in this process."""
    if key in seen:
        _add(tally, metric)
    seen.add(key)


def _count_enumerate(args, result, tally, seen) -> None:
    _add(tally, "coxeter.enumerate_calls")
    _repeat(tally, seen, "coxeter.enumerate_repeat_calls", ("coxeter", args[0].matrix))
    order = result if isinstance(result, int) else result.order
    _add(tally, "coxeter.elements", order)
    if not isinstance(result, int):
        _add(tally, "coxeter.table_entries", order * order)


def _count_sweep(args, result, tally, seen) -> None:
    reports = result.values() if isinstance(result, dict) else (result,)
    _add(tally, "loops.instances", sum(r.checked for r in reports))


def _count_aut(args, result, tally, seen) -> None:
    _add(tally, "morphisms.aut_calls")
    _repeat(tally, seen, "morphisms.aut_repeat_calls", ("aut", args[0].product))
    _add(tally, "morphisms.aut_nodes", result.nodes)
    _add(tally, "morphisms.aut_found", result.order)


def _count_complex(args, result, tally, seen) -> None:
    _add(tally, "cohomology.build_complex_calls")
    _add(tally, "cohomology.triples", len(result.triples))
    _add(tally, "cohomology.pointed_triples", len(result.pointed_triples))


def _count_rref(args, result, tally, seen) -> None:
    # gf2_rank, gf2_kernel_basis and gf2_same_span all eliminate through
    # gf2_rref, so counting here counts every elimination once
    _add(tally, "gf2.elim_calls")
    _add(tally, "gf2.rows", len(args[0]))


def _count_iso(args, result, tally, seen) -> None:
    _add(tally, "amalgams.iso_calls")
    _add(tally, "amalgams.assignments", result.assignments)
    _add(tally, "amalgams.space", result.space)


def _calls(metric: str) -> Counter:
    return lambda args, result, tally, seen: _add(tally, metric)


COUNTERS: Dict[str, Counter] = {
    "coxloops.coxeter.enumerate_group": _count_enumerate,
    "coxloops.coxeter.enumerate_order": _count_enumerate,
    "coxloops.loops.chein_loop": _calls("loops.chein_loop_calls"),
    "coxloops.loops.is_moufang": _count_sweep,
    "coxloops.loops.is_associative": _count_sweep,
    "coxloops.loops.verify_doubling_identities": _count_sweep,
    "coxloops.loops.verify_chein_identities": _count_sweep,
    "coxloops.morphisms.automorphism_group": _count_aut,
    "coxloops.cohomology.build_complex": _count_complex,
    "coxloops.gf2.gf2_rref": _count_rref,
    "coxloops.amalgams.standard_amalgam": _calls("amalgams.build_calls"),
    "coxloops.amalgams.twisted_amalgam": _calls("amalgams.build_calls"),
    "coxloops.amalgams.amalgams_isomorphic": _count_iso,
    # counted but not timed: called thousands of times inside all_subgroups
    "coxloops.groups.closure": _calls("groups.closure_calls"),
}

Span = Tuple[str, float, float, int, int]  # name, start, end, parent, command id


class Tracer:
    def __init__(self, cmd_id: int):
        self.cmd_id = cmd_id
        self.spans: List[Optional[Span]] = []
        self.stack: List[int] = []
        self.tally: Dict[str, float] = {}
        self.seen: set = set()
        self.originals: Dict[str, object] = {}
        self.bindings: List[Tuple[str, str]] = []

    def _wrap(self, fn, span: Optional[str], counter: Optional[Counter]):
        spans, stack, tally, seen, cmd_id = self.spans, self.stack, self.tally, self.seen, self.cmd_id
        clock = time.perf_counter

        if span is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                counter(args, result, tally, seen)
                return result

            return counted

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (span, start, end, parent, cmd_id)
            if counter is not None:
                counter(args, result, tally, seen)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function at every `coxloops` module binding."""
        importlib.import_module("coxloops.cli")
        modules = _program_modules()
        for qual in sorted(set(SPANS) | set(COUNTERS)):
            mod_name, _, attr = qual.rpartition(".")
            original = self.originals[qual] = getattr(modules[mod_name], attr)
            wrapper = self._wrap(original, SPANS.get(qual), COUNTERS.get(qual))
            for name, module in sorted(modules.items()):
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self.bindings.append((name, key))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"cmd_id": self.cmd_id, "spans": self.spans, "tally": self.tally}, fh)

    def unwrapped(self) -> List[str]:
        """Module bindings that still hold an original traced function."""
        originals = {id(fn) for fn in self.originals.values()}
        return [
            f"{name}.{key}"
            for name, module in sorted(_program_modules().items())
            for key, value in vars(module).items()
            if id(value) in originals
        ]


def _program_modules() -> Dict[str, object]:
    return {n: m for n, m in sys.modules.items() if n == "coxloops" or n.startswith("coxloops.")}


# ---------------------------------------------------------------------------
# summary of one traced pass

PER_LAYER_TIMES = (
    "coxeter.enumerate",
    "loops.chein_loop",
    "loops.sweep",
    "morphisms.aut",
    "morphisms.trichotomy",
    "morphisms.theorem",
    "groups.subgroups",
    "cohomology.build_complex",
    "cohomology.cohomology",
    "cohomology.vertex_star",
    "gf2.elim",
    "amalgams.build",
    "amalgams.iso",
    "amalgams.classify",
    "amalgams.completion",
)
LAYERS = ("cli", "coxeter", "loops", "morphisms", "groups", "cohomology", "gf2", "amalgams")
COUNTS = (
    "coxeter.enumerate_calls",
    "coxeter.enumerate_repeat_calls",
    "coxeter.elements",
    "coxeter.table_entries",
    "loops.chein_loop_calls",
    "loops.instances",
    "morphisms.aut_calls",
    "morphisms.aut_repeat_calls",
    "morphisms.aut_nodes",
    "groups.closure_calls",
    "cohomology.build_complex_calls",
    "cohomology.triples",
    "cohomology.pointed_triples",
    "gf2.elim_calls",
    "gf2.rows",
    "amalgams.build_calls",
    "amalgams.iso_calls",
    "amalgams.assignments",
    "amalgams.space",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(traces: List[Dict], walls: List[float]) -> Dict[str, float]:
    """Per-layer self times, counts and ratios of one traced pass.

    `traces` are the dumped span files of the pass's commands and `walls`
    the fresh-process wall times of the same commands.
    """
    group_self: Dict[str, float] = {}
    tally: Dict[str, float] = {}
    nspans = 0
    process_start = 0.0
    for trace, wall in zip(traces, walls):
        spans = trace["spans"]
        nspans += len(spans)
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for k, (name, start, end, parent, _) in enumerate(spans):
            group_self[name] = group_self.get(name, 0.0) + (end - start) - child[k]
            if name == "cli.main":
                process_start += wall - (end - start)
        for key, value in trace["tally"].items():
            tally[key] = tally.get(key, 0) + value
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in group_self.items() if k.split(".")[0] == layer)
    for key in PER_LAYER_TIMES:
        out[f"{key}_s"] = group_self.get(key, 0.0)
    for key in COUNTS:
        out[key] = tally.get(key, 0)
    out["cli.process_start_s"] = process_start
    out["loops.instances_per_s"] = _ratio(out["loops.instances"], out["loops.sweep_s"])
    out["morphisms.aut_yield"] = _ratio(tally.get("morphisms.aut_found", 0), out["morphisms.aut_nodes"])
    out["cohomology.pointed_share"] = _ratio(out["cohomology.pointed_triples"], out["cohomology.triples"])
    out["amalgams.search_share"] = _ratio(out["amalgams.assignments"], out["amalgams.space"])
    out["trace.spans"] = nspans
    return out


def main(argv: List[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS.json CMD_ID -- <coxloops argv>", file=sys.stderr)
        return 4
    out_path, cmd_id = argv[0], int(argv[1])
    spans = Tracer(cmd_id)
    spans.install()
    try:
        return sys.modules["coxloops.cli"].main(argv[3:])
    finally:
        spans.dump(out_path)
        report_peak_rss()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
