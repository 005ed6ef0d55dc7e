"""Correctness oracle behind `error_rate`.

For every command the oracle knows the expected exit code and the report
fields that depend neither on the seed nor on element labels:
`group_order`, `loop_order`, `aut_order`, the trichotomy `case`, `dims`,
`class_count`, `cycle_rank`, `kind`, `ok`, and each check's `status` and
`checked` count.  They are frozen in `expected.json` from the reports of the
commit that introduced the benchmark.  Work counters that faster searches
may legitimately change (`aut_nodes`, `pairs_checked`) and label-dependent
witnesses are not frozen.  Seed-dependent fields of generated graphs
(`dims`) are derived from the graph itself (see `corpus.py`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

EXPECTED_PATH = Path(__file__).with_name("expected.json")

FROZEN_KEYS = frozenset(
    {"group_order", "loop_order", "aut_order", "case", "dims", "class_count", "cycle_rank", "kind", "ok"}
)


def frozen_fields(report: Dict) -> Dict[str, object]:
    """Every frozen field of a report, keyed by its dotted path."""
    out: Dict[str, object] = {}

    def walk(node, prefix: str) -> None:
        for key, value in node.items():
            path = f"{prefix}{key}"
            if key in FROZEN_KEYS:
                out[path] = value
            elif key == "checks":
                out[path] = [[c["name"], c["status"], c.get("checked")] for c in value]
            elif isinstance(value, dict):
                walk(value, path + ".")

    walk(report, "")
    return out


def load_expected() -> Dict[str, Dict]:
    return json.loads(EXPECTED_PATH.read_text())


def check(expected: Dict, exit_code: int, stdout: bytes, derived: Dict) -> List[str]:
    """Problems with one command's outcome; an empty list means correct.

    `expected` holds `exit`, `fields` (dotted path -> value) and optionally
    `derived`, the names of fields whose expected value the input generator
    computed (passed in `derived`).
    """
    if exit_code != expected["exit"]:
        return [f"exit code {exit_code}, expected {expected['exit']}"]
    try:
        got = frozen_fields(json.loads(stdout))
    except (ValueError, AttributeError, KeyError, TypeError) as e:
        return [f"unreadable report: {e!r}"]
    want = dict(expected["fields"])
    for path in expected.get("derived", ()):
        want[path] = derived[path]
    problems = []
    for path, value in want.items():
        if path not in got:
            problems.append(f"{path}: missing")
        elif got[path] != value:
            problems.append(f"{path}: got {got[path]!r}, expected {value!r}")
    return problems
