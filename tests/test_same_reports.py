"""`tools/same_reports.py`, the check that two checkouts write the same reports."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_reports.py"


def test_a_checkout_writes_the_same_reports_as_itself():
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), "--seed", "7"], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    match = re.fullmatch(r"(\d+)/(\d+) identical \(seed 7\)\n", proc.stdout)
    assert match and match[1] == match[2], proc.stdout
    # 4 variants of each workload pair and of `parse` on each input
    assert int(match[1]) % 4 == 0 and int(match[1]) > 4 * 22


CASES = """
import sys
sys.path.insert(0, sys.argv[1])
import same_reports
print(same_reports.FRONTIER)
print(sorted((name, path.read_text().count("edge")) for name, path in same_reports.write_frontier(same_reports.Path(sys.argv[2])).items()))
"""


def test_the_frontier_cases_are_the_seeded_diagrams(tmp_path):
    # in a fresh interpreter: importing the tool stops bytecode writes
    proc = subprocess.run(
        [sys.executable, "-c", CASES, str(ROOT / "tools"), str(tmp_path)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[('verify', 'seeded_45'), ('verify', 'seeded_106'), ('verify', 'seeded_200'), "
        "('amalgams', 'seeded_45', '--budget', '1000000000000000000')]",
        "[('seeded_106', 106), ('seeded_200', 200), ('seeded_45', 45)]",
    ]
    assert (tmp_path / "seeded_45.cox").read_text().startswith("coxeter v1\nrank 40\nedge 16 39 3\n")


@pytest.mark.slow
def test_a_checkout_writes_the_same_frontier_reports_as_itself():
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), "--seed", "7", "--frontier"],
        capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    match = re.fullmatch(r"(\d+)/(\d+) identical \(seed 7\)\n", proc.stdout)
    # the default runs and 4 variants of each of the 4 frontier runs
    assert match and match[1] == match[2] and int(match[1]) % 4 == 0, proc.stdout
