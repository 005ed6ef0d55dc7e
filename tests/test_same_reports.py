"""`tools/same_reports.py`, the check that two checkouts write the same reports."""

import re
import subprocess
import sys
from pathlib import Path

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
