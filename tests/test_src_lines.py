"""`tools/src_lines.py`, the line counts quoted for the package sources."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "src_lines.py"

SAMPLE = '''"""A module docstring
over two lines."""

# a comment
def f(x):
    """A docstring."""
    y = """a string, not a docstring,
over two lines"""
    return x + len(y)  # a trailing comment
'''


def test_src_lines_counts_code_apart_from_blanks_comments_and_docstrings():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.counts(SAMPLE) == (9, 4)

    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    modules = sorted((ROOT / "src" / "coxloops").glob("*.py"))
    assert [row[0] for row in rows] == [path.name for path in modules] + ["total"]
    for path, (_, lines, code) in zip(modules, rows):
        assert int(lines) == len(path.read_text(encoding="utf-8").splitlines())
        assert 0 < int(code) < int(lines)
    assert [int(n) for n in rows[-1][1:]] == [sum(int(row[k]) for row in rows[:-1]) for k in (1, 2)]
