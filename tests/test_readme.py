"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_commented_outputs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    expected = [
        line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected) == 3
    for got, want in zip(printed, expected):
        if want.endswith("..."):
            assert got.startswith(want[:-3].rstrip())
        else:
            assert got == want
