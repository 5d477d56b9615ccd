"""The README's Python example runs as written."""

import ast
import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    caps = [float(line.split()[0]) for line in lines if line.endswith(" cuspidal_cross_cap")]
    assert len(caps) == 2
    assert max(abs(c - r) for c, r in zip(caps, (-1 / math.sqrt(6), 1 / math.sqrt(6)))) < 1e-10
    # the batch's kind column as a list: s = 0 is the unbounded point
    assert ast.literal_eval(lines[-1]) == ["cuspidal_edge"] * 2 + ["unbounded"] + ["cuspidal_edge"] * 2
