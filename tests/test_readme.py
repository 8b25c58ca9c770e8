"""The README's library example runs as written and prints what its comment says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_and_prints_its_result():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    err, count = out.getvalue().split()
    assert float(err) < 1e-12 and int(count) == 4608
