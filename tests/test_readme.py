"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_its_comments():
    block = re.search(
        r"## Library example\n\n```python\n(.*?)```", README.read_text(), re.S
    ).group(1)
    expected = "".join(
        line.rsplit("  # ", 1)[1] + "\n"
        for line in block.splitlines()
        if line.startswith("print(")
    )
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue() == expected
