"""The README's Quickstart block runs and prints the line the README states.

The block is read from README.md itself, so drift in either the code or the
text fails here.  The stated error, 5.65e-14, is reached by a 1,500-step
geometric subgradient run, so a change of any bit on that path shows too.
"""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_quickstart_prints_the_stated_line():
    quickstart = README.split("## Quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", quickstart, re.S).group(1)
    stated = re.search(r"prints `([^`]+)`", quickstart).group(1)
    assert stated == "relative error: 5.65e-14"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue() == stated + "\n"
