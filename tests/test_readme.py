"""README's Quickstart block runs against the installed API and prints
what the README says it prints."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def quickstart() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quickstart") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quickstart_output():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quickstart(), str(README), "exec"), {})
    assert out.getvalue().splitlines() == [
        "40",
        "CountResult(lam=100.0, count_low=40, count_high=52, leading=50.0)",
        "71",
    ]
