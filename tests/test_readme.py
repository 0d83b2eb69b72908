"""The README's library example runs as documented."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_first_python_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    example = re.search(r"^```python\n(.*?)^```", text, re.M | re.S).group(1)
    exec(compile(example, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("1669.817")
