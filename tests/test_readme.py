"""The README's library example runs as documented."""

from __future__ import annotations

import json
import re
from pathlib import Path

from mktsens import RunConfig, config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_first_python_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    example = re.search(r"^```python\n(.*?)^```", text, re.M | re.S).group(1)
    exec(compile(example, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("1669.817")


def test_config_block_names_every_key(monkeypatch):
    """The run-configuration block sets every key that the reader accepts,
    at the top level and in ``rule`` and ``rounding``, each to its default."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^Run configuration.*?^```json\n(.*?)^```", text,
                      re.M | re.S).group(1)
    doc = json.loads(block)
    accepted = {}
    read = config._read

    def spy(obj, what, readers, **options):
        accepted[what] = set(readers)
        return read(obj, what, readers, **options)

    monkeypatch.setattr(config, "_read", spy)
    assert RunConfig.from_mapping(doc) == RunConfig(merging_chains=("acme", "bolt"))
    assert accepted == {"configuration": set(doc), "rule": set(doc["rule"]),
                        "rounding": set(doc["rounding"])}
