"""The traced benchmark run wraps names that must exist in the package."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    missing = [
        f"mktsens.{module}.{attr}"
        for module, attr, _ in child.TRACED
        if not callable(getattr(importlib.import_module(f"mktsens.{module}"),
                                attr, None))
    ]
    assert child.TRACED
    assert missing == []
