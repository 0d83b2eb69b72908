"""Importing mktsens pins OpenBLAS to one thread unless the caller chose.

These run in a fresh interpreter: this test session imported numpy before
mktsens, and numpy's BLAS reads its thread count once, when it loads.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                                reason="needs /proc/self/task to count threads")

PROBE = ("import os, mktsens.cli\n"
         "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])\n")


def probe(**preset: str) -> list[str]:
    """The thread count and OPENBLAS_NUM_THREADS after ``import mktsens.cli``
    in a fresh interpreter whose environment sets no thread count but
    ``preset``."""
    env = {key: value for key, value in os.environ.items() if key not in
           ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    result = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                            text=True, env={**env, **preset})
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_import_starts_no_blas_threads():
    assert probe() == ["1", "1"]


def test_explicit_thread_count_is_kept():
    assert probe(OPENBLAS_NUM_THREADS="3")[1] == "3"
