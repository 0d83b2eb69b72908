"""What importing mktsens does to the process: OpenBLAS is pinned to one
thread unless the caller chose, and only ``mktsens.cli`` freezes the garbage
collector's heap.

These run in a fresh interpreter: this test session imported numpy before
mktsens, and numpy's BLAS reads its thread count once, when it loads; it has
also imported ``mktsens.cli`` already.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

needs_task = pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                                reason="needs /proc/self/task to count threads")

PROBE = ("import os, mktsens.cli\n"
         "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])\n")


def probe(code: str = PROBE, **preset: str) -> list[str]:
    """What ``code`` prints in a fresh interpreter whose environment sets no
    thread count but ``preset``; by default the thread count and
    OPENBLAS_NUM_THREADS after ``import mktsens.cli``."""
    env = {key: value for key, value in os.environ.items() if key not in
           ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env={**env, **preset})
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


@needs_task
def test_import_starts_no_blas_threads():
    assert probe() == ["1", "1"]


@needs_task
def test_explicit_thread_count_is_kept():
    assert probe(OPENBLAS_NUM_THREADS="3")[1] == "3"


def test_only_the_cli_freezes_the_heap():
    library, cli = probe("import gc, mktsens\n"
                         "print(gc.get_freeze_count())\n"
                         "import mktsens.cli\n"
                         "print(gc.get_freeze_count())\n")
    assert int(library) == 0
    assert int(cli) > 0
