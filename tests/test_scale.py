"""tests/scale.py's runner on one tiny case, so that the harness cannot rot
unseen between the scale runs."""

from __future__ import annotations

import dataclasses
import math
import re

from tests import scale

# Under pytest a spawned child's peak starts at pytest's own high-water RSS,
# so the passing run has no bound; the 1 MB bound fails whatever that is.
TINY = scale.Case("tiny", dict(name="tiny", command="state", stores=300, chains=6,
                               marginal_formats=3, marginal_firms=0,
                               merging_ranks=(1, 2)),
                  "drain", math.inf, scale.nodes(3))


def test_a_tiny_case_passes_and_reports_its_time_and_peak(tmp_path):
    ok, line = scale.run_case(TINY, tmp_path)
    assert ok, line
    assert re.match(r"ok   tiny: \d+\.\d\d s, peak RSS [1-9][\d.]* MB, ", line), line
    assert "'nodes': 8" in line and "'dot_json_bytes': " in line


def test_a_peak_over_its_bound_fails_and_names_the_bound(tmp_path):
    ok, line = scale.run_case(dataclasses.replace(TINY, peak_mb=1), tmp_path)
    assert not ok
    assert line.startswith("FAIL tiny: ") and "over the 1 MB bound" in line
