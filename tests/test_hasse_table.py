"""Table-backed Hasse diagrams against the object-based oracle in conftest.

The emitters render from the outcome table and the edge array; these tests
require the same bytes as the per-node, per-edge object walk they replaced,
over awkward labels, non-finite outcomes, chosen label metrics and
restricted diagrams.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mktsens import (
    ExclusionSet,
    MarginalSet,
    diagram_from_json,
    hasse_from_table,
    iter_dot,
    iter_json,
    jsontext,
    restrict,
    to_dot,
    to_json,
)
from tests.conftest import (
    AWKWARD_TEXT,
    scalar_hasse,
    scalar_hasse_dot,
    scalar_hasse_json,
)

OUTCOMES = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.5, -2.5, 1.25,
                     0.05, 1799.9999999999998]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def diagrams(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    labels = draw(st.lists(AWKWARD_TEXT, min_size=n, max_size=n, unique=True))
    names = draw(st.lists(AWKWARD_TEXT, min_size=1, max_size=3, unique=True))
    rows = [draw(st.lists(OUTCOMES, min_size=len(names), max_size=len(names)))
            for _ in range(1 << n)]
    flags = draw(st.lists(st.booleans(), min_size=1 << n, max_size=1 << n))
    keep = draw(st.none() | st.sets(st.integers(0, (1 << n) - 1)))
    label_metrics = draw(st.none() | st.lists(st.sampled_from(names),
                                              max_size=3).map(tuple))
    block = draw(st.sampled_from([1, 2, 3, jsontext.EMIT_BLOCK]))
    return (MarginalSet(labels), tuple(names), rows, flags, keep, label_metrics,
            block)


def assert_same_floats(actual: np.ndarray, expected) -> None:
    """Equal value by value, where NaN equals NaN and 0.0 differs from -0.0."""
    expected = np.array(expected, dtype=np.float64).reshape(actual.shape)
    same = ((actual == expected) & (np.signbit(actual) == np.signbit(expected))
            | np.isnan(actual) & np.isnan(expected))
    assert same.all()


def entries_per_chunk(chunks, marker: str) -> list[int]:
    return [chunk.count(marker) for chunk in chunks]


@settings(max_examples=300, deadline=None)
@given(diagrams())
@example((MarginalSet(()), ("x",), [[math.nan]], [True], None, None, 1))
@example((MarginalSet(("a", "b")), ("x", "y"),
          [[math.inf, 1.0], [-math.inf, math.nan], [0.5, -0.0], [2.0, 3.0]],
          [False, True, False, True], {1, 2}, ("y",), 1))
@example((MarginalSet(("a", "b", "c")), ("x",),
          [[float(bits)] for bits in range(8)], [False] * 8, None, None, 3))
def test_emitters_match_the_object_oracle(case):
    ms, names, rows, flags, keep, label_metrics, block = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jsontext, "EMIT_BLOCK", block)
        check_emitters(ms, names, rows, flags, keep, label_metrics, block)


def check_emitters(ms, names, rows, flags, keep, label_metrics, block):
    diagram = hasse_from_table(ms, names, rows, flags)
    if keep is not None:
        diagram = restrict(diagram, [ExclusionSet(ms.n, bits) for bits in keep])
    nodes, edges = scalar_hasse(ms, rows, flags, keep)
    assert diagram.masks.tolist() == [node.subset.bits for node in nodes]
    assert_same_floats(diagram.table, [node.outcomes for node in nodes])
    assert diagram.flags.tolist() == [node.flagged for node in nodes]
    assert diagram.edge_masks.tolist() == [
        [edge.from_subset.bits, edge.to_subset.bits] for edge in edges
    ]
    assert_same_floats(diagram.edge_deltas(), [edge.deltas for edge in edges])

    text = to_json(diagram)
    assert isinstance(text, str)
    assert text == scalar_hasse_json(ms, names, nodes, edges)
    assert to_json(diagram_from_json(text)) == text
    # Every node and edge entry opens on a line of its own at indent level 2.
    assert max(entries_per_chunk(iter_json(diagram), "\n    {")) <= block

    try:
        expected = scalar_hasse_dot(ms, names, nodes, edges, label_metrics)
    except (ArithmeticError, ValueError) as exc:
        # floor and Decimal rounding refuse some non-finite or huge values.
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            to_dot(diagram, label_metrics)
    else:
        assert to_dot(diagram, label_metrics) == expected
        # Labels hold none of "[=", so this counts node and edge lines.
        chunks = list(iter_dot(diagram, label_metrics))
        assert max(entries_per_chunk(chunks, " [label=")) <= block


@pytest.mark.parametrize("n", range(0, 7))
def test_full_lattice_edges_are_the_bit_flips_in_canonical_order(n):
    ms = MarginalSet(tuple(f"m{i}" for i in range(n)))
    rows = [[float(bits)] for bits in range(1 << n)]
    diagram = hasse_from_table(ms, ("x",), rows, [False] * (1 << n))
    _, edges = scalar_hasse(ms, rows, [False] * (1 << n))
    assert diagram.edge_masks.tolist() == [
        [e.from_subset.bits, e.to_subset.bits] for e in edges
    ]


def test_arrays_are_read_only():
    ms = MarginalSet(("a", "b"))
    diagram = hasse_from_table(ms, ("x",), [[0.0], [1.0], [2.0], [3.0]],
                               [False, True, False, True])
    for array in (diagram.masks, diagram.table, diagram.flags,
                  diagram.edge_masks):
        with pytest.raises(ValueError):
            array[0] = 0


def test_table_and_flags_must_cover_the_lattice():
    ms = MarginalSet(("a", "b"))
    with pytest.raises(ValueError):
        hasse_from_table(ms, ("x",), [[0.0], [1.0], [2.0]], [False] * 3)
