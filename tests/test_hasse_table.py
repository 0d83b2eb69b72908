"""Table-backed Hasse diagrams against the object-based oracle in conftest.

The emitters render from the outcome table and the edge array; these tests
require the same bytes as the per-node, per-edge object walk they replaced,
over awkward labels, non-finite outcomes, every display style and
restricted diagrams.
"""

from __future__ import annotations

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mktsens import (
    DotStyle,
    ExclusionSet,
    MarginalSet,
    diagram_from_json,
    hasse_from_table,
    restrict,
    to_dot,
    to_json,
)
from tests.conftest import scalar_hasse, scalar_hasse_dot, scalar_hasse_json

AWKWARD_TEXT = st.text(st.sampled_from('ab_"\\ é中{},'), min_size=1, max_size=4)
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
    style = DotStyle(
        floor_labels=draw(st.booleans()),
        decimals=draw(st.integers(min_value=0, max_value=3)),
        alert_fill=draw(st.sampled_from(["lightcoral", 'red"ish', "gr\\ün"])),
        label_metrics=draw(st.none() | st.lists(st.sampled_from(names),
                                                 max_size=3).map(tuple)),
    )
    return MarginalSet(labels), tuple(names), rows, flags, keep, style


@settings(max_examples=300, deadline=None)
@given(diagrams())
def test_emitters_match_the_object_oracle(case):
    ms, names, rows, flags, keep, style = case
    diagram = hasse_from_table(ms, names, rows, flags)
    if keep is not None:
        diagram = restrict(diagram, [ExclusionSet(ms.n, bits) for bits in keep])
    nodes, edges = scalar_hasse(ms, rows, flags, keep)
    # repr compares NaN outcomes, which == on tuples of fresh floats cannot.
    assert repr(diagram.nodes) == repr(tuple(nodes))
    assert repr(diagram.edges) == repr(tuple(edges))

    text = to_json(diagram)
    assert isinstance(text, str)
    assert text == scalar_hasse_json(ms, names, nodes, edges)
    assert to_json(diagram_from_json(text)) == text

    try:
        expected = scalar_hasse_dot(ms, names, nodes, edges, style)
    except (ArithmeticError, ValueError) as exc:
        # floor and Decimal rounding refuse some non-finite or huge values.
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            to_dot(diagram, style)
    else:
        assert to_dot(diagram, style) == expected


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
