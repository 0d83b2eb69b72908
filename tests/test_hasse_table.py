"""Table-backed Hasse diagrams against the object-based oracle in conftest.

The emitters render from the outcome table and the covering relation that
the diagram derives from its node masks; these tests require the same bytes
as the per-node, per-edge object walk they replaced, over awkward labels,
non-finite outcomes, chosen label metrics and restricted diagrams.
"""

from __future__ import annotations

import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mktsens import (
    AnnotatedHasseDiagram,
    ExclusionSet,
    MarginalSet,
    canonical_masks,
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
    OracleEdge,
    OracleNode,
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
# Floors and their differences are exact Python ints: 2^63 - (-2^63) and
# 1e19 overflow int64, and -1e300 has 301 digits.
@example((MarginalSet(("a", "b")), ("x", "y"),
          [[2.0**63, -1e300], [-2.0**63, 1e19], [1e19, 2.0**63], [-1e300, 0.5]],
          [True, False, True, False], None, None, 2))
@example((MarginalSet(("a", "b", "c")), ("x", "y"),
          [[2.0**63, -1e300], [-2.0**63, 1e19], [1e19, 2.0**63], [-1e300, 0.5],
           [0.0, -0.5], [-1e19, 1.0], [2.5, 3.0], [-2.0**64, 4.0]],
          [False] * 8, {0, 1, 3, 6, 7}, ("y", "x"), 3))
# Two label metrics whose deltas are negative, in blocks of two rows, so
# the one- and two-label ranks each span two blocks.
@example((MarginalSet(("a", "b", "c")), ("x", "y", "z"),
          [[-1.5 * bits, 10.0 - 3 * bits, 0.25 * bits] for bits in range(8)],
          [bool(bits & 1) for bits in range(8)], None, ("y", "x"), 2))
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
    edge_masks = [[edge.from_subset.bits, edge.to_subset.bits] for edge in edges]
    assert diagram.edge_masks.tolist() == edge_masks
    assert diagram.masks[diagram.edges].tolist() == edge_masks
    assert_same_floats(diagram.edge_deltas(), [edge.deltas for edge in edges])

    text = to_json(diagram)
    assert isinstance(text, str)
    assert text == scalar_hasse_json(ms, names, nodes, edges)
    read = diagram_from_json(text)
    assert read.masks[read.edges].tolist() == edge_masks
    assert to_json(read) == text
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
    for array in (diagram.masks, diagram.table, diagram.flags, diagram.edges,
                  diagram.edge_masks):
        with pytest.raises(ValueError):
            array[0] = 0


def test_diagrams_keep_their_own_arrays():
    """A caller's arrays stay the caller's: changing them after the diagram
    is built leaves the diagram as it was, and its arrays stay read-only."""
    ms = MarginalSet(("a", "b"))
    table = np.array([[0.0], [1.0], [2.0], [3.0]])
    flags = np.array([False, True, False, True])
    built = hasse_from_table(ms, ("x",), table, flags)
    masks = built.masks.copy()
    direct = AnnotatedHasseDiagram(ms, ("x",), masks, table, flags)
    # Edges are derived, so an edge array is no argument.
    with pytest.raises(TypeError):
        AnnotatedHasseDiagram(ms, ("x",), masks, table, flags, built.edges)
    for diagram in (built, direct):
        assert diagram.table is not table and diagram.flags is not flags
    table[:] = -1.0
    flags[:] = ~flags
    masks[:] = 0
    for diagram in (built, direct):
        assert diagram.masks.tolist() == [0, 1, 2, 3]
        assert diagram.table.tolist() == [[0.0], [1.0], [2.0], [3.0]]
        assert diagram.flags.tolist() == [False, True, False, True]
        assert diagram.edges.tolist() == [[0, 1], [0, 2], [1, 3], [2, 3]]
        for array in (diagram.masks, diagram.table, diagram.flags, diagram.edges):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0


def test_sparse_wide_diagram_renders_without_lattice_sized_tables():
    """Five nodes of a 24-label lattice, read from JSON: the emitters build
    subset text only for these masks and the masks they drop to, never for
    all 2^24 subsets."""
    n = 24
    ms = MarginalSet(['a"b\\c', *(f"m{i}" for i in range(1, n))])
    names = ("x", "y")
    rows = {0: (0.0, 2.0**63), 1: (-1.5, 1e19), 1 << 23: (2.5, -1e300),
            1 | 1 << 5 | 1 << 23: (7.0, -0.0), (1 << n) - 1: (-2.0**64, 0.5)}
    nodes = [OracleNode(ExclusionSet(n, bits), rows[bits], bits % 2 == 1)
             for bits in sorted(rows, key=lambda b: (b.bit_count(), b))]
    covers = [(0, 1), (0, 1 << 23), (1, 1 | 1 << 5 | 1 << 23),
              (1 << 23, 1 | 1 << 5 | 1 << 23), (1 | 1 << 5 | 1 << 23, (1 << n) - 1)]
    edges = [OracleEdge(ExclusionSet(n, lower), ExclusionSet(n, upper),
                        tuple(b - a for a, b in zip(rows[lower], rows[upper])))
             for lower, upper in covers]
    expected_json = scalar_hasse_json(ms, names, nodes, edges)
    expected_dot = scalar_hasse_dot(ms, names, nodes, edges)
    diagram = diagram_from_json(expected_json)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        dot, text = to_dot(diagram), to_json(diagram)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert dot == expected_dot
    assert text == expected_json
    assert peak - base < 2**20


def _traced_peak(call) -> int:
    """Bytes that ``call()`` holds at its peak, as tracemalloc counts them."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_sparse_wide_diagram_finds_rows_without_lattice_sized_tables():
    """A four-node diagram at n = 24 finds its rows by a binary search over
    its masks in outcome, restrict and diagram_from_json: no table of 2^24
    rows."""
    n = 24
    ms = MarginalSet(tuple(f"m{i}" for i in range(n)))
    top = 1 | 1 << 23
    diagram = AnnotatedHasseDiagram(
        ms, ("x",), [0, 1, 1 << 23, top], [[0.0], [1.0], [2.0], [3.0]],
        [False, True, False, True],
    )
    ends = [ExclusionSet(n, top), ExclusionSet(n, 0), ExclusionSet(n, top)]
    for call in (lambda: diagram.outcome(ends[0], "x"),
                 lambda: restrict(diagram, ends),
                 lambda: diagram_from_json(to_json(diagram))):
        assert _traced_peak(call) < 2**20
    assert diagram.outcome(ends[0], "x") == 3.0
    assert restrict(diagram, ends).edge_masks.tolist() == [[0, top]]
    assert to_json(diagram_from_json(to_json(diagram))) == to_json(diagram)
    with pytest.raises(KeyError, match=r"subset \{m2\} is not a node"):
        diagram.outcome(ExclusionSet(n, 4), "x")


def test_restrict_leaves_numpy_ma_unimported():
    """restrict drops repeated rows without np.unique, whose first call
    imports numpy.ma (about 14 ms and 0.5 MB in a fresh process)."""
    code = (
        "import sys\n"
        "from mktsens import ExclusionSet, MarginalSet, hasse_from_table, restrict\n"
        "d = hasse_from_table(MarginalSet(('a', 'b')), ('x',), [[0.0]] * 4, [False] * 4)\n"
        "kept = restrict(d, [ExclusionSet(2, 3), ExclusionSet(2, 0), ExclusionSet(2, 3)])\n"
        "print(kept.masks.tolist(), 'numpy.ma' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["[0,", "3]", "False"]


def test_table_and_flags_must_cover_the_lattice():
    ms = MarginalSet(("a", "b"))
    with pytest.raises(ValueError):
        hasse_from_table(ms, ("x",), [[0.0], [1.0], [2.0]], [False] * 3)


def test_full_lattice_diagram_memory_at_n16():
    """No edges are stored: masks, a three-metric table and flags keep about
    2 MiB, and the arrays built are handed to the diagram without a copy,
    so the peak stays under 4 MiB.  The 524,288 edges, int32 row pairs,
    are derived when they are read."""
    n = 16
    rng = np.random.default_rng(0)
    ms = MarginalSet(tuple(f"m{i}" for i in range(n)))
    table = rng.random((1 << n, 3))
    flags = rng.random(1 << n) < 0.5
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        diagram = hasse_from_table(ms, ("a", "b", "c"), table, flags)
        kept, peak = (size - base for size in tracemalloc.get_traced_memory())
    finally:
        if not tracing:
            tracemalloc.stop()
    assert diagram.edges.dtype == np.int32
    assert len(diagram.edges) == n << (n - 1)
    assert kept < 3 * 2**20
    assert peak < 4 * 2**20


def test_canonical_order_check_holds_a_block_of_keys_at_n18():
    """The diagram checks its nodes' canonical order a block of rows at a
    time: keys for all 2^18 nodes at once, 2 MiB of popcounts and 2 MiB of
    keys, would lift hasse_from_table's peak 4 MiB above what it keeps."""
    n = 18
    rng = np.random.default_rng(0)
    ms = MarginalSet(tuple(f"m{i}" for i in range(n)))
    table = rng.random((1 << n, 3))
    flags = rng.random(1 << n) < 0.5
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        diagram = hasse_from_table(ms, ("a", "b", "c"), table, flags)
        kept, peak = (size - base for size in tracemalloc.get_traced_memory())
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(diagram.masks) == 1 << n
    assert peak < kept + 2 * 2**20


@pytest.mark.parametrize("row,moved", [
    (1, "swapped"), (65535, "swapped"), (65535, "repeated"), (131070, "swapped"),
])
def test_nodes_out_of_canonical_order_are_refused(row, moved):
    """Node ``row`` swapped with, or repeated as, the next node: inside a
    block of the order check, and across the boundary between two blocks."""
    n = 17
    ms = MarginalSet(tuple(f"m{i}" for i in range(n)))
    masks = canonical_masks(n)
    if moved == "swapped":
        masks[[row, row + 1]] = masks[[row + 1, row]]
    else:
        masks[row + 1] = masks[row]
    with pytest.raises(ValueError, match="distinct and in canonical order"):
        AnnotatedHasseDiagram(ms, ("x",), masks, np.zeros((1 << n, 1)),
                              np.zeros(1 << n, bool))
