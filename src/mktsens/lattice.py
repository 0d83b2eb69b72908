"""Exclusion-set lattices and annotated Hasse diagrams.

A marginal set of n labels (e.g. retail formats whose market membership is
contested) induces the Boolean lattice of its 2^n subsets ordered by
inclusion.  Each subset is an "exclusion set": the labels removed from the
candidate market.  This module enumerates that lattice and evaluates an
outcome function once per subset.  A diagram is a (nodes × metrics) outcome
table with a flag per node plus an array of edge endpoints; for the full
lattice the edges are the bit flips that add one label.  DOT and JSON are
rendered straight from those arrays, a block of nodes or edges at a time.

Canonical order everywhere is (cardinality ascending, then bitmask ascending),
so identical inputs always produce byte-identical artifacts.
:func:`canonical_masks` is the one place that puts masks into that order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .display import floor_int
from .errors import CapacityError, DataError, OutcomeEvaluationError
from .jsontext import (
    blocks,
    iter_json_list,
    json_bools,
    json_index_lists,
    json_list,
    json_object_format,
    json_rows,
)

EXACT_ENUMERATION_MAX = 24

T = TypeVar("T")
OutcomeFn = Callable[["ExclusionSet"], Mapping[str, float]]
RuleFn = Callable[[Mapping[str, float]], bool]


@dataclass(frozen=True)
class MarginalSet:
    """The ordered universe of labels whose exclusion is being explored."""

    members: tuple[str, ...]

    def __init__(self, members: Iterable[str]) -> None:
        items = tuple(members)
        if not all(isinstance(m, str) and m for m in items):
            raise ValueError("marginal labels must be nonempty strings")
        if len(set(items)) != len(items):
            raise ValueError("marginal labels must be distinct")
        if len(items) > EXACT_ENUMERATION_MAX:
            raise CapacityError(
                f"marginal set has {len(items)} labels; "
                f"exact enumeration supports at most {EXACT_ENUMERATION_MAX}"
            )
        object.__setattr__(self, "members", items)

    @property
    def n(self) -> int:
        return len(self.members)

    def index_of(self, label: str) -> int:
        try:
            return self.members.index(label)
        except ValueError:
            raise ValueError(f"label {label!r} is not in the marginal set") from None

    def subset_of(self, labels: Iterable[str]) -> "ExclusionSet":
        """Build the exclusion set holding exactly ``labels``."""
        bits = 0
        for label in labels:
            bits |= 1 << self.index_of(label)
        return ExclusionSet(self.n, bits)

    def labels_of(self, subset: "ExclusionSet") -> tuple[str, ...]:
        if subset.n != self.n:
            raise ValueError("subset width does not match this marginal set")
        return tuple(self.members[i] for i in subset.indices)


@dataclass(frozen=True)
class ExclusionSet:
    """A subset of an n-label marginal set, encoded as a bitmask."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("subset width must be nonnegative")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bitmask {self.bits} out of range for width {self.n}")

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "ExclusionSet":
        bits = 0
        for i in indices:
            if not 0 <= i < n:
                raise ValueError(f"index {i} out of range for width {n}")
            bits |= 1 << i
        return cls(n, bits)

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.bits >> i & 1)

    @property
    def sort_key(self) -> tuple[int, int]:
        """Canonical key: cardinality first, bitmask as tiebreak."""
        return (self.size, self.bits)

    def contains(self, index: int) -> bool:
        return bool(self.bits >> index & 1)

    def issubset(self, other: "ExclusionSet") -> bool:
        self._check_width(other)
        return self.bits & ~other.bits == 0

    def with_index(self, index: int) -> "ExclusionSet":
        if not 0 <= index < self.n:
            raise ValueError(f"index {index} out of range for width {self.n}")
        return ExclusionSet(self.n, self.bits | 1 << index)

    def _check_width(self, other: "ExclusionSet") -> None:
        if self.n != other.n:
            raise ValueError("cannot compare subsets of different widths")

    def __lt__(self, other: "ExclusionSet") -> bool:
        self._check_width(other)
        return self.sort_key < other.sort_key

    def __le__(self, other: "ExclusionSet") -> bool:
        self._check_width(other)
        return self.sort_key <= other.sort_key


def _check_width(n: int) -> None:
    if n < 0:
        raise ValueError("subset width must be nonnegative")
    if n > EXACT_ENUMERATION_MAX:
        raise CapacityError(
            f"cannot enumerate 2^{n} subsets; limit is n = {EXACT_ENUMERATION_MAX}"
        )


def _popcounts(masks: np.ndarray, n: int) -> np.ndarray:
    """The number of set bits of each bitmask of width ``n``."""
    sizes = np.zeros_like(masks)
    for i in range(n):
        sizes += masks >> i & 1
    return sizes


def _canonical_keys(masks: np.ndarray, n: int) -> np.ndarray:
    """Keys that sort bitmasks of width ``n`` into canonical order."""
    return _popcounts(masks, n) << n | masks


def canonical_masks(n: int) -> np.ndarray:
    """All 2^n bitmasks of width ``n`` in canonical order, as int64."""
    _check_width(n)
    masks = np.arange(1 << n, dtype=np.int64)
    return masks[np.argsort(_canonical_keys(masks, n))]


def enumerate_subsets(n: int) -> list[ExclusionSet]:
    """All 2^n subsets in canonical order."""
    return [ExclusionSet(n, bits) for bits in canonical_masks(n).tolist()]


def evaluate_subsets(
    n: int,
    fn: Callable[[ExclusionSet], T],
    what: str,
    labels: Sequence[str] | None = None,
) -> list[T]:
    """``fn`` of every subset of ``n`` labels, as a list indexed by bitmask.

    This is the one loop that calls caller code over a lattice: ``fn`` runs
    exactly once per subset, in bitmask order.  A failure is re-raised as
    :class:`OutcomeEvaluationError` naming ``what`` and the subset by its
    ``labels`` (player indices by default), e.g. ``{a, b}``.
    """
    _check_width(n)
    names = labels if labels is not None else [str(i) for i in range(n)]
    values = []
    for mask in range(1 << n):
        subset = ExclusionSet(n, mask)
        try:
            values.append(fn(subset))
        except Exception as exc:
            members = ", ".join(names[i] for i in subset.indices)
            raise OutcomeEvaluationError(
                f"{what} failed on subset {{{members}}}: {exc}"
            ) from exc
    return values


def covers(a: ExclusionSet, b: ExclusionSet) -> bool:
    """True when ``b`` covers ``a``: a ⊂ b and |b| = |a| + 1."""
    a._check_width(b)
    diff = b.bits & ~a.bits
    return a.bits & ~b.bits == 0 and diff != 0 and diff & (diff - 1) == 0


def _frozen_array(
    values: np.typing.ArrayLike, dtype, shape: tuple[int | None, ...], what: str
) -> np.ndarray:
    """A read-only copy of ``values``; None in ``shape`` matches any length."""
    array = np.array(values, dtype=dtype)
    if array.ndim != len(shape) or any(
        want is not None and got != want for got, want in zip(array.shape, shape)
    ):
        raise ValueError(f"{what} has shape {array.shape}, expected {shape}")
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class AnnotatedHasseDiagram:
    """An exclusion-set lattice with per-node outcome vectors, held as arrays.

    ``masks`` lists the node subsets as bitmasks in canonical order;
    ``table`` holds one float64 row of outcomes (in ``metric_names`` order)
    per node and ``flags`` marks the nodes that trigger the decision rule.
    ``edge_masks`` holds one (lower, upper) bitmask pair per edge, and an
    edge's deltas are always the upper row minus the lower row
    (:meth:`edge_deltas`).
    """

    marginal_set: MarginalSet
    metric_names: tuple[str, ...]
    masks: np.ndarray
    table: np.ndarray
    flags: np.ndarray
    edge_masks: np.ndarray
    _keys: np.ndarray = field(init=False, repr=False)
    _edge_rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = self.marginal_set.n
        masks = _frozen_array(self.masks, np.int64, (None,), "node masks")
        count = len(masks)
        table = _frozen_array(
            self.table, np.float64, (count, len(self.metric_names)),
            "outcome table",
        )
        flags = _frozen_array(self.flags, bool, (count,), "flags")
        edge_masks = _frozen_array(self.edge_masks, np.int64, (None, 2),
                                   "edge masks")
        for what, bits in (("node", masks), ("edge", edge_masks)):
            if bits.size and not (bits.min() >= 0 and bits.max() < 1 << n):
                raise ValueError(f"{what} bitmask out of range for width {n}")
        keys = _canonical_keys(masks, n)
        if np.any(np.diff(keys) <= 0):
            raise ValueError("diagram nodes must be distinct and in canonical order")
        for name, value in (("masks", masks), ("table", table), ("flags", flags),
                            ("edge_masks", edge_masks), ("_keys", keys)):
            object.__setattr__(self, name, value)
        edge_rows = self._rows_of(edge_masks)
        missing = np.flatnonzero((edge_rows < 0).any(axis=1))
        if missing.size:
            lower, upper = (ExclusionSet(n, int(bits))
                            for bits in edge_masks[missing[0]])
            raise ValueError(
                f"edge {subset_label(self.marginal_set, lower)} -> "
                f"{subset_label(self.marginal_set, upper)} "
                "has an endpoint that is not a node"
            )
        object.__setattr__(self, "_edge_rows", edge_rows)

    def _rows_of(self, bits: np.ndarray) -> np.ndarray:
        """Table row of each in-range bitmask in ``bits``; -1 if not a node."""
        wanted = _canonical_keys(bits, self.marginal_set.n)
        rows = np.searchsorted(self._keys, wanted)
        found = rows < len(self._keys)
        found[found] = self._keys[rows[found]] == wanted[found]
        return np.where(found, rows, -1)

    def _row(self, subset: ExclusionSet) -> int:
        if subset.n != self.marginal_set.n:
            raise ValueError("subset width does not match the diagram")
        row = int(self._rows_of(np.array([subset.bits], dtype=np.int64))[0])
        if row < 0:
            raise KeyError(f"subset {subset_label(self.marginal_set, subset)} "
                           "is not a node of this diagram")
        return row

    def edge_deltas(self) -> np.ndarray:
        """(edges × metrics) outcomes of each upper node minus its lower."""
        return self._deltas(self._edge_rows)

    def _deltas(self, edge_rows: np.ndarray) -> np.ndarray:
        # Like Python float subtraction: inf - inf is NaN, silently.
        with np.errstate(invalid="ignore", over="ignore"):
            return self.table[edge_rows[:, 1]] - self.table[edge_rows[:, 0]]

    def outcome(self, subset: ExclusionSet, metric: str) -> float:
        row = self._row(subset)
        try:
            pos = self.metric_names.index(metric)
        except ValueError:
            raise KeyError(f"unknown metric {metric!r}") from None
        return float(self.table[row, pos])


def subset_label(ms: MarginalSet, subset: ExclusionSet) -> str:
    """Human-readable name for a subset, e.g. ``{club, natural}``."""
    labels = ms.labels_of(subset)
    return "{" + ", ".join(labels) + "}" if labels else "{}"


def hasse_from_table(
    ms: MarginalSet,
    metric_names: Sequence[str],
    table: np.typing.ArrayLike,
    flags: np.typing.ArrayLike,
) -> AnnotatedHasseDiagram:
    """The diagram of the full lattice of ``ms`` from arrays indexed by mask.

    ``table`` is (2^n × metrics) and ``flags`` has 2^n entries.  The edges
    come from bit flips: each node in canonical order, then each bit it
    lacks in increasing order, which is already canonical edge order.
    """
    n = ms.n
    table = np.asarray(table, dtype=np.float64)
    flags = np.asarray(flags, dtype=bool)
    if len(table) != 1 << n or len(flags) != 1 << n:
        raise ValueError(f"outcome table and flags need 2^{n} rows")
    masks = canonical_masks(n)
    bits = np.left_shift(1, np.arange(n, dtype=np.int64))
    lower = np.broadcast_to(masks[:, None], (len(masks), n))
    lacking = lower & bits == 0
    edge_masks = np.stack((lower[lacking], (lower | bits)[lacking]), axis=1)
    return AnnotatedHasseDiagram(
        ms, tuple(metric_names), masks, table[masks], flags[masks], edge_masks
    )


def build_hasse(
    ms: MarginalSet,
    f: OutcomeFn,
    rule: RuleFn | None = None,
) -> AnnotatedHasseDiagram:
    """Evaluate ``f`` over the full lattice and assemble the diagram.

    ``f`` is called exactly once per subset; its value on the empty set fixes
    the metric names and every other subset must produce the same key set.
    ``rule``, when given, marks nodes whose outcome vector triggers it.
    """
    raw = evaluate_subsets(ms.n, f, "outcome function", ms.members)
    metric_names = tuple(raw[0].keys())
    if not metric_names:
        raise OutcomeEvaluationError(
            "outcome function returned an empty metric vector"
        )
    for subset in enumerate_subsets(ms.n):
        if set(raw[subset.bits].keys()) != set(metric_names):
            raise OutcomeEvaluationError(
                f"outcome function returned inconsistent metrics on subset "
                f"{subset_label(ms, subset)}: expected {sorted(metric_names)}, "
                f"got {sorted(raw[subset.bits].keys())}"
            )
    outcomes = [[float(r[name]) for name in metric_names] for r in raw]
    if rule is None:
        flags = [False] * len(outcomes)
    else:
        flags = evaluate_subsets(
            ms.n,
            lambda s: bool(rule(dict(zip(metric_names, outcomes[s.bits])))),
            "decision rule",
            ms.members,
        )
    return hasse_from_table(ms, metric_names, outcomes, flags)


def restrict(
    diagram: AnnotatedHasseDiagram, keep: Iterable[ExclusionSet]
) -> AnnotatedHasseDiagram:
    """Induced sub-diagram on ``keep``, with the covering relation recomputed.

    Two kept subsets are joined iff one contains the other and no third kept
    subset sits strictly between them, so chains through dropped nodes
    collapse to single edges.  The cover search compares every pair of kept
    supersets of each kept node, so it is quadratic to cubic in the nodes
    kept.
    """
    rows = []
    for subset in keep:
        try:
            rows.append(diagram._row(subset))
        except KeyError as exc:
            raise ValueError(*exc.args) from None
    rows = np.unique(np.array(rows, dtype=np.int64))
    masks = diagram.masks[rows]
    pairs = [np.empty((0, 2), dtype=np.int64)]
    for i, lower in enumerate(masks.tolist()):
        # Strict supersets come later in canonical order.
        above = masks[i + 1:][masks[i + 1:] & lower == lower]
        inside = above[:, None] & ~above[None, :] == 0
        uppers = above[np.count_nonzero(inside, axis=0) == 1]
        pairs.append(np.stack((np.full_like(uppers, lower), uppers), axis=1))
    return AnnotatedHasseDiagram(
        diagram.marginal_set, diagram.metric_names, masks, diagram.table[rows],
        diagram.flags[rows], np.concatenate(pairs),
    )


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def iter_dot(
    diagram: AnnotatedHasseDiagram, label_metrics: Sequence[str] | None = None
) -> Iterator[str]:
    """Render the diagram as Graphviz DOT, in chunks of about
    :data:`~mktsens.jsontext.EMIT_BLOCK` nodes or edges.

    Nodes sit on ranks by cardinality with the empty set at the bottom and
    are labelled with the floors of ``label_metrics`` (every metric by
    default); flagged nodes are filled light coral.  Edge labels show the
    change in each displayed metric, computed on the floored node values so
    the arithmetic visibly adds up.
    """
    positions = []
    for name in label_metrics or diagram.metric_names:
        if name not in diagram.metric_names:
            raise ValueError(f"unknown metric {name!r} in label_metrics")
        positions.append(diagram.metric_names.index(name))
    members = diagram.marginal_set.members
    # A rank closes after the last node of each cardinality.
    sizes = _popcounts(diagram.masks, len(members)).tolist() + [-1]
    ids: list[str] = []
    shown: list[list[int]] = []
    layer: list[str] = []
    yield ('digraph hasse {\n  rankdir=BT;\n'
           '  node [shape=box, style=filled, fillcolor=white];\n')
    for rows in blocks(len(diagram.masks)):
        lines = []
        block = zip(diagram.masks[rows].tolist(),
                    diagram.table[rows][:, positions].tolist(),
                    diagram.flags[rows].tolist())
        for row, (bits, values, flagged) in enumerate(block, rows.start):
            names = [label for i, label in enumerate(members) if bits >> i & 1]
            node_id = f'"{_dot_escape("_".join(names) if names else "empty")}"'
            ids.append(node_id)
            display = [floor_int(v) for v in values]
            shown.append(display)
            name = _dot_escape("{" + ", ".join(names) + "}")
            # Integers need no DOT escaping.
            text = ", ".join(map(str, display))
            fill = ', fillcolor="lightcoral"' if flagged else ""
            lines.append(f'  {node_id} [label="{name}\\n{text}"{fill}];\n')
            layer.append(node_id)
            if sizes[row + 1] != sizes[row]:
                lines.append(f"  {{ rank=same; {'; '.join(layer)}; }}\n")
                layer = []
        yield "".join(lines)
    columns = list(zip(*shown))
    for rows in blocks(len(diagram._edge_rows)):
        lower, upper = diagram._edge_rows[rows].T.tolist()
        # Signed numbers need no DOT escaping.
        parts = [[format(column[t] - column[f], "+d")
                  for f, t in zip(lower, upper)] for column in columns]
        labels = map(", ".join, zip(*parts)) if parts else [""] * len(lower)
        yield "".join(map('  {} -> {} [label="{}"];\n'.format,
                          map(ids.__getitem__, lower),
                          map(ids.__getitem__, upper), labels))
    yield "}\n"


def to_dot(
    diagram: AnnotatedHasseDiagram, label_metrics: Sequence[str] | None = None
) -> str:
    """The whole text of :func:`iter_dot`."""
    return "".join(iter_dot(diagram, label_metrics))


_JSON_NODE = json_object_format(("subset", "outcomes", "flagged"), 2)
_JSON_EDGE = json_object_format(("from", "to", "deltas"), 2)


def iter_json(diagram: AnnotatedHasseDiagram) -> Iterator[str]:
    """Serialize the diagram to a stable JSON document, in chunks of about
    :data:`~mktsens.jsontext.EMIT_BLOCK` nodes or edges.

    Schema: {"marginal_set": [labels], "metrics": [names],
    "nodes": [{"subset": [indices], "outcomes": [...], "flagged": bool}],
    "edges": [{"from": [indices], "to": [indices], "deltas": [...]}]}.
    The text is the same as ``json.dumps(doc, indent=2)`` plus a newline.
    """
    subsets = json_index_lists(diagram.masks, diagram.marginal_set.n, 3)
    labels = json_list(list(map(json.dumps, diagram.marginal_set.members)), 1)
    metrics = json_list(list(map(json.dumps, diagram.metric_names)), 1)
    yield (f'{{\n  "marginal_set": {labels},\n  "metrics": {metrics},'
           '\n  "nodes": ')

    def nodes(rows: slice) -> list[str]:
        return list(map(_JSON_NODE, subsets[rows],
                        json_rows(diagram.table[rows], 3),
                        json_bools(diagram.flags[rows])))

    def edges(rows: slice) -> list[str]:
        edge_rows = diagram._edge_rows[rows]
        lower, upper = edge_rows.T.tolist()
        return list(map(_JSON_EDGE, map(subsets.__getitem__, lower),
                        map(subsets.__getitem__, upper),
                        json_rows(diagram._deltas(edge_rows), 3)))

    yield from iter_json_list(map(nodes, blocks(len(subsets))), 1)
    yield ',\n  "edges": '
    yield from iter_json_list(map(edges, blocks(len(diagram._edge_rows))), 1)
    yield "\n}\n"


def to_json(diagram: AnnotatedHasseDiagram) -> str:
    """The whole text of :func:`iter_json`."""
    return "".join(iter_json(diagram))


def diagram_from_json(text: str) -> AnnotatedHasseDiagram:
    """Inverse of :func:`to_json`; validates structure as it reads.

    Nodes may come in any order but must be distinct; every edge must join
    two nodes, and its deltas must equal the difference of their outcomes.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"diagram JSON is not valid JSON: {exc}") from exc
    try:
        ms = MarginalSet(doc["marginal_set"])
        metric_names = tuple(str(m) for m in doc["metrics"])
        nodes = [
            (ExclusionSet.from_indices(ms.n, entry["subset"]),
             [float(v) for v in entry["outcomes"]],
             bool(entry["flagged"]))
            for entry in doc["nodes"]
        ]
        edges = [
            (ExclusionSet.from_indices(ms.n, entry["from"]),
             ExclusionSet.from_indices(ms.n, entry["to"]),
             [float(v) for v in entry["deltas"]])
            for entry in doc["edges"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"diagram JSON is malformed: {exc}") from exc
    width = len(metric_names)
    if any(len(outcomes) != width for _, outcomes, _ in nodes):
        raise DataError("diagram JSON node outcome width does not match metrics")
    if any(len(deltas) != width for _, _, deltas in edges):
        raise DataError("diagram JSON edge delta width does not match metrics")
    masks = np.array([subset.bits for subset, _, _ in nodes], dtype=np.int64)
    order = np.argsort(_canonical_keys(masks, ms.n))
    twice = masks[order][1:][np.diff(masks[order]) == 0]
    if twice.size:
        subset = subset_label(ms, ExclusionSet(ms.n, int(twice[0])))
        raise DataError(f"diagram JSON lists node {subset} twice")
    try:
        diagram = AnnotatedHasseDiagram(
            ms,
            metric_names,
            masks[order],
            np.array([outcomes for _, outcomes, _ in nodes],
                     dtype=np.float64).reshape(len(nodes), width)[order],
            np.array([flagged for _, _, flagged in nodes], dtype=bool)[order],
            np.array([(lower.bits, upper.bits) for lower, upper, _ in edges],
                     dtype=np.int64).reshape(len(edges), 2),
        )
    except ValueError as exc:
        raise DataError(f"diagram JSON is inconsistent: {exc}") from exc
    stated = np.array([deltas for _, _, deltas in edges],
                      dtype=np.float64).reshape(len(edges), width)
    derived = diagram.edge_deltas()
    # 0.0 and -0.0 compare equal but print differently, so signs count too.
    same = ((stated == derived) & (np.signbit(stated) == np.signbit(derived))
            | np.isnan(stated) & np.isnan(derived))
    wrong = np.flatnonzero(~same.all(axis=1))
    if wrong.size:
        lower, upper, deltas = edges[wrong[0]]
        raise DataError(
            f"diagram JSON edge {subset_label(ms, lower)} -> "
            f"{subset_label(ms, upper)} has deltas {deltas}, but its nodes "
            f"differ by {derived[wrong[0]].tolist()}"
        )
    return diagram
