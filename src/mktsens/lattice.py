"""Exclusion-set lattices and annotated Hasse diagrams.

A marginal set of n labels (e.g. retail formats whose market membership is
contested) induces the Boolean lattice of its 2^n subsets ordered by
inclusion.  Each subset is an "exclusion set": the labels removed from the
candidate market.  This module enumerates that lattice and evaluates an
outcome function once per subset.  A diagram is a (nodes × metrics) outcome
table with a flag per node plus an array of edge endpoints; for the full
lattice the edges are the bit flips that add one label.  DOT and JSON are
rendered straight from those arrays.

Canonical order everywhere is (cardinality ascending, then bitmask ascending),
so identical inputs always produce byte-identical artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from .display import floor_int, round_half_up
from .errors import CapacityError, DataError, OutcomeEvaluationError

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


def enumerate_subsets(n: int) -> list[ExclusionSet]:
    """All 2^n subsets in canonical order.

    Within each cardinality layer masks are generated in increasing numeric
    order via Gosper's hack, so no sort pass is needed.
    """
    _check_width(n)
    out = [ExclusionSet(n, 0)]
    for k in range(1, n + 1):
        mask = (1 << k) - 1
        limit = 1 << n
        while mask < limit:
            out.append(ExclusionSet(n, mask))
            # Gosper's hack: next-larger mask with the same popcount.
            low = mask & -mask
            ripple = mask + low
            mask = ripple | ((mask ^ ripple) >> (low.bit_length() + 1))
    return out


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


@dataclass(frozen=True)
class HasseNode:
    """Read-only view of one node of an :class:`AnnotatedHasseDiagram`."""

    subset: ExclusionSet
    outcomes: tuple[float, ...]
    flagged: bool = False


@dataclass(frozen=True)
class HasseEdge:
    """Read-only view of one edge of an :class:`AnnotatedHasseDiagram`."""

    from_subset: ExclusionSet
    to_subset: ExclusionSet
    deltas: tuple[float, ...]


@dataclass(frozen=True)
class DotStyle:
    """Rendering knobs for :func:`to_dot`."""

    floor_labels: bool = True
    decimals: int = 1
    alert_fill: str = "lightcoral"
    label_metrics: tuple[str, ...] | None = None


def _canonical_keys(masks: np.ndarray, n: int) -> np.ndarray:
    """Keys that sort bitmasks of width ``n`` into canonical order."""
    sizes = np.zeros_like(masks)
    for i in range(n):
        sizes += masks >> i & 1
    return sizes << n | masks


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
    edge's deltas are always the upper row minus the lower row.  ``nodes``
    and ``edges`` are object views built on first use.
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
        upper, lower = self._edge_rows[:, 1], self._edge_rows[:, 0]
        # Like Python float subtraction: inf - inf is NaN, silently.
        with np.errstate(invalid="ignore", over="ignore"):
            return self.table[upper] - self.table[lower]

    @cached_property
    def nodes(self) -> tuple[HasseNode, ...]:
        n = self.marginal_set.n
        return tuple(
            HasseNode(ExclusionSet(n, bits), tuple(outcomes), flagged)
            for bits, outcomes, flagged in zip(
                self.masks.tolist(), self.table.tolist(), self.flags.tolist()
            )
        )

    @cached_property
    def edges(self) -> tuple[HasseEdge, ...]:
        n = self.marginal_set.n
        return tuple(
            HasseEdge(ExclusionSet(n, lower), ExclusionSet(n, upper),
                      tuple(deltas))
            for (lower, upper), deltas in zip(
                self.edge_masks.tolist(), self.edge_deltas().tolist()
            )
        )

    def node_for(self, subset: ExclusionSet) -> HasseNode:
        row = self._row(subset)
        return HasseNode(subset, tuple(self.table[row].tolist()),
                         bool(self.flags[row]))

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
    masks = np.arange(1 << n, dtype=np.int64)
    masks = masks[np.argsort(_canonical_keys(masks, n))]
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


def _metric_positions(
    diagram: AnnotatedHasseDiagram, style: DotStyle
) -> list[int]:
    wanted = style.label_metrics or diagram.metric_names
    positions = []
    for name in wanted:
        if name not in diagram.metric_names:
            raise ValueError(f"unknown metric {name!r} in label_metrics")
        positions.append(diagram.metric_names.index(name))
    return positions


def to_dot(diagram: AnnotatedHasseDiagram, style: DotStyle = DotStyle()) -> str:
    """Render the diagram as Graphviz DOT.

    Nodes sit on ranks by cardinality with the empty set at the bottom; edge
    labels show the change in each displayed metric, computed on the displayed
    (floored or rounded) node values so the arithmetic visibly adds up.
    """
    positions = _metric_positions(diagram, style)
    if style.floor_labels:
        node_spec, edge_spec = "d", "+d"
    else:
        node_spec, edge_spec = f".{style.decimals}f", f"+.{style.decimals}f"
    members = diagram.marginal_set.members
    labels = [tuple(label for i, label in enumerate(members) if bits >> i & 1)
              for bits in diagram.masks.tolist()]
    ids = [f'"{_dot_escape("_".join(names) if names else "empty")}"'
           for names in labels]
    fill = f', fillcolor="{_dot_escape(style.alert_fill)}"'
    lines = ["digraph hasse {", "  rankdir=BT;",
             '  node [shape=box, style=filled, fillcolor=white];']
    shown = []
    layer: list[str] = []
    rows = zip(ids, labels, diagram.table[:, positions].tolist(),
               diagram.flags.tolist())
    for row, (node_id, names, values, flagged) in enumerate(rows):
        display = [floor_int(v) if style.floor_labels
                   else round_half_up(v, style.decimals) for v in values]
        shown.append(display)
        name = _dot_escape("{" + ", ".join(names) + "}")
        text = _dot_escape(", ".join(format(v, node_spec) for v in display))
        lines.append(f'  {node_id} [label="{name}\\n{text}"'
                     f'{fill if flagged else ""}];')
        layer.append(node_id)
        if row + 1 == len(labels) or len(labels[row + 1]) != len(names):
            lines.append(f"  {{ rank=same; {'; '.join(layer)}; }}")
            layer = []
    lower, upper = diagram._edge_rows.T.tolist()
    # Signed numbers need no DOT escaping.
    parts = [[format(column[t] - column[f], edge_spec)
              for f, t in zip(lower, upper)] for column in zip(*shown)]
    edge_labels = map(", ".join, zip(*parts)) if parts else [""] * len(lower)
    lines.extend(map('  {} -> {} [label="{}"];'.format,
                     map(ids.__getitem__, lower), map(ids.__getitem__, upper),
                     edge_labels))
    lines.append("}")
    return "\n".join(lines) + "\n"


_NONFINITE_JSON = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# One node and one edge entry as json.dumps(doc, indent=2) lays them out.
_JSON_NODE = ('{{\n      "subset": {},\n      "outcomes": {},'
              '\n      "flagged": {}\n    }}').format
_JSON_EDGE = ('{{\n      "from": {},\n      "to": {},'
              '\n      "deltas": {}\n    }}').format


def _json_list(items: Sequence[str], depth: int) -> str:
    """A JSON array of encoded ``items`` opened at indent level ``depth``."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def _json_rows(values: np.ndarray) -> list[str]:
    """Each row of a float array as a JSON array at indent level 3, with
    json's float text: ``repr`` when finite, else NaN or (-)Infinity."""
    rows, width = values.shape
    if not width:
        return ["[]"] * rows
    flat = values.ravel()
    texts = list(map(repr, flat.tolist()))
    for i in np.flatnonzero(~np.isfinite(flat)).tolist():
        texts[i] = _NONFINITE_JSON[texts[i]]
    row = _json_list(["{}"] * width, 3)
    return list(map(row.format, *(texts[k::width] for k in range(width))))


def to_json(diagram: AnnotatedHasseDiagram) -> str:
    """Serialize the diagram to a stable JSON document.

    Schema: {"marginal_set": [labels], "metrics": [names],
    "nodes": [{"subset": [indices], "outcomes": [...], "flagged": bool}],
    "edges": [{"from": [indices], "to": [indices], "deltas": [...]}]}.
    The text is the same as ``json.dumps(doc, indent=2)`` plus a newline.
    """
    n = diagram.marginal_set.n
    subsets = [_json_list([str(i) for i in range(n) if bits >> i & 1], 3)
               for bits in diagram.masks.tolist()]
    nodes = list(map(_JSON_NODE, subsets, _json_rows(diagram.table),
                     map(("false", "true").__getitem__, diagram.flags.tolist())))
    lower, upper = diagram._edge_rows.T.tolist()
    edges = list(map(_JSON_EDGE, map(subsets.__getitem__, lower),
                     map(subsets.__getitem__, upper),
                     _json_rows(diagram.edge_deltas())))
    header = (
        _json_list(list(map(json.dumps, diagram.marginal_set.members)), 1),
        _json_list(list(map(json.dumps, diagram.metric_names)), 1),
    )
    return (f'{{\n  "marginal_set": {header[0]},\n  "metrics": {header[1]},'
            f'\n  "nodes": {_json_list(nodes, 1)},'
            f'\n  "edges": {_json_list(edges, 1)}\n}}\n')


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
    seen: set[int] = set()
    for subset, _, _ in nodes:
        if subset.bits in seen:
            raise DataError(
                f"diagram JSON lists node {subset_label(ms, subset)} twice"
            )
        seen.add(subset.bits)
    nodes.sort(key=lambda node: node[0].sort_key)
    try:
        diagram = AnnotatedHasseDiagram(
            ms,
            metric_names,
            np.array([subset.bits for subset, _, _ in nodes], dtype=np.int64),
            np.array([outcomes for _, outcomes, _ in nodes],
                     dtype=np.float64).reshape(len(nodes), width),
            np.array([flagged for _, _, flagged in nodes], dtype=bool),
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
