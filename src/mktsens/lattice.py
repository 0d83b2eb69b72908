"""Exclusion-set lattices and annotated Hasse diagrams.

A marginal set of n labels (e.g. retail formats whose market membership is
contested) induces the Boolean lattice of its 2^n subsets ordered by
inclusion.  Each subset is an "exclusion set": the labels removed from the
candidate market.  This module enumerates that lattice and evaluates an
outcome function once per subset.  A diagram is a (nodes × metrics) outcome
table with a flag per node; its edges, the covering relation of its nodes,
are derived a block at a time when read and never stored.  On the full
lattice they are the bit flips that add one label.  DOT and JSON are
rendered straight from those arrays, a block of nodes or edges at a time.

Canonical order everywhere is (cardinality ascending, then bitmask ascending),
so identical inputs always produce byte-identical artifacts.
:func:`canonical_masks` is the one place that puts masks into that order.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field
from functools import partial
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .display import floor_int
from .errors import CapacityError, DataError, OutcomeEvaluationError
from .jsontext import (
    SLOT,
    blocks,
    iter_json_list,
    join_records,
    json_columns,
    json_index_lists,
    json_list,
    json_template,
    subset_texts,
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


def subset_sizes(n: int) -> np.ndarray:
    """The size of every subset of ``n`` labels by bitmask, as uint8 (n <= 24)."""
    sizes = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        # Masks 2^i .. 2^(i+1) - 1 are masks 0 .. 2^i - 1 plus bit i.
        sizes = np.concatenate((sizes, sizes + 1))
    return sizes


def canonical_masks(n: int) -> np.ndarray:
    """All 2^n bitmasks of width ``n`` in canonical order, as int64."""
    _check_width(n)
    # A stable sort keeps masks of one size in ascending order.
    return np.argsort(subset_sizes(n), kind="stable").astype(np.int64, copy=False)


def first_marked(marked: np.ndarray, n: int, start: int = 0) -> ExclusionSet:
    """The first subset in canonical order that ``marked``, a boolean array
    indexed by bitmask from mask ``start`` on, marks; it must mark one."""
    masks = np.flatnonzero(marked) + start
    return ExclusionSet(n, int(masks[np.argmin(_canonical_keys(masks, n))]))


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
    values: np.typing.ArrayLike, dtype, shape: tuple[int | None, ...], what: str,
    limit: int | None = None, copy: bool = True,
) -> np.ndarray:
    """``values`` read-only, and copied unless ``copy`` is false; None in
    ``shape`` matches any length.  With ``limit``, values must lie in [0,
    limit), checked before the cast to ``dtype`` so that none can wrap."""
    array = np.asarray(values)
    if limit is not None and array.size:
        if not 0 <= array.min() <= array.max() < limit:
            raise ValueError(f"{what} out of range [0, {limit})")
    array = np.array(array, dtype=dtype) if copy else np.asarray(array, dtype=dtype)
    if array.ndim != len(shape) or any(
        want is not None and got != want for got, want in zip(array.shape, shape)
    ):
        raise ValueError(f"{what} has shape {array.shape}, expected {shape}")
    array.flags.writeable = False
    return array


def _find_rows(values: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Row of each of ``wanted`` in the distinct ``values``, or -1 where it
    is absent: a binary search in the values' numeric order."""
    order = np.argsort(values)
    rows = np.append(order, -1)[values[order].searchsorted(wanted)]
    return np.where(np.append(values, -1)[rows] == wanted, rows, -1)


def _edge_deltas(table: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """(edges × metrics) outcomes of each upper row minus its lower row."""
    # Like Python float subtraction: inf - inf is NaN, silently.
    with np.errstate(invalid="ignore", over="ignore"):
        return table[edges[:, 1]] - table[edges[:, 0]]


def _edge_blocks(diagram: AnnotatedHasseDiagram) -> Iterator[np.ndarray]:
    """The covering relation of the diagram's nodes as int32 (lower row,
    upper row) blocks of at most ``EMIT_BLOCK`` edges, by lower row and then
    upper row.  On all 2^n nodes the covers are the bit flips, each at its
    mask's canonical rank; otherwise a search over every pair of each node's
    supersets finds them, quadratic to cubic in the nodes.
    """
    masks, n = diagram.masks, diagram.marginal_set.n
    full = len(masks) == 1 << n
    if full:
        rank = np.empty(len(masks), dtype=np.int32)
        rank[masks] = np.arange(len(masks), dtype=np.int32)
    for rows in blocks(len(masks), max(n // 2, 1)):  # n / 2 covers a row on average
        if full:
            lower, bit = np.nonzero(masks[rows, None] & 1 << np.arange(n) == 0)
            upper = rank[masks[rows][lower] | 1 << bit]
            lower += rows.start
        else:
            lower, upper = [], []
            for i in range(*rows.indices(len(masks))):
                # Strict supersets come later in canonical order.
                above = i + 1 + np.flatnonzero(masks[i + 1:] & masks[i] == masks[i])
                inside = masks[above][:, None] & ~masks[above][None, :] == 0
                covering = above[np.count_nonzero(inside, axis=0) == 1].tolist()
                lower += [i] * len(covering)
                upper += covering
        pairs = np.array((lower, upper), dtype=np.int32).T
        yield from map(pairs.__getitem__, blocks(len(pairs)))


@dataclass(frozen=True, eq=False)
class AnnotatedHasseDiagram:
    """An exclusion-set lattice with per-node outcome vectors, held as arrays.

    ``masks`` lists the node subsets as bitmasks in canonical order;
    ``table`` holds one float64 row of outcomes (in ``metric_names`` order)
    per node and ``flags`` marks the nodes that trigger the decision rule.
    Its edges, the covering relation of the nodes, are not stored:
    :attr:`edges` and the emitters derive them on each read.  An edge's
    bitmasks are :attr:`edge_masks`, and its deltas are always the upper row
    minus the lower row (:meth:`edge_deltas`).

    It freezes copies of the arrays it is given, unless ``_owned``: this
    module's producers hand over arrays that nothing else holds.
    """

    marginal_set: MarginalSet
    metric_names: tuple[str, ...]
    masks: np.ndarray
    table: np.ndarray
    flags: np.ndarray
    _owned: InitVar[bool] = field(default=False, kw_only=True)

    def __post_init__(self, _owned: bool) -> None:
        n = self.marginal_set.n
        frozen = partial(_frozen_array, copy=not _owned)
        masks = frozen(self.masks, np.int64, (None,), "node masks", 1 << n)
        count = len(masks)
        table = frozen(
            self.table, np.float64, (count, len(self.metric_names)),
            "outcome table",
        )
        flags = frozen(self.flags, bool, (count,), "flags")
        # A block of rows at a time, each with the row before it: the keys of
        # every node at once would set the peak of the diagram's producers.
        for start in range(0, count, 1 << 16):
            keys = _canonical_keys(masks[max(start - 1, 0):start + (1 << 16)], n)
            if np.any(np.diff(keys) <= 0):
                raise ValueError(
                    "diagram nodes must be distinct and in canonical order")
        for name, value in (("masks", masks), ("table", table), ("flags", flags)):
            object.__setattr__(self, name, value)

    @property
    def edges(self) -> np.ndarray:
        """Each edge as an int32 (lower row, upper row) pair, in canonical edge
        order; derived on each read, read-only."""
        edges = np.concatenate((np.empty((0, 2), dtype=np.int32), *_edge_blocks(self)))
        edges.flags.writeable = False
        return edges

    @property
    def edge_masks(self) -> np.ndarray:
        """Each edge's (lower, upper) bitmasks, ``masks[edges]``, read-only."""
        edge_masks = self.masks[self.edges]
        edge_masks.flags.writeable = False
        return edge_masks

    def _rows(self, subsets: Iterable[ExclusionSet]) -> np.ndarray:
        """Table row of each subset; KeyError names one that is not a node."""
        subsets = list(subsets)
        if any(subset.n != self.marginal_set.n for subset in subsets):
            raise ValueError("subset width does not match the diagram")
        rows = _find_rows(self.masks, np.array([s.bits for s in subsets], np.int64))
        if (rows < 0).any():
            absent = subsets[int(np.argmin(rows))]
            raise KeyError(f"subset {subset_label(self.marginal_set, absent)} "
                           "is not a node of this diagram")
        return rows

    def edge_deltas(self) -> np.ndarray:
        """(edges × metrics) outcomes of each upper node minus its lower."""
        return _edge_deltas(self.table, self.edges)

    def outcome(self, subset: ExclusionSet, metric: str) -> float:
        """One outcome; each call sorts the node masks to find its row."""
        (row,) = self._rows([subset])
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

    ``table`` is (2^n × metrics) and ``flags`` has 2^n entries; the diagram
    holds their rows in canonical order.  It stores no edges: those of the
    full lattice are the bit flips, derived whenever they are read.
    """
    n = ms.n
    table = np.asarray(table, dtype=np.float64)
    flags = np.asarray(flags, dtype=bool)
    if len(table) != 1 << n or len(flags) != 1 << n:
        raise ValueError(f"outcome table and flags need 2^{n} rows")
    masks = canonical_masks(n)
    return AnnotatedHasseDiagram(
        ms, tuple(metric_names), masks, table[masks], flags[masks], _owned=True
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
    """Induced sub-diagram on ``keep``: the kept nodes' rows.

    Its edges, derived when read, join two kept subsets iff one contains the
    other and no third kept subset sits strictly between them, so chains
    through dropped nodes collapse to single edges.  Unless every node is
    kept, the cover search that finds them, quadratic to cubic in the nodes
    kept, runs again each time the diagram is emitted.
    """
    try:
        rows = np.sort(diagram._rows(keep))
    except KeyError as exc:
        raise ValueError(*exc.args) from None
    # Drop repeats; np.unique would import numpy.ma.
    rows = rows[np.diff(rows, prepend=-1) != 0]
    return AnnotatedHasseDiagram(
        diagram.marginal_set, diagram.metric_names, diagram.masks[rows],
        diagram.table[rows], diagram.flags[rows], _owned=True,
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
    width = len(positions)
    # The shown values in a label: one SLOT each.
    shown_slots = ", ".join([SLOT] * width)
    labels = [_dot_escape(label) for label in diagram.marginal_set.members]
    ids = subset_texts(diagram.masks, labels, '"empty"', f'"{SLOT}_{SLOT}"')
    names = subset_texts(diagram.masks, labels, "{}", f"{{{SLOT}, {SLOT}}}")

    # Every node's shown values, floored once in row-major order, so that the
    # first NaN or infinity raises as in a loop over them; int64 unless one
    # is too large for the deltas.
    values = diagram.table[:, positions]
    floored = np.empty(values.size, np.int64 if (abs(values) < 2.0 ** 62).all()
                       else object)
    for cells in blocks(values.size):
        floored[cells] = list(map(floor_int, values.ravel()[cells].tolist()))
    floored = floored.reshape(values.shape)
    del values
    # Rows [bounds[k], bounds[k + 1]) hold the subsets of size k.
    bounds = np.searchsorted(_popcounts(diagram.masks, len(labels)),
                             np.arange(len(labels) + 2)).tolist()
    fills = ('"];\n', '", fillcolor="lightcoral"];\n')
    yield ('digraph hasse {\n  rankdir=BT;\n'
           '  node [shape=box, style=filled, fillcolor=white];\n')
    for rows in blocks(len(ids)):
        shown = list(map(str, floored[rows].ravel().tolist()))
        tails = list(map(fills.__getitem__, diagram.flags[rows].tolist()))
        for low, high in zip(bounds, bounds[1:]):
            # A rank closes after the last node of its size.
            if low < high and rows.start < high <= rows.stop:
                tails[high - 1 - rows.start] += (
                    f"  {{ rank=same; {'; '.join(ids[low:high])}; }}\n")
        # Integers need no DOT escaping.
        yield join_records(f'  {SLOT} [label="{SLOT}\\n{shown_slots}{SLOT}', [
            ids[rows], names[rows], *(shown[k::width] for k in range(width)), tails])
    del names
    for pairs in _edge_blocks(diagram):
        lower, upper = pairs.T
        deltas = (floored[upper] - floored[lower]).T.tolist()
        # Signed numbers need no DOT escaping.
        signed = {delta: f"{delta:+d}" for delta in set().union(*deltas)}
        yield join_records(f'  {SLOT} -> {SLOT} [label="{shown_slots}"];\n', [
            list(map(ids.__getitem__, lower.tolist())),
            list(map(ids.__getitem__, upper.tolist())),
            *(list(map(signed.__getitem__, column)) for column in deltas)])
    yield "}\n"


def to_dot(
    diagram: AnnotatedHasseDiagram, label_metrics: Sequence[str] | None = None
) -> str:
    """The whole text of :func:`iter_dot`."""
    return "".join(iter_dot(diagram, label_metrics))


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
    width = len(diagram.metric_names)

    node = ",\n    " + json_template(
        {"subset": SLOT, "outcomes": [SLOT] * width, "flagged": SLOT}, 2)
    edge = ",\n    " + json_template(
        {"from": SLOT, "to": SLOT, "deltas": [SLOT] * width}, 2)

    def nodes(rows: slice) -> str:
        return join_records(node, [subsets[rows], *json_columns(diagram.table[rows]),
                                   *json_columns(diagram.flags[rows])])

    def edges(pairs: np.ndarray) -> str:
        lower, upper = pairs.T.tolist()
        return join_records(edge, [list(map(subsets.__getitem__, lower)),
                                   list(map(subsets.__getitem__, upper)),
                                   *json_columns(_edge_deltas(diagram.table, pairs))])

    yield from iter_json_list(map(nodes, blocks(len(subsets))), 1)
    yield ',\n  "edges": '
    yield from iter_json_list(map(edges, _edge_blocks(diagram)), 1)
    yield "\n}\n"


def to_json(diagram: AnnotatedHasseDiagram) -> str:
    """The whole text of :func:`iter_json`."""
    return "".join(iter_json(diagram))


def _json_values(value: object, kind: type | tuple[type, ...], what: str) -> list:
    """``value`` if it is a JSON array of ``kind`` items; true and false are
    booleans only, never numbers."""
    if isinstance(value, list) and all(isinstance(item, kind) and isinstance(
            item, bool) == (kind is bool) for item in value):
        return value
    name = {str: "strings", int: "integers", bool: "booleans"}.get(kind, "numbers")
    raise TypeError(f"{what} must be a list of {name}, not {value!r:.60}")


def diagram_from_json(text: str) -> AnnotatedHasseDiagram:
    """Inverse of :func:`to_json`; validates structure and JSON types as it reads.

    Nodes and edges may come in any order, but must be distinct.  The edges
    must be exactly the covering relation of the nodes, which the diagram
    derives again rather than stores, and each edge's deltas must equal the
    difference of its nodes' outcomes.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"diagram JSON is not valid JSON: {exc}") from exc
    try:
        ms = MarginalSet(_json_values(doc["marginal_set"], str, "marginal_set"))
        metric_names = tuple(_json_values(doc["metrics"], str, "metrics"))

        def read_subset(indices: object) -> ExclusionSet:
            return ExclusionSet.from_indices(ms.n, _json_values(indices, int, "subset"))

        def read_numbers(values: object, what: str) -> list[float]:
            return list(map(float, _json_values(values, (int, float), what)))

        nodes = [(read_subset(entry["subset"]),
                  read_numbers(entry["outcomes"], "outcomes"))
                 for entry in doc["nodes"]]
        flags = _json_values([entry["flagged"] for entry in doc["nodes"]], bool,
                             "flagged")
        edges = [(read_subset(entry["from"]), read_subset(entry["to"]),
                  read_numbers(entry["deltas"], "deltas")) for entry in doc["edges"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"diagram JSON is malformed: {exc}") from exc
    width = len(metric_names)
    if any(len(outcomes) != width for _, outcomes in nodes):
        raise DataError("diagram JSON node outcome width does not match metrics")
    if any(len(deltas) != width for _, _, deltas in edges):
        raise DataError("diagram JSON edge delta width does not match metrics")
    masks = np.array([subset.bits for subset, _ in nodes], dtype=np.int64)
    order = np.argsort(_canonical_keys(masks, ms.n))
    masks = masks[order]
    twice = masks[1:][np.diff(masks) == 0]
    if twice.size:
        subset = subset_label(ms, ExclusionSet(ms.n, int(twice[0])))
        raise DataError(f"diagram JSON lists node {subset} twice")
    table = np.array([outcomes for _, outcomes in nodes], dtype=np.float64)
    diagram = AnnotatedHasseDiagram(
        ms, metric_names, masks, table.reshape(len(nodes), width)[order],
        np.array(flags, dtype=bool)[order], _owned=True,
    )

    def refuse(pairs: np.ndarray, faulty: np.ndarray, problem: str) -> None:
        """Refuse the first (lower, upper) mask pair that ``faulty`` marks."""
        if faulty.any():
            lower, upper = (subset_label(ms, ExclusionSet(ms.n, bits))
                            for bits in pairs[np.argmax(faulty)].tolist())
            raise DataError(f"diagram JSON is inconsistent: edge {lower} -> "
                            f"{upper} {problem}")

    pairs = np.array([(lower.bits, upper.bits) for lower, upper, _ in edges],
                     dtype=np.int64).reshape(len(edges), 2)
    ends = _find_rows(masks, pairs)
    refuse(pairs, (ends < 0).any(axis=1), "has an endpoint that is not a node")
    # The stated edges must be the derived ones, each once; an edge's key
    # is its lower row times the node count plus its upper row.
    derived = diagram.edges.astype(np.int64)
    found = _find_rows(*(rows[:, 0] * len(masks) + rows[:, 1]
                         for rows in (derived, ends)))
    refuse(pairs, found < 0, "does not lead from a node to one that covers it")
    listed = np.bincount(found, minlength=len(derived))
    refuse(pairs, listed[found] > 1, "is repeated")
    refuse(masks[derived], listed == 0, "is a cover, but is not listed")
    stated = np.array([deltas for _, _, deltas in edges],
                      dtype=np.float64).reshape(len(edges), width)
    derived = _edge_deltas(diagram.table, ends)
    # 0.0 and -0.0 compare equal but print differently, so signs count too.
    same = ((stated == derived) & (np.signbit(stated) == np.signbit(derived))
            | np.isnan(stated) & np.isnan(derived))
    wrong = ~same.all(axis=1)
    refuse(pairs, wrong, f"has deltas {stated[wrong][:1].ravel().tolist()}, but "
           f"its nodes differ by {derived[wrong][:1].ravel().tolist()}")
    return diagram
