"""Exclusion-set lattices and annotated Hasse diagrams.

A marginal set of n labels (e.g. retail formats whose market membership is
contested) induces the Boolean lattice of its 2^n subsets ordered by
inclusion.  Each subset is an "exclusion set": the labels removed from the
candidate market.  This module enumerates that lattice, evaluates an outcome
function once per subset, wires up the covering relation, and renders the
result to Graphviz DOT or a JSON document.

Canonical order everywhere is (cardinality ascending, then bitmask ascending),
so identical inputs always produce byte-identical artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

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
    subset: ExclusionSet
    outcomes: tuple[float, ...]
    flagged: bool = False


@dataclass(frozen=True)
class HasseEdge:
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


@dataclass(frozen=True)
class AnnotatedHasseDiagram:
    """An exclusion-set lattice with per-node outcome vectors."""

    marginal_set: MarginalSet
    metric_names: tuple[str, ...]
    nodes: tuple[HasseNode, ...]
    edges: tuple[HasseEdge, ...]
    _by_bits: dict[int, HasseNode] = field(
        init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_by_bits", {node.subset.bits: node for node in self.nodes}
        )

    def node_for(self, subset: ExclusionSet) -> HasseNode:
        try:
            return self._by_bits[subset.bits]
        except KeyError:
            raise KeyError(f"subset {subset_label(self.marginal_set, subset)} "
                           "is not a node of this diagram") from None

    def outcome(self, subset: ExclusionSet, metric: str) -> float:
        node = self.node_for(subset)
        try:
            pos = self.metric_names.index(metric)
        except ValueError:
            raise KeyError(f"unknown metric {metric!r}") from None
        return node.outcomes[pos]


def subset_label(ms: MarginalSet, subset: ExclusionSet) -> str:
    """Human-readable name for a subset, e.g. ``{club, natural}``."""
    labels = ms.labels_of(subset)
    return "{" + ", ".join(labels) + "}" if labels else "{}"


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
    subsets = enumerate_subsets(ms.n)
    raw = evaluate_subsets(ms.n, f, "outcome function", ms.members)
    metric_names = tuple(raw[0].keys())
    if not metric_names:
        raise OutcomeEvaluationError(
            "outcome function returned an empty metric vector"
        )
    for subset in subsets:
        if set(raw[subset.bits].keys()) != set(metric_names):
            raise OutcomeEvaluationError(
                f"outcome function returned inconsistent metrics on subset "
                f"{subset_label(ms, subset)}: expected {sorted(metric_names)}, "
                f"got {sorted(raw[subset.bits].keys())}"
            )
    outcomes = [tuple(float(r[name]) for name in metric_names) for r in raw]
    if rule is None:
        flags = [False] * len(outcomes)
    else:
        flags = evaluate_subsets(
            ms.n,
            lambda s: bool(rule(dict(zip(metric_names, outcomes[s.bits])))),
            "decision rule",
            ms.members,
        )
    nodes = tuple(
        HasseNode(s, outcomes[s.bits], flags[s.bits]) for s in subsets
    )
    edges = []
    for subset in subsets:
        for i in range(ms.n):
            if not subset.contains(i):
                child = subset.with_index(i)
                deltas = tuple(
                    c - p for c, p in zip(outcomes[child.bits], outcomes[subset.bits])
                )
                edges.append(HasseEdge(subset, child, deltas))
    edges.sort(key=lambda e: e.from_subset.sort_key + e.to_subset.sort_key)
    return AnnotatedHasseDiagram(ms, metric_names, nodes, tuple(edges))


def restrict(
    diagram: AnnotatedHasseDiagram, keep: Iterable[ExclusionSet]
) -> AnnotatedHasseDiagram:
    """Induced sub-diagram on ``keep``, with the covering relation recomputed.

    Two kept subsets are joined iff one contains the other and no third kept
    subset sits strictly between them, so chains through dropped nodes
    collapse to single edges.
    """
    kept_bits: set[int] = set()
    for subset in keep:
        if subset.n != diagram.marginal_set.n:
            raise ValueError("subset width does not match the diagram")
        if subset.bits not in diagram._by_bits:
            raise ValueError(
                f"subset {subset_label(diagram.marginal_set, subset)} "
                "is not a node of the diagram"
            )
        kept_bits.add(subset.bits)
    nodes = tuple(n for n in diagram.nodes if n.subset.bits in kept_bits)
    ordered = [n.subset for n in nodes]
    edges = []
    for upper in ordered:
        below = [s for s in ordered if s.bits != upper.bits and s.issubset(upper)]
        for lower in below:
            is_cover = not any(
                mid.bits != lower.bits
                and mid.bits != upper.bits
                and lower.issubset(mid)
                and mid.issubset(upper)
                for mid in below
            )
            if is_cover:
                deltas = tuple(
                    c - p
                    for c, p in zip(
                        diagram._by_bits[upper.bits].outcomes,
                        diagram._by_bits[lower.bits].outcomes,
                    )
                )
                edges.append(HasseEdge(lower, upper, deltas))
    edges.sort(key=lambda e: e.from_subset.sort_key + e.to_subset.sort_key)
    return AnnotatedHasseDiagram(
        diagram.marginal_set, diagram.metric_names, nodes, tuple(edges)
    )


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _node_id(ms: MarginalSet, subset: ExclusionSet) -> str:
    labels = ms.labels_of(subset)
    name = "empty" if not labels else "_".join(labels)
    return f'"{_dot_escape(name)}"'


def _fmt_value(value: float, style: DotStyle) -> str:
    if style.floor_labels:
        return str(floor_int(value))
    return f"{round_half_up(value, style.decimals):.{style.decimals}f}"


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
    ms = diagram.marginal_set
    positions = _metric_positions(diagram, style)
    lines = ["digraph hasse {", "  rankdir=BT;",
             '  node [shape=box, style=filled, fillcolor=white];']
    by_size: dict[int, list[HasseNode]] = {}
    for node in sorted(diagram.nodes, key=lambda n: n.subset.sort_key):
        by_size.setdefault(node.subset.size, []).append(node)
    for size in sorted(by_size):
        layer = by_size[size]
        for node in layer:
            values = ", ".join(_fmt_value(node.outcomes[p], style) for p in positions)
            name = _dot_escape(subset_label(ms, node.subset))
            attrs = [f'label="{name}\\n{_dot_escape(values)}"']
            if node.flagged:
                attrs.append(f'fillcolor="{_dot_escape(style.alert_fill)}"')
            lines.append(f'  {_node_id(ms, node.subset)} [{", ".join(attrs)}];')
        ids = "; ".join(_node_id(ms, n.subset) for n in layer)
        lines.append(f"  {{ rank=same; {ids}; }}")
    for edge in diagram.edges:
        parts = []
        for p in positions:
            parent = diagram._by_bits[edge.from_subset.bits].outcomes[p]
            child = diagram._by_bits[edge.to_subset.bits].outcomes[p]
            if style.floor_labels:
                shown = floor_int(child) - floor_int(parent)
                parts.append(f"{shown:+d}")
            else:
                shown = round_half_up(child, style.decimals) - round_half_up(
                    parent, style.decimals
                )
                parts.append(f"{shown:+.{style.decimals}f}")
        lines.append(
            f'  {_node_id(ms, edge.from_subset)} -> {_node_id(ms, edge.to_subset)} '
            f'[label="{_dot_escape(", ".join(parts))}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(diagram: AnnotatedHasseDiagram) -> str:
    """Serialize the diagram to a stable JSON document.

    Schema: {"marginal_set": [labels], "metrics": [names],
    "nodes": [{"subset": [indices], "outcomes": [...], "flagged": bool}],
    "edges": [{"from": [indices], "to": [indices], "deltas": [...]}]}.
    """
    doc = {
        "marginal_set": list(diagram.marginal_set.members),
        "metrics": list(diagram.metric_names),
        "nodes": [
            {
                "subset": list(node.subset.indices),
                "outcomes": list(node.outcomes),
                "flagged": node.flagged,
            }
            for node in diagram.nodes
        ],
        "edges": [
            {
                "from": list(edge.from_subset.indices),
                "to": list(edge.to_subset.indices),
                "deltas": list(edge.deltas),
            }
            for edge in diagram.edges
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def diagram_from_json(text: str) -> AnnotatedHasseDiagram:
    """Inverse of :func:`to_json`; validates structure as it reads."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"diagram JSON is not valid JSON: {exc}") from exc
    try:
        ms = MarginalSet(doc["marginal_set"])
        metric_names = tuple(str(m) for m in doc["metrics"])
        nodes = tuple(
            HasseNode(
                ExclusionSet.from_indices(ms.n, entry["subset"]),
                tuple(float(v) for v in entry["outcomes"]),
                bool(entry["flagged"]),
            )
            for entry in doc["nodes"]
        )
        edges = tuple(
            HasseEdge(
                ExclusionSet.from_indices(ms.n, entry["from"]),
                ExclusionSet.from_indices(ms.n, entry["to"]),
                tuple(float(v) for v in entry["deltas"]),
            )
            for entry in doc["edges"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"diagram JSON is malformed: {exc}") from exc
    for node in nodes:
        if len(node.outcomes) != len(metric_names):
            raise DataError("diagram JSON node outcome width does not match metrics")
    for edge in edges:
        if len(edge.deltas) != len(metric_names):
            raise DataError("diagram JSON edge delta width does not match metrics")
    return AnnotatedHasseDiagram(ms, metric_names, nodes, edges)
