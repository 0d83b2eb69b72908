"""Analysis pipelines and deterministic report emission.

Three pipelines share one configuration: state-level (exclusion lattice over
marginal formats on the statewide chain market), firm-level (exclusion
lattice over named competitor chains), and local (circle markets around
the merging chains' stores).  Emitters write CSV for human-readable display
values and JSON carrying full-precision numbers alongside the displayed ones.

Display conventions: HHI values floor to integers, Shapley values round
half-up to integers, Shapley shares round to 3 decimals, SSPI truncates to
3 decimals in the state table and rounds half-up in the firm and structure
tables.  Every Total row is the sum of the displayed column entries, so the
printed arithmetic always adds up.
"""

from __future__ import annotations

import csv
import errno
import io
import json
import os
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from decimal import Decimal, localcontext
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .config import RunConfig
from .display import fmt_fixed, fmt_truncated, round_half_up_int
from .errors import ConfigError
from .geomarket import (
    LocalAnalysisResult,
    StoreUniverse,
    analyze_local,
    sspi_structure_table,
)
from .jsontext import (
    SLOT,
    blocks,
    iter_json_list,
    join_records,
    json_columns,
    json_index_lists,
    json_list,
    json_template,
)
from .lattice import (
    AnnotatedHasseDiagram,
    ExclusionSet,
    MarginalSet,
    canonical_masks,
    hasse_from_table,
    iter_dot,
    iter_json,
    subset_label,
)
from .metrics import Market, presumption_flags
from .shapley import (
    CoalitionalGame,
    ShapleyResult,
    SimpleGame,
    shapley_exact,
    sspi,
)

METRIC_NAMES = ("post_hhi", "delta_hhi", "merged_share")
# The metric that labels the nodes and edges of every hasse.dot.
DOT_LABEL_METRICS = ("post_hhi",)


@contextmanager
def _staged(out_dir: Path):
    """Yield ``write(name, chunks)``, which writes the ``str`` chunks of one
    file into a fresh staging directory inside ``out_dir``; the files move
    into place only once the whole block succeeds."""
    out_dir.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out_dir))
    names: list[str] = []

    def write(name: str, chunks: Iterable[str]) -> Path:
        with open(staging / name, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)
        names.append(name)
        return out_dir / name

    try:
        yield write
        # os.replace cannot put a file over a directory: refuse before the
        # first move, so that no old file is replaced either.
        for name in names:
            target = out_dir / name
            if target.is_dir() and not target.is_symlink():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                        str(target))
        for name in names:
            os.replace(staging / name, out_dir / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _csv_text(rows: Sequence[Sequence[object]]) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _json_text(doc: object) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _display_total(cells: Sequence[str]) -> str:
    """Sum already-formatted numeric strings exactly, keeping their scale."""
    numbers = [Decimal(cell) for cell in cells if cell != ""]
    if not numbers:
        return "0"
    exponent = max(-number.as_tuple().exponent for number in numbers)
    with localcontext() as context:
        # Room for every digit of the sum, with a carry digit per addend.
        context.prec = (max(0, *(n.adjusted() for n in numbers)) + 1
                        + max(exponent, 0) + len(numbers))
        total = sum(numbers)
    return f"{total:.{exponent}f}" if exponent > 0 else str(total)


def _check_formats(config: RunConfig, universe: StoreUniverse) -> None:
    """Refuse store formats that the configuration leaves unclassified."""
    listed = {*config.always_in_formats, *config.marginal_formats}
    unlisted = sorted(set(universe.formats) - listed)
    if unlisted:
        raise ConfigError("store formats in neither always_in_formats nor "
                          f"marginal_formats: {unlisted}")


class _PowerIndices:
    """What a report's ``sspi_game`` says of the lattice as a whole."""

    @property
    def sensitive(self) -> bool:
        return not self.sspi_game.constant

    @property
    def degenerate_at_origin(self) -> bool:
        return self.sspi_game.degenerate_at_origin


@dataclass(frozen=True)
class StateReport(_PowerIndices):
    """State-level sensitivity analysis over marginal formats."""

    config: RunConfig
    market: Market
    chain_names: dict[str, str]
    diagram: AnnotatedHasseDiagram
    shapley: ShapleyResult
    sspi_values: tuple[float, ...]
    sspi_game: SimpleGame


def _state_lattice(
    config: RunConfig, universe: StoreUniverse
) -> tuple[Market, np.ndarray, np.ndarray, AnnotatedHasseDiagram]:
    """The statewide chain market of the universe, its (2^n × 3) outcome
    table and read-only presumption flags by exclusion mask, and the
    annotated Hasse diagram built from them."""
    market = Market(universe.sales(), "state")
    parties = universe.chain_codes(config.merging_chains, "merging chain")
    ms = MarginalSet(config.marginal_formats)
    _check_formats(config, universe)
    table = np.empty((1, 1 << ms.n, 3))
    (flags,) = presumption_flags(
        universe.chain, universe.format_bits(ms.members), universe.revenue,
        [len(universe)], ms, parties, config.rule, ["market 'state'"], table)
    diagram = hasse_from_table(ms, METRIC_NAMES, table[0], flags)
    return market, table[0], flags, diagram


def state_diagram(config: RunConfig, universe: StoreUniverse) -> AnnotatedHasseDiagram:
    """The diagram of :func:`run_state`, without its Shapley and SSPI."""
    return _state_lattice(config, universe)[3]


def run_state(config: RunConfig, universe: StoreUniverse) -> StateReport:
    """Exclusion-lattice analysis of the whole universe's chain market.

    Builds the annotated Hasse diagram of (post-HHI, delta-HHI, merged share)
    over the marginal formats, the Shapley attribution of post-merger HHI,
    and the presumption-rule power indices.  :func:`presumption_flags`
    evaluates every subset over the stores, each keyed by its format, and its
    one array of flags marks both the diagram's nodes and the SSPI game's
    winning coalitions.  The Shapley values are exact, summed over every
    subset's post-merger HHI.
    """
    market, table, flags, diagram = _state_lattice(config, universe)
    sv = shapley_exact(CoalitionalGame.from_table(table[:, 0] - table[0, 0]))
    sspi_game = SimpleGame(diagram.marginal_set.n, flags)
    return StateReport(
        config=config,
        market=market,
        chain_names=universe.chains(),
        diagram=diagram,
        shapley=sv,
        sspi_values=sspi(sspi_game),
        sspi_game=sspi_game,
    )


@dataclass(frozen=True)
class FirmReport(_PowerIndices):
    """Firm-level power analysis over named competitor chains."""

    config: RunConfig
    market: Market
    chain_names: dict[str, str]
    marginal_firms: tuple[str, ...]
    sspi_values: tuple[float, ...]
    sspi_game: SimpleGame


def run_firm_level(config: RunConfig, universe: StoreUniverse) -> FirmReport:
    """Presumption power indices over exclusion of named competitor chains.

    The marginal set is the configured chain list; the merging chains stay in
    every candidate market.  Excluding a chain removes all its revenue and
    renormalizes shares.  :func:`presumption_flags` evaluates every subset
    over the chains of the statewide market, keeping only the flags.
    """
    if not config.marginal_firms:
        raise ConfigError("firm-level analysis requires marginal_firms")
    market = Market(universe.sales(), "state")
    parties = universe.chain_codes(config.merging_chains, "merging chain")
    firms = config.marginal_firms
    bit = np.full(len(market.sales), -1)
    bit[universe.chain_codes(firms, "marginal firm")] = range(len(firms))
    ms = MarginalSet(firms)
    (flags,) = presumption_flags(
        np.arange(len(bit)), bit, np.array(list(market.sales.values())),
        [len(bit)], ms, parties, config.rule, ["market 'state'"])
    game = SimpleGame(ms.n, flags)
    return FirmReport(
        config=config,
        market=market,
        chain_names=universe.chains(),
        marginal_firms=firms,
        sspi_values=sspi(game),
        sspi_game=game,
    )


@dataclass(frozen=True)
class LocalReport:
    """Batch circle-market analysis around defendant stores."""

    config: RunConfig
    marginal_set: MarginalSet
    results: tuple[LocalAnalysisResult, ...]
    counts: tuple[tuple[ExclusionSet, int], ...]
    structure: tuple[tuple[tuple[float, ...], int], ...]

    @property
    def sensitive_count(self) -> int:
        return sum(1 for r in self.results if r.sensitive)


def run_local(config: RunConfig, universe: StoreUniverse) -> LocalReport:
    """Circle-market sweep: per-subset presumptive counts, sensitivity, SSPI."""
    ms = MarginalSet(config.marginal_formats)
    _check_formats(config, universe)
    results = analyze_local(
        universe,
        config.merger,
        ms,
        config.rule,
        config.radius_miles,
    )
    flags = np.reshape([r.flags for r in results], (len(results), 1 << ms.n))
    column = flags.sum(axis=0).tolist()
    counts = tuple((ExclusionSet(ms.n, bits), column[bits])
                   for bits in canonical_masks(ms.n).tolist())
    structure = sspi_structure_table(results, config.sspi_decimals)
    return LocalReport(
        config=config,
        marginal_set=ms,
        results=results,
        counts=counts,
        structure=structure,
    )


def write_hasse_report(
    diagram: AnnotatedHasseDiagram,
    out_dir: str | Path,
    formats: Sequence[str],
) -> list[Path]:
    """Emit ``hasse.<fmt>`` for each format (``dot`` or ``json``); all move
    into place together."""
    for fmt in formats:
        if fmt not in ("dot", "json"):
            raise ConfigError(f"unknown hasse format {fmt!r}; expected dot or json")
    with _staged(Path(out_dir)) as write:
        return [
            write(f"hasse.{fmt}", iter_dot(diagram, DOT_LABEL_METRICS)
                  if fmt == "dot" else iter_json(diagram))
            for fmt in formats
        ]


def _shapley_rows(report: StateReport) -> tuple[list[list[str]], dict]:
    labels = report.diagram.marginal_set.members
    sv = report.shapley
    value_cells = [str(round_half_up_int(v)) for v in sv.values]
    if sv.shares is not None:
        share_cells = [
            fmt_fixed(s, report.config.share_decimals) for s in sv.shares
        ]
    else:
        share_cells = [""] * len(labels)
    rows: list[list[str]] = [["format", "shapley_value", "sv_share"]]
    for label, value, share in zip(labels, value_cells, share_cells):
        rows.append([label, value, share])
    rows.append(
        ["Total", _display_total(value_cells), _display_total(share_cells)]
    )
    doc = {
        "players": list(labels),
        "mode": sv.mode,
        "values": list(sv.values),
        "shares": list(sv.shares) if sv.shares is not None else None,
        "grand_value": sv.grand_value,
        "efficiency_residual": sv.efficiency_residual,
        "std_errors": list(sv.std_errors) if sv.std_errors else None,
        "permutations_used": sv.permutations_used,
        "seed": sv.seed,
        "display": {
            "values": [int(c) for c in value_cells],
            "shares": (
                [float(c) for c in share_cells]
                if sv.shares is not None
                else None
            ),
        },
    }
    return rows, doc


def _state_sspi_rows(report: StateReport) -> tuple[list[list[str]], dict]:
    labels = report.diagram.marginal_set.members
    decimals = report.config.sspi_decimals
    cells = [fmt_truncated(v, decimals) for v in report.sspi_values]
    rows: list[list[str]] = [["format", "sspi"]]
    for label, cell in zip(labels, cells):
        rows.append([label, cell])
    rows.append(["Total", _display_total(cells)])
    doc = {
        "players": list(labels),
        "values": list(report.sspi_values),
        "sensitive": report.sensitive,
        "degenerate_at_origin": report.degenerate_at_origin,
        "display": {"values": [float(c) for c in cells], "rounding": "truncate"},
    }
    return rows, doc


def _share_rows(report: StateReport) -> tuple[list[list[str]], dict]:
    market = report.market
    total = market.total()
    ranked = sorted(
        market.sales.items(), key=lambda item: (-item[1], item[0])
    )
    decimals = report.config.share_decimals
    rows: list[list[str]] = [["chain_id", "chain_name", "revenue", "share"]]
    share_cells = []
    entries = []
    for chain, revenue in ranked:
        share = revenue / total if total > 0 else 0.0
        cell = fmt_fixed(share, decimals)
        share_cells.append(cell)
        name = report.chain_names.get(chain, chain)
        rows.append([chain, name, repr(revenue), cell])
        entries.append(
            {"chain_id": chain, "chain_name": name,
             "revenue": revenue, "share": share}
        )
    rows.append(["Total", "", repr(total), _display_total(share_cells)])
    return rows, {"market": market.label, "total_revenue": total,
                  "chains": entries}


def write_state_report(report: StateReport, out_dir: str | Path) -> list[Path]:
    """Emit hasse.dot/json, shapley.csv/json, sspi.csv/json, shares.csv/json."""
    shapley_rows, shapley_doc = _shapley_rows(report)
    sspi_rows, sspi_doc = _state_sspi_rows(report)
    share_rows, share_doc = _share_rows(report)
    with _staged(Path(out_dir)) as write:
        return [
            write("hasse.dot", iter_dot(report.diagram, DOT_LABEL_METRICS)),
            write("hasse.json", iter_json(report.diagram)),
            write("shapley.csv", [_csv_text(shapley_rows)]),
            write("shapley.json", [_json_text(shapley_doc)]),
            write("sspi.csv", [_csv_text(sspi_rows)]),
            write("sspi.json", [_json_text(sspi_doc)]),
            write("shares.csv", [_csv_text(share_rows)]),
            write("shares.json", [_json_text(share_doc)]),
        ]


def write_firm_report(report: FirmReport, out_dir: str | Path) -> list[Path]:
    """Emit the firm-level SSPI table as sspi.csv/json."""
    decimals = report.config.sspi_decimals
    order = sorted(
        zip(report.marginal_firms, report.sspi_values),
        key=lambda pair: (-pair[1], pair[0]),
    )
    cells = [fmt_fixed(value, decimals) for _, value in order]
    rows: list[list[str]] = [["chain_id", "chain_name", "sspi"]]
    for (firm, _), cell in zip(order, cells):
        rows.append([firm, report.chain_names.get(firm, firm), cell])
    rows.append(["Total", "", _display_total(cells)])
    doc = {
        "players": list(report.marginal_firms),
        "values": list(report.sspi_values),
        "sensitive": report.sensitive,
        "degenerate_at_origin": report.degenerate_at_origin,
        "display": {
            "order": [firm for firm, _ in order],
            "values": [float(c) for c in cells],
            "rounding": "half_up",
        },
    }
    with _staged(Path(out_dir)) as write:
        return [
            write("sspi.csv", [_csv_text(rows)]),
            write("sspi.json", [_json_text(doc)]),
        ]


def _local_counts_json(report: LocalReport) -> Iterator[str]:
    """local_counts.json, as ``json.dumps(doc, indent=2)`` plus a newline
    would print it, a block of exclusion sets at a time."""
    ms = report.marginal_set
    masks = np.array([subset.bits for subset, _ in report.counts], dtype=np.int64)
    subsets = json_index_lists(masks, ms.n, 3)
    counts = [str(count) for _, count in report.counts]
    entry = ",\n    " + json_template({"subset": SLOT, "count": SLOT}, 2)
    labels = json_list(list(map(json.dumps, ms.members)), 1)
    yield (f'{{\n  "marginal_set": {labels},'
           f'\n  "analyzed_markets": {len(report.results)},'
           f'\n  "sensitive_markets": {report.sensitive_count},'
           '\n  "counts": ')
    yield from iter_json_list(
        (join_records(entry, [subsets[rows], counts[rows]])
         for rows in blocks(len(counts))), 1)
    yield "\n}\n"


def _local_markets_json(report: LocalReport) -> Iterator[str]:
    """local_markets.json, as ``json.dumps(doc, indent=2)`` plus a newline
    would print it, a block of circles holding about
    :data:`~mktsens.jsontext.EMIT_BLOCK` outcome rows at a time."""
    ms = report.marginal_set
    masks = canonical_masks(ms.n)
    subsets = json_index_lists(masks, ms.n, 5)
    labels = json_list(list(map(json.dumps, ms.members)), 1)
    yield (f'{{\n  "marginal_set": {labels},'
           f'\n  "radius_miles": {json.dumps(report.config.radius_miles)},'
           '\n  "markets": ')
    each = len(masks)
    # Each circle's first outcome row opens with the circle's fields (head),
    # and its last closes the outcome list and the circle.
    outcome = SLOT + json_template(
        {"subset": SLOT, **dict.fromkeys(METRIC_NAMES, SLOT), "flagged": SLOT}, 4
    ) + SLOT

    def head(r: LocalAnalysisResult) -> str:
        """A circle's item separator and fields, up to its first outcome."""
        sspi = ("null" if r.sspi is None
                else json_list(json_columns(np.asarray(r.sspi))[0], 3))
        return (f',\n    {{\n      "center_store_id": {json.dumps(r.center_id)},'
                f'\n      "member_count": {json.dumps(r.member_count)},'
                f'\n      "sensitive": {json.dumps(r.sensitive)},'
                f'\n      "sspi": {sspi},'
                '\n      "outcomes": [\n        ')

    def markets(rows: slice) -> str:
        block = report.results[rows]
        cells = json_columns(np.concatenate([r.table[masks] for r in block]))
        (flags,) = json_columns(np.concatenate([r.flags[masks] for r in block]))
        opens, closes = [",\n        "] * len(flags), [""] * len(flags)
        opens[::each] = list(map(head, block))
        closes[each - 1::each] = ["\n      ]\n    }"] * len(block)
        return join_records(outcome, [opens, subsets * len(block), *cells, flags,
                                      closes])

    yield from iter_json_list(map(markets, blocks(len(report.results), each)), 1)
    yield "\n}\n"


def write_local_report(report: LocalReport, out_dir: str | Path) -> list[Path]:
    """Emit local_counts, local_markets, and sspi_structure as CSV + JSON."""
    ms = report.marginal_set
    decimals = report.config.sspi_decimals

    count_rows: list[list[object]] = [["subset", "excluded_count", "count"]]
    for subset, count in report.counts:
        count_rows.append([subset_label(ms, subset), subset.size, count])

    market_rows: list[list[object]] = [
        ["center_store_id", "member_count", "sensitive"]
        + [f"sspi_{label}" for label in ms.members]
    ]
    for result in report.results:
        cells = (
            [fmt_fixed(v, decimals) for v in result.sspi]
            if result.sensitive and result.sspi is not None
            else [""] * ms.n
        )
        market_rows.append(
            [result.center_id, result.member_count,
             str(result.sensitive).lower()] + cells
        )

    structure_rows: list[list[object]] = [
        [f"sspi_{label}" for label in ms.members] + ["count"]
    ]
    for vector, count in report.structure:
        structure_rows.append([fmt_fixed(v, decimals) for v in vector] + [count])
    structure_doc = {
        "marginal_set": list(ms.members),
        "sensitive_markets": report.sensitive_count,
        "rows": [
            {"sspi": list(vector), "count": count}
            for vector, count in report.structure
        ],
    }

    with _staged(Path(out_dir)) as write:
        return [
            write("local_counts.csv", [_csv_text(count_rows)]),
            write("local_counts.json", _local_counts_json(report)),
            write("local_markets.csv", [_csv_text(market_rows)]),
            write("local_markets.json", _local_markets_json(report)),
            write("sspi_structure.csv", [_csv_text(structure_rows)]),
            write("sspi_structure.json", [_json_text(structure_doc)]),
        ]
