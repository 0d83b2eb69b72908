"""Shared fixtures: reference markets, store universes, and CSV builders.

The "textbook" fixture is a small eight-firm market with three marginal
members whose exclusion lattice has hand-checked HHI values.  The "state"
fixture is a store universe engineered so that the post-merger HHI lattice
of the configured merger reproduces those same values exactly.  The "local"
fixture is two far-apart store clusters with known per-circle outcomes.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import math
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np
import pytest
from hypothesis import strategies as st

from mktsens import (
    DataError,
    DegenerateMarketError,
    ExclusionSet,
    Market,
    MarginalSet,
    MergerSpec,
    RunConfig,
    SimpleGame,
    Store,
    StoreUniverse,
    chain_market,
    enumerate_subsets,
    exclude,
    haversine,
    hhi,
    merger_outcome_blocks,
    merger_outcomes,
    miles_to_km,
    presumption,
    sspi,
    subset_label,
)
from mktsens.display import floor_int

# Labels and ids that need escaping in DOT and JSON, some not ASCII.
AWKWARD_TEXT = st.text(st.sampled_from('ab_"\\ é中{},'), min_size=1, max_size=4)

# Eight-firm reference market: five core firms and marginal firms 1, 2, 3.
TEXTBOOK_SALES = {
    "A": 15.0, "B": 15.0, "C": 10.0, "D": 10.0, "E": 10.0,
    "1": 9.0, "2": 6.0, "3": 3.0,
}
TEXTBOOK_MARGINAL = ("1", "2", "3")

# Pre-merger HHI of the textbook market per exclusion set, full precision,
# keyed by the excluded labels.  Cross-checked by hand: HHI of the full
# market is 10^4 * (2*15^2 + 3*10^2 + 9^2 + 6^2 + 3^2) / 78^2.
TEXTBOOK_HHI = {
    (): 1439.8422090729784,
    ("1",): 1669.8172652804033,
    ("2",): 1620.3703703703707,
    ("3",): 1541.3333333333335,
    ("1", "2"): 1912.320483749055,
    ("1", "3"): 1804.4077134986221,
    ("2", "3"): 1745.431632010082,
    ("1", "2", "3"): 2083.3333333333335,
}

# Exact Shapley values of the HHI gain game v(S) = HHI(S) - HHI({}),
# frozen from a full 3! permutation enumeration in exact rationals.
TEXTBOOK_SHAPLEY = (281.79633476755424, 227.58484656826792, 134.10994292453287)
TEXTBOOK_SHAPLEY_TOTAL = 643.491124260355
TEXTBOOK_SHAPLEY_SHARES = (
    0.4379179823054406, 0.3536720834026416, 0.20840993429191776,
)

# Power indices of the simple game "HHI >= 1800": winning coalitions are
# {1,2}, {1,3}, {1,2,3}, giving exactly (2/3, 1/6, 1/6).
TEXTBOOK_SSPI = (2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0)


@pytest.fixture
def textbook_market() -> Market:
    return Market(TEXTBOOK_SALES)


@pytest.fixture
def textbook_hhi_fn(textbook_market):
    """Exclusion set -> pre-merger HHI of the textbook market."""
    ms = MarginalSet(TEXTBOOK_MARGINAL)

    def f(subset):
        return hhi(exclude(textbook_market, ms.labels_of(subset)))

    return ms, f


# ---------------------------------------------------------------------------
# State fixture: chain revenues chosen so that combining the merging chains
# acme (10) and bolt (5) yields a 15-sales entity, making the post-merger
# market identical to the textbook market firm for firm.
# ---------------------------------------------------------------------------

STATE_CHAINS = (
    # chain_id, chain_name, format, revenue
    ("acme", "Acme Markets", "supermarket", 10.0),
    ("bolt", "Bolt Foods", "supermarket", 5.0),
    ("grandway", "Grandway", "supermarket", 15.0),
    ("citygrocer", "City Grocer", "supermarket", 10.0),
    ("dailymart", "Daily Mart", "supermarket", 10.0),
    ("eastfoods", "East Foods", "supercenter", 10.0),
    ("clubby", "Clubby Wholesale", "club", 9.0),
    ("naturo", "Naturo", "natural", 6.0),
    ("limitz", "Limitz", "limited", 3.0),
)

STATE_MERGING = ("acme", "bolt")

# Post-merger HHI of the state market per excluded-format set; equals the
# textbook pre-merger lattice with formats in place of firm labels.
STATE_POST_HHI = {
    (): TEXTBOOK_HHI[()],
    ("club",): TEXTBOOK_HHI[("1",)],
    ("natural",): TEXTBOOK_HHI[("2",)],
    ("limited",): TEXTBOOK_HHI[("3",)],
    ("club", "natural"): TEXTBOOK_HHI[("1", "2")],
    ("club", "limited"): TEXTBOOK_HHI[("1", "3")],
    ("natural", "limited"): TEXTBOOK_HHI[("2", "3")],
    ("club", "natural", "limited"): TEXTBOOK_HHI[("1", "2", "3")],
}

STATE_FLAGGED = {("club", "natural"), ("club", "limited"),
                 ("club", "natural", "limited")}


def _spread(base_lat: float, base_lon: float, k: int) -> tuple[float, float]:
    """Small deterministic offsets that keep a cluster within ~2 miles."""
    return (base_lat + 0.004 * (k % 5), base_lon + 0.005 * (k // 5))


def state_stores() -> tuple[Store, ...]:
    """One cluster of stores realizing STATE_CHAINS; acme gets two stores."""
    rows = []
    k = 0
    for chain_id, chain_name, fmt, revenue in STATE_CHAINS:
        parts = (revenue * 0.6, revenue * 0.4) if chain_id == "acme" else (revenue,)
        for part in parts:
            lat, lon = _spread(45.5, -122.6, k)
            rows.append(Store(f"s{k:02d}", chain_id, chain_name, fmt,
                              lat, lon, part))
            k += 1
    return tuple(rows)


@pytest.fixture
def state_universe() -> StoreUniverse:
    return StoreUniverse(state_stores())


@pytest.fixture
def state_config() -> RunConfig:
    return RunConfig(merging_chains=STATE_MERGING)


# ---------------------------------------------------------------------------
# Local fixture: two clusters ~165 miles apart.  Cluster 1 flags exactly on
# the club-containing exclusion sets (the club chain is a dictator); cluster
# 2 never flags (delta HHI is 50 under every exclusion set).
# ---------------------------------------------------------------------------

LOCAL_CLUSTER_1 = (
    ("a01", "acme", "Acme Markets", "supermarket", 6.0),
    ("b01", "bolt", "Bolt Foods", "supermarket", 6.0),
    ("g01", "grandway", "Grandway", "supermarket", 30.0),
    ("e01", "eastfoods", "East Foods", "supercenter", 21.0),
    ("c01", "clubby", "Clubby Wholesale", "club", 30.0),
    ("n01", "naturo", "Naturo", "natural", 4.0),
    ("l01", "limitz", "Limitz", "limited", 3.0),
)

LOCAL_CLUSTER_2 = (
    ("a02", "acme", "Acme Markets", "supermarket", 5.0),
    ("b02", "bolt", "Bolt Foods", "supermarket", 5.0),
    ("g02", "grandway", "Grandway", "supermarket", 45.0),
    ("e02", "eastfoods", "East Foods", "supercenter", 45.0),
)


def local_stores() -> tuple[Store, ...]:
    rows = []
    for k, (sid, cid, name, fmt, rev) in enumerate(LOCAL_CLUSTER_1):
        lat, lon = _spread(47.60, -122.30, k)
        rows.append(Store(sid, cid, name, fmt, lat, lon, rev))
    for k, (sid, cid, name, fmt, rev) in enumerate(LOCAL_CLUSTER_2):
        lat, lon = _spread(46.20, -119.20, k)
        rows.append(Store(sid, cid, name, fmt, lat, lon, rev))
    return tuple(rows)


@pytest.fixture
def local_universe() -> StoreUniverse:
    return StoreUniverse(local_stores())


@pytest.fixture
def local_config() -> RunConfig:
    return RunConfig(merging_chains=STATE_MERGING, radius_miles=5.0)


@pytest.fixture
def merger() -> MergerSpec:
    return MergerSpec(*STATE_MERGING)


def scalar_circle_ids(universe, center: Store,
                      radius_miles: float) -> tuple[str, ...]:
    """Circle membership by one scalar haversine per store, in store-id
    order: the selection that the vectorised circle_market replaced."""
    radius_km = miles_to_km(radius_miles)
    return tuple(sorted(
        s.store_id for s in universe
        if haversine(center.position, s.position) <= radius_km
    ))


def outcome_table(chain, bit, revenue, sizes, n: int, parties) -> np.ndarray:
    """The (markets × 2^n × 3) outcomes of every exclusion mask: the blocks
    of merger_outcome_blocks put together."""
    table = np.empty((len(sizes), 1 << n, 3))
    for block, outcomes in merger_outcome_blocks(chain, bit, revenue, sizes,
                                                 n, parties):
        table[:, block] = outcomes
    return table


def entry_columns(markets, merger: MergerSpec):
    """outcome_table's columns, sizes and party codes for ``markets``
    given as lists of (chain id, bit, revenue) entries: chain ids are coded
    in order of first entry, and a party that no market holds gets a code
    past them."""
    entries = [entry for market in markets for entry in market]
    codes: dict[str, int] = {}
    chain = [codes.setdefault(c, len(codes)) for c, _, _ in entries]
    parties = [codes.setdefault(p, len(codes))
               for p in (merger.acquirer, merger.target)]
    return (np.array(chain, np.int64),
            np.array([bit for _, bit, _ in entries], np.int64),
            np.array([revenue for _, _, revenue in entries], np.float64),
            [len(market) for market in markets]), parties


def entry_outcome_table(markets, n: int, merger: MergerSpec):
    """outcome_table over ``markets`` of (chain id, bit, revenue)
    entries, through entry_columns."""
    columns, parties = entry_columns(markets, merger)
    return outcome_table(*columns, n, parties)


def scalar_state_outcomes(universe, ms: MarginalSet, merger: MergerSpec):
    """(post HHI, delta HHI, merged share) arrays by exclusion mask, from one
    chain_market and one merger_outcomes call per subset: the state path
    that the outcome kernel replaced."""
    return _scalar_outcomes(
        lambda subset: chain_market(universe, ms.labels_of(subset), "state"),
        ms.n, merger,
    )


def scalar_firm_outcomes(market: Market, ms: MarginalSet, config: RunConfig):
    """The same arrays from one exclude and one merger_outcomes call per
    subset: the firm path that the outcome kernel replaced."""
    return _scalar_outcomes(
        lambda subset: exclude(market, ms.labels_of(subset),
                               config.merging_chains),
        ms.n, config.merger,
    )


def _scalar_outcomes(market_of, n: int, merger: MergerSpec):
    rows = [merger_outcomes(market_of(ExclusionSet(n, bits)), merger)
            for bits in range(1 << n)]
    return tuple(np.array(column) for column in zip(*rows))


def scalar_local_outcomes(universe, merger: MergerSpec, ms: MarginalSet,
                          rule, radius_miles: float) -> list[dict]:
    """One record per analysed circle, in center order, from one
    chain_market, one merger_outcomes and one scalar presumption call per
    circle and exclusion set: the local path that analyze_local's chunked
    presumption_flags calls replaced.  Members come from
    scalar_circle_ids.  Arrays are indexed by bitmask."""
    parties = {merger.acquirer, merger.target}
    records = []
    for center in sorted((s for s in universe if s.chain_id in parties),
                         key=lambda s: s.store_id):
        members = [universe.store(i) for i in
                   scalar_circle_ids(universe, center, radius_miles)]
        if not parties <= {s.chain_id for s in members}:
            continue
        rows = []
        for subset in enumerate_subsets(ms.n):
            market = chain_market(members, ms.labels_of(subset),
                                  center.store_id)
            try:
                outcomes = merger_outcomes(market, merger)
            except DegenerateMarketError as exc:
                raise DegenerateMarketError(
                    f"circle around store {center.store_id!r} has zero total "
                    f"sales after excluding {subset_label(ms, subset)}"
                ) from exc
            rows.append((subset.bits, *outcomes,
                         presumption(*outcomes, rule)))
        rows.sort()
        _, post, delta, share, flags = (np.array(c) for c in zip(*rows))
        game = SimpleGame(ms.n, flags.astype(np.uint8))
        sensitive = not game.constant
        records.append({
            "center_id": center.store_id, "member_count": len(members),
            "post_hhi": post, "delta_hhi": delta, "merged_share": share,
            "flags": flags, "sensitive": sensitive,
            "sspi": sspi(game) if sensitive else None,
        })
    return records


def scalar_flags(columns, rule) -> np.ndarray:
    """The scalar presumption test applied cell by cell."""
    return np.array([
        presumption(post, delta, share, rule)
        for post, delta, share in zip(*(c.tolist() for c in columns))
    ])


# ---------------------------------------------------------------------------
# Object-based Hasse diagrams: one record per node and one per edge, with the
# emitters that walked them.  The table-backed diagram and its emitters
# replaced these; they stay as the byte-for-byte oracle.  Subsets are put in
# canonical order by ExclusionSet comparisons, not by canonical_masks.
# ---------------------------------------------------------------------------


class OracleNode(NamedTuple):
    subset: ExclusionSet
    outcomes: tuple[float, ...]
    flagged: bool


class OracleEdge(NamedTuple):
    from_subset: ExclusionSet
    to_subset: ExclusionSet
    deltas: tuple[float, ...]


def scalar_hasse(ms: MarginalSet, outcomes: Sequence[Sequence[float]],
                 flags: Sequence[bool], keep: set[int] | None = None):
    """(nodes, edges) from outcome rows and flags indexed by mask: the full
    lattice by build_hasse's bit loop, or, when ``keep`` names the kept
    masks, restrict's pairwise cover search over them."""
    subsets = sorted(ExclusionSet(ms.n, bits) for bits in range(1 << ms.n))
    nodes = [OracleNode(s, tuple(outcomes[s.bits]), bool(flags[s.bits]))
             for s in subsets if keep is None or s.bits in keep]

    def edge(lower, upper):
        deltas = tuple(c - p for c, p in zip(outcomes[upper.bits],
                                             outcomes[lower.bits]))
        return OracleEdge(lower, upper, deltas)

    edges = []
    if keep is None:
        for subset in subsets:
            for i in range(ms.n):
                if not subset.contains(i):
                    edges.append(edge(subset, subset.with_index(i)))
    else:
        ordered = [node.subset for node in nodes]
        for upper in ordered:
            below = [s for s in ordered
                     if s.bits != upper.bits and s.issubset(upper)]
            for lower in below:
                if not any(mid.bits != lower.bits and mid.bits != upper.bits
                           and lower.issubset(mid) and mid.issubset(upper)
                           for mid in below):
                    edges.append(edge(lower, upper))
    edges.sort(key=lambda e: e.from_subset.sort_key + e.to_subset.sort_key)
    return nodes, edges


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _dot_id(ms: MarginalSet, subset: ExclusionSet) -> str:
    labels = ms.labels_of(subset)
    return f'"{_dot_escape("_".join(labels) if labels else "empty")}"'


def scalar_hasse_dot(ms, metric_names, nodes, edges,
                     label_metrics: Sequence[str] | None = None) -> str:
    """Graphviz DOT of object nodes and edges, one node at a time."""
    positions = []
    for name in label_metrics or metric_names:
        if name not in metric_names:
            raise ValueError(f"unknown metric {name!r} in label_metrics")
        positions.append(metric_names.index(name))

    by_bits = {node.subset.bits: node for node in nodes}
    lines = ["digraph hasse {", "  rankdir=BT;",
             '  node [shape=box, style=filled, fillcolor=white];']
    by_size: dict[int, list[OracleNode]] = {}
    for node in sorted(nodes, key=lambda n: n.subset.sort_key):
        by_size.setdefault(node.subset.size, []).append(node)
    for size in sorted(by_size):
        layer = by_size[size]
        for node in layer:
            values = ", ".join(str(floor_int(node.outcomes[p]))
                               for p in positions)
            name = _dot_escape(subset_label(ms, node.subset))
            attrs = [f'label="{name}\\n{_dot_escape(values)}"']
            if node.flagged:
                attrs.append('fillcolor="lightcoral"')
            lines.append(f'  {_dot_id(ms, node.subset)} [{", ".join(attrs)}];')
        ids = "; ".join(_dot_id(ms, n.subset) for n in layer)
        lines.append(f"  {{ rank=same; {ids}; }}")
    for edge in edges:
        parts = []
        for p in positions:
            parent = by_bits[edge.from_subset.bits].outcomes[p]
            child = by_bits[edge.to_subset.bits].outcomes[p]
            shown = floor_int(child) - floor_int(parent)
            parts.append(f"{shown:+d}")
        lines.append(
            f'  {_dot_id(ms, edge.from_subset)} -> {_dot_id(ms, edge.to_subset)} '
            f'[label="{_dot_escape(", ".join(parts))}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def scalar_hasse_json(ms, metric_names, nodes, edges) -> str:
    """The diagram document built as dicts and passed to json.dumps."""
    doc = {
        "marginal_set": list(ms.members),
        "metrics": list(metric_names),
        "nodes": [
            {"subset": list(node.subset.indices),
             "outcomes": list(node.outcomes),
             "flagged": node.flagged}
            for node in nodes
        ],
        "edges": [
            {"from": list(edge.from_subset.indices),
             "to": list(edge.to_subset.indices),
             "deltas": list(edge.deltas)}
            for edge in edges
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def scalar_local_json(report) -> dict[str, str]:
    """local_counts.json and local_markets.json of a LocalReport, each built
    as one document of dicts and passed to json.dumps(indent=2): the writer
    that the block renderer replaced."""
    ms = report.marginal_set
    counts_doc = {
        "marginal_set": list(ms.members),
        "analyzed_markets": len(report.results),
        "sensitive_markets": report.sensitive_count,
        "counts": [
            {"subset": list(subset.indices), "count": count}
            for subset, count in report.counts
        ],
    }
    masks = [subset.bits for subset, _ in report.counts]
    indices = [list(subset.indices) for subset, _ in report.counts]
    markets_doc = {
        "marginal_set": list(ms.members),
        "radius_miles": report.config.radius_miles,
        "markets": [
            {
                "center_store_id": result.center_id,
                "member_count": result.member_count,
                "sensitive": result.sensitive,
                "sspi": list(result.sspi) if result.sspi is not None else None,
                "outcomes": [
                    {
                        "subset": subset,
                        "post_hhi": post,
                        "delta_hhi": delta,
                        "merged_share": share,
                        "flagged": flagged,
                    }
                    for subset, (post, delta, share), flagged in zip(
                        indices, result.table[masks].tolist(),
                        result.flags[masks].tolist()
                    )
                ],
            }
            for result in report.results
        ],
    }
    return {name: json.dumps(doc, indent=2) + "\n" for name, doc in (
        ("local_counts.json", counts_doc), ("local_markets.json", markets_doc))}


def fail_after_one_block(iterate):
    """``iterate`` cut short, as by a disk that fills mid-stream: its header
    chunk and its first block, then OSError("disk full")."""
    def broken(*args, **kwargs):
        yield from itertools.islice(iterate(*args, **kwargs), 2)
        raise OSError("disk full")

    return broken


# ---------------------------------------------------------------------------
# CSV / config builders for ingestion and CLI tests.
# ---------------------------------------------------------------------------

CSV_HEADER = "store_id,chain_id,chain_name,format,latitude,longitude,revenue"


def stores_csv_text(stores, region_of=None) -> str:
    """Render stores as CSV; ``region_of`` adds a region column."""
    header = CSV_HEADER + ",region" if region_of else CSV_HEADER
    lines = [header]
    for s in stores:
        row = (f"{s.store_id},{s.chain_id},{s.chain_name},{s.format},"
               f"{s.latitude},{s.longitude},{s.revenue}")
        if region_of:
            row += f",{region_of(s)}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def scalar_load_stores(path, drop_formats=(), region=None) -> StoreUniverse:
    """The row-at-a-time reader that :func:`mktsens.load_stores` replaced: one
    :class:`csv.DictReader` dict and one :class:`Store` per row.  It logs
    as the package does."""
    from mktsens.ingest import MAX_REPORTED_ERRORS, REGION_COLUMN, REQUIRED_COLUMNS

    def clean(raw):
        return None if raw is None else str(raw).strip()

    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read store file {path}: {exc}") from exc
    errors, stores, seen = [], [], set()
    dropped_by_format = dropped_by_region = 0
    drop = {f.strip().lower() for f in drop_formats}
    with handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames
        if header is None:
            raise DataError(f"store file {path} is empty")
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise DataError(f"store file {path} is missing required columns: "
                            f"{', '.join(missing)}")
        if region is not None and REGION_COLUMN not in header:
            raise DataError(f"store file {path} has no {REGION_COLUMN!r} column "
                            "but a region filter was requested")
        for row in reader:
            line = reader.line_num
            problems, text, numbers = [], {}, {}
            for column in REQUIRED_COLUMNS:
                value = clean(row.get(column))
                if value is None or value == "":
                    problems.append(f"missing {column}")
                else:
                    text[column] = value
            for column, low, high in (("latitude", -90.0, 90.0),
                                      ("longitude", -180.0, 180.0),
                                      ("revenue", 0.0, math.inf)):
                value = text.get(column)
                if value is None:
                    continue
                try:
                    parsed = float(value)
                except ValueError:
                    problems.append(f"{column} {value!r} is not a number")
                    continue
                if not math.isfinite(parsed) or not low <= parsed <= high:
                    problems.append(f"{column} {value!r} is out of range")
                else:
                    numbers[column] = parsed
            store_id = text.get("store_id")
            if store_id is not None:
                if store_id in seen:
                    problems.append(f"duplicate store id {store_id!r}")
                else:
                    seen.add(store_id)
            if problems:
                errors.append(f"line {line}: {'; '.join(problems)}")
                continue
            if region is not None and clean(row.get(REGION_COLUMN)) != region:
                dropped_by_region += 1
                continue
            store_format = text["format"].lower()
            if store_format in drop:
                dropped_by_format += 1
                continue
            stores.append(Store(text["store_id"], text["chain_id"],
                                text["chain_name"], store_format,
                                numbers["latitude"], numbers["longitude"],
                                numbers["revenue"]))
    if errors:
        shown = errors[:MAX_REPORTED_ERRORS]
        suffix = (f"\n... and {len(errors) - len(shown)} more"
                  if len(errors) > len(shown) else "")
        raise DataError(f"store file {path} has {len(errors)} invalid row(s):\n"
                        + "\n".join(shown) + suffix)
    logger = logging.getLogger("mktsens.ingest")
    if drop or region is not None:
        logger.info("loaded %d stores from %s (%d dropped by format filter, "
                    "%d outside region)", len(stores), path, dropped_by_format,
                    dropped_by_region)
    else:
        logger.info("loaded %d stores from %s", len(stores), path)
    return StoreUniverse(tuple(stores))


def write_inputs(tmp_path: Path, stores, config_doc: dict,
                 region_of=None) -> tuple[Path, Path]:
    stores_path = tmp_path / "stores.csv"
    stores_path.write_text(stores_csv_text(stores, region_of), encoding="utf-8")
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config_doc, indent=2), encoding="utf-8")
    return stores_path, config_path


def base_config_doc(**overrides) -> dict:
    doc = {"merging_chains": list(STATE_MERGING)}
    doc.update(overrides)
    return doc
