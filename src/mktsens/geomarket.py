"""Local circle markets around merging parties' stores.

Each store of the two merging chains anchors a circular candidate market;
stores within the radius (great-circle distance, inclusive boundary) form
the market and revenue aggregates by chain.  Selection works on a columnar
view of the universe: a store farther in latitude than the radius cannot be
in the circle, so each centre computes distances only inside its latitude
window, found by binary search in the latitude-sorted stores.
:func:`~mktsens.metrics.presumption_flags` then evaluates every exclusion set
of the circles from the universe's columns, as it does for the state and firm
lattices, in chunks of circles of at most :data:`LOCAL_CHUNK_ENTRIES` members.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, fields
from functools import cached_property
from operator import attrgetter
from typing import Hashable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .display import round_half_up
from .errors import DataError
from .lattice import MarginalSet
from .metrics import Market, MergerSpec, PresumptionRule, presumption_flags
from .shapley import SimpleGame, sspi

EARTH_RADIUS_KM = 6371.0088
MILES_TO_KM = 1.609344

# Member entries (stores, summed over circles) per presumption_flags call in
# analyze_local.  It bounds the kernel's padded per-entry arrays; results
# do not depend on it.
LOCAL_CHUNK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class Store:
    """One outlet: location, owning chain, format, and annual revenue."""

    store_id: str
    chain_id: str
    chain_name: str
    format: str
    latitude: float
    longitude: float
    revenue: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude <= 90.0:
            raise DataError(f"store {self.store_id!r}: latitude out of range")
        if not -180.0 <= self.longitude <= 180.0:
            raise DataError(f"store {self.store_id!r}: longitude out of range")
        if not math.isfinite(self.revenue):
            raise DataError(f"store {self.store_id!r}: revenue is not finite")
        if self.revenue < 0:
            raise DataError(f"store {self.store_id!r}: negative revenue")

    @property
    def position(self) -> tuple[float, float]:
        return (self.latitude, self.longitude)


def _codes(values: Sequence[Hashable], index: dict) -> np.ndarray:
    """Codes of ``values`` in ``index``, which numbers values as they first come."""
    for value in dict.fromkeys(values):
        index.setdefault(value, len(index))
    return np.fromiter(map(index.__getitem__, values), np.intp, len(values))


class StoreUniverse:
    """All stores under analysis, as columns in store-id order: ``ids``;
    float64 ``latitude``, ``longitude`` (degrees) and ``revenue``; and
    ``chain``, ``name`` and ``format``, codes of the strings ``chain_ids``,
    ``chain_names`` and ``formats`` in order of first store.  The universe
    depends on the set of stores only, not on the order they come in.  A
    :class:`Store` is a row view, built only where one is handed out.
    ``_columns`` takes checked columns in any row order: (ids, numbers, codes,
    strings), each ``strings`` dict numbering the values of its codes."""

    def __init__(self, stores: Iterable[Store] = (),
                 _columns: tuple | None = None) -> None:
        if _columns is None:
            fields_of = attrgetter(*(f.name for f in fields(Store)))
            ids, *text = list(zip(*map(fields_of, stores))) or [()] * 7
            seen: set[str] = set()
            if twice := [i for i in ids if i in seen or seen.add(i)]:
                raise DataError(f"duplicate store id {twice[0]!r}")
            strings: tuple[dict[str, int], ...] = ({}, {}, {})
            _columns = (ids, [np.array(column, np.float64) for column in text[3:]],
                        list(map(_codes, text[:3], strings)), strings)
        ids, numbers, codes, strings = _columns
        order = sorted(range(len(ids)), key=ids.__getitem__)
        self.ids: tuple[str, ...] = tuple(map(ids.__getitem__, order))
        row = np.array(order, np.intp)
        del order  # one int object per store: free them before the gathers
        self.latitude, self.longitude, self.revenue = (c[row] for c in numbers)
        # Renumber each string column's codes by first store in id order.
        renumbered: tuple[dict[int, int], ...] = ({}, {}, {})
        self.chain, self.name, self.format = (
            _codes(c[row].tolist(), index) for c, index in zip(codes, renumbered))
        self.chain_ids, self.chain_names, self.formats = (
            tuple(map(list(old).__getitem__, index))
            for old, index in zip(strings, renumbered))
        for array in (self.latitude, self.longitude, self.revenue,
                      self.chain, self.name, self.format):
            array.flags.writeable = False

    def _stores(self, rows: list[int]) -> tuple[Store, ...]:
        """The stores at ``rows``, as :class:`Store` objects."""
        text = (map(strings.__getitem__, codes[rows].tolist())
                for codes, strings in ((self.chain, self.chain_ids),
                                       (self.name, self.chain_names),
                                       (self.format, self.formats)))
        numbers = (column[rows].tolist()
                   for column in (self.latitude, self.longitude, self.revenue))
        return tuple(map(Store, map(self.ids.__getitem__, rows), *text, *numbers))

    @property
    def stores(self) -> tuple[Store, ...]:
        return self._stores(list(range(len(self))))

    def __iter__(self) -> Iterator[Store]:
        return iter(self.stores)

    def __len__(self) -> int:
        return len(self.ids)

    def store(self, store_id: str) -> Store:
        row = bisect_left(self.ids, store_id)
        if row == len(self) or self.ids[row] != store_id:
            raise DataError(f"unknown store id {store_id!r}")
        return self._stores([row])[0]

    def chains(self) -> dict[str, str]:
        """chain_id -> chain_name, the spelling of the chain's first store
        wins: chain codes count up in store-id order, so that store is where
        their maximum steps."""
        first = np.flatnonzero(np.diff(np.maximum.accumulate(self.chain), prepend=-1))
        return dict(zip(self.chain_ids,
                        map(self.chain_names.__getitem__, self.name[first].tolist())))

    def chain_codes(self, chain_ids: Iterable[str], what: str) -> list[int]:
        """The codes of ``chain_ids``; a chain with no stores is refused,
        named as a ``what``."""
        codes = []
        for chain_id in chain_ids:
            if chain_id not in self.chain_ids:
                raise DataError(f"{what} {chain_id!r} has no stores in the universe")
            codes.append(self.chain_ids.index(chain_id))
        return codes

    def sales(self) -> dict[str, float]:
        """Revenue by chain id in order of first store, each chain's stores
        added in store-id order, as :func:`chain_market` adds them."""
        return dict(zip(self.chain_ids, np.bincount(
            self.chain, self.revenue, len(self.chain_ids)).tolist()))

    def format_bits(self, marginal: Sequence[str]) -> np.ndarray:
        """Each store's :func:`merger_outcome_blocks` bit: its format's index
        in ``marginal``, or -1 for a format that is not marginal."""
        return np.array([marginal.index(f) if f in marginal else -1
                         for f in self.formats], np.intp)[self.format]

    @cached_property
    def latitude_index(self) -> LatitudeIndex:
        """The stores' latitudes in radians, sorted for window searches."""
        lat = np.radians(self.latitude)
        by_latitude = np.argsort(lat, kind="stable")
        return LatitudeIndex(lat, np.cos(lat), by_latitude, lat[by_latitude])


class LatitudeIndex(NamedTuple):
    """A universe's latitudes, for the windows of circle selection."""

    latitude: np.ndarray  # radians
    cos_latitude: np.ndarray
    by_latitude: np.ndarray  # rows in ascending latitude order
    sorted_latitude: np.ndarray  # latitude[by_latitude]


def haversine(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle distance in kilometers between (lat, lon) degree pairs.

    Uses the mean Earth radius 6371.0088 km; symmetric and nonnegative.
    """
    for lat, lon in (a, b):
        if not -90.0 <= lat <= 90.0:
            raise DataError(f"latitude {lat} out of range")
        if not -180.0 <= lon <= 180.0:
            raise DataError(f"longitude {lon} out of range")
    phi1, phi2 = math.radians(a[0]), math.radians(b[0])
    dphi = phi2 - phi1
    dlam = math.radians(b[1] - a[1])
    h = (
        math.sin(dphi / 2.0) ** 2
        + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(min(1.0, h)))


def miles_to_km(miles: float) -> float:
    return miles * MILES_TO_KM


@dataclass(frozen=True)
class CircleMarket:
    """Stores within ``radius_miles`` of a center store, boundary inclusive."""

    center: Store
    radius_miles: float
    members: tuple[Store, ...]

    @property
    def center_id(self) -> str:
        return self.center.store_id

    @property
    def member_ids(self) -> tuple[str, ...]:
        return tuple(s.store_id for s in self.members)


def _position(universe: StoreUniverse, row: int) -> tuple[float, float]:
    """The (latitude, longitude) degrees of the store at ``row``, as floats."""
    return float(universe.latitude[row]), float(universe.longitude[row])


def _circle_rows(universe: StoreUniverse, anchor: tuple[float, float],
                 radius_km: float) -> np.ndarray:
    """Rows of ``universe`` at most ``radius_km`` from ``anchor``, ascending.

    A great-circle distance is at least the Earth's radius times the
    latitude difference, so only the stores in the latitude window of
    ``radius_km`` (widened by the boundary band) can be members.  The vector
    haversine runs on that window only.
    """
    if radius_km < 0:
        raise ValueError("radius must be nonnegative")
    # numpy's sin/arcsin may differ from libm by a few ulps: let the scalar
    # haversine decide every store this close to the boundary.
    band = 1e-9 * max(radius_km, 1.0)
    phi = math.radians(anchor[0])
    reach = (radius_km + band) / EARTH_RADIUS_KM
    index = universe.latitude_index
    window = index.by_latitude[
        index.sorted_latitude.searchsorted(phi - reach, "left"):
        index.sorted_latitude.searchsorted(phi + reach, "right")
    ]
    dlam = np.radians(universe.longitude[window] - anchor[1])
    h = (
        np.sin((index.latitude[window] - phi) / 2.0) ** 2
        + math.cos(phi) * index.cos_latitude[window] * np.sin(dlam / 2.0) ** 2
    )
    distance = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.minimum(h, 1.0)))
    keep = distance <= radius_km
    for i in np.flatnonzero(np.abs(distance - radius_km) <= band).tolist():
        keep[i] = haversine(anchor, _position(universe, window[i])) <= radius_km
    return np.sort(window[keep])


def circle_market(
    universe: StoreUniverse,
    center: str | Store,
    radius_miles: float,
) -> CircleMarket:
    """Select every store at most ``radius_miles`` from the center store.

    ``center`` may be a store id (looked up in the universe) or a Store.
    The center is always a member; members are sorted by store id.
    """
    anchor = universe.store(center) if isinstance(center, str) else center
    rows = _circle_rows(universe, anchor.position, miles_to_km(radius_miles))
    return CircleMarket(anchor, radius_miles, universe._stores(rows.tolist()))


def chain_market(
    stores: Iterable[Store],
    excluded_formats: Iterable[str] = (),
    label: str = "",
) -> Market:
    """Aggregate store revenue into chain-level sales, dropping excluded formats."""
    drop = set(excluded_formats)
    sales: dict[str, float] = {}
    for store in stores:
        if store.format in drop:
            continue
        sales[store.chain_id] = sales.get(store.chain_id, 0.0) + store.revenue
    return Market(sales, label)


@dataclass(frozen=True, eq=False)
class LocalAnalysisResult:
    """Full sensitivity record of one circle market.

    ``table`` holds (post HHI, delta HHI, merged share) and ``flags`` the
    presumption flag of each exclusion set, in read-only rows indexed by
    bitmask.
    """

    center: Store
    radius_miles: float
    member_count: int
    table: np.ndarray
    flags: np.ndarray
    sensitive: bool
    sspi: tuple[float, ...] | None

    @property
    def center_id(self) -> str:
        return self.center.store_id


def analyze_local(
    universe: StoreUniverse,
    merger: MergerSpec,
    marginal_formats: MarginalSet | Sequence[str],
    rule: PresumptionRule = PresumptionRule(),
    radius_miles: float = 5.0,
) -> tuple[LocalAnalysisResult, ...]:
    """Run the exclusion-set analysis in a circle around every store of the
    two merging chains.

    Centers are the merging chains' stores, in store-id order.  Each circle
    is selected in its center's latitude window of the universe's
    :attr:`~StoreUniverse.latitude_index`.  A circle is analyzed only when both
    merging chains have at least one member store; single-party circles
    carry no competitive overlap and are skipped.  A merging chain whose
    in-circle revenue disappears under some exclusion set still evaluates,
    as a zero-sales firm, but a circle left with no sales at all by an
    exclusion set is refused with :class:`DegenerateMarketError`.  The
    analyzed circles go to :func:`~mktsens.metrics.presumption_flags` in
    chunks whose member entries total at most :data:`LOCAL_CHUNK_ENTRIES` (a
    larger circle goes alone), as the member rows of the universe's chain,
    format bit and revenue columns, one circle after another; the results do
    not depend on the chunking.  Circles with the same flags share one
    :func:`sspi` call.
    """
    ms = (
        marginal_formats
        if isinstance(marginal_formats, MarginalSet)
        else MarginalSet(marginal_formats)
    )
    parties = universe.chain_codes((merger.acquirer, merger.target),
                                   "merging chain")
    radius_km = miles_to_km(radius_miles)
    bits = universe.format_bits(ms.members)
    power: dict[bytes, tuple[float, ...] | None] = {}
    results = []
    for chunk in _two_party_chunks(universe, parties, radius_km):
        members = np.concatenate([rows for _, rows in chunk])
        table = np.empty((len(chunk), 1 << ms.n, 3))
        flags = presumption_flags(
            universe.chain[members], bits[members], universe.revenue[members],
            [len(rows) for _, rows in chunk], ms, parties, rule,
            [f"circle around store {universe.ids[c]!r}" for c, _ in chunk], table)
        centers = universe._stores([center for center, _ in chunk])
        for center, (_, rows), outcomes, flagged in zip(centers, chunk, table, flags):
            key = flagged.tobytes()
            if key not in power:
                game = SimpleGame(ms.n, flagged)
                power[key] = None if game.constant else sspi(game)
            results.append(LocalAnalysisResult(
                center, radius_miles, len(rows), outcomes,
                flagged, power[key] is not None, power[key],
            ))
    return tuple(results)


def _two_party_chunks(
    universe: StoreUniverse, parties: Sequence[int], radius_km: float
) -> Iterator[list[tuple[int, np.ndarray]]]:
    """The circles around the stores of the ``parties`` chain codes that hold
    both parties, as (center row, member rows) pairs in center order, in
    chunks of at most :data:`LOCAL_CHUNK_ENTRIES` member rows (a larger
    circle goes alone)."""
    chunk: list[tuple[int, np.ndarray]] = []
    held = 0
    for center in np.flatnonzero(np.isin(universe.chain, parties)).tolist():
        rows = _circle_rows(universe, _position(universe, center), radius_km)
        chains = universe.chain[rows]
        if not all((chains == party).any() for party in parties):
            continue
        if chunk and held + len(rows) > LOCAL_CHUNK_ENTRIES:
            yield chunk
            chunk, held = [], 0
        chunk.append((center, rows))
        held += len(rows)
    if chunk:
        yield chunk


def sspi_structure_table(
    results: Sequence[LocalAnalysisResult], decimals: int = 3
) -> tuple[tuple[tuple[float, ...], int], ...]:
    """Distinct rounded SSPI vectors across sensitive circles, with counts.

    Rows sort by descending count, then ascending vector, so the dominant
    power structure comes first and ties break deterministically.
    """
    tallies: dict[tuple[float, ...], int] = {}
    for result in results:
        if not result.sensitive or result.sspi is None:
            continue
        key = tuple(round_half_up(v, decimals) for v in result.sspi)
        tallies[key] = tallies.get(key, 0) + 1
    rows = sorted(tallies.items(), key=lambda kv: (-kv[1], kv[0]))
    return tuple(rows)
