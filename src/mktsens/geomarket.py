"""Local circle markets around merging parties' stores.

Each store of the two merging chains anchors a circular candidate market;
stores within the radius (great-circle distance, inclusive boundary) form
the market and revenue aggregates by chain.  Selection takes every centre at
once: stores are indexed by latitude cell, one radius high, then longitude,
and each centre's distances go only to the stores of its cell and the two
beside it that lie in its cap's longitude range, in passes of bounded size.
:func:`~mktsens.metrics.presumption_flags` then evaluates every exclusion set
of each pass's circles from the universe's columns, as for the state and firm lattices.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Hashable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .display import once_per_value, round_half_up
from .errors import DataError
from .lattice import MarginalSet
from .metrics import Market, MergerSpec, PresumptionRule, presumption_flags
from .shapley import SimpleGame, sspi

EARTH_RADIUS_KM = 6371.0088
MILES_TO_KM = 1.609344

# (Centre, store) pairs per pass of circle selection, and so at most as many
# member entries per presumption_flags call in analyze_local.  It bounds the
# per-pair and the kernel's per-entry arrays; results do not depend on it.
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

    def cell_index(self, height: float) -> CellIndex:
        """The stores by latitude cell, ``floor(latitude / height)`` in
        radians, then by longitude; kept until another height is asked for."""
        if getattr(self, "_cells", None) is None or self._cells.height != height:
            # Stable float argsorts: each numpy sort kernel used adds to peak RSS.
            by_longitude = np.argsort(self.longitude, kind="stable")
            longitudes = self.longitude[by_longitude]
            cell = np.floor(np.radians(self.latitude) / height)
            order = by_longitude[np.argsort(cell[by_longitude], kind="stable")]
            key = (cell.astype(np.int64) * (len(self) + 1)
                   + longitudes.searchsorted(self.longitude))
            self._cells = CellIndex(height, key[order], order, longitudes,
                                    np.cos(np.radians(self.latitude)))
        return self._cells


class CellIndex(NamedTuple):
    """A universe's stores sorted by an exact integer key: latitude cell ×
    (stores + 1) + the number of stores west of the store."""

    height: float  # of a latitude cell, radians
    keys: np.ndarray  # ascending
    order: np.ndarray  # the universe's rows in key order
    longitudes: np.ndarray  # the stores' longitudes, ascending
    cos_latitude: np.ndarray  # by row


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


def _circles(universe: StoreUniverse, latitude: np.ndarray, longitude: np.ndarray,
             radius_km: float) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Rows of ``universe`` at most ``radius_km`` from each point of
    ``latitude`` and ``longitude`` (degrees), in passes of at most
    :data:`LOCAL_CHUNK_ENTRIES` (point, store) pairs, or of one point: a pass
    yields its first point, its points' member counts and their member rows,
    point after point, each point's ascending.  A point's candidates are the
    stores of its :meth:`~StoreUniverse.cell_index` cell, at least ``reach``
    (radius and band) high, and the two beside it, in its cap's longitude
    range: all longitudes if the cap reaches a pole, else one range, or two
    across ±180°.
    """
    if not radius_km >= 0:
        raise ValueError("radius must be nonnegative")
    # Every store is within the circumference: a finite radius keeps the band small.
    radius_km = min(radius_km, 2 * math.pi * EARTH_RADIUS_KM)
    # numpy's sin/arcsin may differ from libm by a few ulps: let the scalar
    # haversine decide every store this close to the boundary.
    band = 1e-9 * max(radius_km, 1.0)
    reach = (radius_km + band) / EARTH_RADIUS_KM
    index = universe.cell_index(max(reach, 1e-9))  # keys fit in int64
    phi, n = np.radians(latitude), len(universe)
    cos_phi = np.cos(phi)
    # The cap's half-width in longitude, widened past the bounds' rounding.
    # A cap wider than pi/2 reaches a pole; 2 keeps sin(wide) positive.
    wide = min(reach * (1 + 1e-6) + 1e-15, 2.0)
    half = np.where(np.abs(phi) + wide >= math.pi / 2, 360.0, np.degrees(
        np.arcsin(np.minimum(math.sin(wide) / cos_phi, 1.0))) + 1e-9)
    low, high = longitude - half, longitude + half
    # The second range is the first moved by 360 degrees, or empty.
    shift = np.where(half > 180.0, np.inf, np.where(low < -180.0, 360.0, -360.0))
    cells = np.floor(phi / index.height)[:, None] + (-1.0, 0.0, 1.0)
    base = (cells.astype(np.int64) * (n + 1))[:, :, None]
    first, last = (index.keys.searchsorted(base + index.longitudes.searchsorted(
        np.stack([end, end + shift], 1), side)[:, None, :]).reshape(len(phi), 6)
        for end, side in ((low, "left"), (high, "right")))
    size = last - first
    total = size.sum(1)
    ends = np.cumsum(total)
    stop = 0
    while (start := stop) < len(phi):
        stop = max(start + 1, int(ends.searchsorted(
            ends[start] - total[start] + LOCAL_CHUNK_ENTRIES, "right")))
        sizes = size[start:stop].ravel()
        rows = index.order[np.arange(sizes.sum()) + np.repeat(
            first[start:stop].ravel() - np.cumsum(sizes) + sizes, sizes)]
        point = np.repeat(np.arange(start, stop), total[start:stop])
        dlam = np.radians(universe.longitude[rows] - longitude[point])
        h = (np.sin((np.radians(universe.latitude[rows]) - phi[point]) / 2.0) ** 2
             + cos_phi[point] * index.cos_latitude[rows] * np.sin(dlam / 2.0) ** 2)
        distance = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.minimum(h, 1.0)))
        keep = distance <= radius_km
        for i in np.flatnonzero(np.abs(distance - radius_km) <= band).tolist():
            keep[i] = haversine((latitude[point[i]], longitude[point[i]]), (
                universe.latitude[rows[i]], universe.longitude[rows[i]])) <= radius_km
        member = np.sort(point[keep] * (n + 1) + rows[keep])
        counts = np.bincount(member // (n + 1) - start, minlength=stop - start)
        del rows, point, dlam, h, distance, keep  # free the pairs for the caller
        yield start, counts, np.remainder(member, n + 1, out=member)


def circle_market(universe: StoreUniverse, center: str | Store,
                  radius_miles: float) -> CircleMarket:
    """Select every store at most ``radius_miles`` from the center store.

    ``center`` may be a store id (looked up in the universe) or a Store,
    which need not belong to the universe.  A center of the universe is
    always a member; members are sorted by store id.
    """
    anchor = universe.store(center) if isinstance(center, str) else center
    [(_, _, rows)] = _circles(universe, np.array([anchor.latitude]),
                              np.array([anchor.longitude]), miles_to_km(radius_miles))
    return CircleMarket(anchor, radius_miles, universe._stores(rows.tolist()))


def chain_market(stores: Iterable[Store], excluded_formats: Iterable[str] = (),
                 label: str = "") -> Market:
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


def analyze_local(universe: StoreUniverse, merger: MergerSpec,
                  marginal_formats: MarginalSet | Sequence[str],
                  rule: PresumptionRule = PresumptionRule(),
                  radius_miles: float = 5.0) -> tuple[LocalAnalysisResult, ...]:
    """Run the exclusion-set analysis in a circle around every store of the
    two merging chains.

    Centers are the merging chains' stores, in store-id order; their circles
    are selected together from the universe's :meth:`~StoreUniverse.cell_index`.
    A circle is analyzed only when both merging chains have at least one
    member store; single-party circles carry no competitive overlap and are
    skipped.  A merging chain whose in-circle revenue disappears under some
    exclusion set still evaluates, as a zero-sales firm, but a circle left
    with no sales at all by an exclusion set is refused with
    :class:`DegenerateMarketError`.  Each selection pass's analyzed circles
    go to :func:`~mktsens.metrics.presumption_flags` together, so their member
    entries total at most :data:`LOCAL_CHUNK_ENTRIES` (a larger circle goes
    alone), as the member rows of the universe's chain, format bit and revenue
    columns, one circle after another; the results do not depend on the
    bound.  Circles with the same flags share one :func:`sspi` call.
    """
    ms = (marginal_formats if isinstance(marginal_formats, MarginalSet)
          else MarginalSet(marginal_formats))
    parties = universe.chain_codes((merger.acquirer, merger.target), "merging chain")
    centers = np.flatnonzero(np.isin(universe.chain, parties))
    bits = universe.format_bits(ms.members)
    power: dict[bytes, tuple[float, ...] | None] = {}
    results = []
    points = universe.latitude[centers], universe.longitude[centers]
    for start, sizes, rows in _circles(universe, *points, miles_to_km(radius_miles)):
        # Each center is in its own circle, so no circle is empty.
        both = np.logical_or.reduceat(universe.chain[rows][:, None] == parties,
                                      np.cumsum(sizes) - sizes).all(1)
        rows, sizes = rows[np.repeat(both, sizes)], sizes[both].tolist()
        analyzed = centers[start + np.flatnonzero(both)].tolist()
        table = np.empty((len(sizes), 1 << ms.n, 3))
        names = [f"circle around store {universe.ids[c]!r}" for c in analyzed]
        flags = presumption_flags(universe.chain[rows], bits[rows],
                                  universe.revenue[rows], sizes, ms, parties, rule,
                                  names, table)
        for center, size, outcomes, flagged in zip(universe._stores(analyzed), sizes,
                                                   table, flags):
            key = flagged.tobytes()
            if key not in power:
                game = SimpleGame(ms.n, flagged)
                power[key] = None if game.constant else sspi(game)
            results.append(LocalAnalysisResult(center, radius_miles, size, outcomes,
                                               flagged, power[key] is not None,
                                               power[key]))
    return tuple(results)


def sspi_structure_table(results: Sequence[LocalAnalysisResult], decimals: int = 3
                         ) -> tuple[tuple[tuple[float, ...], int], ...]:
    """Distinct rounded SSPI vectors across sensitive circles, with counts.

    Rows sort by descending count, then ascending vector, so the dominant
    power structure comes first and ties break deterministically.
    """
    tallies: dict[tuple[float, ...], int] = {}
    rounded = once_per_value(lambda v: round_half_up(v, decimals))
    for result in results:
        if not result.sensitive or result.sspi is None:
            continue
        key = tuple(map(rounded, result.sspi))
        tallies[key] = tallies.get(key, 0) + 1
    rows = sorted(tallies.items(), key=lambda kv: (-kv[1], kv[0]))
    return tuple(rows)
