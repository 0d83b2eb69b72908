"""Local circle markets around merging parties' stores.

Each store of the two merging chains anchors a circular candidate market;
stores within the radius (great-circle distance, inclusive boundary) form
the market and revenue aggregates by chain.  Selection works on a columnar
view of the universe: a store farther in latitude than the radius cannot be
in the circle, so each centre computes distances only inside its latitude
window, found by binary search in the latitude-sorted stores.
:func:`merger_outcome_table` then evaluates every exclusion set of the
circles, as it does for the state and firm lattices, over chunks of circles
whose member entries total at most :data:`LOCAL_CHUNK_ENTRIES`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .display import round_half_up
from .errors import DataError
from .lattice import MarginalSet, first_marked
from .metrics import (
    Market,
    MergerSpec,
    PresumptionRule,
    merger_outcome_table,
    presumption,
)
from .shapley import SimpleGame, sspi

EARTH_RADIUS_KM = 6371.0088
MILES_TO_KM = 1.609344

# Member entries (stores, summed over circles) per merger_outcome_table call
# in analyze_local.  It bounds the kernel's padded per-entry arrays; results
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


@dataclass(frozen=True)
class StoreUniverse:
    """All stores under analysis, looked up by store id."""

    stores: tuple[Store, ...]
    _by_id: dict[str, Store] = field(
        init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        by_id: dict[str, Store] = {}
        for store in self.stores:
            if store.store_id in by_id:
                raise DataError(f"duplicate store id {store.store_id!r}")
            by_id[store.store_id] = store
        object.__setattr__(self, "_by_id", by_id)

    def __iter__(self):
        return iter(self.stores)

    def __len__(self) -> int:
        return len(self.stores)

    def store(self, store_id: str) -> Store:
        try:
            return self._by_id[store_id]
        except KeyError:
            raise DataError(f"unknown store id {store_id!r}") from None

    def chains(self) -> dict[str, str]:
        """chain_id -> chain_name, first spelling wins."""
        out: dict[str, str] = {}
        for store in self.stores:
            out.setdefault(store.chain_id, store.chain_name)
        return out

    def of_chains(self, chain_ids: Iterable[str]) -> tuple[Store, ...]:
        wanted = set(chain_ids)
        return tuple(s for s in self.stores if s.chain_id in wanted)

    @cached_property
    def columns(self) -> StoreColumns:
        """The stores as arrays, row i being the i-th store in store-id order."""
        ordered = tuple(sorted(self.stores, key=lambda s: s.store_id))
        codes: dict[str, int] = {}
        chain = np.array([codes.setdefault(s.chain_id, len(codes))
                          for s in ordered], dtype=np.intp)
        lat = np.radians([s.latitude for s in ordered])
        by_latitude = np.argsort(lat, kind="stable")
        return StoreColumns(
            ordered, lat, np.cos(lat), np.array([s.longitude for s in ordered]),
            chain, codes, by_latitude, lat[by_latitude],
        )


class StoreColumns(NamedTuple):
    """A :class:`StoreUniverse` in store-id order, as circle selection reads it."""

    stores: tuple[Store, ...]
    latitude: np.ndarray  # radians
    cos_latitude: np.ndarray
    longitude: np.ndarray  # degrees
    chain: np.ndarray  # each store's code in chain_codes
    chain_codes: dict[str, int]  # chain id -> code, in order of first store
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


def _circle_rows(columns: StoreColumns, anchor: Store,
                 radius_km: float) -> np.ndarray:
    """Rows of ``columns`` at most ``radius_km`` from ``anchor``, ascending.

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
    phi = math.radians(anchor.latitude)
    reach = (radius_km + band) / EARTH_RADIUS_KM
    window = columns.by_latitude[
        columns.sorted_latitude.searchsorted(phi - reach, "left"):
        columns.sorted_latitude.searchsorted(phi + reach, "right")
    ]
    dlam = np.radians(columns.longitude[window] - anchor.longitude)
    h = (
        np.sin((columns.latitude[window] - phi) / 2.0) ** 2
        + math.cos(phi) * columns.cos_latitude[window] * np.sin(dlam / 2.0) ** 2
    )
    distance = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.minimum(h, 1.0)))
    keep = distance <= radius_km
    for i in np.flatnonzero(np.abs(distance - radius_km) <= band).tolist():
        store = columns.stores[window[i]]
        keep[i] = haversine(anchor.position, store.position) <= radius_km
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
    columns = universe.columns
    rows = _circle_rows(columns, anchor, miles_to_km(radius_miles))
    return CircleMarket(anchor, radius_miles,
                        tuple(map(columns.stores.__getitem__, rows.tolist())))


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
    :attr:`~StoreUniverse.columns`.  A circle is analyzed only when both
    merging chains have at least one member store; single-party circles
    carry no competitive overlap and are skipped.  A merging chain whose
    in-circle revenue disappears under some exclusion set still evaluates,
    as a zero-sales firm.  The analyzed circles go to
    :func:`merger_outcome_table` and :func:`presumption` in chunks whose
    member entries total at most :data:`LOCAL_CHUNK_ENTRIES` (a larger
    circle goes alone); the results do not depend on the chunking.  Circles
    with the same flags share one :func:`sspi` call.
    """
    ms = (
        marginal_formats
        if isinstance(marginal_formats, MarginalSet)
        else MarginalSet(marginal_formats)
    )
    columns = universe.columns
    parties = []
    for party in (merger.acquirer, merger.target):
        if party not in columns.chain_codes:
            raise DataError(f"merging chain {party!r} has no stores in the universe")
        parties.append(columns.chain_codes[party])
    radius_km = miles_to_km(radius_miles)
    bit_of = {label: i for i, label in enumerate(ms.members)}
    # One entry per store, shared by every circle that holds it.
    entries = [(s.chain_id, bit_of.get(s.format, -1), s.revenue)
               for s in columns.stores]
    power: dict[bytes, tuple[float, ...] | None] = {}
    results = []
    for chunk in _two_party_chunks(columns, parties, radius_km):
        post, delta, share = merger_outcome_table(
            [[entries[i] for i in rows.tolist()] for _, rows in chunk],
            ms.n,
            merger,
        )
        empty = np.isnan(share)
        if empty.any():
            row = int(np.flatnonzero(empty.any(axis=1))[0])
            subset = first_marked(empty[row], ms.n)
            raise DataError(
                f"circle around store {columns.stores[chunk[row][0]].store_id!r} "
                f"has no revenue left after excluding {sorted(ms.labels_of(subset))}"
            )
        table = np.stack((post, delta, share), axis=-1)
        flags = presumption(post, delta, share, rule)
        for array in (table, flags):
            array.flags.writeable = False
        for (center, rows), outcomes, flagged in zip(chunk, table, flags):
            key = flagged.tobytes()
            if key not in power:
                game = SimpleGame(ms.n, flagged)
                power[key] = None if game.constant else sspi(game)
            results.append(LocalAnalysisResult(
                columns.stores[center], radius_miles, len(rows), outcomes,
                flagged, power[key] is not None, power[key],
            ))
    return tuple(results)


def _two_party_chunks(
    columns: StoreColumns, parties: Sequence[int], radius_km: float
) -> Iterator[list[tuple[int, np.ndarray]]]:
    """The circles around the stores of the ``parties`` chain codes that hold
    both parties, as (center row, member rows) pairs in center order, in
    chunks of at most :data:`LOCAL_CHUNK_ENTRIES` member rows (a larger
    circle goes alone)."""
    chunk: list[tuple[int, np.ndarray]] = []
    held = 0
    for center in np.flatnonzero(np.isin(columns.chain, parties)).tolist():
        rows = _circle_rows(columns, columns.stores[center], radius_km)
        chains = columns.chain[rows]
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
