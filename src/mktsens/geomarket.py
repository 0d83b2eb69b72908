"""Local circle markets around merging parties' stores.

Each store of the two merging chains anchors a circular candidate market;
stores within the radius (great-circle distance, inclusive boundary) form
the market and revenue aggregates by chain.  One :func:`merger_outcome_table` call then
evaluates every exclusion set of every circle, as it does for the state and
firm lattices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .display import round_half_up
from .errors import DataError
from .lattice import ExclusionSet, MarginalSet, canonical_masks
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
    def _coordinates(self) -> tuple:
        """(stores by id, latitude radians, its cosine, longitude degrees)."""
        ordered = tuple(sorted(self.stores, key=lambda s: s.store_id))
        lat = np.radians([s.latitude for s in ordered])
        lon = np.array([s.longitude for s in ordered])
        return ordered, lat, np.cos(lat), lon


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


def circle_market(
    universe: StoreUniverse,
    center: str | Store,
    radius_miles: float,
) -> CircleMarket:
    """Select every store at most ``radius_miles`` from the center store.

    ``center`` may be a store id (looked up in the universe) or a Store.
    The center is always a member; members are sorted by store id.
    """
    if radius_miles < 0:
        raise ValueError("radius must be nonnegative")
    anchor = universe.store(center) if isinstance(center, str) else center
    radius_km = miles_to_km(radius_miles)
    ordered, lat, cos_lat, lon = universe._coordinates
    phi = math.radians(anchor.latitude)
    dlam = np.radians(lon - anchor.longitude)
    h = (
        np.sin((lat - phi) / 2.0) ** 2
        + math.cos(phi) * cos_lat * np.sin(dlam / 2.0) ** 2
    )
    distance = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.minimum(h, 1.0)))
    keep = distance <= radius_km
    # numpy's sin/arcsin may differ from libm by a few ulps: let the scalar
    # haversine decide every store this close to the boundary.
    band = 1e-9 * max(radius_km, 1.0)
    for i in np.flatnonzero(np.abs(distance - radius_km) <= band):
        keep[i] = haversine(anchor.position, ordered[i].position) <= radius_km
    members = tuple(ordered[i] for i in np.flatnonzero(keep))
    return CircleMarket(anchor, radius_miles, members)


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

    Centers are the merging chains' stores, in store-id order.  A circle is
    analyzed only when both merging chains have at least one member store;
    single-party circles carry no competitive overlap and are skipped.  A
    merging chain whose in-circle revenue disappears under some exclusion
    set still evaluates, as a zero-sales firm.  One :func:`merger_outcome_table` call
    evaluates every exclusion set of every analyzed circle, and one
    :func:`presumption` call flags them.
    """
    ms = (
        marginal_formats
        if isinstance(marginal_formats, MarginalSet)
        else MarginalSet(marginal_formats)
    )
    parties = (merger.acquirer, merger.target)
    universe_chains = {s.chain_id for s in universe}
    for party in parties:
        if party not in universe_chains:
            raise DataError(f"merging chain {party!r} has no stores in the universe")
    centers = sorted(universe.of_chains(parties), key=lambda s: s.store_id)
    circles = [
        circle
        for circle in (circle_market(universe, c, radius_miles) for c in centers)
        if set(parties) <= {s.chain_id for s in circle.members}
    ]
    bit_of = {label: i for i, label in enumerate(ms.members)}
    # One entry per store, shared by every circle that holds it.
    entry_of = {s.store_id: (s.chain_id, bit_of.get(s.format, -1), s.revenue)
                for s in universe}
    columns = merger_outcome_table(
        [[entry_of[s.store_id] for s in circle.members] for circle in circles],
        ms.n,
        merger,
    )
    empty = np.isnan(columns[2])
    if empty.any():
        row = int(np.flatnonzero(empty.any(axis=1))[0])
        masks = canonical_masks(ms.n)
        subset = ExclusionSet(ms.n, int(masks[empty[row, masks]][0]))
        raise DataError(
            f"circle around store {circles[row].center_id!r} has no revenue "
            f"left after excluding {sorted(ms.labels_of(subset))}"
        )
    table = np.stack(columns, axis=-1)
    flags = presumption(*columns, rule)
    for array in (table, flags):
        array.flags.writeable = False
    results = []
    for circle, outcomes, flagged in zip(circles, table, flags):
        game = SimpleGame(ms.n, flagged)
        sensitive = not game.constant
        results.append(LocalAnalysisResult(
            circle.center, circle.radius_miles, len(circle.members), outcomes,
            flagged, sensitive, sspi(game) if sensitive else None,
        ))
    return tuple(results)


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
