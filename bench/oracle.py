"""Independent numpy recomputation of what the three pipelines report.

Nothing here imports ``mktsens``: the outcomes, presumption flags, power
indices and circle memberships are rebuilt from the generated CSV and config
with array code, so a defect in the program cannot hide in the oracle.
Floating-point sums run in another order than in the program, so flags on
values within ``TIE`` of a threshold are treated as undecided.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HHI_SCALE = 10_000.0
POST_HHI_THRESHOLD = 1800.0
DELTA_HHI_THRESHOLD = 100.0
EARTH_RADIUS_KM = 6371.0088
MILES_TO_KM = 1.609344
TIE = 1e-6


@dataclass(frozen=True)
class Stores:
    """Column arrays of a store CSV, rows in store-id order."""

    ids: list
    chain: np.ndarray
    format: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    revenue: np.ndarray
    chains: list
    formats: list

    @classmethod
    def read(cls, path: Path) -> "Stores":
        with open(path, newline="", encoding="utf-8") as handle:
            rows = sorted(csv.DictReader(handle), key=lambda r: r["store_id"])
        chains = sorted({r["chain_id"] for r in rows})
        formats = sorted({r["format"] for r in rows})
        chain_of = {c: i for i, c in enumerate(chains)}
        format_of = {f: i for i, f in enumerate(formats)}
        return cls(
            ids=[r["store_id"] for r in rows],
            chain=np.array([chain_of[r["chain_id"]] for r in rows]),
            format=np.array([format_of[r["format"]] for r in rows]),
            lat=np.array([float(r["latitude"]) for r in rows]),
            lon=np.array([float(r["longitude"]) for r in rows]),
            revenue=np.array([float(r["revenue"]) for r in rows]),
            chains=chains,
            formats=formats,
        )

    def revenue_matrix(self, rows=slice(None)) -> np.ndarray:
        """Revenue summed by (chain, format) over the selected rows."""
        out = np.zeros((len(self.chains), len(self.formats)))
        np.add.at(out, (self.chain[rows], self.format[rows]),
                  self.revenue[rows])
        return out


def subset_sums(values: np.ndarray) -> np.ndarray:
    """Sums over every subset of the leading axis, indexed by bit mask."""
    out = np.zeros((1,) + values.shape[1:])
    for row in values:
        out = np.concatenate([out, out + row])
    return out


@dataclass(frozen=True)
class Lattice:
    """Outcomes and presumption flags of every exclusion mask."""

    post: np.ndarray
    delta: np.ndarray
    share: np.ndarray

    @classmethod
    def from_sales(cls, sales: np.ndarray, a: int, b: int) -> "Lattice":
        """``sales`` is (masks x chains); ``a`` and ``b`` merge."""
        total = sales.sum(axis=1)
        shares = sales / total[:, None]
        sa, sb = shares[:, a], shares[:, b]
        base = HHI_SCALE * (shares * shares).sum(axis=1)
        post = base + HHI_SCALE * 2.0 * sa * sb
        return cls(post, HHI_SCALE * 2.0 * sa * sb, sa + sb)

    @property
    def flags(self) -> np.ndarray:
        return (self.post > POST_HHI_THRESHOLD) & (
            self.delta > DELTA_HHI_THRESHOLD
        )

    @property
    def sensitive(self) -> bool:
        """Whether the presumption flag changes anywhere on the lattice."""
        flags = self.flags
        return bool(flags.min() != flags.max())

    @property
    def undecided(self) -> np.ndarray:
        return (np.abs(self.post - POST_HHI_THRESHOLD) < TIE) | (
            np.abs(self.delta - DELTA_HHI_THRESHOLD) < TIE
        )


def _format_lattice(stores: Stores, config: dict, rows=slice(None)):
    matrix = stores.revenue_matrix(rows)
    marginal = [stores.formats.index(f) for f in config["marginal_formats"]
                if f in stores.formats]
    if len(marginal) != len(config["marginal_formats"]):
        raise ValueError("a marginal format has no stores")
    removed = subset_sums(matrix[:, marginal].T)
    return removed, matrix.sum(axis=1)


def state_lattice(stores: Stores, config: dict) -> Lattice:
    """Exclusion over marginal formats on the whole universe."""
    removed, full = _format_lattice(stores, config)
    a, b = (stores.chains.index(c) for c in config["merging_chains"])
    return Lattice.from_sales(full[None, :] - removed, a, b)


def firm_lattice(stores: Stores, config: dict) -> Lattice:
    """Exclusion over marginal firms; the remaining chains keep all sales."""
    full = stores.revenue_matrix().sum(axis=1)
    firms = [stores.chains.index(c) for c in config["marginal_firms"]]
    removed = subset_sums(np.diag(full)[firms])
    a, b = (stores.chains.index(c) for c in config["merging_chains"])
    return Lattice.from_sales(full[None, :] - removed, a, b)


def sspi(wins: np.ndarray) -> np.ndarray:
    """Shapley-Shubik index of a 0/1 game table, in floating point."""
    n = wins.size.bit_length() - 1
    pop = np.zeros(wins.size, dtype=np.int64)
    for i in range(n):
        pop += (np.arange(wins.size) >> i) & 1
    weight = np.array([
        math.factorial(k) * math.factorial(n - 1 - k) / math.factorial(n)
        for k in range(n)
    ])
    table = wins.astype(np.float64)
    out = np.empty(n)
    for i in range(n):
        blocks = table.reshape(-1, 2, 1 << i)
        gains = (blocks[:, 1, :] - blocks[:, 0, :]).ravel()
        without = pop.reshape(-1, 2, 1 << i)[:, 0, :].ravel()
        out[i] = float(np.dot(weight[without], gains))
    return out


def distances_km(stores: Stores, centre: int) -> np.ndarray:
    """Haversine distance from one store to every store."""
    phi1 = math.radians(stores.lat[centre])
    phi2 = np.radians(stores.lat)
    dphi = phi2 - phi1
    dlam = np.radians(stores.lon - stores.lon[centre])
    h = (np.sin(dphi / 2.0) ** 2
         + math.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.minimum(1.0, h)))


@dataclass(frozen=True)
class Circle:
    """One defendant-centred circle as the oracle sees it."""

    centre_id: str
    members: int
    two_party: bool
    boundary_tie: bool
    lattice: Lattice | None


def local_circles(stores: Stores, config: dict) -> list:
    """Every defendant centre's circle, in store-id order."""
    parties = [stores.chains.index(c) for c in config["merging_chains"]]
    radius_km = config["radius_miles"] * MILES_TO_KM
    out = []
    for centre in np.flatnonzero(np.isin(stores.chain, parties)):
        d = distances_km(stores, centre)
        inside = d <= radius_km
        present = set(stores.chain[inside].tolist())
        two_party = all(p in present for p in parties)
        lattice = None
        if two_party:
            removed, full = _format_lattice(stores, config, inside)
            lattice = Lattice.from_sales(full[None, :] - removed, *parties)
        out.append(Circle(
            centre_id=stores.ids[centre],
            members=int(inside.sum()),
            two_party=two_party,
            boundary_tie=bool((np.abs(d - radius_km) < TIE).any()),
            lattice=lattice,
        ))
    return out


def check_game(lattice: Lattice, what: str) -> None:
    """Raise unless the presumption game is non-constant and not flagged
    at the broadest market, so that its power indices are informative."""
    flags = lattice.flags
    if flags[0] or lattice.undecided[0]:
        raise ValueError(f"{what}: the broadest market is already flagged")
    if not flags.any():
        raise ValueError(f"{what}: no exclusion set is flagged")
