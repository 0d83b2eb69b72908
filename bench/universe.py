"""Seeded synthetic store universes and run configurations.

A universe is a store CSV plus a JSON run config.  Stores are uniform points
in a 2 x 2 degree box; chain sizes follow a Zipf law by rank and are the same
for every seed, so the amount of work a workload does barely moves with the
seed while positions, formats and revenues do.  Large chains sell mostly in
the always-in formats and small chains mostly in the marginal ones, which is
what makes excluding marginal formats (or firms) raise concentration enough
to cross the presumption thresholds.

Only the standard library's ``random.Random`` draws numbers, because its
output for an integer seed is stable across Python versions; the reference
report digests depend on the CSV bytes being reproducible.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

ALWAYS_IN = ("supermarket", "supercenter")
FORMAT_POOL = (
    "club", "natural", "limited", "warehouse", "dollar", "drug",
    "convenience", "ethnic", "organic", "discount", "gourmet", "military",
    "express",
)
BOX_SOUTH, BOX_WEST, BOX_DEGREES = 39.0, -91.0, 2.0
RADIUS_MILES = 5.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: universe shape plus the CLI subcommand.

    Why each workload exists is recorded in BENCHMARK.json.
    """

    name: str
    command: str
    stores: int
    chains: int
    marginal_formats: int
    marginal_firms: int
    merging_ranks: tuple[int, int]
    zipf: float = 0.75

    def params(self) -> dict:
        return {
            "command": self.command,
            "stores": self.stores,
            "chains": self.chains,
            "marginal_formats": self.marginal_formats,
            "marginal_firms": self.marginal_firms,
            "merging_ranks": list(self.merging_ranks),
            "zipf": self.zipf,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="local-sweep",
            command="local",
            stores=3000, chains=20, marginal_formats=3, marginal_firms=0,
            merging_ranks=(2, 3), zipf=0.3,
        ),
        Workload(
            name="state-lattice",
            command="state",
            stores=2500, chains=24, marginal_formats=12, marginal_firms=0,
            merging_ranks=(1, 2), zipf=0.85,
        ),
        Workload(
            name="firm-power",
            command="firm",
            stores=2000, chains=24, marginal_formats=3, marginal_firms=16,
            merging_ranks=(1, 2),
        ),
    )
}


def chain_id(rank: int) -> str:
    return f"c{rank:02d}"


def zipf_sizes(total: int, chains: int, exponent: float) -> list[int]:
    """Store counts by chain rank, proportional to rank**-exponent."""
    weights = [rank ** -exponent for rank in range(1, chains + 1)]
    scale = total / sum(weights)
    sizes = [int(w * scale) for w in weights]
    by_remainder = sorted(
        range(chains), key=lambda i: (-(weights[i] * scale - sizes[i]), i)
    )
    for i in by_remainder[: total - sum(sizes)]:
        sizes[i] += 1
    return sizes


def store_csv(workload: Workload, seed: int) -> str:
    """The store CSV text for one workload and seed."""
    rng = random.Random(f"{workload.name}:{seed}")
    marginal = FORMAT_POOL[: workload.marginal_formats]
    format_weights = [(j + 1) ** -0.75 for j in range(len(marginal))]
    sizes = zipf_sizes(workload.stores, workload.chains, workload.zipf)
    rows = []
    for rank, size in enumerate(sizes, start=1):
        # Chain 1 sells 5% of its stores in marginal formats, the
        # smallest chain 95%.  The merging chains sell only in always-in
        # formats, so a circle keeps its centre's revenue under every
        # exclusion set and the CLI never meets an empty circle market.
        p_marginal = 0.05 + 0.9 * (rank - 1) / (workload.chains - 1)
        if rank in workload.merging_ranks:
            p_marginal = 0.0
        for _ in range(size):
            if rng.random() < p_marginal:
                fmt = rng.choices(marginal, format_weights)[0]
            else:
                fmt = rng.choice(ALWAYS_IN)
            rows.append([
                chain_id(rank),
                f"Chain {rank}",
                fmt,
                f"{BOX_SOUTH + BOX_DEGREES * rng.random():.6f}",
                f"{BOX_WEST + BOX_DEGREES * rng.random():.6f}",
                f"{rng.lognormvariate(2.3, 0.5):.2f}",
            ])
    rng.shuffle(rows)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["store_id", "chain_id", "chain_name", "format",
                     "latitude", "longitude", "revenue"])
    for number, row in enumerate(rows, start=1):
        writer.writerow([f"s{number:06d}"] + row)
    return buffer.getvalue()


def run_config(workload: Workload) -> dict:
    """The run config; every generated format is always-in or marginal."""
    acquirer, target = (chain_id(r) for r in workload.merging_ranks)
    firms = [
        chain_id(rank)
        for rank in range(workload.chains - workload.marginal_firms + 1,
                          workload.chains + 1)
    ]
    return {
        "merging_chains": [acquirer, target],
        "always_in_formats": list(ALWAYS_IN),
        "marginal_formats": list(FORMAT_POOL[: workload.marginal_formats]),
        "marginal_firms": firms,
        "radius_miles": RADIUS_MILES,
    }


@dataclass(frozen=True)
class Inputs:
    """Generated input files and their SHA-256 digests."""

    stores: Path
    config: Path
    sha256: dict


def write_inputs(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Write stores.csv and run.json for ``seed`` into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    texts = {
        "stores.csv": store_csv(workload, seed),
        "run.json": json.dumps(run_config(workload), indent=2) + "\n",
    }
    digests = {}
    for name, text in texts.items():
        data = text.encode("utf-8")
        (directory / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    return Inputs(directory / "stores.csv", directory / "run.json", digests)
