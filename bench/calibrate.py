"""Fixed pure-Python work that measures how fast the machine is right now.

usage: python bench/calibrate.py

Shared machines change speed by tens of percent within seconds, as
neighbours contend for the host.  ``run.py`` times this script in a fresh
process between consecutive CLI invocations and rescales a run's times by
the total of these timings (see ``run.calibrated``).  The work mixes what
the CLI does: interpreter
start, great-circle distances, dict aggregation, sorting, float formatting
and JSON.  It imports nothing from ``mktsens``, so no change to the program
can change it; it must never change either, or timings before and after
stop being comparable.
"""

import json
import math
import random


def main() -> None:
    rng = random.Random(7)
    rows = [
        {"id": f"s{i:06d}", "chain": f"c{rng.randrange(24):02d}",
         "revenue": rng.random() * 100.0,
         "position": (39.0 + 2.0 * rng.random(), -91.0 + 2.0 * rng.random())}
        for i in range(40_000)
    ]
    near = 0
    for centre in rows[:3]:
        lat1, lon1 = centre["position"]
        for row in rows:
            lat2, lon2 = row["position"]
            phi1, phi2 = math.radians(lat1), math.radians(lat2)
            h = (math.sin((phi2 - phi1) / 2.0) ** 2
                 + math.cos(phi1) * math.cos(phi2)
                 * math.sin(math.radians(lon2 - lon1) / 2.0) ** 2)
            near += 2.0 * 6371.0 * math.asin(math.sqrt(min(1.0, h))) <= 8.0
    sales: dict = {}
    for _ in range(3):
        for row in rows:
            sales[row["chain"]] = sales.get(row["chain"], 0.0) + row["revenue"]
    rows.sort(key=lambda row: (row["chain"], -row["revenue"]))
    json.dumps([{k: row[k] for k in ("id", "chain", "revenue")}
                for row in rows[:15_000]], indent=2)
    [f'"{row["id"]}" -> "{row["chain"]}" [label="{row["revenue"]:+.1f}"];'
     for row in rows]


if __name__ == "__main__":
    main()
