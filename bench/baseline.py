"""Repeat benchmark runs over several seeds and summarise their spread.

usage: python3 bench/baseline.py --seeds 1-10 --out FILE

For each seed, runs ``run.py`` for ``run_seconds`` once per workload in
BENCHMARK.json, interleaving the workloads so that drift on a shared machine
spreads across all of them, then one traced run per workload on the first
seed.  Prints, per workload and end-to-end metric, the median, the quartiles
of the per-run values and their spread (interquartile range over the median)
next to the metric's bound in BENCHMARK.json, and writes everything to FILE
as JSON.  The uncalibrated ``wall_s`` and ``setup_s`` medians that each run
prints get the same summary under ``raw_end_to_end``, so the effect of the
calibration can be read off.
``baseline.json`` in this directory is that file for the seed commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import universe
from run import BENCH, ROOT

# Which end-to-end metric each layer metric should move, and on which
# workload the layer does most of its work.
LAYER_MAP = [
    {"layer": "ingest",
     "metrics": ["ingest.load_stores.s", "ingest.stores_loaded",
                 "ingest.rows_per_s"],
     "moves": ["setup_s"], "most_work": "local-sweep",
     "small_or_absent": "small everywhere"},
    {"layer": "config", "metrics": ["config.load_config.s"],
     "moves": ["setup_s"], "most_work": "all, expected about 0",
     "small_or_absent": ""},
    {"layer": "geomarket",
     "metrics": ["geomarket.circle_market.s", "geomarket.circle_market.calls",
                 "geomarket.distance_evals (computed: calls x universe size)",
                 "geomarket.circle_members_mean"],
     "moves": ["wall_s"], "most_work": "local-sweep",
     "small_or_absent": "absent in state-lattice and firm-power"},
    {"layer": "geomarket",
     "metrics": ["geomarket.chain_market.s", "geomarket.chain_market.calls",
                 "geomarket.chain_market.stores_scanned"],
     "moves": ["wall_s"], "most_work": "state-lattice",
     "small_or_absent": "small in local-sweep, one call in firm-power"},
    {"layer": "geomarket",
     "metrics": ["geomarket.analyze_local.self_s",
                 "geomarket.circles_analyzed", "geomarket.circles_skipped",
                 "geomarket.circles_sensitive"],
     "moves": ["wall_s"], "most_work": "local-sweep",
     "small_or_absent": "absent in state-lattice and firm-power"},
    {"layer": "lattice",
     "metrics": ["lattice.build_hasse.s", "lattice.build_hasse.self_s",
                 "lattice.nodes", "lattice.edges"],
     "moves": ["wall_s", "peak_rss_mb"], "most_work": "state-lattice",
     "small_or_absent": "absent in firm-power and local-sweep"},
    {"layer": "lattice",
     "metrics": ["lattice.to_dot.s", "lattice.to_json.s",
                 "lattice.dot_bytes", "lattice.json_bytes"],
     "moves": ["wall_s", "peak_rss_mb"], "most_work": "state-lattice",
     "small_or_absent": "absent elsewhere"},
    {"layer": "metrics",
     "metrics": ["metrics.merger_outcomes.calls", "metrics.merger_outcomes.s",
                 "metrics.exclude.calls", "metrics.exclude.s"],
     "moves": ["wall_s"], "most_work": "firm-power", "small_or_absent": ""},
    {"layer": "shapley",
     "metrics": ["shapley.simple_game_from_rule.s",
                 "shapley.simple_game_from_rule.self_s"],
     "moves": ["wall_s"], "most_work": "firm-power",
     "small_or_absent": "absent in state-lattice and local-sweep"},
    {"layer": "shapley",
     "metrics": ["shapley.sspi.s", "shapley.sspi.calls",
                 "shapley.shapley_exact.s"],
     "moves": ["wall_s"],
     "most_work": "firm-power (one n=16 game) and local-sweep (one call "
                  "per sensitive circle)",
     "small_or_absent": ""},
    {"layer": "reports",
     "metrics": ["reports.run.s", "reports.write.s", "reports.bytes_written",
                 "reports.files_written"],
     "moves": ["wall_s"], "most_work": "state-lattice",
     "small_or_absent": ""},
    {"layer": "cli", "metrics": ["cli.main.s"], "moves": [],
     "most_work": "", "small_or_absent": ""},
    {"layer": "benchmark",
     "metrics": ["trace.overhead_s (traced wall_s minus untraced median)"],
     "moves": [], "most_work": "", "small_or_absent": ""},
]


def seed_list(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    elapsed = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["run_wall_s"] = elapsed
    result["raw"] = {}
    for line in lines:
        if line.startswith("environment "):
            result["environment"] = json.loads(line.split(" ", 1)[1])
        elif line.startswith("raw "):
            _, name, median = line.split()[:3]
            result["raw"][name] = float(median)
    return result


def summary(values: list, bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": bound}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    seeds = seed_list(args.seeds)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    runs = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            result = bench_run(name, seed, seconds, 0)
            runs[name].append(result)
            print(f"{name} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} " + " ".join(
                      f"{k}={v['value']:.4f}"
                      for k, v in result["metrics"].items()), flush=True)
    traced = {name: bench_run(name, seeds[0], seconds, 1) for name in names}

    doc = {"environment": runs[names[0]][0]["environment"],
           "run_seconds": seconds, "seeds": seeds,
           "layer_map": LAYER_MAP, "workloads": {}}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    for name in names:
        entry = {
            "why": why[name],
            "params": universe.WORKLOADS[name].params(),
            "run_wall_s_max": max(r["run_wall_s"] for r in runs[name]),
            "attempted": sum(r["attempted"] for r in runs[name]),
            "failed": sum(r["failed"] for r in runs[name]),
            "end_to_end": {
                metric: summary([r["metrics"][metric]["value"]
                                 for r in runs[name]], bound)
                for metric, bound in bounds.items()
            },
            "raw_end_to_end": {
                metric: summary([r["raw"][metric] for r in runs[name]],
                                bounds[metric])
                for metric in ("wall_s", "setup_s")
            },
            "per_layer": {k: v["value"]
                          for k, v in traced[name]["metrics"].items()},
        }
        doc["workloads"][name] = entry
        rows = [(m, s) for m, s in entry["end_to_end"].items()]
        rows += [(f"raw {m}", s) for m, s in entry["raw_end_to_end"].items()]
        for metric, s in rows:
            flag = "ok" if s["spread"] < s["bound"] / 3 else (
                "within bound" if s["spread"] <= s["bound"] else "TOO WIDE")
            unit = units[metric.split()[-1]]
            print(f"{name:<14} {metric:<12} {s['median']:10.4f} "
                  f"{unit:<5} quartiles {s['q1']:.4f}..{s['q3']:.4f}"
                  f" spread {s['spread']:.3f} bound {s['bound']} {flag}")
        print(f"{name:<14} error_rate   "
              f"{entry['failed'] / entry['attempted']:10.4f} ratio "
              f"({entry['failed']} of {entry['attempted']} failed), "
              f"longest run {entry['run_wall_s_max']:.1f} s")
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
