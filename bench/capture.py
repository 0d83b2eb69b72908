"""Capture the reference report digests that every benchmark run checks.

usage: python3 bench/capture.py

Runs each workload's CLI subcommand once on the reference universe (seed 0),
checks the reports against the numpy oracle, and writes the SHA-256 digests
of the inputs and of every report file to ``bench/reference.json``.  Run it
only at a commit whose reports are known good: later commits must reproduce
these bytes exactly.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import universe
import verify


def main() -> int:
    env = run.child_env()
    reference = {}
    work = run.WORK / "capture"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for workload in universe.WORKLOADS.values():
            inputs = universe.write_inputs(
                workload, run.REFERENCE_SEED, work / workload.name)
            out = work / f"{workload.name}-out"
            inv = run.invoke(workload.command, inputs, out, False, env)
            if inv.code == 0:
                expected = verify.Expected(
                    workload.command, inputs.stores, inputs.config)
                inv.problems += expected.check(out)
            if not inv.ok:
                print(f"{workload.name}: " + "; ".join(inv.problems),
                      file=sys.stderr)
                return 1
            reference[workload.name] = {
                "seed": run.REFERENCE_SEED,
                "inputs": inputs.sha256,
                "reports": verify.digests(out),
            }
            print(f"{workload.name}: {len(reference[workload.name]['reports'])}"
                  f" reports in {inv.wall_s:.2f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = run.BENCH / "reference.json"
    path.write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
