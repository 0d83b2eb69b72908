"""mktsens benchmark: seeded store universes through the real CLI.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the package need not be installed; children
get PYTHONPATH=src).  One run:

1. writes the reference universe (seed 0) and runs the workload's CLI
   subcommand on it once; its reports must match the SHA-256 digests in
   ``reference.json``, captured at the seed commit with ``capture.py``;
2. writes the universe for ``--seed``, recomputes the expected outcomes
   with the numpy oracle, and refuses inputs that would make the workload
   uninformative;
3. runs the CLI again and again on it, one fresh process and one fresh
   output directory at a time (a closed loop with one client; no threads or
   parallel runs), verifying every invocation.

The ``--seconds`` window starts before step 1.  The loop starts another
invocation only while the last one, with its calibration, would still end
inside the window, so a run lasts about ``--seconds`` seconds.

End-to-end metrics summarise the loop's invocations: ``wall_s`` (spawn to
exit), ``setup_s`` (spawn to the return of ``ingest.load_stores``) and
``peak_rss_mb`` (the child's maximum resident set, median).  The two times
are calibrated: one run of ``calibrate.py`` separates consecutive
invocations, and each time is the run's total over its total calibration
time, in seconds of a machine where calibrate.py takes
CALIBRATION_REFERENCE_S (see ``calibrated``); the raw medians are printed
too.  Invocations that exit non-zero or fail a check count in ``failed``.
With ``--trace 1`` the loop alternates plain and traced invocations and
reports per-layer metrics (medians over the traced ones, not rescaled) and
``trace.overhead_s``, the median over pairs of a traced invocation's
calibrated wall time minus that of the plain one just before it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import universe
import verify

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
REFERENCE_SEED = 0
INVOCATION_TIMEOUT_S = 60
# Wall time of one calibrate.py process on the reference machine state.
# Reported times are rescaled to it; see calibrated().
CALIBRATION_REFERENCE_S = 0.6


@dataclass
class Invocation:
    """One CLI process: its timings, exit code and check results."""

    wall_s: float
    setup_s: float | None
    peak_rss_mb: float
    code: int
    marks: dict
    problems: list = field(default_factory=list)
    # Mean wall time of the calibrations just before and just after.
    calibration_s: float = CALIBRATION_REFERENCE_S

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.problems


def child_env() -> dict:
    env = dict(os.environ)
    # The thread pool is an optional setting that may be removed; the
    # benchmark always measures the default single-threaded sweep.
    env.pop("MKTSENS_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def calibration_s(env: dict) -> float:
    """Wall time of one calibrate.py process, started now."""
    start_ns = time.monotonic_ns()
    subprocess.run([sys.executable, str(BENCH / "calibrate.py")], cwd=ROOT,
                   env=env, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, check=True,
                   timeout=INVOCATION_TIMEOUT_S)
    return (time.monotonic_ns() - start_ns) / 1e9


def calibrated(invocations: list, times: list) -> float:
    """Mean of ``times`` in seconds of the reference machine state.

    The machine's speed drifts by tens of percent within seconds.  The
    times' total is multiplied by CALIBRATION_REFERENCE_S over the total of
    the invocations' calibrations.  Totals, not medians of per-invocation
    ratios, because a single calibration is short and coarse: the machine
    stalls in steps of tens of milliseconds.  calibrate.py does not touch
    the program, so a slower program still reads slower.
    """
    return (CALIBRATION_REFERENCE_S * sum(times)
            / sum(i.calibration_s for i in invocations))


def invoke(command: str, inputs: universe.Inputs, out: Path, trace: bool,
           env: dict) -> Invocation:
    """Run one CLI invocation in a fresh process and wait for it."""
    marks_path = out.with_name(out.name + ".marks.json")
    log_path = out.with_name(out.name + ".log")
    argv = [sys.executable, str(BENCH / "child.py"), str(marks_path),
            "1" if trace else "0", command, "--stores", str(inputs.stores),
            "--config", str(inputs.config), "--out", str(out)]
    with open(log_path, "wb") as log:
        start_ns = time.monotonic_ns()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        previous = signal.signal(signal.SIGALRM,
                                 lambda *_: proc.kill())
        signal.alarm(INVOCATION_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        end_ns = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    marks = {}
    if proc.returncode == 0 and marks_path.exists():
        marks = json.loads(marks_path.read_text(encoding="utf-8"))
    done = marks.get("ingest_done_ns")
    result = Invocation(
        wall_s=(end_ns - start_ns) / 1e9,
        setup_s=None if done is None else (done - start_ns) / 1e9,
        peak_rss_mb=(marks.get("peak_rss_kb") or usage.ru_maxrss) / 1024.0,
        code=proc.returncode,
        marks=marks,
    )
    if result.code != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        result.problems.append(f"exit code {result.code}: {tail.strip()}")
    elif done is None:
        result.problems.append("ingest.load_stores never returned")
    return result


EMPTY_TRACE = {"spans": [], "counts": {}}


def layer_metrics(marks: dict) -> dict:
    """Per-layer metrics from one traced invocation's spans and counts."""
    total: dict = {}
    own: dict = {}
    calls: dict = {}
    children = [0] * len(marks["spans"])
    for name, start, end, parent in marks["spans"]:
        if parent >= 0:
            children[parent] += end - start
    for (name, start, end, _), inner in zip(marks["spans"], children):
        total[name] = total.get(name, 0) + end - start
        own[name] = own.get(name, 0) + end - start - inner
        calls[name] = calls.get(name, 0) + 1
    counts = marks["counts"]

    def s(*names):
        return sum(total.get(n, 0) for n in names) / 1e9

    def self_s(name):
        return own.get(name, 0) / 1e9

    load_s = s("ingest.load_stores")
    circle_calls = calls.get("geomarket.circle_market", 0)
    analyzed = counts.get("geomarket.circles_analyzed", 0)
    return {
        "ingest.load_stores.s": load_s,
        "ingest.stores_loaded": counts.get("ingest.stores_loaded", 0),
        "ingest.rows_per_s":
            counts.get("ingest.stores_loaded", 0) / load_s if load_s else 0.0,
        "config.load_config.s": s("config.load_config"),
        "geomarket.circle_market.s": s("geomarket.circle_market"),
        "geomarket.circle_market.calls": circle_calls,
        "geomarket.distance_evals": counts.get("geomarket.distance_evals", 0),
        "geomarket.circle_members_mean":
            counts.get("geomarket.circle_members", 0) / circle_calls
            if circle_calls else 0.0,
        "geomarket.chain_market.s": s("geomarket.chain_market"),
        "geomarket.chain_market.calls":
            calls.get("geomarket.chain_market", 0),
        "geomarket.chain_market.stores_scanned":
            counts.get("geomarket.chain_market.stores_scanned", 0),
        "geomarket.analyze_local.self_s": self_s("geomarket.analyze_local"),
        "geomarket.circles_analyzed": analyzed,
        "geomarket.circles_skipped": circle_calls - analyzed,
        "geomarket.circles_sensitive":
            counts.get("geomarket.circles_sensitive", 0),
        "lattice.build_hasse.s": s("lattice.build_hasse"),
        "lattice.build_hasse.self_s": self_s("lattice.build_hasse"),
        "lattice.nodes": counts.get("lattice.nodes", 0),
        "lattice.edges": counts.get("lattice.edges", 0),
        "lattice.to_dot.s": s("lattice.to_dot"),
        "lattice.to_json.s": s("lattice.to_json"),
        "lattice.dot_bytes": counts.get("lattice.dot_bytes", 0),
        "lattice.json_bytes": counts.get("lattice.json_bytes", 0),
        "metrics.merger_outcomes.calls":
            calls.get("metrics.merger_outcomes", 0),
        "metrics.merger_outcomes.s": s("metrics.merger_outcomes"),
        "metrics.exclude.calls": calls.get("metrics.exclude", 0),
        "metrics.exclude.s": s("metrics.exclude"),
        "shapley.simple_game_from_rule.s": s("shapley.simple_game_from_rule"),
        "shapley.simple_game_from_rule.self_s":
            self_s("shapley.simple_game_from_rule"),
        "shapley.sspi.s": s("shapley.sspi"),
        "shapley.sspi.calls": calls.get("shapley.sspi", 0),
        "shapley.shapley_exact.s": s("shapley.shapley_exact"),
        "reports.run.s": s("reports.run_state", "reports.run_firm_level",
                           "reports.run_local"),
        "reports.write.s": s("reports.write_state_report",
                             "reports.write_firm_report",
                             "reports.write_local_report"),
        "reports.bytes_written": counts.get("reports.bytes_written", 0),
        "reports.files_written": counts.get("reports.files_written", 0),
        "cli.main.s": s("cli.main"),
    }


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "nproc": os.cpu_count()}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def describe(name: str, unit: str, values: list) -> str:
    q1, _, q3 = quartiles(values)
    return (f"{name:<14} {statistics.median(values):12.4f} {unit:<5} "
            f"median of {len(values)}, quartiles {q1:.4f}..{q3:.4f}, "
            f"range {min(values):.4f}..{max(values):.4f}")


def run(workload: universe.Workload, seed: int, seconds: float,
        trace: bool, work: Path) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    deadline = time.monotonic() + seconds
    env = child_env()
    reference = json.loads(
        (BENCH / "reference.json").read_text(encoding="utf-8"))[workload.name]
    print("environment " + json.dumps(environment()))

    ref_inputs = universe.write_inputs(workload, REFERENCE_SEED, work / "ref")
    ref = invoke(workload.command, ref_inputs, work / "ref-out", False, env)
    if ref_inputs.sha256 != reference["inputs"]:
        ref.problems.append("reference inputs differ from the captured ones")
    if ref.code == 0:
        ref.problems += verify.compare_digests(
            verify.digests(work / "ref-out"), reference["reports"])
    print(f"reference seed {REFERENCE_SEED}: "
          + ("reports match the seed-commit digests" if ref.ok
             else "FAILED: " + "; ".join(ref.problems)))

    inputs = universe.write_inputs(workload, seed, work / "in")
    expected = verify.Expected(workload.command, inputs.stores, inputs.config)
    print(f"workload {workload.name} seed {seed}: "
          + json.dumps({"params": workload.params(), "sha256": inputs.sha256}))

    plain, traced, failures = [], [], [not ref.ok]
    first = None  # digests and oracle problems of the first good exit
    before = calibration_s(env)
    # Seconds the next invocation and its calibration are expected to take.
    step = ref.wall_s + before
    while (not plain or (trace and not traced)
           or time.monotonic() + step < deadline):
        is_traced = trace and len(plain) > len(traced)
        out = work / f"out-{len(plain) + len(traced)}"
        inv = invoke(workload.command, inputs, out, is_traced, env)
        after = calibration_s(env)
        step = inv.wall_s + after
        inv.calibration_s = (before + after) / 2
        before = after
        if inv.code == 0:
            got = verify.digests(out)
            if first is None:
                first = (got, expected.check(out))
            # Same bytes as the first, same verdict.
            inv.problems += verify.compare_digests(got, first[0]) or first[1]
        shutil.rmtree(out, ignore_errors=True)
        if inv.problems:
            print(f"invocation {len(failures)} FAILED: "
                  + "; ".join(inv.problems), file=sys.stderr)
        failures.append(not inv.ok)
        (traced if is_traced else plain).append(inv)

    sample = [i for i in plain if i.ok] or plain
    # A child that died before ingest returned spent its whole life
    # setting up.
    raw = {
        "wall_s": [i.wall_s for i in sample],
        "setup_s": [i.wall_s if i.setup_s is None else i.setup_s
                    for i in sample],
    }
    e2e = {name: calibrated(sample, values) for name, values in raw.items()}
    e2e["peak_rss_mb"] = statistics.median(i.peak_rss_mb for i in sample)
    for name, value in e2e.items():
        print(f"{name:<14} {value:12.4f} {e2e_units[name]:<5} "
              f"over {len(sample)} invocations")
    for name, values in raw.items():
        print(describe(f"raw {name}", "s", values))
    print(describe("calibration", "s", [i.calibration_s for i in sample]))
    failed = sum(failures)
    print(f"error_rate     {failed / len(failures):12.4f} ratio  "
          f"{failed} of {len(failures)} invocations failed")

    if not trace:
        units = e2e_units
        metrics = {name: e2e[name] for name in units}
    else:
        units = layer_units
        usable = ([i for i in traced if i.ok]
                  or [i for i in traced if "spans" in i.marks])
        layers = ([layer_metrics(i.marks) for i in usable]
                  or [layer_metrics(EMPTY_TRACE)])
        # Each traced invocation runs right after a plain one; pairing
        # them cancels the machine's slow drift, not its fast noise.
        pairs = ([(p, t) for p, t in zip(plain, traced) if p.ok and t.ok]
                 or list(zip(plain, traced)))
        overhead = statistics.median(
            calibrated([t], [t.wall_s]) - calibrated([p], [p.wall_s])
            for p, t in pairs)
        q1, _, q3 = quartiles([calibrated([i], [i.wall_s]) for i in sample])
        metrics = {}
        for name, unit in units.items():
            metrics[name] = (overhead if name == "trace.overhead_s" else
                             statistics.median(m[name] for m in layers))
            print(f"{name:<40} {metrics[name]:16.6f} {unit}")
        if abs(overhead) < q3 - q1:
            print(f"trace.overhead_s is unresolved: smaller than the "
                  f"interquartile range of plain wall_s, {q3 - q1:.4f} s")
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in metrics.items()}
    return {"correct": failed == 0, "attempted": len(failures),
            "failed": failed, "metrics": metrics}


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(universe.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mktsens" / "cli.py").is_file():
        print(f"no mktsens sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = universe.WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run(workload, args.seed, args.seconds, bool(args.trace),
                     work)
    except ValueError as exc:
        print(f"cannot run {workload.name} on seed {args.seed}: {exc}",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run's directory is still there
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
