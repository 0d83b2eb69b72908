"""Scale runs: seeded bench/universe.py stores at sizes the benchmark never reaches.

Run ``python3 tests/scale.py``: one line per case, and exit status 1 if any
case fails its exit status, peak bound or check.  Each case runs in its own
child process, and its peak is that child's ``ru_maxrss``.  A spawned child's
``ru_maxrss`` starts at its parent's high-water RSS, so this script stays
small and another child writes the inputs.
"""

import csv
import json
import os
import random
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
# A workload takes the pool's first n formats, so one pool serves every n <= 20.
EXTRA_FORMATS = ("outlet", "pharmacy", "farm", "bakery", "furniture", "garden", "toys")
IN_PROCESS = ("diagram", "drain")  # state_diagram, its DOT and JSON drained or not
Check = Callable[[Path], tuple[bool, str]]  # (passed, note) from the outputs


@dataclass(frozen=True)
class Case:
    name: str
    workload: dict  # the fields of a bench/universe.py Workload, seed 0
    run: str  # a CLI subcommand, or one of IN_PROCESS
    peak_mb: float
    check: Check
    shuffled: bool = False  # stores.csv's rows shuffled by random.Random(0)


def doc(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text(encoding="utf-8"))


def players(n: int) -> Check:
    def check(out: Path) -> tuple[bool, str]:
        found = len(doc(out, "sspi.json")["players"])
        return found == n, f"{found} players"
    return check


def nodes(n: int) -> Check:
    def check(out: Path) -> tuple[bool, str]:
        got = doc(out, "diagram.json")  # a drained run must have emitted bytes
        return got["nodes"] == 1 << n and got.get("dot_json_bytes", 1) > 0, str(got)
    return check


def lattice_lines(out: Path) -> tuple[bool, str]:
    """hasse.json's edge entries, and hasse.dot's node and edge lines, at n = 16."""
    with open(out / "hasse.json", encoding="utf-8") as json_text, \
            open(out / "hasse.dot", encoding="utf-8") as dot_text:
        counts = [sum(line.lstrip().startswith('"from":') for line in json_text), 0, 0]
        for line in dot_text:
            if " -> " in line:
                counts[2] += 1
            elif " [label=" in line:
                counts[1] += 1
    return counts == [16 << 15, 1 << 16, 16 << 15], f"hasse lines {counts}"


def same_reports(out: Path) -> tuple[bool, str]:
    ours, theirs = ({path.name: path.read_bytes() for path in where.iterdir()}
                    for where in (out, out.parent / "state-200k"))
    same = bool(ours) and ours == theirs
    return same, f"{len(ours)} reports, {'' if same else 'not '}as in file order"


def circles(analyzed: int, members: int, sensitive: int, rows: int) -> Check:
    """The circles analysed, their member stores in all, the sensitive
    circles and the SSPI structure rows, as seed 0 gives them."""
    def check(out: Path) -> tuple[bool, str]:
        with open(out / "local_markets.csv", encoding="utf-8") as text:
            found = [doc(out, "local_counts.json")["analyzed_markets"],
                     sum(int(row["member_count"]) for row in csv.DictReader(text)),
                     doc(out, "local_counts.json")["sensitive_markets"],
                     len(doc(out, "sspi_structure.json")["rows"])]
        return found == [analyzed, members, sensitive, rows], (
            "{} circles of {} members, {} sensitive, {} structure rows".format(*found))
    return check


def state(n: int) -> dict:
    return dict(name=f"state-{n}", command="state", stores=5000, chains=24,
                marginal_formats=n, marginal_firms=0, merging_ranks=(1, 2), zipf=0.85)


def local(stores: int, formats: int = 3) -> dict:
    """local-sweep's fields at ``stores`` stores and ``formats`` marginal formats."""
    name = f"local-{stores // 1000}k" + (f"-{formats}" if formats != 3 else "")
    return dict(name=name, command="local", stores=stores, chains=20,
                marginal_formats=formats, marginal_firms=0, merging_ranks=(2, 3),
                zipf=0.3)


FIRM_200K = dict(name="firm-200k", command="firm", stores=200_000, chains=24,
                 marginal_formats=3, marginal_firms=16, merging_ranks=(1, 2))
CASES = (
    # 2^24 masks, the limit: firm keeps a flag per mask, sspi counts in integers.
    Case("firm-24", dict(FIRM_200K, name="firm-24", stores=6000, chains=30,
                         marginal_firms=24), "firm", 200, players(24)),
    # The CSV is read a block of rows at a time into columns, no Store per row.
    Case("firm-200k", FIRM_200K, "firm", 100, players(16)),
    # Any row order gives the same state reports (8 masks), byte for byte.
    Case("state-200k", FIRM_200K, "state", 150, lambda out: (True, "in file order")),
    Case("state-200k-shuffled", FIRM_200K, "state", 150, same_reports, shuffled=True),
    # A 290 MB report, written a block at a time.
    Case("state-16", state(16), "state", 150, lattice_lines),
    # About 1.4 GB of DOT and JSON text, counted and not written.
    Case("state-18", state(18), "drain", 150, nodes(18)),
    # The outcome kernel alone.
    Case("state-20", state(20), "diagram", 150, nodes(20)),
    # 2,793 circles, 145 of them sensitive: SSPI and the structure table run.
    Case("local-20k", local(20_000), "local", 100, circles(2793, 293_729, 145, 4)),
    # 14,012 circles of some 520 stores, selected in passes over the cell index.
    Case("local-100k", local(100_000), "local", 150, circles(14_012, 7_277_806, 0, 0)),
    # 8 marginal formats, so 256 masks per circle, a mask at a time.
    Case("local-3k-8", local(3000, 8), "local", 50, circles(280, 4911, 185, 152)),
)


def spawn(args: list[str], log: Path) -> tuple[int, float, float]:
    """Run Python on ``args``, its output to ``log``: exit code, seconds, peak MB."""
    start = time.perf_counter()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=[
        (os.POSIX_SPAWN_OPEN, 1, log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2)])
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), seconds, usage.ru_maxrss / 1024


def run_case(case: Case, work: Path) -> tuple[bool, str]:
    """Run ``case`` in ``work`` and print its line: whether it passed, and the line."""
    inputs, out, log = work / case.workload["name"], work / case.name, work / "log"
    stores = inputs / ("shuffled.csv" if case.shuffled else "stores.csv")
    if not stores.exists():
        spawn([__file__, "inputs", json.dumps(case.workload), str(stores)], log)
    command = [__file__] if case.run in IN_PROCESS else ["-m", "mktsens.cli"]
    code, seconds, peak = spawn([*command, case.run, "--stores", str(stores),
                                 "--config", str(inputs / "run.json"),
                                 "--out", str(out)], log)
    try:
        ok, note = case.check(out) if code == 0 else (
            False, " ".join([f"exit {code}:", *log.read_text().splitlines()[-1:]]))
    except (OSError, ValueError, KeyError) as error:
        ok, note = False, f"{type(error).__name__}: {error}"
    if peak > case.peak_mb:
        ok, note = False, f"over the {case.peak_mb:g} MB bound; {note}"
    line = (f"{'ok' if ok else 'FAIL':4} {case.name}: {seconds:.2f} s, "
            f"peak RSS {peak:.1f} MB, {note}")
    print(line, flush=True)
    return ok, line


def write_inputs(workload: str, path: str) -> None:
    sys.path.insert(0, str(ROOT / "bench"))
    import universe
    universe.FORMAT_POOL += EXTRA_FORMATS
    fields, stores = json.loads(workload), Path(path)
    if not (stores.parent / "stores.csv").exists():
        fields["merging_ranks"] = tuple(fields["merging_ranks"])
        universe.write_inputs(universe.Workload(**fields), 0, stores.parent)
    if stores.name == "shuffled.csv":
        header, *rows = (stores.parent / "stores.csv").read_text("utf-8").splitlines()
        random.Random(0).shuffle(rows)
        stores.write_text("\n".join([header, *rows, ""]), encoding="utf-8")


def run_diagram(how: str, stores: str, config: str, out: str) -> None:
    from mktsens import iter_dot, iter_json, load_config, load_stores
    from mktsens.reports import DOT_LABEL_METRICS, state_diagram
    run = load_config(config)
    universe = load_stores(stores, drop_formats=run.drop_formats,
                           region=run.region_filter)
    start = time.perf_counter()
    lattice = state_diagram(run, universe)
    got = {"state_diagram_s": round(time.perf_counter() - start, 2),
           "nodes": len(lattice.flags), "flagged": int(lattice.flags.sum())}
    if how == "drain":
        texts = iter_dot(lattice, DOT_LABEL_METRICS), iter_json(lattice)
        got["dot_json_bytes"] = sum(len(c.encode()) for text in texts for c in text)
    Path(out).mkdir(parents=True, exist_ok=True)
    Path(out, "diagram.json").write_text(json.dumps(got), encoding="utf-8")


if __name__ == "__main__":
    mode, *args = sys.argv[1:] or ["all"]
    if mode == "inputs":
        write_inputs(*args)
    elif mode in IN_PROCESS:
        run_diagram(mode, *args[1::2])  # the values of --stores, --config and --out
    else:
        with tempfile.TemporaryDirectory(prefix="mktsens-scale-") as work:
            failed = [case.name for case in CASES if not run_case(case, Path(work))[0]]
        sys.exit(f"scale runs failed: {', '.join(failed)}" if failed else 0)
