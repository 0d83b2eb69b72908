"""Run one ``mktsens`` CLI invocation in this process and record timings.

usage: python bench/child.py MARKS_JSON TRACE SUBCOMMAND ARGS...

The CLI runs exactly as ``python -m mktsens.cli SUBCOMMAND ARGS...`` would,
with one hook: the monotonic clock reading when ``ingest.load_stores``
returns, which the parent subtracts from its spawn time to get set-up time.
With TRACE=1 the public functions of every layer are also wrapped in spans
(name, start, end, parent) plus counts taken at the same boundaries.  Spans
stay in memory and go to MARKS_JSON, with the hook's reading, at exit.

``geomarket.haversine`` is deliberately not wrapped: it runs millions of
times per sweep, so a span per call would distort the run.  Distance
evaluations are derived from circle_market calls and universe sizes instead.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def _len(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


def _written(args, paths) -> dict:
    return {"reports.bytes_written": sum(Path(p).stat().st_size
                                         for p in paths),
            "reports.files_written": len(paths)}


# (module, function, counter): the counter sees the call's arguments and
# result and returns {count name: increment}.
TRACED = (
    ("config", "load_config", None),
    ("ingest", "load_stores",
     lambda args, result: {"ingest.stores_loaded": len(result)}),
    ("geomarket", "circle_market",
     lambda args, result: {
         "geomarket.distance_evals": len(args[0]),
         "geomarket.circle_members": len(result.members),
     }),
    ("geomarket", "chain_market",
     lambda args, result: {"geomarket.chain_market.stores_scanned": _len(args[0])}),
    ("geomarket", "analyze_local",
     lambda args, result: {
         "geomarket.circles_analyzed": len(result),
         "geomarket.circles_sensitive": sum(1 for r in result if r.sensitive),
     }),
    ("lattice", "build_hasse",
     lambda args, result: {
         "lattice.nodes": len(result.nodes),
         "lattice.edges": len(result.edges),
     }),
    ("lattice", "to_dot",
     lambda args, result: {"lattice.dot_bytes": len(result.encode("utf-8"))}),
    ("lattice", "to_json",
     lambda args, result: {"lattice.json_bytes": len(result.encode("utf-8"))}),
    ("metrics", "merger_outcomes", None),
    ("metrics", "exclude", None),
    ("shapley", "simple_game_from_rule", None),
    ("shapley", "sspi", None),
    ("shapley", "shapley_exact", None),
    ("reports", "run_state", None),
    ("reports", "run_firm_level", None),
    ("reports", "run_local", None),
    ("reports", "write_state_report", _written),
    ("reports", "write_firm_report", _written),
    ("reports", "write_local_report", _written),
)


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent index or -1]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                for key, step in counter(args, return_value).items():
                    counts[key] = counts.get(key, 0) + step
            return return_value

        return traced


def rebind(module_name: str, attr: str, make) -> None:
    """Replace ``mktsens.<module_name>.<attr>`` in every mktsens module
    that holds it, so calls through ``from .x import y`` names see it too."""
    original = getattr(sys.modules[f"mktsens.{module_name}"], attr)
    replacement = make(original)
    for name, module in list(sys.modules.items()):
        if name == "mktsens" or name.startswith("mktsens."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)


def peak_rss_kb() -> int | None:
    """High-water resident set of this program image.

    ``ru_maxrss`` would also count the parent's pages that the child
    inherited before ``exec``, so read the kernel's per-image figure.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main() -> int:
    marks_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    from mktsens import cli

    marks: dict = {}
    tracer = Tracer() if trace else None
    if tracer is not None:
        for module_name, attr, counter in TRACED:
            rebind(module_name, attr,
                   lambda fn, n=f"{module_name}.{attr}", c=counter:
                   tracer.wrap(n, fn, c))

    def mark_ingest(load_stores):
        def hooked(*args, **kwargs):
            result = load_stores(*args, **kwargs)
            marks["ingest_done_ns"] = time.monotonic_ns()
            return result
        return hooked

    rebind("ingest", "load_stores", mark_ingest)
    main_fn = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    code = main_fn(argv)
    marks["peak_rss_kb"] = peak_rss_kb()
    if tracer is not None:
        marks["spans"] = tracer.spans
        marks["counts"] = tracer.counts
    Path(marks_path).write_text(json.dumps(marks), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
