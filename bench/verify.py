"""Checks on one invocation's report directory.

Two kinds of check feed ``failed``.  Digests: every report file must match
SHA-256 digests, either the reference captured from the seed commit (for the
reference seed) or the first invocation of the same run (reruns must be
byte-identical).  Oracles: independent recomputation from the generated
inputs (see ``oracle.py``) of post-HHI, flags, power indices and circle
memberships, plus the laws the reports must obey whatever the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import oracle

REPORT_FILES = {
    "state": ("hasse.dot", "hasse.json", "shapley.csv", "shapley.json",
              "sspi.csv", "sspi.json", "shares.csv", "shares.json"),
    "firm": ("sspi.csv", "sspi.json"),
    "local": ("local_counts.csv", "local_counts.json", "local_markets.csv",
              "local_markets.json", "sspi_structure.csv",
              "sspi_structure.json"),
}
REL = 1e-9


def digests(directory: Path) -> dict:
    """SHA-256 of every file in ``directory``, by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


def compare_digests(actual: dict, expected: dict) -> list:
    if actual == expected:
        return []
    problems = [f"missing report {name}" for name in expected
                if name not in actual]
    problems += [f"unexpected file {name}" for name in actual
                 if name not in expected]
    problems += [f"{name} differs from the reference bytes"
                 for name in expected
                 if name in actual and actual[name] != expected[name]]
    return problems


def _close(a: float, b: float, scale: float = 1.0) -> bool:
    return math.isclose(a, b, rel_tol=REL, abs_tol=REL * scale)


def _mask(indices) -> int:
    return sum(1 << i for i in indices)


class Expected:
    """Oracle results for one generated input, built once per run.

    Construction raises ``ValueError`` when the input would make the
    workload uninformative: a constant presumption game, one already
    flagged at the broadest market, or a local sweep with no sensitive
    circle.
    """

    def __init__(self, command: str, stores_csv: Path, config_json: Path):
        self.command = command
        self.stores = oracle.Stores.read(stores_csv)
        self.config = json.loads(config_json.read_text(encoding="utf-8"))
        if command == "state":
            self.lattice = oracle.state_lattice(self.stores, self.config)
            oracle.check_game(self.lattice, "state game")
        elif command == "firm":
            self.lattice = oracle.firm_lattice(self.stores, self.config)
            oracle.check_game(self.lattice, "firm game")
        else:
            self.circles = oracle.local_circles(self.stores, self.config)
            if not any(c.lattice.sensitive for c in self.circles
                       if c.lattice is not None):
                raise ValueError("local sweep: no sensitive circle")

    def check(self, out: Path) -> list:
        """Problems found in one report directory; empty when it passes."""
        names = sorted(path.name for path in out.iterdir())
        if names != sorted(REPORT_FILES[self.command]):
            return [f"report files are {names}"]
        try:
            return getattr(self, f"_check_{self.command}")(out)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable report: {exc!r}"]

    def _check_game(self, doc: dict, lattice: oracle.Lattice) -> list:
        problems = []
        flags = lattice.flags
        if doc["sensitive"] != lattice.sensitive:
            problems.append("sensitive flag disagrees with the oracle")
        if doc["degenerate_at_origin"] != bool(flags[0]):
            problems.append("degenerate_at_origin disagrees with the oracle")
        values = doc["values"]
        if not _close(sum(values), float(flags[-1]) - float(flags[0])):
            problems.append(f"SSPI sums to {sum(values)!r}, not v(N) - v(0)")
        if not lattice.undecided.any():
            want = oracle.sspi(flags.astype(np.uint8))
            if not all(_close(a, b) for a, b in zip(values, want)):
                problems.append("SSPI values disagree with the oracle")
        return problems

    def _check_state(self, out: Path) -> list:
        lattice = self.lattice
        n = len(self.config["marginal_formats"])
        hasse = json.loads((out / "hasse.json").read_text(encoding="utf-8"))
        problems = []
        if hasse["marginal_set"] != self.config["marginal_formats"]:
            problems.append("hasse.json marginal_set is not the config's")
        if len(hasse["nodes"]) != 1 << n:
            problems.append(f"hasse.json has {len(hasse['nodes'])} nodes")
        if len(hasse["edges"]) != n << (n - 1):
            problems.append(f"hasse.json has {len(hasse['edges'])} edges")
        columns = (lattice.post, lattice.delta, lattice.share)
        for node in hasse["nodes"]:
            m = _mask(node["subset"])
            if not all(_close(got, float(col[m]), 1e4)
                       for got, col in zip(node["outcomes"], columns)):
                problems.append(f"outcomes of subset {node['subset']} "
                                "disagree with the oracle")
                break
            if not lattice.undecided[m] and node["flagged"] != bool(
                    lattice.flags[m]):
                problems.append(f"flag of subset {node['subset']} "
                                "disagrees with the oracle")
                break
        sspi_doc = json.loads((out / "sspi.json").read_text(encoding="utf-8"))
        problems += self._check_game(sspi_doc, lattice)
        shapley = json.loads(
            (out / "shapley.json").read_text(encoding="utf-8"))
        grand = float(lattice.post[-1] - lattice.post[0])
        if not _close(shapley["grand_value"], grand, 1e4):
            problems.append("Shapley grand value disagrees with the oracle")
        if abs(shapley["efficiency_residual"]) > 1e-6 * max(1.0, abs(grand)):
            problems.append("Shapley values do not sum to the grand value")
        shares = json.loads((out / "shares.json").read_text(encoding="utf-8"))
        if not _close(shares["total_revenue"],
                      float(self.stores.revenue.sum())):
            problems.append("shares.json total revenue is not the CSV's")
        return problems

    def _check_firm(self, out: Path) -> list:
        doc = json.loads((out / "sspi.json").read_text(encoding="utf-8"))
        problems = []
        if doc["players"] != self.config["marginal_firms"]:
            problems.append("sspi.json players are not the marginal firms")
        return problems + self._check_game(doc, self.lattice)

    def _check_local(self, out: Path) -> list:
        markets = json.loads(
            (out / "local_markets.json").read_text(encoding="utf-8"))["markets"]
        counts = json.loads(
            (out / "local_counts.json").read_text(encoding="utf-8"))
        problems = []
        if len(markets) > len(self.circles):
            problems.append("more circles analysed than defendant centres")
        if counts["analyzed_markets"] != len(markets):
            problems.append("local_counts analysed count != markets listed")
        sensitive = sum(1 for m in markets if m["sensitive"])
        if counts["sensitive_markets"] != sensitive:
            problems.append("local_counts sensitive count != markets listed")
        for entry in counts["counts"]:
            m = _mask(entry["subset"])
            flagged = sum(
                1 for market in markets for o in market["outcomes"]
                if _mask(o["subset"]) == m and o["flagged"]
            )
            if entry["count"] != flagged:
                problems.append(f"count of subset {entry['subset']} is "
                                f"{entry['count']}, markets flag {flagged}")
        if any(c.boundary_tie for c in self.circles):
            return problems
        circles = [c for c in self.circles if c.two_party]
        if [m["center_store_id"] for m in markets] != [
                c.centre_id for c in circles]:
            return problems + ["analysed centres disagree with the oracle"]
        for market, circle in zip(markets, circles):
            problems += self._check_circle(market, circle)
        return problems

    def _check_circle(self, market: dict, circle: oracle.Circle) -> list:
        where = f"circle {circle.centre_id}"
        if market["member_count"] != circle.members:
            return [f"{where}: {market['member_count']} members, "
                    f"oracle {circle.members}"]
        lattice = circle.lattice
        columns = (lattice.post, lattice.delta, lattice.share)
        for o in market["outcomes"]:
            m = _mask(o["subset"])
            got = (o["post_hhi"], o["delta_hhi"], o["merged_share"])
            if not all(_close(g, float(col[m]), 1e4)
                       for g, col in zip(got, columns)):
                return [f"{where}: outcomes disagree with the oracle"]
            if not lattice.undecided[m] and o["flagged"] != bool(
                    lattice.flags[m]):
                return [f"{where}: flag disagrees with the oracle"]
        if market["sensitive"] != lattice.sensitive:
            return [f"{where}: sensitive flag disagrees with the oracle"]
        if market["sensitive"]:
            doc = {"sensitive": True, "values": market["sspi"],
                   "degenerate_at_origin": bool(lattice.flags[0])}
            return [f"{where}: {p}" for p in self._check_game(doc, lattice)]
        return []

