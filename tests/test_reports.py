"""Analysis pipelines and report emission."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mktsens import (
    ConfigError,
    presumption,
    DataError,
    ExclusionSet,
    LocalAnalysisResult,
    MarginalSet,
    RunConfig,
    Store,
    StoreUniverse,
    canonical_masks,
)
from mktsens import jsontext, lattice, metrics, reports, shapley
from mktsens.reports import (
    LocalReport,
    _display_total,
    _staged,
    run_firm_level,
    run_local,
    run_state,
    write_firm_report,
    write_hasse_report,
    write_local_report,
    write_state_report,
)
from mktsens.display import fmt_fixed, fmt_truncated, round_half_up_int
from tests.conftest import (
    AWKWARD_TEXT,
    STATE_FLAGGED,
    STATE_MERGING,
    STATE_POST_HHI,
    TEXTBOOK_SHAPLEY,
    TEXTBOOK_SSPI,
    fail_after_one_block,
    local_stores,
    scalar_local_json,
)


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def tree_bytes(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestRunState:
    def test_lattice_matches_reference(self, state_config, state_universe):
        # The chain market sums revenues in store order, so the lattice can
        # differ from the reference values by float summation order only.
        report = run_state(state_config, state_universe)
        ms = report.diagram.marginal_set
        post_index = report.diagram.metric_names.index("post_hhi")
        for labels, expected in STATE_POST_HHI.items():
            subset = ExclusionSet.from_indices(
                ms.n, [ms.index_of(x) for x in labels]
            )
            row = report.diagram.masks.tolist().index(subset.bits)
            assert report.diagram.table[row, post_index] == pytest.approx(
                expected, rel=1e-12, abs=0.0
            )
            assert report.diagram.flags[row] == (labels in STATE_FLAGGED)

    def test_shapley_matches_reference(self, state_config, state_universe):
        report = run_state(state_config, state_universe)
        assert report.shapley.mode == "exact"
        assert report.shapley.values == pytest.approx(
            TEXTBOOK_SHAPLEY, rel=1e-9
        )
        assert report.sspi_values == TEXTBOOK_SSPI
        assert report.sensitive
        assert not report.degenerate_at_origin

    def test_market_aggregates_chains(self, state_config, state_universe):
        report = run_state(state_config, state_universe)
        assert report.market.label == "state"
        assert report.market.sales["acme"] == 10.0
        assert report.chain_names["clubby"] == "Clubby Wholesale"

    def test_missing_party_rejected(self, state_config):
        universe = StoreUniverse(
            [s for s in local_stores() if s.chain_id != "bolt"]
        )
        with pytest.raises(DataError, match="bolt"):
            run_state(state_config, universe)

    def test_pipeline_builds_no_objects_per_node_or_subset(
        self, state_config, state_universe, tmp_path, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("not on the state pipeline")

        for module, name in ((lattice, "ExclusionSet"),
                             (reports, "ExclusionSet"),
                             (lattice, "build_hasse"),
                             (lattice, "evaluate_subsets"),
                             (shapley, "evaluate_subsets")):
            monkeypatch.setattr(module, name, refuse)
        calls = []

        def counted(*args):
            calls.append(args)
            return presumption(*args)

        monkeypatch.setattr(metrics, "presumption", counted)
        report = run_state(state_config, state_universe)
        write_state_report(report, tmp_path / "out")
        assert len(calls) == 1
        assert report.diagram.flags[-1] and report.sspi_game.wins[-1] == 1


class TestWriteStateReport:
    FILES = (
        "hasse.dot", "hasse.json", "shapley.csv", "shapley.json",
        "sspi.csv", "sspi.json", "shares.csv", "shares.json",
    )

    @pytest.fixture
    def out(self, state_config, state_universe, tmp_path) -> Path:
        report = run_state(state_config, state_universe)
        write_state_report(report, tmp_path / "out")
        return tmp_path / "out"

    def test_file_set(self, out):
        assert sorted(p.name for p in out.iterdir()) == sorted(self.FILES)

    def test_shapley_csv(self, out):
        rows = read_csv(out / "shapley.csv")
        assert rows[0] == ["format", "shapley_value", "sv_share"]
        assert rows[1] == ["club", "282", "0.438"]
        assert rows[2] == ["natural", "228", "0.354"]
        assert rows[3] == ["limited", "134", "0.208"]
        assert rows[4] == ["Total", "644", "1.000"]

    def test_shapley_json(self, out):
        doc = read_json(out / "shapley.json")
        assert doc["players"] == ["club", "natural", "limited"]
        assert tuple(doc["values"]) == pytest.approx(TEXTBOOK_SHAPLEY, rel=1e-9)
        assert doc["mode"] == "exact"
        assert doc["display"]["values"] == [282, 228, 134]
        assert doc["display"]["shares"] == [0.438, 0.354, 0.208]

    def test_sspi_csv_truncates(self, out):
        rows = read_csv(out / "sspi.csv")
        assert rows[1] == ["club", "0.666"]
        assert rows[2] == ["natural", "0.166"]
        assert rows[3] == ["limited", "0.166"]
        assert rows[4] == ["Total", "0.998"]

    def test_sspi_json(self, out):
        doc = read_json(out / "sspi.json")
        assert tuple(doc["values"]) == TEXTBOOK_SSPI
        assert doc["sensitive"] is True
        assert doc["display"] == {
            "values": [0.666, 0.166, 0.166], "rounding": "truncate",
        }

    def test_shares_csv_ranked_by_revenue(self, out):
        rows = read_csv(out / "shares.csv")
        assert rows[0] == ["chain_id", "chain_name", "revenue", "share"]
        assert [r[0] for r in rows[1:]] == [
            "grandway", "acme", "citygrocer", "dailymart", "eastfoods",
            "clubby", "naturo", "bolt", "limitz", "Total",
        ]
        assert rows[1] == ["grandway", "Grandway", "15.0", "0.192"]
        assert rows[2][2] == "10.0"
        assert rows[-1] == ["Total", "", "78.0", "0.998"]

    def test_hasse_dot_shows_post_hhi_only(self, out):
        text = (out / "hasse.dot").read_text(encoding="utf-8")
        assert '"empty" [label="{}\\n1439"]' in text
        assert '"club" [label="{club}\\n1669"]' in text
        assert '"empty" -> "club" [label="+230"]' in text

    def test_rerun_is_byte_identical(self, state_config, state_universe, out,
                                     tmp_path):
        report = run_state(state_config, state_universe)
        write_state_report(report, tmp_path / "again")
        assert tree_bytes(tmp_path / "again") == tree_bytes(out)


class TestRunFirmLevel:
    @pytest.fixture
    def firm_config(self) -> RunConfig:
        return RunConfig(
            merging_chains=STATE_MERGING,
            marginal_firms=("grandway", "citygrocer", "dailymart"),
        )

    def test_requires_marginal_firms(self, state_config, state_universe):
        with pytest.raises(ConfigError, match="marginal_firms"):
            run_firm_level(state_config, state_universe)

    def test_unknown_firm_rejected(self, state_universe):
        config = RunConfig(
            merging_chains=STATE_MERGING, marginal_firms=("nobody",)
        )
        with pytest.raises(DataError, match="nobody"):
            run_firm_level(config, state_universe)

    def test_two_of_three_majority(self, firm_config, state_universe):
        # Any two of the three mid-size chains must leave the market for the
        # presumption to flag, so the game is a symmetric majority game.
        report = run_firm_level(firm_config, state_universe)
        assert report.sensitive
        assert report.sspi_values == (1 / 3, 1 / 3, 1 / 3)
        wins = {
            mask for mask in range(8)
            if report.sspi_game.win(ExclusionSet(3, mask))
        }
        assert wins == {0b011, 0b101, 0b110, 0b111}

    def test_written_table_sorted_and_rounded(self, firm_config,
                                              state_universe, tmp_path):
        report = run_firm_level(firm_config, state_universe)
        write_firm_report(report, tmp_path)
        rows = read_csv(tmp_path / "sspi.csv")
        assert rows[0] == ["chain_id", "chain_name", "sspi"]
        assert rows[1] == ["citygrocer", "City Grocer", "0.333"]
        assert rows[2] == ["dailymart", "Daily Mart", "0.333"]
        assert rows[3] == ["grandway", "Grandway", "0.333"]
        assert rows[4] == ["Total", "", "0.999"]
        doc = read_json(tmp_path / "sspi.json")
        assert doc["display"]["rounding"] == "half_up"
        assert doc["display"]["order"] == [
            "citygrocer", "dailymart", "grandway",
        ]


class TestRunLocal:
    def test_counts_and_structure(self, local_config, local_universe):
        report = run_local(local_config, local_universe)
        assert [r.center_id for r in report.results] == [
            "a01", "a02", "b01", "b02",
        ]
        assert report.sensitive_count == 2
        ms = report.marginal_set
        club = ms.index_of("club")
        for subset, count in report.counts:
            assert count == (2 if subset.contains(club) else 0)
        assert report.structure == (((1.0, 0.0, 0.0), 2),)

    def test_written_files(self, local_config, local_universe, tmp_path):
        report = run_local(local_config, local_universe)
        write_local_report(report, tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "local_counts.csv", "local_counts.json",
            "local_markets.csv", "local_markets.json",
            "sspi_structure.csv", "sspi_structure.json",
        ]

    def test_local_counts_csv(self, local_config, local_universe, tmp_path):
        report = run_local(local_config, local_universe)
        write_local_report(report, tmp_path)
        rows = read_csv(tmp_path / "local_counts.csv")
        assert rows[0] == ["subset", "excluded_count", "count"]
        assert rows[1] == ["{}", "0", "0"]
        assert rows[2] == ["{club}", "1", "2"]
        assert rows[3] == ["{natural}", "1", "0"]
        assert rows[5] == ["{club, natural}", "2", "2"]
        assert rows[8] == ["{club, natural, limited}", "3", "2"]
        doc = read_json(tmp_path / "local_counts.json")
        assert doc["analyzed_markets"] == 4
        assert doc["sensitive_markets"] == 2

    def test_local_markets_csv(self, local_config, local_universe, tmp_path):
        report = run_local(local_config, local_universe)
        write_local_report(report, tmp_path)
        rows = read_csv(tmp_path / "local_markets.csv")
        assert rows[0] == [
            "center_store_id", "member_count", "sensitive",
            "sspi_club", "sspi_natural", "sspi_limited",
        ]
        assert rows[1] == ["a01", "7", "true", "1.000", "0.000", "0.000"]
        assert rows[2] == ["a02", "4", "false", "", "", ""]
        assert rows[3][0] == "b01" and rows[3][3] == "1.000"
        doc = read_json(tmp_path / "local_markets.json")
        first = doc["markets"][0]
        assert first["center_store_id"] == "a01"
        assert len(first["outcomes"]) == 8
        assert first["outcomes"][0]["flagged"] is False

    def test_structure_csv(self, local_config, local_universe, tmp_path):
        report = run_local(local_config, local_universe)
        write_local_report(report, tmp_path)
        rows = read_csv(tmp_path / "sspi_structure.csv")
        assert rows == [
            ["sspi_club", "sspi_natural", "sspi_limited", "count"],
            ["1.000", "0.000", "0.000", "2"],
        ]

    def test_structure_cells_print_as_the_circles_do(self, tmp_path):
        # Excluding any of the three equal rivals flags both circles, so each
        # format's SSPI is 1/3, whose binary float reads 0.33333333333333331483
        # at 20 places.
        stores = [Store(sid, chain, chain.title(), fmt, 45.5 + k / 1000, -122.6, rev)
                  for k, (sid, chain, fmt, rev) in enumerate([
                      ("a1", "acme", "supermarket", 2.0),
                      ("b1", "bolt", "supermarket", 2.0),
                      ("g1", "grandway", "supermarket", 5.0),
                      ("c1", "clubby", "club", 7.0),
                      ("n1", "naturo", "natural", 7.0),
                      ("l1", "limitz", "limited", 7.0)])]
        config = RunConfig(merging_chains=STATE_MERGING, sspi_decimals=20)
        write_local_report(run_local(config, StoreUniverse(stores)), tmp_path)
        markets = read_csv(tmp_path / "local_markets.csv")
        assert [row[3:] for row in markets[1:]] == [
            ["0.33333333333333330000"] * 3] * 2
        assert read_csv(tmp_path / "sspi_structure.csv")[1:] == [
            markets[1][3:] + ["2"]]

    def test_rerun_is_byte_identical(self, local_config, local_universe,
                                     tmp_path):
        write_local_report(run_local(local_config, local_universe),
                           tmp_path / "one")
        write_local_report(run_local(local_config, local_universe),
                           tmp_path / "two")
        assert tree_bytes(tmp_path / "one") == tree_bytes(tmp_path / "two")


@pytest.mark.parametrize("pipeline", ["state", "firm", "local"])
def test_presumption_is_reached_only_through_presumption_flags(
    pipeline, state_universe, local_universe, local_config, monkeypatch
):
    """Every pipeline turns outcomes into flags in metrics.presumption_flags
    alone: each name bound to presumption in any mktsens module records its
    caller."""
    original = metrics.presumption
    callers = []

    def recorded(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "mktsens":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, recorded)
    if pipeline == "state":
        run_state(RunConfig(merging_chains=STATE_MERGING), state_universe)
    elif pipeline == "firm":
        run_firm_level(RunConfig(
            merging_chains=STATE_MERGING,
            marginal_firms=("grandway", "citygrocer", "dailymart"),
        ), state_universe)
    else:
        run_local(local_config, local_universe)
    assert callers and set(callers) == {"presumption_flags"}


CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.1, 1800.0]),
)


@st.composite
def local_reports(draw):
    """LocalReports of awkward records: non-ASCII labels and centre ids,
    non-finite outcomes, sspi None or not, integer or float radii."""
    n = draw(st.integers(min_value=0, max_value=3))
    ms = MarginalSet(draw(st.lists(AWKWARD_TEXT, min_size=n, max_size=n,
                                   unique=True)))
    radius = draw(st.integers(0, 50) | st.floats(0, 50))
    results = []
    for center_id in draw(st.lists(AWKWARD_TEXT, max_size=6)):
        table = draw(st.lists(st.lists(CELLS, min_size=3, max_size=3),
                              min_size=1 << n, max_size=1 << n))
        flags = draw(st.lists(st.booleans(), min_size=1 << n, max_size=1 << n))
        results.append(LocalAnalysisResult(
            Store(center_id, "acme", "Acme", "supermarket", 0.0, 0.0, 1.0),
            radius, draw(st.integers(0, 10**6)), np.array(table),
            np.array(flags), draw(st.booleans()),
            draw(st.none() | st.lists(CELLS, min_size=n, max_size=n).map(tuple)),
        ))
    counts = tuple((ExclusionSet(n, bits), draw(st.integers(0, 10**6)))
                   for bits in canonical_masks(n).tolist())
    config = RunConfig(merging_chains=STATE_MERGING, radius_miles=radius)
    return LocalReport(config, ms, tuple(results), counts, ())


class TestLocalJsonBlocks:
    """The local JSON files, rendered a block at a time, against the
    json.dumps(indent=2) documents they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(local_reports(), st.sampled_from([1, 2, 3, 8, jsontext.EMIT_BLOCK]))
    def test_match_json_dumps(self, report, block):
        expected = scalar_local_json(report)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(jsontext, "EMIT_BLOCK", block)
            assert ("".join(reports._local_counts_json(report))
                    == expected["local_counts.json"])
            assert ("".join(reports._local_markets_json(report))
                    == expected["local_markets.json"])

    @pytest.mark.parametrize("block", [1, 2, 3, 8, 16])
    def test_written_files(self, local_universe, tmp_path, monkeypatch, block):
        # An integer radius prints as one; one centre id is not ASCII.
        stores = [dataclasses.replace(s, store_id="a01é")
                  if s.store_id == "a01" else s for s in local_universe]
        config = RunConfig(merging_chains=STATE_MERGING, radius_miles=5)
        report = run_local(config, StoreUniverse(tuple(stores)))
        assert [r.center_id for r in report.results][0] == "a01é"
        assert any(r.sspi is None for r in report.results)
        monkeypatch.setattr(jsontext, "EMIT_BLOCK", block)
        write_local_report(report, tmp_path)
        for name, text in scalar_local_json(report).items():
            assert (tmp_path / name).read_text(encoding="utf-8") == text


class TestEmitHasse:
    def test_unknown_format(self, state_config, state_universe, tmp_path):
        report = run_state(state_config, state_universe)
        with pytest.raises(ConfigError, match="unknown hasse format"):
            write_hasse_report(report.diagram, tmp_path, ("svg",))


class TestStagedWrites:
    def test_failed_write_keeps_old_files_and_leaves_no_staging(
        self, local_config, local_universe, tmp_path, monkeypatch
    ):
        old = {name: f"old {name}\n".encode() for name in (
            "local_counts.csv", "local_counts.json", "local_markets.csv",
            "local_markets.json", "sspi_structure.csv", "sspi_structure.json",
        )}
        for name, data in old.items():
            (tmp_path / name).write_bytes(data)
        report = run_local(local_config, local_universe)
        # One circle a block: local_counts.* and local_markets.csv are staged
        # whole before local_markets.json fails with circles still to come.
        monkeypatch.setattr(jsontext, "EMIT_BLOCK", 8)
        monkeypatch.setattr(reports, "_local_markets_json",
                            fail_after_one_block(reports._local_markets_json))
        with pytest.raises(OSError, match="disk full"):
            write_local_report(report, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(old)
        assert tree_bytes(tmp_path) == old

    def test_directory_in_the_way_moves_nothing(self, local_config,
                                                local_universe, tmp_path):
        """A target that os.replace cannot replace is refused before the
        first file moves, so the old local_counts.csv, which is staged
        before local_markets.json, is kept."""
        (tmp_path / "local_counts.csv").write_bytes(b"old local_counts.csv\n")
        (tmp_path / "local_markets.json").mkdir()
        report = run_local(local_config, local_universe)
        with pytest.raises(IsADirectoryError, match="local_markets.json"):
            write_local_report(report, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "local_counts.csv", "local_markets.json"]
        assert (tmp_path / "local_counts.csv").read_bytes() == b"old local_counts.csv\n"
        assert not any((tmp_path / "local_markets.json").iterdir())

    def test_interleaved_writers_do_not_share_temp_files(self, tmp_path):
        with _staged(tmp_path) as first:
            with _staged(tmp_path) as second:
                first("a.txt", ["first\n"])
                second("a.txt", ["second\n"])
            assert (tmp_path / "a.txt").read_text() == "second\n"
        assert (tmp_path / "a.txt").read_text() == "first\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


class TestDisplayTotal:
    def test_empty(self):
        assert _display_total([]) == "0"
        assert _display_total(["", ""]) == "0"

    def test_integers(self):
        assert _display_total(["282", "228", "134"]) == "644"

    def test_fixed_point(self):
        assert _display_total(["0.666", "0.166", "0.166"]) == "0.998"

    def test_mixed_scale_keeps_widest(self):
        assert _display_total(["1.50", "2"]) == "3.50"

    def test_blanks_are_skipped(self):
        assert _display_total(["", "1.0"]) == "1.0"


class TestDisplayRounding:
    @pytest.mark.parametrize("value,decimals,text", [
        (2.675, 2, "2.68"),
        (999.9996, 3, "1000.000"),
        (0.99996, 4, "1.0000"),
        (1.5, 28, "1.5" + "0" * 27),
        (1e25, 3, "10000000000000000000000000.000"),
    ])
    def test_any_number_of_decimals(self, value, decimals, text):
        assert fmt_fixed(value, decimals) == text

    def test_long_formats_print_the_decimal_digits(self):
        # The binary float nearest 0.1234 is 0.12339999999999999580...
        assert fmt_fixed(0.1234, 40) == "0.1234" + "0" * 36
        assert fmt_truncated(0.1234, 40) == "0.1234" + "0" * 36

    def test_truncation_and_integers(self):
        assert fmt_truncated(1.5, 28) == "1.5" + "0" * 27
        assert fmt_truncated(0.99996, 4) == "0.9999"
        assert round_half_up_int(9.5) == 10
        assert round_half_up_int(1e30) == 10 ** 30
