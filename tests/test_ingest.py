"""Store CSV ingestion and run-configuration parsing."""

from __future__ import annotations

import json

import pytest

from mktsens import ConfigError, DataError, PresumptionRule, RunConfig, load_stores
from mktsens.config import load_config
from tests.conftest import CSV_HEADER, state_stores, stores_csv_text

GOOD_ROW = "s1,acme,Acme Markets,Supermarket,47.61,-122.33,12.5"


def write_csv(tmp_path, body: str, header: str = CSV_HEADER):
    path = tmp_path / "stores.csv"
    path.write_text(header + "\n" + body, encoding="utf-8")
    return path


class TestLoadStores:
    def test_happy_path(self, tmp_path):
        path = tmp_path / "stores.csv"
        path.write_text(stores_csv_text(state_stores()), encoding="utf-8")
        universe = load_stores(path, defendant_chains=("acme", "bolt"))
        assert len(universe) == len(state_stores())
        assert universe.defendant_chains == ("acme", "bolt")
        assert universe.store("s00").chain_id == "acme"

    def test_formats_are_lowercased(self, tmp_path):
        path = write_csv(tmp_path, GOOD_ROW)
        universe = load_stores(path)
        assert universe.store("s1").format == "supermarket"

    def test_bom_and_extra_columns_are_tolerated(self, tmp_path):
        path = tmp_path / "stores.csv"
        path.write_text(
            "﻿" + CSV_HEADER + ",notes\n" + GOOD_ROW + ",hello\n",
            encoding="utf-8",
        )
        assert len(load_stores(path)) == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_stores(tmp_path / "absent.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "stores.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError):
            load_stores(path)

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "stores.csv"
        path.write_text("store_id,chain_id\ns1,acme\n", encoding="utf-8")
        with pytest.raises(DataError, match="missing required columns"):
            load_stores(path)

    def test_bad_rows_are_reported_with_line_numbers(self, tmp_path):
        rows = "\n".join([
            "s1,acme,Acme,supermarket,47.0,-122.0,10",
            "s2,acme,Acme,supermarket,not_a_number,-122.0,10",
            "s3,acme,Acme,supermarket,47.0,-222.0,10",
            "s4,acme,Acme,supermarket,47.0,-122.0,-5",
            ",acme,Acme,supermarket,47.0,-122.0,10",
            "s1,acme,Acme,supermarket,47.0,-122.0,10",
        ])
        path = write_csv(tmp_path, rows)
        with pytest.raises(DataError) as err:
            load_stores(path)
        message = str(err.value)
        assert "5 invalid row(s)" in message
        assert "line 3" in message and "not a number" in message
        assert "line 4" in message and "out of range" in message
        assert "line 6" in message and "missing store_id" in message
        assert "line 7" in message and "duplicate store id" in message

    def test_non_finite_values_rejected(self, tmp_path):
        path = write_csv(tmp_path, "s1,acme,Acme,supermarket,nan,inf,10")
        with pytest.raises(DataError, match="out of range"):
            load_stores(path)

    def test_error_report_is_truncated(self, tmp_path):
        rows = "\n".join(
            f"s{i},acme,Acme,supermarket,999,-122.0,10" for i in range(30)
        )
        path = write_csv(tmp_path, rows)
        with pytest.raises(DataError) as err:
            load_stores(path)
        message = str(err.value)
        assert "30 invalid row(s)" in message
        assert "and 10 more" in message

    def test_drop_formats_filters_after_validation(self, tmp_path):
        rows = "\n".join([
            "s1,acme,Acme,supermarket,47.0,-122.0,10",
            "s2,clubby,Clubby,CLUB,47.0,-122.0,10",
            "s3,clubby,Clubby,club,999,-122.0,10",
        ])
        path = write_csv(tmp_path, rows)
        # The malformed club row still fails even though club is dropped.
        with pytest.raises(DataError, match="line 4"):
            load_stores(path, drop_formats=("club",))
        good = write_csv(tmp_path, rows.rsplit("\n", 1)[0])
        universe = load_stores(good, drop_formats=("club",))
        assert [s.store_id for s in universe] == ["s1"]

    def test_region_filter(self, tmp_path):
        header = CSV_HEADER + ",region"
        rows = "\n".join([
            "s1,acme,Acme,supermarket,47.0,-122.0,10,west",
            "s2,acme,Acme,supermarket,46.0,-120.0,10,east",
        ])
        path = write_csv(tmp_path, rows, header)
        universe = load_stores(path, region="west")
        assert [s.store_id for s in universe] == ["s1"]

    def test_region_filter_requires_the_column(self, tmp_path):
        path = write_csv(tmp_path, GOOD_ROW)
        with pytest.raises(DataError, match="region"):
            load_stores(path, region="west")

    def test_region_rows_must_still_be_valid(self, tmp_path):
        header = CSV_HEADER + ",region"
        rows = "s1,acme,Acme,supermarket,999,-122.0,10,east"
        path = write_csv(tmp_path, rows, header)
        with pytest.raises(DataError, match="out of range"):
            load_stores(path, region="west")

    def test_values_are_trimmed(self, tmp_path):
        path = write_csv(tmp_path, " s1 , acme , Acme ,  supermarket , 47.0 , -122.0 , 10 ")
        store = load_stores(path).store("s1")
        assert store.chain_id == "acme"
        assert store.revenue == 10.0


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig(merging_chains=("acme", "bolt"))
        assert config.always_in_formats == ("supermarket", "supercenter")
        assert config.marginal_formats == ("club", "natural", "limited")
        assert config.radius_miles == 5.0
        assert config.rule == PresumptionRule()
        assert config.seed == 0
        assert config.permutations == 100_000
        assert config.merger.acquirer == "acme"

    def test_merging_chains_must_be_distinct(self):
        with pytest.raises(ConfigError):
            RunConfig(merging_chains=("acme", "acme"))

    def test_format_lists_must_be_disjoint(self):
        with pytest.raises(ConfigError):
            RunConfig(merging_chains=("a", "b"),
                      always_in_formats=("club",),
                      marginal_formats=("club",))

    def test_marginal_firms_cannot_include_parties(self):
        with pytest.raises(ConfigError):
            RunConfig(merging_chains=("a", "b"), marginal_firms=("a",))

    def test_numeric_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(merging_chains=("a", "b"), radius_miles=-1.0)
        with pytest.raises(ConfigError):
            RunConfig(merging_chains=("a", "b"), permutations=0)
        with pytest.raises(ConfigError):
            RunConfig(merging_chains=("a", "b"), sspi_decimals=-1)


class TestFromMapping:
    def test_minimal_document(self):
        config = RunConfig.from_mapping({"merging_chains": ["acme", "bolt"]})
        assert config.merging_chains == ("acme", "bolt")

    def test_full_document(self):
        config = RunConfig.from_mapping({
            "merging_chains": ["acme", "bolt"],
            "always_in_formats": ["Supermarket"],
            "marginal_formats": ["Club", "Natural"],
            "marginal_firms": ["grandway"],
            "rule": {"post_hhi_threshold": 2000, "use_share_criterion": True},
            "radius_miles": 3,
            "region_filter": " west ",
            "drop_formats": ["Liquor"],
            "rounding": {"sspi": 4, "shares": 2},
            "seed": 7,
            "permutations": 1000,
        })
        assert config.always_in_formats == ("supermarket",)
        assert config.marginal_formats == ("club", "natural")
        assert config.rule.post_hhi_threshold == 2000.0
        assert config.rule.use_share_criterion is True
        assert config.region_filter == "west"
        assert config.drop_formats == ("liquor",)
        assert config.sspi_decimals == 4
        assert config.share_decimals == 2
        assert config.seed == 7

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration keys"):
            RunConfig.from_mapping({"merging_chains": ["a", "b"], "oops": 1})

    def test_unknown_rule_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown rule keys"):
            RunConfig.from_mapping(
                {"merging_chains": ["a", "b"], "rule": {"hhi": 1}}
            )

    def test_merging_chains_required(self):
        with pytest.raises(ConfigError, match="merging_chains"):
            RunConfig.from_mapping({})

    def test_type_errors(self):
        with pytest.raises(ConfigError):
            RunConfig.from_mapping({"merging_chains": "acme bolt"})
        with pytest.raises(ConfigError):
            RunConfig.from_mapping(
                {"merging_chains": ["a", "b"], "radius_miles": "five"}
            )
        with pytest.raises(ConfigError):
            RunConfig.from_mapping(
                {"merging_chains": ["a", "b"], "seed": 1.5}
            )
        with pytest.raises(ConfigError):
            RunConfig.from_mapping(
                {"merging_chains": ["a", "b"], "permutations": True}
            )

    def test_invalid_rule_values(self):
        with pytest.raises(ConfigError, match="invalid rule"):
            RunConfig.from_mapping({
                "merging_chains": ["a", "b"],
                "rule": {"merged_share_threshold": 2.0},
            })

    def test_null_region_filter(self):
        config = RunConfig.from_mapping(
            {"merging_chains": ["a", "b"], "region_filter": None}
        )
        assert config.region_filter is None


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"merging_chains": ["acme", "bolt"]}),
                        encoding="utf-8")
        assert load_config(path).merging_chains == ("acme", "bolt")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

