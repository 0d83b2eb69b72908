"""Store CSV ingestion and run-configuration parsing."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import logging
import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mktsens import (
    ConfigError,
    DataError,
    PresumptionRule,
    RunConfig,
    Store,
    StoreUniverse,
    load_stores,
)
from mktsens import ingest
from mktsens.config import load_config
from tests.conftest import (
    CSV_HEADER,
    scalar_load_stores,
    state_stores,
    stores_csv_text,
)

GOOD_ROW = "s1,acme,Acme Markets,Supermarket,47.61,-122.33,12.5"


def write_csv(tmp_path, body: str, header: str = CSV_HEADER):
    path = tmp_path / "stores.csv"
    path.write_text(header + "\n" + body, encoding="utf-8")
    return path


class TestLoadStores:
    def test_happy_path(self, tmp_path):
        path = tmp_path / "stores.csv"
        path.write_text(stores_csv_text(state_stores()), encoding="utf-8")
        universe = load_stores(path)
        assert universe.stores == state_stores()
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


# Field texts per column: valid, padded, non-ASCII, non-finite, malformed
# and blank, plus arbitrary short text with separators, quotes and newlines.
FIELD_POOLS = {
    "store_id": ("s1", "s2", "s3", " s1 ", "店4", ""),
    "chain_id": ("acme", "bolt", " acme ", "Acme", ""),
    "chain_name": ("Acme", "Acme Markets", "Bolt, Inc.", "two\nlines", ""),
    "format": ("club", "Club", " NATURAL ", "supermarket", "ｃｌｕｂ", ""),
    "latitude": ("47.5", "-90", "90.0", "1_0", " 1e1 ", "nan", "-inf", "91",
                 "north", ""),
    "longitude": ("-122.3", "180", "-180.5", "1_0", "inf", "east", " 0 ", ""),
    "revenue": ("10", "12.34", "0", "-0", "-5", "1e308", "1e999", "nan",
                "ten", ""),
    "region": ("west", "east", " west ", ""),
}
ANY_FIELD = st.text(st.sampled_from('a1 ,"\n\t._-é'), max_size=4)


def _field(column: str):
    return st.one_of(st.sampled_from(FIELD_POOLS.get(column, ("x", ""))),
                     ANY_FIELD)


@st.composite
def store_csv_texts(draw) -> str:
    """Store CSV text: every required column and up to two more, some named
    twice; ragged rows, blank lines, quoting and an optional BOM."""
    extra = draw(st.lists(st.sampled_from(ingest.REQUIRED_COLUMNS
                                          + ("region", "notes")), max_size=2))
    header = draw(st.permutations(ingest.REQUIRED_COLUMNS + tuple(extra)))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        width = 0 if draw(st.integers(0, 5)) == 0 else max(
            1, len(header) + draw(st.integers(-3, 2)))
        rows.append([draw(_field(header[i] if i < len(header) else "notes"))
                     for i in range(width)])
    buffer = io.StringIO()
    writer = csv.writer(buffer,
                        lineterminator=draw(st.sampled_from(["\n", "\r\n"])),
                        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL,
                                                      csv.QUOTE_ALL])))
    writer.writerow(header)
    writer.writerows(rows)
    return draw(st.sampled_from(["", "\ufeff"])) + buffer.getvalue()


@contextmanager
def _ingest_log():
    """The messages that the ``mktsens.ingest`` logger emits at INFO."""
    messages: list[str] = []
    handler = logging.Handler()
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("mktsens.ingest")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _read_with(load, path: Path, **filters):
    """What ``load`` makes of ``path``: its stores and chains, or the type
    and text of its exception, and its log lines."""
    with _ingest_log() as messages:
        try:
            universe = load(path, **filters)
        except Exception as exc:  # csv.Error too: both readers must agree
            return (type(exc), str(exc)), messages
    return (universe.stores, universe.chains()), messages


BAD_ROWS = "".join(f"s{i},acme,Acme,club,999,0,1\n" for i in range(25))


@settings(max_examples=300, deadline=None)
@given(text=store_csv_texts(),
       drop_formats=st.sampled_from([(), ("club",), (" Natural ", "CLUB")]),
       region=st.sampled_from([None, "west", ""]),
       block_rows=st.sampled_from([1, 2, 3, 7, ingest.BLOCK_ROWS]))
@example(text=CSV_HEADER + ",latitude\ns1,acme,Acme,club,1,2,3,4\n"
         "s2,acme,Acme,club,1,2,3\n", drop_formats=(), region=None,
         block_rows=ingest.BLOCK_ROWS)
@example(text=CSV_HEADER + ",region\ns1,acme,Acme,club,1,2,3,west\n"
         "s2,acme,Acme,natural,1,2,3,east\ns1,bolt,Bolt,natural,1,2,3,west\n"
         "s2,bolt,Bolt,natural,1,2,3,west\n", drop_formats=("club",),
         region="west", block_rows=ingest.BLOCK_ROWS)
@example(text="\ufeff" + CSV_HEADER + "\ns1,acme,Acme,club,1,2,3\n",
         drop_formats=(), region=None, block_rows=ingest.BLOCK_ROWS)
@example(text=CSV_HEADER + "\n" + BAD_ROWS, drop_formats=(), region=None,
         block_rows=ingest.BLOCK_ROWS)
def test_load_stores_matches_the_row_loop(text, drop_formats, region, block_rows):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "stores.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        filters = {"drop_formats": drop_formats, "region": region}
        with mock.patch.object(ingest, "BLOCK_ROWS", block_rows):
            got = _read_with(load_stores, path, **filters)
        assert got == _read_with(scalar_load_stores, path, **filters)
    (stores, _), _ = got
    if not isinstance(stores, type):
        assert all(type(value) is (str if name[0] in "scf" else float)
                   for store in stores for name, value in vars(store).items())


def test_every_block_size_reads_the_same_universe(tmp_path):
    path = write_csv(tmp_path, "\n".join([
        "s3,acme,Acme,club,47.0,-122.0,10",
        "",
        "",
        's1,bolt,"Bolt,\nInc.",natural,46.0,-121.0,1_0',
        "s2,acme,Acme Markets,Club,45.0,-120.0, 1e3 ",
        "",
        "s4,cyan,Cyan,supermarket,44.0,-119.0,7",
    ]) + "\n\n")
    expected = scalar_load_stores(path).stores
    for block_rows in (1, 2, 3):
        with mock.patch.object(ingest, "BLOCK_ROWS", block_rows):
            universe = load_stores(path)
        assert universe.stores == expected
        assert universe.chains() == {"acme": "Acme Markets", "bolt": "Bolt,\nInc.",
                                     "cyan": "Cyan"}


@st.composite
def store_sets(draw) -> list[Store]:
    """Up to a dozen stores of three chains, each name spelled two ways,
    in ascending store-id order; every field survives a CSV round trip."""
    ids = sorted(draw(st.lists(st.text("ab01", min_size=1, max_size=3),
                               max_size=12, unique=True)))
    stores = []
    for store_id in ids:
        chain = draw(st.sampled_from(("acme", "bolt", "cato")))
        stores.append(Store(
            store_id, chain, draw(st.sampled_from((chain.title(), chain.upper()))),
            draw(st.sampled_from(("club", "natural", "supermarket"))),
            draw(st.integers(-900, 900)) / 10, draw(st.integers(-1800, 1800)) / 10,
            draw(st.integers(0, 4000)) / 100))
    return stores


def _universe_view(universe: StoreUniverse) -> tuple:
    """Everything a pipeline can read of ``universe``."""
    return (universe.ids,
            *(column.tolist() for column in (
                universe.latitude, universe.longitude, universe.revenue,
                universe.chain, universe.name, universe.format)),
            universe.chain_ids, universe.chain_names, universe.formats,
            universe.chains(), universe.sales())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_any_row_order_builds_the_same_universe(data):
    stores = data.draw(store_sets())
    want = _universe_view(StoreUniverse(stores))
    assert want[0] == tuple(store.store_id for store in stores)
    shuffled = data.draw(st.permutations(stores))
    assert _universe_view(StoreUniverse(shuffled)) == want
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "stores.csv"
        path.write_text(stores_csv_text(data.draw(st.permutations(stores))),
                        encoding="utf-8")
        assert _universe_view(load_stores(path)) == want


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

    @pytest.mark.parametrize("doc,message", [
        (["merging_chains"], "configuration must be a JSON object"),
        ({"merging_chains": ["a"]}, "merging_chains must name exactly two chains"),
        ({"merging_chains": ["a", "b"], "rule": []}, "rule must be an object"),
        ({"merging_chains": ["a", "b"], "rounding": 3}, "rounding must be an object"),
        ({"merging_chains": ["a", "b"], "rounding": {"x": 1}},
         "unknown rounding keys: ['x']"),
        ({"merging_chains": ["a", "b"], "rule": {"use_share_criterion": 1}},
         "rule.use_share_criterion must be a boolean"),
        ({"merging_chains": ["a", "b"], "region_filter": ""},
         "region_filter must be a nonempty string or null"),
        ({"merging_chains": ["a", "b"], "rounding": {"sspi": 1.5}},
         "rounding.sspi must be an integer"),
        # Precedence: unknown keys, then a missing merging_chains, then the
        # keys in reading order, whatever their order in the document.
        ({"seed": "x"}, "merging_chains is required"),
        ({"seed": "x", "oops": 1}, "unknown configuration keys: ['oops']"),
        ({"seed": "x", "radius_miles": "y", "merging_chains": ["a", "b"]},
         "radius_miles must be a number"),
        ({"merging_chains": ["a", "b"], "rounding": {"shares": "x", "sspi": "y"}},
         "rounding.sspi must be an integer"),
    ])
    def test_messages(self, doc, message):
        with pytest.raises(ConfigError) as error:
            RunConfig.from_mapping(doc)
        assert str(error.value) == message

    def test_every_key_takes_effect(self):
        config = RunConfig.from_mapping({
            "merging_chains": ["bolt", "acme"],
            "always_in_formats": ["Supermarket"],
            "marginal_formats": ["Club", "Natural"],
            "marginal_firms": ["grandway"],
            "rule": {"post_hhi_threshold": 2500, "delta_hhi_threshold": 200.5,
                     "merged_share_threshold": 0.4, "use_share_criterion": True},
            "radius_miles": 3,
            "region_filter": " west ",
            "drop_formats": ["Liquor"],
            "rounding": {"sspi": 4, "shares": 2},
            "seed": 7,
            "permutations": 1000,
        })
        assert config == RunConfig(
            merging_chains=("bolt", "acme"),
            always_in_formats=("supermarket",),
            marginal_formats=("club", "natural"),
            marginal_firms=("grandway",),
            rule=PresumptionRule(post_hhi_threshold=2500.0,
                                 delta_hhi_threshold=200.5,
                                 merged_share_threshold=0.4,
                                 use_share_criterion=True),
            radius_miles=3.0,
            region_filter="west",
            drop_formats=("liquor",),
            sspi_decimals=4,
            share_decimals=2,
            seed=7,
            permutations=1000,
        )
        defaults = RunConfig(merging_chains=("acme", "bolt"))
        for name in (f.name for f in dataclasses.fields(RunConfig)):
            assert getattr(config, name) != getattr(defaults, name), name
        for name in (f.name for f in dataclasses.fields(PresumptionRule)):
            assert getattr(config.rule, name) != getattr(defaults.rule, name), name


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

    @pytest.mark.parametrize("text,keys", [
        ('{"merging_chains": ["a", "b"], "seed": -1, "seed": 3}', "['seed']"),
        ('{"merging_chains": ["a", "b"], "rule": {"post_hhi_threshold": 2500,'
         ' "post_hhi_threshold": 1800}}', "['post_hhi_threshold']"),
        ('{"seed": 1, "merging_chains": ["a", "b"], "rounding": {}, "seed": 1,'
         ' "rounding": {}}', "['rounding', 'seed']"),
    ])
    def test_repeated_keys_refused(self, tmp_path, text, keys):
        """json.loads keeps the last value of a repeated key; the earlier
        one would be dropped unread."""
        path = tmp_path / "run.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError) as error:
            load_config(path)
        assert str(error.value) == f"configuration keys given more than once: {keys}"
