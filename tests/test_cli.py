"""End-to-end command-line runs."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mktsens import Store, iter_json, jsontext, reports
from mktsens.cli import main
from tests.conftest import (
    base_config_doc,
    fail_after_one_block,
    local_stores,
    state_stores,
    write_inputs,
)


def run_cli(tmp_path, command, stores, config_doc, *extra, out="out"):
    stores_path, config_path = write_inputs(tmp_path, stores, config_doc)
    out_dir = tmp_path / out
    argv = [command, "--stores", str(stores_path),
            "--config", str(config_path), "--out", str(out_dir), *extra]
    return main(argv), out_dir


def assert_only_old_files(out: Path, old: dict[str, bytes]) -> None:
    """``out`` holds exactly the ``old`` files, byte for byte, and no
    staging directory."""
    assert sorted(p.name for p in out.iterdir()) == sorted(old)
    assert {name: (out / name).read_bytes() for name in old} == old


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


class TestStateCommand:
    def test_end_to_end(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "state", state_stores(), base_config_doc())
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8
        assert all(line.startswith("wrote ") for line in lines)
        rows = read_csv(out / "shapley.csv")
        assert rows[1] == ["club", "282", "0.438"]
        assert rows[4] == ["Total", "644", "1.000"]

    def test_sampled_flag(self, tmp_path):
        doc = base_config_doc(seed=11, permutations=5000)
        code, out = run_cli(tmp_path, "state", state_stores(), doc, "--sampled")
        assert code == 0
        payload = json.loads((out / "shapley.json").read_text(encoding="utf-8"))
        assert payload["mode"] == "sampled"
        assert payload["seed"] == 11
        assert payload["permutations_used"] == 5000

    def test_failed_json_keeps_every_old_file(self, tmp_path, capsys,
                                              monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        old = {name: f"old {name}\n".encode() for name in (
            "hasse.dot", "hasse.json", "shapley.csv", "shapley.json",
            "sspi.csv", "sspi.json", "shares.csv", "shares.json",
        )}
        for name, data in old.items():
            (out / name).write_bytes(data)
        # hasse.dot is staged whole before hasse.json fails mid-stream.
        monkeypatch.setattr(jsontext, "EMIT_BLOCK", 2)
        monkeypatch.setattr(reports, "iter_json", fail_after_one_block(iter_json))
        code, _ = run_cli(tmp_path, "state", state_stores(), base_config_doc())
        assert code == 2
        assert "output error: disk full" in capsys.readouterr().err
        assert_only_old_files(out, old)

    def test_two_runs_are_byte_identical(self, tmp_path):
        _, first = run_cli(tmp_path, "state", state_stores(),
                           base_config_doc(), out="one")
        _, second = run_cli(tmp_path, "state", state_stores(),
                            base_config_doc(), out="two")
        for path in sorted(first.iterdir()):
            assert path.read_bytes() == (second / path.name).read_bytes()


class TestFirmCommand:
    def test_end_to_end(self, tmp_path):
        doc = base_config_doc(
            marginal_firms=["grandway", "citygrocer", "dailymart"]
        )
        code, out = run_cli(tmp_path, "firm", state_stores(), doc)
        assert code == 0
        rows = read_csv(out / "sspi.csv")
        assert rows[1] == ["citygrocer", "City Grocer", "0.333"]

    def test_missing_marginal_firms_is_config_error(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "firm", state_stores(), base_config_doc())
        assert code == 2
        assert "configuration error" in capsys.readouterr().err


class TestLocalCommand:
    def test_end_to_end(self, tmp_path):
        code, out = run_cli(tmp_path, "local", local_stores(), base_config_doc())
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "local_counts.csv", "local_counts.json",
            "local_markets.csv", "local_markets.json",
            "sspi_structure.csv", "sspi_structure.json",
        ]
        rows = read_csv(out / "sspi_structure.csv")
        assert rows[1] == ["1.000", "0.000", "0.000", "2"]


class TestHasseCommand:
    def test_both_formats_by_default(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "hasse", state_stores(), base_config_doc())
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "hasse.dot", "hasse.json",
        ]
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_single_format(self, tmp_path):
        code, out = run_cli(tmp_path, "hasse", state_stores(),
                            base_config_doc(), "--format", "dot")
        assert code == 0
        assert [p.name for p in out.iterdir()] == ["hasse.dot"]
        text = (out / "hasse.dot").read_text(encoding="utf-8")
        assert '"empty" -> "club" [label="+230"]' in text

    def test_same_diagram_files_as_the_state_command(self, tmp_path):
        _, state = run_cli(tmp_path, "state", state_stores(), base_config_doc(),
                           out="state")
        _, hasse = run_cli(tmp_path, "hasse", state_stores(), base_config_doc(),
                           out="hasse")
        for name in ("hasse.dot", "hasse.json"):
            assert (state / name).read_bytes() == (hasse / name).read_bytes()

    def test_computes_no_attribution(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("hasse needs no Shapley values or SSPI")

        for name in ("shapley_exact", "shapley_sampled", "sspi"):
            monkeypatch.setattr(reports, name, refuse)
        code, out = run_cli(tmp_path, "hasse", state_stores(), base_config_doc())
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["hasse.dot",
                                                         "hasse.json"]

    def test_failed_json_keeps_both_old_files(self, tmp_path, capsys,
                                              monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        old = {"hasse.dot": b"old dot\n", "hasse.json": b"old json\n"}
        for name, data in old.items():
            (out / name).write_bytes(data)

        # Two nodes a block, so hasse.json fails with blocks still to come.
        monkeypatch.setattr(jsontext, "EMIT_BLOCK", 2)
        monkeypatch.setattr(reports, "iter_json", fail_after_one_block(iter_json))
        code, _ = run_cli(tmp_path, "hasse", state_stores(), base_config_doc())
        assert code == 2
        assert "output error: disk full" in capsys.readouterr().err
        assert_only_old_files(out, old)

    def test_rejects_unknown_format(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(tmp_path, "hasse", state_stores(), base_config_doc(),
                    "--format", "svg")
        assert err.value.code == 2


class TestUnlistedFormats:
    """Store formats in neither always_in_formats nor marginal_formats."""

    DOC = base_config_doc(
        always_in_formats=["supermarket"],
        marginal_formats=["natural", "limited"],
        marginal_firms=["grandway", "citygrocer", "dailymart"],
    )
    MESSAGE = ("configuration error: store formats in neither "
               "always_in_formats nor marginal_formats: ['club', 'supercenter']")

    @pytest.mark.parametrize("command,stores", [
        ("state", state_stores), ("hasse", state_stores),
        ("local", local_stores),
    ])
    def test_format_pipelines_refuse_them(self, tmp_path, capsys, command,
                                          stores):
        code, out = run_cli(tmp_path, command, stores(), self.DOC)
        assert code == 2
        assert capsys.readouterr().err.strip() == self.MESSAGE
        assert not out.exists()

    def test_firm_ignores_formats(self, tmp_path):
        code, out = run_cli(tmp_path, "firm", state_stores(), self.DOC)
        assert code == 0
        assert (out / "sspi.csv").exists()

    def test_dropped_formats_do_not_count(self, tmp_path):
        doc = dict(self.DOC, drop_formats=["club", "supercenter"])
        code, _ = run_cli(tmp_path, "state", state_stores(), doc)
        assert code == 0


class TestFailureModes:
    def test_bad_config_json(self, tmp_path, capsys):
        stores_path, config_path = write_inputs(
            tmp_path, state_stores(), base_config_doc()
        )
        config_path.write_text("{truncated", encoding="utf-8")
        code = main(["state", "--stores", str(stores_path),
                     "--config", str(config_path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "state", state_stores(),
                          base_config_doc(typo=1))
        assert code == 2
        assert "unknown configuration keys" in capsys.readouterr().err

    def test_repeated_config_key(self, tmp_path, capsys):
        stores_path, config_path = write_inputs(
            tmp_path, state_stores(), base_config_doc()
        )
        config_path.write_text(
            '{"merging_chains": ["acme", "bolt"], "seed": -1, "seed": 3}',
            encoding="utf-8")
        code = main(["state", "--stores", str(stores_path),
                     "--config", str(config_path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.strip() == (
            "configuration error: configuration keys given more than once: "
            "['seed']")
        assert not (tmp_path / "out").exists()

    def test_invalid_store_rows(self, tmp_path, capsys):
        stores_path, config_path = write_inputs(
            tmp_path, state_stores(), base_config_doc()
        )
        stores_path.write_text(
            "store_id,chain_id,chain_name,format,latitude,longitude,revenue\n"
            "s1,acme,Acme,supermarket,999,0,1\n",
            encoding="utf-8",
        )
        code = main(["state", "--stores", str(stores_path),
                     "--config", str(config_path),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_missing_merging_chain(self, tmp_path, capsys):
        stores = [s for s in state_stores() if s.chain_id != "bolt"]
        code, _ = run_cli(tmp_path, "state", stores, base_config_doc())
        assert code == 3
        assert "bolt" in capsys.readouterr().err

    def test_capacity_exit_code(self, tmp_path, capsys):
        doc = base_config_doc(
            marginal_formats=[f"f{k:02d}" for k in range(25)]
        )
        code, _ = run_cli(tmp_path, "state", state_stores(), doc)
        assert code == 4
        assert "capacity error" in capsys.readouterr().err

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "notadir").write_text("a file\n", encoding="utf-8")
        doc = base_config_doc(
            marginal_firms=["grandway", "citygrocer", "dailymart"]
        )
        code, _ = run_cli(tmp_path, "firm", state_stores(), doc,
                          out="notadir/x")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ")
        assert "Traceback" not in err

    def test_negative_seed(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "state", state_stores(),
                            base_config_doc(seed=-1), "--sampled")
        assert code == 2
        assert capsys.readouterr().err == (
            "configuration error: seed must be nonnegative\n")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["post_hhi_threshold",
                                     "delta_hhi_threshold"])
    def test_nan_hhi_threshold(self, tmp_path, capsys, key):
        # Python's json reads NaN; no HHI would ever exceed it.
        code, out = run_cli(tmp_path, "state", state_stores(),
                            base_config_doc(rule={key: math.nan}))
        assert code == 2
        assert capsys.readouterr().err == (
            "configuration error: invalid rule: HHI thresholds must be "
            "nonnegative numbers\n")
        assert not out.exists()

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as err:
            main(["state", "--stores", "x.csv"])
        assert err.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["explode"])
        assert err.value.code == 2


@pytest.mark.parametrize("command", ["state", "firm"])
def test_forty_decimals_keep_exact_totals(tmp_path, command):
    doc = base_config_doc(
        marginal_firms=["grandway", "citygrocer", "dailymart"],
        rounding={"sspi": 40, "shares": 40},
    )
    code, out = run_cli(tmp_path, command, state_stores(), doc)
    assert code == 0
    tables = sorted(out.glob("*.csv"))
    assert [p.name for p in tables] == (
        ["shapley.csv", "shares.csv", "sspi.csv"] if command == "state"
        else ["sspi.csv"])
    for path in tables:
        header, *body, total = read_csv(path)
        assert total[0] == "Total"
        for col, name in enumerate(header):
            if name in ("sv_share", "sspi", "share"):
                assert all(len(row[col].split(".")[1]) == 40 for row in body)
            if name in ("shapley_value", "sv_share", "sspi", "share"):
                assert Fraction(total[col]) == sum(
                    Fraction(row[col]) for row in body)


class TestConsoleScript:
    def test_subprocess_state_run(self, tmp_path):
        stores_path, config_path = write_inputs(
            tmp_path, state_stores(), base_config_doc()
        )
        out_dir = tmp_path / "out"
        result = subprocess.run(
            [sys.executable, "-m", "mktsens.cli", "state",
             "--stores", str(stores_path), "--config", str(config_path),
             "--out", str(out_dir)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.count("wrote ") == 8
        assert (out_dir / "hasse.dot").exists()


# ---------------------------------------------------------------------------
# Byte-identity gate: SHA-256 of every report file the CLI writes for one
# seeded universe.  A refactor must leave every digest as it is; a change
# that means to alter report bytes updates them and says why.
# ---------------------------------------------------------------------------

GOLDEN_CHAINS = ("acme", "bolt", "cato", "dune", "echo", "fern")
GOLDEN_FORMATS = ("supermarket", "supercenter", "club", "natural", "limited")


def golden_stores(seed: int = 20240, count: int = 300) -> tuple[Store, ...]:
    """Stores in a box of about 20 x 25 miles, so that 3-mile circles
    around acme and bolt stores often hold both parties."""
    rng = random.Random(seed)
    stores = []
    for k in range(count):
        chain = rng.choice(GOLDEN_CHAINS)
        stores.append(Store(
            f"g{k:03d}", chain, chain.title(), rng.choice(GOLDEN_FORMATS),
            round(45.0 + rng.uniform(0.0, 0.3), 5),
            round(-122.0 + rng.uniform(0.0, 0.5), 5),
            round(rng.uniform(1.0, 40.0), 2),
        ))
    return tuple(stores)


GOLDEN_CONFIG = base_config_doc(
    always_in_formats=["supermarket", "supercenter"],
    marginal_formats=["club", "natural", "limited"],
    marginal_firms=["cato", "dune", "echo"],
    # Statewide post-merger HHI runs from 2225 to 2372 over the formats'
    # lattice, so this threshold makes the state and firm games sensitive.
    rule={"post_hhi_threshold": 2290},
    radius_miles=3.0,
    seed=5,
    permutations=400,
)

GOLDEN_RUNS = {
    "state": ("state",),
    "sampled": ("state", "--sampled"),
    "hasse": ("hasse",),
    "hasse-json": ("hasse", "--format", "json"),
    "firm": ("firm",),
    "local": ("local",),
}

GOLDEN_DIGESTS = {
    "state/hasse.dot":
        "15a7622cf1aee96283533481ebcda4932376d9797439353338acf7da8242e925",
    "state/hasse.json":
        "7deb3115c123d45d078439aab36bf81100926ce2c9fa2bf4d4addc8181e32a2f",
    "state/shapley.csv":
        "ddc4f63d1acd5995a86fc6651f3f580778deec7ac2c890ee3c1b3bcafa295b18",
    "state/shares.csv":
        "ff29db43e34d4ddb6aceeff173311ffdc2a352d884a0b48fcf8e517c3f1909d7",
    "state/shares.json":
        "8e9203a2cec0c2bf9a1c2354b45bd2f8fd2a850b45d91c73ea95141860e65c04",
    "state/sspi.csv":
        "46f68004b968dfe8e6966020f8d6a0079d9cb19eedf6147cb4eae7469124fc6e",
    "state/sspi.json":
        "068187bff0c561c0ee1231776e8ddcfc60fdb96c67817c6fc583aa5d42db2ab6",
    "sampled/hasse.dot":
        "15a7622cf1aee96283533481ebcda4932376d9797439353338acf7da8242e925",
    "sampled/hasse.json":
        "7deb3115c123d45d078439aab36bf81100926ce2c9fa2bf4d4addc8181e32a2f",
    "sampled/shapley.csv":
        "e025a79be9afa5875bfe306b06e4fe29301c98f7087d5e6bf150ea84f6b5b2e8",
    "sampled/shares.csv":
        "ff29db43e34d4ddb6aceeff173311ffdc2a352d884a0b48fcf8e517c3f1909d7",
    "sampled/shares.json":
        "8e9203a2cec0c2bf9a1c2354b45bd2f8fd2a850b45d91c73ea95141860e65c04",
    "sampled/sspi.csv":
        "46f68004b968dfe8e6966020f8d6a0079d9cb19eedf6147cb4eae7469124fc6e",
    "sampled/sspi.json":
        "068187bff0c561c0ee1231776e8ddcfc60fdb96c67817c6fc583aa5d42db2ab6",
    "hasse/hasse.dot":
        "15a7622cf1aee96283533481ebcda4932376d9797439353338acf7da8242e925",
    "hasse/hasse.json":
        "7deb3115c123d45d078439aab36bf81100926ce2c9fa2bf4d4addc8181e32a2f",
    "hasse-json/hasse.json":
        "7deb3115c123d45d078439aab36bf81100926ce2c9fa2bf4d4addc8181e32a2f",
    "firm/sspi.csv":
        "ea2ac21407c90f00b48523cdf5c2fb0a9a36582374cf583c37e6795310faf52b",
    "firm/sspi.json":
        "857df08be4931453f136ad1c730f9a852d3292b617f3dff283dd8e1013a197ce",
    "local/local_counts.csv":
        "f7ba5243cd4625be4a2f1a1184b6c84466484a872cf0f494dee8d45890cf8f04",
    "local/local_counts.json":
        "2d9fbaaac466333eb402e9c6123fea42bbe35bfebbc6a5408c700ad5abd35c76",
    "local/local_markets.csv":
        "f1057d94cb9f410ae913e951fd786513cf35e8b9c7258f1eb0acb09ee5832791",
    "local/local_markets.json":
        "dc39f942dee55abac997212cfd854a3b027e3f6c5ee04311b60f9eeb06711391",
    "local/sspi_structure.csv":
        "d0fcebb39dc6888e42c74b86aa660eaac7a39bc8d742f21617f3eeb1fd277f5c",
    "local/sspi_structure.json":
        "40a957f7ea3ff0232b86d19700ae8e462da4a0db49fbd6d8390c7d7c94a66200",
}


def test_reports_match_golden_digests(tmp_path):
    digests = {}
    for name, argv in GOLDEN_RUNS.items():
        code, out = run_cli(tmp_path, argv[0], golden_stores(), GOLDEN_CONFIG,
                            *argv[1:], out=name)
        assert code == 0
        for path in sorted(out.iterdir()):
            # Full-precision Shapley sums may differ in the last bit
            # between numpy and BLAS builds.
            if path.name != "shapley.json":
                digests[f"{name}/{path.name}"] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
    assert digests == GOLDEN_DIGESTS


# ---------------------------------------------------------------------------
# Row-order independence: every report depends on the set of rows in the
# store CSV, not on their order.
# ---------------------------------------------------------------------------

def cli_reports(stores, config_doc) -> dict[str, int | bytes]:
    """The exit code of every golden run on ``stores``, and the bytes of
    every report file that it writes."""
    with tempfile.TemporaryDirectory() as work:
        reports: dict[str, int | bytes] = {}
        for name, argv in GOLDEN_RUNS.items():
            reports[name], out = run_cli(Path(work), argv[0], stores, config_doc,
                                         *argv[1:], out=name)
            reports.update({f"{name}/{path.name}": path.read_bytes()
                            for path in out.glob("*")})
        return reports


def respelled_golden_stores() -> list[Store]:
    """The golden stores, with fern's name spelled two ways: "Fern" at its
    first store in store-id order and "Fern & Co" at its later ones."""
    stores = list(golden_stores())
    ferns = [k for k, store in enumerate(stores) if store.chain_id == "fern"]
    for k in ferns[1::2]:
        stores[k] = dataclasses.replace(stores[k], chain_name="Fern & Co")
    return stores


@st.composite
def small_universes(draw) -> list[Store]:
    """A few stores of four chains in a box of about 4 x 5 miles, each
    merging chain and marginal firm with an always-in store, and dune's
    name spelled two ways.  A circle may be left without revenue by some
    exclusion set, and then local exits 3 whatever the row order."""
    chains = ("acme", "bolt", "cato", "dune")
    count = draw(st.integers(len(chains), 16))
    ids = draw(st.lists(st.text("ab0123456789", min_size=1, max_size=3),
                        min_size=count, max_size=count, unique=True))
    stores = []
    for k, store_id in enumerate(ids):
        chain = chains[k] if k < len(chains) else draw(st.sampled_from(chains))
        name = draw(st.sampled_from(("Dune", "Dune Inc"))) if chain == "dune" else chain
        stores.append(Store(
            store_id, chain, name,
            "supermarket" if k < len(chains)
            else draw(st.sampled_from(("supermarket", "club", "natural"))),
            45.0 + draw(st.integers(0, 600)) / 1e4,
            -122.0 + draw(st.integers(0, 1000)) / 1e4,
            draw(st.integers(1, 4000)) / 100,
        ))
    return stores


SMALL_CONFIG = base_config_doc(
    always_in_formats=["supermarket"],
    marginal_formats=["club", "natural"],
    marginal_firms=["cato", "dune"],
    radius_miles=2.0,
    seed=3,
    permutations=50,
)


class TestRowOrder:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=3, deadline=None)
    def test_golden_universe(self, rng):
        want = cli_reports(respelled_golden_stores(), GOLDEN_CONFIG)
        assert {want[name] for name in GOLDEN_RUNS} == {0}
        shuffled = respelled_golden_stores()
        rng.shuffle(shuffled)
        assert cli_reports(shuffled, GOLDEN_CONFIG) == want
        shares = want["state/shares.csv"].decode().splitlines()
        assert [line for line in shares if line.startswith("fern,")][0].startswith(
            "fern,Fern,")

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_small_universes(self, data):
        stores = data.draw(small_universes())
        shuffled = data.draw(st.permutations(stores))
        assert cli_reports(shuffled, SMALL_CONFIG) == cli_reports(stores, SMALL_CONFIG)
