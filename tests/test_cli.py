"""End-to-end command-line runs."""

from __future__ import annotations

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

from mktsens import reports
from mktsens.cli import main
from tests.conftest import base_config_doc, local_stores, state_stores, write_inputs


def run_cli(tmp_path, command, stores, config_doc, *extra, out="out"):
    stores_path, config_path = write_inputs(tmp_path, stores, config_doc)
    out_dir = tmp_path / out
    argv = [command, "--stores", str(stores_path),
            "--config", str(config_path), "--out", str(out_dir), *extra]
    return main(argv), out_dir


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

    def test_failed_json_keeps_both_old_files(self, tmp_path, capsys,
                                              monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        old = {"hasse.dot": b"old dot\n", "hasse.json": b"old json\n"}
        for name, data in old.items():
            (out / name).write_bytes(data)

        def broken(diagram):
            raise OSError("disk full")

        monkeypatch.setattr(reports, "to_json", broken)
        code, _ = run_cli(tmp_path, "hasse", state_stores(), base_config_doc())
        assert code == 2
        assert "output error: disk full" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == old

    def test_rejects_unknown_format(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(tmp_path, "hasse", state_stores(), base_config_doc(),
                    "--format", "svg")
        assert err.value.code == 2


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

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as err:
            main(["state", "--stores", "x.csv"])
        assert err.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["explode"])
        assert err.value.code == 2


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
