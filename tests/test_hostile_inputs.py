"""Hostile inputs through every CLI subcommand.

Hypothesis draws run configurations (wrong types, huge and non-finite
numbers, nesting, repeated keys) and store CSVs (bad rows, missing columns,
NaN, huge revenues, duplicate ids), and runs each pair through every
subcommand in process.  Each run must end with an exit code that ``cli.py``
lists, report a failure on one stderr line with no traceback, and leave
its output directory holding either the old files or a complete new set.

Inputs stay tiny: at most 12 stores and 4 marginal labels.  Rounding
decimals are drawn at most 40 or past the 324 that the reader accepts, so
that no example is a legitimate request for gigabytes.
"""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from mktsens.cli import main
from tests.conftest import CSV_HEADER

STATE_FILES = ("hasse.dot", "hasse.json", "shapley.csv", "shapley.json",
               "sspi.csv", "sspi.json", "shares.csv", "shares.json")
COMMANDS = {
    ("state",): STATE_FILES,
    ("firm",): ("sspi.csv", "sspi.json"),
    ("local",): ("local_counts.csv", "local_counts.json", "local_markets.csv",
                 "local_markets.json", "sspi_structure.csv",
                 "sspi_structure.json"),
    ("hasse",): ("hasse.dot", "hasse.json"),
}
PREFIXES = ("configuration error: ", "data error: ", "capacity error: ",
            "output error: ")
OLD = b"old\n"

CHAINS = ("acme", "bolt", "cato", "dune")
FORMATS = ("supermarket", "club", "natural", "limited", "organic")

FIELDS = st.sampled_from([
    "", "nan", "NaN", "inf", "-inf", "1e308", "1.7976931348623157e308",
    "1e400", "-1", "abc", "9" * 400, "0x10", " 3 ", "acme", "club",
])
# Integers either small or far past every limit; never in between.
INTS = st.integers(-3, 40) | st.integers(10**17, 10**30) | st.integers(-10**30, -10**17)
NUMBERS = INTS | st.floats() | st.sampled_from([1e308, -0.0, 5e-324])
SCALARS = st.none() | st.booleans() | st.text(max_size=3) | NUMBERS
ODD = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=2)
                   | st.dictionaries(st.text(max_size=2), inner, max_size=2),
                   max_leaves=6)


def labels(pool):
    """Lists of up to four labels from ``pool``, an empty or padded one, or
    a label no store has."""
    return st.lists(st.sampled_from(pool + ("", " Club ", "zeta")), max_size=4)


def objects(pairs) -> str:
    """A JSON object's text from (key, value text) pairs, repeats kept."""
    return "{" + ", ".join(f"{json.dumps(key)}: {text}" for key, text in pairs) + "}"


# A configuration under which every subcommand runs on the drawn stores.
BASE = {"merging_chains": ["acme", "bolt"],
        "always_in_formats": ["supermarket", "organic"],
        "marginal_formats": ["club", "natural", "limited"],
        "marginal_firms": ["cato", "dune"]}


@st.composite
def configs(draw) -> str:
    """A run configuration's text: BASE with some keys set to drawn values,
    a quarter of them of the wrong type or shape; sometimes with a key given
    twice or unknown, or not an object at all."""
    value = {
        "merging_chains": labels(CHAINS),
        "always_in_formats": labels(FORMATS),
        "marginal_formats": labels(FORMATS),
        "marginal_firms": labels(CHAINS),
        "rule": st.fixed_dictionaries({}, optional={
            "post_hhi_threshold": NUMBERS, "delta_hhi_threshold": NUMBERS,
            "merged_share_threshold": NUMBERS,
            "use_share_criterion": st.booleans()}),
        "radius_miles": NUMBERS,
        "region_filter": st.none() | st.text(max_size=2),
        "drop_formats": labels(FORMATS),
        "rounding": st.fixed_dictionaries({}, optional={
            "sspi": INTS | st.integers(325, 10**20),
            "shares": INTS | st.integers(325, 10**20)}),
    }
    pairs = {key: json.dumps(items) for key, items in BASE.items()}
    for key in draw(st.lists(st.sampled_from(list(value)), max_size=4)):
        odd = draw(st.integers(0, 3)) == 2
        pairs[key] = json.dumps(draw(ODD if odd else value[key]))
    items = list(pairs.items())
    shape = draw(st.integers(0, 9))
    # Hypothesis favours small draws, so the rare shapes take the large ones.
    if shape == 7:
        items.append(draw(st.sampled_from(items)))
    elif shape == 8:
        return draw(st.sampled_from([json.dumps(draw(ODD)), "[" * 50 + "]" * 50,
                                     objects(items)[:-1]]))
    elif shape == 9:
        items.append(("typo", json.dumps(draw(ODD))))
    return objects(items)


@st.composite
def store_csvs(draw) -> str:
    """A store CSV of a store of each chain and up to 8 others, near one
    point, then up to three mutations: a field replaced, a column dropped,
    an id repeated, or a row cut short."""
    header = CSV_HEADER.split(",")
    chains = [*CHAINS, *draw(st.lists(st.sampled_from(CHAINS), max_size=8))]
    rows = [[f"s{k:02d}", chain, chain.title(),
             "supermarket" if k < 2 else draw(st.sampled_from(FORMATS)),
             repr(45.0 + draw(st.floats(0, 0.05))),
             repr(-122.0 + draw(st.floats(0, 0.05))),
             repr(draw(st.floats(0, 50)))]
            for k, chain in enumerate(chains)]
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        column = draw(st.integers(0, len(header) - 1))
        kind = draw(st.sampled_from(["field", "column", "duplicate", "short"]))
        if kind == "field" and column < len(row):
            row[column] = draw(FIELDS)
        elif kind == "column":
            del header[column]
            for cells in rows:
                del cells[column:column + 1]
        elif kind == "duplicate":
            rows.append(list(row))
        elif kind == "short":
            del row[column:]
    return "\n".join(",".join(cells) for cells in [header, *rows]) + "\n"


def assert_clean_run(folder: Path, command: tuple[str, ...]) -> None:
    """Run ``command`` on the inputs in ``folder`` over an output directory
    of old files, and check its exit code, stderr and files."""
    names = COMMANDS[command]
    out = folder / "-".join(command)
    out.mkdir()
    for name in names:
        (out / name).write_bytes(OLD)
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main([command[0], "--stores", str(folder / "stores.csv"),
                     "--config", str(folder / "run.json"), "--out", str(out),
                     *command[1:]])
    assert code in (0, 2, 3, 4)
    files = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(files) == sorted(names)
    if code == 0:
        assert err.getvalue() == ""
        assert OLD not in files.values()
        return
    text = err.getvalue()
    assert text.startswith(PREFIXES) and "Traceback" not in text
    # The one report that spans lines is ingest's list of invalid rows.
    first, _, rest = text.partition("\n")
    if not first.endswith("invalid row(s):"):
        assert rest == ""
    assert set(files.values()) == {OLD}


@given(configs(), store_csvs())
@settings(max_examples=60, deadline=None)
def test_every_subcommand_fails_cleanly(config, stores):
    with tempfile.TemporaryDirectory() as name:
        folder = Path(name)
        (folder / "run.json").write_text(config, encoding="utf-8")
        (folder / "stores.csv").write_text(stores, encoding="utf-8")
        for command in COMMANDS:
            assert_clean_run(folder, command)
