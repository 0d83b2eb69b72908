"""Store-level CSV ingestion with row-addressed validation.

The reader is strict: every malformed row is collected with its line number
and reported in a single error, rather than failing on the first problem or
silently skipping bad data.  Filters (region, dropped formats) apply after
validation, so a filtered-out row must still be well formed.  Rows are read
:data:`BLOCK_ROWS` at a time and checked, filtered and kept a column at a
time; only the rows with a problem get message text.
"""

from __future__ import annotations

import csv
import logging
import math
from collections import defaultdict
from itertools import compress, islice, repeat
from operator import attrgetter, itemgetter
from pathlib import Path

import numpy as np

from .errors import DataError
from .geomarket import StoreUniverse, _codes

logger = logging.getLogger(__name__)

REQUIRED_COLUMNS = ("store_id", "chain_id", "chain_name", "format", "latitude",
                    "longitude", "revenue")
RANGES = {"latitude": (-90.0, 90.0), "longitude": (-180.0, 180.0),
          "revenue": (0.0, math.inf)}
REGION_COLUMN = "region"
MAX_REPORTED_ERRORS = 20
# Rows read, transposed and checked together; it bounds the text held at once.
BLOCK_ROWS = 256


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def load_stores(
    path: str | Path,
    drop_formats: tuple[str, ...] = (),
    region: str | None = None,
) -> StoreUniverse:
    """Read a store CSV into a :class:`StoreUniverse`.

    Required columns: store_id, chain_id, chain_name, format, latitude,
    longitude, revenue.  Extra columns are ignored, and a column named twice
    reads its last copy.  Formats are lowercased; a ``region`` argument keeps
    only rows whose ``region`` column matches and requires that column to
    exist.  All validation failures are reported together, each with the
    number of the line on which its row ends.  The universe holds the kept
    stores in store-id order, whatever the order of the rows.
    """
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read store file {path}: {exc}") from exc
    errors: list[str] = []
    seen: set[str] = set()
    ids: list[str] = []
    # Latitude, longitude, revenue, then chain id, chain name and format codes.
    parts = [[np.empty(0)] for _ in RANGES] + [[np.empty(0, np.intp)] for _ in range(3)]
    strings: tuple[dict[str, int], ...] = ({}, {}, {})
    dropped_by_format = dropped_by_region = 0
    drop = {f.strip().lower() for f in drop_formats}
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise DataError(f"store file {path} is empty")
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise DataError(f"store file {path} is missing required columns: "
                            f"{', '.join(missing)}")
        if region is not None and REGION_COLUMN not in header:
            raise DataError(f"store file {path} has no {REGION_COLUMN!r} column "
                            "but a region filter was requested")
        at = {name: i for i, name in enumerate(header)}
        # Each row with the line it ends on; a blank line holds no row.
        numbered = filter(itemgetter(0), zip(
            reader, map(attrgetter("line_num"), repeat(reader))))
        while block := list(islice(numbered, BLOCK_ROWS)):
            rows, lines = zip(*block)
            if region is not None:
                inside = np.array([len(row) > at[REGION_COLUMN]
                                   and row[at[REGION_COLUMN]].strip() == region
                                   for row in rows])
            if min(map(len, rows)) < len(header):
                # A short row misses its trailing fields.
                rows = [row + [""] * (len(header) - len(row)) for row in rows]
            fields = list(zip(*rows))
            del block, rows
            text = {c: list(map(str.strip, fields[at[c]])) for c in REQUIRED_COLUMNS}
            problems: dict[int, list[str]] = defaultdict(list)
            for column, values in text.items():
                if "" in values:
                    for i in [i for i, value in enumerate(values) if not value]:
                        problems[i].append(f"missing {column}")
            numbers = []
            for column, (low, high) in RANGES.items():
                values = text[column]
                try:
                    parsed = np.fromiter(map(float, values), np.float64, len(values))
                except ValueError:
                    parsed = np.array(list(map(_number, values)), np.float64)
                numbers.append(parsed)
                bad = ~np.isfinite(parsed) | (parsed < low) | (parsed > high)
                for i in [i for i in np.flatnonzero(bad).tolist() if values[i]]:
                    number = _number(values[i])
                    kind = "not a number" if number is None else "out of range"
                    problems[i].append(f"{column} {values[i]!r} is {kind}")
            for i, store_id in enumerate(text["store_id"]):
                if store_id and store_id in seen:
                    problems[i].append(f"duplicate store id {store_id!r}")
                seen.add(store_id)
            errors.extend(f"line {lines[i]}: {'; '.join(problems[i])}"
                          for i in sorted(problems))
            keep = np.ones(len(lines), dtype=bool)
            keep[list(problems)] = False
            if region is not None:
                dropped_by_region += int(np.count_nonzero(keep & ~inside))
                keep &= inside
            formats = list(map(str.lower, text["format"]))
            if drop:
                dropped = np.fromiter(map(drop.__contains__, formats), bool, len(lines))
                dropped_by_format += int(np.count_nonzero(keep & dropped))
                keep &= ~dropped
            kept = keep.tolist()
            ids.extend(compress(text["store_id"], kept))
            for part, values in zip(parts, numbers):
                part.append(values[keep])
            for part, index, values in zip(parts[3:], strings, (
                    text["chain_id"], text["chain_name"], formats)):
                part.append(_codes(list(compress(values, kept)), index))
    if errors:
        more = len(errors) - MAX_REPORTED_ERRORS
        raise DataError(f"store file {path} has {len(errors)} invalid row(s):\n"
                        + "\n".join(errors[:MAX_REPORTED_ERRORS])
                        + (f"\n... and {more} more" if more > 0 else ""))
    logger.info("loaded %d stores from %s%s", len(ids), path,
                f" ({dropped_by_format} dropped by format filter, "
                f"{dropped_by_region} outside region)"
                if drop or region is not None else "")
    columns = [np.concatenate(part) for part in parts]
    # Free the id set and the blocks before the universe sorts the columns.
    del seen, parts
    return StoreUniverse(_columns=(ids, columns[:3], columns[3:], strings))
