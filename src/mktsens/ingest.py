"""Store-level CSV ingestion with row-addressed validation.

The reader is strict: every malformed row is collected with its line number
and reported in a single error, rather than failing on the first problem or
silently skipping bad data.  Filters (region, dropped formats) apply after
validation, so a filtered-out row must still be well formed.
"""

from __future__ import annotations

import csv
import logging
import math
from pathlib import Path

from .errors import DataError
from .geomarket import Store, StoreUniverse

logger = logging.getLogger(__name__)

REQUIRED_COLUMNS = (
    "store_id",
    "chain_id",
    "chain_name",
    "format",
    "latitude",
    "longitude",
    "revenue",
)
REGION_COLUMN = "region"
MAX_REPORTED_ERRORS = 20


def _clean(raw: object) -> str | None:
    if raw is None:
        return None
    return str(raw).strip()


def load_stores(
    path: str | Path,
    drop_formats: tuple[str, ...] = (),
    region: str | None = None,
) -> StoreUniverse:
    """Read a store CSV into a :class:`StoreUniverse`.

    Required columns: store_id, chain_id, chain_name, format, latitude,
    longitude, revenue.  Extra columns are ignored.  Formats are lowercased;
    a ``region`` argument keeps only rows whose ``region`` column matches and
    requires that column to exist.  All validation failures are reported
    together, each with its source line number.  Local analysis centres its
    circles on the stores of the run's merging chains.
    """
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read store file {path}: {exc}") from exc
    errors: list[str] = []
    stores: list[Store] = []
    seen: set[str] = set()
    dropped_by_format = 0
    dropped_by_region = 0
    drop = {f.strip().lower() for f in drop_formats}
    with handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames
        if header is None:
            raise DataError(f"store file {path} is empty")
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise DataError(
                f"store file {path} is missing required columns: "
                f"{', '.join(missing)}"
            )
        if region is not None and REGION_COLUMN not in header:
            raise DataError(
                f"store file {path} has no {REGION_COLUMN!r} column "
                "but a region filter was requested"
            )
        for row in reader:
            line = reader.line_num
            problems: list[str] = []
            text: dict[str, str] = {}
            for column in REQUIRED_COLUMNS:
                value = _clean(row.get(column))
                if value is None or value == "":
                    problems.append(f"missing {column}")
                else:
                    text[column] = value
            numbers: dict[str, float] = {}
            for column, low, high in (
                ("latitude", -90.0, 90.0),
                ("longitude", -180.0, 180.0),
                ("revenue", 0.0, math.inf),
            ):
                value = text.get(column)
                if value is None:
                    continue
                try:
                    parsed = float(value)
                except ValueError:
                    problems.append(f"{column} {value!r} is not a number")
                    continue
                if not math.isfinite(parsed) or not low <= parsed <= high:
                    problems.append(f"{column} {value!r} is out of range")
                else:
                    numbers[column] = parsed
            store_id = text.get("store_id")
            if store_id is not None:
                if store_id in seen:
                    problems.append(f"duplicate store id {store_id!r}")
                else:
                    seen.add(store_id)
            if problems:
                errors.append(f"line {line}: {'; '.join(problems)}")
                continue
            if region is not None and _clean(row.get(REGION_COLUMN)) != region:
                dropped_by_region += 1
                continue
            store_format = text["format"].lower()
            if store_format in drop:
                dropped_by_format += 1
                continue
            stores.append(
                Store(
                    store_id=text["store_id"],
                    chain_id=text["chain_id"],
                    chain_name=text["chain_name"],
                    format=store_format,
                    latitude=numbers["latitude"],
                    longitude=numbers["longitude"],
                    revenue=numbers["revenue"],
                )
            )
    if errors:
        shown = errors[:MAX_REPORTED_ERRORS]
        suffix = (
            f"\n... and {len(errors) - len(shown)} more"
            if len(errors) > len(shown)
            else ""
        )
        raise DataError(
            f"store file {path} has {len(errors)} invalid row(s):\n"
            + "\n".join(shown)
            + suffix
        )
    if drop or region is not None:
        logger.info(
            "loaded %d stores from %s (%d dropped by format filter, "
            "%d outside region)",
            len(stores), path, dropped_by_format, dropped_by_region,
        )
    else:
        logger.info("loaded %d stores from %s", len(stores), path)
    return StoreUniverse(tuple(stores))
