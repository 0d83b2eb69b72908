"""Run configuration: a strict JSON document mapped onto a frozen dataclass.

Each JSON object (the top level, ``rule`` and ``rounding``) is read through
one table of key readers.  A key without a reader, or given twice, is rejected
rather than ignored, so that a typo cannot silently fall back to a default.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Mapping

from .errors import ConfigError
from .metrics import MergerSpec, PresumptionRule

DEFAULT_ALWAYS_IN = ("supermarket", "supercenter")
DEFAULT_MARGINAL = ("club", "natural", "limited")
DEFAULT_RADIUS_MILES = 5.0

def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _string_items(value: Any, key: str, *, lower: bool = False) -> tuple[str, ...]:
    _require(isinstance(value, list), f"{key} must be a list of strings")
    items = []
    for entry in value:
        _require(
            isinstance(entry, str) and entry.strip() != "",
            f"{key} entries must be nonempty strings",
        )
        text = entry.strip()
        items.append(text.lower() if lower else text)
    _require(len(set(items)) == len(items), f"{key} entries must be distinct")
    return tuple(items)


def _number(value: Any, key: str) -> float:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{key} must be a number",
    )
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{key} is too large for a float") from None
    # json reads NaN, Infinity and 1e400 (as inf); no report prints them as JSON.
    _require(math.isfinite(number), f"{key} must be a finite number")
    return number


def _integer(value: Any, key: str) -> int:
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        f"{key} must be an integer",
    )
    return value


def _read(doc: Any, what: str,
          readers: Mapping[str, Callable[[Any], dict[str, Any]]], *,
          kind: str = "an object", required: tuple[str, ...] = ()) -> dict[str, Any]:
    """Refuse a ``doc`` that is not an object, then keys without a reader,
    then a missing ``required`` key; then map each key present, in the order
    of ``readers``, through its reader to the fields it sets, and return them."""
    _require(isinstance(doc, Mapping), f"{what} must be {kind}")
    unknown = set(doc) - set(readers)
    _require(not unknown, f"unknown {what} keys: {sorted(unknown)}")
    for key in required:
        _require(key in doc, f"{key} is required")
    fields: dict[str, Any] = {}
    for key, read in readers.items():
        if key in doc:
            fields.update(read(doc[key]))
    return fields


@dataclass(frozen=True)
class RunConfig:
    """Validated settings shared by the state, firm, and local pipelines."""

    merging_chains: tuple[str, str]
    always_in_formats: tuple[str, ...] = DEFAULT_ALWAYS_IN
    marginal_formats: tuple[str, ...] = DEFAULT_MARGINAL
    marginal_firms: tuple[str, ...] = ()
    rule: PresumptionRule = field(default_factory=PresumptionRule)
    radius_miles: float = DEFAULT_RADIUS_MILES
    region_filter: str | None = None
    drop_formats: tuple[str, ...] = ()
    sspi_decimals: int = 3
    share_decimals: int = 3

    def __post_init__(self) -> None:
        _require(
            len(self.merging_chains) == 2
            and all(isinstance(c, str) and c for c in self.merging_chains)
            and self.merging_chains[0] != self.merging_chains[1],
            "merging_chains must name two distinct chains",
        )
        overlap = set(self.always_in_formats) & set(self.marginal_formats)
        _require(
            not overlap,
            f"formats cannot be both always-in and marginal: {sorted(overlap)}",
        )
        _require(
            not set(self.marginal_firms) & set(self.merging_chains),
            "merging chains cannot appear in marginal_firms",
        )
        _require(self.radius_miles >= 0, "radius_miles must be nonnegative")
        _require(math.isfinite(self.radius_miles), "radius_miles must be finite")
        _require(self.sspi_decimals >= 0, "rounding decimals must be nonnegative")
        _require(self.share_decimals >= 0, "rounding decimals must be nonnegative")
        # 324 places print every digit of any float's str, down to 5e-324.
        _require(max(self.sspi_decimals, self.share_decimals) <= 324,
                 "rounding decimals must be at most 324")
        _require(
            self.region_filter is None or self.region_filter != "",
            "region_filter must be a nonempty string when given",
        )

    @property
    def merger(self) -> MergerSpec:
        return MergerSpec(self.merging_chains[0], self.merging_chains[1])

    @classmethod
    def from_mapping(cls, doc: Mapping[str, Any]) -> "RunConfig":
        """Read a parsed JSON document; ConfigError names its first fault."""
        def read(check: Callable[[Any, str], Any], name: str,
                 into: str | None = None) -> Callable[[Any], dict[str, Any]]:
            # The field defaults to the key, the last part of the dotted name.
            return lambda value: {into or name.rpartition(".")[2]: check(value, name)}

        formats = partial(_string_items, lower=True)

        def merging_chains(value: Any) -> dict[str, Any]:
            merging = _string_items(value, "merging_chains")
            _require(len(merging) == 2, "merging_chains must name exactly two chains")
            return {"merging_chains": (merging[0], merging[1])}

        def use_share_criterion(value: Any) -> dict[str, Any]:
            _require(isinstance(value, bool),
                     "rule.use_share_criterion must be a boolean")
            return {"use_share_criterion": value}

        def rule(value: Any) -> dict[str, Any]:
            fields = _read(value, "rule", {
                "post_hhi_threshold": read(_number, "rule.post_hhi_threshold"),
                "delta_hhi_threshold": read(_number, "rule.delta_hhi_threshold"),
                "merged_share_threshold": read(_number, "rule.merged_share_threshold"),
                "use_share_criterion": use_share_criterion,
            })
            try:
                return {"rule": PresumptionRule(**fields)}
            except ValueError as exc:
                raise ConfigError(f"invalid rule: {exc}") from exc

        def region_filter(value: Any) -> dict[str, Any]:
            _require(value is None or (isinstance(value, str) and value.strip()),
                     "region_filter must be a nonempty string or null")
            return {"region_filter": value.strip() if value else None}

        return cls(**_read(doc, "configuration", {
            "merging_chains": merging_chains,
            "always_in_formats": read(formats, "always_in_formats"),
            "marginal_formats": read(formats, "marginal_formats"),
            "marginal_firms": read(_string_items, "marginal_firms"),
            "rule": rule,
            "radius_miles": read(_number, "radius_miles"),
            "region_filter": region_filter,
            "drop_formats": read(formats, "drop_formats"),
            "rounding": lambda value: _read(value, "rounding", {
                "sspi": read(_integer, "rounding.sspi", "sspi_decimals"),
                "shares": read(_integer, "rounding.shares", "share_decimals"),
            }),
        }, kind="a JSON object", required=("merging_chains",)))


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object from its key-value pairs; a key given twice is refused."""
    counts = Counter(key for key, _ in pairs)
    twice = sorted(key for key, count in counts.items() if count > 1)
    _require(not twice, f"configuration keys given more than once: {twice}")
    return dict(pairs)


def _parse_int(text: str) -> int:
    # Python 3.11's int() refuses more digits than this; so does every version.
    if len(text.lstrip("-")) > 4300:
        raise ValueError("an integer has more than 4300 digits")
    return int(text)


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a JSON run configuration."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read configuration {path}: {exc}") from exc
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys,
                         parse_int=_parse_int)
    except (ValueError, RecursionError) as exc:
        # Bad syntax, an integer of too many digits, or nesting too deep.
        raise ConfigError(f"configuration {path} is not valid JSON: {exc}") from exc
    return RunConfig.from_mapping(doc)
