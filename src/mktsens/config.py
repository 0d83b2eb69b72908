"""Run configuration: a strict JSON document mapped onto a frozen dataclass.

Unknown keys are rejected rather than ignored so that a typo in a threshold
name cannot silently fall back to a default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from .errors import ConfigError
from .metrics import MergerSpec, PresumptionRule

DEFAULT_ALWAYS_IN = ("supermarket", "supercenter")
DEFAULT_MARGINAL = ("club", "natural", "limited")
DEFAULT_RADIUS_MILES = 5.0
DEFAULT_SEED = 0
DEFAULT_PERMUTATIONS = 100_000

_RULE_KEYS = {
    "post_hhi_threshold",
    "delta_hhi_threshold",
    "merged_share_threshold",
    "use_share_criterion",
}
_ROUNDING_KEYS = {"sspi", "shares"}
_TOP_KEYS = {
    "merging_chains",
    "always_in_formats",
    "marginal_formats",
    "marginal_firms",
    "rule",
    "radius_miles",
    "region_filter",
    "drop_formats",
    "rounding",
    "seed",
    "permutations",
}


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
    return float(value)


def _integer(value: Any, key: str) -> int:
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        f"{key} must be an integer",
    )
    return value


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
    seed: int = DEFAULT_SEED
    permutations: int = DEFAULT_PERMUTATIONS

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
        _require(self.sspi_decimals >= 0, "rounding decimals must be nonnegative")
        _require(self.share_decimals >= 0, "rounding decimals must be nonnegative")
        _require(self.permutations >= 1, "permutations must be at least 1")
        _require(self.seed >= 0, "seed must be nonnegative")
        _require(
            self.region_filter is None or self.region_filter != "",
            "region_filter must be a nonempty string when given",
        )

    @property
    def merger(self) -> MergerSpec:
        return MergerSpec(self.merging_chains[0], self.merging_chains[1])

    @classmethod
    def from_mapping(cls, doc: Mapping[str, Any]) -> "RunConfig":
        _require(isinstance(doc, Mapping), "configuration must be a JSON object")
        unknown = set(doc) - _TOP_KEYS
        _require(not unknown, f"unknown configuration keys: {sorted(unknown)}")
        _require("merging_chains" in doc, "merging_chains is required")

        merging = _string_items(doc["merging_chains"], "merging_chains")
        _require(len(merging) == 2, "merging_chains must name exactly two chains")

        kwargs: dict[str, Any] = {"merging_chains": (merging[0], merging[1])}
        if "always_in_formats" in doc:
            kwargs["always_in_formats"] = _string_items(
                doc["always_in_formats"], "always_in_formats", lower=True
            )
        if "marginal_formats" in doc:
            kwargs["marginal_formats"] = _string_items(
                doc["marginal_formats"], "marginal_formats", lower=True
            )
        if "marginal_firms" in doc:
            kwargs["marginal_firms"] = _string_items(
                doc["marginal_firms"], "marginal_firms"
            )
        if "rule" in doc:
            kwargs["rule"] = cls._parse_rule(doc["rule"])
        if "radius_miles" in doc:
            kwargs["radius_miles"] = _number(doc["radius_miles"], "radius_miles")
        if "region_filter" in doc:
            region = doc["region_filter"]
            _require(
                region is None or (isinstance(region, str) and region.strip()),
                "region_filter must be a nonempty string or null",
            )
            kwargs["region_filter"] = region.strip() if region else None
        if "drop_formats" in doc:
            kwargs["drop_formats"] = _string_items(
                doc["drop_formats"], "drop_formats", lower=True
            )
        if "rounding" in doc:
            rounding = doc["rounding"]
            _require(
                isinstance(rounding, Mapping), "rounding must be an object"
            )
            unknown = set(rounding) - _ROUNDING_KEYS
            _require(not unknown, f"unknown rounding keys: {sorted(unknown)}")
            if "sspi" in rounding:
                kwargs["sspi_decimals"] = _integer(rounding["sspi"], "rounding.sspi")
            if "shares" in rounding:
                kwargs["share_decimals"] = _integer(
                    rounding["shares"], "rounding.shares"
                )
        if "seed" in doc:
            kwargs["seed"] = _integer(doc["seed"], "seed")
        if "permutations" in doc:
            kwargs["permutations"] = _integer(doc["permutations"], "permutations")
        return cls(**kwargs)

    @staticmethod
    def _parse_rule(raw: Any) -> PresumptionRule:
        _require(isinstance(raw, Mapping), "rule must be an object")
        unknown = set(raw) - _RULE_KEYS
        _require(not unknown, f"unknown rule keys: {sorted(unknown)}")
        kwargs: dict[str, Any] = {}
        for key in (
            "post_hhi_threshold",
            "delta_hhi_threshold",
            "merged_share_threshold",
        ):
            if key in raw:
                kwargs[key] = _number(raw[key], f"rule.{key}")
        if "use_share_criterion" in raw:
            _require(
                isinstance(raw["use_share_criterion"], bool),
                "rule.use_share_criterion must be a boolean",
            )
            kwargs["use_share_criterion"] = raw["use_share_criterion"]
        try:
            return PresumptionRule(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"invalid rule: {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a JSON run configuration."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read configuration {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration {path} is not valid JSON: {exc}") from exc
    try:
        return RunConfig.from_mapping(doc)
    except ValueError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
