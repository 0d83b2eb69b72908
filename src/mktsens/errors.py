"""Exception hierarchy shared across the package.

Every error raised deliberately by mktsens derives from :class:`MktsensError`,
so callers (including the CLI) can map failures to a small set of outcomes:
configuration problems, data problems, and capacity limits.
"""

from __future__ import annotations


class MktsensError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(MktsensError):
    """A run configuration is missing, malformed, or internally inconsistent."""


class DataError(MktsensError):
    """Input data failed validation (bad CSV rows, missing chains, and so on)."""


class CapacityError(MktsensError):
    """A request exceeds the exact-enumeration limits of the implementation."""


class DegenerateMarketError(DataError):
    """A market has zero total sales, so its shares are undefined: a
    :class:`~mktsens.metrics.Market` handed to a share-based metric, or a
    candidate market that an exclusion set leaves empty in a pipeline."""


class OutcomeEvaluationError(MktsensError):
    """A user-supplied outcome function failed or returned inconsistent metrics."""
