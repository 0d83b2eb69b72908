"""Exact and Monte Carlo Shapley attribution, plus power indices.

A coalitional game is a table of the worth v(S) of every subset of n
players, indexed by bitmask, with v(empty) = 0; a user function fills it for
n <= 24 through :func:`mktsens.lattice.evaluate_subsets`.  Exact Shapley
values use the factorial-weighted subset sum over that table.  The sampled
estimator averages marginal contributions over random player permutations
and reports a standard error per player.  Simple (win/lose) games get exact
Shapley-Shubik power indices for every n <= 24: pivot counts and factorial
weights stay integers, and only the final ratio is rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import CapacityError
from .lattice import (
    EXACT_ENUMERATION_MAX,
    ExclusionSet,
    evaluate_subsets,
    subset_sizes,
)
from .metrics import _ordered_sum

OutcomeScalarFn = Callable[[ExclusionSet], float]
OutcomeVectorFn = Callable[[ExclusionSet], Mapping[str, float]]
RuleFn = Callable[[Mapping[str, float]], bool]


@dataclass(frozen=True, eq=False)
class CoalitionalGame:
    """Characteristic function over n players as a 2^n table indexed by mask."""

    n: int
    table: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("player count must be nonnegative")
        if self.table.shape != (1 << self.n,):
            raise ValueError("table size must be 2^n")
        if self.table[0] != 0.0:
            raise ValueError("v(empty) must be exactly zero")

    @classmethod
    def from_table(cls, values: Sequence[float]) -> "CoalitionalGame":
        arr = np.array(values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0 or arr.size & (arr.size - 1):
            raise ValueError("table length must be a positive power of two")
        arr.flags.writeable = False
        return cls(n=arr.size.bit_length() - 1, table=arr)

    def value_of_mask(self, mask: int) -> float:
        if not 0 <= mask < (1 << self.n):
            raise ValueError(f"mask {mask} out of range for {self.n} players")
        return float(self.table[mask])

    def value(self, subset: ExclusionSet) -> float:
        if subset.n != self.n:
            raise ValueError("subset width does not match the game")
        return self.value_of_mask(subset.bits)


def characteristic_from_outcome(f: OutcomeScalarFn, n: int) -> CoalitionalGame:
    """Game with v(S) = f(S) - f(empty), pinned to v(empty) = 0 exactly.

    ``f`` runs once per subset; n is capped at 24 (CapacityError beyond).
    """
    outcomes = evaluate_subsets(n, lambda s: float(f(s)), "outcome function")
    table = np.array(outcomes, dtype=np.float64)
    table -= table[0]
    table[0] = 0.0
    table.flags.writeable = False
    return CoalitionalGame(n=n, table=table)


@dataclass(frozen=True)
class ShapleyResult:
    """Per-player attribution with bookkeeping for how it was computed.

    ``shares`` divides each value by the value total and is absent (None)
    when that total is zero, never NaN.
    """

    values: tuple[float, ...]
    grand_value: float
    shares: tuple[float, ...] | None
    mode: str
    std_errors: tuple[float, ...] | None = None
    permutations_used: int | None = None
    seed: int | None = None

    @property
    def efficiency_residual(self) -> float:
        """Sum of values minus the grand-coalition worth."""
        return _ordered_sum(self.values) - self.grand_value


def _marginal_gains(
    table: np.ndarray, n: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per player i, yield (|S|, v(S + i) - v(S)) for every S without i,
    as two arrays in bitmask order.

    Viewed as (-1, 2, 2^i), a table indexed by mask holds the rows without
    bit i at [:, 0] and the rows with it at [:, 1], both in mask order.
    """
    sizes = subset_sizes(n)
    for i in range(n):
        pairs = table.reshape(-1, 2, 1 << i)
        yield (sizes.reshape(-1, 2, 1 << i)[:, 0].ravel(),
               (pairs[:, 1] - pairs[:, 0]).ravel())


def _result(values: Sequence[float], grand: float, mode: str,
            std_errors: tuple[float, ...] | None = None,
            permutations: int | None = None,
            seed: int | None = None) -> ShapleyResult:
    vals = tuple(float(v) for v in values)
    total = _ordered_sum(vals)
    shares = None if total == 0.0 else tuple(v / total for v in vals)
    return ShapleyResult(vals, float(grand), shares, mode,
                         std_errors, permutations, seed)


def shapley_exact(game: CoalitionalGame) -> ShapleyResult:
    """Exact Shapley values by factorial-weighted subset summation: one
    ``np.dot`` per player.  mktsens pins OpenBLAS to one thread by default, so
    the rounding depends on the numpy and BLAS build, not on the core count."""
    n = game.n
    fact = [math.factorial(k) for k in range(n + 1)]
    weights = np.array(
        [float(Fraction(fact[k] * fact[n - 1 - k], fact[n])) for k in range(n)],
        dtype=np.float64,
    )
    values = [
        float(np.dot(weights[sizes], gains))
        for sizes, gains in _marginal_gains(game.table, n)
    ]
    return _result(values, float(game.table[-1]), "exact")


def shapley_sampled(
    game: CoalitionalGame, permutations: int, seed: int
) -> ShapleyResult:
    """Permutation-sampling Shapley estimate with per-player standard errors.

    Draws ``permutations`` uniform player orders from a seeded generator and
    averages each player's marginal contribution; identical inputs and seed
    reproduce the estimate bit for bit.  Standard errors use the sample
    standard deviation (ddof=1) over permutations and are zero when only one
    permutation is drawn.  More than 2^24 permutation-player cells raise
    :class:`CapacityError` before anything is drawn.
    """
    if permutations < 1:
        raise ValueError("permutation count must be at least 1")
    n = game.n
    # Each draw takes a row of every (permutations × n) working array: no
    # more cells than the largest exact game table has.
    if permutations * n > 1 << EXACT_ENUMERATION_MAX:
        raise CapacityError(
            f"{permutations} permutations of {n} players exceed the "
            f"2^{EXACT_ENUMERATION_MAX} cells of sampling's working arrays")
    if n == 0:
        return _result((), 0.0, "sampled", (), permutations, seed)
    rng = np.random.default_rng(seed)
    base = np.tile(np.arange(n, dtype=np.int64), (permutations, 1))
    perms = rng.permuted(base, axis=1)
    powers = np.int64(1) << np.arange(n, dtype=np.int64)
    prefixes = np.cumsum(powers[perms], axis=1)
    worths = game.table[prefixes]
    marginals = np.empty_like(worths)
    marginals[:, 0] = worths[:, 0]
    marginals[:, 1:] = np.diff(worths, axis=1)
    samples = np.empty((permutations, n), dtype=np.float64)
    np.put_along_axis(samples, perms, marginals, axis=1)
    grand = float(game.table[-1])
    means = samples.mean(axis=0)
    if permutations > 1:
        errors = samples.std(axis=0, ddof=1) / math.sqrt(permutations)
    else:
        errors = np.zeros(n, dtype=np.float64)
    return _result(
        means, grand, "sampled",
        tuple(float(e) for e in errors), permutations, seed,
    )


@dataclass(frozen=True, eq=False)
class SimpleGame:
    """A win/lose coalitional game stored as a 0/1 table indexed by mask."""

    n: int
    wins: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("player count must be nonnegative")
        if self.n > EXACT_ENUMERATION_MAX:
            raise CapacityError(
                f"simple games support at most {EXACT_ENUMERATION_MAX} players"
            )
        if self.wins.shape != (1 << self.n,):
            raise ValueError("wins table size must be 2^n")
        if not ((self.wins == 0) | (self.wins == 1)).all():
            raise ValueError("wins table entries must be 0 or 1")

    @property
    def degenerate_at_origin(self) -> bool:
        """True when the empty coalition already wins."""
        return bool(self.wins[0])

    @property
    def constant(self) -> bool:
        """True when every coalition has the same outcome."""
        return bool((self.wins == self.wins[0]).all())

    def win(self, subset: ExclusionSet) -> bool:
        if subset.n != self.n:
            raise ValueError("subset width does not match the game")
        return bool(self.wins[subset.bits])


def simple_game_from_rule(f: OutcomeVectorFn, rule: RuleFn, n: int) -> SimpleGame:
    """Evaluate an outcome function and a decision rule over every subset."""
    wins = np.array(
        evaluate_subsets(n, lambda s: 1 if rule(dict(f(s))) else 0,
                         "rule evaluation"),
        dtype=np.uint8,
    )
    wins.flags.writeable = False
    return SimpleGame(n=n, wins=wins)


def sspi(game: SimpleGame) -> tuple[float, ...]:
    """Shapley-Shubik power index per player, exact for every n <= 24.

    Each player's pivots are counted per coalition size k, weighted by
    k!(n-1-k)! in integers and divided by n! as an exact fraction, so an
    index like 1/21 comes out as the correctly rounded float.  Degenerate games (empty coalition
    winning, or no winning coalition at all) still return the Shapley
    values of the 0/1 game, which then sum to v(N) - v(empty) rather than 1.
    """
    n = game.n
    fact = [math.factorial(k) for k in range(n + 1)]
    out = []
    # Pivots are -1, 0 or 1, so int8 holds every difference of wins.
    for sizes, pivots in _marginal_gains(game.wins.astype(np.int8), n):
        # The -1, 0 and +1 pivots of coalitions of each size k, at 3k to 3k + 2.
        counts = np.bincount(sizes * np.int16(3) + pivots + np.int16(1),
                             minlength=3 * n).reshape(n, 3).tolist()
        numerator = sum((plus - minus) * fact[k] * fact[n - 1 - k]
                        for k, (minus, _, plus) in enumerate(counts))
        out.append(float(Fraction(numerator, fact[n])))
    return tuple(out)
