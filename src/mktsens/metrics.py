"""Market concentration and merger screening metrics.

A :class:`Market` is a named set of firms with nonnegative sales.  On top of
it this module provides shares, HHI on the 0..10000 scale, merger deltas,
concentration ratios, logit diversion, upward pricing pressure, compensating
marginal cost reductions, and the structural-presumption decision rule.
:func:`merger_outcome_table` evaluates :func:`merger_outcomes` for every
exclusion set of a lattice, over any number of markets at once, bit for bit;
the state, firm and local pipelines all use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, DegenerateMarketError

HHI_SCALE = 10_000.0

# Cells (markets x masks) evaluated together by merger_outcome_table.  It
# bounds the (markets x chains x masks) working arrays, and so peak memory.
OUTCOME_BLOCK = 1024


def _ordered_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum, which merger_outcome_table reproduces
    (the built-in ``sum`` compensates its rounding from Python 3.12)."""
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class Market:
    """Immutable snapshot of firm sales in one candidate market."""

    sales: Mapping[str, float]
    label: str = ""

    def __post_init__(self) -> None:
        cleaned: dict[str, float] = {}
        for firm, value in self.sales.items():
            amount = float(value)
            if not math.isfinite(amount):
                raise DataError(f"firm {firm!r} has non-finite sales {value!r}")
            if amount < 0:
                raise DataError(f"firm {firm!r} has negative sales {value!r}")
            cleaned[firm] = amount
        object.__setattr__(self, "sales", cleaned)

    @property
    def firms(self) -> tuple[str, ...]:
        return tuple(self.sales)

    def total(self) -> float:
        return _ordered_sum(self.sales.values())

    def require(self, firm: str) -> float:
        try:
            return self.sales[firm]
        except KeyError:
            raise DataError(f"firm {firm!r} is not in the market") from None


@dataclass(frozen=True)
class MergerSpec:
    """The two merging firms, by identifier."""

    acquirer: str
    target: str

    def __post_init__(self) -> None:
        if not self.acquirer or not self.target:
            raise ValueError("merging firm identifiers must be nonempty")
        if self.acquirer == self.target:
            raise ValueError("a firm cannot merge with itself")


@dataclass(frozen=True)
class PresumptionRule:
    """Structural presumption thresholds (all comparisons strict)."""

    post_hhi_threshold: float = 1800.0
    delta_hhi_threshold: float = 100.0
    merged_share_threshold: float = 0.30
    use_share_criterion: bool = False

    def __post_init__(self) -> None:
        # Written so that NaN, which no HHI ever exceeds, fails too.
        if not (self.post_hhi_threshold >= 0 and self.delta_hhi_threshold >= 0):
            raise ValueError("HHI thresholds must be nonnegative numbers")
        if not 0 < self.merged_share_threshold <= 1:
            raise ValueError("merged share threshold must lie in (0, 1]")


@dataclass(frozen=True)
class MarginData:
    """Per-firm prices and marginal costs for pricing-pressure metrics."""

    prices: Mapping[str, float]
    marginal_costs: Mapping[str, float]

    def __post_init__(self) -> None:
        if set(self.prices) != set(self.marginal_costs):
            raise ValueError("prices and marginal costs must cover the same firms")
        prices = dict(self.prices)
        costs = dict(self.marginal_costs)
        for firm, price in prices.items():
            if price <= 0:
                raise ValueError(f"firm {firm!r}: price must be positive")
            if not 0 <= costs[firm] <= price:
                raise ValueError(
                    f"firm {firm!r}: marginal cost must lie in [0, price]"
                )
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "marginal_costs", costs)

    def price(self, firm: str) -> float:
        try:
            return self.prices[firm]
        except KeyError:
            raise DataError(f"no margin data for firm {firm!r}") from None

    def cost(self, firm: str) -> float:
        self.price(firm)
        return self.marginal_costs[firm]

    def margin(self, firm: str) -> float:
        """Percentage margin (p - c) / p, in [0, 1]."""
        price = self.price(firm)
        return (price - self.marginal_costs[firm]) / price


def shares(m: Market) -> dict[str, float]:
    """Sales shares summing to 1; raises on an all-zero market."""
    total = m.total()
    if total <= 0:
        raise DegenerateMarketError(
            f"market {m.label!r} has zero total sales; shares are undefined"
        )
    return {firm: value / total for firm, value in m.sales.items()}


def hhi(m: Market) -> float:
    """Herfindahl-Hirschman index, 0..10000."""
    return HHI_SCALE * sum(s * s for s in shares(m).values())


def merge_firms(m: Market, g: MergerSpec, merged_id: str | None = None) -> Market:
    """Market with the two merging firms combined into one entity."""
    a = m.require(g.acquirer)
    b = m.require(g.target)
    merged = merged_id or f"{g.acquirer}+{g.target}"
    sales = {f: v for f, v in m.sales.items() if f not in (g.acquirer, g.target)}
    if merged in sales:
        raise DataError(f"merged identifier {merged!r} collides with an existing firm")
    sales[merged] = a + b
    return Market(sales, m.label)


def post_merger_hhi(m: Market, g: MergerSpec) -> float:
    """HHI after combining the merging firms' sales."""
    return hhi(merge_firms(m, g))


def delta_hhi(m: Market, g: MergerSpec) -> float:
    """Merger-induced HHI change, 2 * s_a * s_b on the 10000 scale."""
    m.require(g.acquirer)
    m.require(g.target)
    s = shares(m)
    return HHI_SCALE * 2.0 * s[g.acquirer] * s[g.target]


def concentration_ratio(m: Market, firms: Iterable[str]) -> float:
    """Combined share of ``firms``; unknown firms raise."""
    group = list(firms)
    if len(set(group)) != len(group):
        raise ValueError("concentration-ratio firm list contains duplicates")
    s = shares(m)
    total = 0.0
    for firm in group:
        m.require(firm)
        total += s[firm]
    return total


def diversion_ratio(m: Market, from_firm: str, to_firm: str) -> float:
    """Logit-proportional diversion s_k / (1 - s_j)."""
    if from_firm == to_firm:
        raise ValueError("diversion requires two distinct firms")
    m.require(from_firm)
    m.require(to_firm)
    s = shares(m)
    denom = 1.0 - s[from_firm]
    if denom <= 0:
        raise DegenerateMarketError(
            f"firm {from_firm!r} holds the entire market; diversion is undefined"
        )
    return s[to_firm] / denom


def upp(m: Market, md: MarginData, j: str, k: str) -> float:
    """Gross upward pricing pressure on firm j from merging with k.

    The absolute margin recaptured on the partner: (p_k - c_k) * D(j -> k).
    No efficiency credit is netted out.
    """
    d_jk = diversion_ratio(m, j, k)
    return (md.price(k) - md.cost(k)) * d_jk


def cmcr(m: Market, md: MarginData, j: str, k: str) -> float:
    """Compensating marginal cost reduction for firm j merging with k.

    With m_j, m_k percentage margins, D_jk and D_kj the two diversion ratios
    and p_k / p_j the price ratio, the reduction (as a fraction of j's
    pre-merger marginal cost base) is

        (m_j * D_jk * D_kj + m_k * D_jk * (p_k / p_j))
        / ((1 - m_j) * (1 - D_jk * D_kj))
    """
    d_jk = diversion_ratio(m, j, k)
    d_kj = diversion_ratio(m, k, j)
    cross = d_jk * d_kj
    if cross >= 1.0:
        raise DegenerateMarketError(
            "diversion product is >= 1; compensating reductions are unbounded"
        )
    m_j = md.margin(j)
    m_k = md.margin(k)
    if m_j >= 1.0:
        raise DegenerateMarketError(
            f"firm {j!r} has a 100% margin; the reduction is unbounded"
        )
    numer = m_j * cross + m_k * d_jk * (md.price(k) / md.price(j))
    return numer / ((1.0 - m_j) * (1.0 - cross))


def exclude(m: Market, labels: Iterable[str], protected: Iterable[str] = ()) -> Market:
    """Market with ``labels`` removed; unknown labels raise.

    ``protected`` members (merging parties, always-in firms) cannot be
    excluded; naming one is an error rather than a silent no-op.
    """
    keep = set(protected)
    drop = set()
    for label in labels:
        m.require(label)
        if label in keep:
            raise DataError(f"firm {label!r} is protected and cannot be excluded")
        drop.add(label)
    return Market({f: v for f, v in m.sales.items() if f not in drop}, m.label)


def presumption(
    post_hhi_value: float | np.ndarray,
    d_hhi: float | np.ndarray,
    merged_share: float | np.ndarray | None = None,
    rule: PresumptionRule = PresumptionRule(),
) -> bool | np.ndarray:
    """Structural presumption test.

    Triggers when post-merger HHI and the delta both strictly exceed their
    thresholds, or (only when the rule enables it and a share is supplied)
    when the merged share strictly exceeds its threshold alongside the delta.
    Takes floats and returns a bool, or equal-length arrays and returns a
    boolean array.
    """
    delta_over = d_hhi > rule.delta_hhi_threshold
    flagged = (post_hhi_value > rule.post_hhi_threshold) & delta_over
    if rule.use_share_criterion and merged_share is not None:
        flagged = flagged | (
            (merged_share > rule.merged_share_threshold) & delta_over
        )
    return flagged


def merger_outcomes(m: Market, g: MergerSpec) -> tuple[float, float, float]:
    """(post-merger HHI, delta HHI, merged share) for one candidate market.

    Merging firms absent from the market are treated as zero-sales entrants,
    so a candidate market that excludes one party entirely still evaluates.
    """
    s = shares(m)
    sa = s.get(g.acquirer, 0.0)
    sb = s.get(g.target, 0.0)
    base = HHI_SCALE * _ordered_sum(v * v for v in s.values())
    post = base - HHI_SCALE * (sa * sa + sb * sb) + HHI_SCALE * (sa + sb) ** 2
    delta = HHI_SCALE * 2.0 * sa * sb
    return post, delta, sa + sb


def _by_position(per_market: list[Sequence], fill) -> np.ndarray:
    """(longest × markets) array whose row k holds item k of each market's
    sequence, or ``fill`` where that sequence is shorter."""
    out = np.full((max(map(len, per_market)), len(per_market)), fill)
    for market, items in enumerate(per_market):
        out[:len(items), market] = items
    return out


def merger_outcome_table(
    markets: Sequence[Sequence[tuple[str, int, float]]], n: int, g: MergerSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Post HHI, delta HHI and merged share of each market under all 2^n
    exclusion masks, as three (markets × 2^n) arrays.

    Each market lists ``(chain_id, bit, revenue)`` entries in market order.
    Mask ``m`` keeps every entry whose bit is not set in ``m``; ``bit = -1``
    is never excluded.  Cell ``[i, m]`` equals, bit for bit, what
    :func:`merger_outcomes` returns on the market that sums market ``i``'s
    kept entries by chain in entry order.  To be exact the table repeats that
    path's floating-point steps: it adds every entry's revenue times 0.0 or
    1.0 in entry order (adding 0.0 is exact), sums totals and squared shares
    left to right in the order of each chain's first kept entry (that
    market's dict order), and squares the merged share with Python's float
    power, which differs from ``x * x`` in the last bit for some inputs.  A
    mask whose market has no sales reads NaN in all three arrays, where
    :func:`merger_outcomes` raises.  Markets are evaluated side by side, one
    entry position at a time.
    """
    count, size = len(markets), 1 << n
    post, delta, share = (np.empty((count, size)) for _ in range(3))
    if not count:
        return post, delta, share
    chains, bits, revenues, firsts, parties, width = [], [], [], [], [], 0
    for market in markets:
        chain, bit, revenue = zip(*market) if market else ((), (), ())
        if bit and not -1 <= min(bit) <= max(bit) < n:
            bad = next(b for b in bit if not -1 <= b < n)
            raise ValueError(f"entry bit {bad} out of range for width {n}")
        columns = {c: i for i, c in enumerate(dict.fromkeys(chain))}
        chains.append(list(map(columns.__getitem__, chain)))
        bits.append(bit)
        revenues.append(list(map(float, revenue)))
        # Walking the entries backwards leaves each (column, bit) pair with
        # the index of its first entry.
        firsts.append(dict(zip(zip(chains[-1][::-1], bit[::-1]),
                               range(len(bit) - 1, -1, -1))))
        # A merging chain with no entries reads the all-zero row past the
        # market's chains.
        parties.append((columns.get(g.acquirer, len(columns)),
                        columns.get(g.target, len(columns))))
        width = max(width, len(columns))
    rows = width + 1
    absent = max(map(len, markets))
    every = np.arange(count)
    # Index of the first entry of each (chain row, market) with bit b, in
    # column b (bit -1 is the last column), or ``absent``; then, per bit,
    # the cells that hold one.
    first_of = np.full((rows, count, n + 1), absent)
    for market, pairs in enumerate(firsts):
        first_of[[c for c, _ in pairs], market,
                 [b for _, b in pairs]] = list(pairs.values())
    holders = []
    for bit in range(-1, n):
        held = np.nonzero(first_of[..., bit] < absent)
        if held[0].size:
            holders.append((held, first_of[..., bit][held][:, None], bit))
    acquirer, target = np.array(parties).T
    # Step k adds entry k of every market at its (chain row, market) cell.
    if count == 1:
        # Python scalars keep each step of a lone market basic indexing.
        adds = [((row, 0), value, bit)
                for row, value, bit in zip(chains[0], revenues[0], bits[0])]
    else:
        # A shorter market adds 0.0 to its last row, which no chain uses.
        adds = [((row, every), value, bit) for row, value, bit in zip(
            _by_position(chains, rows - 1),
            _by_position(revenues, 0.0)[:, :, None],
            _by_position(bits, -1),
        )]
    shifts = np.arange(n)[:, None]
    step = max(1, OUTCOME_BLOCK // count)
    for start in range(0, size, step):
        masks = np.arange(start, min(start + step, size))
        # Row b says whether bit b's entries are kept; the last row serves
        # bit -1 and is all ones.
        kept = np.ones((n + 1, masks.size))
        kept[:n] = (masks >> shifts) & 1 == 0
        sales = np.zeros((rows, count, masks.size))
        for row, value, bit in adds:
            sales[row] += value * kept[bit]
        first = np.full(sales.shape, absent)
        for held, index, bit in holders:
            first[held] = np.minimum(first[held],
                                     np.where(kept[bit] > 0, index, absent))
        # Every (market, mask) pair is one column of chain rows.
        grid = (rows, count * masks.size)
        order = np.argsort(first.reshape(grid), axis=0, kind="stable")
        total = np.cumsum(np.take_along_axis(sales.reshape(grid), order,
                                             axis=0), axis=0)[-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = sales.reshape(grid) / total
        squares = np.take_along_axis(s * s, order, axis=0)
        base = HHI_SCALE * np.cumsum(squares, axis=0)[-1].reshape(count, -1)
        s = s.reshape(sales.shape)
        sa = s[acquirer, every]
        sb = s[target, every]
        merged = sa + sb
        merged_squared = np.array(
            [v ** 2 for v in merged.ravel().tolist()]
        ).reshape(merged.shape)
        block = slice(start, start + masks.size)
        post[:, block] = (
            base - HHI_SCALE * (sa * sa + sb * sb) + HHI_SCALE * merged_squared
        )
        delta[:, block] = HHI_SCALE * 2.0 * sa * sb
        share[:, block] = merged
    return post, delta, share
