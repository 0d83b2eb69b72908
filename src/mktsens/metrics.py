"""Market concentration and merger screening metrics.

A :class:`Market` is a named set of firms with nonnegative sales.  On top of
it this module provides shares, HHI on the 0..10000 scale, merger deltas,
concentration ratios, logit diversion, upward pricing pressure, compensating
marginal cost reductions, and the structural-presumption decision rule.
:func:`merger_outcome_blocks` evaluates :func:`merger_outcomes` for every
exclusion set of a lattice, over any number of markets at once, bit for bit,
a block of masks at a time.  :func:`presumption_flags` turns those blocks
into presumption flags: it is the one step from outcomes to flags of the
state, firm and local pipelines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DataError, DegenerateMarketError
from .lattice import MarginalSet, first_marked, subset_label

HHI_SCALE = 10_000.0

# Cells (markets x masks) in each block of merger_outcome_blocks.  It bounds
# the blocks and a lone market's (chains x masks) working arrays, and so
# peak memory.
OUTCOME_BLOCK = 1024
# Cells of the per-chain tables that merger_outcome_blocks folds a lone
# market's entries into, which bounds their memory.
TABLE_CELLS = 1 << 23


def _ordered_sum(values: Iterable) -> float | np.ndarray:
    """Left-to-right float sum (the built-in ``sum`` compensates its rounding
    from Python 3.12).  On an array it adds the rows along the first axis,
    cell by cell in the same order, where ``np.sum`` may add pairwise; that
    is how merger_outcome_blocks reproduces the scalar sums for a lone
    market (several take ``np.bincount``, which adds in order too)."""
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
        if math.inf in (self.post_hhi_threshold, self.delta_hhi_threshold):
            raise ValueError("HHI thresholds must be finite")
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
    if total == math.inf:
        raise DataError(f"market {m.label!r} has total sales too large for a float")
    return {firm: value / total for firm, value in m.sales.items()}


def hhi(m: Market) -> float:
    """Herfindahl-Hirschman index, 0..10000."""
    return HHI_SCALE * _ordered_sum(s * s for s in shares(m).values())


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


def merger_outcome_blocks(
    chain: np.ndarray, bit: np.ndarray, revenue: np.ndarray,
    sizes: Sequence[int], n: int, parties: Sequence[int],
) -> Iterator[tuple[slice, np.ndarray]]:
    """Post HHI, delta HHI and merged share of each market under the 2^n
    exclusion masks: yields each block's slice of masks, in mask order, and
    its (markets × block × 3) outcomes.

    The markets are consecutive runs, of the given ``sizes``, of three
    equal-length columns: each entry's int chain code, bit and revenue.
    ``parties`` are the acquirer's and the target's codes; codes are labels
    only.  Mask ``m`` keeps every entry whose bit is not set in ``m``;
    ``bit = -1`` is never excluded.  Cell ``[i, m]`` equals, bit for bit, what
    :func:`merger_outcomes` returns on the market that sums market ``i``'s
    kept entries by chain in entry order.  To be exact the table repeats that
    path's floating-point steps: it adds the kept entries' revenues in entry
    order, sums totals and squared shares left to right in the order of each
    chain's first kept entry (that market's dict order), and squares the
    merged share with Python's float power, which differs from ``x * x`` in
    the last bit for some inputs.  A mask whose market has no sales reads NaN
    in all three outcomes, where :func:`merger_outcomes` raises; a total that
    overflows raises :class:`DataError`, as :func:`merger_outcomes` does.
    Revenues must be finite.

    A lone market folds each chain's entries once, in entry order, into a
    table with a lane for each pattern of the chain's own bits, adding each
    revenue to the lanes where its bit is kept, and each block reads its
    sales from there.  The tables hold at most ``TABLE_CELLS`` cells: past
    that, groups of masks that share their high bits are folded one at a
    time over the bits below.  Several markets are taken a mask at a time
    instead, each sum a ``np.bincount`` over all their entries, or leads, in
    entry order, which adds its weights in input order.  Two sorts of integer
    keys, once per call, number each market's chains and find each one's
    first entry of each bit.  An excluded entry weighs its revenue times 0.0:
    +0.0, which changes no sum.

    A lead is an entry that can be its chain's first kept entry: the first
    entry of each (chain, bit) pair, with none after the chain's first bit
    -1 entry.  A lead comes first exactly where its bit is kept and the bits
    of its chain's earlier leads are all excluded.  The sums run over the
    leads in entry order and select 0.0 wherever a lead does not come first:
    the nonzero terms are dict order's, in its order.  Every term is >= +0.0
    or NaN, so the zeros are exact (a product with 0.0 would make inf NaN).
    """
    chain, bit = np.asarray(chain), np.asarray(bit)
    revenue, sizes = np.asarray(revenue, np.float64), np.asarray(sizes, np.int64)
    if not len(chain) == len(bit) == len(revenue):
        raise ValueError("chain, bit and revenue columns differ in length")
    if (sizes < 0).any() or sizes.sum() != len(chain):
        raise ValueError("market sizes must be nonnegative and add up to the entries")
    if not np.isfinite(revenue).all():
        raise ValueError("entry revenues must be finite")
    if len(bit) and not -1 <= bit.min() <= bit.max() < n:
        bad = bit[(bit < -1) | (bit >= n)][0]
        raise ValueError(f"entry bit {bad} out of range for width {n}")
    count = len(sizes)
    if not count:
        return
    sums = (_lone_market_sums(chain.tolist(), bit.tolist(), revenue, n, parties)
            if count == 1 else _market_sums(chain, bit, revenue, sizes, n, parties))
    for start, total, squares, sa, sb in sums:
        if np.isinf(total).any():
            raise DataError("a candidate market has total sales too large for a float")
        merged = sa + sb
        # Python's float power (C pow), as the scalar path squares.
        merged_squared = np.fromiter(map(pow, merged.ravel().tolist(), repeat(2)),
                                     np.float64, merged.size).reshape(merged.shape)
        post = (HHI_SCALE * squares - HHI_SCALE * (sa * sa + sb * sb)
                + HHI_SCALE * merged_squared)
        yield slice(start, start + merged.shape[1]), np.stack(
            (post, HHI_SCALE * 2.0 * sa * sb, merged), axis=-1)


def _lone_market_sums(codes: list[int], bits: list[int], revenue: np.ndarray,
                      n: int, parties: Sequence[int]) -> Iterator[tuple]:
    """For a lone market, each block's first mask, and its totals, sums of
    squared shares, and the acquirer's and the target's (1 × block) shares;
    the sums broadcast to the shares."""
    # Chains are numbered by first entry.  Lead (row, need, prior) comes first
    # where a mask's bits in ``need`` are ``prior``, its chain's earlier leads'
    # bits (bit n is bit -1).  A chain's last lead leaves out its own bit;
    # without it the chain is empty.
    columns, leads, earlier = {}, [], {}
    for code, b in dict.fromkeys(zip(codes, bits)):
        row = columns.setdefault(code, len(columns))
        prior = earlier.get(row, 0)
        if not prior >> n:
            earlier[row] = prior | 1 << (n if b < 0 else b)
            leads.append((row, earlier[row], prior))
    steps = [(row, (prior if need == earlier[row] else need) or None, prior)
             for row, need, prior in leads]
    rows_of = list(map(columns.__getitem__, codes))
    # A merging chain with no entries reads the all-zero row past the chains.
    acquirer, target = ([columns.get(p, len(columns))] for p in parties)
    rows = len(columns) + 1
    low = n  # masks come in groups of 2^low that share their bits >= low
    pairs = dict.fromkeys(zip(rows_of, bits))
    owns = [[] for _ in range(rows)]
    for row, b in pairs:
        if b >= 0:
            owns[row].append(b)
    while low and sum(1 << sum(b < low for b in own) for own in owns) > TABLE_CELLS:
        low -= 1
    # Row r's table has a lane for each pattern of its own bits below low,
    # with its j-th lowest such bit as bit j.  Digit k of a mask in base
    # 1024 adds lanes[k][r, digit] to r's lane.
    owns = [sorted(b for b in own if b < low) for own in owns]
    starts = np.cumsum([0] + [1 << len(own) for own in owns])
    table = np.empty(starts[-1])
    lanes = [np.zeros((rows, 1 << min(10, low - k)), np.int32)
             for k in range(0, low or 1, 10)]
    views = {}
    for row, b in pairs:
        views[row, b] = table[starts[row]:starts[row + 1]]
        if b in owns[row]:
            j, part = owns[row].index(b), lanes[b // 10]
            part[row] += (np.arange(part.shape[1]) >> b % 10 & 1) << j
            views[row, b] = views[row, b].reshape(-1, 2, 1 << j)[:, 0]
    revenues = revenue.tolist()
    # Blocks stay inside spans of masks that share their group and their
    # bits >= 10: only digit 0 varies across a block.
    span = 1 << min(low, 10)
    for window in range(0, 1 << n, span):
        if not window % (1 << low):
            # The group's entries, but for those whose bit it excludes.
            table.fill(0.0)
            with np.errstate(over="ignore"):
                for view, value, b in zip(map(views.__getitem__, zip(rows_of, bits)),
                                          revenues, bits):
                    if b < low or not window >> b & 1:
                        view += value
        for start in range(window, window + span, OUTCOME_BLOCK):
            masks = np.arange(start, min(start + OUTCOME_BLOCK, window + span))
            firsts = [(row, None if need is None else (masks & need) == prior)
                      for row, need, prior in steps]

            def lead_sum(values: np.ndarray) -> np.ndarray:
                return _ordered_sum(values[row] if first is None
                                    else np.where(first, values[row], 0.0)
                                    for row, first in firsts)

            lane = lanes[0][:, start % span:][:, :masks.size] + sum(
                (part[:, start >> 10 * k & part.shape[1] - 1, None]
                 for k, part in enumerate(lanes) if k), starts[:-1, None])
            sales = table[lane]
            # 0 / 0 reads NaN; a total that overflows is refused by the caller.
            with np.errstate(over="ignore", invalid="ignore"):
                total = lead_sum(sales)
                s = sales / total
                yield start, total, lead_sum(s * s), s[acquirer], s[target]


def _market_sums(chain: np.ndarray, bit: np.ndarray, revenue: np.ndarray,
                 sizes: np.ndarray, n: int, parties: Sequence[int]) -> Iterator[tuple]:
    """_lone_market_sums' blocks for several markets, (markets × block)."""
    count, entries = len(sizes), len(chain)
    market, index = np.repeat(np.arange(count), sizes), np.arange(entries)
    least = int(chain.min(initial=0))
    if (int(chain.max(initial=0)) - least + 1) * entries >> 63:
        # Codes too far apart for the sort keys below: their ranks instead.
        ordered = np.sort(chain)
        code = ordered[np.append(True, ordered[1:] != ordered[:-1])].searchsorted(chain)
    else:
        code = np.asarray(chain, np.int64) - least
    # A group is a market's entries of one chain: a run in order of code,
    # then entry.  Groups are numbered in that order.
    key, order = np.divmod(np.sort(code * entries + index), entries)
    home = market[order]
    runs = (np.diff(key, prepend=-1) != 0) | (np.diff(home, prepend=-1) != 0)
    group = np.empty(entries, np.intp)
    group[order] = np.cumsum(runs) - 1
    groups, home = int(runs.sum()), home[runs]
    # The leads: each (group, bit) pair's first entry.  An entry of bit b,
    # at place b + 1, owns bit b; of bit -1, at place 0, bit n.
    places = bit + 1
    owns = 1 << np.arange(-1, n) % (n + 1)
    own = owns[places]
    pair = np.sort((group * (n + 1) + places) * entries + index)
    lead = np.zeros(entries, bool)
    lead[pair[np.diff(pair // entries, prepend=-1) != 0] % entries] = True
    # A group's leads own distinct bits, so the sum of its earlier leads'
    # bits is their union.  Entries that are no lead, and leads after their
    # group's bit -1 lead, which never come first, hold bit n and drop out.
    order = order[lead[order]]
    earlier = np.cumsum(own[order]) - own[order]
    earlier -= np.maximum.accumulate(np.where(
        np.diff(group[order], prepend=-1) != 0, earlier, 0))
    prior = np.full(entries, 1 << n)
    prior[order] = earlier
    leads = np.flatnonzero(prior < 1 << n)
    prior = prior[leads]
    # A lead comes first where a mask's bits in ``need`` are ``prior``: its
    # own bit kept, its group's earlier leads' bits excluded.
    need, lead_group, lead_market = prior | own[leads], group[leads], market[leads]
    # A merging chain with no entries in a market reads sales[groups], 0.0.
    acquirer, target = np.full((2, count), groups)
    for at, party in zip((acquirer, target), parties):
        held = chain == party
        at[market[held]] = group[held]
    step = max(1, OUTCOME_BLOCK // count)
    for start in range(0, 1 << n, step):
        sums = []
        # 0 / 0 reads NaN; a total that overflows is refused by the caller.
        with np.errstate(invalid="ignore"):
            for mask in range(start, min(start + step, 1 << n)):
                # An excluded entry adds its revenue times 0.0, +0.0, which
                # changes no sum, and so does a lead that does not come first.
                sales = np.bincount(group, revenue * ((mask & owns) == 0)[places],
                                    groups + 1)
                first = (mask & need) == prior
                total = np.bincount(lead_market, np.where(first, sales[lead_group], 0.0),
                                    count)
                s = sales[:groups] / total[home]
                sums.append((total, np.bincount(lead_market, np.where(
                    first, (s * s)[lead_group], 0.0), count),
                    sales[acquirer] / total, sales[target] / total))
        yield start, *np.transpose(sums, (1, 2, 0))


def presumption_flags(
    chain: np.ndarray, bit: np.ndarray, revenue: np.ndarray,
    sizes: Sequence[int], ms: MarginalSet, parties: Sequence[int],
    rule: PresumptionRule, names: Sequence[str],
    table: np.ndarray | None = None,
) -> np.ndarray:
    """Read-only (markets × 2^n) presumption flags, by exclusion mask of
    ``ms``, of the markets of :func:`merger_outcome_blocks` columns.  Their
    outcomes go into ``table``, (markets × 2^n × 3), if given, which is then
    read-only too.  A candidate market with no sales is refused: the error
    names the first such market by its entry in ``names``, and its first
    empty subset in canonical order."""
    flags = np.empty((len(sizes), 1 << ms.n), dtype=bool)
    empty = []
    for block, outcomes in merger_outcome_blocks(chain, bit, revenue, sizes,
                                                 ms.n, parties):
        marked = np.isnan(outcomes[:, :, 2])
        if marked.any():
            # The block's first market with an empty mask: the least over
            # all blocks is the first such market.
            row = int(np.flatnonzero(marked.any(axis=1))[0])
            empty.append((row, first_marked(marked[row], ms.n, block.start)))
        flags[:, block] = presumption(*np.moveaxis(outcomes, 2, 0), rule)
        if table is not None:
            table[:, block] = outcomes
    if empty:
        row, subset = min(empty)
        raise DegenerateMarketError(f"{names[row]} has zero total sales after "
                                    f"excluding {subset_label(ms, subset)}")
    for array in (flags, table):
        if array is not None:
            array.flags.writeable = False
    return flags
