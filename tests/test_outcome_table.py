"""The lattice outcome kernel against the per-subset scalar path.

``merger_outcome_blocks`` must reproduce ``merger_outcomes`` bit for bit on
every exclusion set, so every comparison here is exact (``np.array_equal``),
never a tolerance.  The reference is the scalar path kept in conftest.
"""

from __future__ import annotations

import math
import random
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mktsens import (
    DataError,
    DegenerateMarketError,
    ExclusionSet,
    Market,
    MarginalSet,
    MergerSpec,
    PresumptionRule,
    RunConfig,
    Store,
    StoreUniverse,
    chain_market,
    exclude,
    merger_outcomes,
    presumption,
    run_firm_level,
    run_state,
)
from mktsens import metrics
from mktsens.cli import main
from tests.conftest import (
    STATE_MERGING,
    base_config_doc,
    entry_columns,
    entry_outcome_table,
    outcome_table,
    scalar_firm_outcomes,
    scalar_flags,
    scalar_state_outcomes,
    write_inputs,
)
from tests.test_hasse_table import _traced_peak

MERGER = MergerSpec(*STATE_MERGING)
RIVALS = ("cato", "dune", "elmo", "fig", "gala")
FORMATS = ("supermarket", "club", "natural", "limited", "organic")


def make_universe(rows) -> StoreUniverse:
    """Stores in the given order from (chain, format, revenue) rows."""
    return StoreUniverse(tuple(
        Store(f"s{k:04d}", chain, chain.title(), fmt, 45.0, -122.0, revenue)
        for k, (chain, fmt, revenue) in enumerate(rows)
    ))


def diagram_columns(report):
    """The diagram's outcome columns and flags, indexed by mask."""
    diagram = report.diagram
    order = np.argsort(diagram.masks)
    return tuple(diagram.table[order].T), diagram.flags[order]


def assert_state_matches_scalar(universe, config):
    report = run_state(config, universe)
    ms = report.diagram.marginal_set
    expected = scalar_state_outcomes(universe, ms, config.merger)
    columns, flags = diagram_columns(report)
    for got, want in zip(columns, expected):
        assert np.array_equal(got, want)
    want_flags = scalar_flags(expected, config.rule)
    assert np.array_equal(flags, want_flags)
    assert np.array_equal(report.sspi_game.wins, want_flags)


def assert_firm_matches_scalar(universe, config):
    market = chain_market(universe, (), "state")
    ms = MarginalSet(config.marginal_firms)
    expected = scalar_firm_outcomes(market, ms, config)
    entries = [(chain, ms.members.index(chain) if chain in ms.members else -1,
                revenue) for chain, revenue in market.sales.items()]
    assert np.array_equal(entry_outcome_table([entries], ms.n, config.merger),
                          [np.column_stack(expected)])
    report = run_firm_level(config, universe)
    assert np.array_equal(report.sspi_game.wins,
                          scalar_flags(expected, config.rule))


revenues = st.one_of(
    st.just(0.0),
    st.integers(1, 60).map(float),
    st.floats(0.01, 1e6, allow_nan=False, allow_infinity=False),
)
rules = st.builds(
    PresumptionRule,
    post_hhi_threshold=st.sampled_from([1000.0, 1800.0, 2500.0]),
    delta_hhi_threshold=st.sampled_from([50.0, 100.0, 200.0]),
    use_share_criterion=st.booleans(),
)


@st.composite
def shuffled_universes(draw):
    """Universes over 1-4 marginal formats whose store order is shuffled.

    The first store belongs to a rival in a marginal format, so that chain
    first appears in a marginal format; bolt, a merging chain, always has
    a marginal-format store; one rival store has zero revenue.  acme keeps
    an always-in store with positive revenue, so no candidate market is
    empty.
    """
    n = draw(st.integers(1, 4))
    marginal = FORMATS[1:n + 1]
    rows = [
        ("acme", "supermarket", draw(st.floats(1.0, 1e6))),
        ("bolt", draw(st.sampled_from(marginal)), draw(revenues)),
        (draw(st.sampled_from(RIVALS)), draw(st.sampled_from(marginal)), 0.0),
    ]
    rows += draw(st.lists(
        st.tuples(st.sampled_from(STATE_MERGING + RIVALS),
                  st.sampled_from(FORMATS[:n + 1]), revenues),
        max_size=25,
    ))
    lead = (draw(st.sampled_from(RIVALS)), draw(st.sampled_from(marginal)),
            draw(revenues))
    return make_universe([lead] + draw(st.permutations(rows))), marginal


class TestStateLatticeOracle:
    @given(shuffled_universes(), rules)
    @settings(max_examples=150, deadline=None)
    def test_shuffled_universes(self, drawn, rule):
        universe, marginal = drawn
        config = RunConfig(merging_chains=STATE_MERGING,
                           marginal_formats=marginal, rule=rule)
        assert_state_matches_scalar(universe, config)

    def test_seeded_4096_mask_lattice(self):
        # Wide enough to cross several kernel blocks and to expose both the
        # dict summation order and float-power squaring of the merged share.
        rng = random.Random(20240717)
        marginal = tuple(f"m{k:02d}" for k in range(12))
        chains = STATE_MERGING + tuple(f"r{k:02d}" for k in range(18))
        rows = []
        for rank, chain in enumerate(chains):
            for _ in range(max(8, 120 // (rank + 1))):
                fmt = (rng.choice(marginal) if rng.random() < rank / 20
                       else "supermarket")
                rows.append((chain, fmt, round(rng.lognormvariate(2.3, 0.5), 2)))
        rng.shuffle(rows)
        config = RunConfig(merging_chains=STATE_MERGING,
                           marginal_formats=marginal)
        assert_state_matches_scalar(make_universe(rows), config)


class TestFirmLatticeOracle:
    @given(shuffled_universes(), rules, st.data())
    @settings(max_examples=100, deadline=None)
    def test_shuffled_universes(self, drawn, rule, data):
        universe, _ = drawn
        present = [c for c in RIVALS if c in chain_market(universe).sales]
        firms = data.draw(st.permutations(present))
        config = RunConfig(merging_chains=STATE_MERGING,
                           marginal_firms=tuple(firms), rule=rule)
        assert_firm_matches_scalar(universe, config)

    def test_seeded_4096_mask_lattice(self):
        rng = random.Random(7)
        chains = STATE_MERGING + tuple(f"r{k:02d}" for k in range(16))
        rows = [(rng.choice(chains), "supermarket",
                 round(rng.lognormvariate(2.3, 0.5), 2)) for _ in range(400)]
        rows += [(chain, "supermarket", 1.0) for chain in chains]
        config = RunConfig(merging_chains=STATE_MERGING,
                           marginal_firms=chains[4:])
        assert_firm_matches_scalar(make_universe(rows), config)

    @given(shuffled_universes(), rules, st.sampled_from([1, 2, 3, 1024]),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_block_flags_match_the_collected_table(self, drawn, rule, block,
                                                   data):
        """The flags that firm keeps block by block are presumption over
        the kernel's outcome table, whatever the block size."""
        universe, _ = drawn
        market = chain_market(universe, (), "state")
        firms = tuple(data.draw(st.permutations(
            [c for c in RIVALS if c in market.sales])))
        config = RunConfig(merging_chains=STATE_MERGING,
                           marginal_firms=firms, rule=rule)
        entries = [(chain, firms.index(chain) if chain in firms else -1,
                    revenue) for chain, revenue in market.sales.items()]
        (table,) = entry_outcome_table([entries], len(firms), config.merger)
        with mock.patch.object(metrics, "OUTCOME_BLOCK", block):
            wins = run_firm_level(config, universe).sspi_game.wins
        assert np.array_equal(wins, presumption(*table.T, rule))

    def test_keeps_no_float_table(self):
        # 18 marginal firms: three float64 outcome columns by mask would hold
        # 6 MiB (the run peaked at 9.0 MiB with them, 3.0 MiB without).  The
        # rest is the 2^18 flags and sspi's working arrays.
        rng = random.Random(18)
        chains = STATE_MERGING + tuple(f"r{k:02d}" for k in range(18))
        rows = [(chain, "supermarket", round(rng.lognormvariate(2.3, 0.5), 2))
                for chain in chains for _ in range(3)]
        universe = make_universe(rows)
        config = RunConfig(merging_chains=STATE_MERGING,
                           marginal_firms=chains[2:])
        assert _traced_peak(lambda: run_firm_level(config, universe)) < 4 * 2**20


def scalar_market_outcomes(entries, bits: int) -> tuple[float, float, float]:
    """merger_outcomes on the kept entries summed by chain in entry order,
    or NaN in all three places where no sales are left."""
    sales: dict[str, float] = {}
    for chain, bit, value in entries:
        if bit == -1 or not bits >> bit & 1:
            sales[chain] = sales.get(chain, 0.0) + value
    try:
        return merger_outcomes(Market(sales), MERGER)
    except DegenerateMarketError:
        return (np.nan,) * 3


@st.composite
def market_lists(draw):
    """1-6 markets of 0-12 entries over 0-3 bits; a market may lack either
    merging chain or hold no sales at all."""
    n = draw(st.integers(0, 3))
    entry = st.tuples(st.sampled_from(STATE_MERGING + RIVALS),
                      st.integers(-1, n - 1), revenues)
    return draw(st.lists(st.lists(entry, max_size=12), min_size=1,
                         max_size=6)), n


def assert_cells_match_scalar(markets, n):
    """Every cell of the table over ``markets``, and of each market's table
    alone, equals scalar_market_outcomes."""
    together = entry_outcome_table(markets, n, MERGER)
    assert together.shape == (len(markets), 1 << n, 3)
    for i, entries in enumerate(markets):
        alone = entry_outcome_table([entries], n, MERGER)
        want = np.array([scalar_market_outcomes(entries, bits)
                         for bits in range(1 << n)])
        assert np.array_equal(together[i], want, equal_nan=True)
        assert np.array_equal(alone, [want], equal_nan=True)


class TestMarketAxis:
    @given(market_lists())
    @settings(max_examples=300, deadline=None)
    def test_every_cell_matches_its_market_alone(self, drawn):
        assert_cells_match_scalar(*drawn)

    def test_no_markets(self):
        assert entry_outcome_table([], 2, MERGER).shape == (0, 4, 3)

    def test_sales_that_overflow_to_inf(self):
        # cato's two 1e308 entries sum to inf where neither bit is excluded;
        # acme's and bolt's sum to inf in every mask.  The kernel refuses
        # each market, alone or beside another, where merger_outcomes
        # refuses it, and warns of nothing.
        overflowing = ([("acme", -1, 5.0), ("bolt", -1, 3.0), ("cato", 0, 1e308),
                        ("cato", 1, 1e308), ("dune", 1, 2.0)],
                       [("acme", -1, 1e308), ("bolt", -1, 1e308), ("cato", 0, 5.0)])
        for entries in overflowing:
            with pytest.raises(DataError):
                scalar_market_outcomes(entries, 0)
            for markets in ([entries], [[("acme", -1, 1.0)], entries]):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(DataError, match="too large for a float"):
                        entry_outcome_table(markets, 2, MERGER)

    def test_revenues_must_be_finite(self):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                entry_outcome_table([[("acme", -1, 1.0), ("bolt", 0, value)]],
                                    1, MERGER)


@st.composite
def relabelled_market_lists(draw):
    """market_lists' markets and a merger whose target may be a chain that
    no market holds, with their entry columns, and the same columns again
    with every chain code sent to a distinct sparse, large or negative int."""
    markets, n = draw(market_lists())
    merger = MergerSpec("acme", draw(st.sampled_from(["bolt", "zeta"])))
    (chain, *rest), parties = entry_columns(markets, merger)
    labels = draw(st.lists(
        st.one_of(st.integers(-2**63, -1), st.integers(0, 9),
                  st.integers(2**40, 2**63 - 1)),
        min_size=len(STATE_MERGING + RIVALS) + 1,
        max_size=len(STATE_MERGING + RIVALS) + 1, unique=True))
    relabelled = np.array(labels, np.int64)
    return ((chain, *rest), parties,
            (relabelled[chain], *rest), relabelled[parties].tolist(), n)


class TestColumns:
    @given(relabelled_market_lists())
    @settings(max_examples=200, deadline=None)
    def test_chain_codes_are_labels_only(self, drawn):
        columns, parties, relabelled, moved, n = drawn
        assert np.array_equal(outcome_table(*relabelled, n, moved),
                              outcome_table(*columns, n, parties),
                              equal_nan=True)

    @pytest.mark.parametrize("chain, bit, revenue, sizes, message", [
        ([0, 1], [0], [1.0, 2.0], [2], "differ in length"),
        ([0, 1], [0, 0], [1.0, 2.0], [3, -1], "nonnegative"),
        ([0, 1], [0, 0], [1.0, 2.0], [1], "add up to"),
    ], ids=["lengths", "negative-size", "sizes-sum"])
    def test_malformed_columns(self, chain, bit, revenue, sizes, message):
        with pytest.raises(ValueError, match=message):
            outcome_table(chain, bit, revenue, sizes, 1, (0, 1))

    def test_each_market_numbers_its_own_chains(self):
        # 256 markets of 40 entries over 8 chains of their own and the two
        # parties: rows for the union of all chains peak at about 49 MiB.
        rng = np.random.default_rng(3)
        chain = np.concatenate([rng.choice([0, 1, *range(2 + 8 * k, 10 + 8 * k)], 40)
                                for k in range(256)])
        bit = rng.integers(-1, 3, chain.size)
        revenue = rng.uniform(1.0, 10.0, chain.size)
        assert _traced_peak(lambda: outcome_table(
            chain, bit, revenue, [40] * 256, 3, (0, 1))) < 4 * 2**20


class SortReached(Exception):
    """Raised in place of a per-mask sort of chain rows."""


def sort_forbidden():
    """A patch under which sorting or gathering chain rows raises
    SortReached."""
    return mock.patch.multiple(
        np, argsort=mock.Mock(side_effect=SortReached),
        take_along_axis=mock.Mock(side_effect=SortReached))


def interleave(draw, chains):
    """One market holding every chain's entries, interleaved at random,
    each chain's own entries in their given order."""
    slots = draw(st.permutations(
        [k for k, entries in enumerate(chains) for _ in entries]))
    queues = [iter(entries) for entries in chains]
    return [next(queues[k]) for k in slots]


def fixed_chains(draw, names, n):
    """One entry list per name for a chain that keeps its place under every
    mask: every entry carries one bit, or the first has bit -1."""
    chains = []
    for name in names:
        size = draw(st.integers(1, 3))
        if draw(st.booleans()):
            bits = [draw(st.integers(-1, n - 1))] * size
        else:
            bits = [-1] + draw(st.lists(st.integers(-1, n - 1),
                                        min_size=size - 1, max_size=size - 1))
        chains.append([(name, bit, draw(revenues)) for bit in bits])
    return chains


# Enough chains that a sum down the rows could be added pairwise.
CHAINS = STATE_MERGING + RIVALS + ("hill", "ivy", "jade", "kelp", "lark")


@st.composite
def fixed_markets(draw, n):
    """0-12 chains, none of which can change place."""
    names = draw(st.lists(st.sampled_from(CHAINS), unique=True, max_size=12))
    return interleave(draw, fixed_chains(draw, names, n))


@st.composite
def near_fixed_markets(draw, n):
    """A fixed market plus one chain that is one entry away from fixed: its
    first entry has bit b and its second bit -1 or another bit c."""
    names = draw(st.permutations(CHAINS))[:draw(st.integers(1, 12))]
    lead = draw(st.integers(0, n - 1))
    second = draw(st.sampled_from([-1] + [c for c in range(n) if c != lead]))
    mover = [(names[0], lead, draw(revenues)),
             (names[0], second, draw(revenues))]
    return interleave(draw, [mover] + fixed_chains(draw, names[1:], n))


@st.composite
def revisiting_markets(draw, n):
    """1-4 interleaved chains whose entries return to bits they have
    already used, as in (b, c, b, -1, c), so a chain can have several leads
    and entries after its first bit -1 entry."""
    names = draw(st.permutations(CHAINS))[:draw(st.integers(1, 4))]
    chains = []
    for name in names:
        used = draw(st.lists(st.integers(-1, n - 1), min_size=1, max_size=3))
        bits = draw(st.lists(st.sampled_from(used), min_size=2, max_size=8))
        chains.append([(name, bit, draw(revenues)) for bit in bits])
    return interleave(draw, chains)


class TestFixedOrder:
    """The kernel sums in entry order: no call sorts chain rows per mask,
    whether its chains can change place or not, and every cell is exact."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_no_call_sorts(self, data):
        n = data.draw(st.integers(1, 3))
        markets = data.draw(st.lists(
            st.one_of(fixed_markets(n), near_fixed_markets(n),
                      revisiting_markets(n)), min_size=1, max_size=5))
        drawn = data.draw(market_lists())
        with sort_forbidden():
            assert_cells_match_scalar(markets, n)
            assert_cells_match_scalar(*drawn)

    def test_seeded_20_firm_lattice(self):
        # Past the 4,096-mask lattices above: 1,024 kernel blocks, none of
        # which may sort, checked on sampled masks and both ends.
        rng = random.Random(2020)
        chains = STATE_MERGING + tuple(f"r{k:02d}" for k in range(20))
        rows = [(rng.choice(chains), "supermarket",
                 round(rng.lognormvariate(2.3, 0.5), 2)) for _ in range(600)]
        rows += [(chain, "supermarket", 1.0) for chain in chains]
        universe = make_universe(rows)
        config = RunConfig(merging_chains=STATE_MERGING,
                           marginal_firms=chains[2:])
        market = chain_market(universe, (), "state")
        ms = MarginalSet(config.marginal_firms)
        entries = [(chain, ms.members.index(chain) if chain in ms.members
                    else -1, revenue) for chain, revenue in market.sales.items()]
        with sort_forbidden():
            table = entry_outcome_table([entries], ms.n, MERGER)
            report = run_firm_level(config, universe)
        wins = report.sspi_game.wins
        for mask in [0, (1 << 20) - 1] + rng.sample(range(1, (1 << 20) - 1),
                                                    256):
            want = merger_outcomes(exclude(
                market, ms.labels_of(ExclusionSet(20, mask)), STATE_MERGING),
                MERGER)
            got = tuple(table[0, mask].tolist())
            assert [v.hex() for v in got] == [v.hex() for v in want]
            assert wins[mask] == presumption(*want, config.rule)
        assert report.sensitive
        assert math.isclose(sum(report.sspi_values),
                            int(wins[-1]) - int(wins[0]), abs_tol=1e-12)


# Chain codes with no room between them and the int64 limits, small ones of
# either sign, and any others.
chain_codes = st.one_of(st.integers(-2**63, -2**63 + 9), st.integers(-9, 9),
                        st.integers(2**63 - 10, 2**63 - 1),
                        st.integers(-2**63, 2**63 - 1))


@st.composite
def several_markets(draw):
    """2-8 markets at n = 0-6, each of 0-12 entries or of chains that
    revisit their bits, so that a market may be empty or lack either
    merging chain, with a distinct int64 code for each chain."""
    n = draw(st.integers(0, 6))
    entry = st.tuples(st.sampled_from(STATE_MERGING + RIVALS),
                      st.integers(-1, n - 1), revenues)
    markets = draw(st.lists(st.one_of(st.lists(entry, max_size=12),
                                      revisiting_markets(n)),
                            min_size=2, max_size=8))
    codes = draw(st.lists(chain_codes, min_size=len(CHAINS), max_size=len(CHAINS),
                          unique=True))
    return markets, n, np.array(codes, np.int64)


def hexes(rows) -> list[list[str]]:
    """Each float exactly, as ``float.hex`` spells it (any NaN as nan)."""
    return [[float(v).hex() for v in row] for row in rows]


class TestSeveralMarkets:
    @given(several_markets(), st.integers(1, 16))
    @settings(max_examples=300, deadline=None)
    def test_every_cell_matches_the_scalar_path(self, drawn, block):
        """Blocks of 1-16 cells split a market's masks across blocks."""
        markets, n, codes = drawn
        (chain, *rest), parties = entry_columns(markets, MERGER)
        with mock.patch.object(metrics, "OUTCOME_BLOCK", block):
            table = outcome_table(codes[chain], *rest, n, codes[parties].tolist())
        for got, entries in zip(table, markets):
            assert hexes(got) == hexes(scalar_market_outcomes(entries, bits)
                                       for bits in range(1 << n))


# Revenues from subnormal to near the largest float: two of the largest
# overflow in a sum.
magnitudes = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1e-300),
    st.integers(1, 60).map(float),
    st.floats(0.01, 1e6),
    st.floats(1e300, 1.7e308),
)


@st.composite
def lone_markets(draw):
    """A lone market over 0-10 bits whose chains own 0 to n bits each: every
    own bit has an entry, and further entries repeat own bits or carry bit
    -1, each chain's in a drawn order, interleaved across chains."""
    n = draw(st.integers(0, 10))
    names = draw(st.lists(st.sampled_from(CHAINS), min_size=1, max_size=6,
                          unique=True))
    chains = []
    for name in names:
        own = draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n, unique=True))
        bits = own + draw(st.lists(st.sampled_from(own + [-1]), max_size=6))
        chains.append([(name, bit, draw(magnitudes))
                       for bit in draw(st.permutations(bits))])
    return interleave(draw, chains), n


class TestLoneMarketTables:
    """A lone market's chains are folded once into tables over their own
    bits, in groups of masks when the tables would pass TABLE_CELLS, and
    read a block at a time: every cell is still the scalar path's."""

    @given(lone_markets(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_every_cell_matches_the_scalar_path(self, drawn, data):
        entries, n = drawn
        size = 1 << n
        block = data.draw(st.one_of(st.integers(1, 40), st.sampled_from(
            [max(size - 1, 1), size, size + 1, 3 * size])), label="block")
        cells = data.draw(st.integers(1, 8 * size), label="cells")
        try:
            want = np.array([scalar_market_outcomes(entries, bits)
                             for bits in range(size)])
        except DataError:
            want = None
        with mock.patch.multiple(metrics, OUTCOME_BLOCK=block, TABLE_CELLS=cells), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            if want is None:
                with pytest.raises(DataError, match="too large for a float"):
                    entry_outcome_table([entries], n, MERGER)
            else:
                assert np.array_equal(entry_outcome_table([entries], n, MERGER),
                                      [want], equal_nan=True)

    def test_tables_stay_within_their_cells(self):
        # 24 chains that each own all 12 bits: one table of 24 x 4,096
        # cells, or, under a bound of 3,000 cells, 64 groups of masks over 6
        # bits each.  Checked against the scalar path on sampled masks.
        rng = random.Random(12)
        entries = [(f"r{k:02d}", bit, rng.uniform(1.0, 9.0))
                   for k in range(24) for bit in [-1, *range(12)]]
        entries += [(chain, -1, 50.0) for chain in STATE_MERGING]
        rng.shuffle(entries)
        whole = entry_outcome_table([entries], 12, MERGER)
        whole_peak = _traced_peak(lambda: entry_outcome_table([entries], 12, MERGER))
        with mock.patch.object(metrics, "TABLE_CELLS", 3000):
            assert np.array_equal(entry_outcome_table([entries], 12, MERGER), whole)
            peak = _traced_peak(lambda: entry_outcome_table([entries], 12, MERGER))
        assert peak + 24 * 4096 * 8 // 2 < whole_peak
        for bits in [0, 4095] + rng.sample(range(1, 4095), 64):
            want = scalar_market_outcomes(entries, bits)
            assert whole[0, bits].tolist() == list(want)


def exact_outcomes(sales: dict[str, int]) -> tuple[Fraction, Fraction]:
    """Rational (post HHI, delta HHI) of a market of integer sales."""
    total = sum(sales.values())
    a, b = sales["acme"], sales["bolt"]
    squares = sum(v * v for v in sales.values()) + 2 * a * b
    return (Fraction(10_000 * squares, total * total),
            Fraction(10_000 * 2 * a * b, total * total))


# Integer sales whose candidate market excluding club and natural has a
# post-merger HHI of exactly 1800 (30^2 + 20^2 + 5 * 10^2 over 100^2).
POST_ON_THRESHOLD = (
    [("acme", "supermarket", 20), ("bolt", "supermarket", 10),
     ("cato", "supermarket", 20)]
    + [(chain, "supercenter", 10)
       for chain in ("dune", "elmo", "fig", "gala", "hill")]
    + [("ivy", "club", 7), ("jade", "natural", 13)]
)
# Excluding club leaves 2 + 1 + 17 = 20, so delta HHI is exactly
# 2 * 2 * 1 / 20^2 * 10^4 = 100.
DELTA_ON_THRESHOLD = [
    ("acme", "supermarket", 2), ("bolt", "supermarket", 1),
    ("cato", "supercenter", 17), ("ivy", "club", 5),
]


class TestExactThresholds:
    @pytest.mark.parametrize("rows, excluded, on_threshold", [
        (POST_ON_THRESHOLD, ("club", "natural"), (Fraction(1800), None)),
        (DELTA_ON_THRESHOLD, ("club",), (None, Fraction(100))),
    ])
    @pytest.mark.parametrize("scale", [1, 3, 7, 11, 1000, 12345])
    @pytest.mark.parametrize("order_seed", [0, 1, 2])
    def test_flags_match_scalar_rule(self, rows, excluded, on_threshold,
                                     scale, order_seed):
        kept = {}
        for chain, fmt, revenue in rows:
            if fmt not in excluded:
                kept[chain] = kept.get(chain, 0) + revenue
        for exact, wanted in zip(exact_outcomes(kept), on_threshold):
            assert wanted is None or exact == wanted
        # Split each chain's sales over two stores, then shuffle.
        stores = [(chain, fmt, float(part * scale))
                  for chain, fmt, revenue in rows
                  for part in (revenue - revenue // 3, revenue // 3)]
        random.Random(order_seed).shuffle(stores)
        universe = make_universe(stores)
        assert_state_matches_scalar(
            universe, RunConfig(merging_chains=STATE_MERGING))
        # Excluding the chains that sell in those formats hits the same
        # threshold in the firm lattice.
        firms = ("cato",) + tuple(dict.fromkeys(
            chain for chain, fmt, _ in rows if fmt in excluded))
        assert_firm_matches_scalar(
            universe, RunConfig(merging_chains=STATE_MERGING,
                                marginal_firms=firms))


# Every store sells in a marginal format: excluding club and natural
# leaves no sales at all.
ALL_MARGINAL = [("acme", "club", 5.0), ("bolt", "natural", 3.0),
                ("cato", "club", 4.0)]
# The merging chains sell nothing, so excluding both rivals leaves no sales.
SILENT_PARTIES = [("acme", "supermarket", 0.0), ("bolt", "supermarket", 0.0),
                  ("cato", "supermarket", 4.0), ("dune", "club", 2.0)]


class TestEmptyCandidateMarkets:
    def test_table_reads_nan_where_the_market_is_empty(self):
        entries = [(c, {"club": 0, "natural": 1}[f], r)
                   for c, f, r in ALL_MARGINAL]
        (table,) = entry_outcome_table([entries], 2, MERGER)
        assert np.isnan(table[3]).all() and not np.isnan(table[:3]).any()

    def test_entry_bit_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            entry_outcome_table([[("acme", 2, 1.0)]], 2, MERGER)

    def test_state_names_the_empty_subset(self):
        config = RunConfig(merging_chains=STATE_MERGING)
        with pytest.raises(DegenerateMarketError) as error:
            run_state(config, make_universe(ALL_MARGINAL))
        assert str(error.value) == ("market 'state' has zero total sales "
                                    "after excluding {club, natural}")

    def test_firm_names_the_empty_subset(self):
        config = RunConfig(merging_chains=STATE_MERGING,
                           marginal_firms=("cato", "dune"))
        with pytest.raises(DegenerateMarketError) as error:
            run_firm_level(config, make_universe(SILENT_PARTIES))
        assert str(error.value) == ("market 'state' has zero total sales "
                                    "after excluding {cato, dune}")

    def test_firm_names_the_first_empty_subset_in_canonical_order(self):
        """Blocks of two masks, and empty masks that form the up-set of
        {elmo} (bit 2) and {cato, dune} (bits 0 and 1): mask 3 comes first in
        mask order, in an earlier block, but {elmo} comes first in canonical
        order.  No market of nonnegative sales has two minimal empty
        subsets, so the kernel's outcomes are made NaN there."""
        kernel = metrics.merger_outcome_blocks

        def with_holes(*args):
            for block, outcomes in kernel(*args):
                masks = np.arange(block.start, block.stop)
                outcomes[:, (masks & 4 > 0) | (masks & 3 == 3)] = np.nan
                yield block, outcomes

        config = RunConfig(merging_chains=STATE_MERGING,
                           marginal_firms=("cato", "dune", "elmo"))
        universe = make_universe([(chain, "supermarket", 1.0) for chain in
                                  STATE_MERGING + config.marginal_firms])
        with mock.patch.object(metrics, "OUTCOME_BLOCK", 2), \
                mock.patch.object(metrics, "merger_outcome_blocks", with_holes):
            with pytest.raises(DegenerateMarketError,
                               match=r"excluding \{elmo\}$"):
                run_firm_level(config, universe)

    @pytest.mark.parametrize("command, rows, doc", [
        ("state", ALL_MARGINAL, base_config_doc()),
        ("firm", SILENT_PARTIES,
         base_config_doc(marginal_firms=["cato", "dune"])),
    ])
    def test_cli_exits_with_data_error(self, tmp_path, capsys, command,
                                       rows, doc):
        stores, config = write_inputs(tmp_path, make_universe(rows), doc)
        code = main([command, "--stores", str(stores), "--config",
                     str(config), "--out", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "data error: market 'state' has zero total sales after excluding {")
        assert not (tmp_path / "out").exists()
