"""The lattice outcome kernel against the per-subset scalar path.

``merger_outcome_table`` must reproduce ``merger_outcomes`` bit for bit on
every exclusion set, so every comparison here is exact (``np.array_equal``),
never a tolerance.  The reference is the scalar path kept in conftest.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mktsens import (
    DegenerateMarketError,
    Market,
    MarginalSet,
    MergerSpec,
    OutcomeEvaluationError,
    PresumptionRule,
    RunConfig,
    Store,
    StoreUniverse,
    chain_market,
    merger_outcome_table,
    merger_outcomes,
    run_firm_level,
    run_state,
)
from mktsens.cli import main
from tests.conftest import (
    STATE_MERGING,
    base_config_doc,
    scalar_firm_outcomes,
    scalar_flags,
    scalar_state_outcomes,
    write_inputs,
)

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
    for got, want in zip(merger_outcome_table([entries], ms.n, config.merger),
                         expected):
        assert np.array_equal(got, [want])
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


class TestMarketAxis:
    @given(market_lists())
    @settings(max_examples=300, deadline=None)
    def test_every_cell_matches_its_market_alone(self, drawn):
        markets, n = drawn
        together = merger_outcome_table(markets, n, MERGER)
        assert all(column.shape == (len(markets), 1 << n)
                   for column in together)
        for i, entries in enumerate(markets):
            alone = merger_outcome_table([entries], n, MERGER)
            want = np.array([scalar_market_outcomes(entries, bits)
                             for bits in range(1 << n)]).T
            for got, single, expected in zip(together, alone, want):
                assert np.array_equal(got[i], expected, equal_nan=True)
                assert np.array_equal(single[0], expected, equal_nan=True)

    def test_no_markets(self):
        for column in merger_outcome_table([], 2, MERGER):
            assert column.shape == (0, 4)


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
        post, delta, share = merger_outcome_table([entries], 2, MERGER)
        for column in (post, delta, share):
            assert np.isnan(column[0, 3]) and not np.isnan(column[0, :3]).any()

    def test_entry_bit_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            merger_outcome_table([[("acme", 2, 1.0)]], 2, MERGER)

    def test_state_names_the_empty_subset(self):
        config = RunConfig(merging_chains=STATE_MERGING)
        with pytest.raises(OutcomeEvaluationError,
                           match=r"excluding \{club, natural\}"):
            run_state(config, make_universe(ALL_MARGINAL))

    def test_firm_names_the_empty_subset(self):
        config = RunConfig(merging_chains=STATE_MERGING,
                           marginal_firms=("cato", "dune"))
        with pytest.raises(OutcomeEvaluationError,
                           match=r"excluding \{cato, dune\}"):
            run_firm_level(config, make_universe(SILENT_PARTIES))

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
        assert "zero total sales" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
