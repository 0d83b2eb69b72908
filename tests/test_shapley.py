"""Coalitional games, Shapley values, sampling, and power indices."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mktsens import (
    CapacityError,
    CoalitionalGame,
    ExclusionSet,
    MarginalSet,
    Market,
    OutcomeEvaluationError,
    ShapleyResult,
    SimpleGame,
    characteristic_from_outcome,
    exclude,
    hhi,
    shapley_exact,
    shapley_sampled,
    simple_game_from_rule,
    sspi,
)
from mktsens.shapley import _result
from tests.conftest import (
    TEXTBOOK_HHI,
    TEXTBOOK_MARGINAL,
    TEXTBOOK_SALES,
    TEXTBOOK_SHAPLEY,
    TEXTBOOK_SHAPLEY_SHARES,
    TEXTBOOK_SHAPLEY_TOTAL,
    TEXTBOOK_SSPI,
)


def textbook_game() -> CoalitionalGame:
    market = Market(TEXTBOOK_SALES)
    ms = MarginalSet(TEXTBOOK_MARGINAL)
    return characteristic_from_outcome(
        lambda s: hhi(exclude(market, ms.labels_of(s))), ms.n
    )


def shapley_by_permutations(table: list[float], n: int) -> list[float]:
    """Independent oracle: average marginal contribution over all n! orders."""
    gains: list[list[float]] = [[] for _ in range(n)]
    for perm in itertools.permutations(range(n)):
        mask = 0
        for player in perm:
            grown = mask | 1 << player
            gains[player].append(table[grown] - table[mask])
            mask = grown
    return [math.fsum(g) / math.factorial(n) for g in gains]


class TestCoalitionalGame:
    def test_exactly_one_backing(self):
        # The table is the only backing, so it is a required field.
        with pytest.raises(TypeError):
            CoalitionalGame(n=2)

    def test_from_table_validation(self):
        with pytest.raises(ValueError):
            CoalitionalGame.from_table([0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            CoalitionalGame.from_table([1.0, 2.0])  # v(empty) != 0

    def test_value_lookup(self):
        game = CoalitionalGame.from_table([0.0, 1.0, 2.0, 5.0])
        assert game.n == 2
        assert game.value_of_mask(3) == 5.0
        assert game.value(ExclusionSet(2, 1)) == 1.0
        with pytest.raises(ValueError):
            game.value_of_mask(4)
        with pytest.raises(ValueError):
            game.value(ExclusionSet(3, 1))

    def test_materialization_capacity(self):
        with pytest.raises(CapacityError):
            characteristic_from_outcome(lambda s: 0.0, 25)


class TestCharacteristicFromOutcome:
    def test_origin_is_pinned_to_zero(self):
        game = characteristic_from_outcome(lambda s: 1439.84, 3)
        assert game.value_of_mask(0) == 0.0

    def test_values_are_gains_over_empty(self):
        game = textbook_game()
        full = game.value_of_mask(0b111)
        assert full == TEXTBOOK_HHI[("1", "2", "3")] - TEXTBOOK_HHI[()]
        assert round(full) == 643

    def test_constant_outcome_gives_the_zero_game(self):
        game = characteristic_from_outcome(lambda s: 7.5, 4)
        assert not game.table.any()

    def test_outcome_function_called_once_per_subset(self):
        calls = []

        def f(subset):
            calls.append(subset.bits)
            return float(subset.size)

        game = characteristic_from_outcome(f, 4)
        assert sorted(calls) == list(range(16))
        assert game.value_of_mask(0b11) == 2.0

    def test_failure_names_the_subset(self):
        def f(subset):
            if subset.bits == 0b101:
                raise RuntimeError("nope")
            return 0.0

        with pytest.raises(OutcomeEvaluationError,
                           match=r"outcome function failed on subset \{0, 2\}: nope"):
            characteristic_from_outcome(f, 3)

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            characteristic_from_outcome(lambda s: 0.0, -1)


class TestShapleyExact:
    def test_one_player(self):
        res = shapley_exact(CoalitionalGame.from_table([0.0, 42.0]))
        assert res.values == (42.0,)
        assert res.grand_value == 42.0

    def test_two_player_textbook_split(self):
        res = shapley_exact(CoalitionalGame.from_table([0.0, 10.0, 20.0, 50.0]))
        assert res.values == (20.0, 30.0)
        assert res.shares == (0.4, 0.6)

    def test_textbook_game_values(self):
        res = shapley_exact(textbook_game())
        assert res.values == TEXTBOOK_SHAPLEY
        assert res.mode == "exact"
        assert res.grand_value == pytest.approx(TEXTBOOK_SHAPLEY_TOTAL, abs=1e-9)
        for got, want in zip(res.shares, TEXTBOOK_SHAPLEY_SHARES):
            assert got == pytest.approx(want, abs=1e-12)

    def test_efficiency(self):
        res = shapley_exact(textbook_game())
        assert abs(res.efficiency_residual) <= 1e-9 * max(1.0, abs(res.grand_value))

    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 4, 5):
            table = rng.standard_normal(1 << n) * 10.0
            table[0] = 0.0
            res = shapley_exact(CoalitionalGame.from_table(table))
            oracle = shapley_by_permutations(list(table), n)
            for got, want in zip(res.values, oracle):
                assert got == pytest.approx(want, abs=1e-9)

    def test_null_player_gets_exactly_zero(self):
        # Player 1 never changes the worth: v depends on player 0 only.
        table = [0.0, 5.0, 0.0, 5.0]
        res = shapley_exact(CoalitionalGame.from_table(table))
        assert res.values[1] == 0.0
        assert res.values[0] == 5.0

    def test_zero_game_has_no_shares(self):
        res = shapley_exact(CoalitionalGame.from_table([0.0, 0.0]))
        assert res.shares is None
        assert res.values == (0.0,)

    def test_empty_game(self):
        res = shapley_exact(CoalitionalGame.from_table([0.0]))
        assert res.values == ()
        assert res.grand_value == 0.0


class TestLeftToRightSums:
    """From Python 3.12 the built-in sum compensates its rounding:
    sum((1e16, 1.0, -1e16)) reads 1.0 there and 0.0 before.  The reports
    must read the same on every Python, so these sums run left to right."""

    def test_efficiency_residual(self):
        res = ShapleyResult((1e16, 1.0, -1e16), 0.0, None, "exact")
        assert res.efficiency_residual == 0.0

    def test_shares_divide_by_the_left_to_right_total(self):
        res = _result((1e16, 1.0, -1e16, 2.0), 0.0, "exact")
        assert res.shares == (5e15, 0.5, -5e15, 1.0)


class TestShapleySampled:
    def test_dictator_is_a_zero_variance_estimate(self):
        # v(S) = 1 iff player 1 in S: every ordering pivots at player 1.
        table = [0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0]
        game = CoalitionalGame.from_table(table)
        res = shapley_sampled(game, permutations=50, seed=3)
        assert res.values == (0.0, 1.0, 0.0)
        assert res.std_errors == (0.0, 0.0, 0.0)
        assert res.mode == "sampled"
        assert res.permutations_used == 50
        assert res.seed == 3

    def test_single_permutation_telescopes(self):
        # Integer-valued worths make the telescoping sum exact in floats.
        rng = np.random.default_rng(11)
        table = rng.integers(-100, 100, size=16).astype(np.float64)
        table[0] = 0.0
        game = CoalitionalGame.from_table(table)
        res = shapley_sampled(game, permutations=1, seed=0)
        assert sum(res.values) == res.grand_value
        assert res.std_errors == (0.0, 0.0, 0.0, 0.0)

    def test_seed_reproducibility(self):
        game = textbook_game()
        a = shapley_sampled(game, 500, seed=9)
        b = shapley_sampled(game, 500, seed=9)
        c = shapley_sampled(game, 500, seed=10)
        assert a.values == b.values and a.std_errors == b.std_errors
        assert a.values != c.values

    def test_estimates_approach_exact_values(self):
        game = textbook_game()
        exact = shapley_exact(game)
        res = shapley_sampled(game, 20_000, seed=0)
        for est, se, want in zip(res.values, res.std_errors, exact.values):
            assert abs(est - want) <= 4.0 * se + 1e-9

    def test_permutation_count_validation(self):
        with pytest.raises(ValueError):
            shapley_sampled(textbook_game(), 0, seed=0)

    def test_zero_player_game(self):
        res = shapley_sampled(CoalitionalGame.from_table([0.0]), 5, seed=0)
        assert res.values == ()
        assert res.grand_value == 0.0

    @pytest.mark.parametrize("permutations", [10**18, 10**30],
                             ids=["permutations-1e18", "permutations-1e30"])
    def test_requests_past_the_limits(self, permutations):
        # Refused before anything is drawn; these used to end in ValueError
        # and OverflowError.
        with pytest.raises(CapacityError) as error:
            shapley_sampled(textbook_game(), permutations, seed=0)
        assert str(error.value) == (
            f"{permutations} permutations of 3 players exceed the 2^24 cells "
            "of sampling's working arrays")


def _game(n: int, flags) -> SimpleGame:
    """The simple game whose winning coalitions are the flagged masks."""
    return SimpleGame(n, np.array([flags[m] for m in range(1 << n)],
                                  dtype=np.uint8))


class TestSimpleGame:
    def test_wins_must_be_binary(self):
        for bad in (np.array([0, 2], dtype=np.uint8), np.array([0.0, 0.5]),
                    np.array([1.0, np.nan]), np.array([0, -1], dtype=np.int64)):
            with pytest.raises(ValueError, match="must be 0 or 1"):
                SimpleGame(n=1, wins=bad)

    def test_wins_table_needs_one_entry_per_mask(self):
        with pytest.raises(ValueError, match="2\\^n"):
            SimpleGame(n=2, wins=np.array([0, 1], dtype=np.uint8))

    def test_zero_one_tables_of_any_dtype_are_accepted(self):
        for good in (np.array([True, False]), np.array([1.0, 0.0]),
                     np.array([1, 1], dtype=np.int64)):
            assert SimpleGame(n=1, wins=good).win(ExclusionSet(1, 0))

    def test_degenerate_and_constant_markers(self):
        allwin = _game(1, {0: True, 1: True})
        assert allwin.degenerate_at_origin and allwin.constant
        nowin = _game(1, {0: False, 1: False})
        assert not nowin.degenerate_at_origin and nowin.constant
        mixed = _game(2, {0: False, 1: True, 2: False, 3: True})
        assert mixed.win(ExclusionSet(2, 1)) is True
        assert mixed.win(ExclusionSet(2, 2)) is False
        assert not mixed.degenerate_at_origin and not mixed.constant


class TestSimpleGameFromRule:
    def test_textbook_threshold_game(self):
        market = Market(TEXTBOOK_SALES)
        ms = MarginalSet(TEXTBOOK_MARGINAL)

        def f(subset):
            return {"hhi": hhi(exclude(market, ms.labels_of(subset)))}

        game = simple_game_from_rule(f, lambda o: o["hhi"] >= 1800.0, ms.n)
        winning = {mask for mask in range(8) if game.wins[mask]}
        assert winning == {0b011, 0b101, 0b111}

    def test_rule_failure_names_the_subset(self):
        def f(subset):
            return {"x": 0.0}

        def rule(outcomes):
            raise ValueError("bad rule")

        with pytest.raises(OutcomeEvaluationError, match=r"\{0\}|\{\}"):
            simple_game_from_rule(f, rule, 2)

    def test_outcome_failure_names_the_subset(self):
        def f(subset):
            if subset.bits == 0b110:
                raise RuntimeError("no market")
            return {"x": 0.0}

        with pytest.raises(OutcomeEvaluationError,
                           match=r"rule evaluation failed on subset \{1, 2\}"):
            simple_game_from_rule(f, lambda o: o["x"] > 0.0, 3)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            simple_game_from_rule(lambda s: {"x": 0.0}, lambda o: False, 25)


class TestSspi:
    def test_textbook_power_indices_are_exact(self):
        market = Market(TEXTBOOK_SALES)
        ms = MarginalSet(TEXTBOOK_MARGINAL)

        def f(subset):
            return {"hhi": hhi(exclude(market, ms.labels_of(subset)))}

        game = simple_game_from_rule(f, lambda o: o["hhi"] >= 1800.0, ms.n)
        assert sspi(game) == TEXTBOOK_SSPI

    def test_dictator(self):
        flags = {mask: bool(mask & 0b10) for mask in range(8)}
        values = sspi(_game(3, flags))
        assert values == (0.0, 1.0, 0.0)

    def test_weighted_majority_matches_pivot_counting(self):
        weights = (4, 2, 1, 1, 1)
        quota = 5
        n = len(weights)
        flags = {
            mask: sum(w for i, w in enumerate(weights) if mask >> i & 1) >= quota
            for mask in range(1 << n)
        }
        game = _game(n, flags)
        pivots = [0] * n
        for perm in itertools.permutations(range(n)):
            running = 0
            for player in perm:
                running += weights[player]
                if running >= quota:
                    pivots[player] += 1
                    break
        expected = tuple(
            float(Fraction(p, math.factorial(n))) for p in pivots
        )
        assert sspi(game) == expected

    def test_indices_sum_to_one_for_proper_games(self):
        flags = {mask: mask.bit_count() >= 2 for mask in range(8)}
        values = sspi(_game(3, flags))
        assert sum(values) == pytest.approx(1.0, abs=1e-12)

    def test_constant_game_has_zero_power_everywhere(self):
        always = _game(2, {m: True for m in range(4)})
        assert sspi(always) == (0.0, 0.0)
        never = _game(2, {m: False for m in range(4)})
        assert sspi(never) == (0.0, 0.0)

    def test_empty_game(self):
        assert sspi(_game(0, {0: False})) == ()

    def test_large_game_float_fallback(self):
        # A 21-player dictator: the indices are exactly (1, 0, ..., 0).
        n = 21
        wins = np.zeros(1 << n, dtype=np.uint8)
        wins[np.arange(1 << n) & 1 == 1] = 1
        values = sspi(SimpleGame(n=n, wins=wins))
        assert values == (1.0,) + (0.0,) * (n - 1)

    def test_degenerate_at_origin_fallback_is_shift_invariant(self):
        # All-winning 21-player game: the 0/1 table is constant, so every
        # player's power is exactly zero.
        n = 21
        wins = np.ones(1 << n, dtype=np.uint8)
        values = sspi(SimpleGame(n=n, wins=wins))
        assert values == (0.0,) * n

    def test_symmetric_majority_is_exact_beyond_twenty_players(self):
        # 21 symmetric players, 11 to win: each index is exactly 1/21.
        n = 21
        masks = np.arange(1 << n, dtype=np.int64)
        size = np.zeros(1 << n, dtype=np.int64)
        for i in range(n):
            size += (masks >> i) & 1
        values = sspi(SimpleGame(n=n, wins=(size >= 11).astype(np.uint8)))
        assert values == (1 / 21,) * n
        assert math.fsum(values) == 1.0


def sspi_by_permutations(wins: list[int], n: int) -> list[Fraction]:
    """Independent oracle: average 0/1 marginal contribution over all n!
    orders, in exact rationals."""
    totals = [0] * n
    for perm in itertools.permutations(range(n)):
        mask = 0
        for player in perm:
            grown = mask | 1 << player
            totals[player] += wins[grown] - wins[mask]
            mask = grown
    return [Fraction(t, math.factorial(n)) for t in totals]


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=60, deadline=None)
def test_sspi_matches_permutation_oracle(n, data):
    size = 1 << n
    # wins[0] is drawn too, so degenerate-at-origin games are covered.
    wins = data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
    game = SimpleGame(n=n, wins=np.array(wins, dtype=np.uint8))
    oracle = sspi_by_permutations(wins, n)
    assert sspi(game) == tuple(float(v) for v in oracle)


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=60, deadline=None)
def test_shapley_axioms_property(n, data):
    size = 1 << n
    raw = data.draw(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=size, max_size=size,
        )
    )
    raw[0] = 0.0
    game = CoalitionalGame.from_table(raw)
    res = shapley_exact(game)
    # Efficiency.
    assert abs(res.efficiency_residual) <= 1e-9 * max(1.0, abs(res.grand_value))
    # Additivity against the doubled game.
    doubled = shapley_exact(CoalitionalGame.from_table([2 * v for v in raw]))
    for a, b in zip(doubled.values, res.values):
        assert a == pytest.approx(2 * b, abs=1e-9)
