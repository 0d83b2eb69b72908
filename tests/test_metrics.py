"""Concentration metrics, pricing pressure, and the presumption rule."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mktsens import (
    DataError,
    DegenerateMarketError,
    MarginData,
    Market,
    MergerSpec,
    PresumptionRule,
    cmcr,
    concentration_ratio,
    delta_hhi,
    diversion_ratio,
    exclude,
    hhi,
    merger_outcomes,
    post_merger_hhi,
    presumption,
    shares,
    upp,
)
from mktsens.metrics import merge_firms
from tests.conftest import TEXTBOOK_HHI, TEXTBOOK_SALES

positive_sales = st.dictionaries(
    st.sampled_from([f"f{i}" for i in range(10)]),
    st.floats(min_value=0.5, max_value=1e6, allow_nan=False),
    min_size=3,
    max_size=10,
)


class TestMarket:
    def test_cleans_and_exposes_sales(self):
        m = Market({"a": 1, "b": 2.5})
        assert m.firms == ("a", "b")
        assert m.total() == 3.5
        assert m.require("a") == 1.0

    def test_negative_sales_rejected(self):
        with pytest.raises(DataError):
            Market({"a": -1.0})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_sales_rejected(self, value):
        with pytest.raises(DataError, match="non-finite sales"):
            Market({"a": 1.0, "b": value})

    def test_zero_sales_firm_is_allowed(self):
        m = Market({"a": 0.0, "b": 10.0})
        assert shares(m) == {"a": 0.0, "b": 1.0}

    def test_unknown_firm(self):
        with pytest.raises(DataError):
            Market({"a": 1.0}).require("b")


class TestMergerSpec:
    def test_self_merger_rejected(self):
        with pytest.raises(ValueError):
            MergerSpec("a", "a")
        with pytest.raises(ValueError):
            MergerSpec("", "a")


class TestPresumptionRule:
    def test_defaults(self):
        rule = PresumptionRule()
        assert rule.post_hhi_threshold == 1800.0
        assert rule.delta_hhi_threshold == 100.0
        assert rule.merged_share_threshold == 0.30
        assert rule.use_share_criterion is False

    def test_validation(self):
        with pytest.raises(ValueError):
            PresumptionRule(post_hhi_threshold=-1.0)
        with pytest.raises(ValueError):
            PresumptionRule(merged_share_threshold=0.0)
        with pytest.raises(ValueError):
            PresumptionRule(merged_share_threshold=1.5)

    @pytest.mark.parametrize("key", ["post_hhi_threshold", "delta_hhi_threshold"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_thresholds_must_be_finite(self, key, value):
        with pytest.raises(ValueError, match="HHI thresholds must be"):
            PresumptionRule(**{key: value})


class TestMarginData:
    def test_margin(self):
        md = MarginData({"a": 10.0}, {"a": 6.0})
        assert md.margin("a") == pytest.approx(0.4)
        assert md.price("a") == 10.0
        assert md.cost("a") == 6.0

    def test_firm_sets_must_match(self):
        with pytest.raises(ValueError):
            MarginData({"a": 10.0}, {"b": 5.0})

    def test_price_and_cost_bounds(self):
        with pytest.raises(ValueError):
            MarginData({"a": 0.0}, {"a": 0.0})
        with pytest.raises(ValueError):
            MarginData({"a": 10.0}, {"a": 11.0})
        with pytest.raises(ValueError):
            MarginData({"a": 10.0}, {"a": -1.0})

    def test_missing_firm(self):
        md = MarginData({"a": 10.0}, {"a": 5.0})
        with pytest.raises(DataError):
            md.price("b")


class TestShares:
    def test_textbook_share(self):
        s = shares(Market(TEXTBOOK_SALES))
        assert s["A"] == 15.0 / 78.0

    def test_zero_total_is_degenerate(self):
        with pytest.raises(DegenerateMarketError):
            shares(Market({"a": 0.0}))

    def test_total_that_overflows_is_refused(self):
        # Each firm's sales are finite; their sum is not.
        with pytest.raises(DataError, match="too large for a float"):
            shares(Market({"a": 1e308, "b": 1e308, "c": 5.0}))

    @given(positive_sales)
    @settings(max_examples=80, deadline=None)
    def test_sum_to_one(self, sales):
        assert sum(shares(Market(sales)).values()) == pytest.approx(1.0, abs=1e-12)

    @given(positive_sales, st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=80, deadline=None)
    def test_rescaling_invariance(self, sales, scale):
        base = Market(sales)
        scaled = Market({f: v * scale for f, v in sales.items()})
        for f in base.firms:
            assert shares(scaled)[f] == pytest.approx(shares(base)[f], rel=1e-12)
        assert hhi(scaled) == pytest.approx(hhi(base), rel=1e-12)


class TestHHI:
    def test_textbook_full_market(self):
        assert hhi(Market(TEXTBOOK_SALES)) == TEXTBOOK_HHI[()]

    @pytest.mark.parametrize("k", [1, 2, 4, 5, 10])
    def test_equal_firms(self, k):
        m = Market({f"f{i}": 7.0 for i in range(k)})
        assert hhi(m) == pytest.approx(10_000.0 / k, rel=1e-12)

    def test_monopoly(self):
        assert hhi(Market({"a": 3.0})) == pytest.approx(10_000.0)

    def test_squared_shares_are_summed_left_to_right(self):
        # From Python 3.12 the built-in sum compensates its rounding and
        # reads 5029.585798816568 here; the reports must not depend on that.
        assert hhi(Market({"a": 8.0, "b": 26.0, "c": 5.0})) == 5029.585798816567


class TestMergeAndDelta:
    def test_merge_firms_combines_sales(self):
        merged = merge_firms(Market({"a": 1.0, "b": 2.0, "c": 3.0}),
                             MergerSpec("a", "b"))
        assert merged.sales == {"c": 3.0, "a+b": 3.0}

    def test_merged_id_collision(self):
        with pytest.raises(DataError):
            merge_firms(Market({"a": 1.0, "b": 2.0, "a+b": 1.0}),
                        MergerSpec("a", "b"))

    def test_textbook_merger(self):
        m = Market(TEXTBOOK_SALES)
        g = MergerSpec("A", "B")
        assert delta_hhi(m, g) == pytest.approx(739.6449704142012, abs=1e-9)
        assert post_merger_hhi(m, g) == pytest.approx(2179.4871794871797, abs=1e-9)

    @given(positive_sales)
    @settings(max_examples=120, deadline=None)
    def test_post_equals_pre_plus_delta(self, sales):
        firms = sorted(sales)
        if len(firms) < 2:
            return
        m = Market(sales)
        g = MergerSpec(firms[0], firms[1])
        assert post_merger_hhi(m, g) - hhi(m) == pytest.approx(
            delta_hhi(m, g), abs=1e-9
        )

    def test_missing_party_rejected(self):
        with pytest.raises(DataError):
            delta_hhi(Market({"a": 1.0}), MergerSpec("a", "b"))


class TestConcentrationRatio:
    def test_textbook_pair(self):
        m = Market(TEXTBOOK_SALES)
        assert concentration_ratio(m, ["A", "B"]) == \
            pytest.approx(0.38461538461538464, abs=1e-12)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            concentration_ratio(Market(TEXTBOOK_SALES), ["A", "A"])

    def test_unknown_firm_rejected(self):
        with pytest.raises(DataError):
            concentration_ratio(Market(TEXTBOOK_SALES), ["Z"])

    def test_all_firms_sum_to_one(self):
        m = Market(TEXTBOOK_SALES)
        assert concentration_ratio(m, m.firms) == pytest.approx(1.0, abs=1e-12)


class TestDiversion:
    def test_textbook_pair(self):
        m = Market(TEXTBOOK_SALES)
        assert diversion_ratio(m, "A", "B") == \
            pytest.approx(0.2380952380952381, abs=1e-12)

    def test_same_firm_rejected(self):
        with pytest.raises(ValueError):
            diversion_ratio(Market(TEXTBOOK_SALES), "A", "A")

    def test_full_share_is_degenerate(self):
        with pytest.raises(DegenerateMarketError):
            diversion_ratio(Market({"a": 5.0, "b": 0.0}), "a", "b")

    @given(positive_sales)
    @settings(max_examples=80, deadline=None)
    def test_diversions_from_one_firm_sum_to_one(self, sales):
        firms = sorted(sales)
        if len(firms) < 2:
            return
        m = Market(sales)
        j = firms[0]
        total = sum(diversion_ratio(m, j, k) for k in firms if k != j)
        assert total == pytest.approx(1.0, abs=1e-9)


class TestUpp:
    def test_margin_times_diversion(self):
        m = Market({"j": 2.0, "k": 2.0, "o": 6.0})
        md = MarginData({"j": 10.0, "k": 8.0}, {"j": 5.0, "k": 6.0})
        # D(j->k) = 0.2/(1 - 0.2) = 0.25; margin on k is 2.0.
        assert upp(m, md, "j", "k") == pytest.approx(0.5, abs=1e-12)

    def test_zero_margin_means_zero_pressure(self):
        m = Market({"j": 2.0, "k": 2.0, "o": 6.0})
        md = MarginData({"j": 10.0, "k": 8.0}, {"j": 5.0, "k": 8.0})
        assert upp(m, md, "j", "k") == 0.0

    def test_missing_margin_data(self):
        m = Market({"j": 2.0, "k": 2.0, "o": 6.0})
        md = MarginData({"j": 10.0}, {"j": 5.0})
        with pytest.raises(DataError):
            upp(m, md, "j", "k")


class TestCmcr:
    def _symmetric_market(self):
        # Shares 1/3 each for j and k: both diversions are 0.5.
        return Market({"j": 1.0, "k": 1.0, "o": 1.0})

    def test_fully_symmetric_half_margins(self):
        m = self._symmetric_market()
        md = MarginData({"j": 10.0, "k": 10.0}, {"j": 5.0, "k": 5.0})
        # m*d*(1+1)/((1-m)(1-d*d)) with m=d=0.5 collapses to exactly 1.
        assert cmcr(m, md, "j", "k") == pytest.approx(1.0, abs=1e-12)

    def test_zero_margins_need_no_reduction(self):
        m = self._symmetric_market()
        md = MarginData({"j": 10.0, "k": 10.0}, {"j": 10.0, "k": 10.0})
        assert cmcr(m, md, "j", "k") == 0.0

    def test_zero_diversion_needs_no_reduction(self):
        m = Market({"j": 1.0, "k": 0.0, "o": 1.0})
        md = MarginData({"j": 10.0, "k": 10.0}, {"j": 5.0, "k": 5.0})
        assert cmcr(m, md, "j", "k") == 0.0

    def test_symmetry_under_party_swap(self):
        m = self._symmetric_market()
        md = MarginData({"j": 12.0, "k": 12.0}, {"j": 9.0, "k": 9.0})
        assert cmcr(m, md, "j", "k") == pytest.approx(
            cmcr(m, md, "k", "j"), abs=1e-12
        )

    def test_unbounded_cross_diversion(self):
        m = Market({"j": 1.0, "k": 1.0})
        md = MarginData({"j": 10.0, "k": 10.0}, {"j": 5.0, "k": 5.0})
        with pytest.raises(DegenerateMarketError):
            cmcr(m, md, "j", "k")

    def test_full_margin_is_degenerate(self):
        m = self._symmetric_market()
        md = MarginData({"j": 10.0, "k": 10.0}, {"j": 0.0, "k": 5.0})
        with pytest.raises(DegenerateMarketError):
            cmcr(m, md, "j", "k")


class TestExclude:
    def test_empty_exclusion_is_identity(self):
        m = Market(TEXTBOOK_SALES)
        assert exclude(m, []).sales == m.sales

    def test_removes_named_firms(self):
        m = Market(TEXTBOOK_SALES)
        out = exclude(m, ["1", "3"])
        assert set(out.sales) == {"A", "B", "C", "D", "E", "2"}

    def test_all_marginal_members_leave_the_core(self):
        m = Market(TEXTBOOK_SALES)
        out = exclude(m, ["1", "2", "3"])
        assert set(out.sales) == {"A", "B", "C", "D", "E"}

    def test_protected_firm_cannot_be_excluded(self):
        m = Market(TEXTBOOK_SALES)
        with pytest.raises(DataError):
            exclude(m, ["A"], protected=("A", "B"))

    def test_unknown_label_rejected(self):
        with pytest.raises(DataError):
            exclude(Market(TEXTBOOK_SALES), ["zz"])


class TestPresumption:
    def test_reference_decisions(self):
        assert presumption(2152.0, 456.0) is True
        assert presumption(1576.0, 293.0) is False

    def test_boundary_is_strict(self):
        assert presumption(1800.0, 100.0) is False
        assert presumption(1800.0, 456.0) is False
        assert presumption(2152.0, 100.0) is False
        assert presumption(1800.0 + 1e-9, 100.0 + 1e-9) is True

    def test_share_criterion_disabled_by_default(self):
        assert presumption(1000.0, 456.0, merged_share=0.9) is False

    def test_share_criterion_when_enabled(self):
        rule = PresumptionRule(use_share_criterion=True)
        assert presumption(1000.0, 456.0, merged_share=0.31, rule=rule) is True
        assert presumption(1000.0, 456.0, merged_share=0.30, rule=rule) is False
        assert presumption(1000.0, 99.0, merged_share=0.9, rule=rule) is False
        assert presumption(1000.0, 456.0, merged_share=None, rule=rule) is False

    def test_arrays_match_scalars(self):
        post = np.array([2152.0, 1800.0, 1000.0, 1000.0, 1800.0 + 1e-9])
        delta = np.array([456.0, 456.0, 456.0, 99.0, 100.0 + 1e-9])
        share = np.array([0.2, 0.2, 0.31, 0.9, 0.1])
        for rule in (PresumptionRule(),
                     PresumptionRule(use_share_criterion=True)):
            flags = presumption(post, delta, share, rule)
            assert flags.dtype == np.bool_
            assert flags.tolist() == [
                presumption(p, d, s, rule)
                for p, d, s in zip(post.tolist(), delta.tolist(),
                                   share.tolist())
            ]

    @given(
        st.floats(min_value=0, max_value=4000),
        st.floats(min_value=0, max_value=800),
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=2000),
        st.floats(min_value=0, max_value=400),
        st.floats(min_value=0, max_value=0.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_every_argument(self, post, dh, share, dp, dd, ds):
        rule = PresumptionRule(use_share_criterion=True)
        before = presumption(post, dh, share, rule)
        after = presumption(post + dp, dh + dd, min(1.0, share + ds), rule)
        assert after >= before


class TestMergerOutcomes:
    def test_matches_direct_metrics(self):
        m = Market(TEXTBOOK_SALES)
        g = MergerSpec("A", "B")
        post, delta, share = merger_outcomes(m, g)
        assert post == pytest.approx(post_merger_hhi(m, g), abs=1e-9)
        assert delta == pytest.approx(delta_hhi(m, g), abs=1e-9)
        assert share == pytest.approx(concentration_ratio(m, ["A", "B"]), abs=1e-12)

    def test_absent_party_counts_as_zero_sales(self):
        m = Market({"a": 4.0, "c": 6.0})
        post, delta, share = merger_outcomes(m, MergerSpec("a", "b"))
        assert delta == 0.0
        assert share == pytest.approx(0.4)
        assert post == pytest.approx(hhi(m), abs=1e-9)

    def test_empty_market_is_degenerate(self):
        with pytest.raises(DegenerateMarketError):
            merger_outcomes(Market({"a": 0.0}), MergerSpec("a", "b"))


def _removal_law_exact(sales: dict[str, int], firm: str) -> tuple[bool, bool]:
    """(law predicts weak increase, HHI actually weakly increases), exactly."""
    t = sum(sales.values())
    q = sum(x * x for x in sales.values())
    x_j = sales[firm]
    law = x_j * (q + t * t) <= 2 * q * t
    rest = {f: x for f, x in sales.items() if f != firm}
    h_in = Fraction(q, t * t)
    h_out = Fraction(sum(x * x for x in rest.values()),
                     sum(rest.values()) ** 2)
    return law, h_out >= h_in


class TestHhiRemovalLaw:
    def test_exact_equality_case(self):
        # Removing the 4 from {1,1,4} leaves HHI at exactly 5000 either way.
        law, rises = _removal_law_exact({"a": 1, "b": 1, "c": 4}, "c")
        assert law and rises
        m = Market({"a": 1.0, "b": 1.0, "c": 4.0})
        assert hhi(m) == pytest.approx(5000.0, abs=1e-9)
        assert hhi(exclude(m, ["c"])) == pytest.approx(5000.0, abs=1e-9)

    def test_removing_a_small_firm_raises_hhi(self):
        law, rises = _removal_law_exact({"a": 50, "b": 50, "c": 1}, "c")
        assert law and rises

    def test_removing_a_dominant_firm_lowers_hhi(self):
        law, rises = _removal_law_exact({"a": 90, "b": 5, "c": 5}, "a")
        assert not law and not rises

    @given(
        st.lists(st.integers(min_value=1, max_value=50), min_size=3, max_size=8),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_iff_in_both_directions(self, values, data):
        sales = {f"f{i}": v for i, v in enumerate(values)}
        firm = data.draw(st.sampled_from(sorted(sales)))
        law, rises = _removal_law_exact(sales, firm)
        assert law == rises
        # The float implementation agrees with exact rationals.
        m = Market({f: float(v) for f, v in sales.items()})
        t = sum(sales.values())
        q = sum(v * v for v in sales.values())
        assert hhi(m) == pytest.approx(float(10_000 * Fraction(q, t * t)),
                                       rel=1e-12)
