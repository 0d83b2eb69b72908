"""Geospatial circle markets and the local sensitivity sweep."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mktsens import (
    DataError,
    MarginalSet,
    MergerSpec,
    PresumptionRule,
    Store,
    StoreUniverse,
    analyze_local,
    chain_market,
    circle_market,
    count_presumptive,
    haversine,
    miles_to_km,
    sspi_structure_table,
)
from mktsens.geomarket import EARTH_RADIUS_KM, MILES_TO_KM
from tests.conftest import LOCAL_CLUSTER_1, local_stores, scalar_circle_ids
from tests.test_acceptance import brute_force_local


def _store(sid="s1", chain="c1", fmt="supermarket", lat=45.0, lon=-120.0,
           rev=10.0):
    return Store(sid, chain, chain.title(), fmt, lat, lon, rev)


class TestStore:
    def test_bounds_validation(self):
        with pytest.raises(DataError):
            _store(lat=91.0)
        with pytest.raises(DataError):
            _store(lon=-181.0)
        with pytest.raises(DataError):
            _store(rev=-1.0)

    def test_position(self):
        assert _store(lat=10.0, lon=20.0).position == (10.0, 20.0)


class TestStoreUniverse:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError):
            StoreUniverse((_store("x"), _store("x")))

    def test_lookup_and_chain_listing(self):
        u = StoreUniverse((
            _store("s1", "acme"), _store("s2", "bolt"), _store("s3", "acme"),
        ))
        assert u.store("s2").chain_id == "bolt"
        with pytest.raises(DataError):
            u.store("zz")
        assert u.chains() == {"acme": "Acme", "bolt": "Bolt"}
        assert [s.store_id for s in u.of_chains(["acme"])] == ["s1", "s3"]
        assert len(u) == 3

    def test_first_chain_name_spelling_wins(self):
        u = StoreUniverse((
            Store("s1", "acme", "Acme Markets", "supermarket", 0, 0, 1.0),
            Store("s2", "acme", "ACME", "supermarket", 0, 0, 1.0),
        ))
        assert u.chains() == {"acme": "Acme Markets"}


class TestHaversine:
    def test_zero_distance(self):
        assert haversine((47.6, -122.3), (47.6, -122.3)) == 0.0

    def test_one_degree_at_the_equator(self):
        assert haversine((0.0, 0.0), (0.0, 1.0)) == \
            pytest.approx(111.1950802335329, abs=1e-9)

    def test_symmetry(self):
        a, b = (47.61, -122.33), (45.52, -122.68)
        assert haversine(a, b) == pytest.approx(haversine(b, a), abs=1e-9)

    def test_antipodal_points_do_not_overflow(self):
        import math

        d = haversine((0.0, 0.0), (0.0, 180.0))
        assert d == pytest.approx(math.pi * 6371.0088, rel=1e-12)

    def test_bounds_validation(self):
        with pytest.raises(DataError):
            haversine((91.0, 0.0), (0.0, 0.0))
        with pytest.raises(DataError):
            haversine((0.0, 0.0), (0.0, 181.0))

    @given(
        st.floats(min_value=-89, max_value=89),
        st.floats(min_value=-179, max_value=179),
        st.floats(min_value=-89, max_value=89),
        st.floats(min_value=-179, max_value=179),
    )
    @settings(max_examples=100, deadline=None)
    def test_nonnegative_and_bounded(self, lat1, lon1, lat2, lon2):
        import math

        d = haversine((lat1, lon1), (lat2, lon2))
        assert 0.0 <= d <= math.pi * 6371.0088 + 1e-6


class TestMilesToKm:
    def test_exact_factor(self):
        assert miles_to_km(1.0) == 1.609344
        assert miles_to_km(5.0) == pytest.approx(8.04672, abs=1e-12)


class TestCircleMarket:
    def _universe(self):
        # Stores strung out eastward from a center, roughly 4.3 miles apart.
        stores = [
            _store("s0", "acme", lat=45.0, lon=-120.0),
            _store("s1", "bolt", lat=45.0, lon=-119.9),
            _store("s2", "citygrocer", lat=45.0, lon=-119.8),
            _store("s3", "grandway", lat=45.0, lon=-119.7),
        ]
        return StoreUniverse(tuple(stores))

    def test_members_within_radius_sorted_by_id(self):
        u = self._universe()
        circle = circle_market(u, "s0", 5.0)
        assert circle.center_id == "s0"
        assert circle.member_ids == ("s0", "s1")
        wider = circle_market(u, "s0", 10.0)
        assert wider.member_ids == ("s0", "s1", "s2")

    def test_center_is_always_a_member(self):
        u = self._universe()
        assert circle_market(u, "s0", 0.0).member_ids == ("s0",)

    def test_center_by_store_object(self):
        u = self._universe()
        anchor = u.store("s1")
        circle = circle_market(u, anchor, 5.0)
        assert circle.center is anchor
        assert "s0" in circle.member_ids and "s2" in circle.member_ids

    def test_unknown_center_rejected(self):
        with pytest.raises(DataError):
            circle_market(self._universe(), "zz", 5.0)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            circle_market(self._universe(), "s0", -1.0)

    @given(st.floats(min_value=0, max_value=20), st.floats(min_value=0, max_value=20))
    @settings(max_examples=60, deadline=None)
    def test_membership_grows_with_radius(self, r1, r2):
        u = self._universe()
        lo, hi = sorted((r1, r2))
        inner = set(circle_market(u, "s0", lo).member_ids)
        outer = set(circle_market(u, "s0", hi).member_ids)
        assert inner <= outer


def _nudged(value: float, ulps: int) -> float:
    """``value`` moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


class TestCircleBoundary:
    """Membership at the radius must equal the scalar haversine decision."""

    @pytest.mark.parametrize("radius_miles", [0.5, 1.0, 5.0, 10.0, 50.0])
    def test_meridian_offsets_match_scalar(self, radius_miles):
        # The arc along a meridian is analytic: radius_km / EARTH_RADIUS_KM
        # radians of latitude.  Stores sit there exactly and 1-2 ulps off,
        # north and south of centers spread over many latitudes.
        radius_km = miles_to_km(radius_miles)
        arc_deg = math.degrees(radius_km / EARTH_RADIUS_KM)
        decisions = set()
        for lat0 in (k * 0.3917 - 78.0 for k in range(400)):
            stores = [_store("center", lat=lat0, lon=7.25)]
            for sign in (1, -1):
                for ulps in (-2, -1, 0, 1, 2):
                    lat = _nudged(lat0 + sign * arc_deg, ulps)
                    stores.append(_store(f"{sign:+d}{ulps:+d}", lat=lat,
                                         lon=7.25))
            u = StoreUniverse(tuple(stores))
            circle = circle_market(u, "center", radius_miles)
            expected = scalar_circle_ids(u, u.store("center"), radius_miles)
            assert circle.member_ids == expected, lat0
            decisions.update(s.store_id in expected for s in stores[1:])
        assert decisions == {True, False}

    def test_radius_between_vector_and_scalar_distance(self):
        # numpy's vector sin/arcsin and libm's disagree in the last bit for a
        # few points in ten thousand.  For each such store, put the radius on
        # the smaller of its two distances, where a vector-only decision and
        # the scalar one differ.
        rng = np.random.default_rng(7)
        lat0, lon0 = 41.3, -87.6
        lats = lat0 + rng.uniform(-0.1, 0.1, 20000)
        lons = lon0 + rng.uniform(-0.1, 0.1, 20000)
        phi, lat = math.radians(lat0), np.radians(lats)
        h = (np.sin((lat - phi) / 2.0) ** 2 + math.cos(phi) * np.cos(lat)
             * np.sin(np.radians(lons - lon0) / 2.0) ** 2)
        vector = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(h))
        center = _store("center", lat=lat0, lon=lon0)
        u = StoreUniverse((center,) + tuple(
            _store(f"e{i:05d}", lat=float(a), lon=float(b))
            for i, (a, b) in enumerate(zip(lats, lons))
        ))
        for a, b, v in zip(lats, lons, vector):
            d = haversine(center.position, (a, b))
            radius_miles = min(d, v) / MILES_TO_KM
            if d == v or miles_to_km(radius_miles) != min(d, v):
                continue
            circle = circle_market(u, center, radius_miles)
            assert circle.member_ids == scalar_circle_ids(u, center,
                                                          radius_miles)

    def test_zero_radius_keeps_only_colocated_stores(self):
        center = _store("m", lat=45.0, lon=-120.0)
        u = StoreUniverse((
            center,
            _store("a", lat=45.0, lon=-120.0),
            _store("b", lat=_nudged(45.0, 1), lon=-120.0),
            _store("c", lat=45.0, lon=_nudged(-120.0, -1)),
            _store("d", lat=_nudged(45.0, -1), lon=_nudged(-120.0, 1)),
            _store("z", lat=45.0, lon=-120.0),
        ))
        circle = circle_market(u, "m", 0.0)
        assert circle.member_ids == ("a", "m", "z")
        assert circle.member_ids == scalar_circle_ids(u, center, 0.0)


@st.composite
def _near_radius_universe(draw):
    """A center plus stores scattered within a hair of the circle's edge."""
    lat0 = draw(st.floats(min_value=-75, max_value=75))
    lon0 = draw(st.floats(min_value=-170, max_value=170))
    radius_miles = draw(st.sampled_from([0.0, 0.25, 1.0, 5.0, 30.0]))
    arc = miles_to_km(radius_miles) / EARTH_RADIUS_KM
    phi0, lam0 = math.radians(lat0), math.radians(lon0)
    stores = [_store("center", lat=lat0, lon=lon0)]
    for i in range(draw(st.integers(min_value=1, max_value=25))):
        bearing = draw(st.floats(min_value=0, max_value=2 * math.pi))
        rel = draw(st.sampled_from([-1e-9, -1e-13, 0.0, 1e-13, 1e-9])
                   | st.floats(min_value=-1e-6, max_value=1e-6))
        d = arc * (1.0 + rel)
        phi = math.asin(math.sin(phi0) * math.cos(d)
                        + math.cos(phi0) * math.sin(d) * math.cos(bearing))
        lam = lam0 + math.atan2(
            math.sin(bearing) * math.sin(d) * math.cos(phi0),
            math.cos(d) - math.sin(phi0) * math.sin(phi),
        )
        lat = _nudged(math.degrees(phi), draw(st.integers(-2, 2)))
        stores.append(_store(f"s{i:03d}", lat=lat, lon=math.degrees(lam)))
    return StoreUniverse(tuple(stores)), radius_miles


class TestCircleMarketOracle:
    @given(_near_radius_universe())
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_selection(self, case):
        u, radius_miles = case
        circle = circle_market(u, "center", radius_miles)
        assert circle.member_ids == scalar_circle_ids(
            u, u.store("center"), radius_miles
        )

    def test_analyze_local_matches_brute_force(self, merger):
        # 300 stores in a ~30 km square, so each 5-mile circle holds dozens.
        rng = random.Random(1)
        chains = (
            [("acme", "supermarket"), ("bolt", "supercenter")]
            + [(f"g{i}", "supermarket") for i in range(6)]
            + [("clubby", "club"), ("naturo", "natural"), ("limitz", "limited")]
        )
        stores = []
        for k in range(300):
            # Every chain gets two stores before the rest are drawn.
            chain, fmt = chains[k % 11] if k < 22 else rng.choice(chains)
            stores.append(_store(
                f"s{k:03d}", chain, fmt=fmt,
                lat=45.0 + rng.uniform(0, 0.27),
                lon=-120.0 + rng.uniform(0, 0.38),
                rev=rng.uniform(1.0, 50.0),
            ))
        formats = ("club", "natural", "limited")
        u = StoreUniverse(tuple(stores), defendant_chains=("acme", "bolt"))
        results = analyze_local(u, merger, formats, radius_miles=5.0)
        oracle = brute_force_local(stores, ("acme", "bolt"), formats, 5.0)
        assert [r.center_id for r in results] == sorted(oracle)
        assert 0 < sum(r.sensitive for r in results) < len(results)
        for r in results:
            flags, sensitive, power = oracle[r.center_id]
            assert r.sensitive == sensitive
            assert {o.subset.bits: o.flagged for o in r.outcomes} == flags
            if sensitive:
                assert r.sspi == power


class TestChainMarket:
    def test_aggregates_by_chain(self):
        stores = (
            _store("s1", "acme", rev=4.0),
            _store("s2", "acme", rev=6.0),
            _store("s3", "bolt", rev=5.0),
        )
        market = chain_market(stores, label="demo")
        assert market.sales == {"acme": 10.0, "bolt": 5.0}
        assert market.label == "demo"

    def test_excluded_formats_are_dropped(self):
        stores = (
            _store("s1", "acme", fmt="supermarket", rev=4.0),
            _store("s2", "clubby", fmt="club", rev=6.0),
        )
        market = chain_market(stores, excluded_formats=("club",))
        assert market.sales == {"acme": 4.0}

    def test_empty_input(self):
        assert chain_market(()).sales == {}


def _cluster1_expected(excluded: tuple[str, ...]) -> tuple[float, float, float]:
    """Recompute cluster-1 outcomes from first principles."""
    sales: dict[str, float] = {}
    for sid, cid, name, fmt, rev in LOCAL_CLUSTER_1:
        if fmt not in excluded:
            sales[cid] = sales.get(cid, 0.0) + rev
    total = sum(sales.values())
    s = {c: v / total for c, v in sales.items()}
    merged = s["acme"] + s["bolt"]
    pre = 1e4 * sum(v * v for v in s.values())
    delta = 1e4 * 2.0 * s["acme"] * s["bolt"]
    post = pre - 1e4 * (s["acme"] ** 2 + s["bolt"] ** 2) + 1e4 * merged**2
    return post, delta, merged


class TestAnalyzeLocal:
    def test_fixture_sweep(self, local_universe, merger):
        ms = MarginalSet(("club", "natural", "limited"))
        results = analyze_local(local_universe, merger, ms, radius_miles=5.0)
        assert [r.center_id for r in results] == ["a01", "a02", "b01", "b02"]
        by_center = {r.center_id: r for r in results}

        cluster1 = by_center["a01"]
        assert cluster1.member_count == 7
        assert cluster1.sensitive
        assert cluster1.sspi == (1.0, 0.0, 0.0)  # the club chain is a dictator
        for outcome in cluster1.outcomes:
            labels = ms.labels_of(outcome.subset)
            post, delta, share = _cluster1_expected(labels)
            assert outcome.post_hhi == pytest.approx(post, rel=1e-12)
            assert outcome.delta_hhi == pytest.approx(delta, rel=1e-12)
            assert outcome.merged_share == pytest.approx(share, rel=1e-12)
            assert outcome.flagged == ("club" in labels)

        cluster2 = by_center["a02"]
        assert cluster2.member_count == 4
        assert not cluster2.sensitive
        assert cluster2.sspi is None
        for outcome in cluster2.outcomes:
            assert outcome.delta_hhi == pytest.approx(50.0, rel=1e-12)
            assert not outcome.flagged

        # Twin centers in the same cluster see the same circle.
        assert by_center["b01"].sensitive
        assert by_center["b01"].sspi == (1.0, 0.0, 0.0)
        assert not by_center["b02"].sensitive

    def test_outcome_lookup(self, local_universe, merger):
        from mktsens import ExclusionSet

        ms = MarginalSet(("club", "natural", "limited"))
        results = analyze_local(local_universe, merger, ms, radius_miles=5.0)
        subset = ms.subset_of(("club",))
        assert results[0].outcome_for(subset).flagged
        with pytest.raises(KeyError):
            results[0].outcome_for(ExclusionSet(5, 1 << 4))

    def test_single_party_circles_are_skipped(self, merger):
        # An isolated acme store with no bolt nearby carries no overlap.
        stores = local_stores() + (
            _store("z99", "acme", lat=40.0, lon=-110.0),
        )
        u = StoreUniverse(stores, defendant_chains=("acme", "bolt"))
        results = analyze_local(
            u, merger, ("club", "natural", "limited"), radius_miles=5.0
        )
        assert [r.center_id for r in results] == ["a01", "a02", "b01", "b02"]

    def test_missing_party_chain_rejected(self, local_universe):
        with pytest.raises(DataError):
            analyze_local(local_universe, MergerSpec("acme", "nosuch"),
                          ("club",))

    def test_no_defendant_stores_rejected(self, merger):
        stores = tuple(s for s in local_stores())
        u = StoreUniverse(stores, defendant_chains=("grandway",))
        results = analyze_local(u, merger, ("club",), radius_miles=5.0)
        # grandway anchors exist, so circles are analyzed around them.
        assert [r.center_id for r in results] == ["g01", "g02"]
        empty = StoreUniverse(
            tuple(s for s in stores if s.chain_id != "grandway")
            + (_store("q1", "acme2"),),
            defendant_chains=("grandway",),
        )
        with pytest.raises(DataError):
            analyze_local(empty, MergerSpec("acme", "bolt"), ("club",))

    def test_party_with_zero_revenue_in_circle_still_evaluates(self, merger):
        stores = (
            _store("a1", "acme", rev=0.0),
            _store("b1", "bolt", rev=5.0),
            _store("g1", "grandway", rev=5.0),
        )
        u = StoreUniverse(stores, defendant_chains=("acme", "bolt"))
        results = analyze_local(u, merger, ("club",), radius_miles=5.0)
        assert len(results) == 2
        assert results[0].outcomes[0].merged_share == pytest.approx(0.5)

    def test_circle_left_with_no_revenue_is_a_data_error(self, merger):
        stores = (
            _store("a1", "acme", rev=0.0),
            _store("b1", "bolt", rev=0.0),
            _store("c1", "clubby", fmt="club", rev=10.0),
        )
        u = StoreUniverse(stores, defendant_chains=("acme", "bolt"))
        with pytest.raises(DataError, match="a1"):
            analyze_local(u, merger, ("club",), radius_miles=5.0)


class TestCountsAndStructure:
    def test_presumptive_counts(self, local_universe, merger):
        ms = MarginalSet(("club", "natural", "limited"))
        results = analyze_local(local_universe, merger, ms, radius_miles=5.0)
        assert count_presumptive(results, ms.subset_of(())) == 0
        assert count_presumptive(results, ms.subset_of(("club",))) == 2
        assert count_presumptive(results, ms.subset_of(("natural",))) == 0
        assert count_presumptive(
            results, ms.subset_of(("club", "natural", "limited"))
        ) == 2

    def test_structure_table(self, local_universe, merger):
        ms = MarginalSet(("club", "natural", "limited"))
        results = analyze_local(local_universe, merger, ms, radius_miles=5.0)
        assert sspi_structure_table(results) == (((1.0, 0.0, 0.0), 2),)

    def test_structure_table_sorts_by_count_then_vector(self):
        # Synthesized results: two power structures with different counts.
        from mktsens import LocalAnalysisResult

        def result(sid, sspi_vec):
            return LocalAnalysisResult(
                center=_store(sid), radius_miles=5.0, member_count=1,
                outcomes=(), sensitive=True, sspi=sspi_vec,
            )

        rows = sspi_structure_table((
            result("s1", (1.0, 0.0)),
            result("s2", (0.5, 0.5)),
            result("s3", (0.5, 0.5)),
        ))
        assert rows == (((0.5, 0.5), 2), ((1.0, 0.0), 1))
