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
    ExclusionSet,
    MarginalSet,
    MergerSpec,
    PresumptionRule,
    Store,
    StoreUniverse,
    analyze_local,
    chain_market,
    circle_market,
    haversine,
    miles_to_km,
    run_local,
    sspi_structure_table,
)
from mktsens.cli import main
from mktsens.geomarket import EARTH_RADIUS_KM, MILES_TO_KM
from tests.conftest import (
    LOCAL_CLUSTER_1,
    base_config_doc,
    local_stores,
    scalar_circle_ids,
    scalar_local_outcomes,
    write_inputs,
)
from tests.test_acceptance import brute_force_local
from tests.test_outcome_table import revenues, rules


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

    @pytest.mark.parametrize("rev", [math.nan, math.inf, -math.inf])
    def test_non_finite_revenue_rejected(self, rev):
        with pytest.raises(DataError, match="revenue is not finite"):
            _store(rev=rev)

    def test_nan_revenue_fails_before_any_circle_is_drawn(self):
        with pytest.raises(DataError, match="'a1': revenue is not finite"):
            StoreUniverse((_store("a1", "acme", rev=math.nan),
                           _store("b1", "bolt", rev=5.0)))

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
        u = StoreUniverse(tuple(stores))
        results = analyze_local(u, merger, formats, radius_miles=5.0)
        oracle = brute_force_local(stores, ("acme", "bolt"), formats, 5.0)
        assert [r.center_id for r in results] == sorted(oracle)
        assert 0 < sum(r.sensitive for r in results) < len(results)
        for r in results:
            flags, sensitive, power = oracle[r.center_id]
            assert r.sensitive == sensitive
            assert dict(enumerate(r.flags.tolist())) == flags
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
        for bits, (outcomes, flagged) in enumerate(
                zip(cluster1.table.tolist(), cluster1.flags.tolist())):
            labels = ms.labels_of(ExclusionSet(ms.n, bits))
            assert outcomes == pytest.approx(_cluster1_expected(labels),
                                             rel=1e-12)
            assert flagged == ("club" in labels)

        cluster2 = by_center["a02"]
        assert cluster2.member_count == 4
        assert not cluster2.sensitive
        assert cluster2.sspi is None
        assert cluster2.table[:, 1] == pytest.approx([50.0] * 8, rel=1e-12)
        assert not cluster2.flags.any()

        # Twin centers in the same cluster see the same circle.
        assert by_center["b01"].sensitive
        assert by_center["b01"].sspi == (1.0, 0.0, 0.0)
        assert not by_center["b02"].sensitive

    def test_outcome_lookup(self, local_universe, merger):
        # Rows are indexed by bitmask and read-only.
        ms = MarginalSet(("club", "natural", "limited"))
        results = analyze_local(local_universe, merger, ms, radius_miles=5.0)
        assert results[0].table.shape == (8, 3)
        assert results[0].flags.shape == (8,)
        assert results[0].flags[ms.subset_of(("club",)).bits]
        for array in (results[0].table, results[0].flags):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_single_party_circles_are_skipped(self, merger):
        # An isolated acme store with no bolt nearby carries no overlap.
        stores = local_stores() + (
            _store("z99", "acme", lat=40.0, lon=-110.0),
        )
        u = StoreUniverse(stores)
        results = analyze_local(
            u, merger, ("club", "natural", "limited"), radius_miles=5.0
        )
        assert [r.center_id for r in results] == ["a01", "a02", "b01", "b02"]

    def test_missing_party_chain_rejected(self, local_universe):
        with pytest.raises(DataError):
            analyze_local(local_universe, MergerSpec("acme", "nosuch"),
                          ("club",))

    def test_party_with_zero_revenue_in_circle_still_evaluates(self, merger):
        stores = (
            _store("a1", "acme", rev=0.0),
            _store("b1", "bolt", rev=5.0),
            _store("g1", "grandway", rev=5.0),
        )
        u = StoreUniverse(stores)
        results = analyze_local(u, merger, ("club",), radius_miles=5.0)
        assert len(results) == 2
        assert results[0].table[0, 2] == pytest.approx(0.5)

    def test_circle_left_with_no_revenue_is_a_data_error(self, merger):
        stores = (
            _store("a1", "acme", rev=0.0),
            _store("b1", "bolt", rev=0.0),
            _store("c1", "clubby", fmt="club", rev=10.0),
        )
        u = StoreUniverse(stores)
        with pytest.raises(DataError) as error:
            analyze_local(u, merger, ("club",), radius_miles=5.0)
        assert str(error.value) == (
            "circle around store 'a1' has no revenue left after excluding "
            "['club']"
        )

    def test_first_empty_circle_and_exclusion_set_are_named(self, merger,
                                                            tmp_path, capsys):
        # Three far-apart circles.  In center order a1, a2, a3, b1, ... the
        # first has revenue under every exclusion set; the second runs dry
        # once club and natural are both excluded, the third once club alone
        # is.  The error names the second circle and its smallest empty set.
        stores = []
        for k, rows in enumerate((
            (("acme", "supermarket", 4.0), ("clubby", "club", 6.0)),
            (("acme", "supermarket", 0.0), ("clubby", "club", 6.0),
             ("naturo", "natural", 2.0), ("limitz", "limited", 0.0)),
            (("acme", "supermarket", 0.0), ("clubby", "club", 6.0)),
        ), start=1):
            lat = 40.0 + 2.0 * k
            stores.append(_store(f"b{k}", "bolt", lat=lat, rev=0.0))
            for j, (chain, fmt, rev) in enumerate(rows):
                sid = f"a{k}" if chain == "acme" else f"x{k}{j}"
                stores.append(_store(sid, chain, fmt=fmt, lat=lat, rev=rev))
        u = StoreUniverse(tuple(stores))
        message = ("circle around store 'a2' has no revenue left after "
                   "excluding ['club', 'natural']")
        ms = MarginalSet(("natural", "club", "limited"))
        with pytest.raises(DataError) as error:
            analyze_local(u, merger, ms, radius_miles=5.0)
        assert str(error.value) == message
        with pytest.raises(DataError) as scalar:
            scalar_local_outcomes(u, merger, ms, PresumptionRule(), 5.0)
        assert str(scalar.value) == message

        stores_path, config_path = write_inputs(
            tmp_path, stores,
            base_config_doc(marginal_formats=list(ms.members)),
        )
        code = main(["local", "--stores", str(stores_path), "--config",
                     str(config_path), "--out", str(tmp_path / "out")])
        assert code == 3
        assert f"data error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


FORMATS = ("supermarket", "club", "natural", "limited", "organic")
CHAINS = ("acme", "bolt", "cato", "dune", "elmo")


@st.composite
def local_universes(draw):
    """Stores on a north-south line whose circles differ in size, over 0-4
    marginal formats, listed in an order that differs from store-id order.

    The lowest store id is a cato store in a marginal format, so in every
    circle that holds it cato is first seen in a marginal format.  One acme
    store sells in the always-in format near a bolt store.  Bolt's stores
    may all sell in marginal formats, so it can lose all its in-circle
    revenue under some exclusion set; revenues include zero.
    """
    n = draw(st.integers(0, 4))
    formats = FORMATS[:n + 1]
    # Steps of 0.01 degrees of latitude, about 0.69 miles.
    steps = st.integers(0, 40)
    near = draw(steps)
    rows = [("cato", draw(st.sampled_from(formats[1:] or formats)),
             draw(steps), draw(revenues)),
            ("acme", "supermarket", near, draw(st.floats(1.0, 1e6))),
            ("bolt", draw(st.sampled_from(formats)), near + draw(st.integers(0, 2)),
             draw(revenues))]
    rows += draw(st.lists(
        st.tuples(st.sampled_from(CHAINS), st.sampled_from(formats), steps,
                  revenues),
        max_size=30,
    ))
    stores = [_store(f"s{k:03d}", chain, fmt=fmt, lat=45.0 + 0.01 * step,
                     rev=rev)
              for k, (chain, fmt, step, rev) in enumerate(rows)]
    listed = draw(st.permutations(stores))
    return (StoreUniverse(tuple(listed)),
            MarginalSet(formats[1:]))


class TestAnalyzeLocalOracle:
    @given(local_universes(), rules,
           st.sampled_from([0.5, 1.0, 2.0, 5.0]))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_per_subset_loop(self, drawn, rule, radius_miles):
        u, ms = drawn
        merger = MergerSpec("acme", "bolt")
        try:
            expected = scalar_local_outcomes(u, merger, ms, rule,
                                             radius_miles)
        except DataError as exc:
            with pytest.raises(DataError) as error:
                analyze_local(u, merger, ms, rule, radius_miles)
            assert str(error.value) == str(exc)
            return
        results = analyze_local(u, merger, ms, rule, radius_miles)
        assert [r.center_id for r in results] == [
            e["center_id"] for e in expected
        ]
        for result, want in zip(results, expected):
            assert result.member_count == want["member_count"]
            for column, name in enumerate(
                ("post_hhi", "delta_hhi", "merged_share")
            ):
                assert np.array_equal(result.table[:, column], want[name])
            assert np.array_equal(result.flags, want["flags"])
            assert result.sensitive == want["sensitive"]
            assert result.sspi == want["sspi"]


class TestCountsAndStructure:
    def test_presumptive_counts(self, local_universe, local_config):
        report = run_local(local_config, local_universe)
        ms = report.marginal_set
        counts = {subset.bits: count for subset, count in report.counts}
        assert counts[ms.subset_of(()).bits] == 0
        assert counts[ms.subset_of(("club",)).bits] == 2
        assert counts[ms.subset_of(("natural",)).bits] == 0
        assert counts[ms.subset_of(("club", "natural", "limited")).bits] == 2

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
                table=np.zeros((1, 3)), flags=np.zeros(1, dtype=bool),
                sensitive=True, sspi=sspi_vec,
            )

        rows = sspi_structure_table((
            result("s1", (1.0, 0.0)),
            result("s2", (0.5, 0.5)),
            result("s3", (0.5, 0.5)),
        ))
        assert rows == (((0.5, 0.5), 2), ((1.0, 0.0), 1))
