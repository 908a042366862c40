"""Geography primitives: distances, latency bounds, metro database."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.topology.geo import (
    EARTH_RADIUS_KM,
    FIBER_KM_PER_MS,
    GeoPoint,
    SPEED_OF_LIGHT_KM_PER_MS,
    WORLD_METROS,
    closest_distance_km,
    fiber_rtt_ms,
    haversine_km,
    metro_by_name,
    metros_in_region,
    speed_of_light_rtt_ms,
)

coords = st.builds(
    GeoPoint,
    lat=st.floats(min_value=-90, max_value=90, allow_nan=False),
    lon=st.floats(min_value=-180, max_value=180, allow_nan=False),
)


class TestGeoPoint:
    def test_rejects_bad_latitude(self):
        with pytest.raises(ValueError):
            GeoPoint(91.0, 0.0)

    def test_rejects_bad_longitude(self):
        with pytest.raises(ValueError):
            GeoPoint(0.0, 200.0)

    def test_distance_method_matches_function(self):
        a, b = GeoPoint(0, 0), GeoPoint(10, 10)
        assert a.distance_km(b) == haversine_km(a, b)


class TestHaversine:
    def test_zero_distance_to_self(self):
        p = GeoPoint(40.7, -74.0)
        assert haversine_km(p, p) == 0.0

    def test_known_distance_new_york_london(self):
        ny = metro_by_name("new-york").location
        ldn = metro_by_name("london").location
        # Great-circle NYC-London is ~5570 km.
        assert 5400 < haversine_km(ny, ldn) < 5750

    def test_equator_quarter_circumference(self):
        a, b = GeoPoint(0, 0), GeoPoint(0, 90)
        expected = math.pi * EARTH_RADIUS_KM / 2
        assert haversine_km(a, b) == pytest.approx(expected, rel=1e-6)

    @given(coords, coords)
    def test_symmetry(self, a, b):
        assert haversine_km(a, b) == pytest.approx(haversine_km(b, a), abs=1e-9)

    @given(coords, coords)
    def test_bounded_by_half_circumference(self, a, b):
        distance = haversine_km(a, b)
        assert 0.0 <= distance <= math.pi * EARTH_RADIUS_KM + 1e-6

    @given(coords, coords, coords)
    def test_triangle_inequality(self, a, b, c):
        direct = haversine_km(a, c)
        via = haversine_km(a, b) + haversine_km(b, c)
        assert direct <= via + 1e-6


class TestLatencyBounds:
    def test_speed_of_light_rtt_scaling(self):
        assert speed_of_light_rtt_ms(SPEED_OF_LIGHT_KM_PER_MS) == pytest.approx(2.0)

    def test_fiber_slower_than_vacuum(self):
        assert fiber_rtt_ms(1000) > speed_of_light_rtt_ms(1000)

    def test_fiber_stretch_applied(self):
        base = fiber_rtt_ms(1000, stretch=1.0)
        assert fiber_rtt_ms(1000, stretch=2.0) == pytest.approx(2.0 * base)

    @pytest.mark.parametrize("func", [speed_of_light_rtt_ms, fiber_rtt_ms])
    def test_negative_input_rejected(self, func):
        with pytest.raises(ValueError):
            func(-1.0)

    @given(st.floats(min_value=0, max_value=20000, allow_nan=False))
    def test_fiber_rtt_nonnegative_and_monotone(self, d):
        assert fiber_rtt_ms(d) >= 0
        assert fiber_rtt_ms(d + 100) > fiber_rtt_ms(d)


class TestMetros:
    def test_database_nonempty_and_unique(self):
        names = [m.name for m in WORLD_METROS]
        assert len(names) == len(set(names))
        assert len(names) >= 50

    def test_lookup_by_name(self):
        assert metro_by_name("tokyo").region == "asia-east"

    def test_lookup_unknown_raises(self):
        with pytest.raises(KeyError):
            metro_by_name("atlantis")

    def test_metros_in_region(self):
        eu = metros_in_region("eu-west")
        assert all(m.region == "eu-west" for m in eu)
        assert any(m.name == "london" for m in eu)

    def test_closest_distance(self):
        p = metro_by_name("paris").location
        points = [metro_by_name("london").location, metro_by_name("tokyo").location]
        assert closest_distance_km(p, points) == pytest.approx(
            haversine_km(p, points[0])
        )

    def test_closest_distance_empty_raises(self):
        with pytest.raises(ValueError):
            closest_distance_km(GeoPoint(0, 0), [])

    def test_metro_distance_method(self):
        a, b = metro_by_name("paris"), metro_by_name("london")
        assert 300 < a.distance_km(b) < 400
