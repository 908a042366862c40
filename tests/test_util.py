"""Shared utilities: stable RNG and percentiles."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.util import KeyedUniform, percentile, stable_rng


class TestStableRng:
    def test_same_key_same_stream(self):
        a = stable_rng(1, "x", 2.5)
        b = stable_rng(1, "x", 2.5)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_keys_differ(self):
        assert stable_rng(1, "x").random() != stable_rng(1, "y").random()

    def test_order_matters(self):
        assert stable_rng("a", "b").random() != stable_rng("b", "a").random()


class TestPercentile:
    def test_median_odd(self):
        assert percentile([1, 2, 3], 0.5) == 2.0

    def test_median_even_interpolates(self):
        assert percentile([1, 2, 3, 4], 0.5) == pytest.approx(2.5)

    def test_extremes(self):
        values = [5, 7, 9]
        assert percentile(values, 0.0) == 5.0
        assert percentile(values, 1.0) == 9.0

    def test_single_value(self):
        assert percentile([42], 0.3) == 42.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_out_of_range_fraction(self):
        with pytest.raises(ValueError):
            percentile([1], 1.5)

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=40),
        st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=60, deadline=None)
    def test_within_bounds_and_monotone(self, values, fraction):
        ordered = sorted(values)
        result = percentile(ordered, fraction)
        span = max(1.0, abs(ordered[0]), abs(ordered[-1]))
        assert ordered[0] - 1e-9 * span <= result <= ordered[-1] + 1e-9 * span
        if fraction <= 0.5:
            assert percentile(ordered, fraction) <= percentile(ordered, 0.5) + 1e-9


class TestKeyedUniform:
    def test_memoized_draw_is_the_fresh_draw(self):
        draws = KeyedUniform(1.0, 0.3)
        for key in [(0, "igp", 1, "pop-a"), (7, "hot", 64500, 64501, "pop-b"), (3,)]:
            fresh = 1.0 + stable_rng(*key).uniform(-0.3, 0.3)
            assert draws(*key) == fresh
            assert draws(*key) == fresh  # served from the memo
