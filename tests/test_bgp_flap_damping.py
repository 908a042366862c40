"""Route-flap damping and orchestrator pacing."""

import math

import pytest

from repro.bgp.flap_damping import (
    DampingConfig,
    FlapDampingState,
    learning_iteration_pacing_s,
    safe_update_interval_s,
)

PREFIX = "184.164.224.0/24"


class TestConfigValidation:
    def test_bad_half_life(self):
        with pytest.raises(ValueError):
            DampingConfig(half_life_s=0)

    def test_bad_thresholds(self):
        with pytest.raises(ValueError):
            DampingConfig(reuse_threshold=3000, suppress_threshold=2000)

    def test_bad_max(self):
        with pytest.raises(ValueError):
            DampingConfig(max_penalty=100)


class TestDampingState:
    def test_single_flap_not_suppressed(self):
        state = FlapDampingState()
        state.record_flap(PREFIX, 100, now_s=0.0)
        assert not state.is_suppressed(PREFIX, 100, now_s=1.0)
        assert state.penalty(PREFIX, 100, now_s=0.0) == pytest.approx(1000.0)

    def test_rapid_flaps_suppress(self):
        state = FlapDampingState()
        state.record_flap(PREFIX, 100, now_s=0.0)
        state.record_flap(PREFIX, 100, now_s=1.0)
        state.record_flap(PREFIX, 100, now_s=2.0)
        assert state.is_suppressed(PREFIX, 100, now_s=2.5)

    def test_penalty_decays_with_half_life(self):
        config = DampingConfig(half_life_s=100.0)
        state = FlapDampingState(config)
        state.record_flap(PREFIX, 100, now_s=0.0)
        assert state.penalty(PREFIX, 100, now_s=100.0) == pytest.approx(500.0)
        assert state.penalty(PREFIX, 100, now_s=200.0) == pytest.approx(250.0)

    def test_suppression_lifts_after_decay(self):
        config = DampingConfig(half_life_s=60.0)
        state = FlapDampingState(config)
        for t in (0.0, 1.0, 2.0):
            state.record_flap(PREFIX, 100, now_s=t)
        assert state.is_suppressed(PREFIX, 100, now_s=3.0)
        assert not state.is_suppressed(PREFIX, 100, now_s=3.0 + 10 * config.half_life_s)

    def test_penalty_capped(self):
        state = FlapDampingState()
        for t in range(30):
            state.record_flap(PREFIX, 100, now_s=float(t))
        assert state.penalty(PREFIX, 100, now_s=30.0) <= state.config.max_penalty

    def test_per_peer_isolation(self):
        state = FlapDampingState()
        for t in (0.0, 1.0, 2.0):
            state.record_flap(PREFIX, 100, now_s=t)
        assert state.is_suppressed(PREFIX, 100, now_s=2.5)
        assert not state.is_suppressed(PREFIX, 200, now_s=2.5)

    def test_time_backwards_rejected(self):
        state = FlapDampingState()
        state.record_flap(PREFIX, 100, now_s=10.0)
        with pytest.raises(ValueError):
            state.penalty(PREFIX, 100, now_s=5.0)

class TestPacing:
    def test_safe_interval_prevents_suppression(self):
        config = DampingConfig()
        interval = safe_update_interval_s(flaps_per_update=1, config=config)
        state = FlapDampingState(config)
        # Many updates paced at the safe interval never suppress.
        for i in range(50):
            t = i * (interval + 1.0)
            state.record_flap(PREFIX, 100, now_s=t)
            assert not state.is_suppressed(PREFIX, 100, now_s=t + 0.001), i

    def test_faster_than_safe_interval_suppresses(self):
        config = DampingConfig()
        interval = safe_update_interval_s(flaps_per_update=1, config=config)
        state = FlapDampingState(config)
        suppressed = False
        for i in range(50):
            t = i * (interval / 4.0)
            state.record_flap(PREFIX, 100, now_s=t)
            suppressed = suppressed or state.is_suppressed(PREFIX, 100, now_s=t)
        assert suppressed

    def test_heavy_updates_unpaceable(self):
        assert safe_update_interval_s(flaps_per_update=3) == math.inf

    def test_iteration_pacing_dominated_by_compute_for_many_prefixes(self):
        # Paper: ~30 s/prefix of computation; at 100 prefixes that dwarfs
        # the damping-safe interval.
        pacing = learning_iteration_pacing_s(prefix_count=100)
        assert pacing == pytest.approx(3000.0)

    def test_iteration_pacing_floor_is_damping(self):
        pacing = learning_iteration_pacing_s(prefix_count=1)
        assert pacing >= safe_update_interval_s(1)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            safe_update_interval_s(0)
        with pytest.raises(ValueError):
            learning_iteration_pacing_s(0)
