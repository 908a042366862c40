"""Ground-truth latency model and ping measurement."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.measurement.latency_model import LatencyModel, LatencyModelConfig
from repro.measurement.ping import DEFAULT_PING_COUNT, Pinger, PingResult
from repro.topology.geo import fiber_rtt_ms, haversine_km


@pytest.fixture(scope="module")
def world(small_scenario):
    return small_scenario


class TestConfigValidation:
    def test_bad_last_mile(self):
        with pytest.raises(ValueError):
            LatencyModelConfig(last_mile_min_ms=5, last_mile_max_ms=1)

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            LatencyModelConfig(inflation_prob_peer=1.5)

    @pytest.mark.parametrize(
        "knobs",
        [
            {"last_mile_min_ms": float("nan")},
            {"event_prob_per_peering_day": 1.5},
            {"inflation_min_ms": 200.0, "inflation_max_ms": 150.0},
            {"drift_amplitude_ms": -4.0},
            {"base_wiggle_ms": -1.0},
            {"event_penalty_ms": float("inf")},
        ],
        ids=lambda knobs: ",".join(knobs),
    )
    def test_out_of_range_knobs_fail_at_construction(self, knobs):
        with pytest.raises(ValueError):
            LatencyModelConfig(**knobs)


class TestLatencyModel:
    def test_deterministic(self, world):
        model_a = LatencyModel(LatencyModelConfig(seed=9))
        model_b = LatencyModel(LatencyModelConfig(seed=9))
        ug = world.user_groups[0]
        peering = world.deployment.peerings[0]
        assert model_a.latency_ms(ug, peering) == model_b.latency_ms(ug, peering)

    def test_seed_changes_values(self, world):
        ug = world.user_groups[0]
        peering = world.deployment.peerings[0]
        a = LatencyModel(LatencyModelConfig(seed=1)).latency_ms(ug, peering)
        b = LatencyModel(LatencyModelConfig(seed=2)).latency_ms(ug, peering)
        assert a != b

    def test_latency_at_least_propagation(self, world):
        model = world.latency_model
        for ug in world.user_groups[:20]:
            for peering in world.deployment.peerings[:10]:
                distance = haversine_km(ug.location, peering.pop.location)
                assert model.latency_ms(ug, peering) >= fiber_rtt_ms(distance)

    def test_day_zero_has_no_events(self, world):
        model = world.latency_model
        ug = world.user_groups[0]
        peering = world.deployment.peerings[0]
        base = (
            model.propagation_ms(ug, peering)
            + model.last_mile_ms(ug)
            + model.inflation_penalty_ms(ug, peering)
        )
        assert model.latency_ms(ug, peering, day=0) == pytest.approx(base)

    def test_day_varies_latency(self, world):
        model = world.latency_model
        ug = world.user_groups[0]
        peering = world.deployment.peerings[0]
        values = {round(model.latency_ms(ug, peering, day=d), 6) for d in range(12)}
        assert len(values) > 1

    def test_day_latency_never_below_day0(self, world):
        """Drift and events are strictly additive degradations."""
        model = world.latency_model
        ug = world.user_groups[1]
        for peering in world.deployment.peerings[:8]:
            base = model.latency_ms(ug, peering, day=0)
            for day in range(1, 8):
                assert model.latency_ms(ug, peering, day=day) >= base

    def test_transit_inflation_more_likely(self, world):
        """Across many pairs, transit peerings carry more large penalties."""
        model = world.latency_model
        transit = [p for p in world.deployment.peerings if p.is_transit]
        peers = [p for p in world.deployment.peerings if not p.is_transit]

        def big_penalty_rate(peerings):
            total = hits = 0
            for ug in world.user_groups:
                for peering in peerings[:15]:
                    total += 1
                    if model.inflation_penalty_ms(ug, peering) >= 20.0:
                        hits += 1
            return hits / max(total, 1)

        assert big_penalty_rate(transit) > big_penalty_rate(peers)

    def test_days_asked_in_any_order_give_the_same_latencies(self, world):
        """Day-scale components depend on (UG AS or peering, day) alone:
        days 5 down to 1 read the same doubles as a fresh model's 1 to 5."""
        config = LatencyModelConfig(seed=3, event_prob_per_peering_day=0.5)
        pairs = [
            (ug, peering)
            for ug in world.user_groups[:4]
            for peering in world.deployment.peerings[:6]
        ]
        backward = LatencyModel(config)
        forward = LatencyModel(config)
        days = range(1, 6)
        got = {
            (ug.ug_id, peering.peering_id, day): backward.latency_ms(ug, peering, day)
            for day in reversed(days)
            for ug, peering in pairs
        }
        want = {
            (ug.ug_id, peering.peering_id, day): forward.latency_ms(ug, peering, day)
            for day in days
            for ug, peering in pairs
        }
        assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}
        assert any(
            forward.event_penalty_ms(peering, day) > 0
            for _, peering in pairs
            for day in days
        )

    def test_caching_consistent(self, world):
        model = world.latency_model
        ug = world.user_groups[2]
        peering = world.deployment.peerings[2]
        assert model.latency_ms(ug, peering) == model.latency_ms(ug, peering)


class TestPingResult:
    def test_statistics(self):
        result = PingResult(samples_ms=(5.0, 3.0, 4.0))
        assert result.min_ms == 3.0
        assert result.max_ms == 5.0
        assert result.mean_ms == 4.0
        assert result.count == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PingResult(samples_ms=())

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            PingResult(samples_ms=(1.0, -2.0))


class TestPinger:
    def test_min_of_samples_bounds_true_rtt(self, world):
        model = world.latency_model
        pinger = Pinger(model, jitter_mean_ms=2.0, seed=4)
        ug = world.user_groups[0]
        peering = world.deployment.peerings[0]
        true_rtt = model.latency_ms(ug, peering)
        result = pinger.ping(ug, peering)
        assert result is not None
        assert result.count == DEFAULT_PING_COUNT
        assert result.min_ms >= true_rtt
        assert result.min_ms - true_rtt < 25.0  # min-of-7 gets close

    def test_zero_jitter_exact(self, world):
        model = world.latency_model
        pinger = Pinger(model, jitter_mean_ms=0.0, seed=4)
        ug = world.user_groups[0]
        peering = world.deployment.peerings[0]
        assert pinger.min_latency_ms(ug, peering) == model.latency_ms(ug, peering)

    def test_total_loss_returns_none(self, world):
        pinger = Pinger(world.latency_model, loss_rate=0.999999, seed=4)
        ug = world.user_groups[0]
        peering = world.deployment.peerings[0]
        assert pinger.ping(ug, peering, count=3) is None

    def test_invalid_parameters(self, world):
        with pytest.raises(ValueError):
            Pinger(world.latency_model, jitter_mean_ms=-1)
        with pytest.raises(ValueError):
            Pinger(world.latency_model, loss_rate=1.0)
        pinger = Pinger(world.latency_model)
        with pytest.raises(ValueError):
            pinger.ping(world.user_groups[0], world.deployment.peerings[0], count=0)

    @given(st.integers(min_value=1, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_more_samples_never_raise_minimum(self, n):
        from repro.scenario import tiny_scenario

        world = tiny_scenario(seed=3)
        pinger_a = Pinger(world.latency_model, jitter_mean_ms=3.0, seed=11)
        pinger_b = Pinger(world.latency_model, jitter_mean_ms=3.0, seed=11)
        ug = world.user_groups[0]
        peering = world.deployment.peerings[0]
        few = pinger_a.min_latency_ms(ug, peering, count=n)
        many = pinger_b.min_latency_ms(ug, peering, count=n + 10)
        # Same RNG stream start: the first n samples coincide, so adding
        # samples can only lower (or keep) the minimum.
        assert many <= few
