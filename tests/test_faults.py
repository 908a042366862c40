"""The fault-injection subsystem: events, schedules, damping, degradation."""

import math

import pytest

from repro.faults import (
    FaultSchedule,
    LatencySpike,
    LinkFlap,
    ObservationFaults,
    PeeringWithdrawal,
    PopOutage,
    ProbeLoss,
    StaleMeasurement,
    damping_state,
)


class TestEventValidation:
    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            PopOutage(start_s=-1.0, pop_name="pop-a")

    def test_pop_outage_needs_pop(self):
        with pytest.raises(ValueError):
            PopOutage(start_s=0.0)

    def test_withdrawal_needs_prefix(self):
        with pytest.raises(ValueError):
            PeeringWithdrawal(start_s=0.0)

    def test_flap_needs_target(self):
        with pytest.raises(ValueError):
            LinkFlap(start_s=0.0)

    def test_flap_cycles_positive(self):
        with pytest.raises(ValueError):
            LinkFlap(start_s=0.0, pop_name="pop-a", cycles=0)

    def test_probe_loss_rate_bounded(self):
        with pytest.raises(ValueError):
            ProbeLoss(start_s=0.0, loss_rate=1.5)

    def test_stale_fraction_bounded(self):
        with pytest.raises(ValueError):
            StaleMeasurement(start_s=0.0, fraction=-0.1)


class TestEventWindows:
    def test_outage_window_half_open(self):
        outage = PopOutage(start_s=10.0, pop_name="pop-a", duration_s=5.0)
        assert not outage.active_at(9.999)
        assert outage.active_at(10.0)
        assert outage.active_at(14.999)
        assert not outage.active_at(15.0)

    def test_default_outage_never_heals(self):
        outage = PopOutage(start_s=10.0, pop_name="pop-a")
        assert math.isinf(outage.end_s)
        assert outage.active_at(1e9)
        assert list(outage.transitions()) == [(10.0, True)]

    def test_flap_phases(self):
        flap = LinkFlap(start_s=10.0, pop_name="pop-a", down_s=1.0, up_s=4.0, cycles=3)
        assert flap.period_s == 5.0
        assert flap.end_s == 21.0  # last down phase heals at 20 + 1
        assert flap.is_down(10.5)
        assert not flap.is_down(12.0)  # first up phase
        assert flap.is_down(15.5)  # second down phase
        assert not flap.is_down(21.0)
        downs = [t for t, went_down in flap.transitions() if went_down]
        ups = [t for t, went_down in flap.transitions() if not went_down]
        assert downs == [10.0, 15.0, 20.0]
        assert ups == [11.0, 16.0, 21.0]

    def test_spike_targeting(self):
        spike = LatencySpike(start_s=0.0, duration_s=5.0, magnitude_ms=30.0, pop_name="pop-a")
        assert spike.applies_to("pop-a")
        assert not spike.applies_to("pop-b")
        everywhere = LatencySpike(start_s=0.0, duration_s=5.0, magnitude_ms=30.0)
        assert everywhere.applies_to("pop-a") and everywhere.applies_to("pop-b")


class TestSchedule:
    def test_events_sorted_by_start(self):
        schedule = FaultSchedule(
            events=(
                PopOutage(start_s=50.0, pop_name="pop-b", duration_s=1.0),
                PopOutage(start_s=10.0, pop_name="pop-a", duration_s=1.0),
            )
        )
        assert [e.start_s for e in schedule] == [10.0, 50.0]

    def test_single_pop_outage_factory(self):
        schedule = FaultSchedule.single_pop_outage("pop-a", 60.0)
        assert len(schedule) == 1
        assert schedule.pop_down("pop-a", 60.0)
        assert not schedule.pop_down("pop-a", 59.999)
        assert not schedule.pop_down("pop-b", 1000.0)

    def test_flap_counts_as_pop_down(self):
        schedule = FaultSchedule(
            events=(LinkFlap(start_s=10.0, pop_name="pop-a", down_s=1.0, up_s=4.0, cycles=2),)
        )
        assert schedule.pop_down("pop-a", 10.5)
        assert not schedule.pop_down("pop-a", 12.0)

    def test_prefix_withdrawal_query(self):
        schedule = FaultSchedule(
            events=(PeeringWithdrawal(start_s=5.0, prefix="2.2.2.0/24", duration_s=10.0),)
        )
        assert schedule.prefix_withdrawn("2.2.2.0/24", 7.0)
        assert not schedule.prefix_withdrawn("3.3.3.0/24", 7.0)
        assert schedule.path_down("pop-x", "2.2.2.0/24", 7.0)

    def test_latency_penalties_sum(self):
        schedule = FaultSchedule(
            events=(
                LatencySpike(start_s=0.0, duration_s=10.0, magnitude_ms=20.0, pop_name="pop-a"),
                LatencySpike(start_s=5.0, duration_s=10.0, magnitude_ms=5.0),
            )
        )
        assert schedule.latency_penalty_ms("pop-a", 7.0) == 25.0
        assert schedule.latency_penalty_ms("pop-b", 7.0) == 5.0
        assert schedule.latency_penalty_ms("pop-a", 12.0) == 5.0

    def test_probe_loss_composes_independently(self):
        schedule = FaultSchedule(
            events=(
                ProbeLoss(start_s=0.0, duration_s=10.0, loss_rate=0.5),
                ProbeLoss(start_s=0.0, duration_s=10.0, loss_rate=0.5),
            )
        )
        assert schedule.probe_loss_rate(5.0) == pytest.approx(0.75)
        assert schedule.probe_loss_rate(11.0) == 0.0

    def test_stale_fraction_max_wins(self):
        schedule = FaultSchedule(
            events=(
                StaleMeasurement(start_s=0.0, duration_s=10.0, fraction=0.3),
                StaleMeasurement(start_s=0.0, duration_s=10.0, fraction=0.6),
            )
        )
        assert schedule.stale_fraction(5.0) == 0.6
        assert schedule.stale_fraction(10.0) == 0.0

    def test_down_intervals_merge_overlaps(self):
        schedule = FaultSchedule(
            events=(
                PopOutage(start_s=10.0, pop_name="pop-a", duration_s=10.0),
                PopOutage(start_s=15.0, pop_name="pop-a", duration_s=10.0),
                PopOutage(start_s=40.0, pop_name="pop-a", duration_s=5.0),
                PopOutage(start_s=12.0, pop_name="pop-b", duration_s=100.0),
            )
        )
        assert schedule.down_intervals(pop_name="pop-a") == [(10.0, 25.0), (40.0, 45.0)]

    def test_down_intervals_include_flap_phases(self):
        schedule = FaultSchedule(
            events=(LinkFlap(start_s=0.0, prefix="p", down_s=1.0, up_s=2.0, cycles=2),)
        )
        assert schedule.down_intervals(prefix="p") == [(0.0, 1.0), (3.0, 4.0)]

    def test_extended_is_immutable(self):
        base = FaultSchedule()
        extended = base.extended(PopOutage(start_s=1.0, pop_name="pop-a"))
        assert len(base) == 0
        assert len(extended) == 1

    def test_random_storm_deterministic(self):
        a = FaultSchedule.random_storm(["pop-a", "pop-b"], duration_s=100.0, seed=42)
        b = FaultSchedule.random_storm(["pop-a", "pop-b"], duration_s=100.0, seed=42)
        c = FaultSchedule.random_storm(["pop-a", "pop-b"], duration_s=100.0, seed=43)
        assert a.events == b.events
        assert a.events != c.events
        assert len(a) >= 1

    def test_random_storm_stays_in_window(self):
        for seed in range(10):
            storm = FaultSchedule.random_storm(["pop-a"], duration_s=60.0, seed=seed)
            for event in storm:
                assert 0.0 <= event.start_s < 60.0

    def test_horizon_ignores_infinite_events(self):
        schedule = FaultSchedule(
            events=(
                PopOutage(start_s=5.0, pop_name="pop-a"),  # never heals
                PopOutage(start_s=10.0, pop_name="pop-b", duration_s=20.0),
            )
        )
        assert schedule.horizon_s == 30.0


class TestInjector:
    def test_pop_down_mid_outage(self):
        schedule = FaultSchedule.single_pop_outage("pop-a", 5.0)
        assert schedule.pop_down("pop-a", 6.0)
        assert not schedule.pop_down("pop-a", 4.0)

    def test_damping_state_from_heavy_flapping(self):
        flap = LinkFlap(
            start_s=0.0, prefix="2.2.2.0/24", peer_asn=65001,
            down_s=1.0, up_s=1.0, cycles=6,
        )
        damping = damping_state(FaultSchedule(events=(flap,)))
        # 12 transitions in 11 s at 1000 penalty each: far beyond suppression.
        assert damping.is_suppressed("2.2.2.0/24", 65001, flap.end_s)

    def test_damping_state_gentle_flap_not_suppressed(self):
        flap = LinkFlap(
            start_s=0.0, prefix="2.2.2.0/24", peer_asn=65001,
            down_s=1.0, up_s=3600.0, cycles=1,
        )
        damping = damping_state(FaultSchedule(events=(flap,)))
        assert not damping.is_suppressed("2.2.2.0/24", 65001, flap.end_s + 3600.0)


class TestObservationFaults:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            ObservationFaults(missing_rate=0.7, stale_rate=0.5)
        with pytest.raises(ValueError):
            ObservationFaults(missing_rate=-0.1)

    def test_deterministic_given_seed(self):
        a = ObservationFaults(missing_rate=0.4, stale_rate=0.2, seed=9)
        b = ObservationFaults(missing_rate=0.4, stale_rate=0.2, seed=9)
        outcomes_a = [a.outcome(i, ug, p) for i in range(3) for ug in range(20) for p in range(4)]
        outcomes_b = [b.outcome(i, ug, p) for i in range(3) for ug in range(20) for p in range(4)]
        assert outcomes_a == outcomes_b
        assert "missing" in outcomes_a and "stale" in outcomes_a and "ok" in outcomes_a

    def test_zero_rates_always_ok(self):
        faults = ObservationFaults()
        assert all(faults.outcome(0, ug, 0) == "ok" for ug in range(50))

    def test_rates_roughly_honored(self):
        faults = ObservationFaults(missing_rate=0.35, seed=4)
        outcomes = [faults.outcome(0, ug, p) for ug in range(200) for p in range(5)]
        missing = outcomes.count("missing") / len(outcomes)
        assert 0.25 <= missing <= 0.45
