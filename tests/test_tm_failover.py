"""Failover simulation: the Fig. 10 timescale separation."""

import math

import pytest

from repro.bgp.convergence import ConvergenceConfig
from repro.faults import FaultSchedule
from repro.traffic_manager.failover import (
    PACKET_INTERVAL_MS,
    FailoverConfig,
    PathSpec,
    default_fig10_paths,
    run_failover,
)


@pytest.fixture(scope="module")
def result():
    return run_failover(default_fig10_paths())


class TestPathSpec:
    def test_anycast_needs_backup(self):
        with pytest.raises(ValueError):
            PathSpec(prefix="1.1.1.0/24", pop_name="pop-a", base_rtt_ms=20.0, is_anycast=True)

    def test_positive_rtt(self):
        with pytest.raises(ValueError):
            PathSpec(prefix="2.2.2.0/24", pop_name="pop-a", base_rtt_ms=0.0)


class TestSetupValidation:
    def test_needs_paths(self):
        with pytest.raises(ValueError):
            run_failover([])

    def test_failed_pop_must_be_used(self):
        paths = [PathSpec(prefix="3.3.3.0/24", pop_name="pop-b", base_rtt_ms=30.0)]
        with pytest.raises(ValueError):
            run_failover(
                paths,
                FailoverConfig(schedule=FaultSchedule.single_pop_outage("pop-a", 60.0)),
            )


class TestTimescales:
    def test_selects_lowest_latency_before_failure(self, result):
        assert result.active_prefix_at(59.0) == "2.2.2.0/24"

    def test_switches_to_next_best_unicast(self, result):
        assert result.active_prefix_at(70.0) == "3.3.3.0/24"

    def test_painter_downtime_rtt_scale(self, result):
        """Detection + switch within tens of ms (paper: ~30 ms, 1.3 RTT)."""
        assert result.detection_time_s is not None
        detection_ms = (result.detection_time_s - result.config.failure_time_s) * 1000
        assert detection_ms <= 2.0 * 20.0 + PACKET_INTERVAL_MS
        assert result.painter_downtime_ms < 100.0

    def test_anycast_loss_second_scale(self, result):
        assert 0.3 <= result.anycast_loss_s <= 3.0

    def test_anycast_reconvergence_tens_of_seconds(self, result):
        assert 5.0 <= result.anycast_reconvergence_s <= 30.0

    def test_dns_downtime_minute_scale(self, result):
        assert result.dns_downtime_s == 60.0

    def test_ordering_painter_anycast_dns(self, result):
        assert (
            result.painter_downtime_ms / 1000.0
            < result.anycast_loss_s
            < result.dns_downtime_s
        )


class TestSeries:
    def test_timeline_times_monotone(self, result):
        times = [t for t, _p, _r in result.timeline]
        assert times == sorted(times)

    def test_latency_series_shapes(self, result):
        series = result.path_latency_series(step_s=1.0)
        assert set(series) == {p.prefix for p in result.paths}
        # The failed unicast prefix is unreachable after the failure.
        dead = series["2.2.2.0/24"]
        assert all(math.isinf(rtt) for t, rtt in dead if t > 60.0)
        assert all(not math.isinf(rtt) for t, rtt in dead if t < 60.0)

    def test_anycast_transient_inflation(self, result):
        series = dict(result.path_latency_series(step_s=0.5)["1.1.1.0/24"])
        post_loss = [
            rtt
            for t, rtt in series.items()
            if result.config.failure_time_s + 2 < t < result.config.failure_time_s + 8
            and not math.isinf(rtt)
        ]
        final = series[max(series)]
        assert post_loss, "anycast should be back up within seconds"
        assert max(post_loss) > final  # transient inflation fades

    def test_bgp_updates_spike_at_failure(self, result):
        series = dict(result.bgp_update_series(bin_s=1.0))
        before = sum(count for t, count in series.items() if t < 59)
        after = sum(count for t, count in series.items() if 59 <= t <= 80)
        assert before == 0
        assert after > 10


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        a = run_failover(default_fig10_paths(), FailoverConfig(seed=3))
        b = run_failover(default_fig10_paths(), FailoverConfig(seed=3))
        assert a.painter_downtime_ms == b.painter_downtime_ms
        assert a.anycast_loss_s == b.anycast_loss_s

    def test_convergence_config_respected(self):
        slow = FailoverConfig(
            convergence=ConvergenceConfig(reachability_gap_s=2.5), seed=1
        )
        result = run_failover(default_fig10_paths(), slow)
        assert result.anycast_loss_s >= 1.8


class TestLogging:
    def test_failure_detection_logged(self, caplog):
        import logging

        with caplog.at_level(logging.INFO, logger="repro.traffic_manager.failover"):
            run_failover(default_fig10_paths())
        assert any("declared down" in record.message for record in caplog.records)


class TestFaultSchedules:
    """run_failover() under arbitrary FaultSchedules (chaos tentpole)."""

    def test_default_schedule_reproduces_fig10_exactly(self, result):
        """The default config and its explicit schedule are identical."""
        explicit = run_failover(
            default_fig10_paths(),
            FailoverConfig(schedule=FaultSchedule.single_pop_outage("pop-a", 60.0)),
        )
        assert explicit.detection_time_s == result.detection_time_s
        assert explicit.recovery_time_s == result.recovery_time_s
        assert explicit.painter_downtime_ms == result.painter_downtime_ms
        assert explicit.anycast_loss_s == result.anycast_loss_s
        assert explicit.anycast_reconvergence_s == result.anycast_reconvergence_s
        assert explicit.timeline == result.timeline

    def test_fig10_numbers_pinned(self, result):
        """Regression pin: the original Fig. 10 trace, bit-for-bit."""
        assert result.detection_time_s == pytest.approx(60.041000000012254, abs=1e-9)
        assert result.recovery_time_s == pytest.approx(60.045000000012266, abs=1e-9)

    def test_figures_measured_from_the_schedules_outage(self):
        """An explicit schedule moves the failure instant the figures use."""
        early = run_failover(
            default_fig10_paths(),
            FailoverConfig(schedule=FaultSchedule.single_pop_outage("pop-a", 30.0)),
        )
        assert early.config.failure_time_s == 30.0
        assert early.painter_downtime_ms == pytest.approx(55.0, abs=1e-6)
        assert early.anycast_reconvergence_s == pytest.approx(13.71, abs=5e-3)

    def test_two_pop_sequential_outage(self):
        """TM-Edge survives back-to-back failures of both PoPs."""
        from repro.faults import FaultSchedule, PopOutage

        schedule = FaultSchedule(
            events=(
                PopOutage(start_s=60.0, pop_name="pop-a"),
                PopOutage(start_s=80.0, pop_name="pop-b", duration_s=20.0),
            )
        )
        result = run_failover(default_fig10_paths(), FailoverConfig(schedule=schedule))
        assert len(result.downtime_events) == 2
        assert result.recovery_count == 2
        assert result.active_prefix_at(59.0) == "2.2.2.0/24"
        assert result.active_prefix_at(75.0) == "3.3.3.0/24"
        # With both PoPs' unicast prefixes dark, the reconverged anycast
        # path (via the surviving announcement) is the only way out.
        assert result.active_prefix_at(95.0) == "1.1.1.0/24"
        # pop-b heals at t=100: the TM-Edge moves back to the better unicast.
        assert result.active_prefix_at(129.0) == "3.3.3.0/24"
        assert result.total_downtime_ms < 500.0

    def test_flapping_link_recovery(self):
        """Each down-phase costs ~1.3 RTT; the TM returns after each heal."""
        from repro.faults import FaultSchedule, LinkFlap

        schedule = FaultSchedule(
            events=(
                LinkFlap(
                    start_s=30.0, prefix="2.2.2.0/24",
                    down_s=1.0, up_s=5.0, cycles=3,
                ),
            )
        )
        result = run_failover(default_fig10_paths(), FailoverConfig(schedule=schedule))
        assert len(result.downtime_events) == 3
        assert result.recovery_count == 3
        for event in result.downtime_events:
            assert event.prefix == "2.2.2.0/24"
            assert event.duration_ms < 100.0
        # Between flaps and at the end the TM is back on the best prefix.
        assert result.active_prefix_at(129.0) == "2.2.2.0/24"

    def test_latency_spike_steers_away_and_back(self):
        from repro.faults import FaultSchedule, LatencySpike

        schedule = FaultSchedule(
            events=(
                LatencySpike(
                    start_s=30.0, duration_s=30.0, magnitude_ms=50.0, pop_name="pop-a"
                ),
            )
        )
        result = run_failover(default_fig10_paths(), FailoverConfig(schedule=schedule))
        # No packets are lost, so no downtime — only a latency-driven move.
        assert result.downtime_events == []
        assert result.active_prefix_at(45.0) == "3.3.3.0/24"
        assert result.active_prefix_at(129.0) == "2.2.2.0/24"

    def test_storm_deterministic_given_seed(self):
        storm = FaultSchedule.random_storm(
            ["pop-a", "pop-b"], duration_s=110.0, seed=7,
            prefixes=("2.2.2.0/24", "3.3.3.0/24"),
        )
        a = run_failover(default_fig10_paths(), FailoverConfig(schedule=storm, seed=7))
        b = run_failover(default_fig10_paths(), FailoverConfig(schedule=storm, seed=7))
        assert a.timeline == b.timeline
        assert a.total_downtime_ms == b.total_downtime_ms
