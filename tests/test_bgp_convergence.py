"""Convergence dynamics: loss windows, churn decay, latency penalties."""

import math

import pytest

from repro.bgp.convergence import (
    ConvergenceConfig,
    churn_series,
    simulate_withdrawal,
)


@pytest.fixture()
def trace():
    return simulate_withdrawal(60.0, seed=1)


class TestConfigValidation:
    def test_bad_mrai(self):
        with pytest.raises(ValueError):
            ConvergenceConfig(mrai_s=0)

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            ConvergenceConfig(exploration_depth=0)

    def test_bad_decay(self):
        with pytest.raises(ValueError):
            ConvergenceConfig(update_decay=1.0)


class TestTrace:
    def test_times_monotone(self, trace):
        times = [e.time_s for e in trace.events]
        assert times == sorted(times)
        assert times[0] == trace.withdrawal_time_s

    def test_loss_window_around_a_second(self, trace):
        assert 0.5 <= trace.loss_duration_s <= 2.0

    def test_reconvergence_seconds_scale(self, trace):
        elapsed = trace.reconvergence_time_s - trace.withdrawal_time_s
        assert 5.0 <= elapsed <= 30.0

    def test_updates_decay_over_rounds(self, trace):
        reachable_updates = [e.updates for e in trace.events if e.reachable]
        assert reachable_updates[0] > reachable_updates[-1]

    def test_unreachable_before_withdrawal_is_fine(self, trace):
        assert trace.latency_penalty_at(0.0) == 0.0

    def test_unreachable_during_gap(self, trace):
        just_after = trace.withdrawal_time_s + 0.01
        assert math.isinf(trace.latency_penalty_at(just_after))

    def test_penalty_fades_to_zero(self, trace):
        assert trace.latency_penalty_at(trace.reconvergence_time_s + 1) == 0.0

    def test_penalty_monotone_decreasing_once_reachable(self, trace):
        reachable_events = [e for e in trace.events if e.reachable]
        penalties = [e.latency_penalty_ms for e in reachable_events]
        assert penalties == sorted(penalties, reverse=True)

    def test_total_updates_positive(self, trace):
        assert trace.total_updates > 0
        window = trace.updates_in_window(59.0, 90.0)
        assert window == trace.total_updates  # everything falls in the window

    def test_deterministic_for_seed(self):
        a = simulate_withdrawal(10.0, seed=7)
        b = simulate_withdrawal(10.0, seed=7)
        assert [(e.time_s, e.updates) for e in a.events] == [
            (e.time_s, e.updates) for e in b.events
        ]


class TestChurnSeries:
    def test_bins_cover_updates(self, trace):
        series = churn_series(trace, 0.0, 130.0, bin_s=1.0)
        assert sum(count for _t, count in series) == trace.total_updates

    def test_quiet_before_withdrawal(self, trace):
        series = churn_series(trace, 0.0, 59.0, bin_s=1.0)
        assert all(count == 0 for _t, count in series)

    def test_bad_bin_rejected(self, trace):
        with pytest.raises(ValueError):
            churn_series(trace, 0.0, 10.0, bin_s=0.0)
