"""Measurement campaigns and anycast catchment analysis."""

import pytest

from repro.measurement.campaign import (
    CampaignConfig,
    MeasurementCampaign,
    campaign_targets,
)
from repro.measurement.ping import Pinger
from repro.steering.catchment import CatchmentAnalysis


class TestCampaignConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(probes_per_second=0)
        with pytest.raises(ValueError):
            CampaignConfig(samples_per_target=0)


class TestCampaign:
    @pytest.fixture(scope="class")
    def campaign_result(self, scenario):
        pinger = Pinger(scenario.latency_model, jitter_mean_ms=1.0, seed=2)
        campaign = MeasurementCampaign(
            pinger, CampaignConfig(probes_per_second=1000.0, samples_per_target=7)
        )
        targets = campaign_targets(scenario, max_targets_per_ug=5)
        return targets, campaign.run(targets)

    def test_every_target_measured(self, campaign_result):
        targets, result = campaign_result
        assert result.targets_measured == len(targets)
        assert result.targets_unreachable == 0
        assert result.probes_sent == 7 * len(targets)

    def test_min_bounds_truth(self, scenario, campaign_result):
        _targets, result = campaign_result
        for (ug_id, peering_id), measured in list(result.latencies_ms.items())[:30]:
            ug = next(u for u in scenario.user_groups if u.ug_id == ug_id)
            truth = scenario.latency_model.latency_ms(
                ug, scenario.deployment.peering(peering_id)
            )
            assert measured >= truth
            assert measured - truth < 15.0  # min-of-7 gets close

    def test_rate_limit_sets_duration(self, scenario):
        pinger = Pinger(scenario.latency_model, jitter_mean_ms=0.0, seed=2)
        slow = MeasurementCampaign(
            pinger, CampaignConfig(probes_per_second=10.0, samples_per_target=2)
        )
        targets = campaign_targets(scenario, max_targets_per_ug=1)[:10]
        result = slow.run(targets)
        # 20 probes at 10/s span ~1.9 s of simulated time.
        assert result.duration_s == pytest.approx((len(targets) * 2 - 1) / 10.0)

    def test_lossy_targets_counted_unreachable(self, scenario):
        pinger = Pinger(scenario.latency_model, loss_rate=0.999999, seed=2)
        campaign = MeasurementCampaign(
            pinger, CampaignConfig(probes_per_second=1000.0, samples_per_target=2)
        )
        targets = campaign_targets(scenario, max_targets_per_ug=1)[:5]
        result = campaign.run(targets)
        assert result.targets_unreachable == 5
        assert result.latencies_ms == {}

    def test_feeds_orchestrator(self, scenario, campaign_result):
        from repro.core.benefit import realized_benefit
        from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator

        _targets, result = campaign_result
        orchestrator = PainterOrchestrator(
            scenario, OrchestratorConfig(prefix_budget=3, latency_of=result.latency_of)
        )
        config = orchestrator.solve()
        assert config.prefix_count >= 1
        assert realized_benefit(scenario, config) > 0


class TestCatchment:
    @pytest.fixture(scope="class")
    def analysis(self, scenario):
        return CatchmentAnalysis(scenario)

    def test_every_ug_lands_somewhere(self, scenario, analysis):
        assert len(analysis.entries) == len(scenario.user_groups)
        assert sum(analysis.catchment_sizes().values()) == len(scenario.user_groups)

    def test_volumes_conserved(self, scenario, analysis):
        total = sum(analysis.catchment_volumes().values())
        assert total == pytest.approx(sum(ug.volume for ug in scenario.user_groups))

    def test_inflation_nonnegative(self, analysis):
        for entry in analysis.entries:
            assert entry.inflation_km >= -1e-9
            if entry.landed_at_closest:
                assert entry.inflation_km == pytest.approx(0.0)

    def test_fraction_within_monotone(self, analysis):
        fractions = [analysis.fraction_within_km(km) for km in (0, 500, 1000, 20000)]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0

    def test_inflated_tail_exists(self, analysis):
        """Some UGs are hauled far past their closest PoP — the Fig. 1
        pathology PAINTER exists to fix."""
        percentiles = analysis.inflation_percentiles((0.5, 0.99))
        assert percentiles[0.99] > percentiles[0.5]
        worst = analysis.worst_entries(3)
        assert worst[0].inflation_km >= worst[-1].inflation_km

    def test_most_ugs_land_reasonably_close(self, analysis):
        # The anycast-works-for-most-users observation [21, 54].
        assert analysis.fraction_within_km(3000) > 0.5


class TestCampaignFaults:
    """Loss/timeout semantics under a FaultSchedule (chaos tentpole)."""

    def test_dark_pop_exhausts_retries(self, scenario):
        from repro.faults import FaultSchedule, PopOutage

        pinger = Pinger(scenario.latency_model, jitter_mean_ms=0.0, seed=2)
        config = CampaignConfig(
            probes_per_second=1000.0, samples_per_target=2, max_retries=2
        )
        campaign = MeasurementCampaign(pinger, config)
        ug, peering = campaign_targets(scenario, max_targets_per_ug=1)[0]
        schedule = FaultSchedule(
            events=(PopOutage(start_s=0.0, pop_name=peering.pop.name),)
        )
        result = campaign.run([(ug, peering)], faults=schedule)
        assert result.targets_unreachable == 1
        assert result.targets_measured == 0
        # Every sample burns its full retry budget: 2 samples × 3 attempts.
        assert result.attempts_for(ug, peering.peering_id) == 2 * 3
        assert result.probes_lost == 6
        assert result.retries == 4
        assert result.loss_rate == 1.0

    def test_loss_window_survived_by_backoff(self, scenario):
        from repro.faults import FaultSchedule, ProbeLoss

        pinger = Pinger(scenario.latency_model, jitter_mean_ms=0.0, seed=2)
        config = CampaignConfig(
            probes_per_second=1000.0, samples_per_target=1,
            max_retries=2, retry_backoff_s=0.25,
        )
        campaign = MeasurementCampaign(pinger, config)
        ug, peering = campaign_targets(scenario, max_targets_per_ug=1)[0]
        # Total loss for 0.5 s: attempts at t=0 and t=0.25 die, the
        # exponentially backed-off third attempt (t=0.75) gets through.
        schedule = FaultSchedule(
            events=(ProbeLoss(start_s=0.0, duration_s=0.5, loss_rate=1.0),)
        )
        result = campaign.run([(ug, peering)], faults=schedule)
        assert result.targets_measured == 1
        assert result.attempts_for(ug, peering.peering_id) == 3
        assert result.retries == 2
        assert result.probes_lost == 2
        assert (ug.ug_id, peering.peering_id) in result.latencies_ms

    def test_stale_window_serves_previous_day(self, scenario):
        from repro.faults import FaultSchedule, StaleMeasurement

        pinger = Pinger(scenario.latency_model, jitter_mean_ms=0.0, seed=2)
        campaign = MeasurementCampaign(
            pinger, CampaignConfig(probes_per_second=1000.0, samples_per_target=3)
        )
        targets = campaign_targets(scenario, max_targets_per_ug=1)[:5]
        schedule = FaultSchedule(
            events=(StaleMeasurement(start_s=0.0, duration_s=3600.0, fraction=1.0),)
        )
        result = campaign.run(targets, day=1, faults=schedule, seed=4)
        fresh = campaign.run(targets, day=0)
        assert result.targets_measured == len(targets)
        assert result.stale_targets == set(result.latencies_ms)
        # Day-1 probes inside the stale window report day-0 values.
        assert result.latencies_ms == fresh.latencies_ms

    def test_clean_run_attempt_accounting(self, scenario):
        pinger = Pinger(scenario.latency_model, jitter_mean_ms=0.0, seed=2)
        campaign = MeasurementCampaign(
            pinger, CampaignConfig(probes_per_second=1000.0, samples_per_target=4)
        )
        targets = campaign_targets(scenario, max_targets_per_ug=1)[:8]
        result = campaign.run(targets)
        assert result.loss_rate == 0.0
        assert result.retries == 0
        assert result.stale_targets == set()
        for ug, peering in targets:
            assert result.attempts_for(ug, peering.peering_id) == 4
