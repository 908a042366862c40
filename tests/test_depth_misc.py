"""Depth tests for corners the module suites don't reach."""

import math

import pytest

from repro.core.advertisement import AdvertisementConfig
from repro.core.benefit import realized_benefit
from repro.steering.granularity import (
    GRANULARITY_BUCKETS,
    PopGranularity,
    _bucket_shares,
)


class TestBucketShares:
    def test_unit_equal_to_whole_pop(self):
        shares = _bucket_shares([10.0], pop_volume=10.0)
        assert shares[-1] == pytest.approx(1.0)
        assert sum(shares) == pytest.approx(1.0)

    def test_zero_pop_volume(self):
        assert _bucket_shares([1.0], pop_volume=0.0) == tuple(
            0.0 for _ in GRANULARITY_BUCKETS
        )

    def test_tiny_units_in_finest_bucket(self):
        shares = _bucket_shares([1e-7] * 10, pop_volume=1.0)
        assert shares[0] == pytest.approx(1e-6)
        assert all(s == 0 for s in shares[1:])

    def test_share_finer_than(self):
        granularity = PopGranularity(
            pop_name="p", mechanism="m", bucket_shares=(0.1, 0.2, 0.3, 0.2, 0.2)
        )
        assert granularity.share_finer_than(0.001) == pytest.approx(0.3)
        assert granularity.share_finer_than(1.1) == pytest.approx(1.0)


class TestRealizedBenefitModes:
    def test_day_changes_realized(self, scenario):
        config = AdvertisementConfig.from_pairs(
            (0, pid) for pid in sorted(scenario.catalog.ingress_ids(scenario.user_groups[0]))[:2]
        )
        day0 = realized_benefit(scenario, config, day=0)
        later = {realized_benefit(scenario, config, day=d) for d in range(1, 6)}
        assert len(later | {day0}) > 1

    def test_prefix_choice_partial_mapping(self, scenario):
        """UGs absent from the pinning map fall back to anycast (0 gain)."""
        ug = scenario.user_groups[0]
        config = AdvertisementConfig.from_pairs(
            (0, pid) for pid in sorted(scenario.catalog.ingress_ids(ug))[:2]
        )
        pinned_all = realized_benefit(
            scenario, config, prefix_choice={u.ug_id: 0 for u in scenario.user_groups}
        )
        pinned_none = realized_benefit(scenario, config, prefix_choice={})
        free = realized_benefit(scenario, config)
        assert pinned_none == 0.0
        assert pinned_all <= free + 1e-9


class TestFailoverSummaryApi:
    def test_summary_matches_run(self):
        from repro.experiments.fig10 import failover_summary

        outcome = failover_summary()
        assert outcome.detection_time_s is not None
        assert outcome.recovery_time_s is not None
        assert outcome.recovery_time_s >= outcome.config.failure_time_s


class TestInstallationHelpers:
    def test_pop_octet_stable_and_bounded(self, scenario):
        from repro.core.installation import pop_octet

        pops = scenario.deployment.pops
        octets = [pop_octet(p) for p in pops]
        assert octets == [pop_octet(p) for p in pops]  # stable
        assert all(0 <= o < 250 for o in octets)
        assert len(set(octets)) == len(pops)  # distinct within a deployment


class TestConvergenceProperties:
    @pytest.mark.parametrize("seed", range(5))
    def test_traces_well_formed_across_seeds(self, seed):
        from repro.bgp.convergence import simulate_withdrawal

        trace = simulate_withdrawal(30.0, seed=seed)
        times = [e.time_s for e in trace.events]
        assert times == sorted(times)
        assert math.isinf(trace.latency_penalty_at(trace.withdrawal_time_s + 1e-6))
        assert not math.isinf(trace.latency_penalty_at(trace.reconvergence_time_s + 1.0))
        assert trace.latency_penalty_at(trace.reconvergence_time_s + 60.0) == 0.0


class TestWorkloadEdgeCases:
    def test_single_site_enterprise(self, scenario):
        from repro.enterprise import Enterprise, STANDARD_SERVICES, Site, SiteKind
        from repro.enterprise.workload import generate_workload

        enterprise = Enterprise(name="solo", services=list(STANDARD_SERVICES))
        enterprise.add_site(
            Site(
                name="only",
                kind=SiteKind.HEADQUARTERS,
                user_group=scenario.user_groups[0],
                headcount=50,
            )
        )
        flows = generate_workload(enterprise, duration_s=1800.0, seed=1)
        assert flows
        assert {f.site_name for f in flows} == {"only"}
