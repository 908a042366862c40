"""Enterprise model, builder, workload, and SLO analysis."""

import pytest

from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.enterprise.builder import EnterpriseConfig, build_enterprise
from repro.enterprise.model import (
    Enterprise,
    STANDARD_SERVICES,
    ServiceProfile,
    Site,
    SiteKind,
)
from repro.enterprise.slo import analyze_slos, summarize_slos
from repro.enterprise.workload import (
    diurnal_intensity,
    flows_by_service,
    generate_workload,
    peak_concurrent_demand_mbps,
)


@pytest.fixture(scope="module")
def world():
    from repro.scenario import tiny_scenario

    return tiny_scenario(seed=3)


@pytest.fixture(scope="module")
def enterprise(world):
    return build_enterprise(world, EnterpriseConfig(seed=1, n_branches=3))


class TestModel:
    def test_service_validation(self):
        with pytest.raises(ValueError):
            ServiceProfile(name="x", latency_slo_ms=0, bandwidth_mbps=1)
        with pytest.raises(ValueError):
            ServiceProfile(name="x", latency_slo_ms=10, bandwidth_mbps=-1)
        with pytest.raises(ValueError):
            ServiceProfile(name="x", latency_slo_ms=10, bandwidth_mbps=1, loss_slo=1.0)

    def test_standard_services_include_ar(self):
        ar = next(s for s in STANDARD_SERVICES if s.name == "ar-offload")
        assert ar.latency_slo_ms == 10.0  # the paper's AR requirement
        assert ar.bandwidth_mbps == 20.0
        assert ar.loss_slo == 1e-5

    def test_duplicate_site_rejected(self, world):
        enterprise = Enterprise(name="e")
        ug = world.user_groups[0]
        enterprise.add_site(Site(name="a", kind=SiteKind.HEADQUARTERS, user_group=ug, headcount=10))
        with pytest.raises(ValueError):
            enterprise.add_site(Site(name="a", kind=SiteKind.BRANCH_OFFICE, user_group=ug, headcount=5))

    def test_site_lookup(self, enterprise):
        assert enterprise.site("hq").kind is SiteKind.HEADQUARTERS
        with pytest.raises(KeyError):
            enterprise.site("nowhere")
        assert enterprise.service("teleconferencing").traffic_share > 0
        with pytest.raises(KeyError):
            enterprise.service("nothing")


class TestBuilder:
    def test_structure(self, enterprise):
        kinds = [site.kind for site in enterprise.sites]
        assert kinds.count(SiteKind.HEADQUARTERS) == 1
        assert kinds.count(SiteKind.BRANCH_OFFICE) == 3
        assert kinds.count(SiteKind.REMOTE_EMPLOYEES) == 1

    def test_remote_site_unmanaged(self, enterprise):
        assert not enterprise.site("remote").has_edge_stack
        assert enterprise.steerable_fraction() < 1.0

    def test_sites_in_distinct_ugs(self, enterprise):
        ug_ids = [site.user_group.ug_id for site in enterprise.sites]
        assert len(ug_ids) == len(set(ug_ids))

    def test_deterministic(self, world):
        a = build_enterprise(world, EnterpriseConfig(seed=7))
        b = build_enterprise(world, EnterpriseConfig(seed=7))
        assert [s.user_group.ug_id for s in a.sites] == [
            s.user_group.ug_id for s in b.sites
        ]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EnterpriseConfig(n_branches=-1)
        with pytest.raises(ValueError):
            EnterpriseConfig(unmanaged_site_prob=2.0)


class TestWorkload:
    def test_diurnal_shape(self):
        assert diurnal_intensity(14 * 3600.0) == pytest.approx(1.0)
        assert diurnal_intensity(2 * 3600.0) < 0.3
        for hour in range(24):
            assert 0.05 <= diurnal_intensity(hour * 3600.0) <= 1.0

    def test_flows_cover_sites_and_services(self, enterprise):
        flows = generate_workload(enterprise, duration_s=3600.0, seed=3)
        sites = {flow.site_name for flow in flows}
        assert sites == {site.name for site in enterprise.sites}
        counts = flows_by_service(flows)
        # High-share services appear more often than low-share ones.
        assert counts.get("teleconferencing", 0) > counts.get("ar-offload", 0)

    def test_flows_within_window(self, enterprise):
        flows = generate_workload(enterprise, duration_s=600.0, start_s=1000.0, seed=3)
        for flow in flows:
            assert 1000.0 <= flow.start_s <= 1600.0
            assert flow.duration_s > 0

    def test_flows_sorted_and_deterministic(self, enterprise):
        a = generate_workload(enterprise, seed=4)
        b = generate_workload(enterprise, seed=4)
        assert [f.five_tuple for f in a] == [f.five_tuple for f in b]
        starts = [f.start_s for f in a]
        assert starts == sorted(starts)

    def test_peak_demand_positive(self, enterprise):
        flows = generate_workload(enterprise, seed=3)
        peak = peak_concurrent_demand_mbps(flows)
        assert peak > 0
        assert peak <= sum(f.bandwidth_mbps for f in flows)

    def test_invalid_duration(self, enterprise):
        with pytest.raises(ValueError):
            generate_workload(enterprise, duration_s=0.0)


class TestSlo:
    @pytest.fixture(scope="class")
    def outcomes(self, world, enterprise):
        orchestrator = PainterOrchestrator(world, OrchestratorConfig(prefix_budget=4))
        orchestrator.learn(iterations=2)
        config = orchestrator.solve()
        return analyze_slos(world, enterprise, config)

    def test_rows_cover_all_pairs(self, enterprise, outcomes):
        assert len(outcomes) == len(enterprise.sites) * len(enterprise.services)

    def test_painter_never_worse(self, outcomes):
        for outcome in outcomes:
            assert outcome.painter_latency_ms <= outcome.anycast_latency_ms + 1e-9
            if outcome.met_under_anycast:
                assert outcome.met_under_painter

    def test_unmanaged_sites_get_no_improvement(self, outcomes):
        for outcome in outcomes:
            if not outcome.steerable:
                assert outcome.improvement_ms == 0.0

    def test_summary_weighted(self, enterprise, outcomes):
        summary = summarize_slos(enterprise, outcomes)
        assert 0.0 <= summary.anycast_met_fraction <= 1.0
        assert summary.painter_met_fraction >= summary.anycast_met_fraction
        assert summary.mean_improvement_ms >= 0.0

    def test_empty_summary_rejected(self, enterprise):
        with pytest.raises(ValueError):
            summarize_slos(enterprise, [])
