"""Appendix C: simulating measurements from probe neighborhoods."""

import pytest

from repro.measurement.extrapolation import ExtrapolationConfig, SimulatedMeasurements
from repro.measurement.probes import ProbeFleet, ProbeFleetConfig


@pytest.fixture(scope="module")
def world(small_scenario):
    return small_scenario


@pytest.fixture(scope="module")
def fleet(world):
    return ProbeFleet(world.user_groups, ProbeFleetConfig(seed=2, coverage_fraction=0.4))


def measurable_fraction(world, fleet, simulated):
    """Fraction of UGs with real or simulated measurements."""
    measurable = [
        ug
        for ug in world.user_groups
        if fleet.has_probe(ug) or simulated.representative_improvements(ug)
    ]
    return len(measurable) / len(world.user_groups)


@pytest.fixture(scope="module")
def simulated(world, fleet):
    return SimulatedMeasurements(world, fleet, ExtrapolationConfig(seed=5))


class TestSimulatedMeasurements:
    def test_probe_ugs_get_real_measurements(self, world, fleet, simulated):
        for ug in world.user_groups:
            if not fleet.has_probe(ug):
                continue
            peering = world.catalog.ingresses(ug)[0]
            assert simulated(ug, peering.peering_id) == world.latency_model.latency_ms(
                ug, peering
            )
            break
        else:
            pytest.fail("no probe UG found")

    def test_non_compliant_unmeasurable(self, world, simulated):
        for ug in world.user_groups:
            compliant = world.catalog.ingress_ids(ug)
            for peering in world.deployment.peerings:
                if peering.peering_id not in compliant:
                    assert simulated(ug, peering.peering_id) is None
                    return
        pytest.skip("all peerings compliant in this seed")

    def test_extrapolated_values_positive_and_deterministic(self, world, fleet, simulated):
        tested = 0
        for ug in world.user_groups:
            if fleet.has_probe(ug):
                continue
            if not simulated.representative_improvements(ug):
                continue
            for pid in sorted(world.catalog.ingress_ids(ug))[:3]:
                value = simulated(ug, pid)
                assert value is not None and value > 0
                assert simulated(ug, pid) == value  # cached + stable
            tested += 1
            if tested >= 5:
                break
        assert tested > 0, "no extrapolatable UGs; enlarge the fleet"

    def test_isolated_ug_unmeasurable(self, world, fleet):
        tight = SimulatedMeasurements(
            world, fleet, ExtrapolationConfig(seed=5, radius_km=0.001)
        )
        for ug in world.user_groups:
            if fleet.has_probe(ug):
                continue
            pid = min(world.catalog.ingress_ids(ug))
            assert tight(ug, pid) is None
            return
        pytest.skip("every UG hosts a probe")

    def test_measurable_fraction_grows_with_radius(self, world, fleet):
        narrow = SimulatedMeasurements(
            world, fleet, ExtrapolationConfig(seed=5, radius_km=100)
        )
        wide = SimulatedMeasurements(
            world, fleet, ExtrapolationConfig(seed=5, radius_km=3000)
        )
        wide_fraction = measurable_fraction(world, fleet, wide)
        assert wide_fraction >= measurable_fraction(world, fleet, narrow)
        assert wide_fraction > 0.4

    def test_orchestrator_runs_on_simulated_measurements(self, world, fleet):
        """The Fig. 6a pipeline: Algorithm 1 over partially-simulated data."""
        from repro.core.benefit import realized_benefit
        from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator

        simulated = SimulatedMeasurements(world, fleet, ExtrapolationConfig(seed=5))
        orchestrator = PainterOrchestrator(
            world, OrchestratorConfig(prefix_budget=4, latency_of=simulated)
        )
        config = orchestrator.solve()
        assert config.prefix_count >= 1
        assert realized_benefit(world, config) > 0
