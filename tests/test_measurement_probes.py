"""Probe fleet: coverage, volume bias, neighborhood queries."""

import pytest

from repro.measurement.probes import ProbeFleet, ProbeFleetConfig


class TestConfigValidation:
    def test_bad_coverage(self):
        with pytest.raises(ValueError):
            ProbeFleetConfig(coverage_fraction=0.0)

    def test_bad_bias(self):
        with pytest.raises(ValueError):
            ProbeFleetConfig(volume_bias=-1)


class TestFleet:
    def test_coverage_count(self, small_scenario):
        fleet = ProbeFleet(
            small_scenario.user_groups, ProbeFleetConfig(seed=1, coverage_fraction=0.3)
        )
        expected = round(len(small_scenario.user_groups) * 0.3)
        assert len(fleet.probe_ugs()) == expected

    def test_deterministic(self, small_scenario):
        cfg = ProbeFleetConfig(seed=2, coverage_fraction=0.25)
        a = ProbeFleet(small_scenario.user_groups, cfg)
        b = ProbeFleet(small_scenario.user_groups, cfg)
        assert a.probe_ugs() == b.probe_ugs()

    def test_volume_bias_overrepresents_heavy_ugs(self, small_scenario):
        """Probes cover more traffic volume than UG count share."""
        fleet = ProbeFleet(
            small_scenario.user_groups,
            ProbeFleetConfig(seed=3, coverage_fraction=0.3, volume_bias=1.5),
        )
        ugs = small_scenario.user_groups
        count_share = len(fleet.probe_ugs()) / len(ugs)
        volume_share = sum(ug.volume for ug in fleet.probe_ugs()) / sum(ug.volume for ug in ugs)
        assert volume_share > count_share

    def test_has_probe_consistent(self, small_scenario):
        fleet = ProbeFleet(small_scenario.user_groups, ProbeFleetConfig(seed=1))
        for ug in small_scenario.user_groups:
            assert fleet.has_probe(ug) == (ug in fleet.probe_ugs())

    def test_probes_near_radius(self, small_scenario):
        from repro.topology.geo import haversine_km

        fleet = ProbeFleet(small_scenario.user_groups, ProbeFleetConfig(seed=1))
        ug = small_scenario.user_groups[0]
        for probe in fleet.probes_near(ug, radius_km=1500):
            assert haversine_km(probe.location, ug.location) <= 1500
            assert probe.ug_id != ug.ug_id

    def test_probes_near_latency_filter(self, small_scenario):
        fleet = ProbeFleet(small_scenario.user_groups, ProbeFleetConfig(seed=1))
        anycast = small_scenario.anycast_latencies()
        ug = small_scenario.user_groups[0]
        near = fleet.probes_near(
            ug, radius_km=3000, anycast_latency_ms=anycast, latency_tolerance_ms=10.0
        )
        for probe in near:
            assert abs(anycast[probe.ug_id] - anycast[ug.ug_id]) <= 10.0
        unrestricted = fleet.probes_near(ug, radius_km=3000)
        assert len(near) <= len(unrestricted)

    def test_full_coverage(self, scenario):
        fleet = ProbeFleet(scenario.user_groups, ProbeFleetConfig(seed=1, coverage_fraction=1.0))
        assert len(fleet.probe_ugs()) == len(scenario.user_groups)
