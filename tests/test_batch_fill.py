"""The batch (UG × ingress) latency/distance fill against its scalar oracles.

Every policy-compliant slot of the dense pair the evaluator materialises
must hold, as an exact double (compared via ``float.hex``), what the
scalar oracles return for it: ``LatencyModel.latency_ms`` for latency
(``+inf`` = unmeasurable), ``RoutingModel.distance_km`` and
``haversine_km`` for distance.  Every golden hangs off these values.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.scenario import azure_scenario, prototype_scenario, tiny_scenario
from repro.topology.geo import DistanceTable, GeoPoint, fiber_rtt_ms, haversine_km


def _materialised(scenario, **config_kwargs):
    orch = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=2, **config_kwargs))
    filled = orch.evaluator.precompute_latency_matrix()
    return orch, filled, orch.evaluator.latency_matrix, orch.evaluator.distance_matrix


def _assert_matches_scalar_oracles(scenario) -> None:
    orch, filled, lat, dist = _materialised(scenario)
    cols = orch.evaluator.peering_columns
    deployment = scenario.deployment
    latency_model = scenario.latency_model
    compliant = np.zeros(lat.shape, dtype=bool)
    for row, ug in enumerate(scenario.user_groups):
        for pid in scenario.catalog.ingress_ids(ug):
            col = cols[pid]
            compliant[row, col] = True
            peering = deployment.peering(pid)
            assert float(lat[row, col]).hex() == latency_model.latency_ms(ug, peering).hex()
            km = float(dist[row, col]).hex()
            assert km == haversine_km(ug.location, peering.pop.location).hex()
            assert km == orch.model.distance_km(ug, pid).hex()
    assert filled == int(compliant.sum())
    # Slots outside every UG's compliant set are never written.
    assert np.isnan(lat[~compliant]).all() and np.isnan(dist[~compliant]).all()


@pytest.mark.parametrize(
    "build",
    [
        lambda: tiny_scenario(seed=0),
        lambda: prototype_scenario(seed=0),
        lambda: azure_scenario(seed=0, n_ugs=120),
    ],
    ids=["tiny", "prototype", "azure-120"],
)
def test_batch_fill_is_bit_identical_to_scalar_oracles(build) -> None:
    _assert_matches_scalar_oracles(build())


@pytest.mark.slow
def test_batch_fill_is_bit_identical_on_full_azure() -> None:
    _assert_matches_scalar_oracles(azure_scenario(seed=0))


def test_day0_latencies_match_scalar_components_in_order() -> None:
    scenario = tiny_scenario(seed=0)
    orch, _, lat, _ = _materialised(scenario)
    model = scenario.latency_model
    cols = orch.evaluator.peering_columns
    for row, ug in enumerate(scenario.user_groups):
        for pid in scenario.catalog.ingress_ids(ug):
            peering = scenario.deployment.peering(pid)
            expected = (
                model.propagation_ms(ug, peering) + model.last_mile_ms(ug)
            ) + model.inflation_penalty_ms(ug, peering)
            assert float(lat[row, cols[pid]]).hex() == expected.hex()


_lat = st.floats(min_value=-89.0, max_value=89.0, allow_nan=False)
_lon = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)
_points = st.lists(st.builds(GeoPoint, _lat, _lon), min_size=1, max_size=6)


@settings(max_examples=60)
@given(origins=_points, targets=_points)
def test_distance_table_matches_scalar_haversine(origins, targets) -> None:
    table = DistanceTable(origins, targets)
    rows = table.origin_indices(origins)
    cols = table.target_indices(targets)
    for a, i in zip(origins, rows):
        for b, j in zip(targets, cols):
            km = haversine_km(a, b)
            assert float(table.km[i, j]).hex() == km.hex()
            assert float(table.fiber_rtt_ms[i, j]).hex() == fiber_rtt_ms(km).hex()
            assert table.distance_km(a, b).hex() == km.hex()


def test_distance_table_falls_back_outside_its_points() -> None:
    a, b, c = GeoPoint(10.0, 20.0), GeoPoint(-30.0, 40.0), GeoPoint(50.0, -60.0)
    table = DistanceTable([a], [b])
    assert table.distance_km(a, c) == haversine_km(a, c)
    with pytest.raises(KeyError):
        table.target_indices([c])


def test_row_chunked_fill_solves_identically() -> None:
    def signature(chunk_bytes):
        orch = PainterOrchestrator(tiny_scenario(seed=5), OrchestratorConfig(prefix_budget=4))
        if chunk_bytes is not None:
            # One row per chunk; the solve then reuses the pair as it is.
            orch.evaluator.precompute_latency_matrix(chunk_bytes=chunk_bytes)
        config = orch.solve(record_curve=True)
        curve = [(p.prefixes_used, p.pairs_used, p.estimated_benefit) for p in orch.budget_curve]
        return sorted(config.pairs()), curve

    assert signature(1) == signature(None)


def test_custom_latency_of_fills_the_same_pair() -> None:
    scenario = tiny_scenario(seed=0)
    model = scenario.latency_model
    deployment = scenario.deployment

    def oracle(ug, pid):
        return model.latency_ms(ug, deployment.peering(pid))

    _, _, lat, dist = _materialised(scenario)
    _, _, custom_lat, custom_dist = _materialised(scenario, latency_of=oracle)
    assert custom_lat.tobytes() == lat.tobytes()
    assert custom_dist.tobytes() == dist.tobytes()


# -- custom latency_of validation ------------------------------------------


def _bad_oracle(scenario, bad_value):
    model = scenario.latency_model
    deployment = scenario.deployment
    victim = scenario.user_groups[7].ug_id

    def oracle(ug, pid):
        if ug.ug_id == victim:
            return bad_value
        return model.latency_ms(ug, deployment.peering(pid))

    return oracle, victim


@pytest.mark.parametrize("bad_value", [math.nan, math.inf, -5.0], ids=["nan", "inf", "negative"])
def test_custom_latency_of_rejects_non_latencies(bad_value) -> None:
    scenario = tiny_scenario(seed=0)
    oracle, victim = _bad_oracle(scenario, bad_value)
    orch = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=2, latency_of=oracle))
    with pytest.raises(ValueError, match=rf"UG {victim} via peering \d+"):
        orch.solve()
    assert orch.evaluator.latency_matrix is None


def test_custom_latency_of_none_stays_unmeasurable() -> None:
    scenario = tiny_scenario(seed=0)
    oracle, victim = _bad_oracle(scenario, None)
    orch, _, lat, _ = _materialised(scenario, latency_of=oracle)
    row = orch._ug_index[victim]
    filled = lat[row][~np.isnan(lat[row])]
    assert len(filled) > 0 and np.isinf(filled).all()
