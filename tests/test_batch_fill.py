"""The batch (UG × ingress) latency/distance fill against its scalar oracles.

Every slot of the store the evaluator materialises must hold, as an exact
double (compared via ``float.hex``), what the scalar oracles return for
it: ``LatencyModel.latency_ms`` for latency (``nan`` = unmeasurable) and
``haversine_km`` for distance.  Every
golden hangs off these values.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import benefit
from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.scenario import azure_scenario, prototype_scenario, tiny_scenario
from repro.topology.geo import DistanceTable, GeoPoint, fiber_rtt_ms, haversine_km
from tests.test_eq2_pass import store_latency


def _materialised(scenario, **config_kwargs):
    orch = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=2, **config_kwargs))
    filled = orch.evaluator.precompute_latency_matrix()
    return orch, filled, orch.evaluator.store


def _slots(scenario):
    """Every compliant (UG row, peering id) pair in store order: ascending
    peering id, then ascending row."""
    return sorted(
        (pid, row)
        for row, ug in enumerate(scenario.user_groups)
        for pid in scenario.catalog.ingress_ids(ug)
    )


def _assert_matches_scalar_oracles(scenario) -> None:
    orch, filled, store = _materialised(scenario)
    deployment = scenario.deployment
    latency_model = scenario.latency_model
    slots = _slots(scenario)
    assert filled == len(store) == len(slots)
    assert store.rows.tolist() == [row for _, row in slots]
    for at, (pid, row) in enumerate(slots):
        ug = scenario.user_groups[row]
        peering = deployment.peering(pid)
        assert float(store.latency[at]).hex() == latency_model.latency_ms(ug, peering).hex()
        km = float(store.distance[at]).hex()
        assert km == haversine_km(ug.location, peering.pop.location).hex()
    # The CSR index finds each slot from its UG.
    for row, ug in enumerate(scenario.user_groups):
        ids = sorted(scenario.catalog.ingress_ids(ug))
        at = store.at[store.first[row] : store.first[row + 1]]
        assert [slots[i] for i in at.tolist()] == [(pid, row) for pid in ids]


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
    _, _, store = _materialised(scenario)
    model = scenario.latency_model
    for at, (pid, row) in enumerate(_slots(scenario)):
        ug = scenario.user_groups[row]
        peering = scenario.deployment.peering(pid)
        expected = (
            model.propagation_ms(ug, peering) + model.last_mile_ms(ug)
        ) + model.inflation_penalty_ms(ug, peering)
        assert float(store.latency[at]).hex() == expected.hex()


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


def test_distance_table_falls_back_outside_its_points() -> None:
    a, b, c = GeoPoint(10.0, 20.0), GeoPoint(-30.0, 40.0), GeoPoint(50.0, -60.0)
    table = DistanceTable([a], [b])
    with pytest.raises(KeyError):
        table.target_indices([c])
    with pytest.raises(KeyError):
        table.origin_indices([c])


def test_chunked_fill_solves_identically(monkeypatch) -> None:
    def signature(custom):
        scenario = tiny_scenario(seed=5)
        kwargs = {}
        if custom:
            model, deployment = scenario.latency_model, scenario.deployment
            kwargs["latency_of"] = lambda ug, pid: model.latency_ms(ug, deployment.peering(pid))
        orch = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=4, **kwargs))
        config = orch.solve(record_curve=True)
        curve = [(p.prefixes_used, p.pairs_used, p.estimated_benefit) for p in orch.budget_curve]
        store = orch.evaluator.store
        return sorted(config.pairs()), curve, store.latency.tobytes(), store.distance.tobytes()

    whole = [signature(custom) for custom in (False, True)]
    assert whole[0] == whole[1]
    monkeypatch.setattr(benefit, "FILL_CHUNK_SLOTS", 1)  # one slot per pass
    assert [signature(custom) for custom in (False, True)] == whole


def test_custom_latency_of_fills_the_same_store() -> None:
    scenario = tiny_scenario(seed=0)
    model = scenario.latency_model
    deployment = scenario.deployment

    def oracle(ug, pid):
        return model.latency_ms(ug, deployment.peering(pid))

    _, _, store = _materialised(scenario)
    _, _, custom = _materialised(scenario, latency_of=oracle)
    for name in ("rows", "latency", "distance", "first", "at"):
        assert getattr(custom, name).tobytes() == getattr(store, name).tobytes()
    assert custom.spans == store.spans


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


@pytest.mark.parametrize(
    "bad_value",
    [math.nan, math.inf, -5.0, "12.5", True],
    ids=["nan", "inf", "negative", "str", "bool"],
)
def test_custom_latency_of_rejects_non_latencies(bad_value) -> None:
    scenario = tiny_scenario(seed=0)
    oracle, victim = _bad_oracle(scenario, bad_value)
    orch = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=2, latency_of=oracle))
    with pytest.raises(ValueError, match=rf"UG {victim} via peering \d+"):
        orch.solve()
    assert orch.evaluator.store is None


def test_custom_latency_of_none_stays_unmeasurable() -> None:
    scenario = tiny_scenario(seed=0)
    oracle, victim = _bad_oracle(scenario, None)
    orch, _, store = _materialised(scenario, latency_of=oracle)
    row = orch._ug_index[victim]
    victim_slots = store.rows == row
    assert victim_slots.any() and np.isnan(store.latency[victim_slots]).all()
    assert not np.isnan(store.latency[~victim_slots]).any()
    ug = scenario.user_groups[row]
    assert all(
        store_latency(orch.evaluator, ug, pid) is None
        for pid in scenario.catalog.ingress_ids(ug)
    )


# -- reads off the store ----------------------------------------------------


def _benefit_matrix_by_slot(evaluator, ugs):
    """The per-slot loop :meth:`BenefitEvaluator.benefit_matrix` replaced:
    one scalar latency read per compliant slot, UG by UG."""
    catalog = evaluator.model.catalog
    scenario = evaluator.scenario
    peering_ids = sorted({pid for ug in ugs for pid in catalog.ingress_ids(ug)})
    col_of = {pid: col for col, pid in enumerate(peering_ids)}
    rows, cols, gains = [], [], []
    for row, ug in enumerate(ugs):
        anycast = scenario.anycast_latency_ms(ug)
        for pid in sorted(catalog.ingress_ids(ug)):
            latency = store_latency(evaluator, ug, pid)
            if latency is None:
                continue
            gain = anycast - latency
            if gain > 0.0:
                rows.append(row)
                cols.append(col_of[pid])
                gains.append(ug.volume * gain)
    return tuple(peering_ids), rows, cols, [g.hex() for g in gains]


@pytest.mark.parametrize(
    "build", [lambda: tiny_scenario(seed=0), lambda: prototype_scenario(seed=0)],
    ids=["tiny", "prototype"],
)
def test_benefit_matrix_is_bit_equal_to_the_per_slot_loop(build) -> None:
    scenario = build()
    evaluator = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=2)).evaluator
    ugs = scenario.user_groups
    # The whole world, and a reordered subset with a gap.
    for subset in (ugs, ugs[::-3]):
        matrix = evaluator.benefit_matrix(None if subset is ugs else subset)
        assert matrix.ug_ids == tuple(ug.ug_id for ug in subset)
        assert (
            matrix.peering_ids,
            matrix.rows.tolist(),
            matrix.cols.tolist(),
            [float(g).hex() for g in matrix.gains],
        ) == _benefit_matrix_by_slot(evaluator, subset)


def test_benefit_matrix_skips_unmeasurable_slots_like_the_loop() -> None:
    scenario = tiny_scenario(seed=0)
    oracle, victim = _bad_oracle(scenario, None)
    orch, _, _ = _materialised(scenario, latency_of=oracle)
    matrix = orch.evaluator.benefit_matrix()
    assert orch._ug_index[victim] not in matrix.rows.tolist()
    assert (
        matrix.peering_ids,
        matrix.rows.tolist(),
        matrix.cols.tolist(),
        [float(g).hex() for g in matrix.gains],
    ) == _benefit_matrix_by_slot(orch.evaluator, scenario.user_groups)
