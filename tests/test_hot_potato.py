"""Hot-potato coexistence: epochs, directional invariants, and goldens.

Covers the link-weight-epoch machinery end to end:

* frozen-epoch differential — one epoch means zero oscillations and a
  PAINTER combined gain *bit-identical* to the plain additive
  :func:`repro.egress.coexistence.evaluate_coexistence` result;
* :class:`DirectionalModel` invariants — ``ingress + egress == rtt``
  exactly, and loud :class:`CoexistenceError` failures instead of silent
  drift (epoch without a schedule, out-of-range epochs);
* the controller delta vocabulary (:class:`LinkWeightShift`) round-trips
  through JSON and drives the daemon's epoch tracking;
* a golden azure-preset oscillation/erosion table pins the full scenario
  (slow tier).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.controller import (
    ControllerConfig,
    DeltaError,
    LinkWeightShift,
    PainterController,
    delta_from_dict,
    delta_to_dict,
    link_weight_deltas,
)
from repro.core.orchestrator import OrchestratorConfig
from repro.egress.coexistence import (
    CoexistenceError,
    DirectionalModel,
    LinkWeightEpochs,
    evaluate_coexistence,
)
from repro.experiments.fig6 import painter_budget_configs
from repro.experiments.hotpotato import run_hot_potato

GOLDEN = Path(__file__).parent / "data" / "golden_hotpotato.json"


# ---------------------------------------------------------------------------
# Frozen-epoch differential (the CI-gated identity)
# ---------------------------------------------------------------------------


def test_frozen_epochs_zero_oscillations_and_bit_identical_gain(scenario):
    result = run_hot_potato(scenario=scenario, budget=6, n_epochs=1)
    # A frozen schedule has exactly one epoch: one row per mode, epoch 0.
    assert [row[1] for row in result.rows] == [0, 0]
    assert all(row[2] == 0 for row in result.rows), "oscillations must be exactly 0"
    assert all(row[4] == 0.0 for row in result.rows), "no erosion at epoch 0"

    config = painter_budget_configs(scenario, [6])[6]
    expected = evaluate_coexistence(scenario, config).combined_gain
    painter_gain = next(row[3] for row in result.rows if row[0] == "painter")
    assert painter_gain == expected  # bit-identical, not approx


def test_epochs_shift_produces_oscillation_asymmetry(scenario):
    result = run_hot_potato(scenario=scenario, budget=6, n_epochs=3, amplitude=0.3)
    flips = {}
    for row in result.rows:
        flips[row[0]] = flips.get(row[0], 0) + row[2]
    # PAINTER's plain prefixes carry no IGP signal: invariant by construction.
    assert flips["painter"] == 0
    # MED-pinned community steering chases the moving egress costs.
    assert flips["communities"] > 0


# ---------------------------------------------------------------------------
# DirectionalModel invariants and failure modes
# ---------------------------------------------------------------------------


def test_split_sums_exactly_to_rtt(scenario):
    model = DirectionalModel(scenario)
    checked = 0
    for ug in scenario.user_groups:
        for peering in list(scenario.catalog.ingresses(ug))[:3]:
            rtt = scenario.latency_model.latency_ms(ug, peering)
            split = model.split(ug, peering)
            assert split.ingress_ms + split.egress_ms == rtt  # exact, not approx
            checked += 1
    assert checked > 0


def test_epoch_without_schedule_raises(scenario):
    model = DirectionalModel(scenario)
    ug = scenario.user_groups[0]
    peering = next(iter(scenario.catalog.ingresses(ug)))
    with pytest.raises(CoexistenceError):
        model.split(ug, peering, epoch=1)


def test_epoch_zero_multiplier_is_exactly_one():
    epochs = LinkWeightEpochs(n_epochs=3, seed=0, amplitude=0.3)
    assert epochs.multiplier(0, "any-pop") == 1.0
    assert epochs.igp_med(0, "any-pop") == 1000
    assert epochs.multiplier(1, "any-pop") != 1.0
    with pytest.raises(CoexistenceError):
        epochs.multiplier(3, "any-pop")
    with pytest.raises(CoexistenceError):
        epochs.multiplier(-1, "any-pop")


def test_epoch_zero_split_matches_unscheduled_model(scenario):
    plain = DirectionalModel(scenario)
    scheduled = DirectionalModel(
        scenario, epochs=LinkWeightEpochs(n_epochs=4, seed=1, amplitude=0.25)
    )
    for ug in scenario.user_groups[:10]:
        peering = next(iter(scenario.catalog.ingresses(ug)))
        a = plain.split(ug, peering)
        b = scheduled.split(ug, peering, epoch=0)
        assert (a.ingress_ms, a.egress_ms) == (b.ingress_ms, b.egress_ms)


# ---------------------------------------------------------------------------
# Controller delta vocabulary
# ---------------------------------------------------------------------------


def test_link_weight_shift_json_round_trip():
    delta = LinkWeightShift(at_s=120.0, epoch=3)
    doc = delta_to_dict(delta)
    assert doc["type"] == "link_weight_shift"
    assert doc["epoch"] == 3
    restored = delta_from_dict(json.loads(json.dumps(doc)))
    assert isinstance(restored, LinkWeightShift)
    assert restored.epoch == 3 and restored.at_s == 120.0


def test_link_weight_deltas_schedule():
    assert link_weight_deltas(1) == []
    stream = link_weight_deltas(4, interval_s=30.0)
    assert [d.epoch for d in stream] == [1, 2, 3]
    assert [d.at_s for d in stream] == [30.0, 60.0, 90.0]
    with pytest.raises(DeltaError):
        link_weight_deltas(0)
    with pytest.raises(DeltaError):
        LinkWeightShift(at_s=0.0, epoch=-1)


def test_daemon_tracks_weight_epoch(scenario, tmp_path):
    controller = PainterController(
        scenario,
        OrchestratorConfig(prefix_budget=2),
        ControllerConfig(checkpoint_dir=tmp_path / "hotpotato"),
        link_weight_deltas(3, interval_s=60.0),
    )
    try:
        result = controller.run()
    finally:
        controller.close()
    assert controller.weight_epoch == 2
    assert result.deltas_applied == 2
    # The solve is deliberately epoch-invariant: PAINTER holds its ingress.
    assert result.final_config is not None


# ---------------------------------------------------------------------------
# Golden azure-preset table (slow tier)
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_golden_azure_hotpotato_table():
    from repro.scenario import azure_scenario

    result = run_hot_potato(
        scenario=azure_scenario(seed=0, n_ugs=150),
        budget=6,
        n_epochs=3,
        amplitude=0.3,
        seed=0,
    )
    golden = json.loads(GOLDEN.read_text())
    assert list(result.columns) == golden["columns"]
    assert [list(row) for row in result.rows] == golden["rows"]
