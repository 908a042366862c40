"""ChaosHarness → controller wiring: storms drive the daemon directly.

The regression the soak PR pins down: translating a chaos storm through
``deltas_from_fault_schedule`` and feeding it to the controller must
produce *exactly* the installs a hand-fed copy of the same delta list
produces — the storm path adds weather, not nondeterminism.  Plus the
safety guard: a storm may never darken the deployment's last healthy PoP.
"""

from __future__ import annotations

import json

import pytest

from repro.controller import (
    ControllerConfig,
    PainterController,
    PopDown,
    PopUp,
    deltas_from_fault_schedule,
)
from repro.core.orchestrator import OrchestratorConfig
from repro.experiments.chaos import ChaosConfig, ChaosHarness
from repro.faults import FaultSchedule

pytestmark = pytest.mark.soak


@pytest.fixture()
def harness():
    return ChaosHarness(ChaosConfig(storms=1, duration_s=900.0, seed=5))


def controller_storm(harness, scenario, storm: int) -> FaultSchedule:
    """A seeded storm over the *scenario's own* PoPs.

    :meth:`ChaosHarness.make_storm` storms the synthetic Fig. 10 paths;
    this variant targets the deployment the controller actually
    manages, so its outages translate into :class:`PopDown` /
    :class:`PopUp` deltas the daemon can ingest.  Deterministic given
    ``cfg.seed + storm``, exactly like ``make_storm``.
    """
    cfg = harness.config
    pop_names = sorted(p.name for p in scenario.deployment.pops)
    return FaultSchedule.random_storm(
        pop_names=pop_names,
        duration_s=cfg.duration_s * 0.85,
        seed=cfg.seed + storm,
        intensity=cfg.intensity,
    )


def controller_deltas(harness, scenario, storm: int) -> list:
    """The storm as controller deltas, safe to feed the daemon.

    Translates :func:`controller_storm` through
    :func:`repro.controller.deltas_from_fault_schedule`, then applies
    the same guard :func:`repro.controller.synthetic_deltas` uses:
    a :class:`PopDown` that would darken the last healthy PoP is
    dropped (deterministically — by stream order), along with its
    paired :class:`PopUp`, because an all-dark deployment has no
    candidate peerings for Algorithm 1 to advertise from.
    """
    schedule = controller_storm(harness, scenario, storm)
    deltas = deltas_from_fault_schedule(schedule)
    total = {p.name for p in scenario.deployment.pops}
    down: set = set()
    skipped: set = set()
    filtered = []
    for delta in deltas:
        if isinstance(delta, PopDown):
            if delta.pop_name in down:
                continue  # already dark; a second Down is a no-op
            if len(down) + 1 >= len(total):
                skipped.add(delta.pop_name)
                continue  # never darken the last healthy PoP
            down.add(delta.pop_name)
        elif isinstance(delta, PopUp):
            if delta.pop_name in skipped:
                skipped.discard(delta.pop_name)
                continue  # its Down was dropped; drop the heal too
            down.discard(delta.pop_name)
        filtered.append(delta)
    return filtered


def drive_controller(harness, scenario, storm, checkpoint_dir, *, deltas=None):
    """Run the controller daemon under one storm's weather.

    ``deltas`` overrides the storm-derived stream, so a hand-fed copy of the
    same list can be compared against the storm path.
    """
    if deltas is None:
        deltas = controller_deltas(harness, scenario, storm)
    controller = PainterController(
        scenario,
        OrchestratorConfig(prefix_budget=4),
        ControllerConfig(
            checkpoint_dir=checkpoint_dir,
            observe=False,
            run_name=f"chaos-storm-{storm}",
        ),
        deltas,
    )
    try:
        return controller.run()
    finally:
        controller.close()


def journal_bytes(checkpoint_dir):
    return (checkpoint_dir / "journal.jsonl").read_bytes()


def install_events(checkpoint_dir):
    lines = journal_bytes(checkpoint_dir).decode().splitlines()
    return [
        event
        for event in (json.loads(line) for line in lines[1:])
        if event["event"] == "controller_install"
    ]


class TestStormDrivenController:
    def test_storm_deltas_match_hand_fed_deltas(
        self, harness, scenario, tmp_path
    ):
        deltas = controller_deltas(harness, scenario, storm=0)
        assert deltas, "storm produced no controller deltas"

        stormy = drive_controller(harness, scenario, 0, tmp_path / "storm")
        hand_fed = drive_controller(
            harness, scenario, 0, tmp_path / "hand", deltas=list(deltas)
        )

        assert stormy.final_config == hand_fed.final_config
        assert stormy.iterations_run == hand_fed.iterations_run
        assert stormy.deltas_applied == hand_fed.deltas_applied
        assert install_events(tmp_path / "storm") == install_events(
            tmp_path / "hand"
        )
        assert journal_bytes(tmp_path / "storm") == journal_bytes(
            tmp_path / "hand"
        )

    def test_run_shape(self, harness, scenario, tmp_path):
        deltas = controller_deltas(harness, scenario, storm=0)
        result = drive_controller(harness, scenario, 0, tmp_path / "cp")
        assert result.final_config is not None
        assert result.deltas_applied == len(deltas)
        assert result.degradations == 0

    def test_storm_is_deterministic_per_index(self, harness, scenario):
        first = controller_deltas(harness, scenario, storm=0)
        again = controller_deltas(harness, scenario, storm=0)
        other = controller_storm(harness, scenario, storm=1)
        assert first == again
        assert other != controller_storm(harness, scenario, storm=0)


class TestLastPopGuard:
    def test_storm_never_darkens_every_pop(self, scenario):
        total = {p.name for p in scenario.deployment.pops}
        # A violent storm: far more outages than PoPs.
        harness = ChaosHarness(
            ChaosConfig(storms=1, duration_s=900.0, seed=1, intensity=10.0)
        )
        deltas = controller_deltas(harness, scenario, storm=0)
        raw = controller_storm(harness, scenario, storm=0)
        assert len(raw.events) >= len(total), "storm not violent enough"
        down = set()
        for delta in deltas:
            if isinstance(delta, PopDown):
                down.add(delta.pop_name)
            elif isinstance(delta, PopUp):
                down.discard(delta.pop_name)
            assert len(down) < len(total)

    def test_guard_drops_the_paired_heal_too(self, scenario):
        harness = ChaosHarness(
            ChaosConfig(storms=1, duration_s=900.0, seed=1, intensity=10.0)
        )
        deltas = controller_deltas(harness, scenario, storm=0)
        # A PopUp only survives the filter if some PopDown for the same
        # PoP did — a guard-dropped outage loses its heal as well.
        downed = {
            d.pop_name for d in deltas if isinstance(d, PopDown)
        }
        healed = {d.pop_name for d in deltas if isinstance(d, PopUp)}
        assert healed <= downed
