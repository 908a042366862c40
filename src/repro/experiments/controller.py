"""Continuous-operation experiment: the controller daemon under churn.

Runs the :class:`repro.controller.PainterController` over a seeded
synthetic delta stream (volume churn, peering flaps, a PoP outage from a
fault schedule) three ways and compares them:

* **uninterrupted** — the reference run, start to finish;
* **kill/resume** — the same run stopped cold mid-stream and restarted
  from its durable checkpoint, to demonstrate crash recovery converges
  to the identical configuration and journal;
* **cold-only** — warm-starting disabled, to measure what the memoized
  replay actually saves per iteration.

The result table is one row per iteration of the reference run (mode,
deltas applied, dirty peerings, reused vs fresh marginal evaluations,
realized benefit); the notes carry the recovery-equivalence verdicts and
the aggregate warm-start reuse rate.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import List, Optional

from repro.core.orchestrator import OrchestratorConfig
from repro.experiments.harness import ExperimentResult
from repro.faults.events import PopOutage
from repro.faults.schedule import FaultSchedule
from repro.scenario import tiny_scenario


def _build_deltas(scenario, iterations: int, seed: int):
    # Imported here (not at module level): repro.controller pulls in
    # repro.io, which needs repro.experiments.harness — a module-level
    # import would close that cycle during package init.
    from repro.controller import deltas_from_fault_schedule, synthetic_deltas

    deltas = synthetic_deltas(scenario, iterations=iterations, seed=seed)
    # Fold in a scheduled PoP outage so the fault-schedule path is
    # exercised too: dark for two iteration intervals, then healed.
    pop = sorted(p.name for p in scenario.deployment.pops)[0]
    schedule = FaultSchedule(
        [PopOutage(start_s=120.0, pop_name=pop, duration_s=120.0)]
    )
    return sorted(
        deltas + deltas_from_fault_schedule(schedule), key=lambda d: d.at_s
    )


def _run(scenario, deltas, directory, *, warm: bool, budget: int, max_iterations=None):
    from repro.controller import ControllerConfig, PainterController

    # observe=False: a measurement round grows the learned set, which
    # (correctly) dirties most peerings and defeats memo reuse — this
    # experiment isolates the delta-driven re-solve path the warm start
    # exists for.
    controller = PainterController(
        scenario,
        OrchestratorConfig(prefix_budget=budget),
        ControllerConfig(
            checkpoint_dir=directory,
            warm_start=warm,
            verify_every=3,
            observe=False,
            max_iterations=max_iterations,
        ),
        deltas,
    )
    try:
        return controller.run(), controller.orchestrator
    finally:
        controller.close()


def run_controller(
    iterations: int = 6, seed: int = 0, budget: int = 4
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="controller",
        title="continuous operation: warm-start re-solve under churn",
        columns=(
            "iteration", "mode", "reused evals", "fresh evals",
            "realized benefit",
        ),
    )
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)

        # Reference: uninterrupted run.
        scenario = tiny_scenario(seed=3)
        deltas = _build_deltas(scenario, iterations, seed)
        reference, _ = _run(scenario, deltas, root / "ref", warm=True, budget=budget)

        reused_total = 0
        fresh_total = 0
        for entry in reference.timeline:
            result.add_row(
                entry["iteration"],
                entry["mode"],
                entry.get("reused_evals", 0),
                entry.get("fresh_evals", 0),
                entry.get("realized_benefit", 0.0),
            )
            reused_total += entry.get("reused_evals", 0)
            fresh_total += entry.get("fresh_evals", 0)
        evals = reused_total + fresh_total
        if evals:
            result.add_note(
                f"warm-start reuse: {reused_total}/{evals} marginal "
                f"evaluations memoized ({100 * reused_total / evals:.1f}%)"
            )

        # Kill/resume: stop after the stream's midpoint, restart fresh.
        half = max(1, reference.iterations_run // 2)
        scenario = tiny_scenario(seed=3)
        deltas = _build_deltas(scenario, iterations, seed)
        _run(scenario, deltas, root / "kill", warm=True, budget=budget, max_iterations=half)
        scenario = tiny_scenario(seed=3)
        deltas = _build_deltas(scenario, iterations, seed)
        resumed, _ = _run(scenario, deltas, root / "kill", warm=True, budget=budget)
        configs_match = resumed.final_config == reference.final_config
        journals_match = (
            (root / "ref" / "journal.jsonl").read_bytes()
            == (root / "kill" / "journal.jsonl").read_bytes()
        )
        result.add_note(
            f"kill after iteration {half - 1} / resume: final config "
            f"{'identical' if configs_match else 'DIVERGED'}, journal "
            f"{'byte-identical' if journals_match else 'DIVERGED'}"
        )

        # Cold-only control: same stream with warm-starting disabled.
        scenario = tiny_scenario(seed=3)
        deltas = _build_deltas(scenario, iterations, seed)
        cold, _ = _run(scenario, deltas, root / "cold", warm=False, budget=budget)
        result.add_note(
            f"cold-only control reaches the "
            f"{'same' if cold.final_config == reference.final_config else 'DIFFERENT'}"
            f" final config with zero memoized evaluations"
        )
        result.add_note(
            f"{reference.deltas_applied} deltas applied, "
            f"{reference.degradations} degradations, "
            f"{reference.divergences} divergences"
        )
    return result
