"""``day-proto``: a simulated day through the controller daemon and the soak driver."""

from __future__ import annotations

import random
import time
from statistics import median
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import repro.controller.daemon as daemon_module
from repro.controller import ControllerConfig, ControllerExtension, PainterController
from repro.controller.checkpoint import CheckpointStore
from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.scenario import prototype_scenario, tiny_scenario
from repro.soak.runner import SoakConfig, SoakDriver, build_soak_deltas, make_load
from repro.soak.slo import SLOAccountingError

from bench import WORLD_SEED
from bench.spans import Recorder
from bench.workloads import Ops, Workload, config_pairs, materialize_diagnostic


class TimedDriver(ControllerExtension):
    """Delegates to the :class:`SoakDriver` and keeps the window clock.

    A step is one simulated window: from the previous ``after_iteration``
    exit to this one, i.e. the persist of window k-1 plus ingest, re-solve,
    install and driver of window k.  The first window (it holds the
    controller's cold solve) and the last persist are not steps.
    """

    def __init__(self, driver: SoakDriver, rec: Recorder, windows: int) -> None:
        self._driver = driver
        self._rec = rec
        self._windows = windows
        #: Controller iteration being run (the warm-solve hook reads it).
        self.iteration = 0
        self.first_window_s = 0.0
        self.walls: List[float] = []
        self.first_config = None
        self.live_flows_peak = 0
        self._open_span: Optional[int] = None
        self._resumed = 0.0

    def start(self) -> None:
        self._open_span = self._rec.begin("controller.first_window")
        self._resumed = time.perf_counter()

    def after_iteration(self, iteration, config, controller) -> None:
        rec = self._rec
        with rec.span("soak.driver"):
            self._driver.after_iteration(iteration, config, controller)
        rec.end(self._open_span)
        wall = time.perf_counter() - self._resumed
        rec.step = None
        if iteration == 0:
            self.first_window_s = wall
            self.first_config = config
        else:
            self.walls.append(wall)
        self.live_flows_peak = max(
            self.live_flows_peak, self._driver.plane.flow_count()
        )
        self.iteration = iteration + 1
        if self.iteration < self._windows:
            rec.step = iteration  # window k+1 is step k
            self._open_span = rec.begin("step")
        else:
            self._open_span = rec.begin("controller.final_persist")
        self._resumed = time.perf_counter()

    def finish(self) -> None:
        self._rec.end(self._open_span)
        self._open_span = None
        self._rec.step = None

    def snapshot(self) -> Dict[str, Any]:
        with self._rec.span("soak.snapshot"):
            return self._driver.snapshot()

    def restore(self, payload) -> None:
        self._driver.restore(payload)


@dataclass
class Deployment:
    world: Any
    cfg: SoakConfig
    load: Any
    driver: SoakDriver
    timed: TimedDriver
    controller: PainterController
    #: A second orchestrator over the same fresh world: its first solve is
    #: the cold-solve sample (the controller's own runs inside ``run()``).
    cold_orch: PainterOrchestrator
    result: Any = None


class DayProto(Workload):
    name = "day-proto"
    why = (
        "the composed service: ingest, warm re-solve, install, selection, "
        "forward/expiry, SLO ledger, fsync'd journal and checkpoint; the only "
        "workload where persistence and the ledger run"
    )
    steps_full = 8
    steps_quick = 5

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.arrivals = 2_000 if self.quick else 60_000
        self._factory = tiny_scenario if self.quick else prototype_scenario
        self._builds = 0

    def _soak_config(self) -> SoakConfig:
        return SoakConfig(
            preset="tiny" if self.quick else "prototype",
            seed=WORLD_SEED,
            windows=self.n_steps + 1,
            arrivals_per_window=self.arrivals,
            flow_lifetime_windows=2,
            prefix_budget=4,
            plane="vector",
            shifts_per_window=8,
            storm_regions=1,
            flash_crowds=1,
            observe=False,
        )

    def build(self) -> Deployment:
        """Assembled exactly as ``run_soak`` does, on the fixed world."""
        rec = self.rec
        cfg = self._soak_config()
        with rec.span("scenario.build"):
            world = self._factory(WORLD_SEED)
            # The seed draws the day's traffic matrix (every UG's base
            # volume); the storm and flash-crowd schedule is the world's, so
            # that seeds vary the inputs and not the shape of the day.
            rng = random.Random(self.seed)
            for ug in world.user_groups:
                world.set_ug_volume(ug.ug_id, ug.volume * rng.uniform(0.98, 1.02))
        with rec.span("bench.loadgen"):
            load = make_load(world, cfg)
            deltas, _storm = build_soak_deltas(world, cfg, load)
        with rec.span("orchestrator.construct"):
            driver = SoakDriver(world, cfg, load)
            timed = TimedDriver(driver, rec, cfg.windows)
            self._builds += 1
            controller = PainterController(
                world,
                OrchestratorConfig(prefix_budget=cfg.prefix_budget),
                ControllerConfig(
                    checkpoint_dir=self.scratch / f"checkpoints-{self._builds}",
                    checkpoint_keep=cfg.checkpoint_keep,
                    verify_every=cfg.verify_every,
                    observe=cfg.observe,
                    install=cfg.install,
                    max_iterations=cfg.windows,
                    run_name="soak",
                ),
                deltas,
                extension=timed,
            )
            cold_orch = PainterOrchestrator(
                world, OrchestratorConfig(prefix_budget=cfg.prefix_budget)
            )
        return Deployment(world, cfg, load, driver, timed, controller, cold_orch)

    def cold_solve(self, dep: Deployment):
        return dep.cold_orch.solve_warm()

    def warm_up(self, dep: Deployment, config) -> None:
        rec = self.rec
        orch = dep.controller.orchestrator
        timed = dep.timed
        rec.wrap(
            orch,
            "solve_warm",
            lambda: "orchestrator.warm_burst"
            if timed.iteration
            else "orchestrator.solve_cold",
        )
        rec.wrap(orch, "apply_volume_shift", "orchestrator.apply_delta")
        rec.wrap(orch, "set_peering_enabled", "orchestrator.apply_delta")
        rec.wrap(daemon_module, "install_configuration", "installation.install")
        rec.wrap(daemon_module, "realized_benefit", "ground_truth.realized_benefit")
        rec.wrap(CheckpointStore, "save", "checkpoint.save")
        rec.wrap(dep.driver.bank, "update_matrix", "selection.update")
        plane = dep.driver.plane
        rec.wrap(plane, "forward", "dataplane.bulk_admit")
        rec.wrap(plane, "end", "dataplane.end")
        rec.wrap(plane, "remap", "dataplane.remap")
        rec.wrap(plane, "to_packed_snapshot", "dataplane.snapshot")

    def run_steps(self, dep: Deployment, ops: Ops) -> List[float]:
        """The whole day is one ``controller.run()``; the first window holds
        the controller's cold solve and is not a step."""
        dep.timed.start()
        try:
            dep.result = dep.controller.run()
        finally:
            dep.timed.finish()
        ops.done(len(dep.timed.walls))
        return dep.timed.walls

    def teardown(self, dep: Deployment) -> None:
        dep.controller.close()
        dep.cold_orch.close()

    def final_config(self, dep: Deployment):
        return dep.result.final_config

    def work(self, dep: Deployment) -> Dict[str, Any]:
        driver = dep.driver
        return {
            "ledger": driver.ledger.fingerprint()[:16],
            "flows_forwarded": driver.flows_forwarded,
            "flows_moved": driver.flows_moved,
            "remaps": driver.remaps,
            "deltas_applied": dep.result.deltas_applied,
            "live_flows": driver.plane.flow_count(),
        }

    def check(self, dep: Deployment, cold_config, ops: Ops) -> None:
        result = dep.result
        ledger = dep.driver.ledger
        try:
            ledger.check_invariants()
            broken = None
        except SLOAccountingError as exc:
            broken = str(exc)
        ops.check(broken is None, f"ledger invariants: {broken}")
        ops.check(
            ledger.accounting_errors == 0,
            f"{ledger.accounting_errors} accounting errors",
        )
        modes = [entry["mode"] for entry in result.timeline]
        ops.check(
            modes == ["cold"] + ["warm"] * self.n_steps,
            f"iteration modes {modes}",
        )
        ops.check(result.degradations == 0, f"{result.degradations} degradations")
        ops.check(
            config_pairs(cold_config) == config_pairs(dep.timed.first_config),
            "controller's first config differs from the cold-solve sample",
        )

    def diagnostics(
        self, dep: Deployment, cold_s: float, ops: Ops
    ) -> Dict[str, float]:
        from repro.traffic_manager.dataplane import VectorFlowTable

        rec = self.rec
        materialize_diagnostic(rec, self._factory(WORLD_SEED), dep.cfg.prefix_budget)
        with rec.span("soak.load_batch"):
            dep.load.batch(dep.cfg.windows // 2)
        plane = dep.driver.plane
        with rec.span("dataplane.snapshot"):
            packed = plane.to_packed_snapshot()
        with rec.span("dataplane.restore"):
            VectorFlowTable.from_packed_snapshot(packed)
        store = CheckpointStore(
            dep.result.checkpoint_dir, keep=dep.cfg.checkpoint_keep
        )
        timeline = dep.result.timeline
        modes = [entry["mode"] for entry in timeline]
        out = {
            f"orchestrator.warm_{key}_evals": float(
                sum(entry[f"{key}_evals"] for entry in timeline[1:])
            )
            for key in ("reused", "patched", "fresh")
        }
        first_batch = len(dep.load.batch(0))
        out.update({
            "controller.window_s": median(dep.timed.walls),
            "dataplane.bulk_admit_flows": float(
                dep.driver.flows_forwarded - first_batch
            ),
            "dataplane.live_flows_peak": float(dep.timed.live_flows_peak),
            "controller.first_window_s": dep.timed.first_window_s,
            "soak.forward_wall_s": dep.driver.forward_wall_s,
            "checkpoint.bytes": float(store.list_paths()[-1].stat().st_size),
            "controller.warm_iterations": float(modes.count("warm")),
            "controller.cold_iterations": float(modes.count("cold")),
            "soak.accounting_errors": float(dep.driver.ledger.accounting_errors),
        })
        return out
