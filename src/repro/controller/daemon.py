"""The supervised control loop: deltas in, advertisements out, forever.

One :class:`PainterController` iteration:

1. **ingest** — apply the next timestamp-bucket of deltas to the world
   through the orchestrator's mutation surface (volume shifts mark the
   touched peerings dirty; peering/PoP toggles adjust the candidate set);
2. **re-solve** — :meth:`PainterOrchestrator.solve_warm`, re-evaluating
   only what the deltas dirtied (bit-identical to a cold solve), with
   retry-with-backoff; exhausted retries degrade the iteration to the
   last-known-good configuration instead of crashing;
3. **verify** — on a configurable cadence, a differential guard
   cross-checks the warm result against a cold
   :meth:`PainterOrchestrator.solve`; a mismatch trips a circuit breaker
   that pins the loop to cold solves for :data:`BREAKER_COOLDOWN`
   iterations;
4. **apply** — install the configuration through the Traffic Manager
   (when it changed) and optionally run a measurement round
   (``execute_and_observe``) to keep learning;
5. **persist** — append the iteration's events to the durable
   :class:`~repro.telemetry.RunJournal` (fsync'd), then write a
   :class:`CheckpointStore` checkpoint carrying everything needed to
   resume: delta cursor, volume overrides, disabled peerings, the
   routing-model snapshot, current and last-known-good configs, and the
   journal sequence the checkpoint vouches for.

A killed controller restarts from the newest durable checkpoint, trims
the journal past that checkpoint's sequence, and re-runs the interrupted
iteration; determinism (warm == cold, seeded world) makes the resumed
run's configs and journal byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

import logging
import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.controller.checkpoint import CheckpointStore
from repro.controller.deltas import (
    Delta,
    LinkWeightShift,
    PeeringDown,
    PeeringUp,
    PopDown,
    PopUp,
    VolumeShift,
    delta_to_dict,
    group_deltas,
)
from repro.core.advertisement import AdvertisementConfig
from repro.core.benefit import realized_benefit
from repro.core.installation import install_configuration
from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.io import (
    config_from_dict,
    config_to_dict,
    restore_routing_model,
    routing_model_to_dict,
)
from repro.telemetry import METRICS, RunJournal, journal_event_hook

logger = logging.getLogger(__name__)

PathLike = Union[str, Path]

_CRASH_POINTS = ("mid_journal", "before_checkpoint", "after_checkpoint")

#: Cold iterations after the differential guard detects divergence.
BREAKER_COOLDOWN = 2
#: Re-solve attempts after the first failure before degrading.
MAX_RETRIES = 2
#: First retry delay; multiplied by ``BACKOFF_FACTOR`` per attempt.
BACKOFF_S = 0.05
BACKOFF_FACTOR = 2.0


class ControllerError(RuntimeError):
    """The loop cannot make progress (no solution and nothing to fall back to)."""


class ControllerExtension:
    """A deterministic co-processor riding the controller's iteration cycle.

    An extension observes every completed iteration (after the config is
    installed, before the iteration is persisted) and contributes its own
    resume state to the controller's checkpoint, so whatever it accumulates
    — a data plane, an SLO ledger, a simulation clock — survives a SIGKILL
    with the same byte-identical-resume guarantee the controller itself
    gives.  The contract the crash-recovery suite relies on:

    * :meth:`after_iteration` must be a pure function of the controller's
      deterministic state (iteration number, config, applied deltas) —
      wall-clock reads may feed metrics, but never journal events or
      snapshot payloads;
    * :meth:`snapshot` returns a JSON-ready dict capturing everything
      needed to resume, and :meth:`restore` is its exact inverse.  The
      resume state may be re-derivable inputs rather than the state
      itself — :class:`repro.soak.SoakDriver` stores the live windows'
      selections and rebuilds its data plane by replaying them — as long
      as the restored extension behaves exactly as the one snapshotted.
    """

    def after_iteration(
        self, iteration: int, config: AdvertisementConfig, controller: "PainterController"
    ) -> None:
        """Called once per iteration, after apply and before persist."""

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready resume state, stored inside the controller checkpoint."""
        return {}

    def restore(self, payload: Dict[str, Any]) -> None:
        """Inverse of :meth:`snapshot`, called before the loop resumes."""


@dataclass(frozen=True)
class ControllerConfig:
    """Everything that parameterizes one :class:`PainterController`."""

    #: Directory for the checkpoint store (created if missing).
    checkpoint_dir: PathLike
    #: Journal path; default ``<checkpoint_dir>/journal.jsonl``.
    journal_path: Optional[PathLike] = None
    #: Checkpoints retained on disk (older ones are pruned).
    checkpoint_keep: int = 3
    #: Warm-start re-solves (False pins every iteration to a cold solve).
    warm_start: bool = True
    #: Cold-verify the warm solver every N iterations (0 = never).
    verify_every: int = 0
    #: Run a measurement round after each apply (the learning loop).
    observe: bool = True
    #: Install each changed config through the Traffic Manager.
    install: bool = True
    #: Hard iteration cap (None = run the delta stream to its end).
    max_iterations: Optional[int] = None
    run_name: str = "controller"
    #: Crash injection for recovery tests: SIGKILL self at this iteration…
    crash_at_seq: Optional[int] = None
    #: …at this point: ``mid_journal`` (torn append), ``before_checkpoint``
    #: (journal durable, checkpoint not), or ``after_checkpoint``.
    crash_point: str = "before_checkpoint"

    def __post_init__(self) -> None:
        if self.checkpoint_keep < 1:
            raise ValueError("checkpoint_keep must be at least 1")
        if self.verify_every < 0:
            raise ValueError("verify_every must be non-negative")
        if self.crash_point not in _CRASH_POINTS:
            raise ValueError(f"crash_point must be one of {_CRASH_POINTS}")

    @property
    def resolved_journal_path(self) -> Path:
        if self.journal_path is not None:
            return Path(self.journal_path)
        return Path(self.checkpoint_dir) / "journal.jsonl"


@dataclass
class ControllerResult:
    """What one :meth:`PainterController.run` produced."""

    iterations_run: int = 0
    #: Checkpoint seq resumed from, or None for a fresh start.
    resumed_from: Optional[int] = None
    final_config: Optional[AdvertisementConfig] = None
    last_known_good: Optional[AdvertisementConfig] = None
    degradations: int = 0
    divergences: int = 0
    deltas_applied: int = 0
    journal_path: Optional[Path] = None
    checkpoint_dir: Optional[Path] = None
    #: Per-iteration (iteration, mode, reconverge_s) accounting.
    timeline: List[Dict[str, Any]] = field(default_factory=list)


class PainterController:
    """Long-running supervised control loop over one scenario.

    Construct with the scenario, the orchestrator's solver parameters,
    the controller's robustness parameters, and the delta stream; then
    :meth:`run`.  Crash recovery is automatic: if the checkpoint
    directory already holds a durable checkpoint, the run resumes after
    the last completed iteration instead of starting over.
    """

    def __init__(
        self,
        scenario,
        orchestrator_config: OrchestratorConfig,
        controller_config: ControllerConfig,
        deltas: Sequence[Delta] = (),
        extension: Optional[ControllerExtension] = None,
    ) -> None:
        self._scenario = scenario
        self._cfg = controller_config
        self._extension = extension
        self._orch = PainterOrchestrator(scenario, orchestrator_config)
        self._groups = group_deltas(deltas)
        self._store = CheckpointStore(
            controller_config.checkpoint_dir, keep=controller_config.checkpoint_keep
        )
        self._journal: Optional[RunJournal] = None
        self._volume_overrides: Dict[int, float] = {}
        self._current: Optional[AdvertisementConfig] = None
        self._last_good: Optional[AdvertisementConfig] = None
        self._cold_left = 0
        self._degradations = 0
        self._divergences = 0
        self._deltas_applied = 0
        self._staleness = 0
        #: Current intra-cloud link-weight epoch (LinkWeightShift deltas).
        #: The solve itself is deliberately unaffected: PAINTER's prefix
        #: advertisements carry no IGP signal, so an epoch shift must not
        #: perturb its ingress choices — the holds-ingress property the
        #: hot-potato scenario measures against MED-steered comparators.
        self._weight_epoch = 0

    @property
    def orchestrator(self) -> PainterOrchestrator:
        return self._orch

    @property
    def scenario(self):
        return self._scenario

    @property
    def journal(self) -> Optional[RunJournal]:
        """The live durable journal (None outside :meth:`run`)."""
        return self._journal

    @property
    def weight_epoch(self) -> int:
        """Current intra-cloud link-weight epoch (0 until a shift arrives)."""
        return self._weight_epoch

    def close(self) -> None:
        if self._journal is not None:
            try:
                self._journal.close()
            finally:
                self._journal = None
        self._orch.close()

    def __enter__(self) -> "PainterController":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- state (de)hydration -------------------------------------------------

    def _snapshot_payload(self, iteration: int, cursor: int, journal_seq: int):
        extension = (
            self._extension.snapshot() if self._extension is not None else None
        )
        return {
            "extension": extension,
            "iteration": iteration,
            "cursor": cursor,
            "journal_seq": journal_seq,
            "volume_overrides": {
                str(ug_id): vol for ug_id, vol in self._volume_overrides.items()
            },
            "disabled_peerings": sorted(self._orch.disabled_peerings),
            "current_config": (
                config_to_dict(self._current) if self._current is not None else None
            ),
            "last_known_good": (
                config_to_dict(self._last_good)
                if self._last_good is not None
                else None
            ),
            "routing_model": routing_model_to_dict(self._orch.model),
            "cold_iterations_left": self._cold_left,
            "counters": {
                "degradations": self._degradations,
                "divergences": self._divergences,
                "deltas_applied": self._deltas_applied,
                "staleness": self._staleness,
            },
            "scenario": self._scenario.name,
            "prefix_budget": self._orch.prefix_budget,
            "weight_epoch": self._weight_epoch,
        }

    def _restore(self, payload: Dict[str, Any]) -> None:
        for ug_id, volume in payload.get("volume_overrides", {}).items():
            self._orch.apply_volume_shift(int(ug_id), float(volume))
            self._volume_overrides[int(ug_id)] = float(volume)
        for peering_id in payload.get("disabled_peerings", ()):
            self._orch.set_peering_enabled(int(peering_id), False)
        restore_routing_model(self._orch.model, payload["routing_model"])
        current = payload.get("current_config")
        self._current = config_from_dict(current) if current is not None else None
        good = payload.get("last_known_good")
        self._last_good = config_from_dict(good) if good is not None else None
        self._cold_left = int(payload.get("cold_iterations_left", 0))
        counters = payload.get("counters", {})
        self._degradations = int(counters.get("degradations", 0))
        self._divergences = int(counters.get("divergences", 0))
        self._deltas_applied = int(counters.get("deltas_applied", 0))
        self._staleness = int(counters.get("staleness", 0))
        self._weight_epoch = int(payload.get("weight_epoch", 0))
        extension = payload.get("extension")
        if self._extension is not None and extension is not None:
            self._extension.restore(extension)

    # -- delta application ----------------------------------------------------

    def _apply_delta(self, iteration: int, delta: Delta) -> None:
        orch = self._orch
        if isinstance(delta, VolumeShift):
            orch.apply_volume_shift(delta.ug_id, delta.volume)
            self._volume_overrides[delta.ug_id] = delta.volume
        elif isinstance(delta, (PeeringDown, PeeringUp)):
            orch.set_peering_enabled(
                delta.peering_id, isinstance(delta, PeeringUp)
            )
        elif isinstance(delta, (PopDown, PopUp)):
            pop = self._scenario.deployment.pop(delta.pop_name)
            up = isinstance(delta, PopUp)
            for peering in self._scenario.deployment.peerings_at(pop):
                orch.set_peering_enabled(peering.peering_id, up)
        elif isinstance(delta, LinkWeightShift):
            # Tracked and journaled only: reachability is unchanged, and
            # PAINTER's advertisements do not encode IGP cost, so there is
            # nothing for the solve to react to (see _weight_epoch).
            self._weight_epoch = delta.epoch
        else:  # pragma: no cover - the vocabulary is closed
            raise ControllerError(f"unhandled delta type {type(delta)!r}")
        self._deltas_applied += 1
        METRICS.counter("controller.deltas_applied").add()
        document = delta_to_dict(delta)
        document["delta"] = document.pop("type")  # "type" reads badly in events
        self._journal.record_event("delta_applied", iteration=iteration, **document)

    # -- the supervised solve -------------------------------------------------

    def _solve_supervised(self, iteration: int) -> Optional[AdvertisementConfig]:
        """Warm (or breaker-forced cold) solve with retries.

        Returns None when every attempt failed — the caller degrades to
        the last-known-good configuration.
        """
        cfg = self._cfg
        orch = self._orch
        if not cfg.warm_start or self._cold_left > 0:
            orch.forget_memo()  # next solve_warm runs (and records) cold
        delay = BACKOFF_S
        for attempt in range(MAX_RETRIES + 1):
            try:
                return orch.solve_warm()
            except Exception as exc:
                METRICS.counter("controller.retries").add()
                logger.warning(
                    "iteration %d solve attempt %d failed: %s",
                    iteration,
                    attempt + 1,
                    exc,
                )
                if attempt == MAX_RETRIES:
                    return None
                time.sleep(delay)
                delay *= BACKOFF_FACTOR
        return None  # pragma: no cover - loop always returns

    def _verify_due(self, iteration: int) -> bool:
        cfg = self._cfg
        return (
            cfg.warm_start
            and cfg.verify_every > 0
            and iteration > 0
            and iteration % cfg.verify_every == 0
        )

    # -- crash injection ------------------------------------------------------

    def _maybe_crash(self, iteration: int, point: str) -> None:
        cfg = self._cfg
        if cfg.crash_at_seq is None or iteration != cfg.crash_at_seq:
            return
        if cfg.crash_point != point:
            return
        if point == "mid_journal":
            self._journal.tear()
        logger.critical("crash injection: SIGKILL at iteration %d (%s)", iteration, point)
        os.kill(os.getpid(), signal.SIGKILL)

    # -- the loop -------------------------------------------------------------

    def run(self) -> ControllerResult:
        cfg = self._cfg
        result = ControllerResult(
            checkpoint_dir=Path(cfg.checkpoint_dir),
            journal_path=cfg.resolved_journal_path,
        )
        checkpoint = self._store.latest()
        if checkpoint is not None:
            self._restore(checkpoint.payload)
            self._journal = RunJournal.resume(
                cfg.resolved_journal_path, checkpoint.payload["journal_seq"]
            )
            result.resumed_from = checkpoint.seq
            next_iteration = checkpoint.seq + 1
            cursor = int(checkpoint.payload["cursor"])
            METRICS.counter("controller.resumes").add()
            logger.info(
                "resuming after iteration %d (cursor %d)", checkpoint.seq, cursor
            )
        else:
            self._journal = RunJournal.create(
                cfg.resolved_journal_path,
                run_name=cfg.run_name,
                meta={
                    "scenario": self._scenario.name,
                    "prefix_budget": self._orch.prefix_budget,
                },
            )
            self._journal.record_event(
                "controller_start",
                scenario=self._scenario.name,
                prefix_budget=self._orch.prefix_budget,
                delta_groups=len(self._groups),
            )
            next_iteration = 0
            cursor = 0

        journal_event_hook.append(self._journal)
        try:
            iteration = next_iteration
            while True:
                if cfg.max_iterations is not None and iteration >= cfg.max_iterations:
                    break
                if iteration > 0 and cursor >= len(self._groups):
                    break  # the stream is drained (iteration 0 bootstraps)
                cursor = self._run_iteration(iteration, cursor, result)
                iteration += 1
                result.iterations_run += 1
        finally:
            journal_event_hook.remove(self._journal)
            self._journal.close()

        result.final_config = self._current
        result.last_known_good = self._last_good
        result.degradations = self._degradations
        result.divergences = self._divergences
        result.deltas_applied = self._deltas_applied
        return result

    def _run_iteration(
        self, iteration: int, cursor: int, result: ControllerResult
    ) -> int:
        """One full ingest-solve-verify-apply-persist cycle; returns the
        advanced delta cursor."""
        cfg = self._cfg
        orch = self._orch
        journal = self._journal
        started = time.perf_counter()

        # 1. ingest
        if iteration > 0:
            at_s, bucket = self._groups[cursor]
            for delta in bucket:
                self._apply_delta(iteration, delta)
            cursor += 1
        METRICS.gauge("controller.dirty_peerings").set(len(orch.dirty_peerings))

        # 2. re-solve (supervised)
        forced_cold = not cfg.warm_start or self._cold_left > 0
        config = self._solve_supervised(iteration)
        mode = "degraded"
        if config is not None:
            stats = orch.last_warm_stats
            mode = stats.mode if not forced_cold else "cold"
            if self._cold_left > 0:
                self._cold_left -= 1

            # 3. differential guard / circuit breaker
            if self._verify_due(iteration) and stats.mode == "warm":
                cold = orch.solve()
                METRICS.counter("controller.verifications").add()
                if cold != config:
                    self._divergences += 1
                    METRICS.counter("controller.divergences").add()
                    logger.error(
                        "warm solve diverged from cold at iteration %d; "
                        "breaker open for %d iterations",
                        iteration,
                        BREAKER_COOLDOWN,
                    )
                    journal.record_event(
                        "controller_breaker_open",
                        iteration=iteration,
                        cooldown=BREAKER_COOLDOWN,
                    )
                    orch.forget_memo()  # the memo lied; never replay it
                    self._cold_left = BREAKER_COOLDOWN
                    config = cold  # the cold result is the trusted one

        if config is None:
            # graceful degradation: hold the last-known-good config
            self._degradations += 1
            self._staleness += 1
            METRICS.counter("controller.degradations").add()
            if self._last_good is None:
                raise ControllerError(
                    f"iteration {iteration} failed with no last-known-good "
                    "configuration to fall back to"
                )
            config = self._last_good
            journal.record_event(
                "controller_degraded",
                iteration=iteration,
                staleness=self._staleness,
            )
        else:
            self._staleness = 0
        METRICS.gauge("controller.staleness").set(self._staleness)

        # 4. apply through the Traffic Manager + optional measurement round
        changed = self._current is None or config != self._current
        if changed and cfg.install:
            installation = install_configuration(self._scenario, config)
            METRICS.counter("controller.installs").add()
            journal.record_event(
                "controller_install",
                iteration=iteration,
                prefixes=len(installation.prefixes),
            )
        self._current = config
        if mode != "degraded":
            if cfg.observe:
                orch.execute_and_observe(config, iteration=iteration)
            self._last_good = config
        if self._extension is not None:
            self._extension.after_iteration(iteration, config, self)
        realized = realized_benefit(self._scenario, config)
        journal.record_event(
            "controller_iteration",
            iteration=iteration,
            prefixes=config.prefix_count,
            pairs=config.pair_count,
            changed=changed,
            realized_benefit=realized,
        )

        # 5. persist: journal first (it vouches for nothing beyond itself),
        # then the checkpoint that vouches for the journal prefix.
        journal.record_event("controller_checkpoint", iteration=iteration)
        self._maybe_crash(iteration, "mid_journal")
        journal.sync()
        self._maybe_crash(iteration, "before_checkpoint")
        self._store.save(
            iteration, self._snapshot_payload(iteration, cursor, journal.last_seq)
        )
        self._maybe_crash(iteration, "after_checkpoint")

        elapsed = time.perf_counter() - started
        METRICS.counter("controller.iterations").add()
        METRICS.gauge("controller.reconverge_s").set(elapsed)
        stats = orch.last_warm_stats
        result.timeline.append(
            {
                "iteration": iteration,
                "mode": mode,
                "reconverge_s": elapsed,
                "reused_evals": stats.reused_evals if stats else 0,
                "fresh_evals": stats.fresh_evals if stats else 0,
                "patched_evals": stats.patched_evals if stats else 0,
                "realized_benefit": realized,
            }
        )
        logger.info(
            "iteration %d done (%s, %.3fs, %d prefixes / %d pairs)",
            iteration,
            mode,
            elapsed,
            config.prefix_count,
            config.pair_count,
        )
        return cursor
