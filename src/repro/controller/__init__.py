"""Continuous-operation controller: the PAINTER control loop as a service.

The batch orchestrator answers "what should we advertise right now?";
this package keeps answering it as the world moves.  A
:class:`PainterController` ingests a stream of typed world deltas
(:mod:`repro.controller.deltas` — UG volume shifts, peering sessions
dropping and returning, whole-PoP outages derived from
:mod:`repro.faults` schedules), re-solves each iteration by warm-starting
Algorithm 1 from the previous solution
(:meth:`repro.core.PainterOrchestrator.solve_warm` — bit-identical to a
cold solve, at a fraction of the cost), and applies the result through
the Traffic Manager.

Robustness is the headline, not an afterthought:

* every iteration ends in a **crash-safe checkpoint**
  (:class:`CheckpointStore` — atomic write-then-rename, fsync'd,
  versioned, content-hashed) and an fsync'd append to the run journal
  (a :class:`repro.telemetry.RunJournal` bound to a file by
  ``RunJournal.create`` / ``RunJournal.resume``), sequence-stamped so a
  killed controller resumes from the last durable iteration and the
  journal reads as if the crash never happened;
* re-solve and apply run under **retry-with-backoff**; an iteration
  that keeps failing degrades gracefully to the last-known-good
  configuration instead of taking the loop down;
* a **circuit breaker** cold-verifies the warm solver on a configurable
  cadence and pins the loop to cold solves for a cooldown window if the
  differential guard ever detects divergence.
"""

from repro.controller.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    CheckpointStore,
)
from repro.controller.daemon import (
    ControllerConfig,
    ControllerError,
    ControllerExtension,
    ControllerResult,
    PainterController,
)
from repro.controller.deltas import (
    Delta,
    DeltaError,
    LinkWeightShift,
    PeeringDown,
    PeeringUp,
    PopDown,
    PopUp,
    VolumeShift,
    delta_from_dict,
    delta_to_dict,
    deltas_from_fault_schedule,
    group_deltas,
    link_weight_deltas,
    load_deltas,
    save_deltas,
    synthetic_deltas,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "CheckpointStore",
    "ControllerConfig",
    "ControllerError",
    "ControllerExtension",
    "ControllerResult",
    "Delta",
    "DeltaError",
    "LinkWeightShift",
    "PainterController",
    "PeeringDown",
    "PeeringUp",
    "PopDown",
    "PopUp",
    "VolumeShift",
    "delta_from_dict",
    "delta_to_dict",
    "deltas_from_fault_schedule",
    "group_deltas",
    "link_weight_deltas",
    "load_deltas",
    "save_deltas",
    "synthetic_deltas",
]
