"""Fault injection: typed fault schedules and graceful-degradation plumbing.

PAINTER's headline operational claim is robustness — TM-Edges fail over at
RTT timescales and the orchestrator keeps producing good configurations
despite partial observations.  This package turns every experiment into a
robustness experiment: a :class:`FaultSchedule` of typed, composable fault
events that answers ground-truth queries, :func:`damping_state` for the
route-flap damping its link flaps cause, and an :class:`ObservationFaults`
filter for the learning loop.
"""

from repro.faults.events import (
    FaultEvent,
    LatencySpike,
    LinkFlap,
    PeeringWithdrawal,
    PopOutage,
    ProbeLoss,
    StaleMeasurement,
)
from repro.faults.injector import (
    OUTCOME_MISSING,
    OUTCOME_OK,
    OUTCOME_STALE,
    ObservationFaults,
    damping_state,
)
from repro.faults.schedule import FaultSchedule

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "LatencySpike",
    "LinkFlap",
    "ObservationFaults",
    "OUTCOME_MISSING",
    "OUTCOME_OK",
    "OUTCOME_STALE",
    "PeeringWithdrawal",
    "PopOutage",
    "ProbeLoss",
    "StaleMeasurement",
    "damping_state",
]
