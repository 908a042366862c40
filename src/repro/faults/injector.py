"""A FaultSchedule's effects on other layers.

:func:`damping_state` replays a schedule's
:class:`repro.faults.events.LinkFlap` transitions into an RFC 2439
:class:`repro.bgp.flap_damping.FlapDampingState`, tying chaos experiments to
the damping model the orchestrator paces itself against.
:class:`ObservationFaults` decides which learning-loop observations go
missing or stale.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from repro.bgp.flap_damping import DampingConfig, FlapDampingState
from repro.faults.events import LinkFlap
from repro.faults.schedule import FaultSchedule

#: Observation outcomes :class:`ObservationFaults` assigns to a learning-loop sample.
OUTCOME_OK = "ok"
OUTCOME_MISSING = "missing"
OUTCOME_STALE = "stale"


def damping_state(
    schedule: FaultSchedule,
    config: Optional[DampingConfig] = None,
    until_s: float = math.inf,
) -> FlapDampingState:
    """RFC 2439 damping state after replaying every link flap up to ``until_s``.

    A flapping link accrues penalty at the remote routers; an
    orchestrator consulting this state sees which (prefix, peer) pairs a
    chaos storm has rendered unusable for further advertisement changes.
    """
    state = FlapDampingState(config)
    for flap in schedule.events_of(LinkFlap):
        prefix = flap.prefix or f"pop:{flap.pop_name}"
        for time_s, is_withdrawal in flap.flap_times():
            if time_s > until_s:
                break
            state.record_flap(prefix, flap.peer_asn, time_s, withdrawal=is_withdrawal)
    return state


class ObservationFaults:
    """Deterministically decides the fate of each learning-loop observation.

    ``outcome(iteration, ug_id, prefix)`` returns ``"ok"``, ``"missing"``,
    or ``"stale"``.  Decisions are a pure function of ``(seed, iteration,
    ug_id, prefix)``, so a learning run is reproducible given the seed —
    the acceptance bar for every chaos experiment.
    """

    def __init__(
        self,
        missing_rate: float = 0.0,
        stale_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= missing_rate <= 1.0:
            raise ValueError("missing_rate must be in [0, 1]")
        if not 0.0 <= stale_rate <= 1.0:
            raise ValueError("stale_rate must be in [0, 1]")
        if missing_rate + stale_rate > 1.0:
            raise ValueError("missing_rate + stale_rate must not exceed 1")
        self._missing_rate = missing_rate
        self._stale_rate = stale_rate
        self._seed = seed

    def outcome(self, iteration: int, ug_id: int, prefix: int) -> str:
        missing_rate, stale_rate = self._missing_rate, self._stale_rate
        if missing_rate <= 0 and stale_rate <= 0:
            return OUTCOME_OK
        key = ((self._seed * 1_000_003 + iteration) * 1_000_003 + ug_id) * 1_000_003 + prefix
        draw = random.Random(key).random()
        if draw < missing_rate:
            return OUTCOME_MISSING
        if draw < missing_rate + stale_rate:
            return OUTCOME_STALE
        return OUTCOME_OK
