"""FaultSchedule: a composable, queryable timeline of fault events.

A schedule is the declarative heart of the subsystem: an ordered tuple of
:mod:`repro.faults.events` instances plus pure query functions over
simulated time.  Consumers never iterate events themselves — they ask the
schedule "is this PoP down at t?", "what latency penalty applies here?",
"what probe-loss rate is in force?" — so adding a new event type extends
every layer at once.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple, Type, TypeVar

from repro.faults.events import (
    FaultEvent,
    LatencySpike,
    LinkFlap,
    PeeringWithdrawal,
    PopOutage,
    ProbeLoss,
    StaleMeasurement,
)

E = TypeVar("E", bound=FaultEvent)


def _merge_intervals(intervals: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Merge overlapping/adjacent [start, end) intervals."""
    if not intervals:
        return []
    intervals.sort()
    merged = [intervals[0]]
    for start, end in intervals[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, time-queryable collection of fault events."""

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: (e.start_s, repr(e))))
        object.__setattr__(self, "events", ordered)

    # -- construction --------------------------------------------------------

    @classmethod
    def single_pop_outage(
        cls, pop_name: str, at_s: float, duration_s: float = math.inf
    ) -> "FaultSchedule":
        """The legacy Fig. 10 scenario: one PoP dies, forever by default."""
        return cls(events=(PopOutage(start_s=at_s, pop_name=pop_name, duration_s=duration_s),))

    @classmethod
    def random_storm(
        cls,
        pop_names: Sequence[str],
        duration_s: float,
        seed: int = 0,
        intensity: float = 1.0,
        prefixes: Sequence[str] = (),
    ) -> "FaultSchedule":
        """A seeded random fault storm for chaos experiments.

        ``intensity`` scales the expected event count; the storm mixes PoP
        outages, link flaps, latency spikes, probe loss, and staleness
        windows over ``[0, duration_s)``.  Deterministic given the seed.
        """
        if not pop_names:
            raise ValueError("need at least one PoP to storm")
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if intensity <= 0:
            raise ValueError("intensity must be positive")
        rng = random.Random(seed)
        events: List[FaultEvent] = []

        def window(min_len: float, max_len: float) -> Tuple[float, float]:
            start = rng.uniform(0.05, 0.75) * duration_s
            length = min(rng.uniform(min_len, max_len), duration_s - start)
            return start, max(length, min_len)

        n_outages = max(1, round(rng.uniform(0.5, 1.5) * intensity))
        for _ in range(n_outages):
            start, length = window(0.05 * duration_s, 0.3 * duration_s)
            events.append(
                PopOutage(start_s=start, pop_name=rng.choice(list(pop_names)), duration_s=length)
            )
        for _ in range(round(rng.uniform(0.0, 1.5) * intensity)):
            start, _length = window(1.0, 2.0)
            events.append(
                LinkFlap(
                    start_s=start,
                    pop_name=rng.choice(list(pop_names)),
                    down_s=rng.uniform(0.5, 2.0),
                    up_s=rng.uniform(2.0, 6.0),
                    cycles=rng.randint(2, 4),
                )
            )
        for _ in range(round(rng.uniform(0.5, 2.0) * intensity)):
            start, length = window(0.05 * duration_s, 0.2 * duration_s)
            events.append(
                LatencySpike(
                    start_s=start,
                    duration_s=length,
                    magnitude_ms=rng.uniform(10.0, 60.0),
                    pop_name=rng.choice(list(pop_names) + [None]),
                )
            )
        for _ in range(round(rng.uniform(0.0, 1.0) * intensity)):
            start, length = window(0.1 * duration_s, 0.3 * duration_s)
            events.append(
                ProbeLoss(start_s=start, duration_s=length, loss_rate=rng.uniform(0.2, 0.8))
            )
        for _ in range(round(rng.uniform(0.0, 1.0) * intensity)):
            start, length = window(0.1 * duration_s, 0.4 * duration_s)
            events.append(
                StaleMeasurement(
                    start_s=start, duration_s=length, fraction=rng.uniform(0.2, 0.7)
                )
            )
        if prefixes and rng.random() < 0.5 * intensity:
            start, length = window(0.05 * duration_s, 0.2 * duration_s)
            events.append(
                PeeringWithdrawal(
                    start_s=start, prefix=rng.choice(list(prefixes)), duration_s=length
                )
            )
        return cls(events=tuple(events))

    def extended(self, *events: FaultEvent) -> "FaultSchedule":
        """A new schedule with ``events`` added (schedules are immutable)."""
        return FaultSchedule(events=self.events + tuple(events))

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def events_of(self, event_type: Type[E]) -> List[E]:
        return [e for e in self.events if isinstance(e, event_type)]

    @property
    def horizon_s(self) -> float:
        """When the last finite fault heals (0 for an empty schedule)."""
        finite = [e.end_s for e in self.events if not math.isinf(e.end_s)]
        return max(finite) if finite else 0.0

    def describe(self) -> str:
        if not self.events:
            return "FaultSchedule[empty]"
        return "FaultSchedule[" + ", ".join(e.describe() for e in self.events) + "]"

    # -- point queries -------------------------------------------------------

    def pop_down(self, pop_name: str, time_s: float) -> bool:
        """Is the PoP dark at ``time_s`` (outage or flap down-phase)?"""
        for event in self.events:
            if isinstance(event, PopOutage) and event.pop_name == pop_name:
                if event.active_at(time_s):
                    return True
            elif isinstance(event, LinkFlap) and event.pop_name == pop_name:
                if event.is_down(time_s):
                    return True
        return False

    def prefix_withdrawn(self, prefix: str, time_s: float) -> bool:
        """Is this specific prefix withdrawn at ``time_s``?"""
        for event in self.events:
            if isinstance(event, PeeringWithdrawal) and event.prefix == prefix:
                if event.active_at(time_s):
                    return True
            elif isinstance(event, LinkFlap) and event.prefix == prefix:
                if event.is_down(time_s):
                    return True
        return False

    def path_down(self, pop_name: str, prefix: str, time_s: float) -> bool:
        return self.pop_down(pop_name, time_s) or self.prefix_withdrawn(prefix, time_s)

    def latency_penalty_ms(self, pop_name: str, time_s: float) -> float:
        """Summed spike inflation applying to paths through ``pop_name``."""
        return sum(
            event.magnitude_ms
            for event in self.events_of(LatencySpike)
            if event.active_at(time_s) and event.applies_to(pop_name)
        )

    def probe_loss_rate(self, time_s: float) -> float:
        """Probability a measurement probe is dropped at ``time_s``.

        Concurrent windows compose as independent drops:
        ``1 - prod(1 - rate)``.
        """
        survival = 1.0
        for event in self.events_of(ProbeLoss):
            if event.active_at(time_s):
                survival *= 1.0 - event.loss_rate
        return 1.0 - survival

    def stale_fraction(self, time_s: float) -> float:
        """Fraction of observations served stale at ``time_s`` (max wins)."""
        fractions = [
            event.fraction
            for event in self.events_of(StaleMeasurement)
            if event.active_at(time_s)
        ]
        return max(fractions) if fractions else 0.0

    # -- interval queries ----------------------------------------------------

    def down_intervals(
        self,
        pop_name: Optional[str] = None,
        prefix: Optional[str] = None,
        horizon_s: float = math.inf,
    ) -> List[Tuple[float, float]]:
        """Merged [start, end) dark windows for a PoP and/or prefix.

        This is what the Traffic Manager's path oracle consumes: each
        interval start is a withdrawal (spawning a BGP convergence trace for
        anycast paths), each end a restoration.
        """
        intervals: List[Tuple[float, float]] = []
        for event in self.events:
            if isinstance(event, PopOutage):
                if pop_name is not None and event.pop_name == pop_name:
                    intervals.append((event.start_s, min(event.end_s, horizon_s)))
            elif isinstance(event, PeeringWithdrawal):
                if prefix is not None and event.prefix == prefix:
                    intervals.append((event.start_s, min(event.end_s, horizon_s)))
            elif isinstance(event, LinkFlap):
                matches = (pop_name is not None and event.pop_name == pop_name) or (
                    prefix is not None and event.prefix == prefix
                )
                if matches:
                    for cycle in range(event.cycles):
                        down_at = event.start_s + cycle * event.period_s
                        if down_at >= horizon_s:
                            break
                        intervals.append(
                            (down_at, min(down_at + event.down_s, horizon_s))
                        )
        return _merge_intervals(intervals)
