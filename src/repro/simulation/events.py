"""A minimal discrete-event simulation engine.

Drives the Traffic Manager experiments (Fig. 10), where what matters is
*timing*: failure detection within ~1 RTT, BGP reconvergence over seconds,
DNS failover over minutes.  Events are (time, sequence, callback) triples on
a heap; callbacks may schedule further events.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, List

Callback = Callable[["EventLoop"], None]


@dataclass(order=True)
class _ScheduledEvent:
    time_s: float
    sequence: int
    callback: Callback = field(compare=False)


class EventLoop:
    """Heap-based event loop with a monotonically advancing clock."""

    def __init__(self) -> None:
        self._heap: List[_ScheduledEvent] = []
        self._sequence = itertools.count()
        self._now = 0.0

    @property
    def now_s(self) -> float:
        return self._now

    def schedule_at(self, time_s: float, callback: Callback) -> _ScheduledEvent:
        """Schedule ``callback`` at an absolute time (>= now)."""
        if math.isnan(time_s) or time_s < self._now:
            raise ValueError(f"cannot schedule at {time_s} (now={self._now})")
        event = _ScheduledEvent(time_s=time_s, sequence=next(self._sequence), callback=callback)
        heapq.heappush(self._heap, event)
        return event

    def schedule_in(self, delay_s: float, callback: Callback) -> _ScheduledEvent:
        """Schedule ``callback`` after a relative delay (>= 0)."""
        if delay_s < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule_at(self._now + delay_s, callback)

    def run_until(self, end_time_s: float) -> None:
        """Process events with time <= ``end_time_s``; clock ends there."""
        while self._heap and self._heap[0].time_s <= end_time_s:
            event = heapq.heappop(self._heap)
            self._now = event.time_s
            event.callback(self)
        self._now = max(self._now, end_time_s)
