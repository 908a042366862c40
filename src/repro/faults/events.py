"""Typed fault events: the vocabulary of the fault-injection subsystem.

Each event is a frozen dataclass describing one perturbation of the world
over a time window.  Events are *declarative*: they carry no behaviour
beyond answering "are you active at time t?" and enumerating their state
transitions, so the same event can drive the Traffic Manager's path oracle,
the controller's delta stream and the BGP flap-damping state without any of
those layers knowing about the others.

The vocabulary mirrors the failure modes PAINTER's evaluation touches:

* :class:`PopOutage` — a whole PoP disappears (the Fig. 10 scenario);
* :class:`PeeringWithdrawal` — one prefix withdrawn from one ingress;
* :class:`LinkFlap` — a link cycling up/down, feeding RFC 2439 damping
  (:mod:`repro.bgp.flap_damping`);
* :class:`LatencySpike` — transient inflation on paths through a PoP;
* :class:`ProbeLoss` — measurement probes dropped at some rate;
* :class:`StaleMeasurement` — observations served from a previous epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple


@dataclass(frozen=True)
class FaultEvent:
    """Base class: a perturbation active over ``[start_s, end_s)``."""

    start_s: float

    def __post_init__(self) -> None:
        if math.isnan(self.start_s) or self.start_s < 0:
            raise ValueError("start_s must be a non-negative number")

    @property
    def end_s(self) -> float:
        """Exclusive end of the fault window (``inf`` = never heals)."""
        return math.inf

    def active_at(self, time_s: float) -> bool:
        return self.start_s <= time_s < self.end_s

    def transitions(self) -> Iterator[Tuple[float, bool]]:
        """(time, went_down) pairs — the event's observable state changes."""
        yield (self.start_s, True)
        if not math.isinf(self.end_s):
            yield (self.end_s, False)

    def describe(self) -> str:
        window = "∞" if math.isinf(self.end_s) else f"{self.end_s:g}s"
        return f"{type(self).__name__}[{self.start_s:g}s → {window}]"


@dataclass(frozen=True)
class PopOutage(FaultEvent):
    """A PoP (and every path through it) goes dark."""

    pop_name: str = ""
    duration_s: float = math.inf

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.pop_name:
            raise ValueError("PopOutage needs a pop_name")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass(frozen=True)
class PeeringWithdrawal(FaultEvent):
    """One advertised prefix withdrawn (route no longer reaches its PoP)."""

    prefix: str = ""
    duration_s: float = math.inf

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.prefix:
            raise ValueError("PeeringWithdrawal needs a prefix")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass(frozen=True)
class LinkFlap(FaultEvent):
    """A link cycling down/up ``cycles`` times.

    Targets either a whole PoP (``pop_name``) or a single prefix
    (``prefix``).  Each cycle is ``down_s`` seconds dark followed by
    ``up_s`` seconds healthy; every transition counts as a routing flap for
    damping purposes (``peer_asn`` names the peer whose damping state the
    flaps charge).
    """

    pop_name: Optional[str] = None
    prefix: Optional[str] = None
    peer_asn: int = 0
    down_s: float = 1.0
    up_s: float = 4.0
    cycles: int = 3

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.pop_name is None and self.prefix is None:
            raise ValueError("LinkFlap needs a pop_name or a prefix")
        if self.down_s <= 0 or self.up_s <= 0:
            raise ValueError("down_s and up_s must be positive")
        if self.cycles < 1:
            raise ValueError("cycles must be >= 1")

    @property
    def period_s(self) -> float:
        return self.down_s + self.up_s

    @property
    def end_s(self) -> float:
        """The flap sequence ends when the last down phase heals."""
        return self.start_s + (self.cycles - 1) * self.period_s + self.down_s

    def is_down(self, time_s: float) -> bool:
        """Within a down phase of some cycle?"""
        if time_s < self.start_s or time_s >= self.end_s:
            return False
        phase = (time_s - self.start_s) % self.period_s
        return phase < self.down_s

    def transitions(self) -> Iterator[Tuple[float, bool]]:
        for cycle in range(self.cycles):
            down_at = self.start_s + cycle * self.period_s
            yield (down_at, True)
            yield (down_at + self.down_s, False)

    def flap_times(self) -> Iterator[Tuple[float, bool]]:
        """(time, is_withdrawal) pairs for :mod:`repro.bgp.flap_damping`."""
        for time_s, went_down in self.transitions():
            yield (time_s, went_down)


@dataclass(frozen=True)
class LatencySpike(FaultEvent):
    """Transient latency inflation (congestion, reroute) on live paths."""

    duration_s: float = 10.0
    magnitude_ms: float = 25.0
    #: Restrict to paths through this PoP; ``None`` hits every path.
    pop_name: Optional[str] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.magnitude_ms < 0:
            raise ValueError("magnitude_ms must be non-negative")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def applies_to(self, pop_name: str) -> bool:
        return self.pop_name is None or self.pop_name == pop_name


@dataclass(frozen=True)
class ProbeLoss(FaultEvent):
    """Measurement probes dropped at ``loss_rate`` during the window."""

    duration_s: float = 30.0
    loss_rate: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError("loss_rate must be in [0, 1]")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass(frozen=True)
class StaleMeasurement(FaultEvent):
    """A fraction of observations served from a previous measurement epoch.

    Models the collector pipeline lagging: results arrive, but describe the
    world as it was — exactly the "incorrect assumption" transients §3.1
    warns about, now injectable on demand.
    """

    duration_s: float = 60.0
    fraction: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s
