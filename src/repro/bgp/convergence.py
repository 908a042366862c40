"""BGP convergence dynamics: reachability gaps and update churn.

Figure 10 contrasts PAINTER's RTT-timescale failover against the anycast
prefix's behaviour after a PoP withdrawal: roughly one second of
unreachability, then ~15 seconds of path exploration visible as a spike of
RIPE RIS updates before latency settles.  This module models that process —
path exploration governed by an MRAI-like timer and the number of alternate
paths — so the failover experiment can regenerate the update-count series.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.telemetry import TRACER, emit_event


@dataclass(frozen=True)
class ConvergenceConfig:
    """Parameters of the convergence process.

    Defaults follow the magnitudes reported in the paper and the literature
    it cites [57, 116]: second-scale loss, tens of seconds of churn.
    """

    #: Minimum route advertisement interval (seconds) pacing exploration.
    mrai_s: float = 2.5
    #: How many alternate paths are explored before settling.
    exploration_depth: int = 6
    #: Time until the first alternate route is installed (loss window).
    reachability_gap_s: float = 1.0
    #: Updates emitted per exploration round at the peak.
    peak_updates_per_round: int = 18
    #: Exponential decay of update volume per round.
    update_decay: float = 0.6
    #: Latency penalty (ms) while on exploratory (longer) paths.
    transient_inflation_ms: float = 25.0

    def __post_init__(self) -> None:
        if self.mrai_s <= 0:
            raise ValueError("mrai_s must be positive")
        if self.exploration_depth < 1:
            raise ValueError("exploration_depth must be >= 1")
        if not 0 < self.update_decay < 1:
            raise ValueError("update_decay must be in (0,1)")


@dataclass(frozen=True)
class ConvergenceEvent:
    """One observable step of the convergence process."""

    time_s: float
    updates: int
    reachable: bool
    latency_penalty_ms: float


@dataclass
class ConvergenceTrace:
    """The full post-withdrawal timeline for one prefix."""

    withdrawal_time_s: float
    events: List[ConvergenceEvent]

    @property
    def reconvergence_time_s(self) -> float:
        """Absolute time at which the final path is installed."""
        return self.events[-1].time_s if self.events else self.withdrawal_time_s

    @property
    def loss_duration_s(self) -> float:
        """How long the prefix was unreachable."""
        for event in self.events:
            if event.reachable:
                return event.time_s - self.withdrawal_time_s
        return math.inf

    @property
    def total_updates(self) -> int:
        return sum(event.updates for event in self.events)

    def updates_in_window(self, start_s: float, end_s: float) -> int:
        return sum(e.updates for e in self.events if start_s <= e.time_s < end_s)

    def latency_penalty_at(self, time_s: float) -> float:
        """Extra latency (ms) the prefix carries at ``time_s``; inf if down."""
        if time_s < self.withdrawal_time_s:
            return 0.0
        penalty = math.inf
        for event in self.events:
            if event.time_s <= time_s:
                penalty = event.latency_penalty_ms if event.reachable else math.inf
            else:
                break
        return penalty


def simulate_withdrawal(
    withdrawal_time_s: float,
    config: ConvergenceConfig = ConvergenceConfig(),
    seed: int = 0,
) -> ConvergenceTrace:
    """Model the churn after a prefix is withdrawn from one of its origins.

    The prefix stays advertised elsewhere (anycast), so it reconverges: a
    loss window while the withdrawal floods, then rounds of path exploration
    spaced by the MRAI timer, each shorter-lived and quieter than the last,
    each carrying transient latency inflation that fades as the final path
    is selected.
    """
    with TRACER.span(
        "bgp.convergence", withdrawal_time_s=withdrawal_time_s, seed=seed
    ) as conv_span:
        rng = random.Random(seed)
        events: List[ConvergenceEvent] = []

        # The withdrawal itself is an update burst with no reachability.
        events.append(
            ConvergenceEvent(
                time_s=withdrawal_time_s,
                updates=max(1, int(config.peak_updates_per_round * 0.5)),
                reachable=False,
                latency_penalty_ms=math.inf,
            )
        )

        time_s = withdrawal_time_s + config.reachability_gap_s * rng.uniform(0.8, 1.2)
        for round_idx in range(config.exploration_depth):
            decay = config.update_decay**round_idx
            updates = max(1, int(rng.gauss(config.peak_updates_per_round * decay, 2.0)))
            # Penalty shrinks as exploration homes in on the final path.
            remaining = (config.exploration_depth - 1 - round_idx) / max(
                1, config.exploration_depth - 1
            )
            penalty = config.transient_inflation_ms * remaining
            events.append(
                ConvergenceEvent(
                    time_s=time_s,
                    updates=updates,
                    reachable=True,
                    latency_penalty_ms=penalty,
                )
            )
            time_s += config.mrai_s * rng.uniform(0.8, 1.3)

        trace = ConvergenceTrace(withdrawal_time_s=withdrawal_time_s, events=events)
        conv_span.tag("total_updates", trace.total_updates)
        conv_span.tag("loss_duration_s", trace.loss_duration_s)
    emit_event(
        "bgp_convergence",
        withdrawal_time_s=withdrawal_time_s,
        total_updates=trace.total_updates,
        loss_duration_s=trace.loss_duration_s,
        reconvergence_time_s=trace.reconvergence_time_s,
    )
    return trace


def churn_series(
    trace: ConvergenceTrace, start_s: float, end_s: float, bin_s: float = 1.0
) -> List[Tuple[float, int]]:
    """Bin a trace's updates into a (time, count) series for plotting."""
    if bin_s <= 0:
        raise ValueError("bin_s must be positive")
    series: List[Tuple[float, int]] = []
    t = start_s
    while t < end_s:
        series.append((t, trace.updates_in_window(t, t + bin_s)))
        t += bin_s
    return series
