"""RTT-timescale failover (the Fig. 10 experiment) under arbitrary faults.

Reproduces the prototype scenario of §5.2.3: an anycast prefix advertised at
two PoPs plus single-transit unicast prefixes at each, a PoP failure at
t = 60 s, and three reactions compared —

* **PAINTER** — the TM-Edge notices missing acknowledgments on its chosen
  tunnel within ~1.3 RTT and switches to the next-lowest-latency prefix;
* **anycast** — the prefix is unreachable while the withdrawal floods
  (~1 s), then suffers transient path-exploration inflation for ~15 s
  (modeled by :mod:`repro.bgp.convergence`);
* **DNS** — clients keep using the stale record until the TTL expires
  (~60 s).

The failure model is a :class:`repro.faults.FaultSchedule`: Fig. 10's
single-PoP scenario is ``FaultSchedule.single_pop_outage("pop-a", 60.0)``
(the :class:`FailoverConfig` default), but any composition of outages,
withdrawals, link flaps, latency spikes, and probe loss runs through the
same simulation — including back-to-back failures the TM-Edge must
survive repeatedly.  The failure instant the Fig. 10 figures are measured
from is the start of the schedule's earliest :class:`PopOutage`.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bgp.convergence import ConvergenceConfig, ConvergenceTrace, simulate_withdrawal
from repro.faults.events import PopOutage
from repro.faults.schedule import FaultSchedule
from repro.simulation.events import EventLoop
from repro.telemetry import TRACER, emit_event
from repro.traffic_manager.selection import LowestLatencySelector


logger = logging.getLogger(__name__)

#: Interval between data/keepalive packets on the active tunnel.
PACKET_INTERVAL_MS = 5.0
#: Interval between background probes of alternate tunnels.
PROBE_INTERVAL_MS = 1000.0
#: Missing-ack time (in RTTs) before the tunnel is declared down (§5.2.3:
#: "typically detected failure within 1.3 RTTs").
DETECTION_RTT_MULTIPLIER = 1.3
#: TTL-bound failover time of the DNS alternative (Fig. 10).
DNS_TTL_S = 60.0


@dataclass(frozen=True)
class PathSpec:
    """One destination prefix the TM-Edge can tunnel to."""

    prefix: str
    pop_name: str
    base_rtt_ms: float
    is_anycast: bool = False
    #: For the anycast path: RTT via the surviving PoP after reconvergence.
    backup_rtt_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.base_rtt_ms <= 0:
            raise ValueError("base_rtt_ms must be positive")
        if self.is_anycast and self.backup_rtt_ms is None:
            raise ValueError("anycast path needs a backup_rtt_ms")


@dataclass(frozen=True)
class FailoverConfig:
    duration_s: float = 130.0
    convergence: ConvergenceConfig = field(default_factory=ConvergenceConfig)
    seed: int = 0
    #: The fault timeline; the default is Fig. 10's: ``pop-a`` dies at
    #: t = 60 s, forever.
    schedule: FaultSchedule = field(
        default_factory=lambda: FaultSchedule.single_pop_outage("pop-a", 60.0)
    )

    @property
    def failure_time_s(self) -> float:
        """Start of the schedule's earliest :class:`PopOutage` (``nan`` if
        it has none) — the instant the Fig. 10 figures are measured from."""
        return min(
            (e.start_s for e in self.schedule.events_of(PopOutage)), default=math.nan
        )


@dataclass(frozen=True)
class DowntimeEvent:
    """One data-plane outage episode as the TM-Edge experienced it."""

    prefix: str
    detected_s: float
    recovered_s: Optional[float] = None

    @property
    def duration_ms(self) -> float:
        """Detection-to-recovery gap (``inf`` if never recovered)."""
        if self.recovered_s is None:
            return math.inf
        return (self.recovered_s - self.detected_s) * 1000.0


@dataclass(frozen=True)
class AnycastEpoch:
    """One dark window of an anycast path and its convergence trace."""

    start_s: float
    end_s: float
    trace: ConvergenceTrace


@dataclass
class FailoverResult:
    """Everything needed to regenerate Fig. 10 (and its chaos variants)."""

    config: FailoverConfig
    paths: Sequence[PathSpec]
    #: (time_s, active_prefix or None, observed rtt_ms or inf).
    timeline: List[Tuple[float, Optional[str], float]]
    convergence: ConvergenceTrace
    detection_time_s: Optional[float]
    recovery_time_s: Optional[float]
    #: Every outage episode, in order (the legacy fields mirror the first).
    downtime_events: List[DowntimeEvent] = field(default_factory=list)
    #: Per anycast prefix: dark windows and their convergence traces.
    anycast_epochs: Dict[str, List[AnycastEpoch]] = field(default_factory=dict)

    @property
    def painter_downtime_ms(self) -> float:
        """Data-plane gap between failure and the first delivered packet."""
        if self.recovery_time_s is None:
            return math.inf
        return (self.recovery_time_s - self.config.failure_time_s) * 1000.0

    @property
    def total_downtime_ms(self) -> float:
        """Summed detection-to-recovery gaps over every outage episode.

        Unrecovered episodes count until the end of the simulation — a
        chaos storm that leaves the TM-Edge dark is charged for it.
        """
        total = 0.0
        for event in self.downtime_events:
            end_s = (
                event.recovered_s
                if event.recovered_s is not None
                else self.config.duration_s
            )
            total += max(0.0, end_s - event.detected_s) * 1000.0
        return total

    @property
    def recovery_count(self) -> int:
        return sum(1 for e in self.downtime_events if e.recovered_s is not None)

    @property
    def anycast_loss_s(self) -> float:
        return self.convergence.loss_duration_s

    @property
    def anycast_reconvergence_s(self) -> float:
        return self.convergence.reconvergence_time_s - self.config.failure_time_s

    @property
    def dns_downtime_s(self) -> float:
        return DNS_TTL_S

    def active_prefix_at(self, time_s: float) -> Optional[str]:
        active = None
        for t, prefix, _rtt in self.timeline:
            if t <= time_s:
                active = prefix
            else:
                break
        return active

    def bgp_update_series(self, bin_s: float = 1.0) -> List[Tuple[float, int]]:
        from repro.bgp.convergence import churn_series

        return churn_series(self.convergence, 0.0, self.config.duration_s, bin_s=bin_s)

    def path_latency_series(
        self, step_s: float = 0.5
    ) -> Dict[str, List[Tuple[float, float]]]:
        """Per-prefix latency series (inf while unreachable), for plotting."""
        oracle = _PathOracle(self.paths, self.config.schedule, self.anycast_epochs)
        series: Dict[str, List[Tuple[float, float]]] = {p.prefix: [] for p in self.paths}
        t = 0.0
        while t <= self.config.duration_s:
            for path in self.paths:
                series[path.prefix].append((t, oracle.rtt_ms(path, t)))
            t += step_s
        return series


class _PathOracle:
    """Ground-truth RTT of each path over time, under a fault schedule."""

    def __init__(
        self,
        paths: Sequence[PathSpec],
        schedule: FaultSchedule,
        anycast_epochs: Dict[str, List[AnycastEpoch]],
    ) -> None:
        self._paths: Dict[str, PathSpec] = {p.prefix: p for p in paths}
        self._schedule = schedule
        self._epochs = anycast_epochs

    def path(self, prefix: str) -> PathSpec:
        return self._paths[prefix]

    def rtt_ms(self, path: PathSpec, time_s: float) -> float:
        spike = self._schedule.latency_penalty_ms(path.pop_name, time_s)
        if path.is_anycast:
            epoch = self._epoch_at(path.prefix, time_s)
            if epoch is None:
                return path.base_rtt_ms + spike
            penalty = epoch.trace.latency_penalty_at(time_s)
            if math.isinf(penalty):
                return math.inf
            assert path.backup_rtt_ms is not None
            return path.backup_rtt_ms + penalty + spike
        if self._schedule.path_down(path.pop_name, path.prefix, time_s):
            return math.inf
        return path.base_rtt_ms + spike

    def _epoch_at(self, prefix: str, time_s: float) -> Optional[AnycastEpoch]:
        """The dark window governing the anycast prefix at ``time_s``.

        A window governs from its start until it heals; the convergence
        trace inside it decides reachability and inflation.  An infinite
        window (the legacy forever-outage) governs until the end of time.
        """
        for epoch in self._epochs.get(prefix, ()):
            if epoch.start_s <= time_s < epoch.end_s:
                return epoch
        return None


def _build_anycast_epochs(
    paths: Sequence[PathSpec], schedule: FaultSchedule, config: FailoverConfig
) -> Dict[str, List[AnycastEpoch]]:
    """One convergence trace per dark window of each anycast path.

    Every withdrawal of the anycast's primary PoP starts a fresh BGP
    convergence process (loss window, path exploration, settling).  The
    first epoch of the first anycast path is seeded with ``config.seed``
    so the default single-outage schedule reproduces the original Fig. 10
    trace bit-for-bit.
    """
    epochs: Dict[str, List[AnycastEpoch]] = {}
    anycast_paths = [p for p in paths if p.is_anycast]
    for path_idx, path in enumerate(anycast_paths):
        intervals = schedule.down_intervals(
            pop_name=path.pop_name, prefix=path.prefix
        )
        path_epochs: List[AnycastEpoch] = []
        for epoch_idx, (start_s, end_s) in enumerate(intervals):
            trace = simulate_withdrawal(
                start_s,
                config=config.convergence,
                seed=config.seed + 101 * path_idx + epoch_idx,
            )
            path_epochs.append(AnycastEpoch(start_s=start_s, end_s=end_s, trace=trace))
        epochs[path.prefix] = path_epochs
    return epochs


def run_failover(
    paths: Sequence[PathSpec], config: Optional[FailoverConfig] = None
) -> FailoverResult:
    """Run the event-driven failover simulation under the fault schedule."""
    config = config or FailoverConfig()
    if not paths:
        raise ValueError("need at least one path")
    for outage in config.schedule.events_of(PopOutage):
        if not any(p.pop_name == outage.pop_name for p in paths):
            raise ValueError(f"no path touches the failed PoP {outage.pop_name!r}")

    schedule = config.schedule
    epochs = _build_anycast_epochs(paths, schedule, config)
    oracle = _PathOracle(paths, schedule, epochs)
    loop = EventLoop()
    probe_rng = random.Random(config.seed + 0x5EED)

    # Measured RTT per prefix, as the TM-Edge currently believes.
    measured: Dict[str, float] = {p.prefix: p.base_rtt_ms for p in paths}
    selector = LowestLatencySelector()
    selector.update(dict(measured))
    timeline_seed = selector.current
    state = {
        "last_ack_s": 0.0,
        "last_send_s": 0.0,
        "down_since_s": None,
    }
    downtimes: List[DowntimeEvent] = []
    timeline: List[Tuple[float, Optional[str], float]] = []
    by_prefix = {p.prefix: p for p in paths}
    if timeline_seed is not None:
        timeline.append((0.0, timeline_seed, measured[timeline_seed]))

    def active_path() -> Optional[PathSpec]:
        prefix = selector.current
        return None if prefix is None else by_prefix[prefix]

    def send_packet(loop: EventLoop) -> None:
        path = active_path()
        now = loop.now_s
        if path is not None:
            state["last_send_s"] = now
            rtt = oracle.rtt_ms(path, now)
            if math.isinf(rtt):
                # Packet lost; schedule the detection check.
                expected = measured.get(path.prefix, path.base_rtt_ms)
                if math.isinf(expected):
                    expected = path.base_rtt_ms
                deadline = now + DETECTION_RTT_MULTIPLIER * expected / 1000.0
                loop.schedule_at(deadline, make_detection_check(path.prefix, now))
            else:
                delivered = now + rtt / 1000.0

                def on_ack(loop: EventLoop, prefix: str = path.prefix, rtt: float = rtt) -> None:
                    state["last_ack_s"] = loop.now_s
                    measured[prefix] = rtt
                    if state["down_since_s"] is not None:
                        sent_s = loop.now_s - rtt / 1000.0
                        if downtimes and downtimes[-1].recovered_s is None:
                            downtimes[-1] = DowntimeEvent(
                                prefix=downtimes[-1].prefix,
                                detected_s=downtimes[-1].detected_s,
                                recovered_s=sent_s,
                            )
                        state["down_since_s"] = None
                    timeline.append((loop.now_s, selector.current, rtt))

                loop.schedule_at(delivered, on_ack)
        if now + PACKET_INTERVAL_MS / 1000.0 <= config.duration_s:
            loop.schedule_in(PACKET_INTERVAL_MS / 1000.0, send_packet)

    def make_detection_check(prefix: str, sent_at_s: float) -> Callable[[EventLoop], None]:
        def check(loop: EventLoop) -> None:
            if selector.current != prefix:
                return  # already moved on
            if state["last_ack_s"] >= sent_at_s:
                return  # an ack arrived in the meantime
            # Declare the tunnel down and switch to the best alternate.
            if state["down_since_s"] is None:
                state["down_since_s"] = loop.now_s
                downtimes.append(DowntimeEvent(prefix=prefix, detected_s=loop.now_s))
                emit_event(
                    "downtime_detected", prefix=prefix, detected_s=loop.now_s
                )
                logger.info(
                    "tunnel %s declared down at t=%.3fs", prefix, loop.now_s
                )
            measured[prefix] = math.inf
            selector.update(dict(measured))
            timeline.append((loop.now_s, selector.current, math.inf))

        return check

    def probe_paths(loop: EventLoop) -> None:
        now = loop.now_s
        # Fold the previous round's probe results into the selection — this
        # is what lets the TM-Edge move *back* after a flap heals or find a
        # live tunnel after every path was briefly dark.
        previous = selector.current
        selector.update(dict(measured))
        if selector.current != previous:
            timeline.append(
                (now, selector.current, measured.get(selector.current or "", math.inf))
            )
        loss_rate = schedule.probe_loss_rate(now)
        for path in paths:
            if path.prefix == selector.current:
                continue  # active path is measured by data packets
            if loss_rate > 0 and probe_rng.random() < loss_rate:
                continue  # probe dropped by the fault schedule
            rtt = oracle.rtt_ms(path, now)

            def on_probe(loop: EventLoop, prefix: str = path.prefix, rtt: float = rtt) -> None:
                measured[prefix] = rtt

            if math.isinf(rtt):
                measured[path.prefix] = math.inf
            else:
                loop.schedule_at(now + rtt / 1000.0, on_probe)
        if now + PROBE_INTERVAL_MS / 1000.0 <= config.duration_s:
            loop.schedule_in(PROBE_INTERVAL_MS / 1000.0, probe_paths)

    loop.schedule_at(0.0, send_packet)
    loop.schedule_at(0.0, probe_paths)
    with TRACER.span(
        "failover.run", paths=len(paths), duration_s=config.duration_s
    ) as run_span:
        loop.run_until(config.duration_s)
        run_span.tag("downtime_events", len(downtimes))

    first_anycast = next((p.prefix for p in paths if p.is_anycast), None)
    first_epochs = epochs.get(first_anycast, []) if first_anycast else []
    convergence = (
        first_epochs[0].trace
        if first_epochs
        else ConvergenceTrace(withdrawal_time_s=config.failure_time_s, events=[])
    )

    return FailoverResult(
        config=config,
        paths=list(paths),
        timeline=timeline,
        convergence=convergence,
        detection_time_s=downtimes[0].detected_s if downtimes else None,
        recovery_time_s=downtimes[0].recovered_s if downtimes else None,
        downtime_events=downtimes,
        anycast_epochs=epochs,
    )


def default_fig10_paths() -> List[PathSpec]:
    """The paper's setup: anycast at two PoPs + one prefix per transit ISP."""
    return [
        PathSpec(
            prefix="1.1.1.0/24",
            pop_name="pop-a",
            base_rtt_ms=25.0,
            is_anycast=True,
            backup_rtt_ms=34.0,
        ),
        PathSpec(prefix="2.2.2.0/24", pop_name="pop-a", base_rtt_ms=20.0),
        PathSpec(prefix="4.4.4.0/24", pop_name="pop-a", base_rtt_ms=28.0),
        PathSpec(prefix="3.3.3.0/24", pop_name="pop-b", base_rtt_ms=30.0),
        PathSpec(prefix="5.5.5.0/24", pop_name="pop-b", base_rtt_ms=38.0),
    ]
