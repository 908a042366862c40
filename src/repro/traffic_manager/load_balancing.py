"""Load-aware destination selection.

PAINTER's stated goal includes mitigating *congestion*, not only path
inflation (§1, §3.1: "One could use PAINTER to optimize any function of
latency").  This selector spreads new flows across the exposed destinations
in proportion to headroom, instead of pinning everything to the single
lowest-latency tunnel: each destination has a capacity, utilization feeds
back into an effective latency (an M/M/1-style penalty), and new flows pick
the destination with the lowest effective latency.  Flow stickiness is
preserved — only *new* flows rebalance, per the Traffic Manager's immutable
flow mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional


@dataclass(frozen=True)
class DestinationLoad:
    """Capacity and current load of one destination prefix."""

    prefix: str
    capacity: float
    load: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        if self.load < 0:
            raise ValueError("load must be non-negative")

    @property
    def utilization(self) -> float:
        return self.load / self.capacity


def effective_latency_ms(base_rtt_ms: float, utilization: float) -> float:
    """Queueing-inflated latency: base / (1 - utilization), inf at or past 1.

    The M/M/1 waiting-time blowup is a standard stand-in for congestion; the
    exact shape matters less than being convex and divergent at capacity.
    """
    if base_rtt_ms < 0:
        raise ValueError("base rtt must be non-negative")
    if utilization < 0:
        raise ValueError("utilization must be non-negative")
    if utilization >= 1.0:
        return math.inf
    return base_rtt_ms / (1.0 - utilization)


class LoadAwareSelector:
    """Assigns new flows to destinations by effective (congested) latency."""

    def __init__(self) -> None:
        self._destinations: Dict[str, DestinationLoad] = {}
        self._base_rtts: Dict[str, float] = {}

    def add_destination(self, prefix: str, capacity: float, base_rtt_ms: float) -> None:
        if prefix in self._destinations:
            raise ValueError(f"destination {prefix!r} already registered")
        self._destinations[prefix] = DestinationLoad(prefix=prefix, capacity=capacity)
        self._base_rtts[prefix] = base_rtt_ms

    def effective_latencies(self) -> Dict[str, float]:
        return {
            prefix: effective_latency_ms(
                self._base_rtts[prefix], dest.utilization
            )
            for prefix, dest in self._destinations.items()
        }

    def assign_flow(self, demand: float = 1.0) -> Optional[str]:
        """Place a new flow of ``demand`` units; returns the chosen prefix.

        Returns ``None`` when every destination is saturated.
        """
        if demand <= 0:
            raise ValueError("demand must be positive")
        latencies = self.effective_latencies()
        candidates = [p for p, lat in latencies.items() if not math.isinf(lat)]
        if not candidates:
            return None
        chosen = min(candidates, key=lambda p: (latencies[p], p))
        dest = self._destinations[chosen]
        self._destinations[chosen] = DestinationLoad(
            prefix=chosen, capacity=dest.capacity, load=dest.load + demand
        )
        return chosen

    def utilizations(self) -> Mapping[str, float]:
        return {p: d.utilization for p, d in self._destinations.items()}
