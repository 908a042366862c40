"""Destination-selection policies for TM-Edge.

"Given a set of available destinations (prefixes), the Traffic Manager can
use different destination selection policies ... We follow high-level
lessons from prior work about how to select destinations to avoid
oscillations" (§3.2, citing Gao et al.'s route-control damping).  The
default policy is lowest-latency with hysteresis: switch only when another
destination has been meaningfully better for several consecutive rounds.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Mapping, Optional, Sequence

#: Required relative improvement before switching (anti-oscillation).
SWITCH_THRESHOLD = 0.05
#: Consecutive rounds a challenger must win before a switch.
STABILITY_ROUNDS = 3


class LowestLatencySelector:
    """Hysteretic lowest-latency destination selection.

    Feed it one latency snapshot per measurement round via
    :meth:`update`; read the chosen destination from :attr:`current`.
    Unreachable destinations (``inf``) trigger an immediate switch — failover
    must not wait out the hysteresis.
    """

    def __init__(self) -> None:
        self._current: Optional[str] = None
        self._challenger: Optional[str] = None
        self._challenger_rounds = 0
        self._switch_count = 0

    @property
    def current(self) -> Optional[str]:
        return self._current

    @property
    def switch_count(self) -> int:
        return self._switch_count

    def update(self, latencies_ms: Mapping[str, float]) -> Optional[str]:
        """Incorporate one measurement round; returns the (new) selection."""
        live = {name: lat for name, lat in latencies_ms.items() if not math.isinf(lat)}
        if not live:
            self._current = None
            self._challenger = None
            self._challenger_rounds = 0
            return None

        best = min(live, key=lambda name: (live[name], name))

        if self._current is None or self._current not in live:
            # First selection or current destination died: switch immediately.
            if self._current is not None:
                self._switch_count += 1
            self._current = best
            self._challenger = None
            self._challenger_rounds = 0
            return self._current

        current_latency = live[self._current]
        if best == self._current:
            self._challenger = None
            self._challenger_rounds = 0
            return self._current

        improvement = (current_latency - live[best]) / current_latency
        if improvement < SWITCH_THRESHOLD:
            self._challenger = None
            self._challenger_rounds = 0
            return self._current

        if best == self._challenger:
            self._challenger_rounds += 1
        else:
            self._challenger = best
            self._challenger_rounds = 1

        if self._challenger_rounds >= STABILITY_ROUNDS:
            self._current = best
            self._challenger = None
            self._challenger_rounds = 0
            self._switch_count += 1
        return self._current

    # -- state transfer (TM-Edge snapshot protocol) --------------------------

    def to_snapshot(self) -> Dict[str, Any]:
        """Plain-data selector state (nested inside TM-Edge snapshots)."""
        return {
            "current": self._current,
            "challenger": self._challenger,
            "challenger_rounds": self._challenger_rounds,
            "switch_count": self._switch_count,
        }

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, Any]) -> "LowestLatencySelector":
        """Inverse of :meth:`to_snapshot`; ``ValueError`` for a snapshot
        that is not a mapping or names a destination by anything but a
        ``str``."""
        if not isinstance(snapshot, Mapping):
            raise ValueError(f"selector snapshot is not a mapping: {snapshot!r}")
        current, challenger = snapshot.get("current"), snapshot.get("challenger")
        for name, value in (("current", current), ("challenger", challenger)):
            if value is not None and not isinstance(value, str):
                raise ValueError(f"selector {name} must be a str or None, not {value!r}")
        selector = cls()
        selector._current = current
        selector._challenger = challenger
        selector._challenger_rounds = int(snapshot.get("challenger_rounds", 0))
        selector._switch_count = int(snapshot.get("switch_count", 0))
        return selector


class SelectorBank:
    """Many independent hysteretic selectors, keyed by integer service id.

    The soak driver and the benchmark steer hundreds of user groups at
    once; each gets its own :class:`LowestLatencySelector` (selection
    state must not bleed between services), but measurement rounds arrive
    as one latency matrix.  :meth:`update_matrix` feeds a whole round in a
    single call.
    """

    def __init__(self) -> None:
        self._selectors: Dict[int, LowestLatencySelector] = {}

    def selector(self, service_id: int) -> LowestLatencySelector:
        selector = self._selectors.get(service_id)
        if selector is None:
            selector = self._selectors[service_id] = LowestLatencySelector()
        return selector

    def update_matrix(
        self, prefixes: Sequence[str], latencies_ms
    ) -> Dict[int, Optional[str]]:
        """Feed one measurement round for many services at once.

        ``latencies_ms`` is an (n_services, n_prefixes) array-like; row *i*
        belongs to service id *i*.  Returns the resulting per-service
        selections.
        """
        results: Dict[int, Optional[str]] = {}
        names = list(prefixes)
        for sid, row in enumerate(latencies_ms):
            results[sid] = self.selector(sid).update(
                dict(zip(names, (float(v) for v in row)))
            )
        return results

    def to_snapshot(self) -> Dict[str, Any]:
        return {
            str(sid): selector.to_snapshot()
            for sid, selector in sorted(self._selectors.items())
        }

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, Any]) -> "SelectorBank":
        if not isinstance(snapshot, Mapping):
            raise ValueError(f"selector bank snapshot is not a mapping: {snapshot!r}")
        bank = cls()
        for sid, state in snapshot.items():
            bank._selectors[int(sid)] = LowestLatencySelector.from_snapshot(state)
        return bank
