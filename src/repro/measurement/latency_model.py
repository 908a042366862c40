"""Ground-truth latency between user groups and cloud ingresses.

This is the synthetic stand-in for the physical Internet the paper measured
with RIPE Atlas and Azure's measurement system.  Latency from a UG through a
peering decomposes into:

* propagation over fiber at geodesic distance (UG metro -> peering's PoP),
* a per-UG last-mile constant,
* a hidden per-(UG AS, peer AS) *inflation penalty* — circuitous intra-AS
  routing.  The paper found such inflation concentrated at transit providers
  ("those transit providers tended to inflate routes even over very large
  distances"), so transit peerings draw larger penalties more often.

The model also supports a ``day`` parameter: latencies drift slowly and
peerings occasionally suffer day-scale degradations, which drives the
benefit-retention-over-a-month experiment (Fig. 7).

Two forms give the same doubles.  :meth:`LatencyModel.latency_ms` is the
scalar oracle, any day.  :meth:`LatencyModel.day0_latencies` is the batch
form a world is materialised with: one array over many (UG, peering)
slots, gathered from a few small tables (fiber RTT per metro × PoP, last
mile per UG, one inflation draw per distinct AS pair).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.util import stable_rng

from repro.topology.cloud import Peering
from repro.topology.geo import fiber_rtt_ms, haversine_km
from repro.usergroups.usergroup import UserGroup


@dataclass(frozen=True)
class LatencyModelConfig:
    """Distributional knobs of the ground-truth model."""

    seed: int = 0
    #: Last-mile RTT added per UG, uniform in [min, max] ms.
    last_mile_min_ms: float = 1.0
    last_mile_max_ms: float = 12.0
    #: Probability a (UG AS, peer AS) pair suffers large inflation.
    inflation_prob_peer: float = 0.12
    inflation_prob_transit: float = 0.30
    #: Inflation penalty range (ms) when present.
    inflation_min_ms: float = 20.0
    inflation_max_ms: float = 150.0
    #: Small always-present intra-AS wiggle (ms), uniform in [0, x].
    base_wiggle_ms: float = 5.0
    #: Day-scale drift amplitude (ms) and event characteristics (Fig. 7).
    drift_amplitude_ms: float = 4.0
    event_prob_per_peering_day: float = 0.10
    event_penalty_ms: float = 150.0

    def __post_init__(self) -> None:
        for name in (
            "last_mile_min_ms", "last_mile_max_ms", "inflation_min_ms",
            "inflation_max_ms", "base_wiggle_ms", "drift_amplitude_ms",
            "event_penalty_ms",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite number >= 0, not {value!r}")
        if self.last_mile_max_ms < self.last_mile_min_ms:
            raise ValueError("invalid last-mile range")
        if self.inflation_max_ms < self.inflation_min_ms:
            raise ValueError("invalid inflation range")
        for name in ("inflation_prob_peer", "inflation_prob_transit", "event_prob_per_peering_day"):
            value = getattr(self, name)
            if not 0 <= value <= 1:  # NaN fails every comparison too
                raise ValueError(f"{name} must be in [0,1], not {value!r}")


class LatencyModel:
    """Deterministic ground-truth min-RTT oracle.

    All values derive from ``(seed, identifiers)`` hashes, so every value is
    stable across calls and independent of the order it is asked in.  Bulk
    consumers should materialise through :meth:`day0_latencies` rather than
    call :meth:`latency_ms` per slot: it draws each random component once
    per distinct key instead of once per slot.
    """

    def __init__(self, config: Optional[LatencyModelConfig] = None) -> None:
        self._config = config or LatencyModelConfig()
        self._cache: Dict[Tuple[int, int, int], float] = {}
        # Component memos.  Each static component depends on far fewer keys
        # than there are (UG, peering) pairs — last mile on the UG alone,
        # inflation on the AS pair, propagation on the (UG, PoP) pair — so
        # caching them skips most of the per-pair RNG seeding without
        # changing a single returned value.
        self._last_mile_memo: Dict[Tuple[int, str], float] = {}
        self._inflation_memo: Dict[Tuple[int, int, bool], float] = {}
        self._propagation_memo: Dict[Tuple[int, str], float] = {}
        #: A peering's event penalty per day, shared by every UG behind it.
        self._event_memo: Dict[Tuple[int, int], float] = {}

    @property
    def config(self) -> LatencyModelConfig:
        return self._config

    def _rng(self, *key: object) -> "random.Random":
        return stable_rng(self._config.seed, *key)

    # -- static components ---------------------------------------------------

    def last_mile_ms(self, ug: UserGroup) -> float:
        key = (ug.asn, ug.metro.name)
        value = self._last_mile_memo.get(key)
        if value is None:
            rng = self._rng("last-mile", *key)
            value = rng.uniform(
                self._config.last_mile_min_ms, self._config.last_mile_max_ms
            )
            self._last_mile_memo[key] = value
        return value

    def inflation_penalty_ms(self, ug: UserGroup, peering: Peering) -> float:
        """Hidden intra-AS inflation for this (UG AS, peer AS) pair."""
        return self._inflation_ms(ug.asn, peering.peer_asn, peering.is_transit)

    def _inflation_ms(self, ug_asn: int, peer_asn: int, is_transit: bool) -> float:
        cfg = self._config
        key = (ug_asn, peer_asn, is_transit)
        value = self._inflation_memo.get(key)
        if value is None:
            rng = self._rng("inflate", ug_asn, peer_asn)
            prob = cfg.inflation_prob_transit if is_transit else cfg.inflation_prob_peer
            if rng.random() < prob:
                value = rng.uniform(cfg.inflation_min_ms, cfg.inflation_max_ms)
            else:
                value = rng.uniform(0.0, cfg.base_wiggle_ms)
            self._inflation_memo[key] = value
        return value

    def propagation_ms(self, ug: UserGroup, peering: Peering) -> float:
        key = (ug.ug_id, peering.pop.name)
        value = self._propagation_memo.get(key)
        if value is None:
            distance = haversine_km(ug.location, peering.pop.location)
            value = fiber_rtt_ms(distance)
            self._propagation_memo[key] = value
        return value

    # -- day-varying components (Fig. 7) -------------------------------------

    def drift_ms(self, ug: UserGroup, peering: Peering, day: int) -> float:
        rng = self._rng("drift", ug.asn, peering.peering_id, day)
        return rng.uniform(0.0, self._config.drift_amplitude_ms)

    def event_penalty_ms(self, peering: Peering, day: int) -> float:
        """Day-scale degradation affecting everyone through a peering."""
        key = (peering.peering_id, day)
        value = self._event_memo.get(key)
        if value is None:
            rng = self._rng("event", *key)
            value = 0.0
            if rng.random() < self._config.event_prob_per_peering_day:
                value = self._config.event_penalty_ms * rng.uniform(0.5, 1.5)
            self._event_memo[key] = value
        return value

    # -- the oracle ----------------------------------------------------------

    def latency_ms(self, ug: UserGroup, peering: Peering, day: int = 0) -> float:
        """True min-RTT from ``ug`` through ``peering``, on ``day``."""
        key = (ug.ug_id, peering.peering_id, day)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        value = (
            self.propagation_ms(ug, peering)
            + self.last_mile_ms(ug)
            + self.inflation_penalty_ms(ug, peering)
        )
        if day:
            value += self.drift_ms(ug, peering, day) + self.event_penalty_ms(peering, day)
        self._cache[key] = value
        return value

    def day0_latencies(
        self,
        ugs: Sequence[UserGroup],
        peerings: Sequence[Peering],
        rows: "np.ndarray",
        cols: "np.ndarray",
        propagation_ms: "np.ndarray",
    ) -> "np.ndarray":
        """``latency_ms(ugs[r], peerings[c])`` at day 0 for every slot
        ``(r, c)`` of ``zip(rows, cols)``, as one array.

        ``propagation_ms`` is each slot's :func:`fiber_rtt_ms` of its
        UG-to-PoP great-circle distance (a gather from a
        :class:`repro.topology.geo.DistanceTable`).  The last mile is drawn
        once per UG and the inflation once per distinct ``(UG AS, peer AS,
        transit)`` key, through the same memos and RNG keys as the scalar
        components, and the sum is formed in :meth:`latency_ms`'s order,
        ``(propagation + last mile) + inflation`` — so every element is the
        scalar oracle's double, bit for bit.
        """
        last_mile = np.array([self.last_mile_ms(ug) for ug in ugs], dtype=np.float64)
        asns, ug_asn = np.unique(
            np.array([ug.asn for ug in ugs], dtype=np.int64), return_inverse=True
        )
        kinds: Dict[Tuple[int, bool], int] = {}
        kind_of = np.array(
            [kinds.setdefault((p.peer_asn, p.is_transit), len(kinds)) for p in peerings],
            dtype=np.int64,
        )
        n_kinds = max(len(kinds), 1)
        keys, slot_key = np.unique(
            ug_asn[rows] * n_kinds + kind_of[cols], return_inverse=True
        )
        kind_list = list(kinds)
        inflation = np.array(
            [
                self._inflation_ms(int(asns[key // n_kinds]), *kind_list[key % n_kinds])
                for key in keys.tolist()
            ],
            dtype=np.float64,
        )
        return (propagation_ms + last_mile[rows]) + inflation[slot_key]
