"""Ground truth: which ingress a UG *actually* uses for an advertisement.

The Advertisement Orchestrator can only predict ingresses; reality is
decided by every AS on the path.  This oracle composes three layers:

1. **AS-level BGP** — propagate the advertisement over the AS graph; the
   UG's AS picks a best route, fixing the neighbor AS through which traffic
   enters the cloud.
2. **Exit policy inside the entering AS** — among that AS's *advertised*
   peerings, hot-potato ASes exit nearest the traffic source, while
   cold-potato ASes drag traffic to a preferred exit regardless of source.
   The latter reproduces the paper's observed pathologies ("many New York
   users preferred an ingress in Amsterdam"), concentrated at transit
   providers.
3. **Latency** — the ground-truth latency model evaluated at the chosen
   peering.

The orchestrator never sees layers 1-2 directly; it observes outcomes one
advertisement at a time and must learn the hidden preferences (§3.1).
"""

from __future__ import annotations

from repro.util import KeyedUniform, stable_rng
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.bgp.route import Route
from repro.bgp.simulator import BGPSimulator
from repro.measurement.latency_model import LatencyModel
from repro.telemetry import METRICS
from repro.topology.builder import CLOUD_ASN, Topology
from repro.topology.cloud import Peering
from repro.topology.geo import haversine_km
from repro.usergroups.usergroup import UserGroup

#: Marks a memo slot that has not been computed (``None`` means "no route").
_UNSET = object()


def catchment(
    ugs: Sequence[UserGroup],
    columns: Sequence[Any],
    latency_of: Callable[[UserGroup, Any], Optional[float]],
) -> np.ndarray:
    """``latency_of(ug, column)`` for each UG (rows) and column (advertised
    set or announcement), ``np.inf`` where it is ``None`` (no route): the
    one per-cell loop behind both routing oracles' ``latencies``."""
    matrix = np.full((len(ugs), len(columns)), np.inf)
    for j, column in enumerate(columns):
        for i, ug in enumerate(ugs):
            latency = latency_of(ug, column)
            if latency is not None:
                matrix[i, j] = latency
    return matrix


class GroundTruthRouting:
    """Oracle mapping (UG, advertised peering set) -> actual ingress."""

    def __init__(
        self,
        topology: Topology,
        latency_model: LatencyModel,
        seed: int = 0,
        cold_potato_prob_transit: float = 0.45,
        cold_potato_prob_other: float = 0.15,
    ) -> None:
        self._topology = topology
        self._model = latency_model
        self._seed = seed
        self._sim = BGPSimulator(topology.graph, CLOUD_ASN, tie_break_seed=seed)
        self._cold_transit = cold_potato_prob_transit
        self._cold_other = cold_potato_prob_other
        self._propagation_cache: Dict[FrozenSet[int], Dict[int, Route]] = {}
        self._exit_policy_cache: Dict[int, bool] = {}
        self._exit_rank_cache: Dict[int, Dict[str, float]] = {}
        self._wobbles = KeyedUniform(1.0, 0.15)
        self._all_peering_ids = frozenset(p.peering_id for p in topology.deployment.peerings)
        # Routing here is deterministic and the oracle is immutable, so the
        # full decision (layers 1+2) memoizes per (UG, advertised set) and
        # the chosen latency per (UG, advertised set, day) — shared by
        # execute_and_observe, realized_benefit, and best_prefix_choices,
        # which all query identical sets.
        self._group_cache: Dict[FrozenSet[int], Dict[int, List[Peering]]] = {}
        self._ingress_cache: Dict[Tuple[int, FrozenSet[int]], Optional[int]] = {}
        self._latency_cache: Dict[Tuple[int, FrozenSet[int], int], Optional[float]] = {}
        self._exit_cache: Dict[Tuple[int, int, Tuple[int, ...]], Peering] = {}
        self._ingress_stats = METRICS.cache("ground_truth.ingress")
        self._latency_stats = METRICS.cache("ground_truth.latency")
        self._propagation_stats = METRICS.cache("ground_truth.propagation")

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def latency_model(self) -> LatencyModel:
        return self._model

    @property
    def seed(self) -> int:
        """Seed of the hidden tie-break / exit-policy state."""
        return self._seed

    # -- layer 1: AS-level propagation --------------------------------------

    def _routes_for(
        self,
        peer_asns: FrozenSet[int],
        prepend: Optional[Dict[int, int]] = None,
    ) -> Dict[int, Route]:
        # Zero-count prepend entries are dropped from the cache key so a
        # "prepend x0" announcement shares the plain announcement's cache
        # entry (and is therefore bit-identical to it by construction).
        prepend_items: Tuple[Tuple[int, int], ...] = ()
        if prepend:
            prepend_items = tuple(sorted((a, n) for a, n in prepend.items() if n > 0))
        key = peer_asns if not prepend_items else (peer_asns, prepend_items)
        cached = self._propagation_cache.get(key)
        if cached is None:
            self._propagation_stats.misses += 1
            cached = self._sim.propagate(
                "prefix", sorted(peer_asns), prepend=dict(prepend_items) or None
            )
            self._propagation_cache[key] = cached
        else:
            self._propagation_stats.hits += 1
        return cached

    def _entering_asn(
        self,
        ug: UserGroup,
        peer_asns: FrozenSet[int],
        prepend: Optional[Dict[int, int]] = None,
    ) -> Optional[int]:
        routes = self._routes_for(peer_asns, prepend=prepend)
        route = routes.get(ug.asn)
        if route is None:
            return None
        # as_path ends at the cloud; the AS before it is the entry neighbor.
        if len(route.as_path) == 1:  # UG's AS peers directly and was announced to
            return ug.asn
        return route.as_path[-2]

    def entering_asn_for(
        self,
        ug: UserGroup,
        peer_asns: FrozenSet[int],
        prepend: Optional[Dict[int, int]] = None,
    ) -> Optional[int]:
        """The neighbor AS ``ug``'s traffic enters the cloud through.

        Public hook for layers (e.g. community-based inbound TE) that alter
        the AS-level announcement — ``prepend`` maps a peer ASN to a prepend
        count on that session — but reuse this oracle's hidden tie-breaks.
        """
        return self._entering_asn(ug, peer_asns, prepend=prepend)

    def as_path(
        self, ug: UserGroup, advertised: Iterable[int]
    ) -> Optional[Tuple[int, ...]]:
        """AS path (UG's AS exclusive, cloud inclusive) for this advertisement."""
        peerings = self._resolve(advertised)
        peer_asns = frozenset(p.peer_asn for p in peerings)
        if not peer_asns:
            return None
        routes = self._routes_for(peer_asns)
        route = routes.get(ug.asn)
        return None if route is None else route.as_path

    # -- layer 2: exit policy -------------------------------------------------

    def _is_cold_potato(self, asn: int) -> bool:
        cached = self._exit_policy_cache.get(asn)
        if cached is None:
            asys = self._topology.graph.get_as(asn) if asn in self._topology.graph else None
            prob = (
                self._cold_transit
                if asys is not None and asys.is_transit
                else self._cold_other
            )
            cached = stable_rng(self._seed, "cold", asn).random() < prob
            self._exit_policy_cache[asn] = cached
        return cached

    def _exit_rank(self, asn: int) -> Dict[str, float]:
        """Cold-potato ASes have a fixed preference over PoP exits."""
        cached = self._exit_rank_cache.get(asn)
        if cached is None:
            rng = stable_rng(self._seed, "exit-rank", asn)
            pops = sorted(pop.name for pop in self._topology.deployment.pops)
            ranks = list(range(len(pops)))
            rng.shuffle(ranks)
            cached = {name: float(rank) for name, rank in zip(pops, ranks)}
            self._exit_rank_cache[asn] = cached
        return cached

    def _choose_exit(
        self, ug: UserGroup, entering_asn: int, candidates: Sequence[Peering]
    ) -> Peering:
        if len(candidates) == 1:
            return candidates[0]
        if self._is_cold_potato(entering_asn):
            ranks = self._exit_rank(entering_asn)
            return min(candidates, key=lambda p: (ranks[p.pop.name], p.peering_id))
        # Hot potato: nearest exit to the traffic source, with a small hidden
        # per-(AS, UG-AS, PoP) wobble standing in for IGP detail.
        def hot_key(peering: Peering) -> Tuple[float, int]:
            wobble = self._wobbles(self._seed, "hot", entering_asn, ug.asn, peering.pop.name)
            return (haversine_km(ug.location, peering.pop.location) * wobble, peering.peering_id)

        return min(candidates, key=hot_key)

    def choose_exit(
        self, ug: UserGroup, entering_asn: int, candidates: Sequence[Peering]
    ) -> Peering:
        """Public exit-policy hook (same hidden state as :meth:`ingress_for`).

        Given that ``ug``'s traffic enters via ``entering_asn`` and that AS
        sees ``candidates`` advertised, return the peering it exits through.
        The choice depends on no day, so it is memoized like the ingress:
        community announcements resolve every (UG, entering AS) pair again
        for each day and each announcement that reaches it.
        """
        key = (ug.ug_id, entering_asn, tuple(p.peering_id for p in candidates))
        chosen = self._exit_cache.get(key)
        if chosen is None:
            chosen = self._exit_cache[key] = self._choose_exit(ug, entering_asn, candidates)
        return chosen

    # -- public API -------------------------------------------------------------

    def _resolve(self, advertised: Iterable[int]) -> List[Peering]:
        deployment = self._topology.deployment
        return [deployment.peering(pid) for pid in advertised]

    def _grouped(self, advertised: FrozenSet[int]) -> Dict[int, List[Peering]]:
        by_asn = self._group_cache.get(advertised)
        if by_asn is None:
            by_asn = {}
            for peering in self._resolve(advertised):
                by_asn.setdefault(peering.peer_asn, []).append(peering)
            self._group_cache[advertised] = by_asn
        return by_asn

    def ingress_for(self, ug: UserGroup, advertised: Iterable[int]) -> Optional[Peering]:
        """The peering ``ug``'s traffic actually enters through, or ``None``.

        ``advertised`` is the set of peering ids a single prefix is announced
        via.  ``None`` means the UG has no route to that prefix.
        """
        if not isinstance(advertised, frozenset):
            advertised = frozenset(advertised)
        key = (ug.ug_id, advertised)
        cached = self._ingress_cache.get(key, _UNSET)
        if cached is not _UNSET:
            self._ingress_stats.hits += 1
            if cached is None:
                return None
            return self._topology.deployment.peering(cached)
        self._ingress_stats.misses += 1
        ingress = self._ingress_for_uncached(ug, advertised)
        self._ingress_cache[key] = None if ingress is None else ingress.peering_id
        return ingress

    def _ingress_for_uncached(
        self, ug: UserGroup, advertised: FrozenSet[int]
    ) -> Optional[Peering]:
        if not advertised:
            return None
        by_asn = self._grouped(advertised)
        entering = self._entering_asn(ug, frozenset(by_asn))
        if entering is None:
            return None
        return self._choose_exit(ug, entering, by_asn[entering])

    def latency_for(
        self, ug: UserGroup, advertised: Iterable[int], day: int = 0
    ) -> Optional[float]:
        """True latency via the actually-chosen ingress; ``None`` if no route."""
        if not isinstance(advertised, frozenset):
            advertised = frozenset(advertised)
        key = (ug.ug_id, advertised, day)
        cached = self._latency_cache.get(key, _UNSET)
        if cached is not _UNSET:
            self._latency_stats.hits += 1
            return cached
        self._latency_stats.misses += 1
        ingress = self.ingress_for(ug, advertised)
        value = None if ingress is None else self._model.latency_ms(ug, ingress, day=day)
        self._latency_cache[key] = value
        return value

    def latencies(
        self,
        ugs: Sequence[UserGroup],
        advertised_sets: Sequence[Iterable[int]],
        day: int = 0,
    ) -> np.ndarray:
        """Ground-truth latency of each UG (rows) via each advertised set
        (columns), ``np.inf`` where there is no route or the set is empty.

        This is the realized catchment the Traffic Manager measures (§3.2):
        one cached :meth:`latency_for` per non-empty cell, so a cell equals
        that call's value exactly.
        """
        def latency_of(ug: UserGroup, advertised: FrozenSet[int]) -> Optional[float]:
            return self.latency_for(ug, advertised, day=day) if advertised else None

        return catchment(ugs, [frozenset(advertised) for advertised in advertised_sets], latency_of)

    # -- anycast (the default configuration D) ---------------------------------

    def anycast_ingress(self, ug: UserGroup) -> Optional[Peering]:
        return self.ingress_for(ug, self._all_peering_ids)

    def anycast_latency_ms(self, ug: UserGroup, day: int = 0) -> Optional[float]:
        return self.latency_for(ug, self._all_peering_ids, day=day)

    def default_as_path(self, ug: UserGroup) -> Optional[Tuple[int, ...]]:
        """AS path of the UG's anycast (default) route, cloud inclusive."""
        return self.as_path(ug, self._all_peering_ids)
