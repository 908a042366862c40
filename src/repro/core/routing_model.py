"""The orchestrator's routing model: predicted ingresses per (UG, prefix).

"Since it is difficult to predict ingresses, we make assumptions about UG
ingresses and, in cases with uncertainty, assume all policy-compliant
ingresses are equally likely. We then learn from incorrect assumptions over
time" (§3.1).  Two exclusion rules refine the uniform assumption:

* **learned preferences** — if a past advertisement exposed peerings X and Y
  to a UG and the UG was observed entering at X, then Y is excluded from any
  future prediction in which X is also advertised;
* **reuse distance** — an ingress is excluded when its PoP is more than
  ``D_reuse`` km farther from the UG than the closest PoP advertising the
  prefix (large inflation is rare, so the UG is assumed not to land there).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.telemetry import METRICS
from repro.topology.cloud import CloudDeployment, Peering
from repro.topology.geo import DistanceTable
from repro.usergroups.ingresses import IngressCatalog
from repro.usergroups.usergroup import UserGroup

#: Paper's operating point for the minimum reuse distance.
DEFAULT_D_REUSE_KM = 3000.0

#: Current on-disk/in-memory snapshot format (see :meth:`snapshot_preferences`).
SNAPSHOT_VERSION = 2


class _WinnerEntry:
    """One winner's slice of a UG's preference pairs (see ``_winner_index``)."""

    __slots__ = ("same_as", "contexts", "losers")

    def __init__(self) -> None:
        #: Whether any pair is within one AS (such pairs always apply).
        self.same_as = False
        #: Competitor-ASN contexts of the cross-AS pairs.
        self.contexts: Set[FrozenSet[int]] = set()
        #: loser -> the pair's context, or ``None`` for a same-AS pair.
        self.losers: Dict[int, Optional[FrozenSet[int]]] = {}


class RoutingModel:
    """Beliefs about how UGs route, refined by observed advertisements."""

    def __init__(
        self,
        catalog: IngressCatalog,
        d_reuse_km: float = DEFAULT_D_REUSE_KM,
    ) -> None:
        if d_reuse_km < 0:
            raise ValueError("d_reuse_km must be non-negative")
        self._catalog = catalog
        self._deployment: CloudDeployment = catalog.topology.deployment
        self._d_reuse_km = d_reuse_km
        #: Per UG: (winner, loser) peering-id pairs learned from observations,
        #: each scoped to the peer-ASN *context* it was observed under.  The
        #: AS-level race depends on which ASes compete (announcing to a new
        #: AS can change intermediate propagation), so a preference is only
        #: trusted when the current competitor set is contained in the
        #: observed one — generalizing further caused configurations that
        #: looked perfect and routed terribly.
        self._preferences: Dict[int, Dict[Tuple[int, int], FrozenSet[int]]] = {}
        #: Exact outcome memory: (ug_id, compliant peering-id set) -> the
        #: ingress actually observed.  Routing is deterministic per set, so
        #: a remembered outcome is a probability-1 prediction.
        self._outcomes: Dict[Tuple[int, FrozenSet[int]], int] = {}
        #: Distance cache keyed by (ug_id, peering_id), in front of
        #: :attr:`geometry`.
        self._distance_cache: Dict[Tuple[int, int], float] = {}
        self._geometry: Optional[DistanceTable] = None
        self._observation_count = 0
        self._stale_observation_count = 0
        #: Memoized candidate predictions, bucketed per UG so that one
        #: observation invalidates exactly that UG's entries in O(1):
        #: ug_id -> {compliant peering-id set -> predicted candidates}.
        self._candidate_cache: Dict[int, Dict[FrozenSet[int], FrozenSet[int]]] = {}
        #: Per-UG invalidation epoch; bumped whenever the UG's beliefs change
        #: so downstream caches (the evaluator's expected-latency memo) can
        #: cheaply detect staleness without a callback protocol.
        self._ug_epoch: Dict[int, int] = {}
        #: Bumped on wholesale state replacement (restore_preferences).
        self._global_epoch = 0
        #: UGs with any learned state (preferences or outcome memory).  For
        #: everyone else, candidate prediction is pure reuse-distance
        #: pruning, which the evaluator's prefix-scan fast path exploits.
        self._learned_ugs: Set[int] = set()
        #: Flat peering id -> peer ASN map (the deployment is fixed for the
        #: model's lifetime, like the catalog built from it).
        self._peer_asn: Dict[int, int] = {
            p.peering_id: p.peer_asn for p in self._deployment.peerings
        }
        #: Per-UG view of ``_preferences`` indexed by winner, so a prediction
        #: touches only pairs whose winner is in the compliant set instead of
        #: every pair the UG ever learned:
        #: ug_id -> {winner: its pairs, split same-AS / cross-AS}.
        #: Built lazily by :meth:`_winners_of`; shares ``_candidate_cache``'s
        #: lifecycle (dropped wherever that is dropped).
        self._winner_index: Dict[int, Dict[int, _WinnerEntry]] = {}
        self._cand_stats = METRICS.cache("routing_model.candidates")

    @property
    def d_reuse_km(self) -> float:
        return self._d_reuse_km

    @property
    def catalog(self) -> IngressCatalog:
        return self._catalog

    @property
    def observation_count(self) -> int:
        return self._observation_count

    @property
    def stale_observation_count(self) -> int:
        return self._stale_observation_count

    def ug_epoch(self, ug_id: int) -> int:
        """Monotonic belief version for one UG.

        Any cache keyed on this model's predictions for a UG can store the
        epoch alongside its entries and discard them when it moves — the
        caching/invalidation contract used by
        :class:`repro.core.benefit.BenefitEvaluator`.
        """
        return self._global_epoch + self._ug_epoch.get(ug_id, 0)

    def _invalidate_ug(self, ug_id: int) -> None:
        self._candidate_cache.pop(ug_id, None)
        self._winner_index.pop(ug_id, None)
        self._ug_epoch[ug_id] = self._ug_epoch.get(ug_id, 0) + 1
        self._cand_stats.invalidations += 1

    def preference_count(self, ug: Optional[UserGroup] = None) -> int:
        if ug is not None:
            return len(self._preferences.get(ug.ug_id, ()))
        return sum(len(pairs) for pairs in self._preferences.values())

    def _peer_asns(self, peering_ids: Iterable[int]) -> FrozenSet[int]:
        peer_asn = self._peer_asn
        return frozenset(peer_asn[pid] for pid in peering_ids)

    def _winners_of(self, ug_id: int) -> Dict[int, _WinnerEntry]:
        """The UG's preference pairs grouped by winner (built on demand).

        Two classes of pair generalize differently, and the index keeps
        them apart so a prediction can tell which apply without a scan:

        * **within-AS pairs** (both peerings belong to one AS) encode that
          AS's exit policy, which is deterministic whenever both exits are
          advertised — always applicable;
        * **cross-AS pairs** encode the outcome of an AS-level race, which
          shifts with the competitor set (announcing to another AS changes
          intermediate propagation) — applicable only when the current
          competitor-ASN set matches the one observed.
        """
        index = self._winner_index.get(ug_id)
        if index is None:
            index = {}
            peer_asn = self._peer_asn
            for (winner, loser), context in self._preferences.get(ug_id, {}).items():
                entry = index.get(winner)
                if entry is None:
                    entry = index[winner] = _WinnerEntry()
                if peer_asn[winner] == peer_asn[loser]:
                    entry.same_as = True
                    entry.losers[loser] = None
                else:
                    entry.contexts.add(context)
                    entry.losers[loser] = context
            if index:  # nothing to keep for a UG without pairs
                self._winner_index[ug_id] = index
        return index

    # -- distances -----------------------------------------------------------

    @property
    def geometry(self) -> DistanceTable:
        """Great-circle distances from the catalog's UG metros to every PoP.

        Built on first use (one haversine per distinct metro × PoP pair);
        the batch latency/distance fill gathers from it, and
        :meth:`distance_km` reads it.
        """
        if self._geometry is None:
            self._geometry = DistanceTable(
                (ug.location for ug in self._catalog.user_groups),
                (pop.location for pop in self._deployment.pops),
            )
        return self._geometry

    def distance_km(self, ug: UserGroup, peering_id: int) -> float:
        """UG-to-ingress great-circle distance (cached)."""
        key = (ug.ug_id, peering_id)
        cached = self._distance_cache.get(key)
        if cached is None:
            cached = self.geometry.distance_km(
                ug.location, self._deployment.peering(peering_id).pop.location
            )
            self._distance_cache[key] = cached
        return cached

    def has_learned_state(self, ug_id: int) -> bool:
        """Whether any observation refined this UG's uniform assumption.

        ``False`` means :meth:`candidate_ingresses` reduces to pure
        reuse-distance pruning for this UG — the precondition for the
        evaluator's incremental prefix-scan fast path.
        """
        return ug_id in self._learned_ugs

    @property
    def learned_ug_ids(self) -> Set[int]:
        """Live read-only view of the UGs with learned state (do not mutate)."""
        return self._learned_ugs

    # -- candidate prediction -----------------------------------------------

    def candidate_ingresses(
        self, ug: UserGroup, advertised: FrozenSet[int]
    ) -> FrozenSet[int]:
        """Peering ids the model considers possible (and equally likely).

        Starts from the policy-compliant subset of the advertised peerings.
        Learned preferences apply first and *override* the reuse-distance
        heuristic: an ingress observed to win stays a candidate no matter how
        far away it is (the Miami-routed-through-Tokyo case is exactly what
        learning must be able to represent), while ingresses it beat are
        excluded.  The reuse-distance assumption then prunes only ingresses
        we have no observations about.  If everything would be excluded, the
        closest compliant ingress is kept (the UG must land somewhere).
        """
        return self._candidates(ug, self._catalog.compliant_subset(ug, advertised))

    def _candidates(self, ug: UserGroup, compliant: FrozenSet[int]) -> FrozenSet[int]:
        """Memoized prediction for an already policy-compliant set."""
        if not compliant:
            return frozenset()

        bucket = self._candidate_cache.get(ug.ug_id)
        if bucket is None:
            bucket = self._candidate_cache[ug.ug_id] = {}
        cached = bucket.get(compliant)
        if cached is not None:
            self._cand_stats.hits += 1
            return cached
        self._cand_stats.misses += 1
        result = self._predict_candidates(ug, compliant)
        bucket[compliant] = result
        return result

    def _predict_candidates(
        self, ug: UserGroup, compliant: FrozenSet[int]
    ) -> FrozenSet[int]:
        remembered = self._outcomes.get((ug.ug_id, compliant))
        if remembered is not None and remembered in compliant:
            return frozenset({remembered})

        # The float sums downstream run in set-iteration order, so the set
        # construction below (set(compliant), after_pref - losers, the kept
        # comprehension) is part of the bit-identity contract; only how the
        # applicable winners/losers are *found* is free to change.
        winners: Set[int] = set()
        after_pref = set(compliant)
        index = self._winners_of(ug.ug_id)
        if index:
            losers: Set[int] = set()
            current_asns: Optional[FrozenSet[int]] = None
            for winner in compliant:
                entry = index.get(winner)
                if entry is None:
                    continue
                if entry.contexts and current_asns is None:
                    current_asns = self._peer_asns(compliant)
                if not entry.same_as and current_asns not in entry.contexts:
                    continue  # only cross-AS pairs, none in this context
                winners.add(winner)
                by_loser = entry.losers
                for loser in compliant:
                    if loser in by_loser:
                        context = by_loser[loser]
                        if context is None or context == current_asns:
                            losers.add(loser)
            if winners:
                survivors = after_pref - losers
                if survivors:
                    after_pref = survivors

        closest = min(self.distance_km(ug, pid) for pid in after_pref)
        kept = {
            pid
            for pid in after_pref
            if pid in winners
            or self.distance_km(ug, pid) - closest <= self._d_reuse_km
        }

        if not kept:
            kept = {min(compliant, key=lambda pid: self.distance_km(ug, pid))}
        return frozenset(kept)

    def expected_latency_ms(
        self,
        ug: UserGroup,
        advertised: FrozenSet[int],
        latency_of: "LatencySource",
        *,
        compliant: Optional[FrozenSet[int]] = None,
    ) -> Optional[float]:
        """Eq. 2's inner expectation: mean latency over candidate ingresses.

        ``latency_of(ug, peering_id)`` supplies measured/estimated latency
        and may return ``None`` for unmeasurable ingresses, which are then
        skipped.  Returns ``None`` when nothing is measurable.  A caller
        already holding ``catalog.compliant_subset(ug, advertised)`` passes
        it as ``compliant`` to skip the second intersection.
        """
        if compliant is None:
            compliant = self._catalog.compliant_subset(ug, advertised)
        candidates = self._candidates(ug, compliant)
        total = 0.0
        count = 0
        for pid in candidates:
            latency = latency_of(ug, pid)
            if latency is None:
                continue
            total += latency
            count += 1
        if count == 0:
            return None
        return total / count

    # -- learning --------------------------------------------------------------

    def observe(
        self,
        ug: UserGroup,
        advertised: FrozenSet[int],
        actual_peering_id: int,
        stale: bool = False,
    ) -> int:
        """Incorporate one observed routing outcome.

        The UG was seen entering at ``actual_peering_id`` while ``advertised``
        was live, so the actual ingress dominates every other compliant
        advertised ingress for this UG.  Returns how many new preference
        pairs were learned.

        A ``stale`` observation describes the world as it *was* (the
        collector pipeline lagged), so it is folded in softly: it never
        writes the probability-1 outcome memory, never evicts a fresher
        contradicting pair, and only adds preference pairs nothing fresh
        disputes — the model widens rather than narrows on stale data.
        """
        compliant = self._catalog.compliant_subset(ug, advertised)
        if actual_peering_id not in advertised:
            raise ValueError(
                f"observed peering {actual_peering_id} was not advertised"
            )
        context = self._peer_asns(compliant)
        prefs = self._preferences.setdefault(ug.ug_id, {})
        # Beliefs about this UG are about to change: drop its memoized
        # candidate sets and bump its epoch so downstream caches follow.
        self._invalidate_ug(ug.ug_id)
        self._learned_ugs.add(ug.ug_id)
        learned = 0
        if stale:
            for pid in compliant:
                if pid == actual_peering_id:
                    continue
                pair = (actual_peering_id, pid)
                if pair in prefs or (pid, actual_peering_id) in prefs:
                    continue  # fresh (or equally stale) data already speaks
                prefs[pair] = context
                learned += 1
            self._stale_observation_count += 1
            return learned
        self._outcomes[(ug.ug_id, compliant)] = actual_peering_id
        for pid in compliant:
            if pid == actual_peering_id:
                continue
            pair = (actual_peering_id, pid)
            if pair not in prefs:
                learned += 1
            # Observation supersedes any older, contradicting pair and
            # refreshes the pair's competitor context.
            prefs.pop((pid, actual_peering_id), None)
            prefs[pair] = context
        self._observation_count += 1
        return learned

    def is_excluded_by_preference(
        self, ug: UserGroup, peering_id: int, advertised: FrozenSet[int]
    ) -> bool:
        """Whether learned preferences exclude ``peering_id`` in this set."""
        index = self._winners_of(ug.ug_id)
        current_asns: Optional[FrozenSet[int]] = None
        for winner in advertised:
            entry = index.get(winner)
            if (
                entry is None
                or winner == peering_id
                or peering_id not in entry.losers
            ):
                continue
            context = entry.losers[peering_id]
            if context is None:
                return True
            if current_asns is None:
                current_asns = self._peer_asns(
                    self._catalog.compliant_subset(ug, advertised)
                )
            if context == current_asns:
                return True
        return False

    def snapshot_preferences(self) -> Dict[str, object]:
        """Full learned state as a versioned dict (format ``SNAPSHOT_VERSION``).

        Carries the preference pairs *and* the ``_outcomes`` probability-1
        memory plus observation counters — earlier formats dropped the
        outcomes, so persisting learning across runs silently lost the
        strongest (deterministic) predictions.  The keys:

        * ``"version"`` — the snapshot format, currently 2;
        * ``"preferences"`` — ``{ug_id: {(winner, loser): context}}``;
        * ``"outcomes"`` — ``{(ug_id, compliant set): observed ingress}``;
        * ``"observation_count"`` / ``"stale_observation_count"``.
        """
        return {
            "version": SNAPSHOT_VERSION,
            "preferences": {
                ug_id: dict(pairs) for ug_id, pairs in self._preferences.items()
            },
            "outcomes": dict(self._outcomes),
            "observation_count": self._observation_count,
            "stale_observation_count": self._stale_observation_count,
        }

    def restore_preferences(self, snapshot: Mapping) -> None:
        """Load a previously-saved state (replaces the current).

        Lets an operator persist learning across orchestrator runs — the
        paper's configurations "need not change often" (§5.1.3), so the
        expensive part worth keeping is the learned routing model.

        Accepts both the current versioned dict (see
        :meth:`snapshot_preferences`) and the legacy preferences-only
        mapping ``{ug_id: {(winner, loser): context}}``; legacy snapshots
        restore with empty outcome memory and zeroed counters (they never
        carried either).
        """
        if "version" in snapshot:
            version = snapshot["version"]
            if version != SNAPSHOT_VERSION:
                raise ValueError(f"unsupported snapshot version {version!r}")
            preferences = snapshot["preferences"]
            outcomes = snapshot.get("outcomes", {})
            observation_count = int(snapshot.get("observation_count", 0))
            stale_count = int(snapshot.get("stale_observation_count", 0))
        else:  # legacy: bare {ug_id: pairs} mapping
            preferences = snapshot
            outcomes = {}
            observation_count = 0
            stale_count = 0
        self._preferences = {
            int(ug_id): {
                (int(w), int(l)): frozenset(int(a) for a in context)
                for (w, l), context in pairs.items()
            }
            for ug_id, pairs in preferences.items()
        }
        self._outcomes = {
            (int(ug_id), frozenset(int(p) for p in compliant)): int(actual)
            for (ug_id, compliant), actual in outcomes.items()
        }
        self._observation_count = observation_count
        self._stale_observation_count = stale_count
        self._learned_ugs = {
            ug_id for ug_id, pairs in self._preferences.items() if pairs
        } | {ug_id for (ug_id, _compliant) in self._outcomes}
        # Every UG's beliefs may have changed wholesale.
        self._candidate_cache.clear()
        self._winner_index.clear()
        self._global_epoch += 1
        self._cand_stats.invalidations += 1


class LatencySource:
    """Protocol-ish callable: (UserGroup, peering_id) -> Optional[float]."""

    def __call__(self, ug: UserGroup, peering_id: int) -> Optional[float]:
        raise NotImplementedError
