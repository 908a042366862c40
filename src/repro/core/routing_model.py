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

from itertools import compress
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.telemetry import METRICS
from repro.topology.cloud import CloudDeployment
from repro.topology.geo import DistanceTable
from repro.usergroups.ingresses import IngressCatalog
from repro.usergroups.usergroup import UserGroup

#: Paper's operating point for the minimum reuse distance.
DEFAULT_D_REUSE_KM = 3000.0

#: Current on-disk/in-memory snapshot format (see :meth:`snapshot_preferences`).
SNAPSHOT_VERSION = 2


#: Closes every sorted key array of a :class:`DominanceTable`: no query
#: key reaches it, so a lookup never runs off the end.
_SENTINEL = np.iinfo(np.int64).max


def _member(sorted_keys: "np.ndarray", keys: "np.ndarray") -> Tuple["np.ndarray", "np.ndarray"]:
    """Whether each of ``keys`` occurs in ``sorted_keys`` (which ends with
    ``_SENTINEL``), and the index to read its payload at."""
    idx = np.searchsorted(sorted_keys, keys)
    return sorted_keys[idx] == keys, idx


class DominanceTable:
    """Learned preferences of a list of UGs, compiled for Eq. 2 in arrays.

    Each UG is a *slot*.  Peering ids are below ``k``, and ``pad = k - 1``
    is no peering's id, so it pads candidate rows.  The tables scale with
    the learned pairs, never with candidates squared:

    * ``pair_keys`` — every preference pair as ``(slot * k + winner) * k +
      loser``, ascending, with ``pair_ctx`` the pair's context: ``-1`` for
      a same-AS pair (an AS's exit policy, so it always applies), else the
      index of its competitor-ASN context among the slot's ``contexts``;
    * ``win_keys`` — each winner once per way it can apply, as ``(slot * k
      + winner) * mc + 1 + context`` (context ``-1``: it has a same-AS
      pair), ascending;
    * ``contexts`` — ``[slot, context, word]`` peer-ASN bitsets
      (``uint64`` words; peering ``p``'s ASN is bit ``pid_bit[p]`` of word
      ``pid_word[p]``), zero-padded.  A query's context is found by exact
      word compare, never by hashing;
    * outcome memory — entry ``e`` is slot ``out_slot[e]``'s compliant set
      ``out_members[out_start[e]:out_start[e + 1]]`` (ascending), observed
      to enter at ``out_winner[e]``.  Only entries whose winner is in the
      set are kept; the others can never apply.

    Both key arrays end with ``_SENTINEL`` (and ``pair_ctx`` with a dummy).
    """

    __slots__ = (
        "k", "pad", "pid_word", "pid_bit", "pair_keys", "pair_ctx", "win_keys",
        "mc", "contexts", "out_slot", "out_start", "out_members", "out_winner",
    )

    def __init__(self, k, pid_word, pid_bit, pair_keys, pair_ctx, win_keys, mc,
                 contexts, out_slot, out_start, out_members, out_winner) -> None:
        self.k = k
        self.pad = k - 1
        self.pid_word = pid_word
        self.pid_bit = pid_bit
        self.pair_keys = pair_keys
        self.pair_ctx = pair_ctx
        self.win_keys = win_keys
        self.mc = mc
        self.contexts = contexts
        self.out_slot = out_slot
        self.out_start = out_start
        self.out_members = out_members
        self.out_winner = out_winner

    @property
    def n_outcomes(self) -> int:
        return len(self.out_winner)

    @classmethod
    def stack(cls, tables: Sequence["DominanceTable"]) -> "DominanceTable":
        """One table whose slot ``i`` is the single-slot ``tables[i]``."""
        first = tables[0]
        k = first.k
        mc = 1 + max(t.contexts.shape[1] for t in tables)
        contexts = np.zeros(
            (len(tables), mc - 1, first.contexts.shape[2]), dtype=np.uint64
        )
        pair_keys, pair_ctx, win_keys = [], [], []
        out_slot, out_size, out_members, out_winner = [], [], [], []
        for slot, t in enumerate(tables):
            contexts[slot, : t.contexts.shape[1]] = t.contexts[0]
            pair_keys.append(t.pair_keys[:-1] + slot * k * k)
            pair_ctx.append(t.pair_ctx[:-1])
            keys = t.win_keys[:-1]
            win_keys.append((keys // t.mc + slot * k) * mc + keys % t.mc)
            out_slot.append(np.full(t.n_outcomes, slot, dtype=np.int64))
            out_size.append(np.diff(t.out_start))
            out_members.append(t.out_members)
            out_winner.append(t.out_winner)
        out_start = np.zeros(1 + sum(t.n_outcomes for t in tables), dtype=np.int64)
        np.cumsum(np.concatenate(out_size), out=out_start[1:])
        end = np.array([_SENTINEL])
        return cls(
            k, first.pid_word, first.pid_bit,
            np.concatenate(pair_keys + [end]), np.concatenate(pair_ctx + [[0]]),
            np.concatenate(win_keys + [end]), mc, contexts,
            np.concatenate(out_slot), out_start, np.concatenate(out_members),
            np.concatenate(out_winner),
        )

    def asn_bits(self, cand: "np.ndarray") -> "np.ndarray":
        """Peer-ASN bitset of each row of ``cand`` (the pad sets no bit)."""
        bits = np.zeros((len(cand), self.contexts.shape[2]), dtype=np.uint64)
        rows = np.broadcast_to(np.arange(len(cand))[:, None], cand.shape)
        np.bitwise_or.at(bits, (rows, self.pid_word[cand]), self.pid_bit[cand])
        return bits

    def kept(
        self,
        slots: "np.ndarray",
        cand: "np.ndarray",
        asn_bits: "np.ndarray",
        dist: "np.ndarray",
        d_reuse_km: float,
    ) -> "np.ndarray":
        """Eq. 2's candidate rule, one query per row; outcome memory aside.

        Row ``i`` asks about slot ``slots[i]`` with the compliant set
        ``cand[i]`` (ascending, ``pad`` beyond its last peering), whose peer
        ASNs are the bitset ``asn_bits[i]`` and distances ``dist[i]``.
        Winners are the members with an applicable pair (a same-AS one, or
        a cross-AS one observed under exactly this competitor-ASN set) and
        losers the members such a pair from a member beats.  Learned
        preferences override the reuse-distance heuristic: losers go
        (unless that leaves nothing), winners stay however far away, and
        the rest is kept within ``d_reuse_km`` of the closest survivor.
        Returns the kept mask.
        """
        k = self.k
        valid = cand != self.pad
        base = slots[:, None] * k + cand
        context = np.full(len(slots), -1)
        if self.contexts.shape[1]:
            same = (self.contexts[slots] == asn_bits[:, None, :]).all(axis=2)
            context = np.where(same.any(axis=1), same.argmax(axis=1), -1)
        key = base * self.mc
        probe = np.stack([key, key + (context + 1)[:, None]], axis=2)
        winner = _member(self.win_keys, probe)[0].any(axis=2)
        found, idx = _member(self.pair_keys, base[:, :, None] * k + cand[:, None, :])
        pair_ctx = self.pair_ctx[idx]
        beaten = (found & ((pair_ctx < 0) | (pair_ctx == context[:, None, None]))).any(axis=1)
        survivors = valid & ~beaten
        empty = ~survivors.any(axis=1)
        survivors[empty] = valid[empty]
        closest = np.where(survivors, dist, np.inf).min(axis=1)
        return survivors & (winner | (dist - closest[:, None] <= d_reuse_km))


class RoutingModel:
    """Beliefs about how UGs route, refined by observed advertisements."""

    def __init__(
        self,
        catalog: IngressCatalog,
        d_reuse_km: float = DEFAULT_D_REUSE_KM,
    ) -> None:
        if not d_reuse_km >= 0:  # also rejects nan
            raise ValueError(f"d_reuse_km must be non-negative, not {d_reuse_km!r}")
        self._catalog = catalog
        self._deployment: CloudDeployment = catalog.topology.deployment
        self._d_reuse_km = d_reuse_km
        #: Per UG: (winner, loser) peering-id pairs learned from observations,
        #: each scoped to the peer-ASN *context* it was observed under.  The
        #: AS-level race depends on which ASes compete (announcing to a new
        #: AS can change intermediate propagation), so a cross-AS preference
        #: is only trusted when the current competitor set equals the
        #: observed one — generalizing further caused configurations that
        #: looked perfect and routed terribly.
        self._preferences: Dict[int, Dict[Tuple[int, int], FrozenSet[int]]] = {}
        #: Exact outcome memory: ug_id -> {compliant peering-id set -> the
        #: ingress actually observed}.  Routing is deterministic per set, so
        #: a remembered outcome is a probability-1 prediction.
        self._outcomes: Dict[int, Dict[FrozenSet[int], int]] = {}
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
        #: pruning, which the solve's per-row scan state evaluates.
        self._learned_ugs: Set[int] = set()
        #: Flat peering id -> peer ASN map (the deployment is fixed for the
        #: model's lifetime, like the catalog built from it).
        self._peer_asn: Dict[int, int] = {
            p.peering_id: p.peer_asn for p in self._deployment.peerings
        }
        #: The compiled-table encoding of the deployment: peering ids are
        #: below ``_k`` (``_k - 1`` pads), and each peering's peer ASN is one
        #: bit of a ``uint64`` word array: ``_pid_asn``/``_pid_word``/
        #: ``_pid_bit`` by peering id (the pad has ASN -1 and sets no bit).
        self._k = max(self._peer_asn, default=-1) + 2
        asns = sorted(set(self._peer_asn.values()))
        self._asn_bit: Dict[int, int] = {asn: i for i, asn in enumerate(asns)}
        self._n_words = max(1, -(-len(asns) // 64))
        self._pid_asn = np.full(self._k, -1, dtype=np.int64)
        self._pid_word = np.zeros(self._k, dtype=np.intp)
        self._pid_bit = np.zeros(self._k, dtype=np.uint64)
        for pid, asn in self._peer_asn.items():
            bit = self._asn_bit[asn]
            self._pid_asn[pid] = asn
            self._pid_word[pid] = bit >> 6
            self._pid_bit[pid] = np.uint64(1 << (bit & 63))
        #: Per-UG compiled :class:`DominanceTable` (one slot), built on
        #: demand and dropped with ``_candidate_cache``.
        self._tables: Dict[int, DominanceTable] = {}
        #: Competitor-ASN context -> its bitset words (contexts repeat
        #: across a UG's pairs and across UGs observed together).
        self._context_words: Dict[FrozenSet[int], List[int]] = {}
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
        self._tables.pop(ug_id, None)
        self._ug_epoch[ug_id] = self._ug_epoch.get(ug_id, 0) + 1
        self._cand_stats.invalidations += 1

    def preference_count(self, ug: Optional[UserGroup] = None) -> int:
        if ug is not None:
            return len(self._preferences.get(ug.ug_id, ()))
        return sum(len(pairs) for pairs in self._preferences.values())

    def _peer_asns(self, peering_ids: Iterable[int]) -> FrozenSet[int]:
        peer_asn = self._peer_asn
        return frozenset(peer_asn[pid] for pid in peering_ids)

    # -- compiled learned state ------------------------------------------------

    def _context_bits(self, context: FrozenSet[int]) -> List[int]:
        words = self._context_words.get(context)
        if words is None:
            words = [0] * self._n_words
            for asn in context:
                bit = self._asn_bit[asn]
                words[bit >> 6] |= 1 << (bit & 63)
            self._context_words[context] = words
        return words

    def _table_of(self, ug_id: int) -> DominanceTable:
        """The UG's learned state compiled into a one-slot table.

        Two classes of pair generalize differently: a **same-AS** pair
        encodes that AS's exit policy, deterministic whenever both exits
        are advertised, so it always applies; a **cross-AS** pair encodes
        the outcome of an AS-level race, which shifts with the competitor
        set, so it applies only under the competitor-ASN context it was
        observed in.  An unlearned UG compiles to the empty table.
        """
        table = self._tables.get(ug_id)
        if table is not None:
            return table
        k = self._k
        prefs = self._preferences.get(ug_id, {})
        pairs = np.array(list(prefs), dtype=np.int64).reshape(-1, 2)
        winner, loser = pairs[:, 0], pairs[:, 1]
        same_as = self._pid_asn[winner] == self._pid_asn[loser]
        local: Dict[FrozenSet[int], int] = {}
        pair_ctx = np.array(
            [
                -1 if same else local.setdefault(context, len(local))
                for same, context in zip(same_as.tolist(), prefs.values())
            ],
            dtype=np.int64,
        )
        contexts = np.array(
            [self._context_bits(context) for context in local], dtype=np.uint64
        ).reshape(1, len(local), self._n_words)
        keys = winner * k + loser
        order = np.argsort(keys)
        mc = len(local) + 1
        end = np.array([_SENTINEL])
        outcomes = [
            (sorted(compliant), actual)
            for compliant, actual in self._outcomes.get(ug_id, {}).items()
            if actual in compliant
        ]
        out_start = np.zeros(len(outcomes) + 1, dtype=np.int64)
        np.cumsum([len(members) for members, _ in outcomes], out=out_start[1:])
        out_members = [pid for members, _ in outcomes for pid in members]
        table = DominanceTable(
            k,
            self._pid_word,
            self._pid_bit,
            np.concatenate([keys[order], end]),
            np.concatenate([pair_ctx[order], [0]]),
            np.concatenate([np.unique(winner * mc + pair_ctx + 1), end]),
            mc,
            contexts,
            np.zeros(len(outcomes), dtype=np.int64),
            out_start,
            np.array(out_members, dtype=np.int64),
            np.array([actual for _, actual in outcomes], dtype=np.int64),
        )
        self._tables[ug_id] = table
        return table

    def dominance_table(self, ug_ids: Sequence[int]) -> DominanceTable:
        """The learned state of ``ug_ids`` as one table, slot ``i`` for
        ``ug_ids[i]`` (each UG compiled once per change of its beliefs)."""
        return DominanceTable.stack([self._table_of(ug_id) for ug_id in ug_ids])

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
        remembered = self._outcomes.get(ug.ug_id, {}).get(compliant)
        if remembered is not None and remembered in compliant:
            return frozenset({remembered})
        cand = sorted(compliant)
        dist = [self.distance_km(ug, pid) for pid in cand]
        if not self._preferences.get(ug.ug_id):
            # The empty table's answer, without the arrays: pure
            # reuse-distance pruning.
            closest = min(dist)
            limit = self._d_reuse_km
            return frozenset(compress(cand, [d - closest <= limit for d in dist]))
        row = np.array([cand], dtype=np.int64)
        table = self._table_of(ug.ug_id)
        kept = table.kept(
            np.zeros(1, dtype=np.int64), row, table.asn_bits(row),
            np.array([dist]), self._d_reuse_km,
        )
        return frozenset(compress(cand, kept[0].tolist()))

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

        The sum runs in ascending peering id, so the float result depends
        on the candidate set only, never on set-iteration order.
        """
        if compliant is None:
            compliant = self._catalog.compliant_subset(ug, advertised)
        candidates = self._candidates(ug, compliant)
        total = 0.0
        count = 0
        for pid in sorted(candidates):
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
        self._outcomes.setdefault(ug.ug_id, {})[compliant] = actual_peering_id
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
        """Whether learned preferences exclude ``peering_id`` in this set:
        an advertised winner beats it by a same-AS pair, or by a cross-AS
        pair observed under the set's competitor-ASN context."""
        prefs = self._preferences.get(ug.ug_id)
        if not prefs:
            return False
        peer_asn = self._peer_asn
        current_asns: Optional[FrozenSet[int]] = None
        for winner in advertised:
            context = prefs.get((winner, peering_id))
            if context is None or winner == peering_id:
                continue
            if peer_asn[winner] == peer_asn[peering_id]:
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

        Carries the preference pairs *and* the probability-1 outcome
        memory plus observation counters.  The keys:

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
            "outcomes": {
                (ug_id, compliant): actual
                for ug_id, memory in self._outcomes.items()
                for compliant, actual in memory.items()
            },
            "observation_count": self._observation_count,
            "stale_observation_count": self._stale_observation_count,
        }

    def restore_preferences(self, snapshot: Mapping) -> None:
        """Load a previously-saved state (replaces the current).

        Lets an operator persist learning across orchestrator runs — the
        paper's configurations "need not change often" (§5.1.3), so the
        expensive part worth keeping is the learned routing model.

        Only the versioned dict of :meth:`snapshot_preferences` is accepted,
        and all of it is checked before any state is replaced: an unknown
        UG, peering or peer ASN, a self-pair, an outcome set outside the
        UG's compliant ingresses, a negative counter or a malformed entry
        raises ``ValueError`` and leaves the model as it was.
        """
        if not isinstance(snapshot, Mapping) or "version" not in snapshot:
            raise ValueError(
                "not a versioned routing-model snapshot (the bare "
                "{ug_id: pairs} mapping is no longer accepted)"
            )
        version = snapshot["version"]
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version!r}")
        try:
            preferences, outcomes, counts = self._validated(snapshot)
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed routing-model snapshot: {exc!r}") from exc
        self._preferences = preferences
        self._outcomes = outcomes
        self._observation_count, self._stale_observation_count = counts
        self._learned_ugs = {
            ug_id for ug_id, pairs in preferences.items() if pairs
        } | set(outcomes)
        # Every UG's beliefs may have changed wholesale.
        self._candidate_cache.clear()
        self._tables.clear()
        self._context_words.clear()
        self._global_epoch += 1
        self._cand_stats.invalidations += 1

    def _validated(self, snapshot: Mapping):
        """``(preferences, outcomes, counters)`` of a snapshot, in this
        model's internal form; ``ValueError`` for anything that names what
        the catalog does not have."""
        ugs = {ug.ug_id: ug for ug in self._catalog.user_groups}
        peer_asn = self._peer_asn

        def ug_id_of(value) -> int:
            ug_id = int(value)
            if ug_id not in ugs:
                raise ValueError(f"unknown UG id {value!r}")
            return ug_id

        def peering_of(value) -> int:
            peering_id = int(value)
            if peering_id not in peer_asn:
                raise ValueError(f"unknown peering id {value!r}")
            return peering_id

        preferences: Dict[int, Dict[Tuple[int, int], FrozenSet[int]]] = {}
        for ug_key, pairs in snapshot["preferences"].items():
            learned = preferences.setdefault(ug_id_of(ug_key), {})
            for (w, l), context in pairs.items():
                winner, loser = peering_of(w), peering_of(l)
                if winner == loser:
                    raise ValueError(f"UG {ug_key!r}: self-pair ({w!r}, {l!r})")
                asns = frozenset(int(asn) for asn in context)
                unknown = asns - self._asn_bit.keys()
                if unknown:
                    raise ValueError(
                        f"UG {ug_key!r}: context names ASNs {sorted(unknown)} "
                        f"the deployment does not peer with"
                    )
                learned[(winner, loser)] = asns
        outcomes: Dict[int, Dict[FrozenSet[int], int]] = {}
        for (ug_key, compliant), actual in snapshot.get("outcomes", {}).items():
            ug_id = ug_id_of(ug_key)
            members = frozenset(peering_of(pid) for pid in compliant)
            if not members <= self._catalog.ingress_ids(ugs[ug_id]):
                raise ValueError(
                    f"UG {ug_key!r}: outcome set {sorted(members)} is not "
                    f"policy-compliant for it"
                )
            outcomes.setdefault(ug_id, {})[members] = peering_of(actual)
        counts = tuple(
            int(snapshot.get(key, 0))
            for key in ("observation_count", "stale_observation_count")
        )
        if min(counts) < 0:
            raise ValueError(f"negative observation counters {counts}")
        return preferences, outcomes, counts


class LatencySource:
    """Protocol-ish callable: (UserGroup, peering_id) -> Optional[float]."""

    def __call__(self, ug: UserGroup, peering_id: int) -> Optional[float]:
        raise NotImplementedError
