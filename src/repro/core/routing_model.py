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

The model holds the beliefs and compiles them into a
:class:`DominanceTable`; Eq. 2 itself is evaluated in arrays over the
evaluator's slot store, by :meth:`repro.core.benefit.BenefitEvaluator.
expected_latencies` and by the solve's row engine (:mod:`repro.core.rows`).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.topology.cloud import CloudDeployment
from repro.topology.geo import DistanceTable
from repro.usergroups.ingresses import IngressCatalog
from repro.usergroups.usergroup import UserGroup

#: Paper's operating point for the minimum reuse distance.
DEFAULT_D_REUSE_KM = 3000.0

#: Current on-disk/in-memory snapshot format (see :meth:`snapshot_preferences`).
SNAPSHOT_VERSION = 2


#: Buckets of each slot's outcome memory: a remembered set lies in the
#: bucket of its local indices' sum, modulo this.
_OUTCOME_BUCKETS = 64


class DominanceTable:
    """Learned preferences of a list of UGs, compiled for Eq. 2 in arrays.

    Each UG is a *slot*.  Peering ids are below ``k``, and ``pad = k - 1``
    is no peering's id, so it pads candidate rows.  Each slot numbers the
    peerings its own pairs and outcome entries name ``1`` to ``L``; every
    other peering, and the pad, is its local ``0``.  With ``w`` one more
    than the largest ``L`` of any slot, every array is dense in local
    indices, so a query is a handful of gathers and no search:

    * ``loc`` — ``[slot, peering]`` the local index;
    * ``code`` — ``[slot, winner, loser]`` (local indices) ``0`` for no
      pair, ``1`` for a same-AS pair (an AS's exit policy, so it always
      applies), ``2 + c`` for a cross-AS pair observed under the slot's
      competitor-ASN context ``c``; in the smallest unsigned dtype that
      holds ``mc + 1``;
    * ``win`` — ``[slot, peering, 1 + c]`` whether the peering wins a pair
      that applies under context ``c``, where ``c = -1`` (no context
      matches) leaves its same-AS pairs only; ``mc`` is ``win``'s last
      extent;
    * ``contexts`` — ``[slot, context, word]`` peer-ASN bitsets (``uint64``
      words; peering ``p``'s ASN is bit ``pid_bit[p]`` of word
      ``pid_word[p]``), zero-padded to ``mc - 1``.  A query's context is
      found by exact word compare, never by hashing (no row with a member
      matches a padding context);
    * outcome memory — entry ``e`` is a compliant set observed to enter at
      ``out_winner[e]``, with ``out_member[e]`` its local indices as a mask
      over ``w`` and ``out_sum[e]`` their sum.  Slot ``s``'s sets whose sum
      is ``b`` modulo ``_OUTCOME_BUCKETS`` are entries ``out_start[s, b]``
      to ``out_start[s, b + 1]``.  Every member's local index is positive,
      so a row is a remembered set exactly when its members are all in the
      set and sum to the set's sum.  A set that does not hold its winner
      never applies: its sum is ``-1``.

    ``S`` slots take ``S * (k + w * (w + mc))`` bytes, plus their contexts
    and outcome entries.
    """

    __slots__ = (
        "k", "pad", "pid_word", "pid_bit", "loc", "code", "win", "contexts",
        "out_start", "out_sum", "out_member", "out_winner",
    )

    def __init__(self, k, pid_word, pid_bit, loc, code, win, contexts,
                 out_start, out_sum, out_member, out_winner) -> None:
        self.k = k
        self.pad = k - 1
        self.pid_word = pid_word
        self.pid_bit = pid_bit
        self.loc = loc
        self.code = code
        self.win = win
        self.contexts = contexts
        self.out_start = out_start
        self.out_sum = out_sum
        self.out_member = out_member
        self.out_winner = out_winner

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
        """Eq. 2's candidate rule, one query per row.

        Row ``i`` asks about slot ``slots[i]`` with the compliant set
        ``cand[i]`` (ascending, ``pad`` beyond its last peering), whose peer
        ASNs are the bitset ``asn_bits[i]`` and distances ``dist[i]``.  A
        remembered set keeps exactly the ingress it was observed to enter
        at.  Otherwise winners are the members with an applicable pair (a
        same-AS one, or a cross-AS one observed under exactly this
        competitor-ASN set) and losers the members such a pair from a
        member beats.  Learned preferences override the reuse-distance
        heuristic: losers go (unless that leaves nothing), winners stay
        however far away, and the rest is kept within ``d_reuse_km`` of the
        closest survivor.  Returns the kept mask.
        """
        valid = cand != self.pad
        context = np.full(len(slots), -1)
        if self.contexts.shape[1]:
            same = (self.contexts[slots] == asn_bits[:, None, :]).all(axis=2)
            context = np.where(same.any(axis=1), same.argmax(axis=1), -1)
        _, w, mc = self.win.shape
        local = self.loc.take(slots[:, None] * self.k + cand)
        node = slots[:, None] * w + local
        winner = self.win.take(node * mc + (context + 1)[:, None])
        code = self.code.take(node[:, :, None] * w + local[:, None, :])
        applies = (context + 2).astype(code.dtype)[:, None, None]
        beaten = ((code == 1) | (code == applies)).any(axis=1)
        survivors = valid & ~beaten
        empty = ~survivors.any(axis=1)
        survivors[empty] = valid[empty]
        closest = np.where(survivors, dist, np.inf).min(axis=1)
        kept = survivors & (winner | (dist - closest[:, None] <= d_reuse_km))
        # Outcome memory: the sets of the row's bucket with the row's sum,
        # tested for holding every member (an unnamed one's local 0 is in
        # none; the pad's is skipped).
        total = local.sum(axis=1, dtype=np.intp)
        at = slots * (_OUTCOME_BUCKETS + 1) + total % _OUTCOME_BUCKETS
        lo = self.out_start.take(at)
        count = self.out_start.take(at + 1) - lo
        if count.any():
            row = np.repeat(np.arange(len(slots)), count)
            entry = np.arange(len(row)) + np.repeat(lo - np.cumsum(count) + count, count)
            match = self.out_sum[entry] == total[row]
            row, entry = row[match], entry[match]
            member = self.out_member.take(entry[:, None] * w + local[row])
            hit = (member | ~valid[row]).all(axis=1)
            row = row[hit]
            kept[row] = cand[row] == self.out_winner[entry[hit]][:, None]
        return kept


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
        self._geometry: Optional[DistanceTable] = None
        self._observation_count = 0
        self._stale_observation_count = 0
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
        #: Per UG: the compiled :class:`DominanceTable` holding it and its
        #: slot there, built on demand and dropped whenever the UG's
        #: beliefs change.  UGs compiled together share one table.
        self._tables: Dict[int, Tuple[DominanceTable, int]] = {}

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

    def preference_count(self, ug: Optional[UserGroup] = None) -> int:
        if ug is not None:
            return len(self._preferences.get(ug.ug_id, ()))
        return sum(len(pairs) for pairs in self._preferences.values())

    def _peer_asns(self, peering_ids: Iterable[int]) -> FrozenSet[int]:
        peer_asn = self._peer_asn
        return frozenset(peer_asn[pid] for pid in peering_ids)

    # -- compiled learned state ------------------------------------------------

    def _context_bits(self, context: FrozenSet[int]) -> List[int]:
        """The peer-ASN bitset words of a competitor-ASN context."""
        words = [0] * self._n_words
        for asn in context:
            bit = self._asn_bit[asn]
            words[bit >> 6] |= 1 << (bit & 63)
        return words

    def _compile(self, ug_ids: Sequence[int]) -> DominanceTable:
        """The learned state of ``ug_ids`` compiled in one array pass over
        all of their pairs and outcome sets, slot ``i`` for ``ug_ids[i]``.

        Two classes of pair generalize differently: a **same-AS** pair
        encodes that AS's exit policy, deterministic whenever both exits
        are advertised, so it always applies; a **cross-AS** pair encodes
        the outcome of an AS-level race, which shifts with the competitor
        set, so it applies only under the competitor-ASN context it was
        observed in.  An unlearned UG compiles to an empty slot.  Each
        UG's slot is cached until its beliefs change.
        """
        n, k = len(ug_ids), self._k
        prefs = [self._preferences.get(ug_id, {}) for ug_id in ug_ids]
        n_pairs = np.fromiter(map(len, prefs), dtype=np.intp, count=n)
        pairs = np.fromiter(
            chain.from_iterable(chain.from_iterable(prefs)),
            dtype=np.intp,
            count=2 * int(n_pairs.sum()),
        ).reshape(-1, 2)
        pair_slot = np.repeat(np.arange(n), n_pairs)
        memories = [self._outcomes.get(ug_id, {}) for ug_id in ug_ids]
        sets = list(chain.from_iterable(memories))
        winners = np.fromiter(
            chain.from_iterable(m.values() for m in memories), dtype=np.intp, count=len(sets)
        )
        sizes = np.fromiter(map(len, sets), dtype=np.intp, count=len(sets))
        members = np.fromiter(chain.from_iterable(sets), dtype=np.intp, count=int(sizes.sum()))
        member_entry = np.repeat(np.arange(len(sets)), sizes)
        entry_slot = np.repeat(np.arange(n), list(map(len, memories)))
        # Local indices: each slot numbers the peerings it names 1..L.
        pair_keys = (pair_slot * k)[:, None] + pairs
        member_keys = entry_slot[member_entry] * k + members
        named = np.zeros((n, k), dtype=bool)
        named.reshape(-1)[pair_keys] = True
        named.reshape(-1)[member_keys] = True
        count = np.cumsum(named, axis=1)
        w = int(count[:, -1].max(initial=0)) + 1
        loc = np.where(named, count, 0).astype(np.min_scalar_type(w - 1))
        winner, loser = loc.reshape(-1)[pair_keys].T
        # Cross-AS pairs' contexts, numbered per slot.
        contexts = list(chain.from_iterable(pref.values() for pref in prefs))
        distinct = list(dict.fromkeys(contexts))
        ids = dict(zip(distinct, range(len(distinct))))
        n_ids = len(distinct)
        context_id = np.fromiter(map(ids.__getitem__, contexts), dtype=np.intp, count=len(pairs))
        cross = self._pid_asn[pairs[:, 0]] != self._pid_asn[pairs[:, 1]]
        slot_context, context_of = np.unique(
            pair_slot[cross] * n_ids + context_id[cross], return_inverse=True
        )
        context_slot = slot_context // n_ids
        number = np.arange(len(slot_context)) - np.searchsorted(context_slot, context_slot)
        pair_ctx = np.full(len(pairs), -1, dtype=np.intp)
        pair_ctx[cross] = number[context_of]
        mc = int(np.bincount(context_slot, minlength=n).max(initial=0)) + 1
        code = np.zeros((n, w, w), dtype=np.min_scalar_type(mc + 1))
        code[pair_slot, winner, loser] = pair_ctx + 2
        win = np.zeros((n, w, mc), dtype=bool)
        win[pair_slot, winner, pair_ctx + 1] = True
        win |= win[:, :, :1]  # a same-AS winner wins under every context
        words = np.zeros((n, mc - 1, self._n_words), dtype=np.uint64)
        bits = np.array(list(map(self._context_bits, distinct)), dtype=np.uint64)
        words[context_slot, number] = bits.reshape(-1, self._n_words)[slot_context % n_ids]
        # Outcome memory, bucketed per slot by its local-index sum.
        member_local = loc.reshape(-1)[member_keys]
        out_member = np.zeros((len(sets), w), dtype=bool)
        out_member[member_entry, member_local] = True
        holds = np.zeros(len(sets), dtype=bool)
        holds[member_entry[members == winners[member_entry]]] = True
        out_sum = np.bincount(member_entry, member_local, len(sets)).astype(np.intp)
        out_sum[~holds] = -1
        bucket = entry_slot * _OUTCOME_BUCKETS + out_sum % _OUTCOME_BUCKETS
        order = np.argsort(bucket, kind="stable")
        start = np.zeros(n * _OUTCOME_BUCKETS + 1, dtype=np.intp)
        np.cumsum(np.bincount(bucket, minlength=n * _OUTCOME_BUCKETS), out=start[1:])
        table = DominanceTable(
            k,
            self._pid_word,
            self._pid_bit,
            loc,
            code,
            win,
            words,
            start[np.arange(n)[:, None] * _OUTCOME_BUCKETS + np.arange(_OUTCOME_BUCKETS + 1)],
            out_sum[order],
            out_member[order],
            winners[order],
        )
        self._tables.update((ug_id, (table, slot)) for slot, ug_id in enumerate(ug_ids))
        return table

    def dominance_table(self, ug_ids: Sequence[int]) -> DominanceTable:
        """The learned state of ``ug_ids`` as one table, slot ``i`` for
        ``ug_ids[i]``: the table they were last compiled into while none of
        their beliefs changed, else all of them compiled anew."""
        held = self._tables.get(ug_ids[0]) if len(ug_ids) else None
        if held is not None and len(held[0].loc) == len(ug_ids):
            table = held[0]
            if all(
                self._tables.get(ug_id) == (table, slot) for slot, ug_id in enumerate(ug_ids)
            ):
                return table
        return self._compile(ug_ids)

    # -- distances -----------------------------------------------------------

    @property
    def geometry(self) -> DistanceTable:
        """Great-circle distances from the catalog's UG metros to every PoP.

        Built on first use (one haversine per distinct metro × PoP pair);
        the batch latency/distance fill gathers from it.
        """
        if self._geometry is None:
            self._geometry = DistanceTable(
                (ug.location for ug in self._catalog.user_groups),
                (pop.location for pop in self._deployment.pops),
            )
        return self._geometry

    @property
    def learned_ug_ids(self) -> Set[int]:
        """Live read-only view of the UGs with learned state (do not mutate)."""
        return self._learned_ugs

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

        An ``actual_peering_id`` the deployment does not have raises
        ``ValueError`` before any state changes, as a snapshot naming it
        would on restore.
        """
        self._peering_of(actual_peering_id)
        compliant = self._catalog.compliant_subset(ug, advertised)
        if actual_peering_id not in advertised:
            raise ValueError(
                f"observed peering {actual_peering_id} was not advertised"
            )
        context = self._peer_asns(compliant)
        prefs = self._preferences.setdefault(ug.ug_id, {})
        # Beliefs about this UG are about to change: drop its compiled table.
        self._tables.pop(ug.ug_id, None)
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
        self._tables.clear()

    def _peering_of(self, value) -> int:
        """``value`` as a peering id of the deployment; ``ValueError`` for
        one it does not have."""
        peering_id = int(value)
        if peering_id not in self._peer_asn:
            raise ValueError(f"unknown peering id {value!r}")
        return peering_id

    def _validated(self, snapshot: Mapping):
        """``(preferences, outcomes, counters)`` of a snapshot, in this
        model's internal form; ``ValueError`` for anything that names what
        the catalog does not have."""
        ugs = {ug.ug_id: ug for ug in self._catalog.user_groups}
        peering_of = self._peering_of

        def ug_id_of(value) -> int:
            ug_id = int(value)
            if ug_id not in ugs:
                raise ValueError(f"unknown UG id {value!r}")
            return ug_id

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

