"""The compiled Eq.-2 table against the sorted-key table it replaced.

:class:`repro.core.routing_model.DominanceTable` answers Eq. 2's candidate
rule with dense gathers over per-slot local indices.  Its predecessor kept
every preference pair as one sorted ``int64`` key and answered by binary
search; that encoding is copied here unchanged (``SortedKeyTable``,
compiled from a model's snapshot by ``sorted_key_table``) as the oracle,
with the row engine's old outcome-memory override written as the scalar
rule it implements: a row whose compliant set is a remembered one keeps
only the remembered ingress.

The differential runs over random learned states — same-AS and cross-AS
pairs, several contexts per slot, slots that learned nothing, outcome
memory — restored into a routing model over a stub deployment, and over
random query rows padded with ``pad``; the kept masks must be equal.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.routing_model import _OUTCOME_BUCKETS, RoutingModel

# ---------------------------------------------------------------------------
# the oracle: the sorted-key table, as it was
# ---------------------------------------------------------------------------

#: Closes every sorted key array of a :class:`SortedKeyTable`: no query
#: key reaches it, so a lookup never runs off the end.
_SENTINEL = np.iinfo(np.int64).max


def _member(sorted_keys: np.ndarray, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Whether each of ``keys`` occurs in ``sorted_keys`` (which ends with
    ``_SENTINEL``), and the index to read its payload at."""
    idx = np.searchsorted(sorted_keys, keys)
    return sorted_keys[idx] == keys, idx


class SortedKeyTable:
    """Learned preferences of a list of UGs as sorted keys.

    * ``pair_keys`` — every preference pair as ``(slot * k + winner) * k +
      loser``, ascending, with ``pair_ctx`` the pair's context: ``-1`` for
      a same-AS pair, else the index of its competitor-ASN context among
      the slot's ``contexts``;
    * ``win_keys`` — each winner once per way it can apply, as ``(slot * k
      + winner) * mc + 1 + context``, ascending;
    * ``contexts`` — ``[slot, context, word]`` peer-ASN bitsets, zero-padded;
    * outcome memory — ``{slot: {compliant set: observed ingress}}``, only
      entries whose ingress is in the set.

    Both key arrays end with ``_SENTINEL`` (and ``pair_ctx`` with a dummy).
    """

    def __init__(self, k, pid_word, pid_bit, pair_keys, pair_ctx, win_keys, mc,
                 contexts, outcomes) -> None:
        self.k = k
        self.pad = k - 1
        self.pid_word = pid_word
        self.pid_bit = pid_bit
        self.pair_keys = pair_keys
        self.pair_ctx = pair_ctx
        self.win_keys = win_keys
        self.mc = mc
        self.contexts = contexts
        self.outcomes = outcomes

    @classmethod
    def stack(cls, tables: Sequence["SortedKeyTable"]) -> "SortedKeyTable":
        first = tables[0]
        k = first.k
        mc = 1 + max(t.contexts.shape[1] for t in tables)
        contexts = np.zeros((len(tables), mc - 1, first.contexts.shape[2]), dtype=np.uint64)
        pair_keys, pair_ctx, win_keys = [], [], []
        for slot, t in enumerate(tables):
            contexts[slot, : t.contexts.shape[1]] = t.contexts[0]
            pair_keys.append(t.pair_keys[:-1] + slot * k * k)
            pair_ctx.append(t.pair_ctx[:-1])
            keys = t.win_keys[:-1]
            win_keys.append((keys // t.mc + slot * k) * mc + keys % t.mc)
        end = np.array([_SENTINEL])
        return cls(
            k, first.pid_word, first.pid_bit,
            np.concatenate(pair_keys + [end]), np.concatenate(pair_ctx + [[0]]),
            np.concatenate(win_keys + [end]), mc, contexts,
            {slot: t.outcomes[0] for slot, t in enumerate(tables)},
        )

    def kept(self, slots, cand, asn_bits, dist, d_reuse_km) -> np.ndarray:
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
        kept = survivors & (winner | (dist - closest[:, None] <= d_reuse_km))
        # Outcome memory: a remembered compliant set keeps its ingress only.
        for i, slot in enumerate(slots.tolist()):
            members = frozenset(cand[i][valid[i]].tolist())
            remembered = self.outcomes[slot].get(members)
            if remembered is not None:
                kept[i] = cand[i] == remembered
        return kept


def sorted_key_table(model: RoutingModel, ug_id: int) -> SortedKeyTable:
    """``ug_id``'s learned state compiled as the sorted-key table was."""
    snapshot = model.snapshot_preferences()
    k = model._k
    prefs = snapshot["preferences"].get(ug_id, {})
    pairs = np.array(list(prefs), dtype=np.int64).reshape(-1, 2)
    winner, loser = pairs[:, 0], pairs[:, 1]
    same_as = model._pid_asn[winner] == model._pid_asn[loser]
    local: Dict[FrozenSet[int], int] = {}
    pair_ctx = np.array(
        [
            -1 if same else local.setdefault(context, len(local))
            for same, context in zip(same_as.tolist(), prefs.values())
        ],
        dtype=np.int64,
    )
    contexts = np.array(
        [model._context_bits(context) for context in local], dtype=np.uint64
    ).reshape(1, len(local), model._n_words)
    keys = winner * k + loser
    order = np.argsort(keys)
    mc = len(local) + 1
    end = np.array([_SENTINEL])
    outcomes = {
        compliant: actual
        for (owner, compliant), actual in snapshot["outcomes"].items()
        if owner == ug_id and actual in compliant
    }
    return SortedKeyTable(
        k, model._pid_word, model._pid_bit,
        np.concatenate([keys[order], end]),
        np.concatenate([pair_ctx[order], [0]]),
        np.concatenate([np.unique(winner * mc + pair_ctx + 1), end]),
        mc, contexts, [outcomes],
    )


def oracle_kept(model, ug_ids, slots, cand, asn_bits, dist) -> np.ndarray:
    """The sorted-key table's kept mask for ``ug_ids`` stacked as slots."""
    table = SortedKeyTable.stack([sorted_key_table(model, ug_id) for ug_id in ug_ids])
    return table.kept(slots, cand, asn_bits, dist, model.d_reuse_km)


# ---------------------------------------------------------------------------
# random learned states over a stub deployment
# ---------------------------------------------------------------------------


def _model(peer_asns: List[int], n_ugs: int, d_reuse_km: float) -> RoutingModel:
    """A routing model over ``len(peer_asns)`` peerings (peering ``p`` peers
    with ``peer_asns[p]``), every one compliant for each of ``n_ugs`` UGs."""
    peerings = [
        SimpleNamespace(peering_id=pid, peer_asn=asn) for pid, asn in enumerate(peer_asns)
    ]
    every = frozenset(range(len(peer_asns)))
    catalog = SimpleNamespace(
        topology=SimpleNamespace(deployment=SimpleNamespace(peerings=peerings, pops=[])),
        user_groups=[SimpleNamespace(ug_id=ug_id) for ug_id in range(n_ugs)],
        ingress_ids=lambda ug: every,
    )
    return RoutingModel(catalog, d_reuse_km=d_reuse_km)


@st.composite
def learned_states(draw):
    """``(model, ug_ids)``: a restored learned state and the slot order.

    Few ASNs over several peerings make same-AS pairs common; contexts
    come from a small pool, so slots share them and queries match them;
    outcome sets are drawn from the same peerings, some without their
    ingress (those can never apply)."""
    n_pids = draw(st.integers(2, 9))
    peer_asns = draw(st.lists(st.integers(64500, 64503), min_size=n_pids, max_size=n_pids))
    n_ugs = draw(st.integers(1, 5))
    d_reuse = draw(st.sampled_from([0.0, 150.0, 400.0, 1e9]))
    model = _model(peer_asns, n_ugs, d_reuse)
    asns = sorted(set(peer_asns))
    pids = st.integers(0, n_pids - 1)
    context_pool = draw(
        st.lists(st.frozensets(st.sampled_from(asns), min_size=1), min_size=1, max_size=4)
    )
    preferences, outcomes = {}, {}
    for ug_id in range(n_ugs):
        if draw(st.booleans()):
            continue  # a slot that learned nothing
        pairs = draw(
            st.dictionaries(
                st.tuples(pids, pids).filter(lambda pair: pair[0] != pair[1]),
                st.sampled_from(context_pool),
                max_size=12,
            )
        )
        preferences[ug_id] = pairs
        for members in draw(st.lists(st.frozensets(pids, min_size=1), max_size=4)):
            outcomes[(ug_id, members)] = draw(pids)
    model.restore_preferences(
        {"version": 2, "preferences": preferences, "outcomes": outcomes}
    )
    ug_ids = draw(st.lists(st.integers(0, n_ugs - 1), min_size=1, max_size=6))
    return model, ug_ids


@st.composite
def queries(draw, model, ug_ids):
    """``(slots, cand, dist)``: rows of ascending distinct peering ids padded
    with ``pad``.  A row is random, a remembered outcome set of its slot,
    or peerings of exactly the ASNs of one of its slot's pair contexts, so
    that outcome memory and matching contexts both occur often."""
    pad = model._k - 1
    snapshot = model.snapshot_preferences()
    by_asn: Dict[int, List[int]] = {}
    for pid in range(pad):
        by_asn.setdefault(int(model._pid_asn[pid]), []).append(pid)

    def covering(context):
        # One or more peerings of each ASN of ``context``, and no other ASN.
        return st.tuples(
            *[st.sets(st.sampled_from(by_asn[asn]), min_size=1) for asn in sorted(context)]
        ).map(lambda parts: frozenset().union(*parts))

    n_rows = draw(st.integers(1, 8))
    slots = draw(st.lists(st.integers(0, len(ug_ids) - 1), min_size=n_rows, max_size=n_rows))
    rows = []
    for slot in slots:
        ug_id = ug_ids[slot]
        choices = [st.frozensets(st.integers(0, pad - 1), min_size=1)]
        own = sorted(
            sorted(members) for (owner, members) in snapshot["outcomes"] if owner == ug_id
        )
        if own:
            choices.append(st.sampled_from(own))
        pairs = snapshot["preferences"].get(ug_id, {})
        contexts = sorted({tuple(sorted(context)) for context in pairs.values()})
        if contexts:
            choices.append(st.sampled_from(contexts).flatmap(covering))
        rows.append(sorted(draw(st.one_of(choices))))
    width = max(len(row) for row in rows) + draw(st.integers(0, 2))
    cand = np.full((n_rows, width), pad, dtype=np.int64)
    for i, row in enumerate(rows):
        cand[i, : len(row)] = row
    # Distances in whole 100 km steps, so ties at the reuse limit occur.
    dist = np.array(
        draw(
            st.lists(
                st.lists(st.integers(0, 12), min_size=width, max_size=width),
                min_size=n_rows,
                max_size=n_rows,
            )
        ),
        dtype=float,
    ) * 100.0
    return np.array(slots, dtype=np.intp), cand, dist


def _check(model, ug_ids, slots, cand, dist) -> None:
    table = model.dominance_table(ug_ids)
    bits = table.asn_bits(cand)
    got = table.kept(slots, cand, bits, dist, model.d_reuse_km)
    want = oracle_kept(model, ug_ids, slots, cand, bits, dist)
    np.testing.assert_array_equal(got, want)


class TestAgainstSortedKeyOracle:
    @given(st.data())
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_kept_masks_equal(self, data):
        model, ug_ids = data.draw(learned_states())
        slots, cand, dist = data.draw(queries(model, ug_ids))
        _check(model, ug_ids, slots, cand, dist)

    def test_all_empty_table(self):
        # Nothing learned anywhere: every row is pure reuse-distance pruning.
        model = _model([64500, 64501, 64500], 3, 150.0)
        cand = np.array([[0, 1, 2], [1, 3, 3], [2, 3, 3]])
        dist = np.array([[0.0, 100.0, 200.0], [300.0, 0.0, 0.0], [50.0, 0.0, 0.0]])
        _check(model, [0, 1, 2], np.array([0, 1, 2]), cand, dist)
        table = model.dominance_table([0, 1, 2])
        kept = table.kept(np.array([0, 1, 2]), cand, table.asn_bits(cand), dist, 150.0)
        assert kept.tolist() == [
            [True, True, False], [True, False, False], [True, False, False]
        ]

    def test_same_as_pair_applies_under_any_context(self):
        # 0 and 1 peer with one AS, 2 and 3 with another.  The cross-AS pair
        # (3, 1) gives the slot the context of the first row, which then
        # matches; the same-AS pair (0, 1) must apply under it as under
        # none (second row): 0 stays a winner 900 km out, and 1 is beaten.
        model = _model([64500, 64500, 64501, 64501], 1, 100.0)
        model.restore_preferences({
            "version": 2,
            "preferences": {
                0: {(0, 1): frozenset({64500}), (3, 1): frozenset({64500, 64501})}
            },
            "outcomes": {},
        })
        cand = np.array([[0, 1, 2], [0, 1, 4]])
        dist = np.array([[900.0, 0.0, 0.0], [900.0, 0.0, 0.0]])
        _check(model, [0], np.array([0, 0]), cand, dist)
        table = model.dominance_table([0])
        kept = table.kept(np.array([0, 0]), cand, table.asn_bits(cand), dist, 100.0)
        assert kept.tolist() == [[True, False, True], [True, False, False]]
        assert table.code.dtype == np.uint8 and table.code.shape == (1, 4, 4)

    def test_cross_as_pair_needs_its_context(self):
        model = _model([64500, 64501, 64502], 1, 1e9)
        model.restore_preferences({
            "version": 2,
            "preferences": {0: {(0, 1): frozenset({64500, 64501})}},
            "outcomes": {},
        })
        cand = np.array([[0, 1, 3], [0, 1, 2]])
        dist = np.zeros((2, 3))
        _check(model, [0], np.array([0, 0]), cand, dist)
        table = model.dominance_table([0])
        kept = table.kept(np.array([0, 0]), cand, table.asn_bits(cand), dist, 1e9)
        assert kept.tolist() == [[True, False, False], [True, True, True]]

    def test_subset_in_a_remembered_sets_bucket_is_not_it(self):
        # Peerings 0..B have local indices 1..B+1; without local B the
        # set's sum moves by B, so the row lands in the remembered set's
        # bucket while being a strict subset of it.
        n = _OUTCOME_BUCKETS + 1
        model = _model(list(range(64500, 64500 + n)), 1, 1e9)
        everything = frozenset(range(n))
        model.restore_preferences({
            "version": 2, "preferences": {}, "outcomes": {(0, everything): 0}
        })
        cand = np.array([sorted(everything), sorted(everything - {n - 2}) + [n]])
        dist = np.zeros(cand.shape)
        _check(model, [0], np.array([0, 0]), cand, dist)
        table = model.dominance_table([0])
        kept = table.kept(np.array([0, 0]), cand, table.asn_bits(cand), dist, 1e9)
        assert kept[0].tolist() == [True] + [False] * (n - 1)
        assert kept[1].tolist() == [True] * (n - 1) + [False]

    def test_remembered_set_keeps_its_ingress(self):
        model = _model([64500, 64501, 64502], 2, 1e9)
        model.restore_preferences({
            "version": 2,
            "preferences": {},
            # The second set was entered outside itself: it never applies.
            "outcomes": {(1, frozenset({0, 2})): 2, (1, frozenset({0, 1})): 2},
        })
        cand = np.array([[0, 2, 3], [0, 2, 3], [0, 1, 2]])
        dist = np.zeros((3, 3))
        slots = np.array([1, 0, 1])
        _check(model, [0, 1], slots, cand, dist)
        table = model.dominance_table([0, 1])
        kept = table.kept(slots, cand, table.asn_bits(cand), dist, 1e9)
        assert kept.tolist() == [[False, True, False], [True, True, False], [True, True, True]]
