"""The routing model: candidate prediction, D_reuse, preference learning.

Predictions are read from the evaluator's Eq.-2 pass (``tests.
test_eq2_pass.eq2``): the kept candidate ingresses and expected latency of
one UG under one advertised set.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.benefit import BenefitEvaluator
from repro.core.routing_model import DEFAULT_D_REUSE_KM, RoutingModel
from repro.topology.geo import haversine_km
from tests.test_eq2_pass import eq2, evaluator_for, store_latency


@pytest.fixture()
def model(scenario):
    return RoutingModel(scenario.catalog, d_reuse_km=DEFAULT_D_REUSE_KM)


def _compliant_sample(scenario, ug, k=6):
    return sorted(scenario.catalog.ingress_ids(ug))[:k]


def _candidates(scenario, model, ug, advertised):
    """The model's candidate ingresses for ``ug`` under ``advertised``."""
    return eq2(evaluator_for(scenario, model), ug, advertised)[0]


class TestCandidatePrediction:
    def test_candidates_subset_of_advertised_and_compliant(self, scenario, model):
        for ug in scenario.user_groups[:20]:
            advertised = frozenset(_compliant_sample(scenario, ug))
            candidates = _candidates(scenario, model, ug, advertised)
            assert candidates <= advertised
            assert candidates <= scenario.catalog.ingress_ids(ug)
            assert candidates  # advertised set was compliant, so non-empty

    def test_empty_when_nothing_compliant(self, scenario, model):
        for ug in scenario.user_groups:
            non_compliant = [
                p.peering_id
                for p in scenario.deployment.peerings
                if p.peering_id not in scenario.catalog.ingress_ids(ug)
            ]
            if non_compliant:
                assert (
                    _candidates(scenario, model, ug, frozenset(non_compliant[:4]))
                    == frozenset()
                )
                return
        pytest.skip("all peerings compliant for all UGs in this seed")

    def test_d_reuse_excludes_far_ingresses(self, scenario):
        """With a small D_reuse, only near-closest candidates survive."""
        tight = RoutingModel(scenario.catalog, d_reuse_km=1.0)
        loose = RoutingModel(scenario.catalog, d_reuse_km=1e9)
        for ug in scenario.user_groups[:20]:
            advertised = frozenset(scenario.catalog.ingress_ids(ug))
            tight_candidates = _candidates(scenario, tight, ug, advertised)
            loose_candidates = _candidates(scenario, loose, ug, advertised)
            assert tight_candidates <= loose_candidates
            assert loose_candidates == advertised

    def test_negative_d_reuse_rejected(self, scenario):
        with pytest.raises(ValueError):
            RoutingModel(scenario.catalog, d_reuse_km=-5)


def _expected(scenario, model, ug, advertised, latency_of):
    """The UG's Eq.-2 expected latency over ``latency_of``'s latencies."""
    return eq2(BenefitEvaluator(scenario, model, latency_of=latency_of), ug, advertised)[1]


class TestExpectedLatency:
    def test_mean_over_candidates(self, scenario, model):
        ug = scenario.user_groups[0]
        advertised = frozenset(_compliant_sample(scenario, ug, k=4))
        candidates = _candidates(scenario, model, ug, advertised)
        latencies = {
            pid: scenario.latency_model.latency_ms(ug, scenario.deployment.peering(pid))
            for pid in candidates
        }
        expected = _expected(scenario, model, ug, advertised, lambda u, pid: latencies.get(pid))
        assert expected == pytest.approx(sum(latencies.values()) / len(latencies))

    def test_unmeasurable_ingresses_skipped(self, scenario, model):
        ug = scenario.user_groups[0]
        advertised = frozenset(_compliant_sample(scenario, ug, k=4))
        candidates = sorted(_candidates(scenario, model, ug, advertised))
        keep = candidates[0]
        expected = _expected(
            scenario, model, ug, advertised, lambda u, pid: 10.0 if pid == keep else None
        )
        assert expected == pytest.approx(10.0)

    def test_none_when_nothing_measurable(self, scenario, model):
        ug = scenario.user_groups[0]
        advertised = frozenset(_compliant_sample(scenario, ug, k=4))
        assert _expected(scenario, model, ug, advertised, lambda u, pid: None) is None


class TestLearning:
    def test_observation_requires_advertised_peering(self, scenario, model):
        ug = scenario.user_groups[0]
        ids = _compliant_sample(scenario, ug, k=4)
        with pytest.raises(ValueError, match="was not advertised"):
            model.observe(ug, frozenset(ids[:3]), actual_peering_id=ids[3])

    @pytest.mark.parametrize("stale", [False, True], ids=["fresh", "stale"])
    def test_observation_at_an_unknown_peering_fails_closed(
        self, scenario, model, stale
    ):
        """An advertised id the deployment does not have is no ingress to
        learn about: observing it raises before any state changes, so the
        model's snapshot still round-trips."""
        ug = scenario.user_groups[0]
        model.observe(ug, frozenset(_compliant_sample(scenario, ug, k=3)),
                      _compliant_sample(scenario, ug)[0])
        unknown = max(p.peering_id for p in scenario.deployment.peerings) + 1
        advertised = frozenset(_compliant_sample(scenario, ug, k=2)) | {unknown}
        before = model.snapshot_preferences()
        with pytest.raises(ValueError, match=f"unknown peering id {unknown}"):
            model.observe(ug, advertised, unknown, stale=stale)
        assert model.snapshot_preferences() == before
        fresh = RoutingModel(scenario.catalog, d_reuse_km=DEFAULT_D_REUSE_KM)
        fresh.restore_preferences(model.snapshot_preferences())
        assert fresh.snapshot_preferences() == before

    def test_observation_creates_preferences(self, scenario, model):
        ug = scenario.user_groups[0]
        advertised = frozenset(_compliant_sample(scenario, ug, k=4))
        winner = sorted(advertised)[0]
        learned = model.observe(ug, advertised, winner)
        assert learned == len(advertised) - 1
        assert model.preference_count(ug) == learned
        assert model.observation_count == 1

    def test_losers_excluded_when_winner_present(self, scenario, model):
        ug = scenario.user_groups[0]
        advertised = frozenset(_compliant_sample(scenario, ug, k=4))
        winner = sorted(advertised)[-1]
        model.observe(ug, advertised, winner)
        candidates = _candidates(scenario, model, ug, advertised)
        assert candidates == frozenset({winner})

    def test_winner_survives_d_reuse(self, scenario):
        """An observed far-away winner must remain a candidate (the
        Miami-routed-through-Tokyo lesson)."""
        model = RoutingModel(scenario.catalog, d_reuse_km=1.0)
        ug = scenario.user_groups[0]
        advertised = frozenset(scenario.catalog.ingress_ids(ug))
        # Pick the farthest compliant ingress as the observed winner.
        winner = max(
            advertised,
            key=lambda pid: haversine_km(
                ug.location, scenario.deployment.peering(pid).pop.location
            ),
        )
        model.observe(ug, advertised, winner)
        assert winner in _candidates(scenario, model, ug, advertised)

    def test_contradiction_replaced_by_newer_observation(self, scenario, model):
        ug = scenario.user_groups[0]
        advertised = frozenset(_compliant_sample(scenario, ug, k=3))
        first, second = sorted(advertised)[:2]
        model.observe(ug, advertised, first)
        model.observe(ug, advertised, second)
        candidates = _candidates(scenario, model, ug, advertised)
        assert second in candidates
        assert first not in candidates

    def test_preferences_scoped_to_advertised_set(self, scenario, model):
        """A loser is only excluded when its winner is co-advertised."""
        ug = scenario.user_groups[0]
        sample = _compliant_sample(scenario, ug, k=4)
        advertised = frozenset(sample)
        winner = sample[0]
        loser = sample[1]
        model.observe(ug, advertised, winner)
        without_winner = frozenset(sample[1:])
        candidates = _candidates(scenario, model, ug, without_winner)
        assert loser in candidates

    def test_snapshot_preferences(self, scenario, model):
        ug = scenario.user_groups[0]
        advertised = frozenset(_compliant_sample(scenario, ug, k=3))
        model.observe(ug, advertised, sorted(advertised)[0])
        snapshot = model.snapshot_preferences()
        assert snapshot["version"] == 2
        assert ug.ug_id in snapshot["preferences"]
        assert len(snapshot["preferences"][ug.ug_id]) == model.preference_count(ug)
        assert snapshot["observation_count"] == 1
        assert snapshot["outcomes"]  # probability-1 memory carried along


class TestStaleObservations:
    def test_stale_never_overwrites_outcome_memory(self, scenario, model):
        ug = scenario.user_groups[0]
        advertised = frozenset(_compliant_sample(scenario, ug, k=3))
        first, second = sorted(advertised)[:2]
        model.observe(ug, advertised, first)
        model.observe(ug, advertised, second, stale=True)
        # The fresh probability-1 outcome still stands.
        assert _candidates(scenario, model, ug, advertised) == frozenset({first})
        assert model.stale_observation_count == 1
        assert model.observation_count == 1

    def test_stale_never_evicts_fresher_pair(self, scenario, model):
        ug = scenario.user_groups[0]
        advertised = frozenset(_compliant_sample(scenario, ug, k=3))
        first, second = sorted(advertised)[:2]
        model.observe(ug, advertised, first)
        before = model.snapshot_preferences()["preferences"][ug.ug_id]
        learned = model.observe(ug, advertised, second, stale=True)
        after = model.snapshot_preferences()["preferences"][ug.ug_id]
        # Every fresh pair survives; the stale winner only adds pairs that
        # no fresh (or reversed) pair already disputes.
        assert set(before) <= set(after)
        assert (first, second) in after
        assert (second, first) not in after
        assert learned == len(after) - len(before)

    def test_stale_alone_still_informs_an_empty_model(self, scenario, model):
        ug = scenario.user_groups[0]
        advertised = frozenset(_compliant_sample(scenario, ug, k=3))
        winner = sorted(advertised)[0]
        learned = model.observe(ug, advertised, winner, stale=True)
        assert learned == len(scenario.catalog.compliant_subset(ug, advertised)) - 1
        assert model.observation_count == 0
        assert model.stale_observation_count == 1


class TestSnapshotRoundTrip:
    """The versioned snapshot must carry the full learned state (§5.1.3)."""

    def _trained_model(self, scenario):
        model = RoutingModel(scenario.catalog)
        for ug in scenario.user_groups[:10]:
            ids = sorted(scenario.catalog.ingress_ids(ug))
            model.observe(ug, frozenset(ids[:4]), ids[1])
            model.observe(ug, frozenset(ids[:3]), ids[0], stale=True)
        return model

    def test_round_trip_preserves_candidate_ingresses(self, scenario):
        """The headline §5.1.3 property: predictions survive persistence,
        including the probability-1 outcome memory the old snapshot lost."""
        model = self._trained_model(scenario)
        fresh = RoutingModel(scenario.catalog)
        fresh.restore_preferences(model.snapshot_preferences())
        for ug in scenario.user_groups[:20]:
            ids = sorted(scenario.catalog.ingress_ids(ug))
            for advertised in (frozenset(ids[:4]), frozenset(ids[:3]), frozenset(ids)):
                assert _candidates(scenario, fresh, ug, advertised) == (
                    _candidates(scenario, model, ug, advertised)
                ), (ug.ug_id, advertised)

    def test_round_trip_preserves_counters_and_outcomes(self, scenario):
        model = self._trained_model(scenario)
        fresh = RoutingModel(scenario.catalog)
        fresh.restore_preferences(model.snapshot_preferences())
        assert fresh.observation_count == model.observation_count
        assert fresh.stale_observation_count == model.stale_observation_count
        assert fresh.snapshot_preferences() == model.snapshot_preferences()

    def test_outcome_memory_survives_where_old_format_lost_it(self, scenario):
        """A restored model keeps the probability-1 prediction; the legacy
        preferences-only snapshot degrades it to a preference-based one."""
        model = RoutingModel(scenario.catalog)
        ug = scenario.user_groups[0]
        ids = sorted(scenario.catalog.ingress_ids(ug))
        advertised = frozenset(ids[:4])
        winner = ids[2]
        model.observe(ug, advertised, winner)
        assert _candidates(scenario, model, ug, advertised) == frozenset({winner})

        restored = RoutingModel(scenario.catalog)
        restored.restore_preferences(model.snapshot_preferences())
        assert _candidates(scenario, restored, ug, advertised) == frozenset({winner})

    def test_legacy_bare_mapping_rejected(self, scenario):
        model = self._trained_model(scenario)
        legacy = model.snapshot_preferences()["preferences"]  # old bare shape
        fresh = self._trained_model(scenario)
        before = fresh.snapshot_preferences()
        with pytest.raises(ValueError, match="versioned"):
            fresh.restore_preferences(legacy)
        assert fresh.snapshot_preferences() == before

    def test_unsupported_version_rejected(self, scenario):
        fresh = RoutingModel(scenario.catalog)
        with pytest.raises(ValueError):
            fresh.restore_preferences({"version": 99, "preferences": {}})


class TestRestoreFailsClosed:
    """A snapshot naming anything the catalog does not have is rejected
    with ``ValueError`` before any state is replaced."""

    def _snapshot(self, scenario):
        model = RoutingModel(scenario.catalog)
        ug = scenario.user_groups[0]
        ids = sorted(scenario.catalog.ingress_ids(ug))
        model.observe(ug, frozenset(ids[:4]), ids[1])
        return model, ug, ids, model.snapshot_preferences()

    def _rejected(self, scenario, model, snapshot, match):
        before = model.snapshot_preferences()
        with pytest.raises(ValueError, match=match):
            model.restore_preferences(snapshot)
        assert model.snapshot_preferences() == before

    def test_unknown_peering_rejected(self, scenario):
        model, ug, ids, snap = self._snapshot(scenario)
        snap["preferences"][ug.ug_id][(999999, ids[0])] = frozenset()
        self._rejected(scenario, model, snap, "unknown peering id 999999")

    def test_self_pair_rejected(self, scenario):
        model, ug, ids, snap = self._snapshot(scenario)
        snap["preferences"][ug.ug_id][(ids[0], ids[0])] = frozenset()
        self._rejected(scenario, model, snap, "self-pair")

    def test_unknown_ug_rejected(self, scenario):
        model, ug, ids, snap = self._snapshot(scenario)
        snap["preferences"][10**9] = {}
        self._rejected(scenario, model, snap, "unknown UG id")
        _model, _ug, _ids, snap = self._snapshot(scenario)
        snap["outcomes"][(10**9, frozenset(ids[:2]))] = ids[0]
        self._rejected(scenario, model, snap, "unknown UG id")

    def test_unknown_context_asn_rejected(self, scenario):
        model, ug, ids, snap = self._snapshot(scenario)
        snap["preferences"][ug.ug_id][(ids[0], ids[2])] = frozenset({-7})
        self._rejected(scenario, model, snap, "does not peer with")

    def test_outcome_outside_compliant_set_rejected(self, scenario):
        model, ug, ids, snap = self._snapshot(scenario)
        stray = [
            p.peering_id
            for p in scenario.deployment.peerings
            if p.peering_id not in scenario.catalog.ingress_ids(ug)
        ]
        if not stray:
            pytest.skip("every peering is compliant for this UG")
        snap["outcomes"][(ug.ug_id, frozenset(ids[:2]) | {stray[0]})] = ids[0]
        self._rejected(scenario, model, snap, "not policy-compliant")

    def test_malformed_entries_rejected(self, scenario):
        model, ug, ids, snap = self._snapshot(scenario)
        snap["preferences"][ug.ug_id][(ids[0], ids[2])] = 5  # not iterable
        self._rejected(scenario, model, snap, "malformed")
        _model, _ug, _ids, snap = self._snapshot(scenario)
        snap["observation_count"] = -1
        self._rejected(scenario, model, snap, "negative")

    def test_nan_reuse_distance_rejected(self, scenario):
        with pytest.raises(ValueError):
            RoutingModel(scenario.catalog, d_reuse_km=float("nan"))

    def test_io_raises_serialization_error(self, scenario):
        from repro.io import (
            SerializationError,
            restore_routing_model,
            routing_model_to_dict,
        )
        import json

        model, ug, ids, _snap = self._snapshot(scenario)
        document = routing_model_to_dict(model)
        document["preferences"][str(ug.ug_id)].append([999999, ids[0], []])
        fresh = RoutingModel(scenario.catalog)
        with pytest.raises(SerializationError, match="999999"):
            restore_routing_model(fresh, json.loads(json.dumps(document)))
        assert fresh.preference_count() == 0


class TestCandidateMemoization:
    """Predictions answer alike until observe() changes the UG's beliefs,
    and observe() changes only the observed UG's."""

    def test_memo_returns_identical_results(self, scenario, model):
        for ug in scenario.user_groups[:10]:
            advertised = frozenset(_compliant_sample(scenario, ug, k=5))
            first = _candidates(scenario, model, ug, advertised)
            second = _candidates(scenario, model, ug, advertised)
            assert first == second

    def test_observe_invalidates_memoized_candidates(self, scenario, model):
        # Pick a UG whose pruned candidate set has several members, so the
        # observation visibly collapses it.
        for ug in scenario.user_groups:
            advertised = frozenset(_compliant_sample(scenario, ug, k=4))
            before = _candidates(scenario, model, ug, advertised)
            if len(before) > 1:
                break
        assert len(before) > 1  # uniform assumption: several candidates
        winner = sorted(before)[-1]
        model.observe(ug, advertised, winner)
        after = _candidates(scenario, model, ug, advertised)
        assert after == frozenset({winner})  # not the stale cached set

    def test_observe_leaves_other_ugs_cached(self, scenario, model):
        ug_a, ug_b = scenario.user_groups[0], scenario.user_groups[1]
        adv_b = frozenset(_compliant_sample(scenario, ug_b, k=4))
        cached_b = _candidates(scenario, model, ug_b, adv_b)
        adv_a = frozenset(_compliant_sample(scenario, ug_a, k=4))
        model.observe(ug_a, adv_a, sorted(adv_a)[0])
        assert _candidates(scenario, model, ug_b, adv_b) == cached_b

    def test_restore_invalidates_every_ug(self, scenario, model):
        ug = scenario.user_groups[0]
        advertised = frozenset(_compliant_sample(scenario, ug, k=4))
        unlearned = _candidates(scenario, model, ug, advertised)
        model.observe(ug, advertised, sorted(advertised)[-1])
        assert _candidates(scenario, model, ug, advertised) != unlearned
        model.restore_preferences({"version": 2, "preferences": {}, "outcomes": {}})
        assert _candidates(scenario, model, ug, advertised) == unlearned


# -- the compiled dominance table against a full scan of the pairs ------------


def _naive_applicable_pairs(model, scenario, ug, compliant):
    """The full-scan rule: same-AS pairs always apply, cross-AS pairs only
    when the competitor-ASN set equals the observed context."""

    def asn(pid):
        return scenario.deployment.peering(pid).peer_asn

    current = frozenset(asn(pid) for pid in compliant)
    prefs = model.snapshot_preferences()["preferences"].get(ug.ug_id, {})
    return {
        (winner, loser)
        for (winner, loser), context in prefs.items()
        if asn(winner) == asn(loser) or context == current
    }


def _naive_candidates(model, scenario, ug, advertised):
    compliant = scenario.catalog.compliant_subset(ug, advertised)
    if not compliant:
        return frozenset()
    remembered = model.snapshot_preferences()["outcomes"].get((ug.ug_id, compliant))
    if remembered in compliant:
        return frozenset({remembered})
    pairs = _naive_applicable_pairs(model, scenario, ug, compliant)
    winners = {w for (w, _loser) in pairs if w in compliant}
    losers = {loser for (w, loser) in pairs if w in compliant and loser in compliant}
    after_pref = (compliant - losers) or compliant

    def km(pid):
        return haversine_km(ug.location, scenario.deployment.peering(pid).pop.location)

    closest = min(km(pid) for pid in after_pref)
    return frozenset(
        pid for pid in after_pref if pid in winners or km(pid) - closest <= model.d_reuse_km
    )


class TestWinnerIndex:
    """Predictions read preference pairs through each UG's compiled
    dominance table; it must answer exactly as a scan over every pair
    would."""

    @given(st.data())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_matches_full_scan_reference(self, scenario, data):
        ugs = scenario.user_groups[:4]
        every_id = sorted(p.peering_id for p in scenario.deployment.peerings)

        def draw_advertised(ug):
            # A small pool makes repeated and contradicting observations
            # likely; the stray ids may be non-compliant for this UG.
            pool = sorted(scenario.catalog.ingress_ids(ug))[:8]
            own = data.draw(st.sets(st.sampled_from(pool), min_size=1, max_size=6))
            stray = data.draw(st.sets(st.sampled_from(every_id), max_size=2))
            return frozenset(own | stray)

        def check(model, ug):
            advertised = draw_advertised(ug)
            assert _candidates(scenario, model, ug, advertised) == _naive_candidates(
                model, scenario, ug, advertised
            )

        model = RoutingModel(scenario.catalog, d_reuse_km=DEFAULT_D_REUSE_KM)
        steps = data.draw(st.integers(min_value=1, max_value=12))
        restore_at = data.draw(st.integers(min_value=0, max_value=steps - 1))
        for step in range(steps):
            ug = data.draw(st.sampled_from(ugs))
            advertised = draw_advertised(ug)
            actual = data.draw(st.sampled_from(sorted(advertised)))
            model.observe(ug, advertised, actual, stale=data.draw(st.booleans()))
            # Query between observations so a stale index would be caught.
            check(model, ug)
            if step == restore_at:
                restored = RoutingModel(scenario.catalog, d_reuse_km=DEFAULT_D_REUSE_KM)
                restored.restore_preferences(model.snapshot_preferences())
                model = restored
        for ug in ugs:
            check(model, ug)

    def test_superseding_observation_drops_the_index(self, scenario):
        model = RoutingModel(scenario.catalog, d_reuse_km=1e9)  # preferences only
        ug = scenario.user_groups[0]
        first, second, third = _compliant_sample(scenario, ug, k=3)
        model.observe(ug, frozenset({first, second}), first)
        wider = frozenset({first, second, third})
        assert _candidates(scenario, model, ug, wider) == frozenset({first, third})
        assert ug.ug_id in model._tables
        # (second, first) supersedes (first, second).
        model.observe(ug, frozenset({first, second}), second)
        assert ug.ug_id not in model._tables
        assert _candidates(scenario, model, ug, wider) == frozenset({second, third})

    def test_restore_drops_the_index(self, scenario):
        model = RoutingModel(scenario.catalog, d_reuse_km=1e9)  # preferences only
        ug = scenario.user_groups[0]
        first, second, third = _compliant_sample(scenario, ug, k=3)
        model.observe(ug, frozenset({first, second}), first)
        wider = frozenset({first, second, third})
        _candidates(scenario, model, ug, wider)
        assert model._tables
        model.restore_preferences({"version": 2, "preferences": {}, "outcomes": {}})
        assert not model._tables
        assert _candidates(scenario, model, ug, wider) == wider


class TestExpectedPrefixLatencyKeying:
    """Eq. 2 depends on the compliant subset of the advertised set only."""

    def _learned_ug(self, scenario, model):
        ug = scenario.user_groups[0]
        ids = sorted(scenario.catalog.ingress_ids(ug))
        model.observe(ug, frozenset(ids[:3]), ids[0])
        return ug, ids

    def test_same_compliant_subset_same_value(self, scenario, model):
        evaluator = evaluator_for(scenario, model)
        ug, ids = self._learned_ug(scenario, model)
        own = scenario.catalog.ingress_ids(ug)
        stray = [p.peering_id for p in scenario.deployment.peerings
                 if p.peering_id not in own]
        if not stray:
            pytest.skip("every peering is compliant for this UG")
        plain = frozenset(ids[1:5])
        padded = plain | {stray[0]}
        value = eq2(evaluator, ug, plain)[1]
        assert value is not None
        assert eq2(evaluator, ug, padded)[1] == value

    def test_singleton_is_the_exact_latency(self, scenario, model):
        evaluator = evaluator_for(scenario, model)
        ug, ids = self._learned_ug(scenario, model)
        for pid in ids[:4]:
            assert eq2(evaluator, ug, frozenset({pid}))[1] == store_latency(evaluator, ug, pid)
        assert eq2(evaluator, ug, frozenset())[1] is None
