"""Community-steering tests: chooser determinism + differential identities.

Three layers:

* **determinism** — every steering chooser the comparisons run (action
  communities, PECAN, DNS resolver assignment, SD-WAN) returns the same
  answer on a freshly built copy of the same world.
* **differentials** — no-op actions must be *bit-identical* to the plain
  advertisement path: prepend ×0 shares the propagation cache with the
  untagged announcement, selective-announce toward all peers equals the
  unconditional announcement.
* **encoding** — community strings round-trip through parse.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.resolvers import ResolverAssignment, ResolverConfig
from repro.egress.coexistence import LinkWeightEpochs
from repro.scenario import tiny_scenario
from repro.steering.communities import (
    MED_PIN,
    NOOP,
    AnnounceToAction,
    CommunityAnnouncement,
    CommunityRouting,
    MedAction,
    NoExportAction,
    PrependAction,
    communities_benefit,
    communities_choices,
    parse_community,
    solve_communities,
)
from repro.steering.pecan import pecan_config
from repro.steering.sdwan import sdwan_view


# ---------------------------------------------------------------------------
# Determinism: each chooser is a function of the world it is given
# ---------------------------------------------------------------------------


CHOOSERS = {
    "communities": lambda world: solve_communities(world, budget=4),
    "pecan": lambda world: pecan_config(world, budget=4),
    "dns": lambda world: ResolverAssignment(world, ResolverConfig(seed=1)).resolvers,
    "sdwan": lambda world: [sdwan_view(world, ug) for ug in world.user_groups],
}


@pytest.mark.parametrize("name", sorted(CHOOSERS))
def test_chooser_is_deterministic(scenario, name):
    # ``scenario`` is tiny_scenario(seed=3) with warm routing caches; the
    # rebuilt copy starts cold, so caching cannot mask a divergence.
    choose = CHOOSERS[name]
    assert choose(tiny_scenario(seed=3)) == choose(scenario)


# ---------------------------------------------------------------------------
# Differential: prepend ×0 is bit-identical to the plain advertisement path
# ---------------------------------------------------------------------------


def test_prepend_zero_shares_propagation_cache(scenario):
    routing = scenario.routing
    asns = sorted(CommunityRouting(scenario).peer_asns)
    allowed = frozenset(asns)
    for ug in scenario.user_groups[:20]:
        plain = routing.entering_asn_for(ug, allowed)
        zeroed = routing.entering_asn_for(ug, allowed, prepend={asns[0]: 0})
        assert plain == zeroed


def test_prepend_zero_announcement_is_noop(scenario):
    router = CommunityRouting(scenario)
    target_asn = sorted(router.peer_asns)[0]
    noop = CommunityAnnouncement()
    zeroed = CommunityAnnouncement(prepend=((target_asn, 0),))
    assert zeroed.prepend_map() == {}
    for ug in scenario.user_groups:
        a = router.ingress_for(ug, noop)
        b = router.ingress_for(ug, zeroed)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.peering_id == b.peering_id
        assert router.latency_for(ug, noop) == router.latency_for(ug, zeroed)
    # Benefit curves are bit-identical too.
    assert communities_benefit(scenario, [zeroed]) == communities_benefit(
        scenario, [noop]
    )


def test_announce_to_all_equals_unconditional(scenario):
    router = CommunityRouting(scenario)
    noop = CommunityAnnouncement()
    everywhere = CommunityAnnouncement(announce=frozenset(router.peer_asns))
    assert everywhere.effective_peers(router.peer_asns) == frozenset(router.peer_asns)
    for ug in scenario.user_groups:
        a = router.ingress_for(ug, noop)
        b = router.ingress_for(ug, everywhere)
        if a is None:
            assert b is None
        else:
            assert b is not None and a.peering_id == b.peering_id
    assert communities_benefit(scenario, [everywhere]) == communities_benefit(
        scenario, [noop]
    )


def test_nonzero_prepend_changes_cache_key(scenario):
    """×0 must share the cache; ×3 must not silently alias it."""
    routing = scenario.routing
    router = CommunityRouting(scenario)
    asns = sorted(router.peer_asns)
    allowed = frozenset(asns)
    changed = 0
    for ug in scenario.user_groups:
        plain = routing.entering_asn_for(ug, allowed)
        pushed = routing.entering_asn_for(
            ug, allowed, prepend={asn: 3 for asn in asns[: len(asns) // 2]}
        )
        if plain != pushed:
            changed += 1
    assert changed > 0, "prepending half the peers moved no UG - not plausible"


# ---------------------------------------------------------------------------
# Catchment: ``latencies`` is the per-cell ``latency_for`` table
# ---------------------------------------------------------------------------


class TestLatencies:
    """``CommunityRouting.latencies`` keeps ``GroundTruthRouting.latencies``'s
    contract: one ``latency_for`` per cell, ``inf`` = no route."""

    @pytest.mark.parametrize("day", [0, 5])
    @pytest.mark.parametrize("epoch", [0, 1])
    def test_matches_latency_for_per_cell(self, scenario, day, epoch):
        epochs = LinkWeightEpochs(n_epochs=2, seed=1, amplitude=0.9)
        router = CommunityRouting(scenario, epochs=epochs)
        asns = sorted(router.peer_asns)
        target = scenario.deployment.peerings[0]
        others = [asn for asn in asns if asn != target.peer_asn]
        med_pin = ((target.peering_id, MED_PIN),)
        announcements = [
            NOOP,
            CommunityAnnouncement(no_export=frozenset(asns)),  # allows no peer
            CommunityAnnouncement(med=med_pin),
            CommunityAnnouncement(announce=frozenset({target.peer_asn}), med=med_pin),
            *(
                CommunityAnnouncement(
                    prepend=tuple((asn, count) for asn in others), med=med_pin
                )
                for count in (3, 6)
            ),
            NOOP,  # a tie with the first column
        ]
        ugs = scenario.user_groups[:40]
        # A freshly built world: its cells come from cold routing caches.
        fresh = tiny_scenario(seed=3)
        matrix = CommunityRouting(fresh, epochs=epochs).latencies(
            fresh.user_groups[:40], announcements, day=day, epoch=epoch
        )
        assert matrix.shape == (len(ugs), len(announcements))
        for i, ug in enumerate(ugs):
            for j, announcement in enumerate(announcements):
                expected = router.latency_for(ug, announcement, day=day, epoch=epoch)
                assert matrix[i, j] == (math.inf if expected is None else expected)
        assert np.isinf(matrix[:, 1]).all()
        assert np.array_equal(matrix[:, 0], matrix[:, -1])
        # The no-op announcement is the plain anycast prefix.
        every = [p.peering_id for p in scenario.deployment.peerings]
        anycast = scenario.routing.latencies(ugs, [every], day=day)
        assert np.array_equal(matrix[:, 0], anycast[:, 0])
        if epoch == 1:  # the link-weight shift moves MED-pinned ingresses
            at_epoch_0 = router.latencies(ugs, announcements[3:4], day=day)
            assert not np.array_equal(matrix[:, 3], at_epoch_0[:, 0])
        assert router.latencies(ugs, []).shape == (len(ugs), 0)


# ---------------------------------------------------------------------------
# Encoding: community strings round-trip
# ---------------------------------------------------------------------------


def test_action_community_round_trip():
    actions = [
        PrependAction(peer_asn=64500, count=3),
        AnnounceToAction(peer_asn=64501),
        NoExportAction(peer_asn=64502),
        MedAction(peering_id=7, offset=-200),
    ]
    for action in actions:
        assert parse_community(action.community()) == action


@pytest.mark.parametrize(
    "junk",
    ["", "cloud:prepend", "cloud:prepend:a:b", "other:announce:1", "cloud:nope:1"],
)
def test_parse_community_rejects_junk(junk):
    with pytest.raises(ValueError):
        parse_community(junk)


@given(
    # announce=None (unconditional) and announce=∅ both encode to "no
    # announce tags", so the generator never emits the empty set.
    announce=st.one_of(
        st.none(),
        st.frozensets(
            st.integers(min_value=2, max_value=900), min_size=1, max_size=4
        ),
    ),
    no_export=st.frozensets(st.integers(min_value=2, max_value=900), max_size=3),
    prepend=st.dictionaries(
        st.integers(min_value=2, max_value=900),
        st.integers(min_value=1, max_value=6),
        max_size=3,
    ),
    med=st.dictionaries(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=-500, max_value=500),
        max_size=3,
    ),
)
@settings(max_examples=50, deadline=None)
def test_announcement_round_trips_through_communities(announce, no_export, prepend, med):
    announcement = CommunityAnnouncement(
        announce=announce,
        no_export=no_export,
        prepend=tuple(sorted(prepend.items())),
        med=tuple(sorted(med.items())),
    )
    parsed = tuple(parse_community(text) for text in announcement.communities())
    assert parsed == announcement.actions()


# ---------------------------------------------------------------------------
# Solver sanity
# ---------------------------------------------------------------------------


def test_solve_communities_budgets_nest(scenario):
    solution = solve_communities(scenario, budget=6)
    assert 0 < len(solution.announcements) <= 6
    smaller = solution.at_budget(3)
    assert smaller == solution.announcements[:3]
    assert communities_benefit(scenario, solution.announcements) >= communities_benefit(
        scenario, smaller
    )


def test_solve_communities_improves_on_anycast(scenario):
    solution = solve_communities(scenario, budget=8)
    assert communities_benefit(scenario, solution.announcements) > 0.0


# ---------------------------------------------------------------------------
# Coverage: the Traffic Manager's choice, anycast when it keeps anycast
# ---------------------------------------------------------------------------


def test_communities_coverage_follows_the_tm_choice(scenario):
    """A UG is covered when the announcement the Traffic Manager picks (or
    anycast, when it picks none) lands it on its best ingress — the rule
    PAINTER's rows use — so no strategy's coverage falls below anycast's."""
    from repro.experiments.communities_cmp import run_communities

    budgets = [1, 2, 4]
    result = run_communities(scenario, budgets=budgets)
    coverage = {(row[0], row[1]): row[3] for row in result.rows}
    router = CommunityRouting(scenario)
    model = scenario.latency_model
    total = sum(ug.volume for ug in scenario.user_groups)
    solution = solve_communities(scenario, max(budgets))
    for budget in budgets:
        announcements = solution.at_budget(budget)
        choices = communities_choices(scenario, announcements)
        covered = 0.0
        for ug in scenario.user_groups:
            best = min(
                scenario.catalog.ingresses(ug), key=lambda p: model.latency_ms(ug, p)
            )
            index = choices.get(ug.ug_id)
            if index is None:
                ingress = scenario.routing.anycast_ingress(ug)
            else:
                ingress = router.ingress_for(ug, announcements[index])
            if ingress.peering_id == best.peering_id:
                covered += ug.volume
        assert coverage[("communities", len(announcements))] == covered / total
    floor = coverage[("anycast", 0)]
    assert all(value >= floor for value in coverage.values())
