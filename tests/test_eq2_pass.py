"""Eq. 2's expected latencies against the scalar chain, kept as the oracle.

Eq. 2 (§3.1) is the routing model's expected latency of a UG under one
advertised prefix: the mean latency over its candidate ingresses, which are
the policy-compliant advertised ones left after learned exclusions and the
reuse-distance cut.  ``_reference_*`` is the scalar chain that once
computed it one (UG, prefix) at a time: the candidate rule
(:func:`_reference_candidates`), the mean over measurable candidates in
ascending peering id, the singleton shortcut, the best prefix against
anycast and the volume-weighted total in UG order.  Every sum adds one term
at a time in an explicit loop: from Python 3.12 on, the builtin ``sum``
over floats is compensated (Neumaier), which is not the plain sequential
sum Eq. 2 is defined with.

Hypothesis draws tiny worlds, learned state from fresh and stale
observations and from restored snapshots, reuse configurations with 1-30
peerings per prefix (and a prefix no UG complies with), custom latency
oracles that leave every 2nd/3rd/5th slot unmeasurable (the closest one
included) and reuse distances of 0, 3000 km and infinity.  Every (UG,
prefix) expectation must match as ``float.hex`` (``None`` as ``+inf``),
and so must the total, also with ``builtins.sum`` swapped for a copy of
Python 3.12's compensated sum (as are the golden solves).
"""

from __future__ import annotations

import builtins
import json
import math
from functools import lru_cache
from itertools import compress
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.advertisement import AdvertisementConfig
from repro.core.benefit import BenefitEvaluator
from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.core.routing_model import DEFAULT_D_REUSE_KM, RoutingModel
from repro.scenario import prototype_scenario, tiny_scenario
from repro.topology.geo import haversine_km
from tests.test_golden_worlds import compensated_sum

GOLDEN_SOLVES = Path(__file__).parent / "data" / "golden_solve_configs.json"

SEEDS = (0, 1, 3)
HOLES = (0, 2, 3, 5)
D_REUSE = (0.0, DEFAULT_D_REUSE_KM, math.inf)


# -- the scalar oracle ---------------------------------------------------------


@lru_cache(maxsize=None)
def _km(a, b):
    return haversine_km(a, b)


def _reference_distance(model, ug, pid):
    """UG-to-ingress great-circle distance."""
    return _km(ug.location, model.catalog.topology.deployment.peering(pid).pop.location)


def _reference_candidates(model, ug, compliant):
    """The candidate ingresses of an already policy-compliant set."""
    if not compliant:
        return frozenset()
    remembered = model._outcomes.get(ug.ug_id, {}).get(compliant)
    if remembered is not None and remembered in compliant:
        return frozenset({remembered})
    cand = sorted(compliant)
    dist = [_reference_distance(model, ug, pid) for pid in cand]
    if not model._preferences.get(ug.ug_id):
        # The empty table's answer, without the arrays: pure
        # reuse-distance pruning.
        closest = min(dist)
        limit = model.d_reuse_km
        return frozenset(compress(cand, [d - closest <= limit for d in dist]))
    row = np.array([cand], dtype=np.int64)
    table, slot = model._tables.get(ug.ug_id) or (model._compile([ug.ug_id]), 0)
    kept = table.kept(
        np.array([slot]), row, table.asn_bits(row),
        np.array([dist]), model.d_reuse_km,
    )
    return frozenset(compress(cand, kept[0].tolist()))


def _reference_expected_latency_ms(model, ug, compliant, latency_of):
    """Mean latency over the candidates (``None``: nothing measurable),
    summed in ascending peering id."""
    candidates = _reference_candidates(model, ug, compliant)
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


@lru_cache(maxsize=4)
def _csr_of(evaluator):
    """Per UG id: its row and its compliant peerings' ranks, ascending."""
    catalog = evaluator.model.catalog
    return {
        ug.ug_id: (row, {pid: rank for rank, pid in enumerate(sorted(catalog.ingress_ids(ug)))})
        for row, ug in enumerate(evaluator.scenario.user_groups)
    }


def store_at(evaluator, ug, pid):
    """A compliant slot's store position, found through the CSR index (the
    first read fills the store)."""
    evaluator.precompute_latency_matrix()
    row, ranks = _csr_of(evaluator)[ug.ug_id]
    return evaluator.store.at.item(evaluator.store.first.item(row) + ranks[pid])


def store_latency(evaluator, ug, pid):
    """A compliant slot's latency (``None``: unmeasurable)."""
    value = evaluator.store.latency.item(store_at(evaluator, ug, pid))
    return None if value != value else value


def _reference_expected_prefix_latency(evaluator, ug, advertised):
    compliant = evaluator.model.catalog.compliant_subset(ug, advertised)
    if len(compliant) <= 1:
        # A singleton's candidate set is itself and (0.0 + lat) / 1 is
        # lat bit-for-bit.
        if not compliant:
            return None
        (pid,) = compliant
        return store_latency(evaluator, ug, pid)
    return _reference_expected_latency_ms(
        evaluator.model, ug, compliant, lambda u, p: store_latency(evaluator, u, p)
    )


def _reference_expected_improvement(evaluator, ug, config):
    """Improvement of the best prefix over anycast, floored at 0."""
    anycast = evaluator.scenario.anycast_latency_ms(ug)
    best = anycast
    for prefix in config.prefixes:
        latency = _reference_expected_prefix_latency(evaluator, ug, config.peerings_for(prefix))
        if latency is not None and latency < best:
            best = latency
    return anycast - best


def _reference_expected_benefit(evaluator, config):
    """Eq. 1 with modeled improvements, summed in UG order."""
    total = 0.0
    for ug in evaluator.scenario.user_groups:
        total += ug.volume * _reference_expected_improvement(evaluator, ug, config)
    return total


# -- the pass under test -------------------------------------------------------


def _pass_latencies(evaluator, config):
    """``{(prefix, UG id): expected latency}`` as the evaluator computes it
    (``+inf``: nothing measurable)."""
    expected = evaluator.expected_latencies(config).tolist()
    return {
        (prefix, ug.ug_id): expected[i][row]
        for i, prefix in enumerate(config.prefixes)
        for row, ug in enumerate(evaluator.scenario.user_groups)
    }


def evaluator_for(scenario, model):
    """A filled evaluator of ``scenario`` under ``model``."""
    evaluator = BenefitEvaluator(scenario, model)
    evaluator.precompute_latency_matrix()
    return evaluator


def eq2(evaluator, ug, advertised):
    """One UG's Eq. 2 under one advertised set, read from the evaluator's
    per-prefix pass: ``(kept peering ids, expected latency)``, ``None`` for
    a latency with nothing measurable."""
    store = evaluator._filled()
    learned = evaluator.learned_table(evaluator.model.learned_ug_ids)
    at, kept, expected = evaluator._eq2(store, frozenset(advertised), learned)
    row = evaluator.scenario.user_groups.index(ug)
    starts = np.array([lo for lo, _ in store.spans.values()])
    pids = np.array(list(store.spans))[np.searchsorted(starts, at, side="right") - 1]
    value = float(expected[row])
    return (
        frozenset(pids[(store.rows[at] == row) & kept].tolist()),
        None if value == math.inf else value,
    )


def _hex(value):
    return "inf" if value is None or value == math.inf else float(value).hex()


def check(evaluator, config):
    """The evaluator's Eq. 2 is the oracle's, per (UG, prefix) and in total."""
    total = evaluator.expected_benefit(config)
    got = {key: _hex(value) for key, value in _pass_latencies(evaluator, config).items()}
    ugs = evaluator.scenario.user_groups
    want = {
        (prefix, ug.ug_id): _hex(
            _reference_expected_prefix_latency(evaluator, ug, config.peerings_for(prefix))
        )
        for prefix in config.prefixes
        for ug in ugs
    }
    assert got == want
    assert total.hex() == _reference_expected_benefit(evaluator, config).hex()


# -- inputs --------------------------------------------------------------------


@lru_cache(maxsize=None)
def _world(seed):
    return tiny_scenario(seed=seed)


def _latency_of(world, holes):
    """``None`` (the latency model's batch fill), or an oracle leaving every
    ``holes``-th slot unmeasurable and, for every other UG, its closest
    compliant ingress too."""
    if not holes:
        return None
    latency_model, deployment = world.latency_model, world.deployment
    closest = {}
    for ug in world.user_groups:
        ids = sorted(world.catalog.ingress_ids(ug))
        closest[ug.ug_id] = min(
            ids, key=lambda pid: haversine_km(ug.location, deployment.peering(pid).pop.location)
        )

    def latency_of(ug, pid):
        if (ug.ug_id * 7 + pid) % holes == 0 or (ug.ug_id % 2 == 0 and pid == closest[ug.ug_id]):
            return None
        return latency_model.latency_ms(ug, deployment.peering(pid))

    return latency_of


def _dead_peerings(world):
    """Peerings no UG complies with, else one id past the deployment."""
    compliant = set()
    for ug in world.user_groups:
        compliant |= world.catalog.ingress_ids(ug)
    pids = sorted(p.peering_id for p in world.deployment.peerings)
    return [pid for pid in pids if pid not in compliant] or [pids[-1] + 1]


#: UGs the observations draw from (few, so beliefs pile up per UG).
_OBSERVED_UGS = 10


def _evaluator(spec):
    """A filled evaluator of ``spec``'s world, configuration and learned
    state: ``(seed, holes, d_reuse, prefix sets as indices into the sorted
    peering ids, dead, observations, snapshot)``.

    An observation ``(ug, source, picks, actual, stale)`` advertises one of
    the configuration's prefix sets (``source`` below their count) or the
    picked indices, and enters at the ``actual``-th advertised peering.
    ``snapshot`` is ``None``, ``"round-trip"``, or ``(pairs, outcomes)`` of
    index picks that replace the learned state through
    ``restore_preferences``: pairs ``(ug, winner, loser, context picks)``
    and outcomes ``(ug, prefix set index, winner)``, each set cut to the
    UG's compliant ingresses.
    """
    seed, holes, d_reuse, sets, dead, observations, snapshot = spec
    world = _world(seed)
    pids = sorted(p.peering_id for p in world.deployment.peerings)
    config = AdvertisementConfig()
    for prefix, indices in enumerate(sets):
        for index in indices:
            config.add(prefix, pids[index % len(pids)])
    if dead:
        for pid in _dead_peerings(world):
            config.add(len(sets), pid)
    model = RoutingModel(world.catalog, d_reuse_km=d_reuse)
    evaluator = BenefitEvaluator(world, model, latency_of=_latency_of(world, holes))
    evaluator.precompute_latency_matrix()
    ugs = world.user_groups[:_OBSERVED_UGS]
    prefix_sets = [config.peerings_for(prefix) for prefix in config.prefixes]
    for ug_at, source, picks, actual, stale in observations:
        if source < len(prefix_sets):
            advertised = prefix_sets[source] & set(pids)  # not the stand-in dead id
        else:
            advertised = frozenset(pids[i % len(pids)] for i in picks)
        if not advertised:
            continue
        winner = sorted(advertised)[actual % len(advertised)]
        model.observe(ugs[ug_at % len(ugs)], advertised, winner, stale=stale)
    if snapshot == "round-trip":
        model.restore_preferences(model.snapshot_preferences())
    elif snapshot is not None:
        pairs, outcomes = snapshot
        asn = {p.peering_id: p.peer_asn for p in world.deployment.peerings}
        preferences = {}
        for ug_at, winner, loser, context in pairs:
            winner, loser = pids[winner % len(pids)], pids[loser % len(pids)]
            if winner != loser:
                preferences.setdefault(ugs[ug_at % len(ugs)].ug_id, {})[(winner, loser)] = (
                    frozenset(asn[pids[i % len(pids)]] for i in context)
                )
        remembered = {}
        for ug_at, set_at, winner in outcomes:
            ug = ugs[ug_at % len(ugs)]
            members = sorted(world.catalog.ingress_ids(ug))
            if prefix_sets:
                members = sorted(world.catalog.compliant_subset(ug, prefix_sets[set_at % len(prefix_sets)]))
            if members:
                remembered[(ug.ug_id, frozenset(members))] = pids[winner % len(pids)]
        model.restore_preferences(
            {"version": 2, "preferences": preferences, "outcomes": remembered}
        )
    return evaluator, config


_INDEX = st.integers(0, 63)
_SETS = st.lists(
    st.one_of(
        st.lists(_INDEX, min_size=1, max_size=6),
        st.lists(_INDEX, min_size=12, max_size=30),
    ),
    max_size=4,
)
_OBSERVATIONS = st.lists(
    st.tuples(
        _INDEX, st.integers(0, 5), st.lists(_INDEX, min_size=1, max_size=8), _INDEX, st.booleans()
    ),
    max_size=12,
)
_SNAPSHOT = st.one_of(
    st.none(),
    st.just("round-trip"),
    st.tuples(
        st.lists(st.tuples(_INDEX, _INDEX, _INDEX, st.lists(_INDEX, max_size=6)), max_size=20),
        st.lists(st.tuples(_INDEX, _INDEX, _INDEX), max_size=8),
    ),
)
_SPECS = st.tuples(
    st.sampled_from(SEEDS),
    st.sampled_from(HOLES),
    st.sampled_from(D_REUSE),
    _SETS,
    st.booleans(),
    _OBSERVATIONS,
    _SNAPSHOT,
)

#: Fixed inputs, also run under 3.12's summation: a plain reuse world, an
#: unmeasurable closest ingress at a zero reuse distance, learned state
#: with outcome memory at an infinite one, and a restored snapshot whose
#: remembered sets contradict its pairs.
FIXED = [
    (0, 0, DEFAULT_D_REUSE_KM, [list(range(30)), [0, 1]], True, [], None),
    (1, 2, 0.0, [list(range(0, 60, 2)), [5]], False, [], None),
    (
        3, 3, math.inf, [list(range(30)), list(range(1, 40, 3))], True,
        [(0, 0, [1], 3, False), (1, 1, [2], 0, False), (2, 9, [0, 1, 2, 3], 1, True),
         (0, 9, [4, 5, 6], 2, False), (0, 0, [1], 5, False)],
        "round-trip",
    ),
    (
        0, 5, DEFAULT_D_REUSE_KM, [list(range(2, 32)), list(range(0, 64, 5))], False,
        [(3, 0, [1], 1, False)],
        ([(0, 1, 2, [1, 2]), (0, 2, 1, []), (1, 3, 4, [3, 4, 5]), (2, 4, 3, [0])],
         [(0, 0, 7), (1, 1, 3), (2, 0, 11)]),
    ),
]


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(_SPECS)
@example(FIXED[0])
@example(FIXED[1])
@example(FIXED[2])
@example(FIXED[3])
@example((0, 0, DEFAULT_D_REUSE_KM, [], False, [], None))
@example((1, 0, DEFAULT_D_REUSE_KM, [], True, [], None))
def test_expected_latencies_match_the_scalar_chain(spec) -> None:
    check(*_evaluator(spec))


def test_expected_benefit_reuses_the_solves_table(monkeypatch) -> None:
    """The solve's row engine and the evaluator's pass ask for the learned
    UGs in the same order, so evaluating a solved configuration compiles
    no second table."""
    orch = PainterOrchestrator(tiny_scenario(seed=3), OrchestratorConfig(prefix_budget=3))
    orch.learn(iterations=1)
    assert orch.model.learned_ug_ids
    model = orch.model
    compiled = []
    compile_ = model._compile
    monkeypatch.setattr(model, "_compile", lambda ug_ids: compiled.append(ug_ids) or compile_(ug_ids))
    config = orch.solve()
    assert len(compiled) == 1
    check(orch.evaluator, config)
    assert len(compiled) == 1


@pytest.mark.parametrize("spec", FIXED, ids=range(len(FIXED)))
def test_holds_under_312_sum(monkeypatch, spec) -> None:
    # CI's 3.12 leg sums with compensation; Eq. 2 may not depend on it.
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    check(*_evaluator(spec))


@pytest.mark.parametrize(
    "name,build",
    [
        ("tiny_seed0", lambda: tiny_scenario(seed=0)),
        ("tiny_seed3", lambda: tiny_scenario(seed=3)),
        ("prototype_seed0", lambda: prototype_scenario(seed=0)),
    ],
)
def test_golden_solves_hold_under_312_sum(monkeypatch, name, build) -> None:
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    golden = json.loads(GOLDEN_SOLVES.read_text())[name]
    orch = PainterOrchestrator(build(), OrchestratorConfig(prefix_budget=golden["budget"]))
    config = orch.solve()
    pairs = sorted([prefix, pid] for prefix in config.prefixes for pid in config.peerings_for(prefix))
    assert pairs == golden["pairs"]
