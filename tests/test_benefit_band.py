"""The Fig. 14 benefit band (``BenefitEvaluator.evaluate``) against the
scalar per-(UG, prefix) band it is computed by in arrays.

:func:`_reference_evaluate` is the scalar band: per UG and prefix, the
range over the policy-compliant advertised ingresses read one slot at a
time (:func:`_reference_range`), the prefix with the strictly larger mean
per UG, and the volume-weighted totals summed in UG order.  Its inflation
weights use the fixed :data:`DEFAULT_INFLATION_SCALE_KM`, so the closest
ingress always weighs ``exp(-0.0) = 1.0`` and the weights never vanish.
Every sum adds one term at a time in an explicit loop, not with the
builtin ``sum``: from Python 3.12 on, ``sum`` over floats is compensated
(Neumaier), which is not the plain sequential sum the band computes.

Hypothesis draws tiny worlds and configurations — reuse configurations
with a prefix on many peerings, prefixes no UG can comply with, the empty
configuration, and custom latency oracles that leave some slots
unmeasurable — and every total must match as ``float.hex``, along with the
``evaluator.latency_matrix`` hits the band counts.
"""

from __future__ import annotations

import math
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.advertisement import AdvertisementConfig
from repro.core.benefit import DEFAULT_INFLATION_SCALE_KM, BenefitEvaluator
from repro.core.routing_model import RoutingModel
from repro.scenario import tiny_scenario
from repro.telemetry import METRICS
from tests.test_eq2_pass import store_at

SEEDS = (0, 1, 3)


def _reference_range(evaluator, ug, advertised):
    """``(lower, mean, estimated, upper)`` over the UG's compliant
    advertised ingresses, ascending peering id; ``None`` if none is
    measurable."""
    compliant = evaluator.model.catalog.compliant_subset(ug, advertised)
    anycast = evaluator.scenario.anycast_latency_ms(ug)
    distances = []
    improvements = []
    for pid in sorted(compliant):
        at = store_at(evaluator, ug, pid)
        METRICS.cache("evaluator.latency_matrix").hits += 1  # one read per slot
        latency = evaluator.store.latency.item(at)
        if latency != latency:
            continue  # unmeasurable
        improvements.append(max(0.0, anycast - latency))
        distances.append(evaluator.store.distance.item(at))
    if not improvements:
        return None
    closest = min(distances)
    total = weights = weighted = 0.0
    for improvement, d in zip(improvements, distances):
        weight = math.exp(-(d - closest) / DEFAULT_INFLATION_SCALE_KM)
        total += improvement
        weights += weight
        weighted += improvement * weight
    band = (
        min(improvements),
        total / len(improvements),
        weighted / weights,
        max(improvements),
    )
    lower, mean, estimated, upper = band
    if not (lower <= mean <= upper) or not (lower <= estimated <= upper):
        raise ValueError(f"inconsistent range: {band}")
    return band


def _reference_band(evaluator, ug, config):
    """The range of the prefix the UG would select (highest mean, the first
    on a tie); zeros if no prefix has one."""
    best = None
    for prefix in config.prefixes:
        candidate = _reference_range(evaluator, ug, config.peerings_for(prefix))
        if candidate is None:
            continue
        if best is None or candidate[1] > best[1]:
            best = candidate
    return (0.0, 0.0, 0.0, 0.0) if best is None else best


def _reference_evaluate(evaluator, config):
    """Volume-weighted ``(lower, mean, estimated, upper)`` totals."""
    lower = mean = estimated = upper = 0.0
    for ug in evaluator.scenario.user_groups:
        band = _reference_band(evaluator, ug, config)
        lower += ug.volume * band[0]
        mean += ug.volume * band[1]
        estimated += ug.volume * band[2]
        upper += ug.volume * band[3]
    return lower, mean, estimated, upper


@lru_cache(maxsize=None)
def _evaluator(seed: int, holes: int) -> BenefitEvaluator:
    """A filled evaluator of tiny world ``seed``; ``holes > 0`` asks a
    custom oracle that leaves every ``holes``-th slot unmeasurable."""
    world = tiny_scenario(seed=seed)
    latency_of = None
    if holes:
        model, deployment = world.latency_model, world.deployment

        def latency_of(ug, pid):
            if (ug.ug_id * 7 + pid) % holes == 0:
                return None
            return model.latency_ms(ug, deployment.peering(pid))

    evaluator = BenefitEvaluator(world, RoutingModel(world.catalog), latency_of=latency_of)
    evaluator.precompute_latency_matrix()
    return evaluator


def _dead_peerings(world):
    """Peerings no UG can comply with (a world may have none)."""
    compliant = set()
    for ug in world.user_groups:
        compliant |= world.catalog.ingress_ids(ug)
    return sorted(p.peering_id for p in world.deployment.peerings if p.peering_id not in compliant)


def _hits() -> int:
    return METRICS.cache("evaluator.latency_matrix").hits


def _check(evaluator, config) -> None:
    before = _hits()
    ref = _reference_evaluate(evaluator, config)
    ref_hits = _hits() - before
    before = _hits()
    got = evaluator.evaluate(config)
    assert _hits() - before == ref_hits
    assert [got.lower.hex(), got.mean.hex(), got.estimated.hex(), got.upper.hex()] == [
        value.hex() for value in ref
    ]


#: ``(seed, holes, prefix peering sets as indices into the world's sorted
#: peering ids, dead)``: ``dead`` adds a prefix advertised only where no UG
#: complies.
_SPECS = st.tuples(
    st.sampled_from(SEEDS),
    st.sampled_from((0, 2, 3, 5)),
    st.lists(
        st.one_of(
            st.lists(st.integers(0, 31), min_size=1, max_size=6),
            st.lists(st.integers(0, 31), min_size=12, max_size=32),
        ),
        max_size=4,
    ),
    st.booleans(),
)


@settings(max_examples=120)
@given(_SPECS)
@example((0, 0, [], False))
@example((0, 0, [], True))
@example((3, 0, [list(range(32))], True))
@example((1, 3, [list(range(32)), [0, 1], list(range(0, 32, 3))], False))
def test_evaluate_matches_scalar_band(spec) -> None:
    seed, holes, sets, dead = spec
    evaluator = _evaluator(seed, holes)
    world = evaluator.scenario
    pids = sorted(p.peering_id for p in world.deployment.peerings)
    config = AdvertisementConfig()
    for prefix, indices in enumerate(sets):
        for index in indices:
            config.add(2 * prefix, pids[index])
    if dead:
        # A peering id past the deployment stands in where every one has
        # a compliant UG: no UG complies with it either.
        for pid in _dead_peerings(world) or [pids[-1] + 1]:
            config.add(2 * len(sets) + 1, pid)
    _check(evaluator, config)


def test_tied_means_take_the_first_prefix() -> None:
    """Two prefixes with the same improvements at different distances tie
    on the mean but not on the inflation-weighted estimate: the first one
    in prefix order is the UG's band."""
    world = tiny_scenario(seed=0)
    # UG 0's ingresses at Milan and Lima against Bangkok and Auckland.
    first, second = (3, 5), (1, 2)
    latency = {3: 10.0, 5: 40.0, 1: 10.0, 2: 40.0}
    evaluator = BenefitEvaluator(
        world, RoutingModel(world.catalog), latency_of=lambda ug, pid: latency.get(pid, 500.0)
    )
    estimates = []
    for a, b in ((first, second), (second, first)):
        config = AdvertisementConfig.from_pairs([(0, pid) for pid in a] + [(1, pid) for pid in b])
        _check(evaluator, config)
        estimates.append(evaluator.evaluate(config).estimated)
    assert estimates[0] != estimates[1]


def test_empty_config_leaves_the_store_unread() -> None:
    world = tiny_scenario(seed=0)
    evaluator = BenefitEvaluator(world, RoutingModel(world.catalog))
    evaluation = evaluator.evaluate(AdvertisementConfig())
    assert (evaluation.lower, evaluation.mean, evaluation.estimated, evaluation.upper) == (
        0.0, 0.0, 0.0, 0.0,
    )
    assert evaluator.store is None


@pytest.mark.parametrize("seed", SEEDS)
def test_every_singleton_config(seed) -> None:
    """One prefix on one peering, for every peering of the world."""
    evaluator = _evaluator(seed, 0)
    for peering in evaluator.scenario.deployment.peerings:
        _check(evaluator, AdvertisementConfig.from_pairs([(0, peering.peering_id)]))
