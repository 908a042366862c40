"""The compute-backend registry, kernels, and the bit-exactness contract.

Three layers of assurance:

* unit tests over the registry/selection policy (fallbacks must degrade,
  count, and warn — never crash);
* hypothesis differential properties: every *installed* backend must match
  the numpy reference bit-for-bit on adversarial inputs (NaN latencies,
  infinite baselines, shrinking reuse windows);
* end-to-end solve differentials: explicit backend / dense-matrix / parallel
  configurations must reproduce the serial numpy solver's configs and
  benefit curves exactly.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.kernels import (
    AUTO_ORDER,
    BackendUnavailable,
    ComputeBackend,
    MemoryBudgetExceeded,
    NumpyBackend,
    available_backends,
    coerce_backend,
    get_backend,
    plan_matrix_layout,
    registered_backends,
    resolve_backend,
)
from repro.kernels.numpy_backend import initial_gains, refresh_contrib
from repro.scenario import tiny_scenario
from repro.telemetry import METRICS, telemetry_session

# ---------------------------------------------------------------------------
# registry & selection policy
# ---------------------------------------------------------------------------


def test_registry_lists_all_known_backends() -> None:
    assert registered_backends() == ("cupy", "numba", "numpy")
    # numpy is the reference: always available, everywhere.
    assert "numpy" in available_backends()
    assert set(available_backends()) <= set(registered_backends())


def test_get_backend_returns_fresh_instances() -> None:
    a, b = get_backend("numpy"), get_backend("numpy")
    assert a is not b  # instances carry per-evaluator matrix state
    a.bind_latency_matrix(np.zeros((2, 2)))
    assert b.latency_matrix is None


def test_get_backend_unknown_name_raises() -> None:
    with pytest.raises(ValueError, match="unknown compute backend"):
        get_backend("fortran")
    with pytest.raises(ValueError, match="unknown compute backend"):
        resolve_backend("fortran")


def test_auto_resolves_to_an_available_backend_silently() -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # auto must never warn
        backend = resolve_backend("auto")
    assert backend.name in AUTO_ORDER
    assert backend.name in available_backends()


def test_explicit_unavailable_backend_degrades_to_numpy() -> None:
    missing = [n for n in registered_backends() if n not in available_backends()]
    if not missing:
        pytest.skip("every registered backend is installed here")
    METRICS.reset()
    with telemetry_session("fallback") as journal:
        with pytest.warns(RuntimeWarning, match="falling back to the numpy"):
            backend = resolve_backend(missing[0])
    assert backend.name == "numpy"
    assert METRICS.counter("kernels.fallbacks").value == 1
    events = journal.events("backend_fallback")
    assert len(events) == 1 and events[0]["backend"] == missing[0]


def test_coerce_backend_forms() -> None:
    assert coerce_backend(None).name == "numpy"
    assert coerce_backend("numpy").name == "numpy"
    instance = NumpyBackend()
    assert coerce_backend(instance) is instance
    with pytest.raises(TypeError, match="backend must be"):
        coerce_backend(3.14)


def test_warmup_time_lands_in_compile_timer() -> None:
    METRICS.reset()
    resolve_backend("numpy")
    assert METRICS.timer("kernels.compile_s").calls == 1


def test_bind_rejects_mismatched_distance_shape() -> None:
    backend = NumpyBackend()
    with pytest.raises(ValueError, match="distance matrix shape"):
        backend.bind_latency_matrix(np.zeros((3, 2)), np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# matrix layout planning
# ---------------------------------------------------------------------------


def test_layout_plan_geometry_and_budget() -> None:
    plan = plan_matrix_layout(100_000, 1_970)
    assert plan.value_dtype == np.float64
    assert plan.index_dtype == np.int32  # rows fit in 31 bits
    assert plan.matrix_bytes == 100_000 * 1_970 * 8
    assert plan.total_bytes == 2 * plan.matrix_bytes
    assert plan.chunk_rows >= 1
    assert plan.n_chunks * plan.chunk_rows >= 100_000
    assert plan.fits_budget

    with pytest.raises(MemoryBudgetExceeded):
        plan_matrix_layout(100_000, 1_970, budget_bytes=plan.total_bytes - 1)
    capped = plan_matrix_layout(100_000, 1_970, budget_bytes=plan.total_bytes)
    capped.require_within_budget()


def test_layout_plan_tiny_world_is_single_chunk() -> None:
    plan = plan_matrix_layout(60, 30)
    assert plan.n_chunks == 1
    assert plan.chunk_rows == 60


# ---------------------------------------------------------------------------
# kernel reference semantics (numpy backend == the documented expression)
# ---------------------------------------------------------------------------


def test_initial_gains_nan_and_clamp_semantics() -> None:
    base = np.array([10.0, 10.0, 10.0, np.inf])
    lat = np.array([4.0, 25.0, np.nan, 3.0])
    out = initial_gains(base, lat)
    np.testing.assert_array_equal(out, [6.0, 0.0, 0.0, np.inf])


def test_refresh_contrib_shrink_and_kept_semantics() -> None:
    # Row 0: dist < d0 (window shrinks) -> contrib forced to 0, mask set.
    # Row 1: within the reuse window, measurable -> joins the kept set.
    # Row 2: beyond the window -> kept set unchanged, contrib from old best.
    dist = np.array([100.0, 500.0, 5000.0])
    lat = np.array([3.0, 5.0, 2.0])
    vol = np.array([1.0, 2.0, 4.0])
    d0 = np.array([200.0, 400.0, 400.0])
    csum = np.array([0.0, 10.0, 10.0])
    ccnt = np.array([0.0, 1.0, 1.0])
    ob = np.array([20.0, 20.0, 20.0])
    base = np.array([30.0, 30.0, 30.0])
    contrib, shrink = refresh_contrib(dist, lat, vol, d0, csum, ccnt, ob, base, 1000.0)
    assert shrink.tolist() == [True, False, False]
    assert contrib[0] == 0.0
    # Row 1: kept mean (10+5)/2 = 7.5, new best 7.5, gain 2*(20-7.5).
    assert contrib[1] == 2.0 * (20.0 - 7.5)
    # Row 2: not added; kept mean 10, best min(30,10)=10, gain 4*(20-10).
    assert contrib[2] == 4.0 * (20.0 - 10.0)

    # The form the shard feeds shrink rows in (``ShardState.contrib``):
    # ``d0`` replaced by ``dist`` and ``csum``/``ccnt`` re-read at the
    # shrunken window, so the mask stays clear and the row is evaluated like
    # any other.  Kept counts 0, 1, 3 x measurable / unmeasurable latency.
    dist = np.full(6, 100.0)
    lat = np.array([3.0, np.nan, 3.0, np.nan, 3.0, np.nan])
    vol = np.full(6, 2.0)
    csum = np.array([0.0, 0.0, 12.0, 12.0, 30.0, 30.0])
    ccnt = np.array([0.0, 0.0, 1.0, 1.0, 3.0, 3.0])
    ob = np.full(6, 20.0)
    base = np.full(6, 25.0)
    contrib, shrink = refresh_contrib(
        dist, lat, vol, dist.copy(), csum, ccnt, ob, base, 0.0
    )
    assert not shrink.any()
    assert contrib.tolist() == [
        2.0 * (20.0 - 3.0),  # singleton: the ingress's own latency
        0.0,  # nothing measurable kept: no path, no improvement
        2.0 * (20.0 - (12.0 + 3.0) / 2.0),
        2.0 * (20.0 - 12.0),  # unmeasurable: kept mean unchanged
        2.0 * (20.0 - (30.0 + 3.0) / 4.0),
        2.0 * (20.0 - 10.0),
    ]


# ---------------------------------------------------------------------------
# hypothesis differential: every installed backend vs the numpy reference
# ---------------------------------------------------------------------------

_OTHER_BACKENDS = [n for n in available_backends() if n != "numpy"]

_finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
_lat_elems = st.one_of(_finite, st.just(float("nan")))
_rows = st.integers(min_value=1, max_value=64)


def _arr(draw, n, elems):
    return draw(
        hnp.arrays(dtype=np.float64, shape=(n,), elements=elems)
    )


@pytest.mark.parametrize("backend_name", _OTHER_BACKENDS or ["numpy"])
@settings(max_examples=60)
@given(data=st.data())
def test_backends_match_numpy_bit_for_bit(backend_name: str, data) -> None:
    backend = resolve_backend(backend_name)
    n = data.draw(_rows)
    dist = _arr(data.draw, n, st.floats(min_value=0.0, max_value=25_000.0))
    lat = _arr(data.draw, n, _lat_elems)
    vol = _arr(data.draw, n, st.floats(min_value=0.0, max_value=1.0))
    d0 = _arr(
        data.draw,
        n,
        st.one_of(
            st.floats(min_value=0.0, max_value=25_000.0), st.just(float("inf"))
        ),
    )
    # The shard substitutes ``d0 := dist`` on rows whose window shrinks.
    substituted = data.draw(hnp.arrays(dtype=np.bool_, shape=(n,)))
    d0[substituted] = dist[substituted]
    csum = _arr(data.draw, n, st.floats(min_value=0.0, max_value=1e6))
    ccnt = _arr(data.draw, n, st.integers(min_value=0, max_value=12).map(float))
    ob = _arr(data.draw, n, _finite)
    base = _arr(data.draw, n, st.one_of(_finite, st.just(float("inf"))))
    d_reuse = data.draw(st.floats(min_value=0.0, max_value=10_000.0))

    ref_c, ref_s = refresh_contrib(dist, lat, vol, d0, csum, ccnt, ob, base, d_reuse)
    got_c, got_s = backend.refresh_contrib(
        dist, lat, vol, d0, csum, ccnt, ob, base, d_reuse
    )
    # Bit-for-bit: compare raw representations, not values (NaN-safe too).
    np.testing.assert_array_equal(
        got_c.view(np.uint64), ref_c.view(np.uint64), strict=True
    )
    np.testing.assert_array_equal(got_s, ref_s, strict=True)

    ref_g = initial_gains(base, lat)
    got_g = backend.initial_gains(base, lat)
    np.testing.assert_array_equal(
        got_g.view(np.uint64), ref_g.view(np.uint64), strict=True
    )


# ---------------------------------------------------------------------------
# end-to-end differentials: configs/benefits identical across configurations
# ---------------------------------------------------------------------------


def _solve_signature(scenario, chunk_bytes=None, **config_kwargs):
    orch = PainterOrchestrator(
        scenario, OrchestratorConfig(prefix_budget=4, **config_kwargs)
    )
    try:
        if chunk_bytes is not None:
            orch.evaluator.precompute_latency_matrix(chunk_bytes=chunk_bytes)
        config = orch.solve(record_curve=True)
        curve = [
            (p.prefixes_used, p.pairs_used, p.estimated_benefit)
            for p in orch.budget_curve
        ]
    finally:
        orch.close()
    return sorted(config.pairs()), curve


def test_every_installed_backend_solves_identically() -> None:
    scenario = tiny_scenario(seed=5)
    reference = _solve_signature(scenario, backend="numpy")
    for name in available_backends():
        assert _solve_signature(scenario, backend=name) == reference, name
    assert _solve_signature(scenario, backend="auto") == reference


def test_dense_matrix_mode_solves_identically() -> None:
    scenario = tiny_scenario(seed=5)
    reference = _solve_signature(scenario, backend="numpy")
    # Materialised one row chunk at a time before the solve: the bound
    # matrices are reused as they are, and the chunking changes no value.
    dense = _solve_signature(scenario, chunk_bytes=1, backend="numpy")
    assert dense == reference


def test_parallel_pool_composes_with_explicit_backend() -> None:
    scenario = tiny_scenario(seed=5)
    reference = _solve_signature(scenario, backend="numpy")
    sharded = _solve_signature(scenario, backend="auto", workers=2)
    assert sharded == reference


def test_backend_instance_is_accepted_by_config() -> None:
    scenario = tiny_scenario(seed=5)
    backend = NumpyBackend()
    assert isinstance(backend, ComputeBackend)
    reference = _solve_signature(scenario, backend="numpy")
    assert _solve_signature(scenario, backend=backend) == reference


def test_orchestrator_config_validates_backend_type() -> None:
    with pytest.raises((TypeError, ValueError)):
        OrchestratorConfig(prefix_budget=1, backend=42)


def test_backend_unavailable_is_runtime_error() -> None:
    assert issubclass(BackendUnavailable, RuntimeError)
