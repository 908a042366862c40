"""The :class:`ComputeBackend` protocol and backend registry.

Algorithm 1's solve time is dominated by two elementwise kernels — the
initial-heap gain ``max(0, base - latency)`` and the fused refresh-marginal
pipeline (reuse-window test, kept-set mean update, best-latency improvement)
— evaluated over per-peering affected-UG arrays.  A :class:`ComputeBackend`
supplies exactly those kernels plus the dense latency/distance matrix
binding the evaluator and the parallel shard workers share.

Bit-exactness contract
----------------------

Backends compute **elementwise quantities only**.  Every floating-point
*reduction* (``contrib.sum()``, the initial ``vol @ gain`` dot product,
the learned-UG loop, warm-start volume patches) stays on the host numpy
path in canonical row order.  Elementwise IEEE-754
double operations are bit-identical across conforming implementations (no
FMA contraction, no fastmath), so every backend produces bit-identical
solve results by construction — the serial numpy solver remains the oracle
and the differential suites enforce the contract.

Registry & selection
--------------------

Backends register under a short name (``numpy``, ``numba``, ``cupy``) with
a cheap availability probe.  :func:`resolve_backend` implements the
selection policy:

* ``"auto"`` — best available backend (numba if importable, else numpy);
  a failed candidate is skipped silently, because auto is a preference,
  not a promise.
* an explicit name — resolved strictly; if the backend is unavailable or
  its JIT warmup fails, the numpy reference is returned instead and the
  degradation is *recorded*: ``kernels.fallbacks`` counter, a
  ``backend_fallback`` journal event, and a ``RuntimeWarning``.  A missing
  accelerator never crashes a solve.

Compilation time is accumulated in the ``kernels.compile_s`` timer so
bench artifacts can attribute wall time to compile vs execute.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.telemetry import METRICS, emit_event


class BackendUnavailable(RuntimeError):
    """The requested backend cannot run here (missing import, no device)."""


class ComputeBackend:
    """Elementwise marginal-evaluation kernels plus dense-matrix binding.

    Concrete backends override :meth:`initial_gains` and
    :meth:`refresh_contrib`; the latency/distance matrix binding (plain
    state shared by the evaluator, the orchestrator's vectorized
    affected-array build, and the parallel shard workers) is implemented
    here once.

    Instances are **per-evaluator**: a backend carries the bound dense
    matrices of exactly one evaluator, so the registry hands out fresh
    instances (see :func:`get_backend`), never singletons.
    """

    name: str = "abstract"

    def __init__(self) -> None:
        self._lat_matrix: Optional[np.ndarray] = None
        self._dist_matrix: Optional[np.ndarray] = None

    # -- dense matrix binding ------------------------------------------------

    def bind_latency_matrix(
        self, lat: np.ndarray, dist: Optional[np.ndarray] = None
    ) -> None:
        """Attach the dense UG-row × peering-column matrices.

        ``lat`` is indexed ``[ug row, peering column]`` with UG rows in
        ``scenario.user_groups`` order and peering columns in deployment
        order.  Slot encoding: ``nan`` = not computed (falls back to the
        latency oracle), ``+inf`` = computed but unmeasurable (``None``),
        anything else = latency in ms.  ``dist`` (optional, same shape)
        carries great-circle UG→ingress distances.
        """
        if dist is not None and dist.shape != lat.shape:
            raise ValueError(
                f"distance matrix shape {dist.shape} != latency {lat.shape}"
            )
        self._lat_matrix = lat
        self._dist_matrix = dist

    def release_latency_matrix(self) -> None:
        """Detach the dense matrices (pool teardown / evaluator reset).

        Releasing never changes what the evaluator returns: unseen slots
        simply fall back to the deterministic latency source.
        """
        self._lat_matrix = None
        self._dist_matrix = None

    @property
    def latency_matrix(self) -> Optional[np.ndarray]:
        return self._lat_matrix

    @property
    def distance_matrix(self) -> Optional[np.ndarray]:
        return self._dist_matrix

    # -- lifecycle -----------------------------------------------------------

    def warmup(self) -> None:
        """Force ahead-of-time work (JIT compilation, device checks).

        Called once by :func:`resolve_backend` inside the
        ``kernels.compile_s`` timer; raising here triggers the numpy
        fallback for explicitly requested backends.
        """

    # -- elementwise kernels -------------------------------------------------

    def initial_gains(self, base: np.ndarray, lat: np.ndarray) -> np.ndarray:
        """Per-row initial-heap gain: ``max(0, base - lat)``, NaN → 0.

        ``lat`` uses ``nan`` for unmeasurable ingresses; those rows
        contribute zero (``np.fmax`` semantics).  The caller performs the
        ``vol @ gain`` reduction on the host.
        """
        raise NotImplementedError

    def refresh_contrib(
        self,
        dist: np.ndarray,
        lat: np.ndarray,
        vol: np.ndarray,
        d0: np.ndarray,
        csum: np.ndarray,
        ccnt: np.ndarray,
        ob: np.ndarray,
        base: np.ndarray,
        d_reuse: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The fused refresh-marginal vector expression, row-for-row.

        Returns ``(contrib, shrink)``: per-row volume-weighted
        improvements and the boolean mask of rows where ``dist < d0 <
        inf`` (the reuse window would shrink, so ``csum``/``ccnt`` are
        stale), which come back zeroed.  A guard: the shard passes such
        rows with ``d0 = dist`` and the kept set re-read at the shrunken
        window, so the mask stays clear.  The caller performs the
        ``contrib.sum()`` reduction on the host.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class _BackendSpec:
    name: str
    factory: Callable[[], ComputeBackend]
    probe: Callable[[], bool]


_REGISTRY: Dict[str, _BackendSpec] = {}

#: Preference order ``resolve_backend("auto")`` walks.  cupy is excluded:
#: host↔device transfers only pay off on very large worlds, so the GPU
#: path is explicit opt-in.
AUTO_ORDER: Tuple[str, ...] = ("numba", "numpy")


def register_backend(
    name: str,
    factory: Callable[[], ComputeBackend],
    *,
    probe: Callable[[], bool] = lambda: True,
) -> None:
    """Register ``factory`` under ``name``.

    ``factory`` returns a *fresh* backend instance per call (instances are
    stateful — they carry one evaluator's bound matrices).  ``probe`` is a
    cheap availability check (an import test); it gates
    :func:`available_backends` without paying instantiation or JIT cost.
    """
    _REGISTRY[name] = _BackendSpec(name=name, factory=factory, probe=probe)


def registered_backends() -> Tuple[str, ...]:
    """Every registered backend name, available or not."""
    return tuple(sorted(_REGISTRY))


def available_backends() -> Tuple[str, ...]:
    """Registered backends whose availability probe passes."""
    return tuple(
        sorted(name for name, spec in _REGISTRY.items() if _probe_ok(spec))
    )


def _probe_ok(spec: _BackendSpec) -> bool:
    try:
        return bool(spec.probe())
    except Exception:  # pragma: no cover - defensive: probes should not raise
        return False


def get_backend(name: str) -> ComputeBackend:
    """A fresh instance of the named backend (no warmup, no fallback).

    Raises ``ValueError`` for names never registered and
    :class:`BackendUnavailable` when the backend's imports are missing —
    callers wanting graceful degradation use :func:`resolve_backend`.
    """
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ValueError(
            f"unknown compute backend {name!r}; registered: "
            f"{', '.join(registered_backends())}"
        )
    return spec.factory()


def _warmed(name: str) -> ComputeBackend:
    backend = get_backend(name)
    with METRICS.timed("kernels.compile_s"):
        backend.warmup()
    return backend


def resolve_backend(name: str = "auto") -> ComputeBackend:
    """Resolve a backend name to a warmed-up instance (see module docs).

    ``"auto"`` picks the best available backend, skipping failures
    silently.  An explicit name that cannot be honored falls back to the
    numpy reference with a ``kernels.fallbacks`` count, a
    ``backend_fallback`` journal event, and a ``RuntimeWarning`` — never
    an exception (unknown names still raise ``ValueError``: that is a
    configuration typo, not a degraded environment).
    """
    if name == "auto":
        for candidate in AUTO_ORDER:
            spec = _REGISTRY.get(candidate)
            if spec is None or not _probe_ok(spec):
                continue
            try:
                return _warmed(candidate)
            except Exception:  # noqa: BLE001 - auto skips broken candidates
                continue
        return _warmed("numpy")
    if name == "numpy":
        return _warmed("numpy")
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown compute backend {name!r}; registered: "
            f"{', '.join(registered_backends())}"
        )
    try:
        return _warmed(name)
    except Exception as exc:  # noqa: BLE001 - degradation, never a crash
        METRICS.counter("kernels.fallbacks").add()
        emit_event("backend_fallback", backend=name, reason=str(exc))
        warnings.warn(
            f"compute backend {name!r} unavailable ({exc}); "
            "falling back to the numpy reference backend",
            RuntimeWarning,
            stacklevel=2,
        )
        return _warmed("numpy")


def coerce_backend(
    backend: Union[str, ComputeBackend, None]
) -> ComputeBackend:
    """Normalize a config value to a backend instance.

    ``None`` means "the numpy reference, no resolution ceremony" — the
    default for directly constructed evaluators.  Strings go through
    :func:`resolve_backend`; instances pass through untouched.
    """
    if backend is None:
        return get_backend("numpy")
    if isinstance(backend, ComputeBackend):
        return backend
    if isinstance(backend, str):
        return resolve_backend(backend)
    raise TypeError(
        f"backend must be a name, a ComputeBackend, or None, not "
        f"{type(backend)!r}"
    )
