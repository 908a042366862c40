"""Pluggable compute backends for the marginal-evaluation hot loops.

Public surface::

    from repro.kernels import resolve_backend

    backend = resolve_backend("numba")      # numpy fallback if missing
    evaluator = BenefitEvaluator(scenario, model, backend=backend)

See :mod:`repro.kernels.api` for the bit-exactness contract (backends are
elementwise-only; every float reduction stays on the host numpy path) and
the selection/fallback policy, :mod:`repro.kernels.layout` for the
memory-budgeted dense-matrix planning the ``mega`` preset uses.

Importing this package registers the built-in backends: ``numpy`` (always
available — the reference and bit-exactness oracle), ``numba`` and
``cupy`` (optional dependencies, probed at registration).
"""

from repro.kernels.api import (
    AUTO_ORDER,
    BackendUnavailable,
    ComputeBackend,
    available_backends,
    coerce_backend,
    get_backend,
    register_backend,
    registered_backends,
    resolve_backend,
)
from repro.kernels.layout import (
    DEFAULT_CHUNK_BYTES,
    MatrixLayoutPlan,
    MemoryBudgetExceeded,
    plan_matrix_layout,
)
from repro.kernels.numpy_backend import NumpyBackend, initial_gains, refresh_contrib

# Optional backends register themselves on import; the modules import
# cleanly (and register an unavailable probe) when the dependency is
# missing, so `available_backends()` is always truthful.
from repro.kernels import numba_backend as _numba_backend  # noqa: F401
from repro.kernels import cupy_backend as _cupy_backend  # noqa: F401
from repro.kernels.numba_backend import NumbaBackend  # noqa: F401
from repro.kernels.cupy_backend import CupyBackend  # noqa: F401

__all__ = [
    "AUTO_ORDER",
    "BackendUnavailable",
    "ComputeBackend",
    "CupyBackend",
    "DEFAULT_CHUNK_BYTES",
    "MatrixLayoutPlan",
    "MemoryBudgetExceeded",
    "NumbaBackend",
    "NumpyBackend",
    "available_backends",
    "coerce_backend",
    "get_backend",
    "initial_gains",
    "plan_matrix_layout",
    "refresh_contrib",
    "register_backend",
    "registered_backends",
    "resolve_backend",
]
