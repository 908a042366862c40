"""The row side of a solve: shards, their parent-side reducer, the pool.

``repro.core.greedy.lazy_greedy`` drives every solve; the marginals it asks
for are reduced from UG rows by :class:`RowSource` — in-process over one
:class:`ShardState` for the serial solve, or (:class:`ShardedSource`) over
``N`` of them held by persistent fork workers when
``OrchestratorConfig(workers=N)`` (or ``repro solve --workers N``) asks for
intra-solve parallelism.  The latency and distance matrices then live in
``multiprocessing.shared_memory`` — workers fill and read them as plain
numpy views, and nothing scenario-sized ever crosses a pipe.  Results are
**bit-identical** to the serial path for every worker count, marginal by
marginal: shards compute only elementwise per-row slices, and the one
reducer performs every floating-point reduction over canonically ordered
full arrays (see :mod:`repro.parallel.shard` for the invariants).

Process-wide gating: :func:`disable_parallel` turns the subsystem off for
this process (orchestrators silently run serial).  The experiment harness
calls it inside its own pool workers so an ``--jobs`` fan-out can never
nest a solve pool inside an experiment worker.
"""

from repro.parallel.pool import (
    DEFAULT_TIMEOUT_S,
    WorkerPool,
    WorkerPoolError,
    arm_worker_faults,
)
from repro.parallel.shard import (
    ShardContext,
    ShardState,
    learned_layout,
    shard_ranges,
)
from repro.parallel.shared import SharedArray
from repro.parallel.solver import (
    SPECULATIVE_REFRESHES,
    LearnedRows,
    ParallelSolver,
    RowSource,
    ShardedSource,
)

_ENABLED = True


def parallel_enabled() -> bool:
    """Whether this process may create solve worker pools."""
    return _ENABLED


def disable_parallel() -> None:
    """Force every orchestrator in this process to solve serially.

    Called by the experiment harness's pool initializer: experiment workers
    are themselves one-per-core, so nesting a solve pool inside each would
    oversubscribe the machine (and fork from an already-forked child).
    """
    global _ENABLED
    _ENABLED = False


def enable_parallel() -> None:
    """Re-allow solve worker pools (undo :func:`disable_parallel`)."""
    global _ENABLED
    _ENABLED = True


__all__ = [
    "DEFAULT_TIMEOUT_S",
    "LearnedRows",
    "ParallelSolver",
    "RowSource",
    "SPECULATIVE_REFRESHES",
    "SharedArray",
    "ShardContext",
    "ShardState",
    "ShardedSource",
    "WorkerPool",
    "WorkerPoolError",
    "arm_worker_faults",
    "disable_parallel",
    "enable_parallel",
    "learned_layout",
    "parallel_enabled",
    "shard_ranges",
]
