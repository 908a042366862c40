"""The four workloads and the shape they share.

Every workload is a closed loop with one client: *set-up → cold solve → N
steps of the workload's own kind*, each step issued when the previous one
returned.  ``bench.child`` drives that shape, several times per run (a fresh
workload object per pass, fed the same seeded inputs); a workload only says
what a deployment, a cold solve and a step are for it.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from bench.spans import Recorder


class Ops:
    """Operations attempted / failed (steps, cold solves and checks alike)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def done(self, n: int = 1) -> None:
        """``n`` operations ran to completion."""
        self.attempted += n

    def check(self, ok: bool, what: str) -> bool:
        """A correctness check: one operation, failed when it does not hold."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)

    @property
    def failed(self) -> int:
        return len(self.failures)


def config_pairs(config) -> List[List[int]]:
    """Canonical ``[prefix, peering]`` list (the goldens' format)."""
    return [list(pair) for pair in config.pairs()]


def config_digest(config) -> str:
    canonical = json.dumps(config_pairs(config), separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def golden_pairs(key: str) -> Optional[List[List[int]]]:
    """A golden from ``tests/data/golden_solve_configs.json`` (None if absent)."""
    from bench import REPO

    path = REPO / "tests" / "data" / "golden_solve_configs.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(key, {}).get("pairs")


def materialize_diagnostic(rec: Recorder, world, budget: int) -> None:
    """Span a direct ``precompute_latency_matrix()`` on a fresh world: the
    lazy latency fill a cold solve otherwise pays inside its scan."""
    from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator

    orch = PainterOrchestrator(world, OrchestratorConfig(prefix_budget=budget))
    try:
        with rec.span("benefit.materialize"):
            orch.evaluator.precompute_latency_matrix()
    finally:
        orch.close()


@dataclass
class SolverDeployment:
    """A world, its orchestrator and the latest configuration."""

    world: Any
    orch: Any
    config: Any = None


class Workload:
    """One workload; subclasses fill in the hooks below.

    ``build``/``deploy`` are timed as set-up, ``cold_solve`` as the cold
    solve, ``step`` as a step; everything else runs outside the timed
    regions.
    """

    name = ""
    why = ""
    #: Steps per pass at full size / in ``--quick`` mode.
    steps_full = 0
    steps_quick = 0
    #: Fresh deployments built per pass: each is a set-up sample, the first
    #: is also cold-solved and runs the steps.
    setup_repeats_full = 3
    setup_repeats_quick = 2

    def __init__(self, seed: int, quick: bool, rec: Recorder, scratch: Path) -> None:
        self.seed = seed
        self.quick = quick
        self.rec = rec
        self.scratch = scratch
        self.n_steps = self.steps_quick if quick else self.steps_full
        self.setup_repeats = (
            self.setup_repeats_quick if quick else self.setup_repeats_full
        )

    # -- the shape -----------------------------------------------------------

    def build(self) -> Any:
        """A fresh deployment, up to (not including) its first solve."""
        raise NotImplementedError

    def cold_solve(self, dep: Any):
        """The deployment's first solve; returns the configuration."""
        raise NotImplementedError

    def deploy(self, dep: Any, config) -> None:
        """Set-up that needs the cold configuration (still set-up time)."""

    def warm_up(self, dep: Any, config) -> None:
        """Untimed: bring the kept deployment to its steady state."""

    def next_item(self, dep: Any, index: int) -> Any:
        """Untimed: generate the inputs of step ``index``."""
        return index

    def step(self, dep: Any, item: Any) -> None:
        raise NotImplementedError

    def run_steps(self, dep: Any, ops: Ops) -> List[float]:
        """Issue every step in turn; returns each step's wall seconds."""
        rec = self.rec
        walls: List[float] = []
        for index in range(self.n_steps):
            with rec.span("bench.loadgen"):
                item = self.next_item(dep, index)
            rec.step = index
            started = time.perf_counter()
            span_id = rec.begin("step")
            self.step(dep, item)
            rec.end(span_id)
            walls.append(time.perf_counter() - started)
            rec.step = None
            ops.done()
        return walls

    def teardown(self, dep: Any) -> None:
        """Release what ``build`` opened."""

    # -- after the last step (all untimed) -----------------------------------

    def final_config(self, dep: Any):
        raise NotImplementedError

    def work(self, dep: Any) -> Dict[str, Any]:
        """Work counters that must repeat exactly for a given seed."""
        return {}

    def check(self, dep: Any, cold_config, ops: Ops) -> None:
        """The workload's correctness checks."""

    def diagnostics(self, dep: Any, cold_s: float, ops: Ops) -> Dict[str, float]:
        """Traced run only: direct calls whose cost is a per-layer metric."""
        return {}


def registry() -> Dict[str, type]:
    """Workload classes by name (imports ``repro``; child side only)."""
    from bench.workloads.azure_deltas import AzureDeltas
    from bench.workloads.day_proto import DayProto
    from bench.workloads.learn_p15 import LearnP15
    from bench.workloads.tm_churn import TmChurn

    return {cls.name: cls for cls in (AzureDeltas, LearnP15, DayProto, TmChurn)}


#: Names only, for the parent process (which never imports ``repro``).
WORKLOADS = ("azure-deltas", "learn-p15", "day-proto", "tm-churn")
