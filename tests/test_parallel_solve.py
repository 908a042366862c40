"""Differential verification: sharded parallel solve vs the serial solver.

The sharded source (``repro.parallel``) promises **bit-identical** results
to the serial solve for every worker count — same marginals, same accepted
pairs, same benefit curves, same learned-model evolution, same journal span
structure.  This suite is the proof:

* a marginal test records every refreshed gain the heap sees and requires
  the same floats, bit for bit, for 0, 2 and 3 workers;
* golden tests pin serial and parallel output to the stored
  ``tests/data/golden_solve_configs.json`` fixtures (azure at the slow tier);
* differential tests run the full learning loop serially and sharded and
  compare every float the iterations record, plus the routing model's final
  preference snapshot (exercising mid-solve ``observe()`` epoch bumps);
* a journal test requires the traced span stream to be byte-identical;
* fault tests kill workers (directly and through a ``WorkerCrash`` chaos
  schedule) and require the serial fallback to produce the same answer.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.parallel import (
    ParallelSolver,
    WorkerPoolError,
    arm_worker_faults,
    disable_parallel,
    enable_parallel,
    parallel_enabled,
)
from repro.scenario import azure_scenario, prototype_scenario, tiny_scenario
from repro.telemetry import METRICS, telemetry_session

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_solve_configs.json"


def config_pairs(config):
    """Canonical [prefix, peering] pair list for comparison."""
    return sorted(
        [prefix, pid]
        for prefix in config.prefixes
        for pid in config.peerings_for(prefix)
    )


def curve_tuples(orchestrator):
    """The budget curve as exact float tuples (no tolerance)."""
    return [
        (
            point.prefixes_used,
            point.pairs_used,
            point.estimated_benefit,
            point.upper_benefit,
            point.lower_benefit,
            point.mean_benefit,
        )
        for point in orchestrator.budget_curve
    ]


def model_snapshot(orchestrator):
    """A comparable image of the routing model's learned preferences."""
    return sorted(
        orchestrator.model.snapshot_preferences().items(), key=repr
    )


def iteration_tuples(result):
    """Every float and count an IterationRecord pins down, exactly."""
    return [
        (
            record.iteration,
            config_pairs(record.config),
            record.expected_benefit,
            record.realized_benefit,
            record.upper_benefit,
            record.estimated_benefit,
            record.lower_benefit,
            record.new_preferences,
        )
        for record in result.iterations
    ]


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenParallel:
    """Parallel solves reproduce the stored serial goldens bit-for-bit."""

    @pytest.mark.parametrize(
        "name,seed,workers",
        [
            ("tiny_seed0", 0, 2),
            ("tiny_seed3", 3, 2),
            ("tiny_seed3", 3, 4),
        ],
    )
    def test_tiny_matches_golden(self, goldens, name, seed, workers):
        golden = goldens[name]
        with PainterOrchestrator(
            tiny_scenario(seed=seed),
            OrchestratorConfig(prefix_budget=golden["budget"], workers=workers),
        ) as orchestrator:
            config = orchestrator.solve()
        assert config_pairs(config) == golden["pairs"]

    def test_prototype_matches_golden(self, goldens):
        golden = goldens["prototype_seed0"]
        with PainterOrchestrator(
            prototype_scenario(seed=0),
            OrchestratorConfig(prefix_budget=golden["budget"], workers=2),
        ) as orchestrator:
            config = orchestrator.solve()
        assert config_pairs(config) == golden["pairs"]

    @pytest.mark.slow
    def test_azure_matches_golden(self, goldens):
        golden = goldens["azure_seed0"]
        with PainterOrchestrator(
            azure_scenario(seed=0),
            OrchestratorConfig(prefix_budget=golden["budget"], workers=4),
        ) as orchestrator:
            config = orchestrator.solve()
        assert config_pairs(config) == golden["pairs"]


class TestDifferentialSolve:
    """Serial vs sharded single solves: pairs and curves bit-identical."""

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_solve_and_curve_identical(self, seed, workers):
        scenario = tiny_scenario(seed=seed)
        serial = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=5))
        serial_config = serial.solve(record_curve=True)
        with PainterOrchestrator(
            scenario, OrchestratorConfig(prefix_budget=5, workers=workers)
        ) as parallel:
            parallel_config = parallel.solve(record_curve=True)
            assert config_pairs(parallel_config) == config_pairs(serial_config)
            assert curve_tuples(parallel) == curve_tuples(serial)

    def test_parallel_path_actually_engaged(self):
        METRICS.reset()
        with PainterOrchestrator(
            tiny_scenario(seed=3), OrchestratorConfig(prefix_budget=3, workers=2)
        ) as orchestrator:
            orchestrator.solve()
            assert METRICS.counter("parallel.solve_calls").value == 1
            assert METRICS.counter("parallel.fallbacks").value == 0
            assert orchestrator._parallel is not None
            assert orchestrator._parallel.pool.alive()

    def test_pool_persists_across_solves(self):
        with PainterOrchestrator(
            tiny_scenario(seed=3), OrchestratorConfig(prefix_budget=3, workers=2)
        ) as orchestrator:
            orchestrator.solve()
            first_pool = orchestrator._parallel.pool
            orchestrator.solve()
            assert orchestrator._parallel.pool is first_pool


class TestMarginalIdentity:
    """Serial ≡ sharded per *marginal*, not only per configuration.

    Equal configurations can hide marginals that differ in the last ulp
    (they did, while the pool summed shrink-row terms in a different order
    than the serial solve).  Every refreshed marginal the heap sees — those
    re-pushed and those accepted — must be the same Python float, bit for
    bit, for every worker count.
    """

    @staticmethod
    def _marginals(scenario, budget, workers, learned, monkeypatch):
        import heapq

        from repro.telemetry import Histogram

        seen = []
        real_push, real_observe = heapq.heappush, Histogram.observe

        def push(heap, item):
            assert type(item[0]) is float
            seen.append(("push", item[2], item[0].hex()))
            real_push(heap, item)

        def observe(histogram, value):
            if histogram.name == "orchestrator.marginal_benefit":
                assert type(value) is float
                seen.append(("accept", value.hex()))
            real_observe(histogram, value)

        config = OrchestratorConfig(prefix_budget=budget, workers=workers)
        with PainterOrchestrator(scenario, config) as orchestrator:
            if learned:
                orchestrator.learn(iterations=1)
            with monkeypatch.context() as patch:
                patch.setattr(heapq, "heappush", push)
                patch.setattr(Histogram, "observe", observe)
                orchestrator.solve()
            if workers:
                assert METRICS.counter("parallel.fallbacks").value == 0
        return seen

    @pytest.mark.parametrize(
        "factory,budget,learned",
        [
            pytest.param(tiny_scenario, 4, False, id="tiny-cold"),
            pytest.param(tiny_scenario, 4, True, id="tiny-learned"),
            pytest.param(prototype_scenario, 6, False, id="prototype-cold"),
            # Three learning iterations at prototype scale: a minute.
            pytest.param(
                prototype_scenario, 6, True, id="prototype-learned",
                marks=pytest.mark.slow,
            ),
        ],
    )
    def test_every_marginal_bit_identical(
        self, factory, budget, learned, monkeypatch
    ):
        scenario = factory(seed=0)
        METRICS.reset()
        serial = self._marginals(scenario, budget, 0, learned, monkeypatch)
        assert any(kind == "push" for kind, *_ in serial)
        for workers in (2, 3):
            sharded = self._marginals(
                scenario, budget, workers, learned, monkeypatch
            )
            assert sharded == serial, f"workers={workers}"


class TestDifferentialLearn:
    """Full learning loops: every recorded float and the model evolution."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_learn_identical_on_tiny(self, workers):
        scenario = tiny_scenario(seed=3)
        serial = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=4))
        serial_result = serial.learn(iterations=3)
        with PainterOrchestrator(
            scenario, OrchestratorConfig(prefix_budget=4, workers=workers)
        ) as parallel:
            parallel_result = parallel.learn(iterations=3)
            assert iteration_tuples(parallel_result) == iteration_tuples(
                serial_result
            )
            # The learned models converged to identical preference state,
            # which means every mid-solve epoch bump replayed identically.
            assert model_snapshot(parallel) == model_snapshot(serial)

    @pytest.mark.slow
    def test_learn_identical_on_prototype(self):
        scenario = prototype_scenario(seed=0)
        serial = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=6))
        serial_result = serial.learn(iterations=3)
        with PainterOrchestrator(
            scenario, OrchestratorConfig(prefix_budget=6, workers=4)
        ) as parallel:
            parallel_result = parallel.learn(iterations=3)
            assert iteration_tuples(parallel_result) == iteration_tuples(
                serial_result
            )
            assert model_snapshot(parallel) == model_snapshot(serial)


class TestJournalIdentity:
    """The traced span stream must not betray which path ran."""

    @staticmethod
    def _traced_learn(workers):
        scenario = tiny_scenario(seed=3)
        with telemetry_session("parallel-identity") as journal:
            config = OrchestratorConfig(prefix_budget=3, workers=workers)
            with PainterOrchestrator(scenario, config) as orchestrator:
                orchestrator.learn(iterations=2)
        return journal.to_jsonl()

    def test_journal_byte_identical(self):
        assert self._traced_learn(0) == self._traced_learn(2)


class TestFallback:
    """Worker death degrades gracefully to an identical serial answer."""

    def test_dead_pool_rebuilt_between_solves(self):
        with PainterOrchestrator(
            tiny_scenario(seed=3), OrchestratorConfig(prefix_budget=3, workers=2)
        ) as orchestrator:
            first = orchestrator.solve()
            orchestrator._parallel.pool.kill_worker(0)
            METRICS.reset()
            second = orchestrator.solve()  # rebuilds the pool, stays parallel
            assert config_pairs(second) == config_pairs(first)
            assert METRICS.counter("parallel.solve_calls").value == 1
            assert METRICS.counter("parallel.fallbacks").value == 0

    def test_mid_solve_death_falls_back_serial(self, monkeypatch):
        scenario = tiny_scenario(seed=3)
        reference = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=3)).solve()
        with PainterOrchestrator(
            scenario, OrchestratorConfig(prefix_budget=3, workers=2)
        ) as orchestrator:
            solver = orchestrator._ensure_parallel(2)
            solver.pool.kill_worker(0)
            # Hide the death from the pre-solve liveness check so the solve
            # itself trips over the dead worker (the mid-solve crash path).
            monkeypatch.setattr(solver.pool, "alive", lambda: True)
            METRICS.reset()
            config = orchestrator.solve()
            assert config_pairs(config) == config_pairs(reference)
            assert METRICS.counter("parallel.fallbacks").value == 1
            # The breaker pins later solves to the serial path: the failed
            # attempt counted one parallel call and no further ones accrue.
            assert orchestrator._parallel_broken
            attempts = METRICS.counter("parallel.solve_calls").value
            orchestrator.solve()
            assert METRICS.counter("parallel.solve_calls").value == attempts

    def test_direct_solver_raises_on_dead_worker(self):
        scenario = tiny_scenario(seed=3)
        orchestrator = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=3))
        solver = ParallelSolver(orchestrator, 2)
        try:
            solver.pool.kill_worker(1)
            with pytest.raises(WorkerPoolError):
                solver.solve()
            assert solver.pool.broken
        finally:
            solver.close()
            orchestrator.close()

    def test_worker_crash_fault_event(self):
        """A chaos-schedule WorkerCrash kills the worker; solve still lands."""
        from repro.faults import FaultInjector, FaultSchedule, WorkerCrash
        from repro.simulation.events import EventLoop

        scenario = tiny_scenario(seed=3)
        reference = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=3)).solve()
        with PainterOrchestrator(
            scenario, OrchestratorConfig(prefix_budget=3, workers=2)
        ) as orchestrator:
            first = orchestrator.solve()
            assert config_pairs(first) == config_pairs(reference)

            injector = FaultInjector(
                FaultSchedule(events=(WorkerCrash(start_s=5.0, worker_index=1),))
            )
            arm_worker_faults(injector, orchestrator._parallel.pool)
            loop = EventLoop()
            injector.arm(loop)
            loop.run_until(10.0)
            assert not orchestrator._parallel.pool.alive()

            config = orchestrator.solve()  # rebuild-or-fallback, same answer
            assert config_pairs(config) == config_pairs(reference)


class TestKillSwitch:
    def test_disable_parallel_forces_serial(self):
        assert parallel_enabled()
        disable_parallel()
        try:
            METRICS.reset()
            with PainterOrchestrator(
                tiny_scenario(seed=3),
                OrchestratorConfig(prefix_budget=3, workers=2),
            ) as orchestrator:
                orchestrator.solve()
            assert METRICS.counter("parallel.solve_calls").value == 0
        finally:
            enable_parallel()

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            OrchestratorConfig(prefix_budget=3, workers=-1)

    def test_solver_requires_two_workers(self):
        orchestrator = PainterOrchestrator(tiny_scenario(seed=3), OrchestratorConfig(prefix_budget=3))
        with pytest.raises(ValueError):
            ParallelSolver(orchestrator, 1)


class TestInvalidateFailure:
    """``ParallelSolver.invalidate`` must surface pool failure, not eat it."""

    def test_invalidate_reports_false_on_broken_pool(self):
        scenario = tiny_scenario(seed=3)
        orchestrator = PainterOrchestrator(
            scenario, OrchestratorConfig(prefix_budget=3)
        )
        solver = ParallelSolver(orchestrator, 2)
        try:
            assert solver.invalidate((1, 2)) is True
            solver.pool.kill_worker(0)
            assert solver.invalidate((3,)) is False
            assert solver.pool.broken
            # Already-broken pools short-circuit without broadcasting.
            assert solver.invalidate((4,)) is False
        finally:
            solver.close()
            orchestrator.close()

    def test_failed_invalidate_trips_breaker_in_observe_path(self, monkeypatch):
        """A learned-set bump that can't reach the workers must tear the
        pool down immediately, not leave the next solve to time out."""
        scenario = tiny_scenario(seed=3)
        with PainterOrchestrator(
            scenario, OrchestratorConfig(prefix_budget=3, workers=2)
        ) as orchestrator:
            config = orchestrator.solve()
            solver = orchestrator._parallel
            assert solver is not None
            monkeypatch.setattr(solver, "invalidate", lambda ug_ids: False)
            METRICS.reset()
            report = orchestrator.execute_and_observe(config, iteration=0)
            assert report.learned > 0  # the broadcast was actually needed
            assert orchestrator._parallel is None
            assert orchestrator._parallel_broken
            assert METRICS.counter("parallel.fallbacks").value == 1


class TestWorkerTimeoutConfig:
    def test_timeout_validation(self):
        with pytest.raises(ValueError):
            OrchestratorConfig(prefix_budget=3, worker_timeout_s=0.0)
        with pytest.raises(ValueError):
            OrchestratorConfig(prefix_budget=3, worker_timeout_s=-5.0)
        OrchestratorConfig(prefix_budget=3, worker_timeout_s=12.5)

    def test_timeout_reaches_the_pool(self):
        scenario = tiny_scenario(seed=3)
        with PainterOrchestrator(
            scenario,
            OrchestratorConfig(prefix_budget=3, workers=2, worker_timeout_s=42.0),
        ) as orchestrator:
            solver = orchestrator._ensure_parallel(2)
            assert solver is not None
            assert solver.pool.timeout_s == 42.0

    def test_default_timeout_when_unset(self):
        from repro.parallel.pool import DEFAULT_TIMEOUT_S

        scenario = tiny_scenario(seed=3)
        with PainterOrchestrator(
            scenario, OrchestratorConfig(prefix_budget=3, workers=2)
        ) as orchestrator:
            solver = orchestrator._ensure_parallel(2)
            assert solver is not None
            assert solver.pool.timeout_s == DEFAULT_TIMEOUT_S
