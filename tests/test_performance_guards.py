"""Loose wall-clock guards on the hot paths.

Not benchmarks — regression tripwires: if one of these suddenly takes 10x
longer, an accidental quadratic slipped in somewhere.  Bounds are generous
(CI machines vary); the point is catching order-of-magnitude regressions.
"""

import time

import pytest

from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.scenario import tiny_scenario


def _timed(callable_, limit_s):
    start = time.perf_counter()
    result = callable_()
    elapsed = time.perf_counter() - start
    assert elapsed < limit_s, f"took {elapsed:.2f}s (limit {limit_s}s)"
    return result


class TestPerformanceGuards:
    def test_tiny_scenario_builds_fast(self):
        _timed(lambda: tiny_scenario(seed=9), limit_s=5.0)

    def test_tiny_solve_fast(self):
        world = tiny_scenario(seed=9)
        _timed(
            lambda: PainterOrchestrator(
                world, OrchestratorConfig(prefix_budget=5)
            ).solve(), limit_s=10.0
        )

    def test_anycast_latencies_fast(self):
        world = tiny_scenario(seed=9)
        _timed(world.anycast_latencies, limit_s=5.0)

    def test_bgp_propagation_scales(self):
        """Fifty uncached propagations over the tiny graph finish well
        inside the limit (the simulator memoizes only its tie-breaks and
        compiled adjacency; results are memoized per announcement by
        ``GroundTruthRouting._propagation_cache``)."""
        from repro.bgp.simulator import BGPSimulator

        world = tiny_scenario(seed=9)
        sim = BGPSimulator(world.graph, origin_asn=1)
        targets = sorted({p.peer_asn for p in world.deployment.peerings})

        def run_many():
            for _ in range(50):
                sim.propagate("10.0.0.0/24", targets)

        _timed(run_many, limit_s=5.0)

    def test_failover_simulation_fast(self):
        from repro.traffic_manager.failover import default_fig10_paths, run_failover

        _timed(lambda: run_failover(default_fig10_paths()), limit_s=5.0)

    def test_full_experiment_on_tiny_world_fast(self):
        from repro.experiments.fig11 import run_fig11a, run_fig11b

        world = tiny_scenario(seed=9)
        _timed(lambda: (run_fig11a(scenario=world), run_fig11b(scenario=world)), limit_s=20.0)
