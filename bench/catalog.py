"""The metric catalogue: every end-to-end and per-layer metric, by name.

``BENCHMARK.json`` must list exactly these (``bench/tests`` checks it).  A
per-layer metric reads 0 on a workload that never enters its layer — that is
the "should not move" column of the interaction table in the README.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Tuple

from bench.spans import span_durations

#: (name, unit, better)
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("cold_solve_s", "s", "lower"),
    ("step_p50_s", "s", "lower"),
    ("steps_total_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("benefit_ms", "ms/vol", "higher"),
]


class View:
    """What one traced run observed, in the shapes the formulas below read.

    Time inside the steps, counts and walls are those of one pass (the last);
    a cost paid once per set-up is the fastest sample of any pass.
    """

    def __init__(
        self,
        spans: List[Dict[str, Any]],
        this_pass: int,
        counts: Mapping[str, float],
        walls: List[float],
        colds: List[float],
        extras: Mapping[str, float],
        recorder_cost_s: float,
    ) -> None:
        closed = [s for s in spans if s["end"] is not None]
        mine = [s for s in closed if s["pass"] in (this_pass, None)]
        self._in_steps = span_durations([s for s in mine if s["step"] is not None])
        self._outside = span_durations([s for s in mine if s["step"] is None])
        self._per_setup = span_durations([s for s in closed if s["step"] is None])
        #: ``METRICS`` counter deltas over the steps, plus ``<cache>.hits``
        #: and ``<cache>.misses``.
        self.counts = counts
        self.walls = walls
        self.colds = colds
        self.extras = extras
        self.recorder_cost_s = recorder_cost_s

    def in_steps(self, span: str) -> float:
        return sum(self._in_steps.get(span, ()))

    def outside(self, span: str) -> float:
        return sum(self._outside.get(span, ()))

    def fastest(self, span: str) -> float:
        """Fastest sample of a span recorded once per set-up."""
        return min(self._per_setup.get(span, (0.0,)))

    def hit_rate(self, cache: str) -> float:
        hits = self.counts.get(f"{cache}.hits", 0)
        lookups = hits + self.counts.get(f"{cache}.misses", 0)
        return hits / lookups if lookups else 0.0


Formula = Callable[[View], float]


def _steps(span: str) -> Formula:
    return lambda v: v.in_steps(span)


def _anywhere(span: str) -> Formula:
    return lambda v: v.in_steps(span) + v.outside(span)


def _per_setup_plus_steps(span: str) -> Formula:
    """Cost per set-up (fastest sample) plus whatever the steps spend there."""
    return lambda v: v.fastest(span) + v.in_steps(span)


def _count(counter: str) -> Formula:
    return lambda v: float(v.counts.get(counter, 0))


def _extra(key: str) -> Formula:
    return lambda v: float(v.extras.get(key, 0.0))


def _hit_rate(cache: str) -> Formula:
    return lambda v: v.hit_rate(cache)


def _ratio(top: Formula, bottom: Formula) -> Formula:
    def formula(v: View) -> float:
        denominator = bottom(v)
        return top(v) / denominator if denominator else 0.0

    return formula


def _sum(*parts: Formula) -> Formula:
    return lambda v: sum(part(v) for part in parts)


def _flows_per_s(kind: str) -> Formula:
    return _ratio(_extra(f"dataplane.{kind}_flows"), _steps(f"dataplane.{kind}"))


def _controller_core(v: View) -> float:
    driver = v.in_steps("soak.driver")
    return sum(v.walls) - driver - v.in_steps("soak.snapshot") if driver else 0.0


_FAST = _count("evaluator.scan_fast_queries")
_SLOW = _count("evaluator.scan_slow_queries")
_MARGINAL = _count("orchestrator.marginal_evals")
_NAIVE = _count("orchestrator.naive_marginal_evals")
_REUSED = _extra("orchestrator.warm_reused_evals")
_PATCHED = _extra("orchestrator.warm_patched_evals")
_FRESH = _extra("orchestrator.warm_fresh_evals")

#: (name, unit, better, formula).  Times are seconds inside the steps unless
#: the name says otherwise; counts are ``METRICS.snapshot()`` deltas over the
#: steps or come from the program's public result objects.
PER_LAYER: List[Tuple[str, str, str, Formula]] = [
    # scenario (+ topology, usergroups, measurement)
    ("scenario.build_s", "s", "lower", lambda v: v.fastest("scenario.build")),
    ("orchestrator.construct_s", "s", "lower",
     lambda v: v.fastest("orchestrator.construct")),
    # core.benefit
    ("benefit.materialize_s", "s", "lower", _anywhere("benefit.materialize")),
    ("benefit.evaluate_s", "s", "lower", _steps("benefit.evaluate")),
    ("benefit.scan_fast_queries", "count", "lower", _FAST),
    ("benefit.scan_slow_queries", "count", "lower", _SLOW),
    ("benefit.slow_path_share", "ratio", "lower", _ratio(_SLOW, _sum(_SLOW, _FAST))),
    ("benefit.latency_matrix_hit_rate", "ratio", "higher",
     _hit_rate("evaluator.latency_matrix")),
    ("benefit.expected_latency_hit_rate", "ratio", "higher",
     _hit_rate("evaluator.expected_latency")),
    # core.orchestrator
    ("orchestrator.solve_cold_s", "s", "lower",
     lambda v: min(v.colds)),
    ("orchestrator.learned_solve_s", "s", "lower", _steps("orchestrator.learned_solve")),
    ("orchestrator.warm_volume_s", "s", "lower", _steps("orchestrator.warm_volume")),
    ("orchestrator.warm_burst_s", "s", "lower", _steps("orchestrator.warm_burst")),
    ("orchestrator.warm_struct_chosen_s", "s", "lower",
     _steps("orchestrator.warm_struct_chosen")),
    ("orchestrator.warm_struct_unchosen_s", "s", "lower",
     _steps("orchestrator.warm_struct_unchosen")),
    ("orchestrator.apply_delta_s", "s", "lower", _steps("orchestrator.apply_delta")),
    ("orchestrator.observe_s", "s", "lower", _steps("orchestrator.observe")),
    ("orchestrator.marginal_evals", "count", "lower", _MARGINAL),
    ("orchestrator.naive_marginal_evals", "count", "lower", _NAIVE),
    ("orchestrator.lazy_ratio", "ratio", "higher", _ratio(_NAIVE, _MARGINAL)),
    ("orchestrator.heap_repushes", "count", "lower",
     _count("orchestrator.heap_repushes")),
    ("orchestrator.warm_reused_evals", "count", "higher", _REUSED),
    ("orchestrator.warm_patched_evals", "count", "higher", _PATCHED),
    ("orchestrator.warm_fresh_evals", "count", "lower", _FRESH),
    ("orchestrator.warm_reuse_ratio", "ratio", "higher",
     _ratio(_REUSED, _sum(_REUSED, _PATCHED, _FRESH))),
    # core.routing_model, routing.ground_truth
    ("routing_model.learned_ugs", "count", "higher", _extra("routing_model.learned_ugs")),
    ("routing_model.preference_pairs", "count", "lower",
     _extra("routing_model.preference_pairs")),
    ("routing_model.candidates_hit_rate", "ratio", "higher",
     _hit_rate("routing_model.candidates")),
    ("ground_truth.realized_benefit_s", "s", "lower",
     _anywhere("ground_truth.realized_benefit")),
    # core.installation, traffic_manager.selection
    ("installation.install_s", "s", "lower",
     _per_setup_plus_steps("installation.install")),
    ("selection.update_s", "s", "lower", _per_setup_plus_steps("selection.update")),
    # traffic_manager.dataplane
    ("dataplane.bulk_admit_flows_per_s", "1/s", "higher", _flows_per_s("bulk_admit")),
    ("dataplane.trickle_admit_flows_per_s", "1/s", "higher",
     _flows_per_s("trickle_admit")),
    ("dataplane.reforward_flows_per_s", "1/s", "higher", _flows_per_s("reforward")),
    ("dataplane.end_flows_per_s", "1/s", "higher",
     _ratio(_count("tm.flows_ended"), _steps("dataplane.end"))),
    ("dataplane.remap_s", "s", "lower", _steps("dataplane.remap")),
    ("dataplane.remap_flows_moved", "count", "higher", _count("tm.flows_remapped")),
    ("dataplane.live_flows_peak", "count", "higher",
     _extra("dataplane.live_flows_peak")),
    ("dataplane.unroutable", "count", "lower", _count("tm.flows_unroutable")),
    ("dataplane.snapshot_s", "s", "lower", _anywhere("dataplane.snapshot")),
    ("dataplane.restore_s", "s", "lower", _anywhere("dataplane.restore")),
    ("tm.flows_admitted", "count", "higher", _count("tm.flows_admitted")),
    ("tm.flows_existing", "count", "higher", _count("tm.flows_existing")),
    ("tm.flows_ended", "count", "higher", _count("tm.flows_ended")),
    ("tm.flows_remapped", "count", "higher", _count("tm.flows_remapped")),
    # controller, soak
    ("controller.window_s", "s", "lower", _extra("controller.window_s")),
    ("controller.first_window_s", "s", "lower", _extra("controller.first_window_s")),
    ("controller.core_s", "s", "lower", _controller_core),
    ("soak.driver_s", "s", "lower", _steps("soak.driver")),
    ("soak.snapshot_s", "s", "lower", _steps("soak.snapshot")),
    ("soak.forward_wall_s", "s", "lower", _extra("soak.forward_wall_s")),
    ("soak.load_batch_s", "s", "lower", _anywhere("soak.load_batch")),
    ("checkpoint.save_s", "s", "lower", _steps("checkpoint.save")),
    ("checkpoint.bytes", "bytes", "lower", _extra("checkpoint.bytes")),
    ("controller.warm_iterations", "count", "higher",
     _extra("controller.warm_iterations")),
    ("controller.cold_iterations", "count", "lower",
     _extra("controller.cold_iterations")),
    ("controller.installs", "count", "lower", _count("controller.installs")),
    ("controller.checkpoints", "count", "higher", _count("controller.checkpoints")),
    ("soak.accounting_errors", "count", "lower", _extra("soak.accounting_errors")),
    # bench (diagnostics)
    ("bench.calibration_s", "s", "lower", _extra("bench.calibration_s")),
    ("bench.trace_overhead_ratio", "ratio", "lower",
     lambda v: sum(v.walls) / (sum(v.walls) - v.recorder_cost_s)),
    ("bench.loadgen_s", "s", "lower", _anywhere("bench.loadgen")),
    ("bench.check_s", "s", "lower", _anywhere("bench.check")),
    ("scaling.cold_solve_s.tiny", "s", "lower", _extra("scaling.cold_solve_s.tiny")),
    ("scaling.cold_solve_s.prototype", "s", "lower",
     _extra("scaling.cold_solve_s.prototype")),
    ("scaling.cold_solve_s.azure", "s", "lower", _extra("scaling.cold_solve_s.azure")),
    ("scaling.exponent", "ratio", "lower", _extra("scaling.exponent")),
]


def layer_metrics(view: View) -> Dict[str, Dict[str, Any]]:
    return {
        name: {"value": float(formula(view)), "unit": unit}
        for name, unit, _better, formula in PER_LAYER
    }
