"""One workload, one fresh process: ``python -m bench.child`` (spawned by ``bench.cli``).

Drives the shape every workload shares — *set-up → cold solve → N steps* —
as many times over as fit into ``--seconds`` (each time on a fresh
deployment fed the same seeded inputs: a **pass**), measures the end-to-end
metrics, runs the correctness checks outside the timed regions and prints
one JSON document.  With ``--trace 1`` the same code runs under an enabled
:class:`bench.spans.Recorder` and the per-layer metrics and the spans are
produced as well.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from collections import Counter
from dataclasses import dataclass
from statistics import median
from typing import Any, Dict, List

from bench import OUT_DIR, REPO, RUN_SECONDS
from bench.catalog import View, layer_metrics
from bench.spans import Recorder

#: Passes every run makes however slow the machine is (``--quick``: exactly).
MIN_PASSES = 3
QUICK_PASSES = 2


def _counts(snapshot: Dict[str, Any]) -> Counter:
    """Counters and cache hits/misses of a ``METRICS.snapshot()``, flattened."""
    counts = Counter(snapshot["counters"])
    for cache, stats in snapshot["caches"].items():
        counts[f"{cache}.hits"] = stats["hits"]
        counts[f"{cache}.misses"] = stats["misses"]
    return counts


def expected_for(workload: str, seed: int) -> Dict[str, Any]:
    """The frozen work counters of (workload, seed), if recorded."""
    path = REPO / "bench" / "expected.json"
    document = json.loads(path.read_text()) if path.is_file() else {}
    return document.get(workload, {}).get(str(seed), {})


@dataclass
class Pass:
    """What one pass over the workload's shape measured and produced."""

    workload: Any
    dep: Any
    cold_config: Any
    setups: List[float]
    cold_s: float
    walls: List[float]
    #: ``METRICS`` deltas over the steps.
    counts: Counter
    #: Digests, ``benefit_ms`` and work counters: identical in every pass.
    work: Dict[str, Any]
    recorder_cost_s: float


def one_pass(cls, index: int, seed: int, quick: bool, rec: Recorder, scratch, ops) -> Pass:
    """Set-up, cold solve and every step, once, on a fresh deployment."""
    from repro.core.benefit import realized_benefit
    from repro.telemetry import METRICS

    from bench.workloads import config_digest

    rec.pass_index = index
    workload = cls(seed, quick, rec, scratch / f"pass-{index}")
    setups: List[float] = []
    cold: List[Any] = []  # [config, seconds] of this pass's cold solve

    def sample(with_cold: bool):
        """One fresh deployment: a set-up sample, maybe the cold-solve one."""
        started = time.perf_counter()
        dep = workload.build()
        setup_s = time.perf_counter() - started
        if with_cold:
            started = time.perf_counter()
            config = workload.cold_solve(dep)
            cold.extend((config, time.perf_counter() - started))
            ops.done()
        started = time.perf_counter()
        workload.deploy(dep, cold[0])
        setups.append(setup_s + time.perf_counter() - started)
        return dep

    dep = sample(with_cold=True)
    for _ in range(workload.setup_repeats - 1):
        workload.teardown(sample(with_cold=False))
    cold_config, cold_s = cold
    workload.warm_up(dep, cold_config)

    before = _counts(METRICS.snapshot())
    rec.cost_in_steps_s = 0.0
    walls = workload.run_steps(dep, ops)
    counts = _counts(METRICS.snapshot()) - before
    rec.unwrap_all()  # the next pass hooks its own deployment

    final = workload.final_config(dep)
    with rec.span("ground_truth.realized_benefit"):
        benefit = realized_benefit(dep.world, final)
    work = {
        "cold_config": config_digest(cold_config),
        "config": config_digest(final),
        "benefit_ms": benefit,
    }
    work.update(workload.work(dep))
    return Pass(
        workload, dep, cold_config, setups, cold_s, walls, counts, work,
        rec.cost_in_steps_s,
    )


def run(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> Dict[str, Any]:
    from repro.telemetry import TRACER

    from bench.workloads import Ops, registry

    if TRACER.enabled:
        raise RuntimeError("repro.telemetry.TRACER must stay disabled")
    cls = registry()[name]
    rec = Recorder(name, enabled=trace)
    scratch = OUT_DIR / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    ops = Ops()
    passes: List[Pass] = []
    try:
        # -- the passes: as many as fit into the run length ---------------------
        started = time.perf_counter()
        while True:
            if passes:
                # Only the last pass's deployment is kept (for the checks).
                passes[-1].workload.teardown(passes[-1].dep)
                passes[-1].dep = None
            passes.append(one_pass(cls, len(passes), seed, quick, rec, scratch, ops))
            if len(passes) == 1:
                # Read after the first pass: what one deployment needs, however
                # many passes (and how much heap fragmentation) the run holds.
                peak_rss_mb = _peak_rss_mb()
            elapsed = time.perf_counter() - started
            if quick:
                if len(passes) == QUICK_PASSES:
                    break
            elif (
                len(passes) >= MIN_PASSES
                and elapsed + elapsed / len(passes) > seconds
            ):
                break  # another pass would overrun the run length
        rec.pass_index = None
        last = passes[-1]

        # -- checks (untimed) ---------------------------------------------------
        with rec.span("bench.check"):
            ops.check(
                all(p.work == last.work for p in passes),
                "passes over the same inputs disagree: "
                f"{[p.work for p in passes]}",
            )
            last.workload.check(last.dep, last.cold_config, ops)
            expected = {} if quick else expected_for(name, seed)
            if expected:
                ops.check(
                    last.work == expected,
                    f"work counters differ from bench/expected.json: {last.work}",
                )

        # Every item is timed once per pass, on identical work; its FASTEST
        # time is reported, not the median of the passes: see README "Noise".
        setups = [s for p in passes for s in p.setups]
        colds = [p.cold_s for p in passes]
        n_steps = len(last.walls)
        best = [min(p.walls[i] for p in passes) for i in range(n_steps)]
        document: Dict[str, Any] = {
            "workload": name,
            "seed": seed,
            "steps": n_steps,
            "passes": len(passes),
            "e2e": {
                "setup_s": _metric(min(setups), "s", len(setups)),
                "cold_solve_s": _metric(min(colds), "s", len(colds)),
                "step_p50_s": _metric(median(best), "s", n_steps),
                "steps_total_s": _metric(sum(best), "s", n_steps),
                "peak_rss_mb": _metric(peak_rss_mb, "MB", 1),
                "benefit_ms": _metric(last.work["benefit_ms"], "ms/vol", 1),
            },
            "setup_samples_s": setups,
            "cold_samples_s": colds,
            "step_walls_s": best,
            "pass_walls_s": [p.walls for p in passes],
            "work": last.work,
            "checked_against_expected": bool(expected),
        }
        if trace:
            # Per-layer numbers describe the last pass: its spans, counters
            # and result objects are the ones still at hand.
            extras = last.workload.diagnostics(last.dep, min(colds), ops)
            view = View(
                rec.spans,
                len(passes) - 1,
                last.counts,
                last.walls,
                colds,
                extras,
                last.recorder_cost_s,
            )
            document["layers"] = layer_metrics(view)
            document["spans"] = rec.spans
        document["attempted"] = ops.attempted
        document["failed"] = ops.failed
        document["failures"] = ops.failures
        return document
    finally:
        rec.unwrap_all()
        if passes and passes[-1].dep is not None:
            passes[-1].workload.teardown(passes[-1].dep)
        shutil.rmtree(scratch, ignore_errors=True)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value: float, unit: str, samples: int) -> Dict[str, Any]:
    return {"value": value, "unit": unit, "samples": samples}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    document = run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.quick
    )
    json.dump(document, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
