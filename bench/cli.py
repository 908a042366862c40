"""``python -m bench``: run, trace, check and the driver-facing ``measure``.

This side never imports ``repro``: every workload runs in its own fresh
single-threaded subprocess (``bench.child``) and this process only spawns
it, guards it against noisy neighbours and prints what it reported.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median, quantiles
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from bench import OUT_DIR, REPO, RUN_SECONDS
from bench.workloads import WORKLOADS

#: A run whose reference probe is this much slower than the fastest probe of
#: the invocation was disturbed: it is discarded and repeated.  The quiet
#: mode of this machine jitters by +-5 % and its loud mode is 40 % slower;
#: ISSUE.md's 8 % sat inside the jitter and discarded nearly every run.
PROBE_TOLERANCE = 1.15
MAX_RETRIES = 2
PROBE_SLICES = 5


def probe() -> float:
    """Fixed reference work (pure-Python loop + numpy sort), ~0.3 s.

    The median of short slices, so that one preemption does not condemn a
    whole run.  Reported as ``bench.calibration_s``; never used to
    rescale a metric.
    """
    slices = []
    for _ in range(PROBE_SLICES):
        started = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc += i * i % 7
        data = np.random.default_rng(0).random(250_000)
        data.sort()
        slices.append(time.perf_counter() - started)
    return median(slices) * PROBE_SLICES


class Guard:
    """Noisy-neighbour guard shared by every run of one invocation."""

    def __init__(self) -> None:
        self.fastest: Optional[float] = None
        self.discards = 0

    def probe(self) -> float:
        value = probe()
        if self.fastest is None or value < self.fastest:
            self.fastest = value
        return value

    def disturbed(self, *probes: float) -> bool:
        return max(probes) > PROBE_TOLERANCE * self.fastest


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    paths = [str(REPO / "src"), str(REPO)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> Dict[str, Any]:
    """One workload in a fresh process; returns the document it printed."""
    command = [
        sys.executable, "-m", "bench.child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(float(seconds)), "--trace", str(int(trace)),
    ]
    if quick:
        command.append("--quick")
    done = subprocess.run(
        command, cwd=REPO, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: child exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def measure_once(
    guard: Guard,
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool,
    retries: int = MAX_RETRIES,
) -> Dict[str, Any]:
    """A guarded run: repeated (at most ``retries`` times) while disturbed."""
    for attempt in range(retries + 1):
        before = guard.probe()
        document = spawn(workload, seed, seconds, trace, quick)
        after = guard.probe()
        if not guard.disturbed(before, after) or attempt == retries:
            break
        guard.discards += 1
        print(
            f"[bench] {workload} seed {seed}: probe {max(before, after):.3f}s vs "
            f"fastest {guard.fastest:.3f}s - run discarded, repeating",
            file=sys.stderr,
        )
    document["calibration_s"] = median((before, after))
    document["discards"] = attempt
    if trace:
        document["layers"]["bench.calibration_s"]["value"] = document["calibration_s"]
    return document


def save(document: Dict[str, Any], kind: str) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{kind}-{document['workload']}.json"
    path.write_text(json.dumps(document, indent=1) + "\n")


# -- run / trace -------------------------------------------------------------


def print_run(document: Dict[str, Any]) -> None:
    print(f"== {document['workload']} (seed {document['seed']}, "
          f"{document['passes']} passes of {document['steps']} steps) ==")
    for name, metric in document["e2e"].items():
        print(f"  {name:<16}{metric['value']:>14.6f} {metric['unit']:<7}"
              f"n={metric['samples']}")
    span = flat_middle_span(document["step_walls_s"])
    print(f"  steps' middle fifth spans {span:.1%} of their median "
          f"({'flat' if span < 0.10 else 'wide: see README, step-list rule'})")
    expected = "checked" if document["checked_against_expected"] else "no entry"
    print(f"  operations: {document['attempted']} attempted, "
          f"{document['failed']} failed; expected.json: {expected}; "
          f"probe {document['calibration_s']:.3f}s, "
          f"{document['discards']} run(s) discarded")
    for failure in document["failures"]:
        print(f"  FAILED: {failure}")


def flat_middle_span(walls: List[float]) -> float:
    """Width of the middle fifth of the sorted step times over their median:
    small means ``step_p50_s`` cannot flip between modes."""
    ordered = sorted(walls)
    n = len(ordered)
    half = max(1, round(n / 5)) / 2
    low = ordered[max(0, int(n / 2 - half))]
    high = ordered[min(n - 1, int((n - 1) / 2 + half))]
    return (high - low) / median(ordered)


def cmd_run(args) -> int:
    guard = Guard()
    failed = 0
    for workload in selected(args.workload):
        document = measure_once(guard, workload, args.seed, args.seconds, False, args.quick)
        save(document, "run")
        print_run(document)
        failed += document["failed"]
    return 1 if failed else 0


def cmd_trace(args) -> int:
    guard = Guard()
    failed = 0
    for workload in selected(args.workload):
        document = measure_once(guard, workload, args.seed, args.seconds, True, args.quick)
        save(document, "trace")
        print(f"== {workload} (seed {args.seed}, traced) ==")
        for name, metric in document["layers"].items():
            print(f"  {name:<40}{metric['value']:>18.6f} {metric['unit']}")
        print(f"  spans: {len(document['spans'])} written to "
              f"bench/out/trace-{workload}.json; operations: "
              f"{document['attempted']} attempted, {document['failed']} failed")
        failed += document["failed"]
    return 1 if failed else 0


# -- check -------------------------------------------------------------------


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def cmd_check(args) -> int:
    """Interleaved sets of runs of the same code, compared against the
    bounds in ``BENCHMARK.json``; work counters must agree exactly."""
    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in contract["end_to_end"]}
    guard = Guard()
    values: Dict[Tuple[int, str, str], List[float]] = {}
    work: Dict[Tuple[str, int], Any] = {}
    ok = exact = True
    for run in range(args.runs):
        for which in range(args.sets):
            for workload in selected(args.workload):
                doc = measure_once(guard, workload, run, args.seconds, False, args.quick)
                for name, metric in doc["e2e"].items():
                    values.setdefault((which, workload, name), []).append(metric["value"])
                if work.setdefault((workload, run), doc["work"]) != doc["work"]:
                    exact = False
                    print(f"FAIL {workload} seed {run}: work counters differ "
                          f"between runs: {doc['work']}")
                if doc["failed"]:
                    ok = False
                    print(f"FAIL {workload} seed {run}: {doc['failures']}")
    header = f"{'workload':<14}{'metric':<15}"
    for which in range(args.sets):
        header += f"{'set ' + str(which + 1) + ' median [q1, q3]':>40}"
    print(header + f"{'worst diff':>12}{'spread':>9}{'bound':>7}")
    for workload in selected(args.workload):
        for name, (bound, better) in bounds.items():
            stats = [quartiles(values[(which, workload, name)]) for which in range(args.sets)]
            medians = [s[1] for s in stats]
            diff = max(
                worse_by(a, b, better) for a in medians for b in medians
            )
            spread = max((s[2] - s[0]) / abs(s[1]) for s in stats)
            passed = diff <= bound and (name == "setup_s" or spread <= bound)
            ok = ok and passed
            row = f"{workload:<14}{name:<15}"
            for q1, q2, q3 in stats:
                row += f"{q2:>16.5f} [{q1:>9.5f}, {q3:>9.5f}]"
            print(row + f"{diff:>11.2%}{spread:>9.2%}{bound:>7.0%}"
                  f"  {'PASS' if passed else 'FAIL'}")
    print(f"{guard.discards} disturbed run(s) discarded; work counters "
          f"{'agree exactly' if exact else 'DIFFER'} between runs of a seed; "
          f"bounds and checks {'hold' if ok else 'FAILED'}")
    return 0 if ok and exact else 1


# -- measure (the driver's contract) -------------------------------------------


def cmd_measure(args) -> int:
    """One workload, one JSON object as the last line of standard output.

    Never repeats a run: the driver's time budget is fixed and it takes its
    own medians over many runs; the probe is still reported.
    """
    document = measure_once(
        Guard(), args.workload, args.seed, args.seconds, bool(args.trace),
        args.quick, retries=0,
    )
    save(document, "trace" if args.trace else "run")
    metrics = document["layers"] if args.trace else document["e2e"]
    result = {
        "correct": document["failed"] == 0,
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in metrics.items()
        },
    }
    for failure in document["failures"]:
        print(f"[bench] FAILED: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


# -- entry point ---------------------------------------------------------------


def selected(workload: str) -> Tuple[str, ...]:
    return WORKLOADS if workload == "all" else (workload,)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub, default_workload="all"):
        choices = WORKLOADS + (("all",) if default_workload == "all" else ())
        sub.add_argument("--workload", choices=choices, default=default_workload,
                         required=default_workload is None)
        sub.add_argument("--seconds", type=float, default=RUN_SECONDS,
                         help="run length: as many passes as fit into it")
        return sub

    for name, handler, text in (
        ("run", cmd_run, "end-to-end metrics (untraced) and correctness checks"),
        ("trace", cmd_trace, "a separate traced run: per-layer metrics and spans"),
    ):
        sub = common(commands.add_parser(name, help=text))
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--quick", action="store_true",
                         help="tiny worlds, seconds per workload (self-tests)")
        sub.set_defaults(handler=handler)
    sub = common(commands.add_parser(
        "check", help="two interleaved sets of runs compared against the bounds"))
    sub.add_argument("--sets", type=int, default=2)
    sub.add_argument("--runs", type=int, default=5)
    sub.add_argument("--quick", action="store_true")
    sub.set_defaults(handler=cmd_check)
    sub = common(commands.add_parser(
        "measure", help="the BENCHMARK.json command: one workload, JSON last line"),
        default_workload=None)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--trace", type=int, choices=(0, 1), default=0)
    sub.add_argument("--quick", action="store_true")
    sub.set_defaults(handler=cmd_measure)

    args = parser.parse_args(argv)
    if not (REPO / "src" / "repro").is_dir():
        print("[bench] src/repro not found: nothing to measure", file=sys.stderr)
        return 2
    return args.handler(args)
