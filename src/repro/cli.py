"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run <id>`` — run one registered experiment
  (``repro.experiments.ALL_EXPERIMENTS``) and print its table; its flags are
  generated from the runner's signature (``--json PATH`` saves the table,
  ``--journal PATH`` records a run journal);
* ``report``   — run several experiments (the quick ones, named ids, or
  ``all``) at the arguments their claims are checked at, print a PASS or
  FAIL line per claim (exit 1 on any FAIL) and write a Markdown report with
  the verdicts and each experiment's digest;
* ``info``     — describe a scenario preset (topology, UGs, benefit headroom);
* ``solve``    — run the Advertisement Orchestrator and print (or save) the
  configuration;
* ``validate`` — traceroute-validate the policy-compliance inference (§3.1);
* ``audit``    — self-check a scenario's structural invariants;
* ``perf``     — instrumented solve/learn: counters, timers, cache hit rates;
* ``controller`` — run the continuous-operation controller daemon over a
  delta stream with crash-safe checkpointing and warm-start re-solve;
* ``soak``     — run a simulated day of diurnal load, flash crowds, and
  rolling regional outages through the composed system (controller +
  vector data plane) with per-UG SLO accounting (``repro.soak``);
* ``trace``    — render the per-phase time/benefit breakdown of a JSONL run
  journal written by ``--journal`` (on run/solve).
"""

from __future__ import annotations

import argparse
import collections.abc
import contextlib
import inspect
import sys
import typing
from typing import Iterator, List, Optional

from repro.scenario import PRESETS, Scenario


def _scenario_from(args: argparse.Namespace) -> Scenario:
    builder = PRESETS[args.preset]
    kwargs = {"seed": args.seed}
    if args.ugs is not None:
        kwargs["n_ugs"] = args.ugs
    return builder(**kwargs)


def _add_scenario_args(
    parser: argparse.ArgumentParser, preset: Optional[str] = "prototype"
) -> None:
    parser.add_argument(
        "--preset", choices=sorted(PRESETS), default=preset,
        help=f"scenario preset (default: {preset or 'the experiment default'})",
    )
    parser.add_argument("--seed", type=int, default=0, help="world seed")
    parser.add_argument("--ugs", type=int, default=None, help="user-group count")


@contextlib.contextmanager
def _maybe_journal(args: argparse.Namespace, run_name: str) -> Iterator[None]:
    """Trace the wrapped command into ``--journal PATH`` when requested.

    CLI journals include wall/CPU timings so ``repro trace`` can render a
    real time breakdown (library callers who need byte-stable journals use
    :func:`repro.telemetry.telemetry_session` directly with its default).
    """
    path = getattr(args, "journal", None)
    if not path:
        yield
        return
    from repro.telemetry import telemetry_session

    with telemetry_session(run_name, include_timings=True) as journal:
        yield
    journal.write(path)
    print(f"wrote run journal to {path} ({len(journal)} records)")


def cmd_info(args: argparse.Namespace) -> int:
    scenario = _scenario_from(args)
    print(scenario.describe())
    possible = scenario.total_possible_benefit()
    print(f"total possible benefit (volume-weighted ms): {possible:.2f}")
    stats = scenario.catalog.coverage_stats()
    print(
        f"policy-compliant ingresses per UG: "
        f"min {stats['min']:.0f} / mean {stats['mean']:.1f} / max {stats['max']:.0f}"
    )
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    from repro.core.cost import configuration_cost
    from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator

    scenario = _scenario_from(args)
    orchestrator = PainterOrchestrator(
        scenario,
        OrchestratorConfig(prefix_budget=args.budget, d_reuse_km=args.d_reuse),
    )
    with _maybe_journal(args, "solve"):
        result = orchestrator.learn(iterations=args.iterations)
    config = result.final_config
    possible = scenario.total_possible_benefit()
    print(scenario.describe())
    for record in result.iterations:
        print(
            f"iter {record.iteration}: realized "
            f"{100 * record.realized_benefit / possible:.1f}% of possible "
            f"({record.new_preferences} preferences learned)"
        )
    print(f"final: {config}")
    cost = configuration_cost(config)
    print(
        f"cost: {cost.prefixes} /24s (~${cost.address_cost_usd:,.0f}), "
        f"{cost.announcements} announcements"
    )
    if args.output:
        from repro.io import save_config

        save_config(config, args.output)
        print(f"saved configuration to {args.output}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.measurement.traceroute import TracerouteConfig, validate_policy_compliance

    scenario = _scenario_from(args)
    report = validate_policy_compliance(
        scenario, TracerouteConfig(seed=args.seed, misattribution_prob=args.misattribution)
    )
    print(
        f"traceroutes: {report.total}, unresolvable: {report.unresolvable}, "
        f"violations: {report.violations} "
        f"({100 * report.violation_rate:.1f}% — paper observed 4%)"
    )
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    from repro.audit import audit_scenario

    scenario = _scenario_from(args)
    report = audit_scenario(scenario)
    print(report.render())
    return 0 if report.passed else 1


def cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments import ALL_EXPERIMENTS
    from repro.reporting import run_and_report

    if args.experiments == ["all"]:
        requested = list(ALL_EXPERIMENTS)
    else:
        requested = args.experiments or [
            name for name, experiment in ALL_EXPERIMENTS.items() if experiment.quick
        ]
    unknown = [name for name in requested if name not in ALL_EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiments: {unknown}; available: {list(ALL_EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    markdown, verdicts = run_and_report(requested, jobs=args.jobs)
    Path(args.output).write_text(markdown)
    for verdict in verdicts:
        print(verdict)
    print(f"wrote {args.output} covering: {', '.join(requested)}")
    return 1 if any(verdict.startswith("FAIL") for verdict in verdicts) else 0


def cmd_perf(args: argparse.Namespace) -> int:
    """Run an instrumented solve/learn and print the perf counters."""
    from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
    from repro.telemetry import METRICS

    METRICS.reset()
    scenario = _scenario_from(args)
    orchestrator = PainterOrchestrator(
        scenario,
        OrchestratorConfig(prefix_budget=args.budget, d_reuse_km=args.d_reuse),
    )
    if args.iterations > 0:
        orchestrator.learn(iterations=args.iterations)
    else:
        orchestrator.solve()
    print(scenario.describe())
    print()
    print(METRICS.render())
    lazy = METRICS.counter("orchestrator.marginal_evals").value
    naive = METRICS.counter("orchestrator.naive_marginal_evals").value
    if naive:
        print()
        print(
            f"laziness: {lazy} marginal evaluations vs {naive} for a naive "
            f"full-re-evaluation greedy ({100 * lazy / naive:.1f}%)"
        )
    return 0


def cmd_controller(args: argparse.Namespace) -> int:
    """Run the continuous-operation controller daemon over a delta stream."""
    from repro.controller import (
        ControllerConfig,
        PainterController,
        load_deltas,
        synthetic_deltas,
    )
    from repro.core.orchestrator import OrchestratorConfig

    scenario = _scenario_from(args)
    if args.deltas:
        deltas = load_deltas(args.deltas)
    else:
        deltas = synthetic_deltas(
            scenario, iterations=args.synthetic, seed=args.delta_seed
        )
    controller = PainterController(
        scenario,
        OrchestratorConfig(prefix_budget=args.budget, d_reuse_km=args.d_reuse),
        ControllerConfig(
            checkpoint_dir=args.checkpoint_dir,
            journal_path=args.journal,
            checkpoint_keep=args.keep,
            warm_start=not args.cold,
            verify_every=args.verify_every,
            max_iterations=args.max_iterations,
            crash_at_seq=args.crash_at,
            crash_point=args.crash_point,
        ),
        deltas,
    )
    try:
        result = controller.run()
    finally:
        controller.close()
    if result.resumed_from is not None:
        print(f"resumed from checkpoint {result.resumed_from}")
    for entry in result.timeline:
        print(
            f"iter {entry['iteration']}: {entry['mode']} "
            f"({entry['reconverge_s'] * 1000:.1f} ms)"
        )
    print(
        f"ran {result.iterations_run} iterations, "
        f"{result.deltas_applied} deltas applied, "
        f"{result.degradations} degradations, {result.divergences} divergences"
    )
    if result.final_config is not None:
        print(f"final: {result.final_config}")
        if args.output:
            from repro.io import save_config

            save_config(result.final_config, args.output)
            print(f"saved configuration to {args.output}")
    print(f"checkpoints in {result.checkpoint_dir}, journal at {result.journal_path}")
    return 0


def cmd_soak(args: argparse.Namespace) -> int:
    """Run (or resume) a soak over a simulated day with SLO accounting."""
    from repro.soak import SoakConfig, run_soak

    cfg = SoakConfig(
        preset=args.preset,
        seed=args.seed,
        windows=args.windows,
        # SoakConfig rejects windows < 1; do not divide by it first.
        window_s=args.day / max(args.windows, 1),
        arrivals_per_window=args.arrivals,
        flow_lifetime_windows=args.flow_lifetime,
        prefix_budget=args.budget,
        shifts_per_window=args.shifts,
        storm_regions=args.storm_regions,
        flash_crowds=args.flash_crowds,
        admit_cap=args.admit_cap,
        failover_budget=args.failover_budget,
        verify_every=args.verify_every,
        observe=args.observe,
        prom_path=args.prom,
        crash_at=args.crash_at,
        crash_point=args.crash_point,
        stop_after=args.stop_after,
    )
    result = run_soak(cfg, args.checkpoint_dir)
    if result.controller.resumed_from is not None:
        print(f"resumed from checkpoint {result.controller.resumed_from}")
    for row in result.ledger.window_rows:
        print(
            f"window {row['window']}: offered {row['offered']:,}, "
            f"served {row['served']:,}, unroutable {row['unroutable']:,}, "
            f"shed {row['shed']:,}, down UGs {row['down_ugs']}, "
            f"remaps {row['remaps']}"
        )
    summary = result.summary()
    p99 = summary["fleet_p99_ms"]
    print(
        f"{summary['windows']} windows over a {cfg.day_s:g}s simulated day: "
        f"{summary['offered']:,} flows offered, "
        f"fleet p99 {'n/a' if p99 is None else f'{p99:.1f} ms'}, "
        f"{summary['total_downtime_s']:g}s UG-downtime, "
        f"{summary['switches']} destination switches "
        f"({summary['budget_violations']} over budget)"
    )
    print(
        f"data plane ({cfg.plane}): {result.flows_per_s:,.0f} flows/s, "
        f"{result.flows_moved:,} flows failed over"
    )
    print(f"ledger fingerprint {result.ledger.fingerprint()}")
    if args.slo_out:
        result.write_slo_report(args.slo_out)
        print(f"wrote SLO report to {args.slo_out}")
    if args.report:
        from pathlib import Path

        from repro.experiments.soak import soak_summary, soak_table
        from repro.reporting import result_to_markdown

        table = soak_table(result)
        for note in result.notes:
            table.add_note(note)
        markdown = result_to_markdown(table) + "\n" + soak_summary(table)
        Path(args.report).write_text(markdown)
        print(f"wrote soak report to {args.report}")
    errors = summary["accounting_errors"]
    if errors:
        print(f"SLO ACCOUNTING ERRORS: {errors}", file=sys.stderr)
        return 1
    return 0


#: Runner parameters that take objects, not command-line values.
_OBJECT_PARAMS = frozenset({"paths", "config", "profiles", "resolver_config", "geo_config"})


def _add_experiment_parser(sub, name: str, run) -> None:
    """``repro run <name>``: one flag per runner parameter, typed by its hints.

    ``int``/``float``/``str`` become typed flags, ``bool`` a ``--x/--no-x``
    pair and ``Sequence[...]`` a ``nargs="+"`` list.  A ``scenario``
    parameter becomes the scenario flags, whose ``--preset`` defaults to
    the runner's own world; the runner's ``seed`` (and ``preset``) share
    the world's ``--seed`` (and ``--preset``).
    """
    params = inspect.signature(run).parameters
    hints = typing.get_type_hints(run)
    module_doc = inspect.getdoc(inspect.getmodule(run)) or name
    parser = sub.add_parser(
        name,
        help=module_doc.splitlines()[0].replace("%", "%%"),
        description=inspect.getdoc(run) or module_doc,
    )
    shared = {"scenario", "seed", "preset"} if "scenario" in params else set()
    if shared:
        _add_scenario_args(parser, preset=None)
        if "seed" in params:
            parser.set_defaults(seed=params["seed"].default)
    for pname, param in params.items():
        if pname in shared or pname in _OBJECT_PARAMS:
            continue
        kind = hints[pname]
        if typing.get_origin(kind) is typing.Union:  # Optional[X] -> X
            (kind,) = [arg for arg in typing.get_args(kind) if arg is not type(None)]
        options = {"default": param.default, "help": "(default: %(default)s)"}
        if kind is bool:
            options["action"] = argparse.BooleanOptionalAction
        elif typing.get_origin(kind) is collections.abc.Sequence:
            (options["type"],) = typing.get_args(kind)
            options["nargs"] = "+"
        else:
            options["type"] = kind
        parser.add_argument("--" + pname.replace("_", "-"), **options)
    parser.add_argument("--json", type=str, default=None, help="save the table JSON here")
    parser.add_argument(
        "--journal", type=str, default=None,
        help="write a JSONL run journal here (render with `repro trace`)",
    )
    parser.set_defaults(func=cmd_run, experiment=name)


def cmd_run(args: argparse.Namespace) -> int:
    """Run one registered experiment with the flags its parser generated."""
    from repro.experiments import ALL_EXPERIMENTS

    run = ALL_EXPERIMENTS[args.experiment].run
    kwargs = {}
    for name in inspect.signature(run).parameters:
        if name == "scenario":
            if args.preset is not None:
                kwargs[name] = _scenario_from(args)
            continue
        value = getattr(args, name, None)
        if value is not None:  # None keeps the runner's own default
            kwargs[name] = tuple(value) if isinstance(value, list) else value
    with _maybe_journal(args, args.experiment):
        result = run(**kwargs)
    print(result.render())
    if "strategy" in result.columns and "budget_prefixes" in result.columns:
        from repro.experiments.plotting import plot_benefit_curves

        candidates = ("benefit_frac", "avg_improvement_ms", "estimated_frac")
        value = next((c for c in candidates if c in result.columns), None)
        if value is not None:
            print()
            print(plot_benefit_curves(result, value_column=value))
    if args.json:
        from repro.io import save_experiment_result

        save_experiment_result(result, args.json)
        print(f"wrote {args.json}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Render the per-phase breakdown of a run journal."""
    from repro.telemetry import journal_to_result, load_journal

    try:
        journal = load_journal(args.journal)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(journal_to_result(journal).render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="PAINTER reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from repro.experiments import ALL_EXPERIMENTS

    run = sub.add_parser("run", help="run one registered experiment")
    experiments = run.add_subparsers(dest="experiment", required=True)
    for name, experiment in ALL_EXPERIMENTS.items():
        _add_experiment_parser(experiments, name, experiment.run)

    info = sub.add_parser("info", help="describe a scenario preset")
    _add_scenario_args(info)
    info.set_defaults(func=cmd_info)

    solve = sub.add_parser("solve", help="run the Advertisement Orchestrator")
    _add_scenario_args(solve)
    solve.add_argument("--budget", type=int, default=10, help="prefix budget")
    solve.add_argument("--iterations", type=int, default=3, help="learning iterations")
    solve.add_argument("--d-reuse", type=float, default=3000.0, help="D_reuse (km)")
    solve.add_argument("--output", type=str, default=None, help="save config JSON here")
    solve.add_argument(
        "--journal", type=str, default=None,
        help="write a JSONL run journal here (render with `repro trace`)",
    )
    solve.set_defaults(func=cmd_solve)

    validate = sub.add_parser("validate", help="traceroute-validate compliance inference")
    _add_scenario_args(validate)
    validate.add_argument(
        "--misattribution", type=float, default=0.015,
        help="hop IP-to-AS misattribution probability",
    )
    validate.set_defaults(func=cmd_validate)

    audit = sub.add_parser("audit", help="self-check a scenario's structural invariants")
    _add_scenario_args(audit)
    audit.set_defaults(func=cmd_audit)

    report = sub.add_parser(
        "report", help="run experiments, check their claims, write a Markdown report"
    )
    report.add_argument(
        "experiments", nargs="*",
        help="experiment ids, or `all` (default: the quick ones)",
    )
    report.add_argument("--output", type=str, default="report.md", help="output path")
    report.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the experiments (1 = serial)",
    )
    report.set_defaults(func=cmd_report)

    perf = sub.add_parser(
        "perf", help="run an instrumented solve/learn and print perf counters"
    )
    _add_scenario_args(perf)
    perf.add_argument("--budget", type=int, default=10, help="prefix budget")
    perf.add_argument(
        "--iterations", type=int, default=2,
        help="learning iterations (0 = a single solve pass)",
    )
    perf.add_argument("--d-reuse", type=float, default=3000.0, help="D_reuse (km)")
    perf.set_defaults(func=cmd_perf)

    controller = sub.add_parser(
        "controller",
        help="run the continuous-operation controller daemon (crash-safe, "
        "warm-start re-solve)",
    )
    _add_scenario_args(controller)
    controller.add_argument("--budget", type=int, default=4, help="prefix budget")
    controller.add_argument("--d-reuse", type=float, default=3000.0, help="D_reuse (km)")
    controller.add_argument(
        "--checkpoint-dir", required=True,
        help="checkpoint directory (an existing checkpoint resumes the run)",
    )
    controller.add_argument(
        "--journal", type=str, default=None,
        help="journal path (default: <checkpoint-dir>/journal.jsonl)",
    )
    controller.add_argument(
        "--keep", type=int, default=3, help="checkpoints retained on disk"
    )
    controller.add_argument(
        "--deltas", type=str, default=None,
        help="delta stream JSON (from repro.controller.save_deltas)",
    )
    controller.add_argument(
        "--synthetic", type=int, default=8,
        help="iterations of seeded synthetic deltas when --deltas is absent",
    )
    controller.add_argument(
        "--delta-seed", type=int, default=0, help="synthetic delta stream seed"
    )
    controller.add_argument(
        "--cold", action="store_true",
        help="disable warm-starting (every iteration re-solves from scratch)",
    )
    controller.add_argument(
        "--verify-every", type=int, default=0,
        help="cold-verify the warm solver every N iterations (0 = never)",
    )
    controller.add_argument(
        "--max-iterations", type=int, default=None, help="hard iteration cap"
    )
    controller.add_argument(
        "--output", type=str, default=None, help="save the final config JSON here"
    )
    controller.add_argument(
        "--crash-at", type=int, default=None,
        help="crash injection: SIGKILL self at this iteration (testing)",
    )
    controller.add_argument(
        "--crash-point", default="before_checkpoint",
        choices=("mid_journal", "before_checkpoint", "after_checkpoint"),
        help="where in the iteration the injected crash fires",
    )
    controller.set_defaults(func=cmd_controller)

    soak = sub.add_parser(
        "soak",
        help="run a simulated day of diurnal load + storms through the "
        "composed system with per-UG SLO accounting",
    )
    soak.add_argument(
        "--preset", choices=sorted(PRESETS), default="tiny",
        help="scenario preset (default: tiny)",
    )
    soak.add_argument("--seed", type=int, default=0, help="world + load seed")
    soak.add_argument(
        "--windows", type=int, default=24,
        help="simulated windows (= controller iterations)",
    )
    soak.add_argument(
        "--day", type=float, default=86_400.0,
        help="simulated day length in seconds (split across windows)",
    )
    soak.add_argument(
        "--arrivals", type=int, default=10_000,
        help="base new-flow arrivals per window (diurnally scaled)",
    )
    soak.add_argument(
        "--flow-lifetime", type=int, default=2,
        help="windows a flow lives before ending (0 = never)",
    )
    soak.add_argument("--budget", type=int, default=4, help="prefix budget")
    soak.add_argument(
        "--shifts", type=int, default=8,
        help="top-mover VolumeShifts per window boundary",
    )
    soak.add_argument(
        "--storm-regions", type=int, default=1,
        help="regions hit by the rolling outage storm (0 = calm)",
    )
    soak.add_argument(
        "--flash-crowds", type=int, default=1, help="flash-crowd events"
    )
    soak.add_argument(
        "--admit-cap", type=int, default=None,
        help="per-window admission cap; overflow is shed",
    )
    soak.add_argument(
        "--failover-budget", type=int, default=8,
        help="destination switches per UG the SLO budget allows",
    )
    soak.add_argument(
        "--verify-every", type=int, default=0,
        help="cold-verify the warm solver every N iterations (0 = never)",
    )
    soak.add_argument(
        "--observe", action="store_true",
        help="run the orchestrator's measurement round each iteration",
    )
    soak.add_argument(
        "--checkpoint-dir", required=True,
        help="checkpoint directory (an existing checkpoint resumes the soak)",
    )
    soak.add_argument(
        "--slo-out", type=str, default=None,
        help="write the SLO ledger + digest JSON here",
    )
    soak.add_argument(
        "--report", type=str, default=None,
        help="write a Markdown SLO report here",
    )
    soak.add_argument(
        "--prom", type=str, default=None,
        help="write the Prometheus metrics textfile here every window",
    )
    soak.add_argument(
        "--stop-after", type=int, default=None,
        help="stop after N iterations (resume later from the checkpoint)",
    )
    soak.add_argument(
        "--crash-at", type=int, default=None,
        help="crash injection: SIGKILL self at this iteration (testing)",
    )
    soak.add_argument(
        "--crash-point", default="before_checkpoint",
        choices=("mid_journal", "before_checkpoint", "after_checkpoint"),
        help="where in the iteration the injected crash fires",
    )
    soak.set_defaults(func=cmd_soak)

    trace = sub.add_parser(
        "trace", help="render the per-phase breakdown of a run journal"
    )
    trace.add_argument("journal", help="path to a JSONL journal from --journal")
    trace.set_defaults(func=cmd_trace)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
