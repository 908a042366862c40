"""Experiment wrapper for the soak harness: a short simulated day.

Runs :func:`repro.soak.run_soak` on a sized-down configuration (tiny
preset, a simulated day split into a handful of windows) and renders the
per-window SLO accounting as an :class:`ExperimentResult` for the report
generator.  The full-scale azure smoke run lives in
``benchmarks/test_bench_soak.py``; this entry is the auditable record.
"""

from __future__ import annotations

from repro.experiments.harness import ExperimentResult


def soak_table(soak) -> ExperimentResult:
    """The per-window SLO table of a finished :func:`repro.soak.run_soak`.

    Shared by this experiment and ``repro soak --report``; each caller adds
    its own notes.
    """
    result = ExperimentResult(
        experiment_id="soak",
        title="Soak: simulated day with diurnal load, storms, SLO accounting",
        columns=[
            "window", "offered", "served", "unroutable", "shed",
            "down_ugs", "switches", "remaps", "accounting_errors",
        ],
    )
    for row in soak.ledger.window_rows:
        result.add_row(*(row[column] for column in result.columns))
    return result


def run_soak_experiment(
    scenario=None,
    *,
    windows: int = 8,
    arrivals_per_window: int = 4_000,
    seed: int = 0,
    preset: str = "tiny",
) -> ExperimentResult:
    """Entry point used by the CLI, the report generator, and tests."""
    # Lazy: repro.soak pulls repro.controller -> repro.io -> this package.
    from repro.soak import SoakConfig, run_soak

    cfg = SoakConfig(
        preset=preset,
        seed=seed,
        windows=windows,
        window_s=86_400.0 / windows,
        arrivals_per_window=arrivals_per_window,
        storm_regions=1,
        flash_crowds=1,
    )
    soak = run_soak(cfg, scenario=scenario)
    result = soak_table(soak)
    summary = soak.summary()
    p99 = summary["fleet_p99_ms"]
    result.add_note(
        f"{cfg.preset} preset, seed {cfg.seed}: {summary['windows']} windows "
        f"x {cfg.window_s:g}s simulated, {summary['offered']:,} flows offered, "
        f"{summary['accounting_errors']} accounting errors"
    )
    result.add_note(
        "fleet p99 "
        + ("n/a" if p99 is None else f"{p99:.1f} ms (bucketed)")
        + f", {summary['total_downtime_s']:g}s UG-downtime across "
        f"{summary['ugs_with_downtime']} UGs, "
        f"{summary['budget_violations']} failover-budget violations"
    )
    result.add_note(
        f"data plane ({cfg.plane}): {soak.flows_per_s:,.0f} flows/s steered; "
        f"{soak.flows_moved} flows failed over in {soak.remaps} remaps"
    )
    result.add_note(f"ledger fingerprint {soak.ledger.fingerprint()}")
    for note in soak.notes:
        result.add_note(note)
    return result


def soak_summary(result: ExperimentResult) -> str:
    """Digest of a soak run's SLO table: availability and accounting.

    Rendered after the per-window table so the operational story — did
    the composed system keep serving through the storm, and did every
    flow get accounted for — is readable without scanning rows.
    """
    offered = [int(v) for v in result.column("offered")]
    served = [int(v) for v in result.column("served")]
    unroutable = [int(v) for v in result.column("unroutable")]
    shed = [int(v) for v in result.column("shed")]
    errors = [int(v) for v in result.column("accounting_errors")]
    down = [int(v) for v in result.column("down_ugs")]
    lines = ["## Soak SLO digest", ""]
    if offered:
        lines.append(
            f"Over {len(offered)} simulated windows the data plane was "
            f"offered {sum(offered):,} flows and served {sum(served):,} "
            f"({sum(unroutable):,} unroutable during outages, "
            f"{sum(shed):,} shed by the admit cap)."
        )
        lines.append("")
        stormy = sum(1 for d in down if d > 0)
        lines.append(
            f"{stormy} window(s) had user groups down (peak "
            f"{max(down)} UGs at once); flow accounting closed with "
            f"{sum(errors)} errors (the gate requires zero)."
        )
    for note in result.notes:
        lines.append("")
        lines.append(f"> {note}")
    lines.append("")
    return "\n".join(lines)
