"""Markdown report generation from experiment artifacts.

Renders a set of :class:`ExperimentResult` tables into a single Markdown
document — the machine-generated counterpart of EXPERIMENTS.md.  Used by
``python -m repro report`` to produce an auditable record of a full
reproduction run.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.experiments.harness import Cell, ExperimentResult


def _md_cell(cell: Cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell).replace("|", "\\|")


def result_to_markdown(result: ExperimentResult, max_rows: Optional[int] = None) -> str:
    """One experiment as a Markdown section with a table."""
    lines: List[str] = [f"## {result.experiment_id} — {result.title}", ""]
    header = [str(c) for c in result.columns]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "|".join("---" for _ in header) + "|")
    rows = result.rows if max_rows is None else result.rows[:max_rows]
    for row in rows:
        lines.append("| " + " | ".join(_md_cell(cell) for cell in row) + " |")
    if max_rows is not None and len(result.rows) > max_rows:
        lines.append("")
        lines.append(f"*…{len(result.rows) - max_rows} more rows elided.*")
    for note in result.notes:
        lines.append("")
        lines.append(f"> {note}")
    lines.append("")
    return "\n".join(lines)


def build_report(
    results: Sequence[ExperimentResult],
    title: str = "PAINTER reproduction report",
    preamble: str = "",
    max_rows_per_table: Optional[int] = 40,
    timestamp: Optional[str] = None,
) -> str:
    """A full Markdown report over many experiments."""
    if not results:
        raise ValueError("no results to report")
    stamp = timestamp if timestamp is not None else time.strftime("%Y-%m-%d %H:%M:%S")
    lines = [f"# {title}", "", f"Generated {stamp}.", ""]
    if preamble:
        lines.extend([preamble, ""])
    lines.append("## Contents")
    lines.append("")
    for result in results:
        lines.append(f"- [{result.experiment_id}](#user-content-{result.experiment_id}) — {result.title}")
    lines.append("")
    for result in results:
        lines.append(result_to_markdown(result, max_rows=max_rows_per_table))
    return "\n".join(lines)


def run_and_report(
    experiment_ids: Optional[Iterable[str]] = None,
    max_rows_per_table: Optional[int] = 40,
    jobs: int = 1,
    include_perf: bool = True,
    **experiment_kwargs,
) -> str:
    """Run (a subset of) the registered experiments and render the report.

    ``experiment_kwargs`` are forwarded to every experiment that accepts
    them (commonly ``scenario=`` for sized-down runs).  ``jobs > 1`` fans
    the experiments out over worker processes via
    :func:`repro.experiments.harness.run_experiments_parallel`; custom
    ``experiment_kwargs`` force a serial run (workers invoke experiments
    with their defaults).  With ``include_perf`` the report ends with the
    run's performance counters (cache hit rates, marginal evaluations),
    merged across workers.
    """
    import inspect

    from repro.experiments import ALL_EXPERIMENTS
    from repro.telemetry import METRICS

    requested = list(experiment_ids) if experiment_ids is not None else list(ALL_EXPERIMENTS)
    unknown = [name for name in requested if name not in ALL_EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments: {unknown}")
    results: List[ExperimentResult] = []
    if jobs > 1 and not experiment_kwargs:
        from repro.experiments.harness import run_experiments_parallel

        by_name = run_experiments_parallel(requested, jobs=jobs)
        results = [by_name[name] for name in requested]
    else:
        for name in requested:
            func = ALL_EXPERIMENTS[name]
            accepted = inspect.signature(func).parameters
            kwargs = {k: v for k, v in experiment_kwargs.items() if k in accepted}
            results.append(func(**kwargs))
    report = build_report(results, max_rows_per_table=max_rows_per_table)
    for result in results:
        if result.experiment_id == "optimality":
            report = report + "\n" + optimality_summary(result)
        elif result.experiment_id == "soak":
            report = report + "\n" + soak_summary(result)
        elif result.experiment_id == "communities":
            report = report + "\n" + communities_summary(result)
        elif result.experiment_id == "hotpotato":
            report = report + "\n" + hotpotato_summary(result)
    if include_perf:
        report = report + "\n" + METRICS.to_markdown()
    return report


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


def communities_summary(result: ExperimentResult) -> str:
    """Digest of the communities-vs-PAINTER comparator table.

    Surfaces the benefit/coverage gap at the largest shared budget so the
    headline — how community steering stacks up against selective prefix
    advertisements for the same announcement spend — is readable without
    scanning the curves.
    """
    by_strategy: Dict[str, List[tuple]] = {}
    for row in result.rows:
        by_strategy.setdefault(str(row[0]), []).append(tuple(row))
    lines = ["## Communities-vs-PAINTER digest", ""]
    painter = by_strategy.get("painter", [])
    communities = by_strategy.get("communities", [])
    if painter and communities:
        p = max(painter, key=lambda row: int(row[1]))
        c = max(communities, key=lambda row: int(row[1]))
        lines.append(
            f"At the largest shared budget (painter {p[1]} prefixes, "
            f"communities {c[1]} announcement groups) PAINTER realizes "
            f"{100 * float(p[2]):.1f}% of the possible benefit vs "
            f"{100 * float(c[2]):.1f}% for community steering; "
            f"best-ingress coverage is {100 * float(p[3]):.1f}% vs "
            f"{100 * float(c[3]):.1f}% of volume."
        )
        lines.append("")
    for note in result.notes:
        lines.append("")
        lines.append(f"> {note}")
    lines.append("")
    return "\n".join(lines)


def hotpotato_summary(result: ExperimentResult) -> str:
    """Digest of the hot-potato coexistence table: stability contrast.

    The story is the asymmetry — plain-prefix ingress TE is invariant to
    intra-cloud link-weight epochs while MED-pinned community steering
    oscillates — so the digest leads with total flips per mode and the
    worst benefit erosion observed.
    """
    flips: Dict[str, int] = {}
    worst_erosion: Dict[str, float] = {}
    for row in result.rows:
        mode = str(row[0])
        flips[mode] = flips.get(mode, 0) + int(row[2])
        worst_erosion[mode] = max(worst_erosion.get(mode, 0.0), float(row[4]))
    lines = ["## Hot-potato coexistence digest", ""]
    if flips:
        parts = [
            f"{mode}: {flips[mode]} ingress flip(s), worst erosion "
            f"{100 * worst_erosion[mode]:.1f}%"
            for mode in sorted(flips)
        ]
        lines.append(
            "Across the link-weight epoch schedule — " + "; ".join(parts) + "."
        )
        lines.append("")
        if flips.get("painter", 0) == 0 and flips.get("communities", 0) > 0:
            lines.append(
                "PAINTER's prefix-only advertisements carry no IGP signal, so "
                "its catchments hold while MED-steered ingresses chase the "
                "shifting egress costs."
            )
            lines.append("")
    for note in result.notes:
        lines.append("")
        lines.append(f"> {note}")
    lines.append("")
    return "\n".join(lines)


def optimality_summary(result: ExperimentResult) -> str:
    """Digest of the GreedyGap table: worst/mean gap and bound soundness.

    Rendered as its own report section after the per-experiment tables so
    the optimality story — how close Algorithm 1 gets to provably optimal,
    and that the LP envelope held — is readable without scanning rows.
    """
    gaps = [float(g) for g in result.column("gap_pct")]
    budgets = result.column("budget")
    scenarios = result.column("scenario")
    lines = ["## Optimality envelope (GreedyGap digest)", ""]
    if gaps:
        worst = max(range(len(gaps)), key=gaps.__getitem__)
        lines.append(
            f"Across {len(gaps)} instance/budget points the greedy's "
            f"benefit gap to the exact ILP optimum was at worst "
            f"{gaps[worst]:.3f}% ({scenarios[worst]}, budget "
            f"{budgets[worst]}) and {sum(gaps) / len(gaps):.3f}% on "
            f"average."
        )
        lines.append("")
    lines.append(
        "Soundness: on every row `greedy_benefit <= lp_bound` and "
        "`ilp_benefit <= lp_bound` held (the run would have failed "
        "otherwise), so the LP relaxation is a valid optimality envelope "
        "for these instances."
    )
    for note in result.notes:
        lines.append("")
        lines.append(f"> {note}")
    lines.append("")
    return "\n".join(lines)
