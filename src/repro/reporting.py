"""Markdown report generation from experiment artifacts.

Renders a set of :class:`ExperimentResult` tables into a single Markdown
document — the machine-generated counterpart of EXPERIMENTS.md.  Used by
``python -m repro report`` to produce an auditable record of a full
reproduction run.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Sequence

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

    The experiments run through
    :func:`repro.experiments.harness.run_experiments_parallel` (``jobs``
    worker processes; ``experiment_kwargs``, commonly ``scenario=`` for
    sized-down runs, go to every experiment that accepts them and force a
    serial run).  Each experiment's registered digest follows the tables.
    With ``include_perf`` the report ends with the run's performance
    counters (cache hit rates, marginal evaluations), merged across workers.
    """
    from repro.experiments import ALL_EXPERIMENTS
    from repro.experiments.harness import run_experiments_parallel
    from repro.telemetry import METRICS

    requested = list(experiment_ids) if experiment_ids is not None else list(ALL_EXPERIMENTS)
    by_name = run_experiments_parallel(requested, jobs=jobs, **experiment_kwargs)
    results = [by_name[name] for name in requested]
    report = build_report(results, max_rows_per_table=max_rows_per_table)
    for name, result in zip(requested, results):
        digest = ALL_EXPERIMENTS[name].digest
        if digest is not None:
            report = report + "\n" + digest(result)
    if include_perf:
        report = report + "\n" + METRICS.to_markdown()
    return report
