"""Markdown report generation from experiment artifacts.

Renders a set of :class:`ExperimentResult` tables into a single Markdown
document — the machine-generated counterpart of EXPERIMENTS.md.  Used by
``python -m repro report`` to produce an auditable record of a full
reproduction run.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

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


#: Rows a report shows per table; longer tables end in an elision line.
MAX_ROWS_PER_TABLE = 40


def build_report(
    results: Sequence[ExperimentResult],
    timestamp: Optional[str] = None,
    verdicts: Optional[Mapping[str, Sequence[str]]] = None,
) -> str:
    """A full Markdown report over many experiments.

    ``verdicts`` holds each experiment's claim verdicts by id; they follow
    its table.
    """
    if not results:
        raise ValueError("no results to report")
    stamp = timestamp if timestamp is not None else time.strftime("%Y-%m-%d %H:%M:%S")
    lines = ["# PAINTER reproduction report", "", f"Generated {stamp}.", ""]
    lines.append("## Contents")
    lines.append("")
    for result in results:
        lines.append(f"- [{result.experiment_id}](#user-content-{result.experiment_id}) — {result.title}")
    lines.append("")
    for result in results:
        lines.append(result_to_markdown(result, max_rows=MAX_ROWS_PER_TABLE))
        claims = (verdicts or {}).get(result.experiment_id, ())
        if claims:
            lines.extend([f"- {verdict}" for verdict in claims] + [""])
    return "\n".join(lines)


def run_and_report(
    experiment_ids: Optional[Iterable[str]] = None,
    jobs: int = 1,
    **experiment_kwargs,
) -> Tuple[str, List[str]]:
    """Run (a subset of) the registered experiments; the report and verdicts.

    The experiments run through
    :func:`repro.experiments.harness.run_experiments_parallel` (``jobs``
    worker processes), each at its ``claims_at``, and every claim is
    checked: the ``PASS``/``FAIL`` lines come back beside the Markdown and
    follow their table in it.  ``experiment_kwargs`` (commonly
    ``scenario=`` for sized-down runs) replace the ``claims_at`` of every
    experiment and check no claims.  Each experiment's registered digest
    follows the tables; the run's performance counters (cache hit rates,
    marginal evaluations, merged across workers) end the report.
    """
    from repro.experiments import ALL_EXPERIMENTS
    from repro.experiments.harness import check_claims, run_experiments_parallel
    from repro.telemetry import METRICS

    requested = list(experiment_ids) if experiment_ids is not None else list(ALL_EXPERIMENTS)
    by_name = run_experiments_parallel(requested, jobs=jobs, **experiment_kwargs)
    verdicts = {
        name: [] if experiment_kwargs else check_claims(ALL_EXPERIMENTS[name], result)
        for name, result in by_name.items()
    }
    report = build_report(list(by_name.values()), verdicts=verdicts)
    for name, result in by_name.items():
        digest = ALL_EXPERIMENTS[name].digest
        if digest is not None:
            report = report + "\n" + digest(result)
    report = report + "\n" + METRICS.to_markdown()
    return report, [verdict for claims in verdicts.values() for verdict in claims]
