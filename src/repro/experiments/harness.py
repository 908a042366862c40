"""Common experiment plumbing: result tables, budget grids, parallel runs.

Every ``figN`` module returns a :class:`ExperimentResult` whose rows mirror
the series the paper plots, so the paper's claims, tests, and EXPERIMENTS.md
all consume the same artifact.  An :class:`Experiment` is one registry entry
(runner, report digest, quick flag, claims and the arguments they are
checked at) of ``repro.experiments.ALL_EXPERIMENTS``.
:func:`run_experiments_parallel` fans a batch of experiment ids out over
worker processes (each worker shares scenario builds via the preset cache)
and folds the workers' perf counters back into the parent registry;
:func:`check_claims` turns an entry's claims into PASS/FAIL verdicts.
"""

from __future__ import annotations

import ast
import inspect
import linecache
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

Cell = Union[str, int, float]


@dataclass
class ExperimentResult:
    """A named table of rows reproducing one figure/table."""

    experiment_id: str
    title: str
    columns: Sequence[str]
    rows: List[Tuple[Cell, ...]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Objects the table only summarizes (configs, learning histories) that
    #: a claim asserts on directly; never rendered or saved.
    evidence: Dict[str, Any] = field(default_factory=dict, repr=False, compare=False)

    def add_row(self, *cells: Cell) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, expected {len(self.columns)}"
            )
        self.rows.append(tuple(cells))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> List[Cell]:
        try:
            index = list(self.columns).index(name)
        except ValueError:
            raise KeyError(f"no column {name!r}; have {list(self.columns)}") from None
        return [row[index] for row in self.rows]

    def render(self) -> str:
        """Fixed-width table, printable to a terminal or a report."""
        header = [str(c) for c in self.columns]
        body = [[_fmt(cell) for cell in row] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _fmt(cell: Cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


@dataclass(frozen=True)
class Experiment:
    """One registered experiment: the single declaration of its surfaces.

    ``repro run <id>`` derives its flags from ``run``'s signature, ``repro
    report`` runs it at ``claims_at`` (runner arguments; a ``scenario``
    names one of :data:`repro.scenario.CLAIM_WORLDS`), checks each of its
    ``claims`` against the result and appends ``digest(result)`` after the
    tables, and ``quick`` entries make up the default report.  A claim is a
    function of the result stating one of the paper's claims as ``assert``
    lines; the function's name is the claim's.
    """

    run: Callable[..., ExperimentResult]
    digest: Optional[Callable[[ExperimentResult], str]] = None
    quick: bool = False
    claims: Tuple[Callable[[ExperimentResult], None], ...] = ()
    claims_at: Mapping[str, Any] = field(default_factory=dict)

    def claim_arguments(self) -> Dict[str, Any]:
        """``claims_at`` with its ``scenario`` name built into that world."""
        from repro.scenario import claim_scenario

        arguments = dict(self.claims_at)
        if "scenario" in arguments:
            arguments["scenario"] = claim_scenario(arguments["scenario"])
        return arguments


def check_claims(experiment: Experiment, result: ExperimentResult) -> List[str]:
    """One ``PASS <id>.<claim>`` or ``FAIL <id>.<claim>: <why>`` line per claim."""
    verdicts = []
    for claim in experiment.claims:
        name = f"{result.experiment_id}.{claim.__name__}"
        try:
            claim(result)
        except AssertionError as exc:
            verdicts.append(f"FAIL {name}: {_failed_assert(exc)}")
        else:
            verdicts.append(f"PASS {name}")
    return verdicts


_COMPARISONS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
}


def _failed_assert(exc: AssertionError) -> str:
    """The failing ``assert`` line, with a comparison's two sides evaluated.

    Re-evaluating the sides in the claim's frame is safe because claims are
    pure functions of the result; it turns ``assert a <= b`` into numbers.
    """
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    frame = tb.tb_frame
    line = linecache.getline(frame.f_code.co_filename, tb.tb_lineno).strip()
    try:
        test = ast.parse(line).body[0].test
        (op,) = test.ops
        scope = {**frame.f_globals, **frame.f_locals}
        left, right = (
            eval(compile(ast.Expression(side), "<claim>", "eval"), scope)
            for side in (test.left, test.comparators[0])
        )
        line += f"  [{_fmt(left)} {_COMPARISONS[type(op)]} {_fmt(right)}]"
    except Exception:  # a diagnostic only: keep the bare line
        pass
    if exc.args:
        line += f"  {exc.args[0]!r}"
    return line


#: Comparators ``run_fig6a``, ``run_fig6b`` and ``run_fig7`` can add rows for.
COMPARATOR_STRATEGIES: Tuple[str, ...] = ("communities",)


def check_strategies(strategies: Sequence[str]) -> None:
    """Reject any ``strategies`` entry that is not a known comparator."""
    unknown = sorted(set(strategies) - set(COMPARATOR_STRATEGIES))
    if unknown:
        raise ValueError(
            f"unknown strategies {unknown}; allowed: {list(COMPARATOR_STRATEGIES)}"
        )


def budget_grid(max_budget: int) -> List[int]:
    """A roughly log-spaced grid of prefix budgets up to ``max_budget``."""
    if max_budget < 1:
        raise ValueError("max_budget must be >= 1")
    grid = [1, 2, 3, 5, 8, 12, 18, 25, 40, 60, 90, 130, 200, 300, 450]
    out = [b for b in grid if b < max_budget]
    out.append(max_budget)
    return out


# -- parallel experiment running ---------------------------------------------


def _init_experiment_worker() -> None:
    """Worker initializer: share scenario builds within the worker.

    Several experiments construct the same preset world (same seed, same
    size); inside one worker process the preset cache makes the second and
    later constructions free.
    """
    from repro.scenario import enable_preset_cache

    enable_preset_cache()


def _run_experiment_task(name: str) -> Tuple[str, "ExperimentResult", Dict[str, Any]]:
    """Run one experiment in a worker; ship its result + perf snapshot home."""
    from repro.experiments import ALL_EXPERIMENTS
    from repro.telemetry import METRICS

    experiment = ALL_EXPERIMENTS[name]
    result = experiment.run(**experiment.claim_arguments())
    return name, result, METRICS.snapshot()


def run_experiments_parallel(
    experiment_ids: Sequence[str],
    jobs: Optional[int] = None,
    **experiment_kwargs: Any,
) -> Dict[str, "ExperimentResult"]:
    """Run registered experiments, fanned out across worker processes.

    ``jobs=None`` uses one worker per experiment up to the CPU count;
    ``jobs<=1`` degrades to a plain serial loop in this process.  Results
    come back keyed by experiment id, in the order requested.  Worker perf
    counters (cache hit rates, marginal-evaluation counts) are merged into
    this process's :data:`repro.telemetry.METRICS` registry so reports reflect the
    whole run, not just the parent.

    Each experiment runs at its ``claims_at`` (its defaults if it has no
    claims).  ``experiment_kwargs`` replace those: they go to every
    experiment whose runner accepts them (commonly ``scenario=`` for
    sized-down runs) and force the serial loop.

    Experiments are independent by construction (each builds its own world
    from explicit seeds), which is what makes process-level parallelism
    safe — no shared mutable state crosses the fork.
    """
    from repro.experiments import ALL_EXPERIMENTS
    from repro.telemetry import METRICS

    names = list(experiment_ids)
    unknown = [name for name in names if name not in ALL_EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments: {unknown}")
    if jobs is None:
        jobs = min(len(names), os.cpu_count() or 1)
    results: Dict[str, ExperimentResult] = {}
    if jobs <= 1 or len(names) <= 1 or experiment_kwargs:
        for name in names:
            experiment = ALL_EXPERIMENTS[name]
            if not experiment_kwargs:
                results[name] = experiment.run(**experiment.claim_arguments())
                continue
            accepted = inspect.signature(experiment.run).parameters
            results[name] = experiment.run(
                **{k: v for k, v in experiment_kwargs.items() if k in accepted}
            )
        return results
    with ProcessPoolExecutor(jobs, initializer=_init_experiment_worker) as pool:
        futures = {pool.submit(_run_experiment_task, name): name for name in names}
        for future in as_completed(futures):
            name, result, perf_snapshot = future.result()
            results[name] = result
            METRICS.merge(perf_snapshot)
    return {name: results[name] for name in names}


def config_prefix_subset(config, k: int):
    """The greedy solution truncated to its first ``k`` prefixes.

    Algorithm 1 fills prefixes in order, so the first ``k`` prefixes of a
    budget-``N`` solution *are* the budget-``k`` solution — one solve yields
    the whole benefit-vs-budget curve.
    """
    from repro.core.advertisement import AdvertisementConfig

    subset = AdvertisementConfig()
    for prefix in config.prefixes:
        if prefix >= k:
            continue
        for pid in config.peerings_for(prefix):
            subset.add(prefix, pid)
    return subset
