"""Tracing spans, metrics, and the run journal for the PAINTER pipeline.

Three cooperating pieces:

* :class:`Tracer` / :data:`TRACER` — nestable spans (wall + CPU time, tags,
  parent links) with a zero-overhead no-op mode; see
  :mod:`repro.telemetry.tracer`.
* :class:`MetricsRegistry` / :data:`METRICS` — counters, gauges, caches,
  timers, and fixed-bucket histograms, plus Prometheus text export; see
  :mod:`repro.telemetry.metrics`.
* :class:`RunJournal` — a versioned, deterministic JSONL record of every
  span and advertisement/measurement/fault event, in memory or durable
  (``RunJournal.create`` / ``RunJournal.resume`` bind it to an fsync'd
  file, as the controller does), with :func:`load_journal` /
  :func:`journal_to_result` reading it back into the ``repro trace``
  breakdown; see :mod:`repro.telemetry.journal`.

The usual wiring is :func:`telemetry_session`::

    from repro.telemetry import telemetry_session

    with telemetry_session("my-run") as journal:
        orchestrator.learn(iterations=5)
    journal.write("run.jsonl")

Telemetry is **off by default**; uninstrumented behaviour (and tier-1 test
output) is bit-identical with the tracer disabled.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from repro.telemetry.journal import (
    JOURNAL_VERSION,
    JournalError,
    RunJournal,
    journal_to_result,
    load_journal,
)
from repro.telemetry.metrics import (
    METRICS,
    CacheStats,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimerStats,
)
from repro.telemetry.tracer import NOOP_SPAN, Span, Tracer, TRACER

__all__ = [
    "CacheStats",
    "Counter",
    "Gauge",
    "Histogram",
    "JOURNAL_VERSION",
    "JournalError",
    "METRICS",
    "MetricsRegistry",
    "NOOP_SPAN",
    "RunJournal",
    "Span",
    "TimerStats",
    "TRACER",
    "Tracer",
    "emit_event",
    "journal_to_result",
    "load_journal",
    "telemetry_session",
]


@contextmanager
def telemetry_session(
    run_name: str = "run",
    include_timings: bool = False,
    meta: Optional[Dict[str, Any]] = None,
) -> Iterator[RunJournal]:
    """Enable tracing into a fresh :class:`RunJournal` for the duration of
    the block, then restore the tracer's previous state.

    ``include_timings=False`` (the default) keeps the journal byte-stable
    across identical-seed runs; pass True to record wall/CPU time for
    ``repro trace`` breakdowns.
    """
    journal = RunJournal(run_name, include_timings=include_timings, meta=meta)
    was_enabled = TRACER.enabled
    previous_sink = TRACER._sink
    TRACER.enable(journal.record_span)
    journal_event_hook.append(journal)
    try:
        yield journal
    finally:
        journal_event_hook.remove(journal)
        if was_enabled:
            TRACER.enable(previous_sink)
        else:
            TRACER.disable()


#: Active journals to which instrumented code should publish domain events.
#: Production code calls :func:`emit_event`; with no session open it is a
#: cheap truthiness check and returns immediately.
journal_event_hook: list = []


def emit_event(event_type: str, **fields: Any) -> None:
    """Publish one domain event to every active telemetry session."""
    if not journal_event_hook:
        return
    for journal in journal_event_hook:
        journal.record_event(event_type, **fields)
