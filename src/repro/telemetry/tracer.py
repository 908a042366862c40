"""Nestable tracing spans with a zero-overhead no-op mode.

A :class:`Tracer` produces :class:`Span` records — name, wall/CPU time,
free-form tags, and a parent link — via the :meth:`Tracer.span` context
manager.  Spans nest naturally (the tracer keeps a stack), so a
``orchestrator.learn`` span contains ``orchestrator.solve`` spans which
contain per-prefix ``orchestrator.prefix_scan`` spans.

The tracer is **disabled by default**.  Disabled, ``span()`` returns a
shared singleton no-op context manager whose ``__enter__``/``__exit__`` do
nothing — no allocation, no clock reads, no journal writes — so leaving the
instrumentation in hot paths costs a single attribute check.  This is the
property the million-flow Traffic Manager runs rely on.

Finished spans are handed to an optional sink (normally a
:class:`repro.telemetry.journal.RunJournal`) in *completion* order, which
is deterministic for deterministic workloads.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional


class Span:
    """One traced region.  Mutable while open; frozen in practice once
    closed (the tracer hands it to the sink and forgets it)."""

    __slots__ = (
        "name", "span_id", "parent_id", "depth", "tags",
        "wall_s", "cpu_s", "_wall_start", "_cpu_start",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        depth: int,
        tags: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.tags: Dict[str, Any] = dict(tags) if tags else {}
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._wall_start = 0.0
        self._cpu_start = 0.0

    def tag(self, key: str, value: Any) -> None:
        """Attach/overwrite one tag on an open span."""
        self.tags[key] = value

    def to_record(self) -> Dict[str, Any]:
        """Plain-data view, suitable for the run journal."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "tags": self.tags,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"wall={self.wall_s:.6f}s)"
        )


class _NoopSpan:
    """Shared do-nothing stand-in returned while tracing is disabled.

    Supports the same surface as an open :class:`Span` (``tag`` is a
    no-op) so instrumented code never branches on tracer state beyond the
    initial ``span()`` call.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def tag(self, key: str, value: Any) -> None:
        return None


#: The singleton no-op context manager.  One object for the whole process:
#: disabled tracing allocates nothing per call.
NOOP_SPAN = _NoopSpan()


class _ActiveSpan:
    """Context manager wrapping one live :class:`Span` on the tracer stack."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        span = self.span
        self._tracer._stack.append(span)
        span._wall_start = time.perf_counter()
        span._cpu_start = time.process_time()
        return span

    def __exit__(self, *exc: object) -> None:
        span = self.span
        span.wall_s = time.perf_counter() - span._wall_start
        span.cpu_s = time.process_time() - span._cpu_start
        tracer = self._tracer
        stack = tracer._stack
        # Pop back to (and including) this span even if inner spans leaked.
        while stack:
            if stack.pop() is span:
                break
        sink = tracer._sink
        if sink is not None:
            sink(span)


class Tracer:
    """Produces nested :class:`Span` records; off by default.

    Usage::

        with TRACER.span("orchestrator.solve", budget=25) as span:
            ...
            span.tag("prefixes_used", config.prefix_count)

    ``enable(sink)`` turns tracing on and routes finished spans to
    ``sink(span)`` — usually ``RunJournal.record_span``.  ``disable()``
    returns the tracer to its zero-overhead mode.
    """

    __slots__ = ("enabled", "_sink", "_stack", "_next_id")

    def __init__(self) -> None:
        self.enabled = False
        self._sink: Optional[Callable[[Span], None]] = None
        self._stack: List[Span] = []
        self._next_id = 1

    def enable(self, sink: Optional[Callable[[Span], None]] = None) -> None:
        self.enabled = True
        self._sink = sink
        self._stack.clear()
        self._next_id = 1

    def disable(self) -> None:
        self.enabled = False
        self._sink = None
        self._stack.clear()
        self._next_id = 1

    def span(self, name: str, **tags: Any):
        """Open a span named ``name``.  While disabled this returns the
        shared :data:`NOOP_SPAN` — no allocation, no clock reads."""
        if not self.enabled:
            return NOOP_SPAN
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name,
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            depth=len(self._stack),
            tags=tags or None,
        )
        self._next_id += 1
        return _ActiveSpan(self, span)

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, or None."""
        return self._stack[-1] if self._stack else None


#: The process-wide tracer used by instrumented production code.
TRACER = Tracer()
