"""The benchmark's own span recorder.

Spans are recorded from the benchmark's files, around the calls into each
layer of ``repro`` (``repro.telemetry.TRACER`` stays disabled).  They are
kept in memory and written out when the run ends.  A disabled recorder — the
untraced run that produces the end-to-end metrics — records nothing and
wraps nothing, so both runs execute the same workload code.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

SpanName = Union[str, Callable[[], str]]


class Recorder:
    """Nested spans ``(name, start, end, parent, workload, pass, step)``."""

    def __init__(self, workload: str, enabled: bool) -> None:
        self.workload = workload
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        #: Pass being run (None after the last one: checks and diagnostics).
        self.pass_index: Optional[int] = None
        #: Label of the step being measured (None outside the steps).
        self.step: Optional[int] = None
        #: Seconds the recorder itself spent inside step spans (reset by the
        #: runner at the start of each pass); a traced pass's step total
        #: minus this is what an untraced one pays.
        self.cost_in_steps_s = 0.0
        self._open: List[int] = []
        self._wrapped: List[tuple] = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> Optional[int]:
        """Open a span under the innermost open one; returns its id."""
        if not self.enabled:
            return None
        entered = time.perf_counter()
        span_id = len(self.spans)
        record = {
            "id": span_id,
            "name": name,
            "start": 0.0,
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "pass": self.pass_index,
            "step": self.step,
        }
        self.spans.append(record)
        self._open.append(span_id)
        record["start"] = time.perf_counter()
        if self.step is not None:
            self.cost_in_steps_s += record["start"] - entered
        return span_id

    def end(self, span_id: Optional[int]) -> None:
        if span_id is None:
            return
        ended = time.perf_counter()
        if not self._open or self._open[-1] != span_id:
            raise RuntimeError(f"span {span_id} closed out of order")
        self._open.pop()
        self.spans[span_id]["end"] = ended
        if self.step is not None:
            self.cost_in_steps_s += time.perf_counter() - ended

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = self.begin(name)
        try:
            yield
        finally:
            self.end(span_id)

    def wrap(self, owner: Any, attr: str, name: SpanName) -> None:
        """Record a span around every call of ``owner.attr``.

        ``owner`` is an instance, a class or a module; this is how calls the
        program makes into its own layers (the controller calling
        ``solve_warm``, the learner calling ``evaluate``) are seen from the
        outside.  ``name`` may be a callable evaluated at call time.
        """
        if not self.enabled:
            return
        inner = getattr(owner, attr)
        had_own = attr in vars(owner)

        @functools.wraps(inner)
        def spanned(*args, **kwargs):
            span_id = self.begin(name() if callable(name) else name)
            try:
                return inner(*args, **kwargs)
            finally:
                self.end(span_id)

        setattr(owner, attr, spanned)
        self._wrapped.append((owner, attr, inner, had_own))

    def unwrap_all(self) -> None:
        while self._wrapped:
            owner, attr, inner, had_own = self._wrapped.pop()
            if had_own:
                setattr(owner, attr, inner)
            else:
                delattr(owner, attr)


def span_durations(spans: List[Dict[str, Any]]) -> Dict[str, List[float]]:
    out: Dict[str, List[float]] = defaultdict(list)
    for span in spans:
        if span["end"] is not None:
            out[span["name"]].append(span["end"] - span["start"])
    return dict(out)


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Per span id: its duration minus the part its child spans cover."""
    own = {
        s["id"]: s["end"] - s["start"] for s in spans if s["end"] is not None
    }
    for span in spans:
        parent = span["parent"]
        if span["end"] is not None and parent in own:
            own[parent] -= span["end"] - span["start"]
    return own
