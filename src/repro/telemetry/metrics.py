"""The metrics half of :mod:`repro.telemetry`: counters, gauges, histograms.

Five stat kinds — :class:`Counter`, :class:`CacheStats`,
:class:`TimerStats`, :class:`Gauge` (a last-value-wins level) and
:class:`Histogram` (fixed-bucket distributions — per-batch flow counts,
marginal-benefit magnitudes, advertisement-round latency deltas) — owned by
a :class:`MetricsRegistry`; the module-level :data:`METRICS` registry is the
one instrumented production code uses.

Design rules:

* hot code asks the registry for a stat object **once** and then mutates a
  plain attribute — instrumentation costs an attribute increment, not a
  dict lookup plus allocation;
* ``reset()`` zeroes stats *in place*, keeping handed-out references valid;
* ``snapshot()`` is plain JSON-able data and ``merge()`` folds a worker
  process's snapshot into this one.

:meth:`MetricsRegistry.to_prometheus` renders the whole registry
in the Prometheus text exposition format (counters, gauges, cumulative
histogram buckets, timers as ``_seconds_total``/``_calls_total`` pairs).
"""

from __future__ import annotations

import bisect
import math
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple


class Counter:
    """A named monotonic event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A named last-value-wins level (live flows, heap size, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def reset(self) -> None:
        self.value = 0.0

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value})"


class CacheStats:
    """Hit/miss accounting for one named cache."""

    __slots__ = ("name", "hits", "misses", "invalidations")

    def __init__(self, name: str) -> None:
        self.name = name
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __repr__(self) -> str:
        return (
            f"CacheStats({self.name!r}, hits={self.hits}, misses={self.misses}, "
            f"invalidations={self.invalidations})"
        )


class TimerStats:
    """Accumulated wall-clock time over a named region."""

    __slots__ = ("name", "calls", "total_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.total_s = 0.0

    def add(self, elapsed_s: float) -> None:
        self.calls += 1
        self.total_s += elapsed_s

    @property
    def mean_s(self) -> float:
        return self.total_s / self.calls if self.calls else 0.0

    def reset(self) -> None:
        self.calls = 0
        self.total_s = 0.0

    def __repr__(self) -> str:
        return f"TimerStats({self.name!r}, calls={self.calls}, total_s={self.total_s:.3f})"


#: Default histogram buckets: decades with a 1-2-5 ladder, good for counts
#: and millisecond magnitudes alike.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1_000.0, 2_500.0, 5_000.0, 10_000.0, 100_000.0, 1_000_000.0,
)


class Histogram:
    """Fixed-bucket distribution (Prometheus-style cumulative semantics).

    ``bounds`` are the *upper* edges of the finite buckets; one implicit
    ``+inf`` bucket catches the overflow.  Bounds are fixed at creation —
    re-requesting the histogram with different bounds raises, because two
    call sites silently aggregating into different shapes is a bug.
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        cleaned = tuple(float(b) for b in bounds)
        if not cleaned or any(
            b2 <= b1 for b1, b2 in zip(cleaned, cleaned[1:])
        ):
            raise ValueError("histogram bounds must be strictly increasing")
        self.name = name
        self.bounds = cleaned
        self.counts = [0] * (len(cleaned) + 1)  # +1 for the +inf bucket
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile (upper bound of the bucket holding it)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target and c:
                return self.bounds[i] if i < len(self.bounds) else self.max
        return self.max

    def reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count}, sum={self.sum:.3f})"


class MetricsRegistry:
    """Owns every named counter/gauge/cache/timer/histogram and renders them.

    Stat objects are created on first request and survive :meth:`reset`
    (which zeroes them in place), so hot paths can hold direct references
    across resets.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._caches: Dict[str, CacheStats] = {}
        self._timers: Dict[str, TimerStats] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- stat acquisition ---------------------------------------------------

    def counter(self, name: str) -> Counter:
        stat = self._counters.get(name)
        if stat is None:
            stat = self._counters[name] = Counter(name)
        return stat

    def gauge(self, name: str) -> Gauge:
        stat = self._gauges.get(name)
        if stat is None:
            stat = self._gauges[name] = Gauge(name)
        return stat

    def cache(self, name: str) -> CacheStats:
        stat = self._caches.get(name)
        if stat is None:
            stat = self._caches[name] = CacheStats(name)
        return stat

    def timer(self, name: str) -> TimerStats:
        stat = self._timers.get(name)
        if stat is None:
            stat = self._timers[name] = TimerStats(name)
        return stat

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        stat = self._histograms.get(name)
        if stat is None:
            stat = self._histograms[name] = Histogram(
                name, bounds if bounds is not None else DEFAULT_BUCKETS
            )
        elif bounds is not None and tuple(float(b) for b in bounds) != stat.bounds:
            raise ValueError(
                f"histogram {name!r} already exists with different bounds"
            )
        return stat

    @contextmanager
    def timed(self, name: str) -> Iterator[TimerStats]:
        """``with METRICS.timed("solve"): ...`` — accumulate the block's time."""
        stat = self.timer(name)
        start = time.perf_counter()
        try:
            yield stat
        finally:
            stat.add(time.perf_counter() - start)

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Zero every stat in place (handed-out references stay valid)."""
        for group in (
            self._counters, self._gauges, self._caches, self._timers,
            self._histograms,
        ):
            for stat in group.values():
                stat.reset()

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a :meth:`snapshot` from another registry (e.g. a parallel
        experiment worker process) into this one, summing every stat.

        Merging is atomic: every incompatibility (histogram bounds or bucket
        shape drift between processes) is detected up front, before any stat
        is touched, so a rejected snapshot leaves the registry exactly as it
        was.  Stats the parent has never seen are created on the fly.
        """
        # Validate-first: a partially applied snapshot would silently skew
        # every later report, which is worse than losing the snapshot.
        for name, stats in snapshot.get("histograms", {}).items():
            existing = self._histograms.get(name)
            bounds = stats.get("bounds")
            if existing is not None:
                if (
                    bounds is not None
                    and tuple(float(b) for b in bounds) != existing.bounds
                ):
                    raise ValueError(
                        f"histogram {name!r} already exists with different bounds"
                    )
                expected_buckets = len(existing.counts)
            else:
                expected_buckets = (
                    len(bounds) + 1 if bounds is not None else len(DEFAULT_BUCKETS) + 1
                )
            counts = stats.get("counts", [])
            if len(counts) != expected_buckets:
                raise ValueError(
                    f"histogram {name!r} snapshot has {len(counts)} buckets, "
                    f"registry has {expected_buckets}"
                )
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).value += int(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)  # last writer wins, as for any gauge
        for name, stats in snapshot.get("caches", {}).items():
            cache = self.cache(name)
            cache.hits += int(stats.get("hits", 0))
            cache.misses += int(stats.get("misses", 0))
            cache.invalidations += int(stats.get("invalidations", 0))
        for name, stats in snapshot.get("timers", {}).items():
            timer = self.timer(name)
            timer.calls += int(stats.get("calls", 0))
            timer.total_s += float(stats.get("total_s", 0.0))
        for name, stats in snapshot.get("histograms", {}).items():
            hist = self.histogram(name, stats.get("bounds"))
            counts = stats.get("counts", [])
            for i, c in enumerate(counts):
                hist.counts[i] += int(c)
            hist.count += int(stats.get("count", 0))
            hist.sum += float(stats.get("sum", 0.0))
            # min/max serialize as None while the histogram is empty.
            if stats.get("min") is not None:
                hist.min = min(hist.min, float(stats["min"]))
            if stats.get("max") is not None:
                hist.max = max(hist.max, float(stats["max"]))

    # -- inspection ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Plain-data view of every stat (JSON-serializable)."""
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "caches": {
                name: {
                    "hits": s.hits,
                    "misses": s.misses,
                    "invalidations": s.invalidations,
                    "hit_rate": s.hit_rate,
                }
                for name, s in sorted(self._caches.items())
            },
            "timers": {
                name: {"calls": t.calls, "total_s": t.total_s, "mean_s": t.mean_s}
                for name, t in sorted(self._timers.items())
            },
            "histograms": {
                name: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "count": h.count,
                    "sum": h.sum,
                    "min": h.min if h.count else None,
                    "max": h.max if h.count else None,
                }
                for name, h in sorted(self._histograms.items())
            },
        }

    def _active(self) -> bool:
        return bool(
            any(c.value for c in self._counters.values())
            or any(g.value for g in self._gauges.values())
            or any(c.hits or c.misses for c in self._caches.values())
            or any(t.calls for t in self._timers.values())
            or any(h.count for h in self._histograms.values())
        )

    def render(self) -> str:
        """Fixed-width text report for terminals."""
        lines: List[str] = ["== performance counters =="]
        if not self._active():
            lines.append("(no activity recorded)")
            return "\n".join(lines)
        if any(c.value for c in self._counters.values()):
            lines.append("-- counters --")
            width = max(len(n) for n in self._counters)
            for name, counter in sorted(self._counters.items()):
                lines.append(f"{name.ljust(width)}  {counter.value}")
        live_gauges = {n: g for n, g in self._gauges.items() if g.value}
        if live_gauges:
            lines.append("-- gauges --")
            width = max(len(n) for n in live_gauges)
            for name, gauge in sorted(live_gauges.items()):
                lines.append(f"{name.ljust(width)}  {gauge.value:g}")
        live_caches = {n: s for n, s in self._caches.items() if s.lookups or s.invalidations}
        if live_caches:
            lines.append("-- caches --")
            width = max(len(n) for n in live_caches)
            for name, s in sorted(live_caches.items()):
                lines.append(
                    f"{name.ljust(width)}  hits {s.hits}  misses {s.misses}  "
                    f"hit-rate {100 * s.hit_rate:.1f}%  invalidations {s.invalidations}"
                )
        live_timers = {n: t for n, t in self._timers.items() if t.calls}
        if live_timers:
            lines.append("-- timers --")
            width = max(len(n) for n in live_timers)
            for name, t in sorted(live_timers.items()):
                lines.append(
                    f"{name.ljust(width)}  calls {t.calls}  total {t.total_s:.3f}s  "
                    f"mean {1000 * t.mean_s:.2f}ms"
                )
        live_hists = {n: h for n, h in self._histograms.items() if h.count}
        if live_hists:
            lines.append("-- histograms --")
            width = max(len(n) for n in live_hists)
            for name, h in sorted(live_hists.items()):
                lines.append(
                    f"{name.ljust(width)}  count {h.count}  mean {h.mean:g}  "
                    f"min {h.min:g}  p50 {h.quantile(0.5):g}  "
                    f"p99 {h.quantile(0.99):g}  max {h.max:g}"
                )
        return "\n".join(lines)

    def to_markdown(self, title: str = "Performance counters") -> str:
        """Markdown section for inclusion in generated reports."""
        lines = [f"## {title}", ""]
        if not self._active():
            lines.append("*No instrumented activity recorded.*")
            lines.append("")
            return "\n".join(lines)
        if any(c.value for c in self._counters.values()):
            lines.append("| counter | value |")
            lines.append("|---|---|")
            for name, counter in sorted(self._counters.items()):
                lines.append(f"| {name} | {counter.value} |")
            lines.append("")
        live_gauges = {n: g for n, g in self._gauges.items() if g.value}
        if live_gauges:
            lines.append("| gauge | value |")
            lines.append("|---|---|")
            for name, gauge in sorted(live_gauges.items()):
                lines.append(f"| {name} | {gauge.value:g} |")
            lines.append("")
        live_caches = {n: s for n, s in self._caches.items() if s.lookups or s.invalidations}
        if live_caches:
            lines.append("| cache | hits | misses | hit rate | invalidations |")
            lines.append("|---|---|---|---|---|")
            for name, s in sorted(live_caches.items()):
                lines.append(
                    f"| {name} | {s.hits} | {s.misses} | {100 * s.hit_rate:.1f}% "
                    f"| {s.invalidations} |"
                )
            lines.append("")
        live_timers = {n: t for n, t in self._timers.items() if t.calls}
        if live_timers:
            lines.append("| timer | calls | total (s) | mean (ms) |")
            lines.append("|---|---|---|---|")
            for name, t in sorted(live_timers.items()):
                lines.append(
                    f"| {name} | {t.calls} | {t.total_s:.3f} | {1000 * t.mean_s:.2f} |"
                )
            lines.append("")
        live_hists = {n: h for n, h in self._histograms.items() if h.count}
        if live_hists:
            lines.append("| histogram | count | mean | p50 | p99 | max |")
            lines.append("|---|---|---|---|---|---|")
            for name, h in sorted(live_hists.items()):
                lines.append(
                    f"| {name} | {h.count} | {h.mean:g} | {h.quantile(0.5):g} "
                    f"| {h.quantile(0.99):g} | {h.max:g} |"
                )
            lines.append("")
        return "\n".join(lines)

    def to_prometheus(self) -> str:
        """The whole registry in the Prometheus text exposition format.

        Metric names are sanitized (dots/dashes become underscores); caches
        expand to three counters (``_hits_total``/``_misses_total``/
        ``_invalidations_total``) and timers to a call-count/seconds pair,
        mirroring how a real exporter would publish them.
        """
        lines: List[str] = []
        for name, counter in sorted(self._counters.items()):
            metric = _prom_name(name) + "_total"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {counter.value}")
        for name, gauge in sorted(self._gauges.items()):
            metric = _prom_name(name)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_prom_value(gauge.value)}")
        for name, s in sorted(self._caches.items()):
            base = _prom_name(name)
            for suffix, value in (
                ("hits", s.hits), ("misses", s.misses),
                ("invalidations", s.invalidations),
            ):
                metric = f"{base}_{suffix}_total"
                lines.append(f"# TYPE {metric} counter")
                lines.append(f"{metric} {value}")
        for name, t in sorted(self._timers.items()):
            base = _prom_name(name)
            lines.append(f"# TYPE {base}_calls_total counter")
            lines.append(f"{base}_calls_total {t.calls}")
            lines.append(f"# TYPE {base}_seconds_total counter")
            lines.append(f"{base}_seconds_total {_prom_value(t.total_s)}")
        for name, h in sorted(self._histograms.items()):
            base = _prom_name(name)
            lines.append(f"# TYPE {base} histogram")
            cumulative = 0
            for bound, count in zip(h.bounds, h.counts):
                cumulative += count
                lines.append(
                    f'{base}_bucket{{le="{_prom_value(bound)}"}} {cumulative}'
                )
            lines.append(f'{base}_bucket{{le="+Inf"}} {h.count}')
            lines.append(f"{base}_sum {_prom_value(h.sum)}")
            lines.append(f"{base}_count {h.count}")
        return "\n".join(lines) + ("\n" if lines else "")


def _prom_name(name: str) -> str:
    out = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _prom_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


#: The process-wide registry used by instrumented production code.
METRICS = MetricsRegistry()
