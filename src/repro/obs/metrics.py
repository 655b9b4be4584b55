"""In-process metrics: counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` is the single mutable store behind the
instrumentation layer: :class:`repro.engine.stats.EngineStats` is a
thin view over one, snapshots serialise it
(:meth:`MetricsRegistry.snapshot`), and the tracing layer
(:mod:`repro.obs.trace`) observes span durations into its histograms.

Metric objects are plain attribute-holding instances handed out once
and then mutated in place — hot code paths cache the
:class:`Counter`/:class:`Histogram` reference and pay one attribute
increment per event, no name lookup.  :meth:`MetricsRegistry.reset`
zeroes every metric *in place* for the same reason: held references
stay valid across resets.

Wall-clock reads live here (and in :mod:`repro.obs.trace`) and nowhere
else in ``src/repro`` — RPL007 enforces that every other module times
through :class:`Timer`, :class:`Stopwatch` or spans.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from types import TracebackType
from typing import Any, Sequence

__all__ = [
    "DEFAULT_SECONDS_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Stopwatch",
    "Timer",
    "stopwatch",
]

# Half-decade buckets spanning the latencies the mining stack actually
# produces: a single no-op span lands in the first bucket, a full
# Figure-10 kernel search in the last.
DEFAULT_SECONDS_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.001,
    0.01,
    0.1,
    1.0,
    10.0,
    60.0,
)


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time float metric (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def reset(self) -> None:
        self.value = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Fixed upper-bound buckets plus count/total/min/max.

    Bucket ``i`` counts observations ``<= bounds[i]``; one extra
    overflow bucket catches everything beyond the last bound.  The
    bounds are fixed at creation, which keeps snapshots mergeable
    across processes without rebucketing.
    """

    __slots__ = (
        "name",
        "bounds",
        "bucket_counts",
        "count",
        "total",
        "minimum",
        "maximum",
    )

    def __init__(
        self, name: str, bounds: Sequence[float] = DEFAULT_SECONDS_BUCKETS
    ) -> None:
        ordered = tuple(float(bound) for bound in bounds)
        if not ordered or any(
            left >= right for left, right in zip(ordered, ordered[1:])
        ):
            raise ValueError(
                f"histogram bounds must be strictly increasing, got {bounds!r}"
            )
        self.name = name
        self.bounds = ordered
        self.bucket_counts = [0] * (len(ordered) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        for index in range(len(self.bucket_counts)):
            self.bucket_counts[index] = 0
        self.count = 0
        self.total = 0.0
        self.minimum = None
        self.maximum = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}: count={self.count}, total={self.total})"


class Timer:
    """Context manager observing elapsed seconds into a histogram.

    This is what a disabled tracer hands back for metric-bearing spans
    (:meth:`repro.obs.trace.Tracer.span`): the duration still lands in
    the registry, but no trace record is built.
    """

    __slots__ = ("histogram", "seconds", "_started")

    def __init__(self, histogram: Histogram) -> None:
        self.histogram = histogram
        self.seconds = 0.0
        self._started = 0.0

    def __enter__(self) -> Timer:
        self._started = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.seconds = time.perf_counter() - self._started
        self.histogram.observe(self.seconds)

    def annotate(self, **labels: object) -> None:
        """Labels are a tracing concern; the metric-only form drops them."""


class Stopwatch:
    """Bare elapsed-seconds context manager (no histogram, no trace).

    The sanctioned replacement for ad-hoc ``time.perf_counter()`` pairs
    in code that must *return* an elapsed time (RPL007): ``with
    stopwatch() as watch: ...`` then read ``watch.seconds``.
    """

    __slots__ = ("seconds", "_started")

    def __init__(self) -> None:
        self.seconds = 0.0
        self._started = 0.0

    def __enter__(self) -> Stopwatch:
        self._started = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.seconds = time.perf_counter() - self._started


def stopwatch() -> Stopwatch:
    """A fresh :class:`Stopwatch`, ready for a ``with`` block."""
    return Stopwatch()


class MetricsRegistry:
    """Named counters, gauges and histograms with snapshot semantics.

    ``counter``/``gauge``/``histogram`` get-or-create, so callers can
    resolve a metric once and keep the reference.  ``snapshot`` is a
    plain-JSON dict; ``reset`` zeroes every metric in place without
    invalidating held references.
    """

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        found = self._counters.get(name)
        if found is None:
            found = self._counters[name] = Counter(name)
        return found

    def gauge(self, name: str) -> Gauge:
        found = self._gauges.get(name)
        if found is None:
            found = self._gauges[name] = Gauge(name)
        return found

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_SECONDS_BUCKETS
    ) -> Histogram:
        found = self._histograms.get(name)
        if found is None:
            found = self._histograms[name] = Histogram(name, bounds)
        return found

    def time(self, name: str) -> Timer:
        """A :class:`Timer` over the named histogram."""
        return Timer(self.histogram(name))

    def snapshot(self) -> dict[str, Any]:
        """Plain-JSON state: exportable, schema-stable."""
        return {
            "counters": {
                name: metric.value
                for name, metric in sorted(self._counters.items())
            },
            "gauges": {
                name: metric.value
                for name, metric in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    "bounds": list(metric.bounds),
                    "bucket_counts": list(metric.bucket_counts),
                    "count": metric.count,
                    "total": metric.total,
                    "min": metric.minimum,
                    "max": metric.maximum,
                }
                for name, metric in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        """Zero every metric in place (held references stay valid)."""
        for counter in self._counters.values():
            counter.reset()
        for gauge in self._gauges.values():
            gauge.reset()
        for histogram in self._histograms.values():
            histogram.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry({len(self._counters)} counter(s), "
            f"{len(self._gauges)} gauge(s), "
            f"{len(self._histograms)} histogram(s))"
        )
