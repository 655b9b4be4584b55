"""Context-manager spans with parent links, labels and monotonic time.

A :class:`Tracer` hands out spans::

    with tracer.span("engine.mine", metric="engine.mine.seconds",
                     trees=3):
        ...

Enabled, the span records (name, id, parent id, start offset,
duration, labels) into ``tracer.records`` — parent links come from a
stack the tracer maintains, so nesting falls out of lexical ``with``
structure — and, when ``metric`` is given, also observes the duration
into the tracer's registry histogram.

Disabled, ``span()`` returns either :data:`NULL_SPAN` (a shared
do-nothing context manager: no clock read, no allocation beyond the
call itself) or, for metric-bearing spans, a plain
:class:`repro.obs.metrics.Timer` so required aggregates like
``EngineStats.mine_seconds`` keep accumulating.  Hot loops therefore
pay nothing for tracing they did not ask for — the overhead gate in
``tests/obs/test_overhead.py`` holds the no-op path under 5% of a
smoke mining run.

Span durations are ``time.perf_counter`` deltas; start offsets are
relative to the tracer's construction epoch, so a trace file is
self-consistent without wall-clock trust.
"""

from __future__ import annotations

import time
from types import TracebackType
from typing import Union

from repro.obs.metrics import MetricsRegistry, Timer

__all__ = ["NULL_SPAN", "Span", "SpanRecord", "Tracer"]


class SpanRecord:
    """One finished span: the unit written to a JSON-lines trace."""

    __slots__ = ("span_id", "parent_id", "name", "start", "seconds", "labels")

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        name: str,
        start: float,
        seconds: float,
        labels: dict[str, object],
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.seconds = seconds
        self.labels = labels

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpanRecord(#{self.span_id} {self.name!r} "
            f"{self.seconds:.6f}s parent={self.parent_id})"
        )


class _NullSpan:
    """The shared disabled span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        return None

    def annotate(self, **labels: object) -> None:
        return None


NULL_SPAN = _NullSpan()
"""Singleton no-op span returned by disabled tracers."""


class Span:
    """A live (enabled) span; use only via :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "name", "metric", "labels", "span_id",
                 "parent_id", "_started")

    def __init__(
        self,
        tracer: Tracer,
        name: str,
        metric: str | None,
        labels: dict[str, object],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.metric = metric
        self.labels = labels
        self.span_id = -1
        self.parent_id: int | None = None
        self._started = 0.0

    def annotate(self, **labels: object) -> None:
        """Attach labels after entry (e.g. counts known only at exit)."""
        self.labels.update(labels)

    def __enter__(self) -> Span:
        tracer = self._tracer
        self.span_id = tracer._next_id
        tracer._next_id += 1
        stack = tracer._stack
        self.parent_id = stack[-1] if stack else None
        stack.append(self.span_id)
        self._started = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        ended = time.perf_counter()
        seconds = ended - self._started
        tracer = self._tracer
        tracer._stack.pop()
        tracer.records.append(
            SpanRecord(
                self.span_id,
                self.parent_id,
                self.name,
                self._started - tracer.epoch,
                seconds,
                self.labels,
            )
        )
        if self.metric is not None:
            tracer.registry.histogram(self.metric).observe(seconds)


SpanHandle = Union[Span, Timer, _NullSpan]
"""What :meth:`Tracer.span` returns: all three support ``with`` and
``annotate``."""


class Tracer:
    """Produces spans over one registry; disabled by default elsewhere.

    Parameters
    ----------
    registry:
        Where metric-bearing spans observe their durations.  A fresh
        private registry when omitted.
    enabled:
        When false (the usual state), :meth:`span` never records
        anything — it returns :data:`NULL_SPAN`, or a bare registry
        timer when ``metric`` is given.
    """

    __slots__ = ("registry", "enabled", "epoch", "records", "_stack",
                 "_next_id")

    def __init__(
        self, registry: MetricsRegistry | None = None, enabled: bool = True
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.enabled = enabled
        self.epoch = time.perf_counter()
        self.records: list[SpanRecord] = []
        self._stack: list[int] = []
        self._next_id = 0

    def span(
        self, name: str, *, metric: str | None = None, **labels: object
    ) -> SpanHandle:
        """A context manager timing one named section.

        ``metric`` names a registry histogram that must accumulate the
        duration even when tracing is off (the engine's
        ``mine_seconds`` path); label keyword arguments are attached to
        the trace record only.
        """
        if not self.enabled:
            if metric is None:
                return NULL_SPAN
            return self.registry.time(metric)
        return Span(self, name, metric, dict(labels))

    def reset(self) -> None:
        """Drop recorded spans and restart ids/epoch (registry untouched)."""
        self.records.clear()
        self._stack.clear()
        self._next_id = 0
        self.epoch = time.perf_counter()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return f"Tracer({state}, {len(self.records)} span(s))"
