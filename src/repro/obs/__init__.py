"""repro.obs — zero-dependency instrumentation for the mining stack.

Spans, metrics, exporters and the analysis layer in one package:

- :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with counters,
  gauges and fixed-bucket histograms; :class:`Stopwatch` / ``Timer``
  for elapsed-seconds timing (the only sanctioned wall-clock readers
  outside this package — RPL007/RPL008).
- :mod:`repro.obs.trace` — context-manager :class:`Span`s with parent
  links and labels via :class:`Tracer`; a disabled tracer hands out
  true no-ops so hot loops pay nothing.
- :mod:`repro.obs.context` — the ambient scope
  (:func:`get_registry` / :func:`get_tracer` / :func:`scope`) that
  lets engine-less kernel calls still count into *some* registry and
  lets the engine/CLI redirect them into their own.
- :mod:`repro.obs.export` — JSON-lines traces (``--trace PATH``),
  ``--engine-stats`` renderings and per-benchmark run manifests.
- :mod:`repro.obs.profile` — span-tree analysis: per-name rollups,
  critical path and folded-stack export (``repro-mine profile`` and
  the ``--profile`` flag).
- :mod:`repro.obs.history` — the append-only ``.repro-history/``
  warehouse of ingested run manifests (``repro-mine perf ingest``).
- :mod:`repro.obs.regress` — noise-aware regression verdicts of a
  manifest against the warehouse's rolling median
  (``repro-mine perf check``).
- :mod:`repro.obs.schema` — the minimal JSON-schema validator CI uses
  on emitted traces/manifests/history/verdicts
  (``python -m repro.obs.schema``).

See ``docs/observability.md`` for the span taxonomy and metric names.
"""

from importlib import import_module
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.obs.context import get_registry, get_tracer, global_registry, scope
    from repro.obs.export import (
        MANIFEST_VERSION,
        TRACE_VERSION,
        build_manifest,
        git_revision,
        render_stats,
        trace_lines,
        write_manifest,
        write_trace,
    )
    from repro.obs.history import (
        HISTORY_DIRNAME,
        HISTORY_VERSION,
        RunHistory,
        manifest_metrics,
        manifest_record,
        params_fingerprint,
    )
    from repro.obs.metrics import (
        DEFAULT_SECONDS_BUCKETS,
        Counter,
        Gauge,
        Histogram,
        MetricsRegistry,
        Stopwatch,
        Timer,
        stopwatch,
    )
    from repro.obs.profile import (
        PathStep,
        Profile,
        ProfileRow,
        build_profile,
        folded_lines,
        profile_trace,
        read_trace_spans,
        render_profile,
        write_folded,
    )
    from repro.obs.regress import (
        REGRESS_VERSION,
        RegressPolicy,
        check_manifest,
        is_gated_metric,
        render_report,
    )
    from repro.obs.trace import NULL_SPAN, Span, SpanRecord, Tracer

__all__ = [
    "DEFAULT_SECONDS_BUCKETS",
    "HISTORY_DIRNAME",
    "HISTORY_VERSION",
    "MANIFEST_VERSION",
    "NULL_SPAN",
    "REGRESS_VERSION",
    "TRACE_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PathStep",
    "Profile",
    "ProfileRow",
    "RegressPolicy",
    "RunHistory",
    "Span",
    "SpanRecord",
    "Stopwatch",
    "Timer",
    "Tracer",
    "build_manifest",
    "build_profile",
    "check_manifest",
    "folded_lines",
    "get_registry",
    "get_tracer",
    "git_revision",
    "global_registry",
    "is_gated_metric",
    "manifest_metrics",
    "manifest_record",
    "params_fingerprint",
    "profile_trace",
    "read_trace_spans",
    "render_profile",
    "render_report",
    "render_stats",
    "scope",
    "stopwatch",
    "trace_lines",
    "write_folded",
    "write_manifest",
    "write_trace",
]

# Name -> defining submodule.  Each submodule is imported the first time
# one of its names is looked up (PEP 562), so importing this package
# loads none of them.
_EXPORTS = {
    "get_registry": "context",
    "get_tracer": "context",
    "global_registry": "context",
    "scope": "context",
    "MANIFEST_VERSION": "export",
    "TRACE_VERSION": "export",
    "build_manifest": "export",
    "git_revision": "export",
    "render_stats": "export",
    "trace_lines": "export",
    "write_manifest": "export",
    "write_trace": "export",
    "HISTORY_DIRNAME": "history",
    "HISTORY_VERSION": "history",
    "RunHistory": "history",
    "manifest_metrics": "history",
    "manifest_record": "history",
    "params_fingerprint": "history",
    "DEFAULT_SECONDS_BUCKETS": "metrics",
    "Counter": "metrics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "MetricsRegistry": "metrics",
    "Stopwatch": "metrics",
    "Timer": "metrics",
    "stopwatch": "metrics",
    "PathStep": "profile",
    "Profile": "profile",
    "ProfileRow": "profile",
    "build_profile": "profile",
    "folded_lines": "profile",
    "profile_trace": "profile",
    "read_trace_spans": "profile",
    "render_profile": "profile",
    "write_folded": "profile",
    "REGRESS_VERSION": "regress",
    "RegressPolicy": "regress",
    "check_manifest": "regress",
    "is_gated_metric": "regress",
    "render_report": "regress",
    "NULL_SPAN": "trace",
    "Span": "trace",
    "SpanRecord": "trace",
    "Tracer": "trace",
}


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
