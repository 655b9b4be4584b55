"""Ambient instrumentation scope: which registry/tracer is current.

Core kernels (:mod:`repro.core.fastmine`, :mod:`repro.core.distvec`,
:mod:`repro.core.kernel`) and the apps are callable with or without an
engine, so they cannot take a registry parameter everywhere — instead
they ask :func:`get_registry` / :func:`get_tracer` for the *current*
scope.  The base scope is a process-global registry plus a disabled
tracer, so engine-less calls still count (cheaply) and never trace.

Owners install their own scope for a bounded section::

    with obs.scope(registry=engine.registry, tracer=engine.tracer):
        ...   # kernel metrics land in the engine's registry

The engine wraps each batch this way; the CLI wraps a whole command.

The stack is a plain module-level list: the mining stack is
single-threaded.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = ["get_registry", "get_tracer", "global_registry", "scope"]

_GLOBAL_REGISTRY = MetricsRegistry()
_BASE_TRACER = Tracer(_GLOBAL_REGISTRY, enabled=False)
_SCOPES: list[tuple[MetricsRegistry, Tracer]] = [
    (_GLOBAL_REGISTRY, _BASE_TRACER)
]


def global_registry() -> MetricsRegistry:
    """The process-wide base registry (engine-less calls land here)."""
    return _GLOBAL_REGISTRY


def get_registry() -> MetricsRegistry:
    """The registry of the innermost active scope."""
    return _SCOPES[-1][0]


def get_tracer() -> Tracer:
    """The tracer of the innermost active scope."""
    return _SCOPES[-1][1]


@contextmanager
def scope(
    registry: MetricsRegistry | None = None, tracer: Tracer | None = None
) -> Iterator[tuple[MetricsRegistry, Tracer]]:
    """Install a registry/tracer pair as the current scope.

    Either argument may be omitted: a missing registry is taken from
    the given tracer, a missing tracer becomes a disabled tracer over
    the given registry (metric-bearing spans still accumulate there).
    At least one must be provided — an empty scope would only shadow
    the current one with itself.
    """
    if registry is None and tracer is None:
        raise ValueError("scope() needs a registry, a tracer, or both")
    if registry is None:
        assert tracer is not None
        registry = tracer.registry
    if tracer is None:
        tracer = Tracer(registry, enabled=False)
    entry = (registry, tracer)
    _SCOPES.append(entry)
    try:
        yield entry
    finally:
        _SCOPES.pop()
