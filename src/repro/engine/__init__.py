"""Batched execution of per-tree cousin-pair mining.

The engine is the seam between the paper's algorithms (pure functions
over one tree) and production concerns (batched mining, content
addresses for persisted corpora, incremental corpus maintenance,
observability).  See
:mod:`repro.engine.engine` for the execution model,
:mod:`repro.engine.cache` for the content-address scheme,
:mod:`repro.engine.delta` for versioned corpora and ``docs/engine.md``
for the architecture overview.
"""

from importlib import import_module
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.engine.cache import arena_cache_key
    from repro.engine.delta import (
        CorpusDelta,
        CorpusDiff,
        CorpusSnapshot,
        TreeRef,
        VersionedCorpus,
    )
    from repro.engine.engine import MiningEngine
    from repro.engine.stats import EngineStats

__all__ = [
    "MiningEngine",
    "EngineStats",
    "VersionedCorpus",
    "CorpusDelta",
    "CorpusDiff",
    "CorpusSnapshot",
    "TreeRef",
    "arena_cache_key",
]

# Name -> defining submodule.  Each submodule is imported the first time
# one of its names is looked up (PEP 562), so importing this package
# loads none of them.
_EXPORTS = {
    "arena_cache_key": "cache",
    "CorpusDelta": "delta",
    "CorpusDiff": "delta",
    "CorpusSnapshot": "delta",
    "TreeRef": "delta",
    "VersionedCorpus": "delta",
    "MiningEngine": "engine",
    "EngineStats": "stats",
}


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
