"""Cached execution of per-tree cousin-pair mining.

The engine is the seam between the paper's algorithms (pure functions
over one tree) and production concerns (content-addressed caching of
per-tree counts, incremental corpus maintenance, observability).  See
:mod:`repro.engine.engine` for the execution model,
:mod:`repro.engine.cache` for the content-address scheme,
:mod:`repro.engine.delta` for versioned corpora and ``docs/engine.md``
for the architecture overview.
"""

from repro.engine.cache import PairSetCache, arena_cache_key
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
    "PairSetCache",
    "EngineStats",
    "VersionedCorpus",
    "CorpusDelta",
    "CorpusDiff",
    "CorpusSnapshot",
    "TreeRef",
    "arena_cache_key",
]
