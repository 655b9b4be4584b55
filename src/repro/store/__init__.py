"""On-disk pair store: packed corpora as memmappable ``.npy`` shards.

Public surface:

- :class:`~repro.store.pairstore.PairStore` — open, query and
  incrementally update one stored corpus (the ``store.json``
  checkpoint and its ``journal.jsonl`` of later commits, generation
  directories of one ``columns.npy`` file each plus the
  ``labels.json`` label table, and the ``log.jsonl`` delta log);
  :meth:`repro.engine.delta.VersionedCorpus.pack_store` writes one.
- :func:`~repro.store.shards.write_array` /
  :func:`~repro.store.shards.load_array` — atomic ``.npy`` writes
  and checked memmap reads of one generation's columns file.

The store is the only on-disk form of mining results: a
``repro-mine corpus`` directory is a pair store, and the engine keeps
nothing between batches.

See ``docs/perf.md`` for the store layout and the journal /
compaction model.
"""

from repro.store.pairstore import (
    COLUMNS_FILE,
    JOURNAL_FILE,
    LABELS_FILE,
    LOG_FILE,
    STORE_FILE,
    STORE_FORMAT,
    PairStore,
)
from repro.store.shards import load_array, write_array

__all__ = [
    "PairStore",
    "COLUMNS_FILE",
    "JOURNAL_FILE",
    "LABELS_FILE",
    "LOG_FILE",
    "STORE_FILE",
    "STORE_FORMAT",
    "load_array",
    "write_array",
]
