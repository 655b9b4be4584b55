"""On-disk pair store: packed corpora as memmappable ``.npy`` shards.

Public surface:

- :class:`~repro.store.pairstore.PairStore` — pack, open, query and
  incrementally update one stored corpus (``store.json`` manifest
  plus generation directories of array shards).
- :func:`~repro.store.shards.write_array` /
  :func:`~repro.store.shards.load_array` — atomic ``.npy`` column
  writes and checked memmap reads of one shard.

The store is the only on-disk form of a whole corpus; the engine
cache's disk layer holds per-tree payloads only.

See ``docs/perf.md`` for the shard layout, the generation /
compaction model, and when to pack a store versus relying on the
engine cache.
"""

from repro.store.pairstore import STORE_FILE, STORE_FORMAT, PairStore
from repro.store.shards import load_array, write_array

__all__ = [
    "PairStore",
    "STORE_FILE",
    "STORE_FORMAT",
    "load_array",
    "write_array",
]
