"""Content-addressed caching of per-tree mining results.

The unit the engine memoises is one tree's kernel result — an element
of :func:`repro.core.fastmine.mine_arenas`' output — an interned
:class:`repro.core.fastmine.PackedCounts` (sorted packed-int keys and
counts plus the sorted label table the tree was interned on).  Everything downstream
(``mine_tree`` items, string-keyed counters, :class:`CousinPairSet`
algebra, forest support counting) is a cheap projection of that
record, so caching at this level serves every consumer at once.

Cache keys are *content addresses*: a SHA-256 over

- a key-scheme version tag (bump it when the payload semantics change;
  ``v2`` switched the stored payload from string-keyed counters to
  interned packed counts),
- the mining parameters that influence the counts — ``maxdist``,
  ``max_generation_gap`` and ``max_height`` (``minoccur`` and
  ``minsup`` are post-filters and deliberately excluded, so one cached
  payload serves every threshold), and
- the tree's canonical form (:meth:`repro.trees.arena.TreeArena
  .fingerprint`: :meth:`repro.trees.tree.Tree.canonical_form`
  semantics, serialised iteratively so arbitrarily deep trees are safe).

The canonical form ignores node ids and label ids, so isomorphic
trees share one address whichever table interned them.  A payload
carries the label tuple its ids index (a tree's own table, or the
shared table of the forest it was read with), and every consumer
decodes or re-interns ids through that tuple; the engine serves a
payload for an arena only when the labels its keys use are the
arena's (:meth:`repro.engine.engine.MiningEngine._admissible`).

:func:`arena_cache_key` is the only address function: the engine
computes it from the arenas the readers produce (or flattens a pointer
tree first), and :class:`repro.store.PairStore` records it per tree.
An address costs about as much as mining the tree, so the engine
computes one only where it can be used: for every tree of a batch
when its cache is on, and for every tree passed to
:meth:`repro.engine.engine.MiningEngine.packed_counts` (whose callers
persist it) whatever the cache size.  An engine whose cache is off
(``max_entries=0``) mines its other batches unaddressed; deduplicating
isomorphic trees inside a batch therefore needs a cache.

The cache is one bounded in-process LRU (``OrderedDict``).  Per-tree
results persist only inside a corpus's pair store
(:class:`repro.store.PairStore`), never here.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

from repro.core.params import MiningParams
from repro.errors import EngineError
from repro.obs.context import get_registry
from repro.trees.arena import TreeArena
from repro.trees.packing import PACKED_KEY_SCHEME

__all__ = [
    "arena_cache_key",
    "PairSetCache",
]

# The packed-layout version tag doubles as the cache key scheme: any
# change to the key layout must re-address every cached payload.
_KEY_SCHEME = PACKED_KEY_SCHEME


def arena_cache_key(arena: TreeArena, params: MiningParams) -> str:
    """The content address of one (tree, parameters) mining result.

    Equal for isomorphic arenas under the same counter-affecting
    parameters (:meth:`TreeArena.fingerprint` ignores ids and branch
    lengths), whichever reader or process produced the arena.
    """
    payload = "\n".join(
        [
            _KEY_SCHEME,
            f"maxdist={float(params.maxdist)!r}",
            f"gap={int(params.max_generation_gap)!r}",
            f"height={params.max_height!r}",
            arena.fingerprint(),
        ]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class PairSetCache:
    """A bounded in-process LRU of mining results, by content address.

    The engine stores :class:`~repro.core.fastmine.PackedCounts`
    payloads; the cache itself is payload-agnostic (legacy string-keyed
    ``Counter`` objects work too).

    Parameters
    ----------
    max_entries:
        Capacity; ``0`` disables the cache, ``None`` makes it
        unbounded.
    """

    def __init__(self, max_entries: int | None = 4096) -> None:
        if max_entries is not None and max_entries < 0:
            raise EngineError(
                f"max_entries must be >= 0 or None, got {max_entries!r}"
            )
        self.max_entries = max_entries
        self._lru: OrderedDict[str, object] = OrderedDict()

    def lookup(self, key: str) -> object | None:
        """The payload cached under ``key`` (now most recent), or
        ``None`` on a miss."""
        if key not in self._lru:
            return None
        self._lru.move_to_end(key)
        return self._lru[key]

    def put(self, key: str, payload: object) -> None:
        """Cache a mining payload, evicting the least recent entries."""
        if self.max_entries == 0:
            return
        self._lru[key] = payload
        self._lru.move_to_end(key)
        if self.max_entries is not None:
            evicted = 0
            while len(self._lru) > self.max_entries:
                self._lru.popitem(last=False)
                evicted += 1
            if evicted:
                get_registry().counter("cache.memory.evictions").add(evicted)

    def clear(self) -> None:
        """Drop every entry."""
        self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, key: object) -> bool:
        return key in self._lru

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PairSetCache({len(self._lru)} in memory)"
