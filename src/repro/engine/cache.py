"""Content-addressed caching of per-tree mining results.

The unit of work the engine memoises is one kernel pass over a tree —
:func:`repro.core.fastmine.mine_arena` — whose product is an interned
:class:`repro.core.fastmine.PackedCounts` (packed-int keys plus the
tree's sorted label table).  Everything downstream (``mine_tree``
items, string-keyed counters, :class:`CousinPairSet` algebra, forest
support counting) is a cheap projection of that record, so caching at
this level serves every consumer at once, and the stored form is
exactly what worker processes ship back — no re-encoding at the cache
boundary.

Cache keys are *content addresses*: a SHA-256 over

- a key-scheme version tag (bump it when the payload semantics change;
  ``v2`` switched the stored payload from string-keyed counters to
  interned packed counts),
- the mining parameters that influence the counts — ``maxdist``,
  ``max_generation_gap`` and ``max_height`` (``minoccur`` and
  ``minsup`` are post-filters and deliberately excluded, so one cached
  payload serves every threshold), and
- the tree's canonical form (:meth:`repro.trees.tree.Tree.canonical_form`
  semantics, serialised iteratively so arbitrarily deep trees are safe).

Because interning is deterministic (sorted label order — see
:class:`repro.trees.arena.LabelTable`) and the canonical form ignores
node ids, a packed payload is a pure function of the content address:
isomorphic trees resolve to the same interned result whichever process
mined it.  :func:`cache_key` (from a pointer tree) and
:func:`arena_cache_key` (from an already-flattened arena) produce the
same address for the same content.

Two layers back the address space: a bounded in-process LRU
(``OrderedDict``) and an optional on-disk layer (one pickle per key,
fanned out over 256 subdirectories, written atomically via
:func:`repro.io.atomic_write`).  Corrupt or unreadable disk entries
degrade to counted misses.  Only per-tree payloads live here; the one
on-disk form of a whole corpus is :class:`repro.store.PairStore`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from collections import Counter, OrderedDict

from repro.core.fastmine import PackedCounts
from repro.core.params import MiningParams
from repro.errors import EngineError
from repro.io import atomic_write
from repro.obs.context import get_registry
from repro.trees.arena import TreeArena
from repro.trees.packing import PACKED_KEY_SCHEME
from repro.trees.tree import Tree

__all__ = [
    "tree_fingerprint",
    "cache_key",
    "arena_cache_key",
    "PairSetCache",
]

# The packed-layout version tag doubles as the cache key scheme: any
# change to the key layout must re-address every cached payload.
_KEY_SCHEME = PACKED_KEY_SCHEME

# Separators chosen below "\x00" .. label bytes so no label content can
# forge a boundary: labels are arbitrary strings, so each is wrapped in
# a length prefix instead of relying on forbidden characters.


def tree_fingerprint(tree: Tree) -> str:
    """A canonical-form string: equal iff the trees are isomorphic.

    Matches the equivalence of :meth:`Tree.canonical_form` (rooted,
    unordered, labeled; ids and branch lengths ignored) but is built as
    a flat string bottom-up, so hashing never recurses into nested
    tuples.  Labels are length-prefixed, which keeps the encoding
    injective whatever characters a label contains.
    """
    root = tree.root
    if root is None:
        return "empty"
    forms: dict[int, str] = {}
    for node in tree.postorder():
        child_forms = sorted(forms.pop(child.node_id) for child in node.children)
        if node.label is None:
            label_key = "-"
        else:
            label_key = f"{len(node.label)}:{node.label}"
        forms[node.node_id] = "(" + label_key + "".join(child_forms) + ")"
    return forms[root.node_id]


def _digest(fingerprint: str, params: MiningParams) -> str:
    payload = "\n".join(
        [
            _KEY_SCHEME,
            f"maxdist={float(params.maxdist)!r}",
            f"gap={int(params.max_generation_gap)!r}",
            f"height={params.max_height!r}",
            fingerprint,
        ]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cache_key(tree: Tree, params: MiningParams) -> str:
    """The content address of one (tree, parameters) mining result."""
    return _digest(tree_fingerprint(tree), params)


def arena_cache_key(arena: TreeArena, params: MiningParams) -> str:
    """The content address computed from an already-flattened arena.

    Produces the same digest as :func:`cache_key` on the source tree
    (:meth:`TreeArena.fingerprint` matches :func:`tree_fingerprint`
    byte for byte), so engine code that has flattened its inputs never
    needs the pointer tree to address the cache.
    """
    return _digest(arena.fingerprint(), params)


class PairSetCache:
    """Two-layer (LRU memory + optional disk) mining-result cache.

    The engine stores :class:`~repro.core.fastmine.PackedCounts`
    payloads; the memory layer is payload-agnostic (legacy string-keyed
    ``Counter`` objects work too), while the disk layer only readmits
    the two known payload types — anything else degrades to a miss.

    Parameters
    ----------
    max_entries:
        Capacity of the in-process LRU layer; ``0`` disables it,
        ``None`` makes it unbounded.
    cache_dir:
        Directory for the persistent layer, created on demand; ``None``
        (the default) keeps the cache purely in-process.
    """

    def __init__(
        self,
        max_entries: int | None = 4096,
        cache_dir: str | os.PathLike | None = None,
    ) -> None:
        if max_entries is not None and max_entries < 0:
            raise EngineError(
                f"max_entries must be >= 0 or None, got {max_entries!r}"
            )
        self.max_entries = max_entries
        self.cache_dir = os.fspath(cache_dir) if cache_dir is not None else None
        self._lru: OrderedDict[str, object] = OrderedDict()
        if self.cache_dir is not None:
            try:
                os.makedirs(self.cache_dir, exist_ok=True)
            except OSError as error:
                raise EngineError(
                    f"cannot create cache directory {self.cache_dir!r}: {error}"
                ) from error

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def lookup(self, key: str) -> tuple[str, object] | None:
        """Return ``(layer, payload)`` — layer ``"memory"`` or ``"disk"``
        — or ``None`` on a miss.  A disk hit is promoted into memory."""
        if key in self._lru:
            self._lru.move_to_end(key)
            return ("memory", self._lru[key])
        if self.cache_dir is not None:
            payload = self._disk_read(key)
            if payload is not None:
                self._memory_put(key, payload)
                return ("disk", payload)
        return None

    def put(self, key: str, payload: object) -> None:
        """Store a mining payload in every enabled layer."""
        self._memory_put(key, payload)
        if self.cache_dir is not None:
            self._disk_write(key, payload)

    def clear(self) -> None:
        """Drop the memory layer (disk entries are left untouched)."""
        self._lru.clear()

    def __len__(self) -> int:
        """Entries currently held in the memory layer."""
        return len(self._lru)

    def __contains__(self, key: object) -> bool:
        return key in self._lru

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f", dir={self.cache_dir!r}" if self.cache_dir else ""
        return f"PairSetCache({len(self._lru)} in memory{where})"

    # ------------------------------------------------------------------
    # Layers
    # ------------------------------------------------------------------
    def _memory_put(self, key: str, payload: object) -> None:
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

    def _disk_path(self, key: str) -> str:
        assert self.cache_dir is not None
        return os.path.join(self.cache_dir, key[:2], key + ".pkl")

    def _disk_read(self, key: str) -> object | None:
        path = self._disk_path(key)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            # Truncated or corrupt entry (the file exists but cannot be
            # decoded): treat as a miss, but count the degradation.
            get_registry().counter("cache.disk.read_errors").add(1)
            return None
        if not isinstance(payload, (PackedCounts, Counter)):
            get_registry().counter("cache.disk.read_errors").add(1)
            return None
        return payload

    def _disk_write(self, key: str, payload: object) -> None:
        path = self._disk_path(key)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with atomic_write(path, "wb") as stream:
                pickle.dump(payload, stream, protocol=pickle.HIGHEST_PROTOCOL)
            get_registry().counter("cache.disk.writes").add(1)
        except OSError:
            # A read-only or full disk never fails the mining run; the
            # result simply stays uncached.
            get_registry().counter("cache.disk.write_errors").add(1)
