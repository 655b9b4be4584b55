"""Content addresses of per-tree mining results.

The unit a corpus persists is one tree's kernel result — an element of
:func:`repro.core.fastmine.mine_arenas`' output, an interned
:class:`repro.core.fastmine.PackedCounts` — and the address it is
recorded under is a SHA-256 over

- a key-scheme version tag (bump it when the payload semantics change),
- the mining parameters that influence the counts — ``maxdist``,
  ``max_generation_gap`` and ``max_height`` (``minoccur`` and
  ``minsup`` are post-filters and deliberately excluded, so one
  payload serves every threshold), and
- the tree's canonical form (:meth:`repro.trees.arena.TreeArena
  .fingerprint`: :meth:`repro.trees.tree.Tree.canonical_form`
  semantics, serialised iteratively so arbitrarily deep trees are safe).

The canonical form ignores node ids and label ids, so isomorphic
trees share one address whichever table interned them.

:func:`arena_cache_key` is the only address function.  An address
costs about as much as mining the tree, so it is computed only where
it outlives the batch:
:meth:`repro.engine.engine.MiningEngine.packed_counts` addresses each
tree for :class:`repro.engine.delta.VersionedCorpus`, whose
:class:`repro.store.PairStore` records it per tree (and
:meth:`repro.store.PairStore.apply` compares it).
"""

from __future__ import annotations

import hashlib

from repro.core.params import MiningParams
from repro.trees.arena import TreeArena
from repro.trees.packing import PACKED_KEY_SCHEME

__all__ = ["arena_cache_key"]

# The packed-layout version tag doubles as the address scheme: any
# change to the key layout must re-address every persisted payload.
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
