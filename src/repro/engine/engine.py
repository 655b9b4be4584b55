"""The cached mining engine.

``Multiple_Tree_Mining`` and every Section 5 application reduce to the
same hot inner step: the kernel's pair enumeration
(:func:`repro.core.fastmine.mine_arenas`).  A tree's pair counts depend
only on its shape, labels and the mining parameters, which makes them
cacheable by content.

:class:`MiningEngine` packages that behind one object:

- each input tree is flattened once into a
  :class:`repro.trees.arena.TreeArena`, which feeds the interned
  kernel directly;
- with the cache on, each arena is content-addressed
  (:func:`repro.engine.cache.arena_cache_key`) and its
  :class:`repro.core.fastmine.PackedCounts` looked up in a
  :class:`repro.engine.cache.PairSetCache` (an in-process LRU);
  a batch's misses are mined in one ``mine_arenas`` call, and a tree
  repeated inside the batch is mined once and re-served;
- with the cache off (``cache_size=0``) nothing could reuse a
  payload, so no address is computed: the whole batch is mined in one
  ``mine_arenas`` call and served by position, a repeated tree
  included.  :meth:`MiningEngine.packed_counts` still addresses every
  tree, since its callers persist the addresses;
- counts are materialised into string-keyed counters / item lists
  only at the public boundary;
- every batch updates an :class:`repro.engine.stats.EngineStats`.

Results are *bit-identical* to the serial reference paths regardless
of cache size or temperature: the mined counts are deterministic.
``tests/engine`` and ``tests/property/test_prop_engine.py`` enforce
this equivalence.
"""

from __future__ import annotations

import hashlib
from collections import Counter, OrderedDict
from typing import TYPE_CHECKING, Sequence

from repro.core.cousins import CousinPairItem
from repro.core.fastmine import PackedCounts, mine_arenas
from repro.core.multi_tree import FrequentCousinPair, aggregate_packed
from repro.core.params import MiningParams, validate_minoccur, validate_mode
from repro.engine.cache import PairSetCache, arena_cache_key
from repro.engine.stats import EngineStats
from repro.errors import EngineError
from repro.obs.context import scope as obs_scope
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.trees.arena import TreeArena, TreeLike, as_arena

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.distance import DistanceMode
    from repro.core.distvec import DistanceVectors
    from repro.core.topk import TopKResult
    from repro.store import PairStore

__all__ = ["MiningEngine"]

_PENDING = object()


def forest_fingerprint(keys: Sequence[str], minoccur: int) -> str:
    """Digest of a forest: its ordered per-tree content addresses.

    Keys the whole-forest ``frequent`` memo; equal iff the forests
    hold isomorphic trees in the same order under the same
    parameters.
    """
    minoccur = validate_minoccur(minoccur)
    digest = hashlib.sha256("|".join(keys).encode("ascii"))
    digest.update(f"|minoccur={minoccur}".encode("ascii"))
    return digest.hexdigest()


class MiningEngine:
    """Runs per-tree mining across forests, cached by content.

    Parameters
    ----------
    jobs:
        Accepted for compatibility and ignored: misses are always
        mined in-process.  A value that is not an integer >= 1 (a bool
        included) still raises :class:`~repro.errors.EngineError`.
    cache:
        An explicit :class:`PairSetCache` to share between engines;
        mutually exclusive with ``cache_size``.
    cache_size:
        Capacity of the in-process LRU cache (``None`` unbounded).
        ``0`` disables it, and with it the content addresses: such an
        engine suits a batch that is mined once, and leaves even a
        tree repeated inside a batch to be mined again.
    registry:
        The :class:`repro.obs.metrics.MetricsRegistry` backing
        ``engine.stats`` and every kernel metric counted during this
        engine's batches.  A private registry when omitted; pass one to
        share it with a CLI session or a manifest writer.
    tracer:
        The :class:`repro.obs.trace.Tracer` used for the engine's
        spans (``engine.batch`` / ``engine.lookup`` / ``engine.mine`` /
        ``engine.distance.*``).  A *disabled* tracer over ``registry``
        when omitted — spans then cost nothing beyond the timing
        histograms the stats surface needs.
    """

    def __init__(
        self,
        jobs: int | None = None,
        cache: PairSetCache | None = None,
        cache_size: int | None = 4096,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if jobs is not None and (
            not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1
        ):
            raise EngineError(f"jobs must be an integer >= 1, got {jobs!r}")
        if cache is not None and cache_size != 4096:
            raise EngineError(
                "pass either an explicit cache or cache_size, not both"
            )
        self.cache = (
            cache if cache is not None else PairSetCache(max_entries=cache_size)
        )
        if registry is None:
            registry = tracer.registry if tracer is not None else MetricsRegistry()
        self.registry = registry
        self.tracer = (
            tracer if tracer is not None else Tracer(registry, enabled=False)
        )
        self.stats = EngineStats(registry)
        # Whole-forest frequent-pair memo: a repeat query over the same
        # forest skips the aggregation kernel (the warm-pass gate of
        # benchmarks/bench_engine_parallel.py).  Keyed by the forest
        # fingerprint plus the thresholds.
        self._projections: OrderedDict[tuple, object] = OrderedDict()
        self._projection_cap = self.cache.max_entries
        # The attached on-disk pair store, when mine/distance/top-k
        # queries should be served from memmapped shards instead of
        # re-mining (see attach_store / open_store).
        self._store: "PairStore | None" = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MiningEngine(cache={self.cache!r})"

    # ------------------------------------------------------------------
    # Core batch pass
    # ------------------------------------------------------------------
    def counters(
        self,
        trees: Sequence[TreeLike],
        params: MiningParams | None = None,
        *,
        maxdist: float = 1.5,
        max_generation_gap: int = 1,
        max_height: int | None = None,
    ) -> list[Counter]:
        """Raw per-tree counters, aligned with the input order.

        Equivalent to :func:`repro.core.single_tree.mine_tree_counter`
        per tree; counts come from the cache or from mining.
        Each returned counter is materialised fresh from the interned
        cached form — mutating it never corrupts the cache.
        """
        params = self._resolve(params, maxdist, 1, max_generation_gap, max_height)
        _keys, packed = self._resolved_packed(trees, params)
        return [counts.to_counter() for counts in packed]

    def packed_counts(
        self,
        trees: Sequence[TreeLike],
        params: MiningParams | None = None,
        *,
        maxdist: float = 1.5,
        max_generation_gap: int = 1,
        max_height: int | None = None,
    ) -> tuple[list[str], list[PackedCounts]]:
        """Per-tree content addresses plus interned packed counts.

        The delta-mining layer (:class:`repro.engine.delta
        .VersionedCorpus`) uses this to maintain one contribution per
        tree: the content address keys its bookkeeping and the
        :class:`PackedCounts` carry every occurrence at
        ``minoccur=1`` so any filter can be re-derived later.  The
        addresses are computed whatever the cache size, since the
        corpus and its pair store persist them.  The returned objects
        are the engine's cached instances — callers must treat them as
        read-only.
        """
        params = self._resolve(params, maxdist, 1, max_generation_gap, max_height)
        keys, packed = self._resolved_packed(trees, params, address=True)
        assert keys is not None
        return keys, packed

    def invalidate_distance_memos(self) -> None:
        """Drop memoised whole-forest frequent-pair lists.

        Per-tree packed counts stay cached — they are content-addressed
        and remain valid for any corpus — but ``frequent`` entries are
        fingerprinted over a *specific* tree sequence and must go when
        that sequence mutates (a
        :class:`repro.engine.delta.VersionedCorpus` update).
        """
        stale = [key for key in self._projections if key[0] == "frequent"]
        for key in stale:
            del self._projections[key]

    def _resolved_packed(
        self,
        trees: Sequence[TreeLike],
        params: MiningParams,
        *,
        address: bool = False,
    ) -> tuple[list[str] | None, list[PackedCounts]]:
        """Per-tree packed counts in input order, plus their addresses.

        Arena inputs are used as they are, forest slices with their
        shared label table included; pointer trees are flattened once.
        An engine whose cache is off (``cache.max_entries == 0``) can
        reuse no payload, so unless ``address`` asks for the addresses
        it mines the whole batch unaddressed and returns ``None`` for
        them.  Otherwise each arena is addressed and looked up, and the
        misses are mined, a tree repeated inside the batch once.  The
        returned :class:`PackedCounts` may be the engine's cached
        objects — internal callers only read them; the public surface
        materialises fresh counters / item lists from them.
        """
        stats = self.stats
        tracer = self.tracer
        with obs_scope(self.registry, tracer), tracer.span(
            "engine.batch", metric="engine.batch.seconds", trees=len(trees)
        ):
            stats.batches += 1
            stats.trees_seen += len(trees)
            arenas = [as_arena(tree) for tree in trees]
            if not address and self.cache.max_entries == 0:
                stats.misses += len(arenas)
                return None, self._mine(arenas, params)

            resolved: dict[str, object] = {}
            to_mine: list[tuple[str, TreeArena]] = []
            with tracer.span("engine.lookup"):
                keys = [arena_cache_key(arena, params) for arena in arenas]
                for arena, key in zip(arenas, keys):
                    if key in resolved:
                        # Same content seen earlier in this batch (cached
                        # or queued for mining): served from process
                        # memory.
                        stats.memory_hits += 1
                        continue
                    found = self.cache.lookup(key)
                    if found is not None and not self._admissible(
                        found, arena
                    ):
                        # A payload that is not interned packed counts, or
                        # whose label table disagrees with the arena it is
                        # being served for (a poisoned shared cache, hash
                        # collision): reject it and re-mine rather than
                        # decode garbage.
                        stats.rejected += 1
                        found = None
                    if found is None:
                        stats.misses += 1
                        resolved[key] = _PENDING
                        to_mine.append((key, arena))
                    else:
                        stats.memory_hits += 1
                        resolved[key] = found

            mined = self._mine([arena for _, arena in to_mine], params)
            for (key, _arena), packed in zip(to_mine, mined):
                resolved[key] = packed
                self.cache.put(key, packed)
            return keys, [resolved[key] for key in keys]

    def _mine(
        self, arenas: list[TreeArena], params: MiningParams
    ) -> list[PackedCounts]:
        """One ``mine_arenas`` call under the ``engine.mine`` span."""
        if not arenas:
            return []
        with self.tracer.span(
            "engine.mine", metric="engine.mine.seconds", misses=len(arenas)
        ):
            return mine_arenas(arenas, params)

    # ------------------------------------------------------------------
    # Projections (mirror the serial reference APIs exactly)
    # ------------------------------------------------------------------
    def items(
        self,
        trees: Sequence[TreeLike],
        params: MiningParams | None = None,
        *,
        maxdist: float = 1.5,
        minoccur: int = 1,
        max_generation_gap: int = 1,
        max_height: int | None = None,
    ) -> list[list[CousinPairItem]]:
        """Per-tree qualifying items — ``mine_tree`` for each tree."""
        params = self._resolve(
            params, maxdist, minoccur, max_generation_gap, max_height
        )
        _keys, packed = self._resolved_packed(trees, params)
        return [counts.items(params.minoccur) for counts in packed]

    # ------------------------------------------------------------------
    # Distance kernel (Section 5.3 matrix builds)
    # ------------------------------------------------------------------
    def distance_vectors(
        self,
        trees: Sequence[TreeLike],
        params: MiningParams | None = None,
        *,
        maxdist: float = 1.5,
        minoccur: int = 1,
        max_generation_gap: int = 1,
        max_height: int | None = None,
    ) -> DistanceVectors:
        """Packed distance vectors for ``trees``.

        Identical to :meth:`repro.core.distvec.DistanceVectors
        .from_trees` without an engine; per-tree mining goes through
        the content-addressed cache.  Every call builds a fresh object,
        which is the caller's to mutate.
        """
        from repro.core.distvec import DistanceVectors

        params = self._resolve(
            params, maxdist, minoccur, max_generation_gap, max_height
        )
        with obs_scope(self.registry, self.tracer), self.tracer.span(
            "engine.distance.vectors", trees=len(trees)
        ):
            self.stats.distance_builds += 1
            _keys, packed = self._resolved_packed(trees, params)
            return DistanceVectors.from_packed(
                packed, minoccur=params.minoccur
            )

    def frequent_pairs(
        self,
        trees: Sequence[TreeLike],
        params: MiningParams,
        *,
        ignore_distance: bool = False,
    ) -> list[FrequentCousinPair]:
        """Frequent pairs of ``trees`` at ``params``, memoised whole.

        What :func:`repro.core.multi_tree.mine_forest` returns with
        ``engine=self``: per-tree mining goes through the
        content-addressed cache, the counting step is the one kernel
        (:func:`repro.core.multi_tree.aggregate_packed`), and, with the
        cache on, the result is memoised under the forest fingerprint
        plus the thresholds, so a repeat query over the same forest
        skips the kernel too.  The returned list is the caller's.
        """
        with obs_scope(self.registry, self.tracer):
            keys, packed = self._resolved_packed(trees, params)
            if keys is None:
                # No cache, so no memo either: nothing to key it by.
                return self._build_frequent(packed, params, ignore_distance)
            fingerprint = forest_fingerprint(keys, params.minoccur)
            patterns = self._projection(
                ("frequent", fingerprint, params.minoccur, params.minsup,
                 ignore_distance),
                packed,
                params,
                self._build_frequent,
                ignore_distance,
            )
            return list(patterns)

    @staticmethod
    def _build_frequent(
        packed: Sequence[PackedCounts],
        params: MiningParams,
        ignore_distance: bool,
    ) -> list[FrequentCousinPair]:
        return aggregate_packed(
            packed,
            minoccur=params.minoccur,
            minsup=params.minsup,
            ignore_distance=ignore_distance,
        )

    def distance_matrix(
        self,
        vectors: DistanceVectors,
        mode: DistanceMode | str = "dist_occur",
    ) -> list[list[float]]:
        """Full symmetric distance matrix over prebuilt vectors.

        Identical to ``vectors.matrix(mode)``; every call also updates
        the ``distance_*`` counters of
        :class:`repro.engine.stats.EngineStats`.
        """
        from repro.core.distvec import assemble_matrix

        mode = validate_mode(mode)
        with obs_scope(self.registry, self.tracer), self.tracer.span(
            "engine.distance.matrix",
            metric="engine.distance.seconds",
            trees=len(vectors),
            mode=mode.value,
        ):
            self.stats.distance_builds += 1
            rows, computed, pruned = vectors.triangle(mode)
            self.stats.distance_pairs_computed += computed
            self.stats.distance_pairs_pruned += pruned
            return assemble_matrix(rows)

    def topk_similar(
        self,
        vectors: DistanceVectors,
        query: TreeLike,
        k: int,
        mode: DistanceMode | str = "dist_occur",
        params: MiningParams | None = None,
        *,
        maxdist: float = 1.5,
        minoccur: int = 1,
        max_generation_gap: int = 1,
        max_height: int | None = None,
    ) -> TopKResult:
        """The k corpus trees nearest ``query``, exactly.

        Identical output to :func:`repro.core.topk.topk_similar`
        without an engine; the query tree is mined through the
        content-addressed cache.  ``params`` (or the raw knobs) must
        match the values the corpus vectors were built with, or the
        distances stop matching the all-pairs reference.
        """
        from repro.core.topk import query_vector, topk_search

        mode = validate_mode(mode)
        params = self._resolve(
            params, maxdist, minoccur, max_generation_gap, max_height
        )
        with obs_scope(self.registry, self.tracer), self.tracer.span(
            "engine.topk",
            metric="engine.topk.seconds",
            trees=len(vectors),
            mode=mode.value,
        ):
            _keys, (packed,) = self._resolved_packed([query], params)
            projected = query_vector(vectors, packed, params.minoccur)
            return topk_search(vectors, projected, k, mode)

    # ------------------------------------------------------------------
    # On-disk pair store (repro.store)
    # ------------------------------------------------------------------
    @property
    def store(self) -> "PairStore | None":
        """The attached on-disk pair store, if any."""
        return self._store

    def attach_store(self, store: "PairStore") -> "PairStore":
        """Serve subsequent store queries from ``store``."""
        from repro.store import PairStore

        if not isinstance(store, PairStore):
            raise EngineError(
                f"attach_store takes a PairStore, got {type(store).__name__}"
            )
        self._store = store
        return store

    def open_store(self, directory: str) -> "PairStore":
        """Open the pair store in ``directory`` and attach it.

        Only the manifest is read and the shard sizes checked
        (:meth:`repro.store.PairStore.open`), so a warm reopen is
        cheap; a corrupt or stale store raises
        :class:`~repro.errors.StoreError` after counting
        ``store.read_errors``.
        """
        from repro.store import PairStore

        with obs_scope(self.registry, self.tracer):
            return self.attach_store(PairStore.open(directory))

    def _attached_store(self) -> "PairStore":
        if self._store is None:
            raise EngineError(
                "no pair store attached (call attach_store or open_store)"
            )
        return self._store

    def store_vectors(self, minoccur: int | None = None) -> DistanceVectors:
        """Distance vectors over the attached store's memmapped rows.

        A fresh :meth:`repro.store.PairStore.as_vectors` view per call,
        at the store's own ``minoccur`` unless one is given.
        """
        store = self._attached_store()
        with obs_scope(self.registry, self.tracer):
            return store.as_vectors(
                minoccur=store.params.minoccur if minoccur is None else minoccur
            )

    def store_frequent_pairs(
        self, minsup: int = 2, ignore_distance: bool = False
    ) -> list[FrequentCousinPair]:
        """Frequent pairs served from the attached store's shards.

        Byte-identical to :func:`repro.core.multi_tree.mine_forest`
        over the store's tree sequence with its parameters — no tree
        is re-mined; see :meth:`repro.store.PairStore
        .frequent_pairs`.
        """
        store = self._attached_store()
        with obs_scope(self.registry, self.tracer):
            return store.frequent_pairs(
                minsup=minsup, ignore_distance=ignore_distance
            )

    def store_topk(
        self,
        query: TreeLike,
        k: int,
        mode: DistanceMode | str = "dist_occur",
    ) -> TopKResult:
        """The k stored trees nearest ``query``, off the memmapped rows.

        Routes :meth:`topk_similar` over :meth:`store_vectors` with
        the store's own mining parameters, so the query tree is mined
        under the exact knobs the corpus was packed with.
        """
        store = self._attached_store()
        return self.topk_similar(
            self.store_vectors(), query, k, mode, store.params
        )

    def _projection(
        self, memo_key: tuple, packed, params: MiningParams, build, *args
    ):
        """Serve a whole-forest result, memoised by ``memo_key``.

        ``build(packed, params, *args)`` computes a missing entry.
        Entries are shared; callers copy what they hand out.  An engine
        without a memory cache (``cache_size=0``) has no forest address
        and never gets here.
        """
        cached = self._projections.get(memo_key)
        if cached is None:
            cached = build(packed, params, *args)
            self._projections[memo_key] = cached
            if self._projection_cap is not None:
                while len(self._projections) > self._projection_cap:
                    self._projections.popitem(last=False)
        else:
            self._projections.move_to_end(memo_key)
        return cached

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _admissible(payload: object, arena: TreeArena) -> bool:
        """Whether a cached payload may be served for ``arena``.

        The content address already binds the payload to the tree's
        canonical form, but the payload itself must be interned packed
        counts whose keys name only labels of the arena — isomorphic
        trees share a label set, so any other label means the entry is
        corrupt.  A payload mined from this arena's table (its forest,
        or an equal per-tree table) passes without decoding a key; one
        mined from another forest's table is checked label by label.
        """
        if not isinstance(payload, PackedCounts):
            return False
        labels = arena.table.labels
        if payload.labels is labels or payload.labels == labels:
            return True
        return set(payload.labels_used()) <= set(arena.labels_used())

    @staticmethod
    def _resolve(
        params: MiningParams | None,
        maxdist: float,
        minoccur: int,
        max_generation_gap: int,
        max_height: int | None,
    ) -> MiningParams:
        if params is not None:
            return params
        return MiningParams(
            maxdist=maxdist,
            minoccur=minoccur,
            minsup=1,
            max_generation_gap=max_generation_gap,
            max_height=max_height,
        )
