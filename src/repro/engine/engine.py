"""The parallel + cached mining engine.

``Multiple_Tree_Mining`` and every Section 5 application reduce to the
same hot inner step: one kernel pass over one tree
(:func:`repro.core.fastmine.mine_arena`).  Those per-tree passes are
independent — the paper's ``O(k * n^2)`` bound is a sum of ``k``
unrelated ``O(n^2)`` terms — which makes the forest loop
embarrassingly parallel, and the §5.3 distance applications recompute
identical pair sets for every pairwise comparison, which makes it
memoisable.

:class:`MiningEngine` packages both optimisations behind one object:

- each input tree is flattened once into a
  :class:`repro.trees.arena.TreeArena`; the flat form addresses the
  cache (:func:`repro.engine.cache.arena_cache_key`), travels to
  worker processes (a few array buffers instead of a pickled node
  graph), and feeds the interned kernel directly;
- per-tree :class:`repro.core.fastmine.PackedCounts` are looked up in
  a content-addressed :class:`repro.engine.cache.PairSetCache`
  (in-process LRU plus an optional persistent directory) and
  materialised into string-keyed counters / item lists only at the
  public boundary;
- cache misses are mined either serially or fanned out to a
  ``concurrent.futures.ProcessPoolExecutor`` in deterministic chunks.
  ``jobs`` defaults to the CPUs actually available to this process
  and is clamped to that count (``clamp_jobs=False`` opts out), so an
  effective job count of 1 — a 1-CPU container, however large
  ``--jobs`` was — takes the serial path with no pool and no
  pickling;
- duplicate trees inside one batch are mined once and re-served;
- every batch updates an :class:`repro.engine.stats.EngineStats`.

Results are *bit-identical* to the serial reference paths regardless
of worker count or cache temperature: misses are reassembled by
content address, not by completion order, and the mined counts are
deterministic.  ``tests/engine`` and
``tests/property/test_prop_engine.py`` enforce this equivalence.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections import Counter, OrderedDict
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.core.cousins import CousinPairItem
from repro.core.distance import DistanceMode
from repro.core.distvec import DistanceVectors, assemble_matrix
from repro.core.fastmine import PackedCounts, mine_arena
from repro.core.multi_tree import FrequentCousinPair, aggregate_packed
from repro.core.pairset import CousinPairSet
from repro.core.params import (
    DEFAULT_SKETCH_PARAMS,
    MiningParams,
    SketchParams,
    validate_minoccur,
    validate_mode,
)
from repro.core.topk import (
    TopKResult,
    TopKSketches,
    build_sketches,
    minhash_block,
    query_vector,
    topk_search,
)
from repro.engine.cache import PairSetCache, arena_cache_key
from repro.engine.stats import EngineStats
from repro.errors import EngineError
from repro.obs.context import scope as obs_scope
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.trees.arena import TreeArena
from repro.trees.tree import Tree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.store import PairStore

__all__ = ["MiningEngine", "available_cpus", "forest_fingerprint"]

_PENDING = object()


def available_cpus() -> int:
    """CPUs usable by this process — the default worker count.

    Prefers ``os.process_cpu_count`` (Python 3.13+, affinity-aware),
    falling back to ``sched_getaffinity`` and then ``os.cpu_count``;
    never less than 1.
    """
    probe = getattr(os, "process_cpu_count", None)
    count = probe() if probe is not None else None
    if count is None:
        try:
            count = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            count = os.cpu_count()
    return max(1, count or 1)


def forest_fingerprint(keys: Sequence[str], minoccur: int) -> str:
    """Digest of a forest: its ordered per-tree content addresses.

    Keys every whole-forest memo (``distvec`` / ``distmat`` /
    ``topksketch`` / ``frequent``); equal iff the forests hold
    isomorphic trees in the same order under the same parameters.
    """
    minoccur = validate_minoccur(minoccur)
    digest = hashlib.sha256("|".join(keys).encode("ascii"))
    digest.update(f"|minoccur={minoccur}".encode("ascii"))
    return digest.hexdigest()


def _mine_chunk(
    payload: tuple[list[tuple[str, TreeArena]], MiningParams],
) -> tuple[list[tuple[str, PackedCounts]], dict[str, Any]]:
    """Worker task: mine one chunk of (key, arena) pairs.

    Module-level so it pickles; arenas travel as their raw array
    buffers (see :meth:`repro.trees.arena.TreeArena.__getstate__`) —
    no node graph is ever shipped — and the interned results come back
    as :class:`PackedCounts` plus a snapshot of the worker-side
    metrics, ready for the cache and the parent registry.  The worker
    counts into a *fresh* registry: the parent's fork-inherited totals
    must not ride back and be double-merged.
    """
    chunk, params = payload
    registry = MetricsRegistry()
    with obs_scope(registry=registry):
        mined = [(key, mine_arena(arena, params)) for key, arena in chunk]
    return mined, registry.snapshot()


def _distance_tile(
    payload: tuple[DistanceVectors, int, int, str],
) -> tuple[int, list[list[float]], int, int, dict[str, Any]]:
    """Worker task: one row band of a distance-matrix triangle.

    Module-level so it pickles; the vectors travel as their raw sorted
    arrays (inverted index included — the parent builds it once before
    fanning out) and each band comes back as ``(start, rows,
    pairs_computed, pairs_pruned, metrics_snapshot)`` ready for
    :func:`repro.core.distvec.assemble_matrix` and the parent
    registry.  Like :func:`_mine_chunk`, the worker counts into a
    fresh registry so fork-inherited totals never double-merge.
    """
    vectors, start, stop, mode = payload
    registry = MetricsRegistry()
    with obs_scope(registry=registry):
        rows, computed, pruned = vectors.triangle(start, stop, mode)
    return start, rows, computed, pruned, registry.snapshot()


def _sketch_band(
    payload: tuple[DistanceVectors, str, int, int, int],
) -> tuple[int, Any, dict[str, Any]]:
    """Worker task: one band of per-tree MinHash sketch rows.

    Module-level so it pickles; the vectors travel as their raw sorted
    arrays and each band comes back as ``(start, rows,
    metrics_snapshot)``, stitched by row index in the parent.  Like
    :func:`_mine_chunk`, the worker counts into a fresh registry so
    fork-inherited totals never double-merge.
    """
    vectors, mode, start, stop, width = payload
    registry = MetricsRegistry()
    with obs_scope(registry=registry):
        rows = minhash_block(vectors, mode, start, stop, width)
    return start, rows, registry.snapshot()


class MiningEngine:
    """Runs per-tree mining across forests, in parallel and cached.

    Parameters
    ----------
    jobs:
        Worker processes for cache misses.  ``None`` (the default)
        auto-detects the CPUs available to this process
        (:func:`available_cpus`); an effective count of 1 mines
        serially in-process with no pool and no pickling.  Explicit
        values are clamped to the available CPUs unless
        ``clamp_jobs=False``.
    cache:
        An explicit :class:`PairSetCache` to share between engines;
        mutually exclusive with ``cache_size``/``cache_dir``.
    cache_size:
        Capacity of the in-process LRU layer (``0`` disables it,
        ``None`` unbounded).
    cache_dir:
        Optional directory for the persistent cache layer.
    min_parallel_trees:
        Smallest number of *misses* in a batch worth a process pool;
        below it the engine mines serially even when ``jobs > 1``.
    chunks_per_job:
        Task granularity: misses are split into about
        ``jobs * chunks_per_job`` chunks so stragglers rebalance.
    clamp_jobs:
        When true (the default), the effective job count never exceeds
        :func:`available_cpus` — process fan-out beyond the visible
        CPUs only adds pickling overhead (a measured 0.69x *slowdown*
        at ``jobs=4`` on a 1-CPU box).  Set false to force a real pool
        regardless, e.g. to exercise the parallel path in tests.
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
        cache_dir: str | None = None,
        min_parallel_trees: int = 8,
        chunks_per_job: int = 4,
        clamp_jobs: bool = True,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if jobs is None:
            jobs = available_cpus()
        if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
            raise EngineError(f"jobs must be an integer >= 1, got {jobs!r}")
        if min_parallel_trees < 1:
            raise EngineError(
                f"min_parallel_trees must be >= 1, got {min_parallel_trees!r}"
            )
        if chunks_per_job < 1:
            raise EngineError(
                f"chunks_per_job must be >= 1, got {chunks_per_job!r}"
            )
        if cache is not None and (cache_size != 4096 or cache_dir is not None):
            raise EngineError(
                "pass either an explicit cache or cache_size/cache_dir, not both"
            )
        self.requested_jobs = jobs
        self.jobs = min(jobs, available_cpus()) if clamp_jobs else jobs
        self.cache = (
            cache
            if cache is not None
            else PairSetCache(max_entries=cache_size, cache_dir=cache_dir)
        )
        self.min_parallel_trees = min_parallel_trees
        self.chunks_per_job = chunks_per_job
        if registry is None:
            registry = tracer.registry if tracer is not None else MetricsRegistry()
        self.registry = registry
        self.tracer = (
            tracer if tracer is not None else Tracer(registry, enabled=False)
        )
        self.stats = EngineStats(registry)
        # Derived-projection memo: profiling shows building and sorting
        # the CousinPairItem lists costs ~2x the counter mining itself,
        # so warm passes also skip the projection.  Keyed by
        # (kind, counter address, minoccur) — fully determined by the
        # content-addressed counter plus the post-filter.
        self._projections: OrderedDict[tuple, object] = OrderedDict()
        self._projection_cap = self.cache.max_entries
        # A stats reset starts a fresh measurement window: drop the
        # distance vector/matrix memos with it so the zeroed counters
        # can never record tile hits against pre-reset state.
        self.stats.on_reset(self.invalidate_distance_memos)
        # The attached on-disk pair store, when mine/distance/top-k
        # queries should be served from memmapped shards instead of
        # re-mining (see attach_store / open_store).
        self._store: "PairStore | None" = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MiningEngine(jobs={self.jobs}, cache={self.cache!r})"

    # ------------------------------------------------------------------
    # Core batch pass
    # ------------------------------------------------------------------
    def counters(
        self,
        trees: Sequence[Tree],
        params: MiningParams | None = None,
        *,
        maxdist: float = 1.5,
        max_generation_gap: int = 1,
        max_height: int | None = None,
    ) -> list[Counter]:
        """Raw per-tree counters, aligned with the input order.

        Equivalent to ``[mine_tree_counter(t, ...) for t in trees]``;
        misses come from the cache layers or (de-duplicated) mining.
        Each returned counter is materialised fresh from the interned
        cached form — mutating it never corrupts the cache.
        """
        params = self._resolve(params, maxdist, 1, max_generation_gap, max_height)
        keys, resolved = self._resolved_packed(trees, params)
        return [resolved[key].to_counter() for key in keys]

    def packed_counts(
        self,
        trees: Sequence[Tree],
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
        returned objects are the engine's cached instances — callers
        must treat them as read-only.
        """
        params = self._resolve(params, maxdist, 1, max_generation_gap, max_height)
        keys, resolved = self._resolved_packed(trees, params)
        return keys, [resolved[key] for key in keys]

    def invalidate_distance_memos(self) -> None:
        """Drop memoised distance vectors and matrices.

        Per-tree packed counts stay cached — they are content-addressed
        and remain valid for any corpus — but whole-forest projections
        (``distvec`` / ``distmat`` / ``topksketch`` / ``frequent``
        entries) are
        fingerprinted over a *specific* tree sequence and must go when
        that sequence mutates
        (a :class:`repro.engine.delta.VersionedCorpus` update) or when
        a stats reset opens a fresh measurement window.
        """
        stale = [
            key
            for key in self._projections
            if key[0] in ("distvec", "distmat", "topksketch", "frequent")
        ]
        for key in stale:
            del self._projections[key]

    def _resolved_packed(
        self, trees: Sequence[Tree], params: MiningParams
    ) -> tuple[list[str], dict[str, PackedCounts]]:
        """Content addresses per tree plus the address -> counts map.

        Each tree is flattened once; the arena both addresses the
        cache and feeds the kernel (or a worker process) on a miss.
        The returned :class:`PackedCounts` are the engine's own cached
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

            resolved: dict[str, object] = {}
            to_mine: list[tuple[str, TreeArena]] = []
            with tracer.span("engine.lookup"):
                arenas = [TreeArena.from_tree(tree) for tree in trees]
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
                        found[1], arena
                    ):
                        # A payload that is not interned packed counts, or
                        # whose label table disagrees with the arena it is
                        # being served for (poisoned disk entry, stale
                        # scheme, hash collision): reject it and re-mine
                        # rather than decode garbage.
                        stats.rejected += 1
                        found = None
                    if found is None:
                        stats.misses += 1
                        resolved[key] = _PENDING
                        to_mine.append((key, arena))
                    else:
                        layer, packed = found
                        if layer == "memory":
                            stats.memory_hits += 1
                        else:
                            stats.disk_hits += 1
                        resolved[key] = packed

            if to_mine:
                with tracer.span(
                    "engine.mine",
                    metric="engine.mine.seconds",
                    misses=len(to_mine),
                ):
                    for key, packed in self._mine(to_mine, params):
                        resolved[key] = packed
                        self.cache.put(key, packed)

            return keys, resolved

    def _mine(
        self, to_mine: list[tuple[str, TreeArena]], params: MiningParams
    ) -> list[tuple[str, PackedCounts]]:
        if self.jobs == 1 or len(to_mine) < self.min_parallel_trees:
            # Serial fast path: no pool, no pickling — on a 1-CPU box
            # this is what every batch takes, whatever --jobs said.
            return [(key, mine_arena(arena, params)) for key, arena in to_mine]
        self.stats.parallel_batches += 1
        chunk_size = max(
            1, math.ceil(len(to_mine) / (self.jobs * self.chunks_per_job))
        )
        chunks = [
            to_mine[start : start + chunk_size]
            for start in range(0, len(to_mine), chunk_size)
        ]
        self.stats.chunks += len(chunks)
        workers = min(self.jobs, len(chunks))
        results: list[tuple[str, PackedCounts]] = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part, snapshot in pool.map(
                _mine_chunk, [(chunk, params) for chunk in chunks]
            ):
                results.extend(part)
                self.registry.merge_snapshot(snapshot)
        return results

    # ------------------------------------------------------------------
    # Projections (mirror the serial reference APIs exactly)
    # ------------------------------------------------------------------
    def items(
        self,
        trees: Sequence[Tree],
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
        keys, resolved = self._resolved_packed(trees, params)
        per_tree: list[list[CousinPairItem]] = []
        for key in keys:
            items = self._projection(
                ("items", key, params.minoccur), resolved[key], params,
                self._build_items,
            )
            # Shallow copy: the items are frozen, the list is the
            # caller's to reorder.
            per_tree.append(list(items))
        return per_tree

    @staticmethod
    def _build_items(
        packed: PackedCounts, params: MiningParams
    ) -> list[CousinPairItem]:
        return packed.items(params.minoccur)

    def pair_sets(
        self,
        trees: Sequence[Tree],
        params: MiningParams | None = None,
        *,
        maxdist: float = 1.5,
        minoccur: int = 1,
        max_generation_gap: int = 1,
        max_height: int | None = None,
    ) -> list[CousinPairSet]:
        """Per-tree pair sets — ``CousinPairSet.from_tree`` for each."""
        params = self._resolve(
            params, maxdist, minoccur, max_generation_gap, max_height
        )
        keys, resolved = self._resolved_packed(trees, params)
        return [
            self._projection(
                ("pairset", key, params.minoccur), resolved[key], params,
                self._build_pair_set,
            )
            for key in keys
        ]

    @staticmethod
    def _build_pair_set(
        packed: PackedCounts, params: MiningParams
    ) -> CousinPairSet:
        return CousinPairSet(packed.filtered_counter(params.minoccur))

    # ------------------------------------------------------------------
    # Distance kernel (Section 5.3 matrix builds)
    # ------------------------------------------------------------------
    def distance_vectors(
        self,
        trees: Sequence[Tree],
        params: MiningParams | None = None,
        *,
        maxdist: float = 1.5,
        minoccur: int = 1,
        max_generation_gap: int = 1,
        max_height: int | None = None,
    ) -> DistanceVectors:
        """Packed distance vectors for ``trees``, cached end to end.

        Identical to :meth:`repro.core.distvec.DistanceVectors
        .from_trees` without an engine: per-tree mining goes through
        the content-addressed cache, and the assembled vectors are
        memoised by a fingerprint of the per-tree content addresses
        (plus ``minoccur``), so a repeat forest skips the re-interning
        pass too.  The fingerprint is left on the returned object
        (``vectors.fingerprint``) and keys matrix memoisation in
        :meth:`distance_matrix`.
        """
        params = self._resolve(
            params, maxdist, minoccur, max_generation_gap, max_height
        )
        with obs_scope(self.registry, self.tracer), self.tracer.span(
            "engine.distance.vectors", trees=len(trees)
        ):
            self.stats.distance_builds += 1
            keys, resolved = self._resolved_packed(trees, params)
            fingerprint = forest_fingerprint(keys, params.minoccur)
            # repro-lint: disable-next-line=RPL103 -- the digest above folds minoccur into the fingerprint
            vectors = self._projection(
                ("distvec", fingerprint),
                [resolved[key] for key in keys],
                params,
                self._build_vectors,
            )
            vectors.fingerprint = fingerprint
            return vectors

    @staticmethod
    def _build_vectors(
        packed: Sequence[PackedCounts], params: MiningParams
    ) -> DistanceVectors:
        return DistanceVectors.from_packed(packed, minoccur=params.minoccur)

    def frequent_pairs(
        self,
        trees: Sequence[Tree],
        params: MiningParams,
        *,
        ignore_distance: bool = False,
    ) -> list[FrequentCousinPair]:
        """Frequent pairs of ``trees`` at ``params``, memoised whole.

        What :func:`repro.core.multi_tree.mine_forest` returns with
        ``engine=self``: per-tree mining goes through the
        content-addressed cache, the counting step is the one kernel
        (:func:`repro.core.multi_tree.aggregate_packed`), and the
        result is memoised under the forest fingerprint of
        :meth:`distance_vectors` plus the thresholds, so a repeat
        query over the same forest skips the kernel too.  The returned
        list is the caller's.
        """
        with obs_scope(self.registry, self.tracer):
            keys, resolved = self._resolved_packed(trees, params)
            fingerprint = forest_fingerprint(keys, params.minoccur)
            patterns = self._projection(
                ("frequent", fingerprint, params.minoccur, params.minsup,
                 ignore_distance),
                [resolved[key] for key in keys],
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
        mode: DistanceMode | str = DistanceMode.DIST_OCCUR,
    ) -> list[list[float]]:
        """Full symmetric distance matrix over prebuilt vectors.

        Identical to ``vectors.matrix(mode)``: the upper triangle is
        split into deterministic row bands balanced by pair count and —
        when a pool is worth it (``jobs > 1`` and at least
        ``min_parallel_trees`` trees) — fanned out to worker processes;
        tiles are reassembled by row index, not completion order.
        Whole matrices are memoised by the vectors' engine fingerprint,
        and every call updates the ``distance_*`` counters of
        :class:`repro.engine.stats.EngineStats`.
        """
        mode = validate_mode(mode)
        with obs_scope(self.registry, self.tracer), self.tracer.span(
            "engine.distance.matrix",
            metric="engine.distance.seconds",
            trees=len(vectors),
            mode=mode.value,
        ):
            self.stats.distance_builds += 1
            memo_key = (
                ("distmat", vectors.fingerprint, mode.value)
                if vectors.fingerprint is not None and self._projection_cap != 0
                else None
            )
            if memo_key is not None:
                cached = self._projections.get(memo_key)
                if cached is not None:
                    self._projections.move_to_end(memo_key)
                    matrix, tile_count = cached
                    self.stats.distance_tile_hits += tile_count
                    return [row[:] for row in matrix]
            size = len(vectors)
            bands = self._distance_bands(size)
            self.stats.distance_tiles += len(bands)
            tiles: list[tuple[int, list[list[float]]]] = []
            computed = 0
            pruned = 0
            if len(bands) == 1:
                rows, computed, pruned = vectors.triangle(0, size, mode)
                tiles.append((0, rows))
            else:
                # Workers inherit the prebuilt inverted index instead of
                # each rebuilding it from the pair keys.
                vectors.build_index()
                payloads = [
                    (vectors, start, stop, mode.value) for start, stop in bands
                ]
                workers = min(self.jobs, len(bands))
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    for start, rows, band_computed, band_pruned, snapshot in (
                        pool.map(_distance_tile, payloads)
                    ):
                        tiles.append((start, rows))
                        computed += band_computed
                        pruned += band_pruned
                        self.registry.merge_snapshot(snapshot)
            self.stats.distance_pairs_computed += computed
            self.stats.distance_pairs_pruned += pruned
            matrix = assemble_matrix(size, tiles)
            if memo_key is not None:
                self._projections[memo_key] = (matrix, len(bands))
                if self._projection_cap is not None:
                    while len(self._projections) > self._projection_cap:
                        self._projections.popitem(last=False)
            return [row[:] for row in matrix]

    def topk_similar(
        self,
        vectors: DistanceVectors,
        query: Tree,
        k: int,
        mode: DistanceMode | str = DistanceMode.DIST_OCCUR,
        params: MiningParams | None = None,
        *,
        maxdist: float = 1.5,
        minoccur: int = 1,
        max_generation_gap: int = 1,
        max_height: int | None = None,
        sketch: SketchParams = DEFAULT_SKETCH_PARAMS,
    ) -> TopKResult:
        """The k corpus trees nearest ``query``, exactly and memoised.

        Identical output to :func:`repro.core.topk.topk_similar`
        without an engine: the query tree is mined through the
        content-addressed cache, and the corpus sketch arrays
        (:class:`repro.core.topk.TopKSketches`) are memoised beside
        the distance vectors under the vectors' engine fingerprint —
        so repeat queries against the same corpus skip the sketch
        build entirely.  The memo is dropped by
        :meth:`invalidate_distance_memos`, which every
        :class:`repro.engine.delta.VersionedCorpus` mutation fires.
        Sketch rows are built in parallel bands when a pool is worth
        it (``jobs > 1`` and at least ``min_parallel_trees`` trees),
        byte-identical to the serial build.  ``params`` (or the raw
        knobs) must match the values the corpus vectors were built
        with, or the distances stop matching the all-pairs reference.
        """
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
            keys, resolved = self._resolved_packed([query], params)
            projected = query_vector(
                vectors, resolved[keys[0]], params.minoccur
            )
            sketches = self._topk_sketches(vectors, mode, sketch)
            return topk_search(
                vectors, projected, k, mode, sketches=sketches, sketch=sketch
            )

    def _topk_sketches(
        self,
        vectors: DistanceVectors,
        mode: DistanceMode,
        sketch: SketchParams,
    ) -> TopKSketches:
        """Corpus sketches for ``mode``, memoised by engine fingerprint.

        Unfingerprinted vectors (built outside the engine) are
        sketched per call; fingerprinted ones hit the projection memo,
        whose entries :meth:`invalidate_distance_memos` drops whenever
        the underlying tree sequence mutates.
        """
        memo_key = (
            ("topksketch", vectors.fingerprint, mode.value,
             sketch.minhash_width)
            if vectors.fingerprint is not None and self._projection_cap != 0
            else None
        )
        if memo_key is not None:
            cached = self._projections.get(memo_key)
            if isinstance(cached, TopKSketches):
                self._projections.move_to_end(memo_key)
                self.registry.counter("topk.sketch_hits").add(1)
                return cached
        size = len(vectors)
        minhash: np.ndarray | None = None
        bands = self._sketch_bands(size)
        if len(bands) > 1:
            payloads = [
                (vectors, mode.value, start, stop, sketch.minhash_width)
                for start, stop in bands
            ]
            workers = min(self.jobs, len(bands))
            tiles: list[tuple[int, np.ndarray]] = []
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for start, rows, snapshot in pool.map(
                    _sketch_band, payloads
                ):
                    tiles.append((start, rows))
                    self.registry.merge_snapshot(snapshot)
            tiles.sort()
            minhash = np.vstack([rows for _start, rows in tiles])
        sketches = build_sketches(vectors, mode, sketch, minhash=minhash)
        if memo_key is not None:
            self._projections[memo_key] = sketches
            if self._projection_cap is not None:
                while len(self._projections) > self._projection_cap:
                    self._projections.popitem(last=False)
        return sketches

    # ------------------------------------------------------------------
    # On-disk pair store (repro.store)
    # ------------------------------------------------------------------
    @property
    def store(self) -> "PairStore | None":
        """The attached on-disk pair store, if any."""
        return self._store

    def attach_store(self, store: "PairStore") -> "PairStore":
        """Serve subsequent store queries from ``store``.

        Whole-forest memos are dropped: they may describe a different
        tree sequence than the store's, and the store's own
        fingerprints re-key them on first use.
        """
        from repro.store import PairStore

        if not isinstance(store, PairStore):
            raise EngineError(
                f"attach_store takes a PairStore, got {type(store).__name__}"
            )
        self._store = store
        self.invalidate_distance_memos()
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

        Memoised beside engine-built vectors under the store's
        vectors fingerprint — the same digest
        :meth:`distance_vectors` would stamp on an in-RAM build of
        the identical tree sequence — so matrix tiles and top-k
        sketches computed against either source interchange.
        """
        store = self._attached_store()
        with obs_scope(self.registry, self.tracer):
            resolved = (
                store.params.minoccur if minoccur is None else minoccur
            )
            fingerprint = store.vectors_fingerprint(resolved)
            # repro-lint: disable-next-line=RPL103 -- the store digest folds minoccur into the fingerprint
            vectors = self._projection(
                ("distvec", fingerprint),
                resolved,
                store.params,
                lambda threshold, _params: store.as_vectors(
                    minoccur=threshold
                ),
            )
            vectors.fingerprint = fingerprint
            return vectors

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
        query: Tree,
        k: int,
        mode: DistanceMode | str = DistanceMode.DIST_OCCUR,
        *,
        sketch: SketchParams = DEFAULT_SKETCH_PARAMS,
    ) -> TopKResult:
        """The k stored trees nearest ``query``, off the memmapped rows.

        Routes :meth:`topk_similar` over :meth:`store_vectors` with
        the store's own mining parameters, so the query tree is mined
        under the exact knobs the corpus was packed with and the
        sketch memo keys on the store fingerprint.
        """
        store = self._attached_store()
        return self.topk_similar(
            self.store_vectors(),
            query,
            k,
            mode,
            store.params,
            sketch=sketch,
        )

    def _sketch_bands(self, size: int) -> list[tuple[int, int]]:
        """Equal-width tree bands for the parallel sketch build.

        Sketch cost is near-uniform per tree (unlike triangle rows),
        so plain equal widths balance; serial configurations or small
        corpora get one band — no pool, no pickling.
        """
        if size <= 1 or self.jobs == 1 or size < self.min_parallel_trees:
            return [(0, size)]
        width = max(
            1, math.ceil(size / (self.jobs * self.chunks_per_job))
        )
        return [
            (start, min(start + width, size))
            for start in range(0, size, width)
        ]

    def _distance_bands(self, size: int) -> list[tuple[int, int]]:
        """Deterministic row bands of the triangle, balanced by pairs.

        Row ``i`` joins against ``size - 1 - i`` later rows, so
        equal-width bands would hand the first worker nearly all the
        pairs; instead each band closes once its cumulative pair count
        reaches an equal share of ``size * (size - 1) / 2``.  Serial
        configurations (or small matrices) get one band covering
        everything — no pool, no pickling.
        """
        if (
            size <= 1
            or self.jobs == 1
            or size < self.min_parallel_trees
        ):
            return [(0, size)]
        target_bands = min(size, self.jobs * self.chunks_per_job)
        per_band = (size * (size - 1) / 2) / target_bands
        bands: list[tuple[int, int]] = []
        start = 0
        accumulated = 0
        for row in range(size):
            accumulated += size - 1 - row
            if accumulated >= per_band and row + 1 < size:
                bands.append((start, row + 1))
                start = row + 1
                accumulated = 0
        if start < size:
            bands.append((start, size))
        return bands

    def _projection(
        self, memo_key: tuple, packed, params: MiningParams, build, *args
    ):
        """Serve a derived view of cached packed counts, memoised by address.

        ``build(packed, params, *args)`` computes a missing entry.
        ``CousinPairSet`` instances are shared (their counters are never
        mutated through the public API); item and pattern lists are
        shared but copied by the caller.  Disabled alongside the memory
        cache (``cache_size=0``).
        """
        if self._projection_cap == 0:
            return build(packed, params, *args)
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

    def mine_forest(self, trees: Sequence[Tree], **kwargs):
        """Frequent pairs across a forest via this engine.

        Same signature and output as
        :func:`repro.core.multi_tree.mine_forest` (which this simply
        routes through with ``engine=self``).
        """
        from repro.core.multi_tree import mine_forest

        return mine_forest(trees, engine=self, **kwargs)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _admissible(payload: object, arena: TreeArena) -> bool:
        """Whether a cached payload may be served for ``arena``.

        The content address already binds the payload to the tree's
        canonical form, but the payload itself must be interned packed
        counts whose label universe matches the arena's — isomorphic
        trees share a label set, so any disagreement means the entry is
        corrupt or from a foreign scheme.
        """
        return (
            isinstance(payload, PackedCounts)
            and payload.labels == arena.table.labels
        )

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
