"""The mining engine.

``Multiple_Tree_Mining`` and every Section 5 application reduce to the
same hot inner step: the kernel's pair enumeration
(:func:`repro.core.fastmine.mine_arenas`), a sum of independent
per-tree passes.

:class:`MiningEngine` packages that behind one object with one path:
each batch flattens its input trees into arenas
(:func:`repro.trees.arena.as_arena`; forest slices pass through),
mines them in one ``mine_arenas`` call and serves the
per-tree :class:`repro.core.fastmine.PackedCounts` by position, a tree
repeated inside the batch included.  Nothing is kept between batches.
Only :meth:`MiningEngine.packed_counts` content-addresses its trees
(:func:`repro.engine.cache.arena_cache_key`), because its callers — a
:class:`repro.engine.delta.VersionedCorpus` and its pair store —
persist the addresses.  Every batch updates an
:class:`repro.engine.stats.EngineStats`.

Results are *bit-identical* to the serial reference paths: the mined
counts are deterministic.  ``tests/engine`` and
``tests/property/test_prop_engine.py`` enforce this equivalence.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.fastmine import PackedCounts, mine_arenas
from repro.core.multi_tree import FrequentCousinPair, aggregate_packed
from repro.core.params import DistanceMode, MiningParams, validate_mode
from repro.engine.stats import EngineStats
from repro.errors import EngineError
from repro.obs.context import scope as obs_scope
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.trees.arena import TreeLike, as_arena

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.distvec import DistanceVectors
    from repro.core.topk import TopKResult
    from repro.store import PairStore

__all__ = ["MiningEngine"]


class MiningEngine:
    """Runs per-tree mining across forests, one batch at a time.

    Parameters
    ----------
    jobs:
        Accepted for compatibility and ignored: batches are always
        mined in-process.  A value that is not an integer >= 1 (a bool
        included) still raises :class:`~repro.errors.EngineError`.
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
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if jobs is not None and (
            not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1
        ):
            raise EngineError(f"jobs must be an integer >= 1, got {jobs!r}")
        if registry is None:
            registry = tracer.registry if tracer is not None else MetricsRegistry()
        self.registry = registry
        self.tracer = (
            tracer if tracer is not None else Tracer(registry, enabled=False)
        )
        self.stats = EngineStats(registry)
        # The attached on-disk pair store, when mine/distance/top-k
        # queries should be served from memmapped shards instead of
        # re-mining (see attach_store / open_store).
        self._store: "PairStore | None" = None

    # ------------------------------------------------------------------
    # Core batch pass
    # ------------------------------------------------------------------
    def mine(
        self, trees: Sequence[TreeLike], params: MiningParams
    ) -> list[PackedCounts]:
        """Per-tree packed counts of ``trees`` at ``params``, in input
        order: one batch, no content addresses.

        Each :class:`PackedCounts` carries every occurrence at
        ``minoccur=1``, so any threshold can be applied afterwards.
        """
        return self._batch(trees, params)[1]

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
        tree: the content address keys its bookkeeping and its pair
        store persists it, and the :class:`PackedCounts` carry every
        occurrence at ``minoccur=1`` so any filter can be re-derived
        later.
        """
        params = self._resolve(params, maxdist, 1, max_generation_gap, max_height)
        keys, packed = self._batch(trees, params, address=True)
        assert keys is not None
        return keys, packed

    def _batch(
        self,
        trees: Sequence[TreeLike],
        params: MiningParams,
        *,
        address: bool = False,
    ) -> tuple[list[str] | None, list[PackedCounts]]:
        """One batch: per-tree packed counts in input order, plus their
        addresses when ``address`` asks for them (``None`` otherwise).

        Arena inputs are used as they are, forest slices with their
        shared label table included; pointer trees are flattened once.
        The whole batch is mined in one ``mine_arenas`` call.
        """
        stats = self.stats
        tracer = self.tracer
        with obs_scope(self.registry, tracer), tracer.span(
            "engine.batch", metric="engine.batch.seconds", trees=len(trees)
        ):
            stats.batches += 1
            stats.trees_seen += len(trees)
            arenas = [as_arena(tree) for tree in trees]
            keys = None
            if address:
                # Only corpus commits address trees: one-shot runs never
                # load the content-address module.
                from repro.engine.cache import arena_cache_key

                with tracer.span("engine.lookup"):
                    keys = [arena_cache_key(arena, params) for arena in arenas]
            if not arenas:
                return keys, []
            with tracer.span(
                "engine.mine", metric="engine.mine.seconds", trees=len(arenas)
            ):
                return keys, mine_arenas(arenas, params)

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
        .from_trees` without an engine, from one engine batch.  Every
        call builds a fresh object, which is the caller's to mutate.
        """
        from repro.core.distvec import DistanceVectors

        params = self._resolve(
            params, maxdist, minoccur, max_generation_gap, max_height
        )
        with obs_scope(self.registry, self.tracer), self.tracer.span(
            "engine.distance.vectors", trees=len(trees)
        ):
            self.stats.distance_builds += 1
            return DistanceVectors.from_packed(
                self.mine(trees, params),
                minoccur=params.minoccur,
            )

    def frequent_pairs(
        self,
        trees: Sequence[TreeLike],
        params: MiningParams,
        *,
        ignore_distance: bool = False,
    ) -> list[FrequentCousinPair]:
        """Frequent pairs of ``trees`` at ``params``.

        What :func:`repro.core.multi_tree.mine_forest` returns with
        ``engine=self``: one batch, then the one counting kernel
        (:func:`repro.core.multi_tree.aggregate_packed`).
        """
        with obs_scope(self.registry, self.tracer):
            return aggregate_packed(
                self.mine(trees, params),
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
        without an engine; the query tree is mined as a one-tree
        batch.  ``params`` (or the raw knobs) must
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
            (packed,) = self.mine([query], params)
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

        Only the checkpoint, journal and label table are read and
        each generation's size checked
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

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
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
