"""Exact top-k similarity search over :class:`DistanceVectors`.

The "find the k trees nearest to mine" query needs one row of the
Section 5.3 distance matrix — the query against every corpus tree —
not the all-pairs matrix of :func:`repro.core.distance
.distance_matrix`.  :func:`topk_search` computes that row in one
vectorised pass (:meth:`DistanceVectors.query_distances`) and sorts
it:

- trees sharing no label pair with the query
  (:meth:`DistanceVectors.candidate_trees`) have a provably empty
  intersection under every mode, so their distance (1.0, or 0.0 when
  both sides are empty) is filled without a join.  Counted as
  ``topk.pruned_index``;
- every other tree gets the batched merge-join the matrix builds use —
  the same integers, therefore the same floats.  Counted as
  ``topk.exact_joins``;
- a stable sort of the distances picks the first k, so ties go to the
  smaller tree index.

The neighbours are therefore **byte-identical** to sorting the
corresponding all-pairs matrix row, and ``topk.candidates ==
topk.pruned_index + topk.exact_joins`` always holds.

A query tree is projected onto the corpus label table without growing
it (growing a sorted-interned :class:`~repro.trees.arena.LabelTable`
renumbers ids): known labels map to their corpus ids, unknown labels
to fresh ids past the corpus universe.  The remap is injective, so
distinct query items stay distinct; known-known keys keep their
canonical order (both tables sort labels, so the common subset remaps
monotonically); unknown-containing keys can never collide with a
corpus key.  Intersections — the only quantity distances consume —
are therefore exactly those of a merged-table rebuild.

:meth:`repro.engine.MiningEngine.topk_similar` mines the query as an
engine batch; the CLI surface is the ``similar`` subcommand.  See
``docs/perf.md`` for the size sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.distvec import (
    _FULL_MODES,
    _MULTISET_MODES,
    _remap_full_keys,
    DistanceVectors,
)
from repro.core.fastmine import PackedCounts, _collapse_pairs, mine_arena
from repro.core.params import (
    DistanceMode,
    MiningParams,
    validate_minoccur,
    validate_mode,
)
from repro.errors import ArenaError, MiningParameterError
from repro.obs.context import get_registry, get_tracer
from repro.trees.arena import TreeLike, as_arena, find_label
from repro.trees.packing import MAX_LABELS

__all__ = [
    "QueryVector",
    "TopKResult",
    "query_vector",
    "topk_search",
    "topk_similar",
    "validate_k",
]


def validate_k(k: int) -> int:
    """Check one raw top-k ``k`` knob (integer >= 1) and return it."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise MiningParameterError(
            f"k must be an integer >= 1, got {k!r}"
        )
    return k


class QueryVector:
    """One query tree's packed vectors, projected onto a corpus.

    Holds the same two sorted array pairs a corpus row holds (full
    keys with distance, collapsed unordered label pairs) in the
    *corpus* id space, so every merge-join against a corpus row runs
    over comparable integers.  Build with :func:`query_vector`.
    """

    __slots__ = (
        "full_keys",
        "full_counts",
        "pair_keys",
        "pair_counts",
        "full_total",
        "pair_total",
    )

    def __init__(self, full_keys: np.ndarray, full_counts: np.ndarray) -> None:
        self.full_keys = full_keys
        self.full_counts = full_counts
        self.pair_keys, self.pair_counts = _collapse_pairs(
            full_keys, full_counts
        )
        self.full_total = int(full_counts.sum())
        self.pair_total = int(self.pair_counts.sum())

    def view(
        self, mode: DistanceMode | str = DistanceMode.DIST_OCCUR
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """The query's ``(keys, counts, total)`` projection for ``mode``."""
        mode = validate_mode(mode)
        if mode in _FULL_MODES:
            keys, counts, total = self.full_keys, self.full_counts, self.full_total
        else:
            keys, counts, total = self.pair_keys, self.pair_counts, self.pair_total
        if mode not in _MULTISET_MODES:
            total = keys.size
        return keys, counts, total


def _foreign_remap(
    packed: PackedCounts, corpus_labels: tuple[str, ...]
) -> tuple[np.ndarray, int]:
    """Query label id -> corpus-compatible id, without growing the table,
    and how many of the query's labels the corpus lacks.

    Only the labels the query's keys use are looked up, by binary
    search, so a query costs the size of its tree whatever the size
    of either label universe.  Known labels take their corpus ids;
    unknown labels take fresh ids past the corpus universe
    (``len(corpus_labels)`` onward, in sorted order).  Injective, so
    distinct query keys stay distinct.  Both tables intern in sorted
    label order, so on the *known* subset the remap is monotone and
    canonical ``la <= lb`` key ordering survives; a key touching an
    unknown label may come out non-canonical, which is harmless — no
    corpus key contains an id ``>= len(corpus_labels)``, so such keys
    match nothing, exactly as an unknown label should.
    """
    used = packed.label_ids()
    slots = np.fromiter(
        (find_label(corpus_labels, packed.labels[index]) for index in used.tolist()),
        np.int64,
        used.size,
    )
    unknown = slots < 0
    fresh = int(np.count_nonzero(unknown))
    base = len(corpus_labels)
    if base + fresh > MAX_LABELS:
        raise ArenaError(
            f"query labels push the universe to {base + fresh} distinct "
            f"labels; the packed-key encoding addresses at most {MAX_LABELS}"
        )
    slots[unknown] = np.arange(base, base + fresh)
    remap = np.zeros(len(packed.labels), dtype=np.int64)
    remap[used] = slots
    return remap, fresh


def query_vector(
    vectors: DistanceVectors, packed: PackedCounts, minoccur: int = 1
) -> QueryVector:
    """Project one mined query tree onto ``vectors``' key space.

    ``minoccur`` must match the value the corpus vectors were built
    with, or query-side and corpus-side items are filtered differently
    and the distances stop matching the all-pairs reference.
    """
    minoccur = validate_minoccur(minoccur)
    keys, counts = packed.keys, packed.counts
    if minoccur > 1:
        keep = counts >= minoccur
        keys = keys[keep]
        counts = counts[keep]
    if packed.labels is not vectors.labels and keys.size:
        remap, fresh = _foreign_remap(packed, vectors.labels)
        keys = _remap_full_keys(keys, remap)
        if fresh:
            # ids past the corpus universe break the remap's monotony
            order = keys.argsort()
            keys, counts = keys[order], counts[order]
    return QueryVector(keys, counts)


@dataclass(frozen=True)
class TopKResult:
    """Outcome of one top-k query, with its join counters.

    ``neighbors`` is ascending ``(distance, index)`` — the first entry
    is the nearest tree — as ``(index, distance)`` tuples, exactly the
    first k entries of the sorted all-pairs row (ties broken by the
    smaller tree index).  The counters satisfy ``candidates ==
    pruned_index + exact_joins``.
    """

    k: int
    mode: DistanceMode
    neighbors: tuple[tuple[int, float], ...]
    candidates: int
    pruned_index: int
    exact_joins: int

    def describe(self) -> str:
        """One human-readable summary line."""
        return (
            f"top-{self.k} ({self.mode.value}): {len(self.neighbors)} "
            f"neighbor(s) of {self.candidates} candidate(s); "
            f"{self.pruned_index} index-pruned, "
            f"{self.exact_joins} exact join(s)"
        )


def topk_search(
    vectors: DistanceVectors,
    query: QueryVector,
    k: int,
    mode: DistanceMode | str = DistanceMode.DIST_OCCUR,
) -> TopKResult:
    """The k nearest corpus trees to ``query``, exactly.

    Byte-identical to sorting the all-pairs matrix row of the query
    (ties by smaller tree index); see the module docstring.
    """
    mode = validate_mode(mode)
    k = validate_k(k)
    size = len(vectors)
    with get_tracer().span(
        "topk.search",
        metric="topk.search.seconds",
        trees=size,
        k=k,
        mode=mode.value,
    ):
        keys, counts, total = query.view(mode)
        distances, joined, pruned = vectors.query_distances(
            keys, counts, total, query.pair_keys, mode
        )
        nearest = np.argsort(distances, kind="stable")[:k]
        registry = get_registry()
        registry.counter("topk.candidates").add(size)
        registry.counter("topk.pruned_index").add(pruned)
        registry.counter("topk.exact_joins").add(joined)
        return TopKResult(
            k=k,
            mode=mode,
            neighbors=tuple(
                zip(nearest.tolist(), distances[nearest].tolist())
            ),
            candidates=size,
            pruned_index=pruned,
            exact_joins=joined,
        )


def topk_similar(
    vectors: DistanceVectors,
    query: TreeLike,
    k: int,
    mode: DistanceMode | str = DistanceMode.DIST_OCCUR,
    params: MiningParams | None = None,
    *,
    maxdist: float = 1.5,
    minoccur: int = 1,
    max_generation_gap: int = 1,
    max_height: int | None = None,
) -> TopKResult:
    """Mine ``query`` and rank its k nearest trees in ``vectors``.

    The serial convenience wrapper: mines the query tree with the same
    parameters the corpus was mined with (pass the same ``params`` /
    knobs or the distances stop matching the all-pairs reference),
    projects it onto the corpus label space and runs
    :func:`topk_search`.  :meth:`repro.engine.MiningEngine
    .topk_similar` does the same with the query mined as an engine
    batch.
    """
    if params is None:
        params = MiningParams(
            maxdist=maxdist,
            minoccur=minoccur,
            minsup=1,
            max_generation_gap=max_generation_gap,
            max_height=max_height,
        )
    packed = mine_arena(as_arena(query), params)
    projected = query_vector(vectors, packed, params.minoccur)
    return topk_search(vectors, projected, k, mode)
