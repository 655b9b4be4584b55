"""Packed sparse-vector distance kernel for Section 5.3.

Every §5.3 application — :func:`repro.core.distance.distance_matrix`,
:func:`repro.core.kernel.find_kernel_trees`,
:func:`repro.apps.clustering.cluster_trees` — reduces to the same hot
step: the Jaccard-style distance between two trees' cousin pair item
collections, under one of the four :class:`~repro.core.distance.
DistanceMode` projections.  The reference path compares string-keyed
``Counter``/``set`` projections pair by pair; this module replaces it
with a vectorised form that never materialises a string key:

- :class:`DistanceVectors` holds, per tree, a **sorted** ``int64``
  array of packed keys (the kernel's ``(half_steps << DIST_SHIFT) |
  (la << LABEL_BITS) | lb`` layout from :mod:`repro.trees.packing`,
  re-interned onto one shared forest-level
  :class:`~repro.trees.arena.LabelTable`) plus a parallel occurrence
  count array — built **once per tree** straight from
  :class:`~repro.core.fastmine.PackedCounts`.  ``key & PAIR_MASK``
  collapses the full keys onto unordered label pairs, giving the
  ``plain``/``occur`` views from the same two arrays.

- A pairwise distance is one linear **merge-join** over two sorted key
  arrays (``numpy.searchsorted``): the multiset intersection is
  ``sum(min(count_a, count_b))`` over matched keys, and footnote 2's
  union comes for free as ``total_a + total_b - intersection``, so one
  pass yields the exact integers the reference divides.  The result is
  *numerically identical* to :func:`repro.core.distance
  .pairset_distance` (same integer intersection/union, same float
  division), which the property suite
  ``tests/property/test_prop_distvec.py`` enforces.

- Matrix builds skip work twice over: an inverted pair-key → tree
  index finds, per row, exactly the trees sharing at least one label
  pair (zero-overlap pairs are filled with their known distance — 1.0,
  or 0.0 for two empty collections — without a join), and the size
  bound ``|A ∩ B| <= min(|A|, |B|)`` gives callers an admissible lower
  bound ``1 - min(total)/max(total)`` for branch-and-bound search
  (:func:`repro.core.kernel.find_kernel_trees`).

Instances pickle as their raw arrays, so the engine can ship one to
worker processes and fan a matrix out in row tiles
(:meth:`repro.engine.MiningEngine.distance_matrix`).  See
``docs/perf.md`` for the representation details and the
``BENCH_distance.json`` numbers.

Since the delta-mining pass the vectors are also *patchable*:
:meth:`DistanceVectors.append_packed`,
:meth:`DistanceVectors.remove_rows` and
:meth:`DistanceVectors.replace_rows` mutate the per-tree rows in
place without touching the unaffected trees, and the inverted
pair-key → tree index is patched (a linear merge for additions, a
mask-and-renumber for removals) rather than rebuilt.  Growing the
label universe re-interns existing keys through a *monotone* id remap
(old sorted labels are a subsequence of the new sorted labels), so
every per-tree key array stays sorted without a re-sort.  A patched
instance serves distances byte-identical to a from-scratch rebuild
over the same trees — the contract the ``tests/delta`` churn harness
enforces at every step.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.core.distance import DistanceMode
from repro.core.fastmine import PackedCounts, mine_arena
from repro.core.params import (
    DEFAULT_SKETCH_PARAMS,
    MiningParams,
    SketchParams,
    validate_minoccur,
    validate_mode,
)
from repro.obs.context import get_registry, get_tracer
from repro.trees.arena import LabelTable, forest_arenas
from repro.trees.packing import DIST_SHIFT, LABEL_BITS, LABEL_MASK, PAIR_MASK, pack_key
from repro.trees.tree import Tree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.engine import MiningEngine

__all__ = [
    "DistanceVectors",
    "assemble_matrix",
    "bucket_signature",
    "merge_intersection",
    "signature_geometry",
]

_MULTISET_MODES = frozenset({DistanceMode.OCCUR, DistanceMode.DIST_OCCUR})
_FULL_MODES = frozenset({DistanceMode.DIST, DistanceMode.DIST_OCCUR})

# Count-signature hashing for :meth:`DistanceVectors.lower_bound`.
# Keys are spread over a power-of-two bucket count with a Fibonacci
# multiplicative hash (the packed layout concentrates entropy in the
# low label bits; the multiply mixes it into the high bits the shift
# keeps).  More buckets -> tighter bound; the count adapts to the
# largest per-tree key array between the validated clamps of
# :data:`repro.core.params.DEFAULT_SKETCH_PARAMS` (promoted from
# module constants here so bad values fail loudly in one place).
_SIG_MIX = np.uint64(0x9E3779B97F4A7C15)


def signature_geometry(
    largest: int, sketch: SketchParams = DEFAULT_SKETCH_PARAMS
) -> tuple[int, np.uint64]:
    """Bucket count and hash shift for a corpus whose biggest per-tree
    key array has ``largest`` entries.

    Shared by the corpus-side signature cache and the top-k query path
    (:mod:`repro.core.topk`): a query signature is only comparable to
    the corpus signatures when both were bucketed with the same
    geometry.
    """
    buckets = sketch.min_buckets
    while buckets < 4 * largest and buckets < sketch.max_buckets:
        buckets *= 2
    return buckets, np.uint64(64 - buckets.bit_length() + 1)


def bucket_signature(
    keys: np.ndarray,
    counts: np.ndarray,
    multiset: bool,
    buckets: int,
    shift: np.uint64,
) -> np.ndarray:
    """One bucketed count signature over sorted packed ``keys``.

    Bucket ``b`` holds the summed multiplicity of all keys hashing to
    ``b`` (key presence, for the set modes), so for any two signatures
    built with the same geometry the bucket-wise min sum caps the true
    intersection — matching keys land in the same bucket.
    """
    hashed = (keys.astype(np.uint64) * _SIG_MIX) >> shift
    signature = np.zeros(buckets, dtype=np.int64)
    if multiset:
        np.add.at(signature, hashed.astype(np.intp), counts)
    else:
        np.add.at(signature, hashed.astype(np.intp), 1)
    return signature


def _remap_packed(
    packed: PackedCounts, table: LabelTable, minoccur: int
) -> tuple[np.ndarray, np.ndarray]:
    """One tree's sorted key/count arrays in ``table``'s id space.

    ``packed`` may carry its own per-tree label table (the engine's
    content-addressed form); its local ids are re-interned onto the
    shared forest ``table``.  Both tables assign ids in sorted label
    order, so the remap is monotonic and the canonical ``la <= lb``
    ordering of every key survives untouched.  Counts below
    ``minoccur`` are dropped *before* any projection, matching the
    reference's per-tree filter.
    """
    minoccur = validate_minoccur(minoccur)
    size = len(packed.counts)
    keys = np.fromiter(packed.counts.keys(), dtype=np.int64, count=size)
    counts = np.fromiter(packed.counts.values(), dtype=np.int64, count=size)
    if minoccur > 1:
        keep = counts >= minoccur
        keys = keys[keep]
        counts = counts[keep]
    if packed.labels != table.labels:
        remap = np.fromiter(
            (table.intern(label) for label in packed.labels),
            dtype=np.int64,
            count=len(packed.labels),
        )
        keys = (
            ((keys >> DIST_SHIFT) << DIST_SHIFT)
            | (remap[(keys >> LABEL_BITS) & LABEL_MASK] << LABEL_BITS)
            | remap[keys & LABEL_MASK]
        )
    order = np.argsort(keys)
    return keys[order], counts[order]


def _collapse_pairs(
    keys: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Collapse full keys onto unordered label pairs, summing counts."""
    pairs = keys & PAIR_MASK
    unique, inverse = np.unique(pairs, return_inverse=True)
    summed = np.zeros(unique.size, dtype=np.int64)
    np.add.at(summed, inverse, counts)
    return unique, summed


def _monotone_remap(
    old_labels: Sequence[str], new_labels: Sequence[str]
) -> np.ndarray:
    """Old label id -> new label id, for a grown (superset) table.

    Both tables assign ids in sorted order and ``old_labels`` is a
    subset of ``new_labels``, so the remap is strictly increasing —
    applying it to a sorted packed-key array preserves the sort.
    """
    positions = {label: index for index, label in enumerate(new_labels)}
    return np.fromiter(
        (positions[label] for label in old_labels),
        dtype=np.int64,
        count=len(old_labels),
    )


def _remap_full_keys(keys: np.ndarray, remap: np.ndarray) -> np.ndarray:
    """Re-intern both label fields of full packed keys (distance kept)."""
    if keys.size == 0:
        return keys
    return (
        ((keys >> DIST_SHIFT) << DIST_SHIFT)
        | (remap[(keys >> LABEL_BITS) & LABEL_MASK] << LABEL_BITS)
        | remap[keys & LABEL_MASK]
    )


def _remap_pair_keys(keys: np.ndarray, remap: np.ndarray) -> np.ndarray:
    """Re-intern both label fields of distance-free pair keys."""
    if keys.size == 0:
        return keys
    return (remap[(keys >> LABEL_BITS) & LABEL_MASK] << LABEL_BITS) | remap[
        keys & LABEL_MASK
    ]


def merge_intersection(
    keys_a: np.ndarray,
    counts_a: np.ndarray,
    keys_b: np.ndarray,
    counts_b: np.ndarray,
    multiset: bool,
) -> int:
    """The (multi)set intersection of two sorted packed-key vectors.

    One linear merge-join (``searchsorted`` over the longer side); the
    exact-arithmetic core of every distance this module serves, shared
    with the top-k query path (:mod:`repro.core.topk`) so a query-side
    join is the same integer — and therefore the same float — as the
    corpus-side join.
    """
    if keys_a.size > keys_b.size:
        keys_a, keys_b = keys_b, keys_a
        counts_a, counts_b = counts_b, counts_a
    if keys_a.size == 0:
        return 0
    positions = np.searchsorted(keys_b, keys_a)
    clipped = np.minimum(positions, keys_b.size - 1)
    matched = keys_b[clipped] == keys_a
    matched &= positions < keys_b.size
    if multiset:
        hits = clipped[matched]
        return int(np.minimum(counts_a[matched], counts_b[hits]).sum())
    return int(np.count_nonzero(matched))


def _index_from_sorted(
    sorted_keys: np.ndarray, sorted_owners: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Build the (unique, starts, ends, owners) index from sorted runs.

    ``sorted_keys`` is already sorted, so the unique slots fall out of
    one boundary scan — no re-sort, unlike ``np.unique``.
    """
    if sorted_keys.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return (empty, empty, empty, sorted_owners.astype(np.int64))
    boundaries = np.flatnonzero(
        np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    ).astype(np.int64)
    unique = sorted_keys[boundaries]
    ends = np.append(boundaries[1:], sorted_keys.size).astype(np.int64)
    return unique, boundaries, ends, sorted_owners


def _index_entries(
    index: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten an index back to parallel (sorted_keys, owners) arrays."""
    unique, starts, ends, owners = index
    if unique.size == 0:
        return np.empty(0, dtype=np.int64), owners
    return np.repeat(unique, ends - starts), owners


class DistanceVectors:
    """Packed sparse cousin-pair vectors of a forest, one per tree.

    Build with :meth:`from_trees` (mines the forest),
    :meth:`from_packed` (wraps existing kernel output) or
    :meth:`from_counters` (boundary constructor for string-keyed
    counters).  All four :class:`~repro.core.distance.DistanceMode`
    views are served from two sorted array pairs per tree; every
    distance returned is exactly equal to the
    :func:`~repro.core.distance.pairset_distance` reference.
    """

    __slots__ = (
        "labels",
        "_full_keys",
        "_full_counts",
        "_pair_keys",
        "_pair_counts",
        "_full_totals",
        "_pair_totals",
        "_index",
        "_signatures",
        "fingerprint",
    )

    def __init__(
        self,
        labels: Sequence[str],
        full_keys: Sequence[np.ndarray],
        full_counts: Sequence[np.ndarray],
    ) -> None:
        self.labels = tuple(labels)
        self._full_keys = list(full_keys)
        self._full_counts = list(full_counts)
        collapsed = [
            _collapse_pairs(keys, counts)
            for keys, counts in zip(self._full_keys, self._full_counts)
        ]
        self._pair_keys = [pair for pair, _ in collapsed]
        self._pair_counts = [summed for _, summed in collapsed]
        self._full_totals = [int(counts.sum()) for counts in self._full_counts]
        self._pair_totals = [int(counts.sum()) for counts in self._pair_counts]
        self._index: tuple | None = None
        self._signatures: dict[DistanceMode, list[np.ndarray]] = {}
        self.fingerprint: str | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_packed(
        cls, packed: Iterable[PackedCounts], minoccur: int = 1
    ) -> "DistanceVectors":
        """Vectors from per-tree kernel output, re-interned if needed.

        The inputs may share one label table (the
        :func:`~repro.trees.arena.forest_arenas` form — no remap
        happens) or carry per-tree tables (the engine's cached form —
        each is re-interned onto the merged universe).
        """
        minoccur = validate_minoccur(minoccur)
        packed = list(packed)
        with get_tracer().span(
            "distvec.build", metric="distvec.build.seconds", trees=len(packed)
        ):
            table = LabelTable(
                label for counts in packed for label in counts.labels
            )
            remapped = [
                _remap_packed(counts, table, minoccur) for counts in packed
            ]
            return cls(
                table.labels,
                [keys for keys, _ in remapped],
                [counts for _, counts in remapped],
            )

    @classmethod
    def from_trees(
        cls,
        trees: Sequence[Tree],
        params: MiningParams | None = None,
        *,
        maxdist: float = 1.5,
        minoccur: int = 1,
        max_generation_gap: int = 1,
        max_height: int | None = None,
        engine: "MiningEngine | None" = None,
    ) -> "DistanceVectors":
        """Mine ``trees`` once and wrap the results.

        With an ``engine`` the per-tree mining is cached and parallel
        (:meth:`repro.engine.MiningEngine.distance_vectors`) with
        identical output.
        """
        if params is None:
            params = MiningParams(
                maxdist=maxdist,
                minoccur=minoccur,
                minsup=1,
                max_generation_gap=max_generation_gap,
                max_height=max_height,
            )
        if engine is not None:
            return engine.distance_vectors(trees, params)
        _table, arenas = forest_arenas(trees)
        return cls.from_packed(
            [mine_arena(arena, params) for arena in arenas],
            minoccur=params.minoccur,
        )

    @classmethod
    def from_counters(
        cls,
        counters: Sequence[Mapping[tuple[str, str, float], int]],
        minoccur: int = 1,
    ) -> "DistanceVectors":
        """Boundary constructor from string-keyed counters.

        Each mapping is keyed by canonical ``(label_a, label_b,
        distance)`` items (``label_a <= label_b``, the form every
        miner in this package emits); a non-canonical key raises
        ``ValueError`` from :func:`~repro.trees.packing.pack_key`
        rather than silently merging.
        """
        table = LabelTable(
            label
            for counter in counters
            for (label_a, label_b, _distance) in counter
            for label in (label_a, label_b)
        )
        packed = [
            PackedCounts(
                table.labels,
                {
                    pack_key(
                        int(2 * distance),
                        table.intern(label_a),
                        table.intern(label_b),
                    ): count
                    for (label_a, label_b, distance), count in counter.items()
                },
            )
            for counter in counters
        ]
        return cls.from_packed(packed, minoccur=minoccur)

    @classmethod
    def _from_columns(
        cls,
        labels: Sequence[str],
        full_keys: Sequence[np.ndarray],
        full_counts: Sequence[np.ndarray],
        pair_keys: Sequence[np.ndarray],
        pair_counts: Sequence[np.ndarray],
        full_totals: Sequence[int],
        pair_totals: Sequence[int],
    ) -> "DistanceVectors":
        """Slot-level constructor over precomputed column slices.

        Unlike ``__init__`` this neither collapses pair keys nor sums
        totals — the caller supplies every derived column.  This is the
        zero-copy entry point for the on-disk pair store: the arrays
        may be ``np.memmap`` views into ``.npy`` shards, and nothing
        here forces a data page to load.
        """
        self = cls.__new__(cls)
        self.labels = tuple(labels)
        self._full_keys = list(full_keys)
        self._full_counts = list(full_counts)
        self._pair_keys = list(pair_keys)
        self._pair_counts = list(pair_counts)
        self._full_totals = list(full_totals)
        self._pair_totals = list(pair_totals)
        self._index = None
        self._signatures = {}
        self.fingerprint = None
        return self

    @classmethod
    def from_store(
        cls,
        store: object,
        *,
        minoccur: int | None = None,
    ) -> "DistanceVectors":
        """Vectors backed by an on-disk pair store's memmapped shards.

        ``store`` is either a :class:`repro.store.PairStore` or a
        directory path to open.  Row arrays are ``np.load(...,
        mmap_mode="r")`` views sliced per tree — no key or count column
        is copied into RAM at the default ``minoccur`` (the store's
        packing level), and every view, join, index and sketch built on
        them is byte-identical to an in-RAM :meth:`from_packed` build
        over the same trees.  A larger ``minoccur`` filters rows at
        load (copying only the surviving entries).
        """
        from repro.store import PairStore

        if isinstance(store, PairStore):
            return store.as_vectors(minoccur=minoccur)
        if isinstance(store, (str, os.PathLike)):
            return PairStore.open(os.fspath(store)).as_vectors(
                minoccur=minoccur
            )
        raise TypeError(
            f"from_store takes a PairStore or a directory path, "
            f"got {type(store).__name__}"
        )

    # ------------------------------------------------------------------
    # Row patching (delta-mining)
    # ------------------------------------------------------------------
    def _grow_labels(self, packed: Sequence[PackedCounts]) -> None:
        """Extend the shared label table to cover ``packed``, in place.

        When new labels appear, every existing key array is re-interned
        through the monotone old → new id remap; sorted order survives
        (see :func:`_monotone_remap`), and a built inverted index only
        needs its unique-key array remapped — the slot layout and the
        owner runs are untouched.
        """
        incoming = {
            label for counts in packed for label in counts.labels
        }
        if incoming.issubset(self.labels):
            return
        new_labels = tuple(sorted(incoming.union(self.labels)))
        remap = _monotone_remap(self.labels, new_labels)
        self._full_keys = [
            _remap_full_keys(keys, remap) for keys in self._full_keys
        ]
        self._pair_keys = [
            _remap_pair_keys(keys, remap) for keys in self._pair_keys
        ]
        if self._index is not None:
            unique, starts, ends, owners = self._index
            self._index = (
                _remap_pair_keys(unique, remap), starts, ends, owners
            )
        self.labels = new_labels

    def _append_one(self, keys: np.ndarray, counts: np.ndarray) -> None:
        """Append one tree's remapped sorted arrays as the last row."""
        pair_keys, pair_counts = _collapse_pairs(keys, counts)
        self._full_keys.append(keys)
        self._full_counts.append(counts)
        self._pair_keys.append(pair_keys)
        self._pair_counts.append(pair_counts)
        self._full_totals.append(int(counts.sum()))
        self._pair_totals.append(int(pair_counts.sum()))

    def _invalidate_derived(self) -> None:
        """Drop per-corpus derived state a mutation cannot patch."""
        self._signatures = {}
        self.fingerprint = None

    def _merge_index_entries(
        self, new_keys: np.ndarray, new_owners: np.ndarray
    ) -> None:
        """Linear-merge new (pair key, owner) entries into the index.

        ``new_keys`` must be sorted; equal keys keep the order of
        ``new_owners``.  The merge is ``searchsorted`` plus one
        ``np.insert`` pass — O(existing + new), no re-sort of the
        existing runs.
        """
        assert self._index is not None
        sorted_keys, sorted_owners = _index_entries(self._index)
        positions = np.searchsorted(sorted_keys, new_keys, side="right")
        merged_keys = np.insert(sorted_keys, positions, new_keys)
        merged_owners = np.insert(sorted_owners, positions, new_owners)
        self._index = _index_from_sorted(merged_keys, merged_owners)

    def _drop_index_owners(
        self, drop: Sequence[int], renumber: np.ndarray | None = None
    ) -> None:
        """Remove every index entry owned by a tree in ``drop``.

        ``renumber`` (old tree index -> new tree index) compacts the
        surviving owner ids after positional removals; ``None`` keeps
        them (the replace path, where positions are stable).
        """
        assert self._index is not None
        sorted_keys, sorted_owners = _index_entries(self._index)
        if sorted_keys.size == 0:
            return
        # Callers patch the index before deleting rows, so len(self) is
        # still the pre-removal tree count the owner ids refer to.
        keep = np.ones(len(self), dtype=bool)
        keep[np.asarray(sorted(drop), dtype=np.int64)] = False
        mask = keep[sorted_owners]
        kept_owners = sorted_owners[mask]
        if renumber is not None:
            kept_owners = renumber[kept_owners]
        self._index = _index_from_sorted(sorted_keys[mask], kept_owners)

    def append_packed(
        self, packed: Sequence[PackedCounts], minoccur: int = 1
    ) -> list[int]:
        """Append trees to the forest in place; returns their indexes.

        Each :class:`PackedCounts` is re-interned onto the (possibly
        grown) shared label table exactly as :meth:`from_packed` would,
        so a patched instance is indistinguishable — distance for
        distance — from a from-scratch rebuild over the extended
        forest.  A built inverted index is patched by a linear merge;
        an unbuilt one stays lazy.
        """
        minoccur = validate_minoccur(minoccur)
        packed = list(packed)
        with get_tracer().span(
            "distvec.append", trees=len(packed)
        ):
            self._grow_labels(packed)
            table = LabelTable(self.labels)
            start = len(self)
            new_pair_keys: list[np.ndarray] = []
            for counts in packed:
                keys, values = _remap_packed(counts, table, minoccur)
                self._append_one(keys, values)
                new_pair_keys.append(self._pair_keys[-1])
            if self._index is not None and new_pair_keys:
                sizes = [keys.size for keys in new_pair_keys]
                if sum(sizes) > 0:
                    flat = np.concatenate(new_pair_keys)
                    owners = np.repeat(
                        np.arange(
                            start, start + len(new_pair_keys), dtype=np.int64
                        ),
                        sizes,
                    )
                    order = np.argsort(flat, kind="stable")
                    self._merge_index_entries(flat[order], owners[order])
            self._invalidate_derived()
            get_registry().counter("distvec.rows.appended").add(len(packed))
            return list(range(start, start + len(packed)))

    def remove_rows(self, indexes: Sequence[int]) -> None:
        """Remove the trees at ``indexes`` (positions) in place.

        Later trees shift down, exactly as if the forest had been
        built without the removed members; the inverted index is
        patched by masking out the removed owners and renumbering the
        survivors.  The shared label table deliberately stays a
        superset — label ids never need to shrink for distances to
        match a rebuild, because distances only compare keys within
        the same table.
        """
        drop = sorted(set(indexes))
        if not drop:
            return
        size = len(self)
        for index in drop:
            if not 0 <= index < size:
                raise IndexError(
                    f"tree index {index} out of range for {size} trees"
                )
        with get_tracer().span("distvec.remove", trees=len(drop)):
            if self._index is not None:
                keep = np.ones(size, dtype=bool)
                keep[np.asarray(drop, dtype=np.int64)] = False
                renumber = np.cumsum(keep, dtype=np.int64) - 1
                self._drop_index_owners(drop, renumber=renumber)
            for index in reversed(drop):
                del self._full_keys[index]
                del self._full_counts[index]
                del self._pair_keys[index]
                del self._pair_counts[index]
                del self._full_totals[index]
                del self._pair_totals[index]
            self._invalidate_derived()
            get_registry().counter("distvec.rows.removed").add(len(drop))

    def replace_rows(
        self,
        replacements: Mapping[int, PackedCounts],
        minoccur: int = 1,
    ) -> None:
        """Swap the trees at the given positions in place.

        Positions and the forest size are unchanged — only the
        replaced rows' arrays (and their index entries) move, which is
        what keeps an incrementally maintained distance matrix
        patchable row-by-row.
        """
        minoccur = validate_minoccur(minoccur)
        if not replacements:
            return
        size = len(self)
        for index in replacements:
            if not 0 <= index < size:
                raise IndexError(
                    f"tree index {index} out of range for {size} trees"
                )
        with get_tracer().span(
            "distvec.replace", trees=len(replacements)
        ):
            packed = [replacements[index] for index in sorted(replacements)]
            self._grow_labels(packed)
            table = LabelTable(self.labels)
            if self._index is not None:
                self._drop_index_owners(sorted(replacements))
            new_entries: list[tuple[int, np.ndarray]] = []
            for index, counts in zip(sorted(replacements), packed):
                keys, values = _remap_packed(counts, table, minoccur)
                pair_keys, pair_counts = _collapse_pairs(keys, values)
                self._full_keys[index] = keys
                self._full_counts[index] = values
                self._pair_keys[index] = pair_keys
                self._pair_counts[index] = pair_counts
                self._full_totals[index] = int(values.sum())
                self._pair_totals[index] = int(pair_counts.sum())
                new_entries.append((index, pair_keys))
            if self._index is not None:
                sizes = [keys.size for _index, keys in new_entries]
                if sum(sizes) > 0:
                    flat = np.concatenate(
                        [keys for _index, keys in new_entries]
                    )
                    owners = np.repeat(
                        np.asarray(
                            [index for index, _keys in new_entries],
                            dtype=np.int64,
                        ),
                        sizes,
                    )
                    order = np.argsort(flat, kind="stable")
                    self._merge_index_entries(flat[order], owners[order])
            self._invalidate_derived()
            get_registry().counter("distvec.rows.replaced").add(
                len(replacements)
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._full_keys)

    @property
    def full_rows(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-tree sorted full key arrays and their counts, on
        :attr:`labels` (treat as read-only)."""
        return self._full_keys, self._full_counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistanceVectors({len(self)} trees, "
            f"{len(self.labels)} labels)"
        )

    def totals(self, mode: DistanceMode | str = DistanceMode.DIST_OCCUR) -> list[int]:
        """Per-tree cardinality of the ``mode`` projection.

        The multiset modes count occurrences, the set modes count
        distinct keys — exactly the ``|cpi(T)|`` each variant divides
        by, and the quantity the :meth:`lower_bound` size bound uses.
        """
        mode = validate_mode(mode)
        if mode in _MULTISET_MODES:
            return list(
                self._full_totals if mode in _FULL_MODES else self._pair_totals
            )
        keys = self._full_keys if mode in _FULL_MODES else self._pair_keys
        return [array.size for array in keys]

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def view(
        self, index: int, mode: DistanceMode | str = DistanceMode.DIST_OCCUR
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """One tree's ``(keys, counts, total)`` projection for ``mode``.

        The sorted packed-key array, its parallel counts and the
        cardinality the mode divides by — the raw material of every
        merge-join.  The arrays are the live internal buffers; treat
        them as read-only.
        """
        mode = validate_mode(mode)
        return self._view(index, mode)

    def _view(
        self, index: int, mode: DistanceMode
    ) -> tuple[np.ndarray, np.ndarray, int]:
        if mode in _FULL_MODES:
            keys = self._full_keys[index]
            counts = self._full_counts[index]
            total = self._full_totals[index]
        else:
            keys = self._pair_keys[index]
            counts = self._pair_counts[index]
            total = self._pair_totals[index]
        if mode not in _MULTISET_MODES:
            total = keys.size
        return keys, counts, total

    def distance(
        self,
        first: int,
        second: int,
        mode: DistanceMode | str = DistanceMode.DIST_OCCUR,
    ) -> float:
        """Exact distance between trees ``first`` and ``second``.

        One merge-join over the two sorted key arrays; equals
        :func:`repro.core.distance.pairset_distance` bit for bit
        (two empty collections are at distance 0 by convention).
        """
        mode = validate_mode(mode)
        get_registry().counter("distvec.joins").add(1)
        with get_tracer().span(
            "distvec.join", first=first, second=second, mode=mode.value
        ):
            return self._distance(first, second, mode)

    def _distance(
        self, first: int, second: int, mode: DistanceMode
    ) -> float:
        multiset = mode in _MULTISET_MODES
        keys_a, counts_a, total_a = self._view(first, mode)
        keys_b, counts_b, total_b = self._view(second, mode)
        intersection = merge_intersection(
            keys_a, counts_a, keys_b, counts_b, multiset
        )
        union = total_a + total_b - intersection
        if union == 0:
            return 0.0
        return 1.0 - intersection / union

    def mode_geometry(self, mode: DistanceMode | str) -> tuple[int, np.uint64]:
        """The signature (buckets, shift) this corpus uses for ``mode``.

        A query comparing itself against this corpus
        (:mod:`repro.core.topk`) must bucket its own signature with
        exactly this geometry or the bucket-wise caps are meaningless.
        """
        mode = validate_mode(mode)
        keys_list = (
            self._full_keys if mode in _FULL_MODES else self._pair_keys
        )
        largest = max((keys.size for keys in keys_list), default=0)
        return signature_geometry(largest)

    def mode_signatures(self, mode: DistanceMode | str) -> list[np.ndarray]:
        """Per-tree bucketed count signatures for ``mode`` (cached).

        Bucket ``b`` of tree ``i`` holds the summed multiplicity of all
        keys hashing to ``b`` (key presence, for the set modes).  For
        any two trees the bucket-wise min sum caps the true
        intersection: matching keys land in the same bucket, so each
        bucket's contribution to ``|A ∩ B|`` is at most
        ``min(sig_a[b], sig_b[b])``.
        """
        mode = validate_mode(mode)
        return self._mode_signatures(mode)

    def _mode_signatures(self, mode: DistanceMode) -> list[np.ndarray]:
        cached = self._signatures.get(mode)
        if cached is not None:
            return cached
        buckets, shift = self.mode_geometry(mode)
        multiset = mode in _MULTISET_MODES
        signatures = []
        for index in range(len(self)):
            keys, counts, _total = self._view(index, mode)
            signatures.append(
                bucket_signature(keys, counts, multiset, buckets, shift)
            )
        self._signatures[mode] = signatures
        return signatures

    def lower_bound(
        self,
        first: int,
        second: int,
        mode: DistanceMode | str = DistanceMode.DIST_OCCUR,
    ) -> float:
        """Admissible lower bound on :meth:`distance`, no join needed.

        The bucketed signatures (:meth:`_mode_signatures`) cap the
        intersection: ``|A ∩ B| <= cap = sum_b min(sig_a[b],
        sig_b[b])``.  With ``S = |A| + |B|`` and ``x / (S - x)``
        increasing in ``x``::

            d = 1 - |A ∩ B| / |A ∪ B| >= 1 - cap / (S - cap)

        Since ``cap <= min(|A|, |B|)`` this always dominates the plain
        size bound ``1 - min(total)/max(total)``.
        """
        mode = validate_mode(mode)
        get_registry().counter("distvec.bounds").add(1)
        total_a = self._view(first, mode)[2]
        total_b = self._view(second, mode)[2]
        span = total_a + total_b
        if span == 0:
            return 0.0
        signatures = self._mode_signatures(mode)
        cap = int(np.minimum(signatures[first], signatures[second]).sum())
        return 1.0 - cap / (span - cap)

    # ------------------------------------------------------------------
    # Matrix builds (triangle-only, inverted-index pruned)
    # ------------------------------------------------------------------
    def build_index(self) -> None:
        """Materialise the inverted pair-key → tree index.

        Called lazily by :meth:`triangle`; the engine calls it once
        before fanning tiles out so workers inherit the prebuilt index
        instead of each rebuilding it.
        """
        if self._index is not None:
            return
        with get_tracer().span(
            "distvec.index", metric="distvec.index.seconds", trees=len(self)
        ):
            sizes = [keys.size for keys in self._pair_keys]
            if sum(sizes) == 0:
                empty = np.empty(0, dtype=np.int64)
                self._index = (empty, empty, empty, empty)
                return
            all_keys = np.concatenate(self._pair_keys)
            owners = np.repeat(np.arange(len(self), dtype=np.int64), sizes)
            order = np.argsort(all_keys, kind="stable")
            sorted_keys = all_keys[order]
            sorted_owners = owners[order]
            unique, starts = np.unique(sorted_keys, return_index=True)
            ends = np.append(starts[1:], sorted_keys.size)
            self._index = (unique, starts, ends, sorted_owners)

    def _neighbors_after(self, row: int) -> np.ndarray:
        """Trees ``j > row`` sharing at least one label pair with ``row``.

        Sharing a label pair is necessary for a non-empty intersection
        under *every* mode (the full keys refine the pair keys), so any
        ``j`` outside this set is at the zero-overlap distance without
        a join.
        """
        keys = self._pair_keys[row]
        unique, starts, ends, owners = self._index  # type: ignore[misc]
        if keys.size == 0 or unique.size == 0:
            return np.empty(0, dtype=np.int64)
        slots = np.searchsorted(unique, keys)
        neighbors = np.unique(
            np.concatenate(
                [owners[starts[slot] : ends[slot]] for slot in slots]
            )
        )
        return neighbors[neighbors > row]

    def _neighbors_all(self, row: int) -> np.ndarray:
        """Trees ``j != row`` sharing at least one label pair with ``row``."""
        keys = self._pair_keys[row]
        unique, starts, ends, owners = self._index  # type: ignore[misc]
        if keys.size == 0 or unique.size == 0:
            return np.empty(0, dtype=np.int64)
        slots = np.searchsorted(unique, keys)
        neighbors = np.unique(
            np.concatenate(
                [owners[starts[slot] : ends[slot]] for slot in slots]
            )
        )
        return neighbors[neighbors != row]

    def candidate_trees(self, pair_keys: np.ndarray) -> np.ndarray:
        """Trees sharing at least one of ``pair_keys``, ascending.

        The single-query analogue of :meth:`_neighbors_all`: the keys
        come from *outside* the corpus (a query tree projected onto
        this label table by :mod:`repro.core.topk`), so unlike a
        corpus row they may be absent from the inverted index and are
        masked out before the owner runs are gathered.  Any tree not
        returned has a provably empty intersection with the query
        under every mode.
        """
        self.build_index()
        unique, starts, ends, owners = self._index  # type: ignore[misc]
        if pair_keys.size == 0 or unique.size == 0:
            return np.empty(0, dtype=np.int64)
        slots = np.searchsorted(unique, pair_keys)
        clipped = np.minimum(slots, unique.size - 1)
        present = unique[clipped] == pair_keys
        present &= slots < unique.size
        hits = clipped[present]
        if hits.size == 0:
            return np.empty(0, dtype=np.int64)
        return np.unique(
            np.concatenate(
                [owners[starts[slot] : ends[slot]] for slot in hits]
            )
        )

    def row(
        self,
        index: int,
        mode: DistanceMode | str = DistanceMode.DIST_OCCUR,
    ) -> tuple[list[float], int, int]:
        """One full matrix row: distances from ``index`` to every tree.

        Returns ``(row, pairs_computed, pairs_pruned)`` where
        ``row[index] == 0.0`` and every other entry equals
        :meth:`distance` bit for bit — the same batched merge-join and
        zero-overlap fill :meth:`triangle` uses, restricted to one
        tree.  This is the patch kernel for incrementally maintained
        matrices (:class:`repro.engine.delta.VersionedCorpus`): adding
        or replacing a tree costs one row, not a matrix.
        """
        mode = validate_mode(mode)
        size = len(self)
        if not 0 <= index < size:
            raise IndexError(
                f"tree index {index} out of range for {size} trees"
            )
        with get_tracer().span(
            "distvec.row", index=index, mode=mode.value
        ):
            self.build_index()
            multiset = mode in _MULTISET_MODES
            totals = self.totals(mode)
            total_i = totals[index]
            row = [
                1.0 if total_i or totals[j] else 0.0 for j in range(size)
            ]
            row[index] = 0.0
            neighbors = self._neighbors_all(index)
            computed = int(neighbors.size)
            pruned = size - 1 - computed
            if neighbors.size:
                keys_i, counts_i, _total = self._view(index, mode)
                js = [int(j) for j in neighbors]
                views = [self._view(j, mode) for j in js]
                segment_sizes = [view[0].size for view in views]
                starts = np.concatenate(
                    ([0], np.cumsum(segment_sizes[:-1]))
                ).astype(np.int64)
                candidates = np.concatenate([view[0] for view in views])
                positions = np.searchsorted(keys_i, candidates)
                clipped = np.minimum(positions, keys_i.size - 1)
                matched = keys_i[clipped] == candidates
                matched &= positions < keys_i.size
                if multiset:
                    candidate_counts = np.concatenate(
                        [view[1] for view in views]
                    )
                    overlap = np.where(
                        matched,
                        np.minimum(counts_i[clipped], candidate_counts),
                        0,
                    )
                else:
                    overlap = matched.astype(np.int64)
                intersections = np.add.reduceat(overlap, starts)
                neighbor_totals = np.asarray(
                    [totals[j] for j in js], dtype=np.int64
                )
                unions = total_i + neighbor_totals - intersections
                values = 1.0 - intersections / unions
                for j, value in zip(js, values):
                    row[j] = float(value)
        registry = get_registry()
        registry.counter("distvec.pairs.joined").add(computed)
        registry.counter("distvec.pairs.pruned").add(pruned)
        return row, computed, pruned

    def triangle(
        self,
        start: int,
        stop: int,
        mode: DistanceMode | str = DistanceMode.DIST_OCCUR,
    ) -> tuple[list[list[float]], int, int]:
        """Rows ``start..stop`` of the upper triangle, plus join stats.

        Returns ``(rows, pairs_computed, pairs_pruned)`` where
        ``rows[i - start]`` holds the distances from tree ``i`` to
        every ``j > i``.  Pairs with provably empty intersection (no
        shared label pair) are filled from totals alone and counted as
        pruned; the rest get one batched merge-join per row.

        One ``distvec.triangle`` span per band; the joined/pruned
        totals also land on the ambient registry
        (``distvec.pairs.joined`` / ``distvec.pairs.pruned``), so
        worker-side bands merge back into engine-level counts.
        """
        mode = validate_mode(mode)
        with get_tracer().span(
            "distvec.triangle",
            metric="distvec.triangle.seconds",
            start=start,
            stop=stop,
            mode=mode.value,
        ):
            rows, computed, pruned = self._triangle(start, stop, mode)
        registry = get_registry()
        registry.counter("distvec.pairs.joined").add(computed)
        registry.counter("distvec.pairs.pruned").add(pruned)
        return rows, computed, pruned

    def _triangle(
        self, start: int, stop: int, mode: DistanceMode
    ) -> tuple[list[list[float]], int, int]:
        multiset = mode in _MULTISET_MODES
        self.build_index()
        size = len(self)
        totals = self.totals(mode)
        rows: list[list[float]] = []
        computed = 0
        pruned = 0
        for i in range(start, stop):
            # Zero-overlap default: union is max(total) = total_a +
            # total_b - 0, distance 1.0 — or 0.0 when both are empty.
            total_i = totals[i]
            row = [
                1.0 if total_i or totals[j] else 0.0
                for j in range(i + 1, size)
            ]
            neighbors = self._neighbors_after(i)
            pruned += len(row) - neighbors.size
            computed += neighbors.size
            if neighbors.size:
                keys_i, counts_i, _total = self._view(i, mode)
                js = [int(j) for j in neighbors]
                views = [self._view(j, mode) for j in js]
                segment_sizes = [view[0].size for view in views]
                starts = np.concatenate(
                    ([0], np.cumsum(segment_sizes[:-1]))
                ).astype(np.int64)
                candidates = np.concatenate([view[0] for view in views])
                positions = np.searchsorted(keys_i, candidates)
                clipped = np.minimum(positions, keys_i.size - 1)
                matched = keys_i[clipped] == candidates
                matched &= positions < keys_i.size
                if multiset:
                    candidate_counts = np.concatenate(
                        [view[1] for view in views]
                    )
                    overlap = np.where(
                        matched,
                        np.minimum(counts_i[clipped], candidate_counts),
                        0,
                    )
                else:
                    overlap = matched.astype(np.int64)
                intersections = np.add.reduceat(overlap, starts)
                neighbor_totals = np.asarray(
                    [totals[j] for j in js], dtype=np.int64
                )
                unions = total_i + neighbor_totals - intersections
                values = 1.0 - intersections / unions
                for j, value in zip(js, values):
                    row[j - i - 1] = float(value)
            rows.append(row)
        return rows, computed, pruned

    def matrix(
        self, mode: DistanceMode | str = DistanceMode.DIST_OCCUR
    ) -> list[list[float]]:
        """The full symmetric distance matrix (zero diagonal)."""
        rows, _computed, _pruned = self.triangle(0, len(self), mode)
        return assemble_matrix(len(self), [(0, rows)])

    # ------------------------------------------------------------------
    # Pickling (workers receive the raw arrays, index included)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)


def assemble_matrix(
    size: int, tiles: Iterable[tuple[int, list[list[float]]]]
) -> list[list[float]]:
    """Mirror triangle tiles into one symmetric nested-list matrix.

    ``tiles`` holds ``(start_row, rows)`` pieces as produced by
    :meth:`DistanceVectors.triangle`; together they must cover rows
    ``0..size``.  The diagonal is zero.
    """
    matrix = [[0.0] * size for _ in range(size)]
    for start, rows in tiles:
        for offset, row in enumerate(rows):
            i = start + offset
            for step, value in enumerate(row):
                j = i + step + 1
                matrix[i][j] = value
                matrix[j][i] = value
    return matrix
