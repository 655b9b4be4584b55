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

- Matrix builds skip work: an inverted pair-key → tree index finds,
  per row, exactly the trees sharing at least one label pair
  (zero-overlap pairs are filled with their known distance — 1.0, or
  0.0 for two empty collections — without a join).  The index is two
  flat parallel arrays: every row's pair keys, sorted, and the tree
  that owns each entry; one lookup is two ``searchsorted`` calls and
  one gather.  Rectangular blocks (:meth:`DistanceVectors.block`, the
  cross-group distances of :func:`repro.core.kernel.find_kernel_trees`)
  are one sort-merge join over the whole block: both sides' keys
  sorted once, every shared key's row x column occurrences summed into
  the cells with ``np.bincount``.

A matrix is one upper-triangle pass (:meth:`DistanceVectors.triangle`)
mirrored by :func:`assemble_matrix`.  See ``docs/perf.md`` for the
representation details and the ``BENCH_distance.json`` numbers.

Since the delta-mining pass the vectors are also *patchable*:
:meth:`DistanceVectors.append_packed`,
:meth:`DistanceVectors.remove_rows` and
:meth:`DistanceVectors.replace_rows` mutate the per-tree rows in
place without touching the unaffected trees, and the inverted
pair-key → tree index is patched (one ``searchsorted`` and one
``np.insert`` per array for additions, one keep-mask and a renumber
for removals) rather than rebuilt.  Growing the label universe
re-interns existing keys through a *monotone* id remap (old sorted
labels are a subsequence of the new sorted labels), so every per-tree
key array, and the index's flat key array, stays sorted without a
re-sort.  A patched instance serves distances byte-identical to a
from-scratch rebuild over the same trees — the contract the
``tests/delta`` churn harness enforces at every step.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.core.fastmine import (
    PackedCounts,
    _collapse_pairs,
    _remap_packed,
    mine_arenas,
    shared_labels,
)
from repro.core.params import (
    DistanceMode,
    MiningParams,
    validate_minoccur,
    validate_mode,
)
from repro.obs.context import get_registry, get_tracer
from repro.trees.arena import LabelTable, TreeLike, find_label, forest_arenas
from repro.trees.packing import DIST_SHIFT, LABEL_BITS, LABEL_MASK, pack_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.engine import MiningEngine

__all__ = [
    "DistanceVectors",
    "assemble_matrix",
    "merge_intersection",
]

_MULTISET_MODES = frozenset({DistanceMode.OCCUR, DistanceMode.DIST_OCCUR})
_FULL_MODES = frozenset({DistanceMode.DIST, DistanceMode.DIST_OCCUR})
# Most (row, col, key) matches one chunk of a block join crosses at once.
_BLOCK_MATCHES = 1 << 18


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


def _counter_packed(
    table: LabelTable, counter: Mapping[tuple[str, str, float], int]
) -> PackedCounts:
    """One string-keyed counter as packed counts over ``table``."""
    keys = np.fromiter(
        (
            pack_key(int(2 * distance), table.intern(label_a), table.intern(label_b))
            for label_a, label_b, distance in counter
        ),
        np.int64,
        len(counter),
    )
    order = keys.argsort()
    counts = np.fromiter(counter.values(), np.int64, len(counter))
    return PackedCounts(table.labels, keys[order], counts[order])


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
    exact-arithmetic core of :meth:`DistanceVectors.distance`.
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


def _sorted_runs(
    sorted_keys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(unique, starts, ends)`` runs of an already sorted array.

    One boundary scan — no re-sort, unlike ``np.unique``.
    """
    if sorted_keys.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    boundaries = np.flatnonzero(
        np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    ).astype(np.int64)
    ends = np.append(boundaries[1:], sorted_keys.size).astype(np.int64)
    return sorted_keys[boundaries], boundaries, ends


def _flat_entries(
    rows: Sequence[np.ndarray], owners: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Index entries of ``rows``: their keys, stably sorted, and owners.

    ``rows[i]`` belongs to tree ``owners[i]``; equal keys keep the
    order of ``rows``.
    """
    keys = np.concatenate([np.empty(0, dtype=np.int64), *rows])
    owned = np.repeat(
        np.asarray(owners, dtype=np.int64), [row.size for row in rows]
    )
    order = np.argsort(keys, kind="stable")
    return keys[order], owned[order]


def _block_overlap(
    row_side: tuple[np.ndarray, np.ndarray, np.ndarray, int],
    col_side: tuple[np.ndarray, np.ndarray, np.ndarray, int],
    multiset: bool,
) -> np.ndarray:
    """The rows x cols (multi)set intersections of two sorted sides.

    Each side is ``(keys, counts, owners, size)`` from
    :meth:`DistanceVectors._sorted_side`.  The keys both sides hold are
    found on the sides' unique runs; each shared key's row occurrences
    are crossed with its column occurrences (``np.repeat``), and each
    match adds ``min(count)`` (or 1) to its cell with ``np.bincount``.
    Shared keys are taken in chunks of at most ``_BLOCK_MATCHES``
    matches (one key alone, at most rows x cols matches, may exceed
    it), so the transient arrays stay within max(_BLOCK_MATCHES,
    rows x cols) entries.
    """
    row_keys, row_counts, row_owners, row_size = row_side
    col_keys, col_counts, col_owners, col_size = col_side
    cells = row_size * col_size
    intersections = np.zeros(cells, dtype=np.int64)
    row_unique, row_starts, row_ends = _sorted_runs(row_keys)
    col_unique, col_starts, col_ends = _sorted_runs(col_keys)
    if row_unique.size and col_unique.size:
        slots = np.searchsorted(col_unique, row_unique)
        clipped = np.minimum(slots, col_unique.size - 1)
        shared = (slots < col_unique.size) & (col_unique[clipped] == row_unique)
        row_at = row_starts[shared]
        row_run = row_ends[shared] - row_at
        col_at = col_starts[clipped[shared]]
        col_run = col_ends[clipped[shared]] - col_at
        matches = row_run * col_run
        ends = np.cumsum(matches)
        starts = ends - matches
        first = 0
        while first < matches.size:
            done = int(starts[first])
            last = max(
                int(np.searchsorted(ends, done + _BLOCK_MATCHES, side="right")),
                first + 1,
            )
            # Match t of shared key k is row occurrence t // col_run[k]
            # crossed with column occurrence t % col_run[k].  The chunk's
            # match arrays are its output, bounded by _BLOCK_MATCHES.
            # repro-lint: disable-next-line=RPL105 -- one chunk's matches
            key = np.repeat(np.arange(first, last), matches[first:last])
            # repro-lint: disable-next-line=RPL105 -- one chunk's matches
            step = np.arange(done, int(ends[last - 1])) - starts[key]
            row_hit = row_at[key] + step // col_run[key]
            col_hit = col_at[key] + step % col_run[key]
            cell = row_owners[row_hit] * col_size + col_owners[col_hit]
            if multiset:
                # Float weights sum integer counts exactly (< 2**53).
                intersections += np.bincount(
                    cell,
                    weights=np.minimum(row_counts[row_hit], col_counts[col_hit]),
                    minlength=cells,
                ).astype(np.int64)
            else:
                intersections += np.bincount(cell, minlength=cells)
            first = last
    return intersections.reshape(row_size, col_size)


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
        self._index: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_packed(
        cls, packed: Iterable[PackedCounts], minoccur: int = 1
    ) -> "DistanceVectors":
        """Vectors from per-tree kernel output, re-interned if needed.

        The inputs may share one label tuple (the slices of one forest
        arena, or the :func:`~repro.trees.arena.forest_arenas` form —
        no remap happens) or carry several (per-tree tables, or the
        forests of several files), which are re-interned onto their
        merged universe (:func:`~repro.core.fastmine.shared_labels`).
        """
        minoccur = validate_minoccur(minoccur)
        packed = list(packed)
        with get_tracer().span(
            "distvec.build", metric="distvec.build.seconds", trees=len(packed)
        ):
            table = shared_labels(packed)
            remapped = [
                _remap_packed(counts, table, minoccur) for counts in packed
            ]
            return cls(
                table.labels if isinstance(table, LabelTable) else table,
                [keys for keys, _ in remapped],
                [counts for _, counts in remapped],
            )

    @classmethod
    def from_trees(
        cls,
        trees: Sequence[TreeLike],
        params: MiningParams | None = None,
        *,
        maxdist: float = 1.5,
        minoccur: int = 1,
        max_generation_gap: int = 1,
        max_height: int | None = None,
        engine: "MiningEngine | None" = None,
    ) -> "DistanceVectors":
        """Mine ``trees`` once and wrap the results.

        With an ``engine`` the per-tree mining runs as its batch
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
            mine_arenas(arenas, params),
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
        packed = [_counter_packed(table, counter) for counter in counters]
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
        packing level), and every view, join and index built on
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
    def _grow_labels(
        self, packed: Sequence[PackedCounts]
    ) -> np.ndarray | None:
        """Extend the shared label table to cover ``packed``, in place.

        When new labels appear, every existing key array is re-interned
        through the monotone old → new id remap, which is returned
        (``None`` when the table already covers ``packed``); sorted
        order survives (see :func:`_monotone_remap`), so a built
        inverted index only needs its flat key array remapped — it stays
        sorted and its owners are untouched.
        """
        labels = self.labels
        missing = {
            label
            for counts in packed
            for label in counts.labels_used()
            if find_label(labels, label) < 0
        }
        if not missing:
            return None
        new_labels = tuple(sorted((*labels, *missing)))
        remap = _monotone_remap(self.labels, new_labels)
        self._full_keys = [
            _remap_full_keys(keys, remap) for keys in self._full_keys
        ]
        self._pair_keys = [
            _remap_pair_keys(keys, remap) for keys in self._pair_keys
        ]
        if self._index is not None:
            keys, owners = self._index
            self._index = (_remap_pair_keys(keys, remap), owners)
        self.labels = new_labels
        return remap

    def _append_one(self, keys: np.ndarray, counts: np.ndarray) -> None:
        """Append one tree's remapped sorted arrays as the last row."""
        pair_keys, pair_counts = _collapse_pairs(keys, counts)
        self._full_keys.append(keys)
        self._full_counts.append(counts)
        self._pair_keys.append(pair_keys)
        self._pair_counts.append(pair_counts)
        self._full_totals.append(int(counts.sum()))
        self._pair_totals.append(int(pair_counts.sum()))

    def _merge_index_entries(
        self, rows: Sequence[np.ndarray], owners: Sequence[int]
    ) -> None:
        """Merge the pair-key rows of trees ``owners`` into the index.

        One ``searchsorted`` and one ``np.insert`` per array: O(existing
        + new), no re-sort of the existing entries.  New entries go after
        the existing ones of an equal key.
        """
        assert self._index is not None
        keys, owned = self._index
        new_keys, new_owners = _flat_entries(rows, owners)
        if new_keys.size:
            positions = np.searchsorted(keys, new_keys, side="right")
            self._index = (
                np.insert(keys, positions, new_keys),
                np.insert(owned, positions, new_owners),
            )

    def _drop_index_owners(self, drop: Sequence[int], renumber: bool) -> None:
        """Remove every index entry owned by a tree in ``drop``.

        One keep-mask over the owners; with ``renumber`` the surviving
        owner ids are compacted as the positional removal of ``drop``
        shifts them, without it they are kept (the replace path, where
        positions are stable).
        """
        assert self._index is not None
        keys, owned = self._index
        # Callers patch the index before deleting rows, so len(self) is
        # still the pre-removal tree count the owner ids refer to.
        keep = np.ones(len(self), dtype=bool)
        keep[np.asarray(drop, dtype=np.int64)] = False
        mask = keep[owned]
        owned = owned[mask]
        if renumber:
            owned = (np.cumsum(keep, dtype=np.int64) - 1)[owned]
        self._index = (keys[mask], owned)

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
            start = len(self)
            for counts in packed:
                keys, values = _remap_packed(counts, self.labels, minoccur)
                self._append_one(keys, values)
            if self._index is not None:
                self._merge_index_entries(
                    self._pair_keys[start:], range(start, len(self))
                )
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
                self._drop_index_owners(drop, renumber=True)
            for index in reversed(drop):
                del self._full_keys[index]
                del self._full_counts[index]
                del self._pair_keys[index]
                del self._pair_counts[index]
                del self._full_totals[index]
                del self._pair_totals[index]
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
            positions = sorted(replacements)
            packed = [replacements[index] for index in positions]
            self._grow_labels(packed)
            for index, counts in zip(positions, packed):
                keys, values = _remap_packed(counts, self.labels, minoccur)
                pair_keys, pair_counts = _collapse_pairs(keys, values)
                self._full_keys[index] = keys
                self._full_counts[index] = values
                self._pair_keys[index] = pair_keys
                self._pair_counts[index] = pair_counts
                self._full_totals[index] = int(values.sum())
                self._pair_totals[index] = int(pair_counts.sum())
            if self._index is not None:
                self._drop_index_owners(positions, renumber=False)
                self._merge_index_entries(
                    [self._pair_keys[index] for index in positions], positions
                )
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

    @property
    def pair_rows(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-tree distance-free pair projections of :attr:`full_rows`
        and their summed counts (treat as read-only)."""
        return self._pair_keys, self._pair_counts

    def at_minoccur(self, minoccur: int) -> "DistanceVectors":
        """These vectors with counts below ``minoccur`` dropped.

        ``self`` at 1 (rows are kept at that level); otherwise a new
        instance over copies of the surviving entries, equal to a
        :meth:`from_packed` build at ``minoccur`` over the same trees.
        """
        if validate_minoccur(minoccur) == 1:
            return self
        keys_kept = []
        counts_kept = []
        for keys, counts in zip(self._full_keys, self._full_counts):
            keep = np.asarray(counts) >= minoccur
            keys_kept.append(np.asarray(keys)[keep])
            counts_kept.append(np.asarray(counts)[keep])
        return DistanceVectors(self.labels, keys_kept, counts_kept)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistanceVectors({len(self)} trees, "
            f"{len(self.labels)} labels)"
        )

    def totals(self, mode: DistanceMode | str = DistanceMode.DIST_OCCUR) -> list[int]:
        """Per-tree cardinality of the ``mode`` projection.

        The multiset modes count occurrences, the set modes count
        distinct keys — exactly the ``|cpi(T)|`` each variant divides
        by.
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

    # ------------------------------------------------------------------
    # Matrix builds (triangle-only, inverted-index pruned)
    # ------------------------------------------------------------------
    def build_index(self) -> None:
        """Materialise the inverted pair-key → tree index.

        Two flat parallel arrays: every row's pair keys, sorted (stably,
        so equal keys list their owners in ascending order), and the
        tree that owns each entry.  Called lazily by :meth:`triangle`,
        :meth:`row` and :meth:`candidate_trees`; the row-patching
        methods keep a built index current.
        """
        if self._index is not None:
            return
        with get_tracer().span(
            "distvec.index", metric="distvec.index.seconds", trees=len(self)
        ):
            self._index = _flat_entries(self._pair_keys, range(len(self)))

    def _owners_of(self, pair_keys: np.ndarray) -> np.ndarray:
        """The distinct trees owning any of ``pair_keys``, ascending.

        Each key's run of entries is found with ``searchsorted`` left
        and right (an absent key has an empty run), and all the runs'
        owners are gathered at once.
        """
        keys, owners = self._index  # type: ignore[misc]
        starts = np.searchsorted(keys, pair_keys, side="left")
        runs = np.searchsorted(keys, pair_keys, side="right") - starts
        total = int(runs.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        # Entry t of the gather is offset t - (run start in the gather)
        # into its key's run of the index.
        ends = np.cumsum(runs)
        entries = np.arange(total) + np.repeat(starts - (ends - runs), runs)
        return np.unique(owners[entries])

    def _neighbors_after(self, row: int) -> np.ndarray:
        """Trees ``j > row`` sharing at least one label pair with ``row``.

        Sharing a label pair is necessary for a non-empty intersection
        under *every* mode (the full keys refine the pair keys), so any
        ``j`` outside this set is at the zero-overlap distance without
        a join.
        """
        neighbors = self._owners_of(self._pair_keys[row])
        return neighbors[neighbors > row]

    def _neighbors_all(self, row: int) -> np.ndarray:
        """Trees ``j != row`` sharing at least one label pair with ``row``."""
        neighbors = self._owners_of(self._pair_keys[row])
        return neighbors[neighbors != row]

    def candidate_trees(self, pair_keys: np.ndarray) -> np.ndarray:
        """Trees sharing at least one of ``pair_keys``, ascending.

        The single-query analogue of :meth:`_neighbors_all`: the keys
        come from *outside* the corpus (a query tree projected onto
        this label table by :mod:`repro.core.topk`), so unlike a
        corpus row they may be absent from the inverted index (an
        absent key owns no tree).  Any tree not returned has a provably
        empty intersection with the query under every mode.
        """
        self.build_index()
        return self._owners_of(pair_keys)

    def _join(
        self,
        keys: np.ndarray,
        counts: np.ndarray,
        total: int,
        neighbors: np.ndarray,
        mode: DistanceMode,
        totals: np.ndarray,
    ) -> np.ndarray:
        """Distances from one sorted vector to each tree in ``neighbors``.

        One batched merge-join: the neighbours' ``mode`` key arrays are
        concatenated, located in ``keys`` with a single
        ``searchsorted``, and the per-neighbour (multi)set
        intersections summed with ``np.add.reduceat``.  Every neighbour
        shares a label pair with ``keys`` (so neither side is empty,
        every segment is non-empty and every union is positive), and
        each value equals :meth:`distance` bit for bit.  ``totals`` is
        :meth:`totals` for ``mode`` as an array.
        """
        views = [self._view(j, mode) for j in neighbors.tolist()]
        sizes = [view[0].size for view in views]
        starts = np.concatenate(([0], np.cumsum(sizes[:-1]))).astype(np.int64)
        candidates = np.concatenate([view[0] for view in views])
        positions = np.searchsorted(keys, candidates)
        clipped = np.minimum(positions, keys.size - 1)
        matched = keys[clipped] == candidates
        matched &= positions < keys.size
        if mode in _MULTISET_MODES:
            candidate_counts = np.concatenate([view[1] for view in views])
            overlap = np.where(
                matched, np.minimum(counts[clipped], candidate_counts), 0
            )
        else:
            overlap = matched.astype(np.int64)
        intersections = np.add.reduceat(overlap, starts)
        unions = total + totals[neighbors] - intersections
        return 1.0 - intersections / unions

    def query_distances(
        self,
        keys: np.ndarray,
        counts: np.ndarray,
        total: int,
        pair_keys: np.ndarray,
        mode: DistanceMode | str = DistanceMode.DIST_OCCUR,
    ) -> tuple[np.ndarray, int, int]:
        """Distances from one outside vector to every tree, as one array.

        ``(keys, counts, total)`` is the vector's ``mode`` projection
        and ``pair_keys`` its collapsed label pairs, all in this
        corpus's id space (:func:`repro.core.topk.query_vector`).
        Returns ``(distances, pairs_computed, pairs_pruned)``: trees
        outside :meth:`candidate_trees` are filled with the zero-overlap
        distance (1.0, or 0.0 when both sides are empty) and counted as
        pruned; the rest get one batched merge-join, so every entry
        equals the matching :meth:`row` entry of a corpus holding the
        vector.
        """
        mode = validate_mode(mode)
        totals = np.asarray(self.totals(mode), dtype=np.int64)
        distances = np.where((totals > 0) | (total > 0), 1.0, 0.0)
        neighbors = self.candidate_trees(pair_keys)
        if neighbors.size:
            distances[neighbors] = self._join(
                keys, counts, total, neighbors, mode, totals
            )
        return distances, int(neighbors.size), len(self) - int(neighbors.size)

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
                values = self._join(
                    keys_i, counts_i, total_i, neighbors, mode,
                    np.asarray(totals, dtype=np.int64),
                )
                for j, value in zip(neighbors.tolist(), values.tolist()):
                    row[j] = value
        registry = get_registry()
        registry.counter("distvec.pairs.joined").add(computed)
        registry.counter("distvec.pairs.pruned").add(pruned)
        return row, computed, pruned

    def block(
        self,
        rows: Sequence[int],
        cols: Sequence[int],
        mode: DistanceMode | str = DistanceMode.DIST_OCCUR,
    ) -> np.ndarray:
        """The ``len(rows) x len(cols)`` distances between two tree sets.

        One sort-merge join over the whole block (:func:`_block_overlap`)
        gives every cell's (multi)set intersection; the union is
        ``total_a + total_b - intersection`` as in :meth:`distance`,
        and two empty collections are at 0.0.  Every entry equals
        :meth:`distance` bit for bit.  One ``distvec.block`` span per
        call; the pairs with both sides non-empty land on the
        ``distvec.pairs.joined`` counter.
        """
        mode = validate_mode(mode)
        with get_tracer().span(
            "distvec.block", rows=len(rows), cols=len(cols), mode=mode.value
        ):
            totals = np.asarray(self.totals(mode), dtype=np.int64)
            row_totals = totals[np.asarray(rows, dtype=np.int64)]
            col_totals = totals[np.asarray(cols, dtype=np.int64)]
            intersections = _block_overlap(
                self._sorted_side(rows, mode),
                self._sorted_side(cols, mode),
                mode in _MULTISET_MODES,
            )
            unions = row_totals[:, None] + col_totals[None, :] - intersections
            empty = unions == 0
            block = np.where(
                empty, 0.0, 1.0 - intersections / np.where(empty, 1, unions)
            )
        get_registry().counter("distvec.pairs.joined").add(
            int(np.count_nonzero(row_totals)) * int(np.count_nonzero(col_totals))
        )
        return block

    def _sorted_side(
        self, indexes: Sequence[int], mode: DistanceMode
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """One side of a block: the ``mode`` keys of ``indexes``, stably
        sorted, with their counts, their positions in ``indexes`` and the
        side's length."""
        views = [self._view(index, mode) for index in indexes]
        if not views:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty, 0
        keys = np.concatenate([view[0] for view in views])
        counts = np.concatenate([view[1] for view in views])
        owners = np.repeat(
            np.arange(len(views), dtype=np.int64),
            [view[0].size for view in views],
        )
        order = np.argsort(keys, kind="stable")
        return keys[order], counts[order], owners[order], len(views)

    def triangle(
        self, mode: DistanceMode | str = DistanceMode.DIST_OCCUR
    ) -> tuple[list[list[float]], int, int]:
        """The upper triangle of the distance matrix, plus join stats.

        Returns ``(rows, pairs_computed, pairs_pruned)`` where
        ``rows[i]`` holds the distances from tree ``i`` to every
        ``j > i``.  Pairs with provably empty intersection (no shared
        label pair) are filled from totals alone and counted as pruned;
        the rest get one batched merge-join per row.

        One ``distvec.triangle`` span per call; the joined/pruned totals
        also land on the ambient registry (``distvec.pairs.joined`` /
        ``distvec.pairs.pruned``).
        """
        mode = validate_mode(mode)
        with get_tracer().span(
            "distvec.triangle",
            metric="distvec.triangle.seconds",
            trees=len(self),
            mode=mode.value,
        ):
            rows, computed, pruned = self._triangle(mode)
        registry = get_registry()
        registry.counter("distvec.pairs.joined").add(computed)
        registry.counter("distvec.pairs.pruned").add(pruned)
        return rows, computed, pruned

    def _triangle(
        self, mode: DistanceMode
    ) -> tuple[list[list[float]], int, int]:
        self.build_index()
        size = len(self)
        totals = self.totals(mode)
        total_array = np.asarray(totals, dtype=np.int64)
        rows: list[list[float]] = []
        computed = 0
        pruned = 0
        for i in range(size):
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
                values = self._join(
                    keys_i, counts_i, total_i, neighbors, mode, total_array
                )
                for j, value in zip(neighbors.tolist(), values.tolist()):
                    row[j - i - 1] = value
            rows.append(row)
        return rows, computed, pruned

    def matrix(
        self, mode: DistanceMode | str = DistanceMode.DIST_OCCUR
    ) -> list[list[float]]:
        """The full symmetric distance matrix (zero diagonal)."""
        rows, _computed, _pruned = self.triangle(mode)
        return assemble_matrix(rows)


def assemble_matrix(rows: Sequence[list[float]]) -> list[list[float]]:
    """Mirror an upper triangle into one symmetric nested-list matrix.

    ``rows`` is the triangle :meth:`DistanceVectors.triangle` returns:
    ``rows[i]`` holds the distances from ``i`` to every ``j > i``.
    The diagonal is zero.
    """
    size = len(rows)
    matrix = [[0.0] * size for _ in range(size)]
    for i, row in enumerate(rows):
        for step, value in enumerate(row):
            j = i + step + 1
            matrix[i][j] = value
            matrix[j][i] = value
    return matrix
