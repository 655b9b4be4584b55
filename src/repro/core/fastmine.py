"""Interned flat-array cousin-pair mining kernel.

This module re-implements ``Single_Tree_Mining`` over the compact
:class:`~repro.trees.arena.TreeArena` representation.  It produces
bit-for-bit the same results as the reference implementation in
:mod:`repro.core.single_tree` (enforced by the differential suites in
``tests/property``) while removing the two costs that dominate the
reference's profile:

1. **Re-traversal.**  The reference calls
   ``_labeled_descendants_by_depth`` once per (ancestor, child) pair,
   so a node at height ``h`` in a chain is re-visited by up to
   ``max_level`` distinct ancestors.  The kernel instead performs a
   *single* reverse-preorder sweep (children before parents) that
   builds each node's labeled-descendants-by-depth strata bottom-up:
   folding a child into its parent shifts the child's strata one level
   deeper and merges them **small-to-large**, so every label is touched
   ``O(max_level)`` times in total.

2. **String hashing and tuple allocation.**  The reference keys its
   ``Counter`` by ``(label_a, label_b, distance)`` tuples of strings.
   The kernel interns labels through the arena's
   :class:`~repro.trees.arena.LabelTable` and accumulates occurrence
   counts in a plain dict keyed by one packed integer::

       key = (half_steps << 42) | (label_a_id << 21) | label_b_id

   where ``half_steps = int(2 * distance)`` (so the low bit of the
   distance field is the "half" bit distinguishing e.g. first cousins
   from first-cousins-once-removed) and ``label_a_id <= label_b_id``.
   Because the label table assigns ids in sorted order, id comparison
   coincides with label-string comparison, so canonicalising the
   unordered pair costs one integer compare in the inner loop and the
   packed key identifies exactly the reference's canonical item.

The cross-counting itself uses the **prefix trick**: when folding
child ``c`` into parent ``p``, the kernel crosses ``c``'s strata
against the union of the strata of ``p``'s previously folded children.
By bilinearity of the cross product, summing ``cross(prefix, child)``
over the children equals summing ``cross(child_i, child_j)`` over all
unordered sibling pairs — the reference's ``O(children^2)`` double
loop — while walking each stratum only once per child.

The string-keyed boundary (``Counter`` objects,
:class:`~repro.core.cousins.CousinPairItem`) is materialised only on
request via :class:`PackedCounts`, so the engine can cache and pickle
the interned form.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, Sequence

import numpy as np

from repro.core.cousins import CousinPair, CousinPairItem, distance_from_heights
from repro.core.params import MiningParams, validate_minoccur
from repro.errors import ArenaError
from repro.obs.context import get_registry, get_tracer
from repro.trees.arena import LabelTable, TreeArena, find_label
from repro.trees.packing import DIST_SHIFT, LABEL_BITS, LABEL_MASK, PAIR_MASK
from repro.trees.tree import Tree

__all__ = [
    "PackedCounts",
    "mine_arena",
    "mine_tree",
    "mine_tree_counter",
    "enumerate_cousin_pairs",
    "iter_pair_indexes",
]

_LABEL_MASK = LABEL_MASK
_DIST_SHIFT = DIST_SHIFT

try:  # the C helper behind Counter.update: mapping[elem] += 1 per elem
    from collections import _count_elements
except ImportError:  # pragma: no cover - CPython always has it

    def _count_elements(mapping: dict, iterable) -> None:
        mapping_get = mapping.get
        for element in iterable:
            mapping[element] = mapping_get(element, 0) + 1


def _params(
    maxdist: float,
    minoccur: int,
    max_generation_gap: int,
    max_height: int | None = None,
) -> MiningParams:
    """Validate raw knobs through :class:`MiningParams` (minsup unused)."""
    return MiningParams(
        maxdist=maxdist,
        minoccur=minoccur,
        minsup=1,
        max_generation_gap=max_generation_gap,
        max_height=max_height,
    )


def _cross_rows(
    params: MiningParams, shift: int = _DIST_SHIFT
) -> list[tuple[tuple[int, int], ...]]:
    """Admissible (depth, distance) pairs, precomputed per left depth.

    ``rows[dl]`` holds one ``(dr - 1, half_steps << shift)`` entry for
    every right depth ``dr`` that passes ``params.admits_heights`` with
    ``dl`` — the entire distance logic hoisted out of the sweep.  The
    stored depth is zero-based so the inner loop can index strata
    directly, and the distance comes pre-shifted into key position
    (``shift=0`` yields raw half-steps for the node-level sweep).
    """
    max_level = params.max_level
    gap = params.max_generation_gap
    rows: list[tuple[tuple[int, int], ...]] = [()] * (max_level + 1)
    for depth_l in range(1, max_level + 1):
        row = []
        for depth_r in range(1, max_level + 1):
            if params.admits_heights(depth_l, depth_r):
                distance = distance_from_heights(depth_l, depth_r, gap)
                row.append((depth_r - 1, int(2 * distance) << shift))
        rows[depth_l] = tuple(row)
    return rows


def _sweep_packed(arena: TreeArena, params: MiningParams) -> dict[int, int]:
    """One bottom-up sweep accumulating canonical packed pair counts.

    ``agg[i]`` is built into the strata of node ``i``: a list of
    ``max_level`` slots where slot ``d`` maps interned labels at depth
    ``d + 1`` below ``i`` to their multiplicities (``None`` for an
    empty stratum).  Reverse preorder guarantees every child is folded
    before its parent is reached.  Folding child ``i`` into parent
    ``p`` does three things: cross ``i``'s strata (shifted one level
    down) against the accumulated strata of ``p``'s earlier-folded
    children, then merge them in, stealing the child's dicts
    small-to-large.  The first child folded into ``p`` skips both and
    just seeds ``agg[p]`` with its own strata shifted in place — no
    copy at all.
    """
    counts: dict[int, int] = {}
    max_level = params.max_level
    n = len(arena.parent)
    if n < 2 or max_level == 0:
        return counts
    rows = _cross_rows(params)
    row_own = rows[1]
    agg: list[list | None] = [None] * n
    counts_get = counts.get
    # multiplicity-1 contributions (the common case) are appended here
    # and drained through the C-speed _count_elements at the end,
    # skipping a dict get+set per occurrence in the innermost loop
    pending: list[int] = []
    pending_append = pending.append
    top = max_level - 1
    # materialised reversed lists let zip drive the node loop at C speed
    # (no per-node array indexing, no re-boxing of array('i') entries)
    for i, p, lab in zip(
        range(n - 1, 0, -1),
        arena.parent.tolist()[:0:-1],
        arena.label.tolist()[:0:-1],
    ):
        sub = agg[i]
        pagg = agg[p]
        if pagg is None:
            if sub is None:
                vec: list = [None] * max_level
                if lab >= 0:
                    vec[0] = {lab: 1}
            else:
                agg[i] = None
                vec = sub
                vec.insert(0, {lab: 1} if lab >= 0 else None)
                vec.pop()  # the stratum shifted past max_level
            agg[p] = vec
            continue
        # -- cross against the sibling prefix (before merging) --------
        if lab >= 0:
            shifted = lab << LABEL_BITS
            for depth_r, dist_bits in row_own:
                other = pagg[depth_r]
                if other:
                    base_hi = dist_bits | shifted
                    base_lo = dist_bits | lab
                    for label_b, count_b in other.items():
                        if lab <= label_b:
                            key = base_hi | label_b
                        else:
                            key = base_lo | (label_b << LABEL_BITS)
                        if count_b == 1:
                            pending_append(key)
                        else:
                            counts[key] = counts_get(key, 0) + count_b
        if sub is not None:
            agg[i] = None
            for d in range(top):
                stratum = sub[d]
                if stratum:
                    for depth_r, dist_bits in rows[d + 2]:
                        other = pagg[depth_r]
                        if other:
                            # the cross is symmetric: loop the smaller
                            # dict on the outside
                            if len(stratum) <= len(other):
                                small, big = stratum, other
                            else:
                                small, big = other, stratum
                            for label_a, count_a in small.items():
                                base_hi = dist_bits | (label_a << LABEL_BITS)
                                base_lo = dist_bits | label_a
                                if count_a == 1:
                                    for label_b, count_b in big.items():
                                        if label_a <= label_b:
                                            key = base_hi | label_b
                                        else:
                                            key = base_lo | (
                                                label_b << LABEL_BITS
                                            )
                                        if count_b == 1:
                                            pending_append(key)
                                        else:
                                            counts[key] = (
                                                counts_get(key, 0) + count_b
                                            )
                                else:
                                    for label_b, count_b in big.items():
                                        if label_a <= label_b:
                                            key = base_hi | label_b
                                        else:
                                            key = base_lo | (
                                                label_b << LABEL_BITS
                                            )
                                        counts[key] = (
                                            counts_get(key, 0)
                                            + count_a * count_b
                                        )
        # -- merge into the prefix (small-to-large, stealing dicts) ----
        if lab >= 0:
            target = pagg[0]
            if target is None:
                pagg[0] = {lab: 1}
            else:
                target[lab] = target.get(lab, 0) + 1
        if sub is not None:
            for d in range(top):
                stratum = sub[d]
                if stratum:
                    target = pagg[d + 1]
                    if target is None:
                        pagg[d + 1] = stratum
                    else:
                        if len(target) < len(stratum):
                            target, stratum = stratum, target
                            pagg[d + 1] = target
                        target_get = target.get
                        for key, value in stratum.items():
                            target[key] = target_get(key, 0) + value
    if pending:
        _count_elements(counts, pending)
    return counts


class PackedCounts:
    """Interned mining result: packed-int keys plus the label table.

    This is what the kernel produces and what the engine caches (in
    memory and pickled on disk) — materialising string-keyed
    :class:`~collections.Counter` objects or
    :class:`~repro.core.cousins.CousinPairItem` lists only at the
    boundary via :meth:`to_counter` / :meth:`items`.

    Keys follow the module's packed format:
    ``(half_steps << 42) | (label_a_id << 21) | label_b_id`` with
    ``label_a_id <= label_b_id`` and ``distance = half_steps / 2``.
    ``labels`` is the sorted label tuple of the
    :class:`~repro.trees.arena.LabelTable` the ids refer to.
    """

    __slots__ = ("labels", "counts")

    def __init__(self, labels: Sequence[str], counts: dict[int, int]) -> None:
        self.labels = tuple(labels)
        self.counts = counts

    def __len__(self) -> int:
        return len(self.counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedCounts):
            return NotImplemented
        return self.labels == other.labels and self.counts == other.counts

    def __reduce__(self):
        return (PackedCounts, (self.labels, self.counts))

    def label_ids(self) -> np.ndarray:
        """The sorted distinct label ids that the keys use.

        No Python work per entry of ``labels``: a tree read from a
        forest carries the whole forest's label tuple.
        """
        keys = np.fromiter(self.counts, np.int64, len(self.counts))
        return _used_ids(keys, len(self.labels))

    def labels_used(self) -> list[str]:
        """The labels that the keys use, in sorted order."""
        labels = self.labels
        return [labels[index] for index in self.label_ids().tolist()]

    def total_occurrences(self) -> int:
        """Sum of all occurrence counts."""
        return sum(self.counts.values())

    def to_counter(self) -> Counter:
        """A fresh string-keyed ``Counter`` equal to the reference's.

        Keys are ``(label_a, label_b, distance)`` with sorted labels
        and a float distance — byte-identical to
        :func:`repro.core.single_tree.mine_tree_counter`.
        """
        labels = self.labels
        decoded = {
            (
                labels[(key >> LABEL_BITS) & _LABEL_MASK],
                labels[key & _LABEL_MASK],
                (key >> _DIST_SHIFT) / 2.0,
            ): count
            for key, count in self.counts.items()
        }
        out: Counter = Counter()
        # keys are unique post-decode, so plain dict.update (C speed)
        # beats Counter.update's per-item Python loop
        dict.update(out, decoded)
        return out

    def filtered_counter(self, minoccur: int) -> Counter:
        """Like :meth:`to_counter` but dropping counts below ``minoccur``."""
        minoccur = validate_minoccur(minoccur)
        labels = self.labels
        decoded = {
            (
                labels[(key >> LABEL_BITS) & _LABEL_MASK],
                labels[key & _LABEL_MASK],
                (key >> _DIST_SHIFT) / 2.0,
            ): count
            for key, count in self.counts.items()
            if count >= minoccur
        }
        out: Counter = Counter()
        dict.update(out, decoded)
        return out

    def items(self, minoccur: int = 1) -> list[CousinPairItem]:
        """Qualifying :class:`CousinPairItem` records, sorted.

        Matches :func:`repro.core.single_tree.mine_tree` item-for-item.
        """
        minoccur = validate_minoccur(minoccur)
        labels = self.labels
        result = [
            CousinPairItem(
                labels[(key >> LABEL_BITS) & _LABEL_MASK],
                labels[key & _LABEL_MASK],
                (key >> _DIST_SHIFT) / 2.0,
                count,
            )
            for key, count in self.counts.items()
            if count >= minoccur
        ]
        result.sort()
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PackedCounts({len(self.counts)} keys, "
            f"{len(self.labels)} labels)"
        )


def shared_labels(packed: Sequence[PackedCounts]) -> LabelTable | tuple[str, ...]:
    """The label universe of ``packed``, for :func:`_remap_packed`.

    The one label tuple that every input carries (the trees of one
    forest arena), found by identity — comparing two forest-sized
    tuples costs as much as the remap it would save — or else one
    table over the distinct tuples, each read once.
    """
    distinct = {id(counts.labels): counts.labels for counts in packed}
    if len(distinct) == 1:
        return packed[0].labels
    return LabelTable(label for labels in distinct.values() for label in labels)


def _remap_packed(
    packed: PackedCounts,
    table: LabelTable | tuple[str, ...],
    minoccur: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One tree's sorted key/count arrays in ``table``'s id space.

    Counts below ``minoccur`` are dropped *before* any projection,
    matching the reference's per-tree filter.  Keys already interned
    on ``table`` keep their ids; others are re-interned by
    :func:`_remap_keys`.  ``table`` may be a bare sorted label tuple.
    """
    minoccur = validate_minoccur(minoccur)
    size = len(packed.counts)
    keys = np.fromiter(packed.counts.keys(), dtype=np.int64, count=size)
    counts = np.fromiter(packed.counts.values(), dtype=np.int64, count=size)
    if minoccur > 1:
        keep = counts >= minoccur
        keys = keys[keep]
        counts = counts[keep]
    order = np.argsort(keys)
    keys = keys[order]
    labels = table.labels if isinstance(table, LabelTable) else table
    if labels is not packed.labels and keys.size:
        keys = _remap_keys(keys, packed.labels, table)
    return keys, counts[order]


def _remap_keys(
    keys: np.ndarray, labels: Sequence[str], table: LabelTable | tuple[str, ...]
) -> np.ndarray:
    """Re-intern packed keys from ``labels`` ids onto ``table``.

    Only the labels the keys use are looked up: by the table's id dict,
    or by binary search in a bare sorted tuple, so a commit of a few
    trees builds no id dict over a large universe.  Both sides assign
    ids in sorted label order, so the remap is monotone: the canonical
    ``la <= lb`` order of every key and the order of the array survive.
    """
    used = _used_ids(keys, len(labels))
    texts = [labels[index] for index in used.tolist()]
    if isinstance(table, LabelTable):
        ids = table.find_many(texts)
        table = table.labels
    else:
        ids = np.fromiter(
            (find_label(table, text) for text in texts), np.int64, len(texts)
        )
    if ids.min() < 0:
        label = texts[int(np.argmin(ids))]
        raise ArenaError(f"label {label!r} is not in this table ({len(table)} labels)")
    remap = np.zeros(len(labels), np.int64)
    remap[used] = ids
    return (
        ((keys >> _DIST_SHIFT) << _DIST_SHIFT)
        | (remap[(keys >> LABEL_BITS) & _LABEL_MASK] << LABEL_BITS)
        | remap[keys & _LABEL_MASK]
    )


def _used_ids(keys: np.ndarray, count: int) -> np.ndarray:
    """The sorted distinct label ids in packed ``keys``, ids < ``count``."""
    used = np.zeros(count, bool)
    used[(keys >> LABEL_BITS) & _LABEL_MASK] = True
    used[keys & _LABEL_MASK] = True
    return used.nonzero()[0]


def _collapse_pairs(
    keys: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Collapse full keys onto unordered label pairs, summing counts."""
    pairs = keys & PAIR_MASK
    unique, inverse = np.unique(pairs, return_inverse=True)
    summed = np.zeros(unique.size, dtype=np.int64)
    np.add.at(summed, inverse, counts)
    return unique, summed


def mine_arena(arena: TreeArena, params: MiningParams) -> PackedCounts:
    """Mine one flattened tree into interned packed counts.

    This is the engine-facing entry point: it never touches label
    strings, so the result can be cached and shipped across processes
    as-is.  ``params.minoccur``/``minsup`` are not applied here —
    filtering happens at the boundary, as in the reference.

    One ``fastmine.sweep`` span per tree (outside the per-node loops,
    so a disabled tracer costs two clock reads per *tree*); the
    ambient registry counts trees, nodes and emitted keys.
    """
    with get_tracer().span(
        "fastmine.sweep", metric="fastmine.sweep.seconds"
    ):
        counts = _sweep_packed(arena, params)
    registry = get_registry()
    registry.counter("fastmine.trees").add(1)
    registry.counter("fastmine.nodes").add(len(arena.parent))
    registry.counter("fastmine.keys").add(len(counts))
    return PackedCounts(arena.table.labels, counts)


def mine_tree_counter(
    tree: Tree,
    maxdist: float = 1.5,
    max_generation_gap: int = 1,
    max_height: int | None = None,
) -> Counter:
    """Raw occurrence counts keyed by ``(label_a, label_b, distance)``.

    Drop-in replacement for
    :func:`repro.core.single_tree.mine_tree_counter` riding the arena
    kernel.
    """
    params = _params(maxdist, 1, max_generation_gap, max_height)
    return mine_arena(TreeArena.from_tree(tree), params).to_counter()


def mine_tree(
    tree: Tree,
    maxdist: float = 1.5,
    minoccur: int = 1,
    max_generation_gap: int = 1,
    max_height: int | None = None,
) -> list[CousinPairItem]:
    """Find all qualifying cousin pair items of one tree.

    Drop-in replacement for :func:`repro.core.single_tree.mine_tree`;
    see that function for the parameter semantics.
    """
    params = _params(maxdist, minoccur, max_generation_gap, max_height)
    return mine_arena(TreeArena.from_tree(tree), params).items(params.minoccur)


def free_path_counts(
    arena: TreeArena, limit: int, artificial_root: bool
) -> dict[int, int]:
    """Bottom-up path-length pair counts for Section 6 free-tree mining.

    ``arena`` is the flattened rooted form produced by
    :meth:`repro.core.freetree.FreeTree.to_rooted` — when
    ``artificial_root`` is true, preorder index 0 is the unlabeled
    planted root and every path through it gained one edge (Eq. 10),
    so its cross combinations use ``path = dl + dr - 1`` instead of
    ``dl + dr``.  Pairs are keyed in this module's packed format with
    ``half_steps = path - 2`` (Eq. 7: ``cdist = (m - 2) / 2``); paths
    shorter than 2 edges (adjacent nodes, and the planted root's split
    edge) are excluded.  Besides the sibling-subtree crosses, each
    labeled node is paired with its own labeled descendants 2..limit
    edges below (the rooted miner's "vertical" pairs).

    The sweep itself is :func:`_sweep_packed` with ``max_level =
    limit`` strata and path-length rows in place of the cousin-height
    rows.
    """
    counts: dict[int, int] = {}
    n = len(arena.parent)
    get_registry().counter("fastmine.free_sweeps").add(1)
    if n < 2 or limit < 2:
        return counts
    # rows[dl] -> (dr - 1, half_steps << shift) per admissible dr
    normal_rows: list[tuple[tuple[int, int], ...]] = [()] * (limit + 1)
    root_rows: list[tuple[tuple[int, int], ...]] = [()] * (limit + 1)
    for depth_l in range(1, limit + 1):
        normal_rows[depth_l] = tuple(
            (depth_r - 1, (depth_l + depth_r - 2) << _DIST_SHIFT)
            for depth_r in range(1, limit + 1)
            if depth_l + depth_r <= limit
        )
        root_rows[depth_l] = tuple(
            (depth_r - 1, (depth_l + depth_r - 3) << _DIST_SHIFT)
            for depth_r in range(1, limit + 1)
            if 3 <= depth_l + depth_r <= limit + 1
        )
    vertical = tuple(
        (m - 1, (m - 2) << _DIST_SHIFT) for m in range(2, limit + 1)
    )
    agg: list[list | None] = [None] * n
    counts_get = counts.get
    pending: list[int] = []
    pending_append = pending.append
    top = limit - 1

    def count_vertical(lab: int, sub: list) -> None:
        shifted = lab << LABEL_BITS
        for depth_r, dist_bits in vertical:
            stratum = sub[depth_r]
            if stratum:
                base_hi = dist_bits | shifted
                base_lo = dist_bits | lab
                for label_b, count_b in stratum.items():
                    if lab <= label_b:
                        key = base_hi | label_b
                    else:
                        key = base_lo | (label_b << LABEL_BITS)
                    if count_b == 1:
                        pending_append(key)
                    else:
                        counts[key] = counts_get(key, 0) + count_b

    for i, p, lab in zip(
        range(n - 1, 0, -1),
        arena.parent.tolist()[:0:-1],
        arena.label.tolist()[:0:-1],
    ):
        sub = agg[i]
        if lab >= 0 and sub is not None:
            count_vertical(lab, sub)
        pagg = agg[p]
        if pagg is None:
            if sub is None:
                vec: list = [None] * limit
                if lab >= 0:
                    vec[0] = {lab: 1}
            else:
                agg[i] = None
                vec = sub
                vec.insert(0, {lab: 1} if lab >= 0 else None)
                vec.pop()
            agg[p] = vec
            continue
        rows = root_rows if artificial_root and p == 0 else normal_rows
        if lab >= 0:
            shifted = lab << LABEL_BITS
            for depth_r, dist_bits in rows[1]:
                other = pagg[depth_r]
                if other:
                    base_hi = dist_bits | shifted
                    base_lo = dist_bits | lab
                    for label_b, count_b in other.items():
                        if lab <= label_b:
                            key = base_hi | label_b
                        else:
                            key = base_lo | (label_b << LABEL_BITS)
                        if count_b == 1:
                            pending_append(key)
                        else:
                            counts[key] = counts_get(key, 0) + count_b
        if sub is not None:
            agg[i] = None
            for d in range(top):
                stratum = sub[d]
                if stratum:
                    for depth_r, dist_bits in rows[d + 2]:
                        other = pagg[depth_r]
                        if other:
                            for label_a, count_a in stratum.items():
                                base_hi = dist_bits | (label_a << LABEL_BITS)
                                base_lo = dist_bits | label_a
                                for label_b, count_b in other.items():
                                    if label_a <= label_b:
                                        key = base_hi | label_b
                                    else:
                                        key = base_lo | (
                                            label_b << LABEL_BITS
                                        )
                                    product = count_a * count_b
                                    if product == 1:
                                        pending_append(key)
                                    else:
                                        counts[key] = (
                                            counts_get(key, 0) + product
                                        )
        # merge into the prefix (small-to-large, stealing dicts)
        if lab >= 0:
            target = pagg[0]
            if target is None:
                pagg[0] = {lab: 1}
            else:
                target[lab] = target.get(lab, 0) + 1
        if sub is not None:
            for d in range(top):
                stratum = sub[d]
                if stratum:
                    target = pagg[d + 1]
                    if target is None:
                        pagg[d + 1] = stratum
                    else:
                        if len(target) < len(stratum):
                            target, stratum = stratum, target
                            pagg[d + 1] = target
                        target_get = target.get
                        for key, value in stratum.items():
                            target[key] = target_get(key, 0) + value
    root_label = arena.label[0]
    root_agg = agg[0]
    if root_label >= 0 and root_agg is not None:
        count_vertical(root_label, root_agg)
    if pending:
        _count_elements(counts, pending)
    return counts


def _sweep_nodes(
    arena: TreeArena, params: MiningParams
) -> Iterator[tuple[int, int, int, int]]:
    """Node-level twin of :func:`_sweep_packed`.

    Yields ``(index_u, index_v, lca_index, half_steps)`` for every
    concrete cousin pair (arena indexes; ``index_u`` from the
    later-folded subtree).  Strata hold lists of labeled node indexes
    instead of label-count dicts; the structure of the sweep — prefix
    crossing, small-to-large merging, first-child adoption — is
    identical.
    """
    max_level = params.max_level
    n = len(arena.parent)
    if n < 2 or max_level == 0:
        return
    parent = arena.parent.tolist()
    label = arena.label.tolist()
    rows = _cross_rows(params, shift=0)
    row_own = rows[1]
    agg: list[list | None] = [None] * n
    top = max_level - 1
    for i in range(n - 1, 0, -1):
        p = parent[i]
        lab = label[i]
        sub = agg[i]
        pagg = agg[p]
        if pagg is None:
            if sub is None:
                vec: list = [None] * max_level
                if lab >= 0:
                    vec[0] = [i]
            else:
                agg[i] = None
                vec = sub
                vec.insert(0, [i] if lab >= 0 else None)
                vec.pop()
            agg[p] = vec
            continue
        if lab >= 0:
            for depth_r, half_steps in row_own:
                other = pagg[depth_r]
                if other:
                    for index_v in other:
                        yield i, index_v, p, half_steps
        if sub is not None:
            agg[i] = None
            for d in range(top):
                stratum = sub[d]
                if stratum:
                    for depth_r, half_steps in rows[d + 2]:
                        other = pagg[depth_r]
                        if other:
                            for index_u in stratum:
                                for index_v in other:
                                    yield index_u, index_v, p, half_steps
        if lab >= 0:
            target = pagg[0]
            if target is None:
                pagg[0] = [i]
            else:
                target.append(i)
        if sub is not None:
            for d in range(top):
                stratum = sub[d]
                if stratum:
                    target = pagg[d + 1]
                    if target is None:
                        pagg[d + 1] = stratum
                    else:
                        if len(target) < len(stratum):
                            target, stratum = stratum, target
                            pagg[d + 1] = target
                        target.extend(stratum)


def iter_pair_indexes(
    arena: TreeArena, params: MiningParams
) -> Iterator[tuple[int, int, int, int]]:
    """Every concrete cousin pair as arena indexes, with its LCA.

    Yields ``(index_u, index_v, lca_index, half_steps)`` where
    ``distance = half_steps / 2``.  This is the form the weighted
    miner consumes: it already carries the least common ancestor, so
    no per-pair LCA query is needed downstream.
    """
    return _sweep_nodes(arena, params)


def enumerate_cousin_pairs(
    tree: Tree,
    maxdist: float = 1.5,
    max_generation_gap: int = 1,
    max_height: int | None = None,
) -> Iterator[CousinPair]:
    """Yield every concrete cousin pair (by node ids) up to ``maxdist``.

    Drop-in replacement for
    :func:`repro.core.single_tree.enumerate_cousin_pairs`: the same
    set of pairs, each yielded exactly once with ``id_a < id_b``
    (yield *order* may differ; both ends are order-agnostic).
    """
    params = _params(maxdist, 1, max_generation_gap, max_height)
    arena = TreeArena.from_tree(tree)
    node_ids = arena.node_ids
    label = arena.label
    labels = arena.table.labels
    for index_u, index_v, _lca, half_steps in _sweep_nodes(arena, params):
        id_u = node_ids[index_u]
        id_v = node_ids[index_v]
        if id_u < id_v:
            yield CousinPair(
                id_a=id_u,
                id_b=id_v,
                label_a=labels[label[index_u]],
                label_b=labels[label[index_v]],
                distance=half_steps / 2.0,
            )
        else:
            yield CousinPair(
                id_a=id_v,
                id_b=id_u,
                label_a=labels[label[index_v]],
                label_b=labels[label[index_u]],
                distance=half_steps / 2.0,
            )
