"""Interned whole-batch cousin-pair mining kernel.

This module re-implements ``Single_Tree_Mining`` (Fig 3) over the
compact :class:`~repro.trees.arena.TreeArena` representation, for a
whole batch of trees in one numpy pass.  It produces bit-for-bit the
same results as the reference implementation in
:mod:`repro.core.single_tree` (enforced by the differential suites in
``tests/property``).

Fig 3 is one rule: count the label pairs that sit at most
``max_level`` levels below a common ancestor ``w``, in different child
subtrees of ``w``.  The kernel applies it as one pair enumeration over
the concatenated preorder columns of the batch:

1. **Entries.**  Every labeled node ``u`` and every depth
   ``d <= max_level`` that ``u`` has an ancestor at gives one entry
   ``(w = ancestor_d(u), branch = ancestor_{d-1}(u), d)``: ``d``
   gathers through the parent column.
2. **One sort.**  The entries are sorted by ``(d, w, u)`` packed into
   one integer.  The entries ``d`` levels below ``w`` form one run, and
   as every subtree is one preorder run, that run is cut into one
   sub-run per child subtree (branch) of ``w``.
3. **Partner ranges.**  A cousin pair is ``u`` at depth ``dl`` and
   ``v`` at depth ``dr`` below their LCA ``w``, in different branches.
   For every admissible ``(dl, dr)`` with ``dl <= dr`` at once, an
   entry at depth ``dl`` finds its partners in the ``(dr, w)`` run as
   contiguous index ranges: the branches before its own when
   ``dl == dr`` (so each unordered pair is found once), every branch
   but its own otherwise.  Dense tables map each group and branch to
   its run of entries, so one gather finds each range end.
4. **Keys.**  The ranges expand (``repeat``/``arange``) into one row
   per concrete pair, keyed by one packed integer::

       key = (half_steps << 42) | (label_a_id << 21) | label_b_id

   where ``half_steps = int(2 * distance)`` and ``label_a_id <=
   label_b_id``.  Label tables assign ids in sorted order, so id order
   is label order and canonicalising the pair is a ``minimum`` and a
   ``maximum``.  One sort and a run-length pass over ``(tree << k) |
   key`` give every tree's sorted row of distinct keys and counts.

Work is two sorts, of the entries (labeled nodes times ``max_level``)
and of the pairs; no step recurses or loops per node.  The rows expand
in chunks of at most :data:`_CHUNK_ROWS` (plus one partner range), each
reduced before the next, so a wide polytomy whose leaves share one
label costs memory in its distinct keys, not in its quadratic pairs.
The §6 free-tree miner (:func:`free_path_counts`) runs on the same
enumeration with path-length codes, and :func:`iter_pair_indexes`
returns the concrete pairs themselves.

The string-keyed boundary (``Counter`` objects,
:class:`~repro.core.cousins.CousinPairItem`) is materialised only on
request via :class:`PackedCounts`, so the engine and the pair store
handle the interned arrays.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.core.cousins import CousinPair, CousinPairItem, distance_from_heights
from repro.core.params import MiningParams, validate_minoccur
from repro.errors import ArenaError
from repro.obs.context import get_registry, get_tracer
from repro.trees.arena import LabelTable, TreeArena, find_label
from repro.trees.packing import (
    DIST_SHIFT,
    HALF_STEP_BITS,
    LABEL_BITS,
    LABEL_MASK,
    PAIR_MASK,
)
from repro.trees.tree import Tree

__all__ = [
    "PackedCounts",
    "mine_arena",
    "mine_arenas",
    "mine_tree",
    "enumerate_cousin_pairs",
    "iter_pair_indexes",
]

_LABEL_MASK = LABEL_MASK
_DIST_SHIFT = DIST_SHIFT
_KEY_BITS = DIST_SHIFT + HALF_STEP_BITS
"""Width of a packed key: the tree index of a batch row sits above it."""

_CHUNK_ROWS = 1 << 19
"""Pair rows expanded between two reductions (about 4 MB per column)."""


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


class _Table(NamedTuple):
    """The admissible height pairs of one parameter set, one row each."""

    depth: np.ndarray  # dl
    lift: np.ndarray  # dr - dl
    code: np.ndarray  # half_steps << 42
    width: int  # bits of the largest key
    levels: int  # the deepest admissible dr


def _levels(params: MiningParams, nodes: int) -> int:
    """The deepest height below an LCA worth enumerating for trees of
    at most ``nodes`` nodes.

    No pair sits deeper below its LCA than the trees are tall, and a
    tree is shorter than its node count, so a huge ``maxdist`` costs
    the trees' height, not its own.  The bound is rounded up to a power
    of two, so batches of similar trees share one cached table.
    """
    return min(params.max_level, 1 << max(nodes, 1).bit_length())


@lru_cache(maxsize=64)
def _cousin_table(params: MiningParams, max_level: int) -> _Table:
    """One row per ``(dl, dr)`` with ``dl <= dr <= max_level`` that
    passes ``params.admits_heights`` — the entire distance logic,
    hoisted out of the enumeration — lifted rows first
    (:meth:`_Entries.partners`).  ``max_level`` is :func:`_levels`.
    """
    gap = params.max_generation_gap
    rows = sorted(
        (
            (left, right - left, int(2 * distance_from_heights(left, right, gap)))
            for left in range(1, max_level + 1)
            for right in range(left, min(left + gap, max_level) + 1)
            if params.admits_heights(left, right)
        ),
        key=lambda row: row[1] == 0,
    )
    table = np.array(rows, np.int64).reshape(-1, 3)
    table[:, 2] <<= _DIST_SHIFT
    table.flags.writeable = False  # every caller shares the cached table
    depth, lift, code = table.T
    width = _DIST_SHIFT + int(code.max(initial=0) >> _DIST_SHIFT).bit_length()
    return _Table(depth, lift, code, width, int((depth + lift).max(initial=0)))


class _Entries:
    """The sorted ``(depth, lca, branch)`` entries of labeled nodes.

    ``link`` and ``label`` are a batch's columns (:func:`_columns`).
    Entry ``i`` is labeled node ``node[i]`` seen from
    its ancestor ``depth`` levels up (its LCA with a partner), coded
    as ``group[i] = depth << bits | lca`` and ``branch[i] = depth <<
    bits | child`` for the LCA's child above the node, where every
    node index fits in ``bits``.  Entries are sorted by ``(depth, lca,
    node)``: each group is one run, and as a subtree is one preorder
    run, each group is cut into one sub-run per branch.
    ``bounds[d - 1]:bounds[d]`` are the entries at depth ``d``, and
    ``spans`` maps a group or branch code, less ``1 << bits``, to the
    ``[first, last)`` entries of its run (``-1`` when it has none).
    """

    __slots__ = ("bits", "group", "branch", "node", "bounds", "spans")

    def __init__(self, link: np.ndarray, label: np.ndarray, levels: int) -> None:
        bits = self.bits = label.size.bit_length()
        labeled = (label >= 0).nonzero()[0]
        up = np.empty((levels + 1, labeled.size), np.int64)
        up[0] = labeled
        for depth in range(levels):
            link.take(up[depth], out=up[depth + 1])
        depths = np.arange(1, levels + 1, dtype=np.int64)[:, None] << bits
        key = (((up[1:] | depths) << bits) | up[0])[up[1:] >= 0]
        key.sort()
        mask = (1 << bits) - 1
        self.node = key & mask
        self.group = key >> bits
        depth = self.group >> bits
        rank = np.empty(label.size, np.int64)
        rank[labeled] = np.arange(labeled.size)
        child = up[:-1].ravel()[(depth - 1) * labeled.size + rank[self.node]]
        self.branch = (depth << bits) | child
        self.bounds = self.group.searchsorted(
            np.arange(1, levels + 2, dtype=np.int64) << bits
        )
        # rows: first and last entry per group code, then per branch code
        self.spans = spans = np.full((4, levels << bits), -1, np.int32)
        for row, codes in ((0, self.group), (2, self.branch)):
            edges = _edges(codes)
            cells = codes[edges[:-1]] - (1 << bits)
            spans[row, cells] = edges[:-1]
            spans[row + 1, cells] = edges[1:]

    def lca(self, entries: np.ndarray) -> np.ndarray:
        """The LCA (ancestor) node of each of ``entries``."""
        return self.group[entries] & ((1 << self.bits) - 1)

    def depth(self, entries: np.ndarray) -> np.ndarray:
        """How far each of ``entries`` sits below its LCA."""
        return self.group[entries] >> self.bits

    def partners(
        self, start: np.ndarray, stop: np.ndarray, lift: np.ndarray, code: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Partner ranges of the entries of each segment.

        Segment ``s`` covers the entries ``start[s]:stop[s]`` (of one
        depth) and pairs each with the entries ``lift[s]`` levels
        deeper under the same LCA, in other branches — the branches
        before its own when ``lift[s] == 0``.  Segments with a lift come
        first, so the ranges after an entry's own branch, which only
        they have, are one prefix.  Returns ``(left, begin, count,
        code)`` per range: entry ``left`` pairs with entries
        ``begin:begin + count``, under the segment's ``code``.
        """
        sizes = stop - start
        lifted = int(sizes[lift > 0].sum())
        left = _aranges(start, sizes)
        # the ``spans`` cells of the target group and branch
        cell = ((lift - 1) << self.bits).repeat(sizes)
        group = self.group[left] + cell
        branch = self.branch[left] + cell
        group_first, group_last, branch_first, branch_last = self.spans
        begin = group_first[group]
        # a target branch without entries splits its group at ``begin``
        own = np.maximum(branch_first[branch], begin)
        after = np.maximum(branch_last[branch[:lifted]], begin[:lifted])
        code = code.repeat(sizes)
        return (
            np.concatenate((left, left[:lifted])),
            np.concatenate((begin, after)),
            np.concatenate((own - begin, group_last[group[:lifted]] - after)),
            np.concatenate((code, code[:lifted])),
        )


def _aranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The concatenated ranges ``start[i]:start[i] + count[i]``."""
    ends = count.cumsum()
    out = (start - ends + count).repeat(count)
    out += np.arange(out.size)
    return out


def _pair_keys(
    label: np.ndarray,
    left: np.ndarray,
    begin: np.ndarray,
    count: np.ndarray,
    code: np.ndarray,
) -> Iterator[np.ndarray]:
    """The packed key of every pair of the ranges, chunk by chunk.

    Entry ``left[i]`` pairs with entries ``begin[i]:begin[i] +
    count[i]`` under ``code[i]``; ``label`` is per entry.  The ranges
    are expanded whole, in chunks of about :data:`_CHUNK_ROWS` rows (a
    range longer than that is one chunk).
    """
    ends = count.cumsum()
    total = int(ends[-1]) if ends.size else 0
    cuts = ends.searchsorted(np.arange(_CHUNK_ROWS, total, _CHUNK_ROWS), "right")
    for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), ends.size]):
        if lo < hi:
            label_rows, right, code_rows = _expand(
                label[left[lo:hi]], begin[lo:hi], count[lo:hi], code[lo:hi]
            )
            yield _pack(code_rows, label_rows, label[right])


def _expand(
    left: np.ndarray, begin: np.ndarray, count: np.ndarray, code: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One row per pair: ``left`` and ``code`` repeated per partner, and
    the partner entries."""
    return left.repeat(count), _aranges(begin, count), code.repeat(count)


def _pack(code: np.ndarray, label_a: np.ndarray, label_b: np.ndarray) -> np.ndarray:
    """Packed keys of unordered label pairs over pre-shifted ``code``."""
    low = np.minimum(label_a, label_b)
    low <<= LABEL_BITS
    low |= code
    low |= np.maximum(label_a, label_b)
    return low


def _edges(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values of the sorted ``keys`` starts,
    then ``keys.size``."""
    head = np.empty(keys.size + 1, bool)
    head[0] = head[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:-1])
    return head.nonzero()[0]


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``keys`` (sorted in place) and their counts."""
    keys.sort()
    edges = _edges(keys)
    return keys[edges[:-1]], edges[1:] - edges[:-1]


def _merge(
    parts: Sequence[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """Sum runs of ``(keys, counts)`` into one sorted run."""
    if len(parts) == 1:
        return parts[0]
    keys = np.concatenate([keys for keys, _ in parts])
    # timsort merges the sorted runs instead of sorting from scratch
    order = keys.argsort(kind="stable")
    keys = keys[order]
    starts = _edges(keys)[:-1]
    counts = np.concatenate([counts for _, counts in parts])[order]
    return keys[starts], np.add.reduceat(counts, starts)


def _reduce(chunks: Iterable[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys and occurrence counts over key chunks.

    Each chunk is reduced on arrival; the partial runs are merged
    whenever they hold more than :data:`_CHUNK_ROWS` keys, so memory
    stays bounded by the distinct keys plus one chunk.
    """
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    held = 0
    for keys in chunks:
        parts.append(_runs(keys))
        held += parts[-1][0].size
        if held > _CHUNK_ROWS:
            parts[:] = [_merge(parts)]
            held = parts[0][0].size
    if not parts:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    return _merge(parts)


def _columns(
    arenas: Sequence[TreeArena],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The batch's concatenated ``link`` and ``label`` columns and each
    node's tree.

    ``link[i]`` is node ``i``'s parent as a batch-wide index, ``-1`` at
    each root, and one more ``-1`` closes the column: a ``-1`` link
    reads it, so every ancestor chain stays ``-1`` past its root.
    """
    sizes = np.array([len(arena.parent) for arena in arenas])
    tree = np.arange(len(arenas)).repeat(sizes)
    first = sizes.cumsum() - sizes
    link = np.empty(tree.size + 1, np.int64)
    np.concatenate([arena.parent for arena in arenas], out=link[:-1])
    link[:-1] += first[tree]
    link[first] = -1  # each tree's root; an empty tree's is the next one's
    link[-1] = -1
    label = np.concatenate([arena.label for arena in arenas], dtype=np.int64)
    return link, label, tree


def _cousin_ranges(
    entries: _Entries, table: _Table
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every cousin pair's partner ranges, coded by ``half_steps``."""
    bounds = entries.bounds
    return entries.partners(
        bounds[table.depth - 1], bounds[table.depth], table.lift, table.code
    )


class PackedCounts:
    """Interned mining result: sorted packed keys, counts, label table.

    This is what the kernel produces and what a pair store persists —
    materialising string-keyed :class:`~collections.Counter` objects or
    :class:`~repro.core.cousins.CousinPairItem` lists only at the
    boundary via :meth:`to_counter` / :meth:`items`.

    ``keys`` is a strictly increasing ``int64`` array in the module's
    packed format, ``(half_steps << 42) | (label_a_id << 21) |
    label_b_id`` with ``label_a_id <= label_b_id`` and ``distance =
    half_steps / 2``; ``counts`` holds each key's occurrences.  Both are
    read-only: consumers share them.  ``labels`` is the
    sorted label tuple of the :class:`~repro.trees.arena.LabelTable`
    the ids refer to.
    """

    __slots__ = ("labels", "keys", "counts")

    def __init__(
        self, labels: Sequence[str], keys: np.ndarray, counts: np.ndarray
    ) -> None:
        self.labels = tuple(labels)
        # read-only views: the caller's own arrays stay writeable
        self.keys = np.asarray(keys, np.int64).view()
        self.counts = np.asarray(counts, np.int64).view()
        self.keys.flags.writeable = False
        self.counts.flags.writeable = False

    def __len__(self) -> int:
        return self.keys.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedCounts):
            return NotImplemented
        return (
            self.labels == other.labels
            and np.array_equal(self.keys, other.keys)
            and np.array_equal(self.counts, other.counts)
        )

    def __reduce__(self):
        return (PackedCounts, (self.labels, self.keys, self.counts))

    def label_ids(self) -> np.ndarray:
        """The sorted distinct label ids that the keys use.

        No Python work per entry of ``labels``: a tree read from a
        forest carries the whole forest's label tuple.
        """
        return _used_ids(self.keys, len(self.labels))

    def labels_used(self) -> list[str]:
        """The labels that the keys use, in sorted order."""
        labels = self.labels
        return [labels[index] for index in self.label_ids().tolist()]

    def total_occurrences(self) -> int:
        """Sum of all occurrence counts."""
        return int(self.counts.sum())

    def _decoded(self, minoccur: int) -> tuple[Iterable, ...]:
        """The kept keys' ``label_a``, ``label_b``, ``distance`` and
        count columns."""
        keys, counts = self.keys, self.counts
        if validate_minoccur(minoccur) > 1:
            keep = counts >= minoccur
            keys, counts = keys[keep], counts[keep]
        labels = self.labels.__getitem__
        return (
            map(labels, ((keys >> LABEL_BITS) & _LABEL_MASK).tolist()),
            map(labels, (keys & _LABEL_MASK).tolist()),
            ((keys >> _DIST_SHIFT) / 2.0).tolist(),
            counts.tolist(),
        )

    def to_counter(self) -> Counter:
        """A fresh string-keyed ``Counter`` equal to the reference's.

        Keys are ``(label_a, label_b, distance)`` with sorted labels
        and a float distance — byte-identical to
        :func:`repro.core.single_tree.mine_tree_counter`.
        """
        return self.filtered_counter(1)

    def filtered_counter(self, minoccur: int) -> Counter:
        """Like :meth:`to_counter` but dropping counts below ``minoccur``."""
        *item, counts = self._decoded(minoccur)
        out: Counter = Counter()
        # keys are unique post-decode, so plain dict.update (C speed)
        # beats Counter.update's per-item Python loop
        dict.update(out, zip(zip(*item), counts))
        return out

    def items(self, minoccur: int = 1) -> list[CousinPairItem]:
        """Qualifying :class:`CousinPairItem` records, sorted.

        Matches :func:`repro.core.single_tree.mine_tree` item-for-item.
        """
        result = list(map(CousinPairItem, *self._decoded(minoccur)))
        result.sort()
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PackedCounts({self.keys.size} keys, {len(self.labels)} labels)"


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
    on ``table`` keep their ids (and the arrays are returned as they
    are); others are re-interned by :func:`_remap_keys`.  ``table`` may
    be a bare sorted label tuple.
    """
    minoccur = validate_minoccur(minoccur)
    keys, counts = packed.keys, packed.counts
    if minoccur > 1:
        keep = counts >= minoccur
        keys, counts = keys[keep], counts[keep]
    labels = table.labels if isinstance(table, LabelTable) else table
    if labels is not packed.labels and keys.size:
        keys = _remap_keys(keys, packed.labels, table)
    return keys, counts


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


def mine_arenas(
    arenas: Sequence[TreeArena], params: MiningParams
) -> list[PackedCounts]:
    """Mine a batch of flattened trees into interned packed counts.

    This is the engine-facing entry point: one pair enumeration over
    the batch's concatenated columns, never touching label strings, so
    the results can be persisted and shipped across processes as-is.  The
    arenas may carry different label tables; each result carries its
    arena's.  ``params.minoccur``/``minsup`` are not applied here —
    filtering happens at the boundary, as in the reference.

    One ``fastmine.sweep`` span per call (so a disabled tracer costs two
    clock reads per *batch*); the ambient registry counts trees, nodes
    and emitted keys.
    """
    sizes = [len(arena.parent) for arena in arenas]
    table = _cousin_table(params, _levels(params, max(sizes, default=0)))
    # the tree index of a batch row must fit above its key
    group = 1 << (_KEY_BITS - table.width)
    with get_tracer().span(
        "fastmine.sweep", metric="fastmine.sweep.seconds", trees=len(arenas)
    ):
        mined = [
            result
            for start in range(0, len(arenas), group)
            for result in _mine_batch(arenas[start:start + group], table)
        ]
    registry = get_registry()
    registry.counter("fastmine.trees").add(len(arenas))
    registry.counter("fastmine.nodes").add(sum(sizes))
    registry.counter("fastmine.keys").add(sum(len(result) for result in mined))
    return mined


def _mine_batch(arenas: Sequence[TreeArena], table: _Table) -> list[PackedCounts]:
    """:func:`mine_arenas` over trees whose index fits above the keys."""
    width = table.width
    link, label, tree = _columns(arenas)
    entries = _Entries(link, label, table.levels)
    left, begin, count, code = _cousin_ranges(entries, table)
    code |= tree[entries.node[left]] << width
    keys, counts = _reduce(
        _pair_keys(label[entries.node], left, begin, count, code)
    )
    bounds = (keys >> width).searchsorted(np.arange(len(arenas) + 1)).tolist()
    keys &= (1 << width) - 1
    return [
        PackedCounts(arena.table.labels, keys[lo:hi], counts[lo:hi])
        for arena, lo, hi in zip(arenas, bounds, bounds[1:])
    ]


def mine_arena(arena: TreeArena, params: MiningParams) -> PackedCounts:
    """Mine one flattened tree: :func:`mine_arenas` of a one-tree batch."""
    return mine_arenas([arena], params)[0]


def mine_tree(
    tree: Tree,
    maxdist: float = 1.5,
    minoccur: int = 1,
    max_generation_gap: int = 1,
    max_height: int | None = None,
) -> list[CousinPairItem]:
    """Find all qualifying cousin pair items of one tree.

    Drop-in replacement for :func:`repro.core.single_tree.mine_tree`;
    see that function for the parameter semantics.  The per-tree
    convenience behind ``repro.mine_tree``: forests go through
    :func:`repro.core.multi_tree.mine_forest` or the engine, which mine
    the whole batch in one :func:`mine_arenas` call.
    """
    params = _params(maxdist, minoccur, max_generation_gap, max_height)
    return mine_arena(TreeArena.from_tree(tree), params).items(params.minoccur)


def free_path_counts(
    arena: TreeArena, limit: int, artificial_root: bool
) -> PackedCounts:
    """Path-length pair counts for Section 6 free-tree mining.

    ``arena`` is the flattened rooted form produced by
    :meth:`repro.core.freetree.FreeTree.to_rooted` — when
    ``artificial_root`` is true, preorder index 0 is the unlabeled
    planted root and every path through it gained one edge (Eq. 10),
    so pairs whose LCA it is have path length ``dl + dr - 1`` instead
    of ``dl + dr``.  Pairs are keyed in this module's packed format
    with ``half_steps = path - 2`` (Eq. 7: ``cdist = (m - 2) / 2``);
    paths shorter than 2 edges (adjacent nodes, and the planted root's
    split edge) are excluded.  Besides the pairs across branches, each
    labeled node pairs with its labeled ancestor ``m`` levels up, for
    ``2 <= m <= limit`` (the rooted miner's "vertical" pairs).

    The enumeration is :func:`mine_arenas`' with path-length codes in
    the ``(dl, dr)`` table, and its own rows for the planted root.
    """
    get_registry().counter("fastmine.free_sweeps").add(1)
    link, label, _tree = _columns([arena])
    entries = _Entries(link, label, limit)
    levels = range(1, limit + 1)
    # (dl, dr - dl, path - 2, 1 when the LCA is the planted root),
    # lifted rows first
    rows = sorted(
        (
            (left, right - left, left + right - 2 - root, root)
            for root in range(1 + artificial_root)
            for left in levels
            for right in levels
            if left <= right and 2 + root <= left + right <= limit + root
        ),
        key=lambda row: row[1] == 0,
    )
    depth, lift, half_steps, planted = np.array(rows, np.int64).reshape(-1, 4).T
    bounds = entries.bounds
    # Entries under the planted root (index 0) open each depth's run.
    split = bounds[:-1]
    if artificial_root:
        split = entries.group.searchsorted(
            (np.arange(1, limit + 1) << entries.bits) + 1
        )
    left, begin, count, code = entries.partners(
        np.where(planted == 1, bounds[depth - 1], split[depth - 1]),
        np.where(planted == 1, split[depth - 1], bounds[depth]),
        lift,
        half_steps << _DIST_SHIFT,
    )
    # Vertical pairs: entries m >= 2 levels below a labeled ancestor.
    vertical = np.arange(bounds[min(1, limit)], bounds[-1])
    ancestor = label[entries.lca(vertical)]
    vertical = vertical[ancestor >= 0]
    vertical_keys = _pack(
        (entries.depth(vertical) - 2) << _DIST_SHIFT,
        ancestor[ancestor >= 0],
        label[entries.node[vertical]],
    )
    keys, counts = _reduce(
        chain(
            [vertical_keys],
            _pair_keys(label[entries.node], left, begin, count, code),
        )
    )
    return PackedCounts(arena.table.labels, keys, counts)


def iter_pair_indexes(
    arena: TreeArena, params: MiningParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every concrete cousin pair as arena indexes, with its LCA.

    Returns the arrays ``(index_u, index_v, lca_index, half_steps)``,
    one entry per pair, where ``distance = half_steps / 2``.  This is
    the form the weighted miner consumes: it already carries the least
    common ancestor, so no per-pair LCA query is needed downstream.
    """
    table = _cousin_table(params, _levels(params, len(arena.parent)))
    link, label, _tree = _columns([arena])
    entries = _Entries(link, label, table.levels)
    left, begin, count, code = _cousin_ranges(entries, table)
    left, right, code = _expand(left, begin, count, code)
    return (
        entries.node[left],
        entries.node[right],
        entries.lca(left),
        code >> _DIST_SHIFT,
    )


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
    index_u, index_v, _lca, half_steps = iter_pair_indexes(arena, params)
    for one, other, steps in zip(
        index_u.tolist(), index_v.tolist(), half_steps.tolist()
    ):
        if node_ids[one] > node_ids[other]:
            one, other = other, one
        yield CousinPair(
            id_a=node_ids[one],
            id_b=node_ids[other],
            label_a=labels[label[one]],
            label_b=labels[label[other]],
            distance=steps / 2.0,
        )
