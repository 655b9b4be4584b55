"""``Multiple_Tree_Mining``: frequent cousin pairs across a forest.

Section 2 of the paper defines the *support* of a cousin pair
``(u, v)`` with respect to a distance value ``d`` as the number of
trees in the database containing at least one occurrence of the pair at
that distance; a pair is *frequent* when its support reaches the
user-specified ``minsup``.  Section 3 describes the procedure: mine
every tree individually, then count the trees in which each qualifying
item occurs — ``O(k * n^2)`` for ``k`` trees of at most ``n`` nodes.

Distances can be ignored ("``*``" in the paper's notation) so that
support counts trees containing the label pair at *any* distance.

The counting step is written once, as the vectorised kernel
:func:`aggregate_rows` over per-tree packed-key rows.  Every producer
of frequent pairs feeds it: :func:`mine_forest` (directly, or through
:meth:`~repro.engine.MiningEngine.frequent_pairs`),
:class:`~repro.engine.delta.VersionedCorpus` and
:class:`~repro.store.PairStore`.  :func:`pattern_order` is the one
order patterns are listed in.  The dict-loop form of the same step,
over Fig 3 items, is kept only as the test oracle
:func:`repro.core.reference.mine_forest_reference`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.fastmine import (
    PackedCounts,
    _collapse_pairs,
    _remap_packed,
    mine_arenas,
    shared_labels,
)
from repro.core.params import MiningParams, validate_minoccur, validate_minsup
from repro.obs.context import get_tracer
from repro.trees.arena import LabelTable, TreeLike, forest_arenas
from repro.trees.newick import format_label
from repro.trees.packing import DIST_SHIFT, LABEL_BITS, LABEL_MASK, PAIR_MASK

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.engine import MiningEngine

__all__ = [
    "FrequentCousinPair",
    "aggregate_packed",
    "aggregate_rows",
    "mine_forest",
    "pattern_order",
    "support",
]


@dataclass(frozen=True)
class FrequentCousinPair:
    """A frequent cousin pair found across a tree database.

    Attributes
    ----------
    label_a, label_b:
        The unordered label pair (sorted, ``label_a <= label_b``).
    distance:
        The cousin distance this support count refers to, or ``None``
        when distances were ignored (the paper's ``*``).
    support:
        Number of trees containing the pair (at the distance, when one
        is specified) with at least ``minoccur`` occurrences.
    tree_indexes:
        Positions (into the input sequence) of the supporting trees —
        the information needed to highlight the pattern in the source
        phylogenies as in Figure 8 of the paper.
    total_occurrences:
        Sum of the pair's occurrence counts over the supporting trees.
    """

    label_a: str
    label_b: str
    distance: float | None
    support: int
    tree_indexes: tuple[int, ...] = field(compare=False)
    total_occurrences: int = field(compare=False, default=0)

    def describe(self) -> str:
        """One-line rendering used by reports and the CLI; labels are
        quoted as Newick quotes them."""
        where = (
            f"distance {self.distance:g}" if self.distance is not None else "any distance"
        )
        pair = f"{format_label(self.label_a)}, {format_label(self.label_b)}"
        return (
            f"({pair}) at {where}: "
            f"support {self.support} "
            f"(trees {', '.join(str(i) for i in self.tree_indexes)})"
        )


def pattern_order(pair: FrequentCousinPair) -> tuple:
    """The canonical order of frequent patterns, as a sort key.

    Descending support, then labels, then distance (``None`` — the
    distance-free ``*`` — sorts as ``-1``).  Every caller that lists
    patterns orders them with this key.
    """
    return (
        -pair.support,
        pair.label_a,
        pair.label_b,
        pair.distance if pair.distance is not None else -1.0,
    )


def aggregate_rows(
    labels: Sequence[str],
    key_rows: Sequence[np.ndarray],
    count_rows: Sequence[np.ndarray],
    *,
    minoccur: int,
    minsup: int,
    ignore_distance: bool,
) -> list[FrequentCousinPair]:
    """Section 3's counting step: the frequent pairs of per-tree rows.

    ``key_rows[i]`` / ``count_rows[i]`` are tree ``i``'s sorted full
    packed keys (:mod:`repro.trees.packing`) and their occurrence
    counts at the ``minoccur=1`` level, all interned on the one sorted
    label table ``labels``.  When distances are ignored each row is
    first collapsed onto label pairs (occurrences summed across
    distances), then counts below ``minoccur`` are masked, equal keys
    grouped with one stable sort — so each group's supporters come out
    in tree order — and groups of at least ``minsup`` trees become
    :class:`FrequentCousinPair` records in :func:`pattern_order`.
    """
    minoccur = validate_minoccur(minoccur)
    minsup = validate_minsup(minsup)
    if ignore_distance:
        collapsed = [
            _collapse_pairs(keys, counts)
            for keys, counts in zip(key_rows, count_rows)
        ]
        key_rows = [keys for keys, _ in collapsed]
        count_rows = [counts for _, counts in collapsed]
    sizes = [len(keys) for keys in key_rows]
    if not sum(sizes):
        return []
    keys = np.concatenate(key_rows)
    counts = np.concatenate(count_rows)
    owners = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    if minoccur > 1:
        keep = counts >= minoccur
        keys = keys[keep]
        counts = counts[keep]
        owners = owners[keep]
        if not keys.size:
            # np.add.reduceat rejects an empty array.
            return []
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    supports = np.diff(np.append(starts, keys.size))
    totals = np.add.reduceat(counts[order], starts)
    frequent = supports >= minsup
    # Only the supporters of frequent groups become Python ints, laid
    # out group after group, so each group ends at the running total
    # of the group sizes.
    supporters = owners[order][np.repeat(frequent, supports)].tolist()
    sizes = supports[frequent]
    # Positional fields (label_a, label_b, distance, support,
    # tree_indexes, total_occurrences): the records are the hot part.
    results = [
        FrequentCousinPair(
            labels[(key >> LABEL_BITS) & LABEL_MASK],
            labels[key & LABEL_MASK],
            None if ignore_distance else (key >> DIST_SHIFT) / 2.0,
            size,
            tuple(supporters[end - size : end]),
            total,
        )
        for key, size, end, total in zip(
            keys[starts[frequent]].tolist(),
            sizes.tolist(),
            np.cumsum(sizes).tolist(),
            totals[frequent].tolist(),
        )
    ]
    results.sort(key=pattern_order)
    return results


def aggregate_packed(
    packed: Sequence[PackedCounts],
    *,
    minoccur: int,
    minsup: int,
    ignore_distance: bool,
    table: LabelTable | None = None,
) -> list[FrequentCousinPair]:
    """:func:`aggregate_rows` over per-tree kernel output.

    ``packed`` may share one label tuple (the slices of one forest
    arena; ``table``, when given, is its table) — then ids pass
    through with no table built and no remap — or carry several
    (pointer trees the engine flattened one by one), which are
    re-interned onto their merged, sorted universe.  One
    ``multi_tree.aggregate`` span covers the call.
    """
    with get_tracer().span("multi_tree.aggregate", trees=len(packed)):
        if table is None:
            table = shared_labels(packed)
        rows = [_remap_packed(counts, table, 1) for counts in packed]
        return aggregate_rows(
            table.labels if isinstance(table, LabelTable) else table,
            [keys for keys, _ in rows],
            [counts for _, counts in rows],
            minoccur=minoccur,
            minsup=minsup,
            ignore_distance=ignore_distance,
        )


def mine_forest(
    trees: Sequence[TreeLike],
    maxdist: float = 1.5,
    minoccur: int = 1,
    minsup: int = 2,
    ignore_distance: bool = False,
    max_generation_gap: int = 1,
    max_height: int | None = None,
    engine: "MiningEngine | None" = None,
) -> list[FrequentCousinPair]:
    """Find all frequent cousin pairs in a database of trees.

    Parameters
    ----------
    trees:
        The tree database (the paper's set ``S``).
    maxdist, minoccur, minsup:
        The Table 2 parameters; see :class:`repro.core.params.MiningParams`.
    ignore_distance:
        When true, a tree supports a label pair if the pair occurs as
        cousins at *any* distance up to ``maxdist`` (occurrences summed
        across distances for the ``minoccur`` test), and results carry
        ``distance=None``.
    max_generation_gap:
        Generation-gap cut-off forwarded to the single-tree miner.
    max_height:
        Optional horizontal limit forwarded to the single-tree miner
        (see :class:`repro.core.params.MiningParams`).
    engine:
        Optional :class:`repro.engine.MiningEngine`; when given, the
        per-tree mining phase runs as one of its batches
        (:meth:`~repro.engine.MiningEngine.frequent_pairs`), counted in
        its stats.  Results are identical to the serial path (enforced
        by the equivalence suite in ``tests/engine``).

    Returns
    -------
    list[FrequentCousinPair]
        In :func:`pattern_order`: descending support, then labels,
        then distance.
    """
    params = MiningParams(
        maxdist=maxdist,
        minoccur=minoccur,
        minsup=minsup,
        max_generation_gap=max_generation_gap,
        max_height=max_height,
    )
    if engine is not None:
        return engine.frequent_pairs(
            trees, params, ignore_distance=ignore_distance
        )
    # Phase 1 mines every tree at minoccur=1 against one shared label
    # table; phase 2 (the kernel) applies every threshold.
    table, arenas = forest_arenas(trees)
    return aggregate_packed(
        mine_arenas(arenas, params),
        minoccur=params.minoccur,
        minsup=params.minsup,
        ignore_distance=ignore_distance,
        table=table,
    )


def support(
    trees: Sequence[TreeLike],
    label_a: str,
    label_b: str,
    distance: float | None = None,
    maxdist: float = 1.5,
    minoccur: int = 1,
    max_generation_gap: int = 1,
    max_height: int | None = None,
) -> int:
    """The support of one label pair, per the paper's definition.

    ``distance=None`` ignores distances (the paper's example: the
    support of (b, e) is 3 when distances are ignored but 2 with
    respect to distance 1).  The forest is mined in one
    :func:`~repro.core.fastmine.mine_arenas` batch, and each tree's
    occurrences of the pair are read off its packed keys.
    """
    minoccur = validate_minoccur(minoccur)
    params = MiningParams(
        maxdist=maxdist,
        minoccur=1,
        minsup=1,
        max_generation_gap=max_generation_gap,
        max_height=max_height,
    )
    table, arenas = forest_arenas(trees)
    low, high = sorted(table.find_many([label_a, label_b]).tolist())
    mask, want = PAIR_MASK, (low << LABEL_BITS) | high
    if distance is not None:
        steps = 2 * distance
        if not 0 <= steps <= 2 * params.maxdist or steps != int(steps):
            low = -1  # off the half-step grid or past maxdist
        else:
            mask, want = -1, want | (int(steps) << DIST_SHIFT)
    if low < 0:
        want = -1  # no packed key matches: no tree holds the pair
    count = 0
    for packed in mine_arenas(arenas, params):
        occurrences = int(packed.counts[(packed.keys & mask) == want].sum())
        if occurrences >= minoccur:
            count += 1
    return count
