"""Diffing mining results between two database snapshots.

TreeBASE grows: studies are added, trees revised.  When the paper's
mining is rerun on a new snapshot, the interesting output is rarely
the full pattern list — it is what *changed*: patterns that newly
crossed the support threshold, patterns that fell below it, and
patterns whose support moved.  This module computes that delta from
two frequent-pattern lists (or directly from two forests).

Forest-level diffs additionally report a single *snapshot distance*:
the Section 5.3 cousin distance between the two snapshots' aggregated
cousin-pair collections, computed on the packed vector kernel
(:meth:`repro.core.distvec.DistanceVectors.from_packed`) — 0.0 for
identical mining output, approaching 1.0 as the snapshots diverge.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.fastmine import (
    PackedCounts,
    _remap_packed,
    mine_arenas,
    shared_labels,
)
from repro.core.multi_tree import (
    FrequentCousinPair,
    aggregate_packed,
    pattern_order,
)
from repro.core.params import DistanceMode, MiningParams, validate_mode
from repro.obs.context import get_tracer
from repro.trees.arena import LabelTable, TreeLike, forest_arenas
from repro.trees.newick import format_label

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.engine import MiningEngine

__all__ = ["PatternDiff", "diff_patterns", "diff_forests"]

_Key = tuple[str, str, float | None]


def _keyed(patterns: Sequence[FrequentCousinPair]) -> dict[_Key, FrequentCousinPair]:
    return {
        (pattern.label_a, pattern.label_b, pattern.distance): pattern
        for pattern in patterns
    }


@dataclass(frozen=True)
class PatternDiff:
    """The delta between two frequent-pattern snapshots.

    Attributes
    ----------
    gained:
        Patterns frequent in the new snapshot only.
    lost:
        Patterns frequent in the old snapshot only.
    changed:
        ``(old, new)`` pairs for patterns frequent in both but with a
        different support or total occurrence count.
    unchanged:
        Patterns identical in both snapshots (support and totals).
    snapshot_distance:
        Cousin distance between the snapshots' aggregated pair
        collections, set by :func:`diff_forests`; ``None`` for
        pattern-list diffs, which lack the raw counts.
    """

    gained: tuple[FrequentCousinPair, ...]
    lost: tuple[FrequentCousinPair, ...]
    changed: tuple[tuple[FrequentCousinPair, FrequentCousinPair], ...]
    unchanged: tuple[FrequentCousinPair, ...] = field(repr=False)
    snapshot_distance: float | None = None

    @property
    def is_empty(self) -> bool:
        """Whether the two snapshots agree completely."""
        return not (self.gained or self.lost or self.changed)

    def describe(self) -> str:
        """A readable multi-line summary of the delta."""
        lines = [
            f"{len(self.gained)} gained, {len(self.lost)} lost, "
            f"{len(self.changed)} changed, {len(self.unchanged)} unchanged"
        ]
        for pattern in self.gained:
            lines.append(f"  + {pattern.describe()}")
        for pattern in self.lost:
            lines.append(f"  - {pattern.describe()}")
        for old, new in self.changed:
            pair = f"{format_label(old.label_a)}, {format_label(old.label_b)}"
            lines.append(
                f"  ~ ({pair}) "
                f"support {old.support} -> {new.support}, "
                f"occurrences {old.total_occurrences} -> "
                f"{new.total_occurrences}"
            )
        if self.snapshot_distance is not None:
            lines.append(
                f"snapshot distance: {self.snapshot_distance:.6f}"
            )
        return "\n".join(lines)


def diff_patterns(
    old: Sequence[FrequentCousinPair],
    new: Sequence[FrequentCousinPair],
) -> PatternDiff:
    """Compare two frequent-pattern lists by (labels, distance) key.

    Tree indexes are positional and snapshot-local, so only support
    and total occurrences participate in the change test.
    """
    old_by_key = _keyed(old)
    new_by_key = _keyed(new)
    gained = [new_by_key[key] for key in new_by_key.keys() - old_by_key.keys()]
    lost = [old_by_key[key] for key in old_by_key.keys() - new_by_key.keys()]
    changed: list[tuple[FrequentCousinPair, FrequentCousinPair]] = []
    unchanged: list[FrequentCousinPair] = []
    for key in old_by_key.keys() & new_by_key.keys():
        before, after = old_by_key[key], new_by_key[key]
        if (
            before.support != after.support
            or before.total_occurrences != after.total_occurrences
        ):
            changed.append((before, after))
        else:
            unchanged.append(after)

    return PatternDiff(
        gained=tuple(sorted(gained, key=pattern_order)),
        lost=tuple(sorted(lost, key=pattern_order)),
        changed=tuple(sorted(changed, key=lambda pair: pattern_order(pair[1]))),
        unchanged=tuple(sorted(unchanged, key=pattern_order)),
    )


def diff_forests(
    old_trees: Sequence[TreeLike],
    new_trees: Sequence[TreeLike],
    maxdist: float = 1.5,
    minoccur: int = 1,
    minsup: int = 2,
    max_generation_gap: int = 1,
    mode: DistanceMode | str = DistanceMode.DIST_OCCUR,
    engine: "MiningEngine | None" = None,
) -> PatternDiff:
    """Mine both snapshots with identical parameters and diff them.

    Besides the pattern delta, the result carries
    ``snapshot_distance``: the ``mode`` cousin distance between the
    snapshots' aggregated (occurrence-summed) pair collections.  Each
    snapshot is mined once — in one engine batch when an ``engine`` is
    given, with identical output — and its per-tree counts feed both
    the frequent patterns and the snapshot's aggregate collection.
    """
    params = MiningParams(
        maxdist=maxdist,
        minoccur=minoccur,
        minsup=minsup,
        max_generation_gap=max_generation_gap,
    )
    tracer = get_tracer()
    mined: list[list[PackedCounts]] = []
    patterns: list[list[FrequentCousinPair]] = []
    for snapshot, trees in (("old", old_trees), ("new", new_trees)):
        with tracer.span("diff.mine", snapshot=snapshot, trees=len(trees)):
            if engine is not None:
                packed = engine.mine(trees, params)
            else:
                _table, arenas = forest_arenas(trees)
                packed = mine_arenas(arenas, params)
            mined.append(packed)
            patterns.append(
                aggregate_packed(
                    packed,
                    minoccur=params.minoccur,
                    minsup=params.minsup,
                    ignore_distance=False,
                )
            )
    with tracer.span("diff.snapshot_distance"):
        distance = _snapshot_distance(mined, mode)
    with tracer.span("diff.delta"):
        return replace(diff_patterns(*patterns), snapshot_distance=distance)


def _snapshot_distance(
    mined: Sequence[Sequence[PackedCounts]], mode: DistanceMode | str
) -> float:
    """Cousin distance between two snapshots' aggregate collections.

    Each snapshot's per-tree counts (at ``minoccur=1``) are re-interned
    onto the snapshot's one label universe (a no-op for the trees of
    one forest) and summed into one row (``np.unique`` +
    ``np.bincount``); the two summed rows are compared on the packed
    vector kernel exactly like two trees.
    """
    from repro.core.distvec import DistanceVectors

    mode = validate_mode(mode)
    summed: list[PackedCounts] = []
    for packed in mined:
        table = shared_labels(packed)
        rows = [_remap_packed(counts, table, 1) for counts in packed]
        keys = np.concatenate([np.empty(0, np.int64), *(k for k, _ in rows)])
        counts = np.concatenate([np.empty(0, np.int64), *(c for _, c in rows)])
        unique, inverse = np.unique(keys, return_inverse=True)
        # Float weights sum integer counts exactly (< 2**53).
        sums = np.bincount(inverse, weights=counts, minlength=unique.size)
        labels = table.labels if isinstance(table, LabelTable) else table
        summed.append(PackedCounts(labels, unique, sums.astype(np.int64)))
    return DistanceVectors.from_packed(summed).distance(0, 1, mode)
