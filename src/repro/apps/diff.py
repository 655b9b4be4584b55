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
(:meth:`repro.core.distvec.DistanceVectors.from_counters`) — 0.0 for
identical mining output, approaching 1.0 as the snapshots diverge.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

from repro.core.distance import DistanceMode
from repro.core.multi_tree import FrequentCousinPair, mine_forest
from repro.obs.context import get_tracer
from repro.trees.arena import TreeLike, forest_arenas

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
            lines.append(
                f"  ~ ({old.label_a}, {old.label_b}) "
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

    def sort_key(pattern: FrequentCousinPair):
        return (
            -pattern.support,
            pattern.label_a,
            pattern.label_b,
            pattern.distance if pattern.distance is not None else -1.0,
        )

    return PatternDiff(
        gained=tuple(sorted(gained, key=sort_key)),
        lost=tuple(sorted(lost, key=sort_key)),
        changed=tuple(sorted(changed, key=lambda pair: sort_key(pair[1]))),
        unchanged=tuple(sorted(unchanged, key=sort_key)),
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
    snapshots' aggregated (occurrence-summed) pair collections.  With
    an ``engine``, per-tree mining for both the patterns and the
    distance is cached, with identical output.
    """
    tracer = get_tracer()
    with tracer.span("diff.mine", snapshot="old", trees=len(old_trees)):
        old = mine_forest(
            old_trees,
            maxdist=maxdist,
            minoccur=minoccur,
            minsup=minsup,
            max_generation_gap=max_generation_gap,
            engine=engine,
        )
    with tracer.span("diff.mine", snapshot="new", trees=len(new_trees)):
        new = mine_forest(
            new_trees,
            maxdist=maxdist,
            minoccur=minoccur,
            minsup=minsup,
            max_generation_gap=max_generation_gap,
            engine=engine,
        )
    with tracer.span("diff.snapshot_distance"):
        distance = _snapshot_distance(
            old_trees,
            new_trees,
            maxdist=maxdist,
            max_generation_gap=max_generation_gap,
            mode=mode,
            engine=engine,
        )
    with tracer.span("diff.delta"):
        return replace(diff_patterns(old, new), snapshot_distance=distance)


def _snapshot_distance(
    old_trees: Sequence[TreeLike],
    new_trees: Sequence[TreeLike],
    maxdist: float,
    max_generation_gap: int,
    mode: DistanceMode | str,
    engine: "MiningEngine | None",
) -> float:
    """Cousin distance between two snapshots' aggregate collections.

    Each snapshot is flattened to one counter (per-tree occurrence
    counts summed across the forest), then the two counters are
    compared on the packed vector kernel exactly like two trees.
    """
    from repro.core.distvec import DistanceVectors
    from repro.core.fastmine import mine_arenas
    from repro.core.params import MiningParams, validate_mode

    mode = validate_mode(mode)
    params = MiningParams(
        maxdist=maxdist,
        minoccur=1,
        minsup=1,
        max_generation_gap=max_generation_gap,
    )
    aggregates: list[Counter] = []
    for trees in (old_trees, new_trees):
        if engine is not None:
            counters = engine.counters(trees, params)
        else:
            _table, arenas = forest_arenas(trees)
            counters = [
                counts.to_counter() for counts in mine_arenas(arenas, params)
            ]
        aggregate: Counter = Counter()
        for counter in counters:
            aggregate.update(counter)
        aggregates.append(aggregate)
    vectors = DistanceVectors.from_counters(aggregates)
    return vectors.distance(0, 1, mode)
