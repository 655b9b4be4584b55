"""Execution counters for the mining engine — a view over a registry.

Every :class:`repro.engine.MiningEngine` owns one
:class:`EngineStats` instance.  The object holds no state of its own:
each public field is a property over a named metric in a
:class:`repro.obs.metrics.MetricsRegistry` (``trees_seen`` reads the
``engine.lookups`` counter, ``mine_seconds`` the
``engine.mine.seconds`` histogram total, and so on — the full name map
is ``docs/observability.md``).  The engine's hot loops increment the
*metric objects* directly and spans observe the timing histograms, so
``engine.stats``, ``--trace`` and run manifests see the same numbers.

:meth:`reset` resets the backing registry in place, so metric
references the engine cached stay valid.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry

__all__ = ["EngineStats"]

# Field -> backing counter.
_COUNTER_FIELDS: dict[str, str] = {
    "trees_seen": "engine.lookups",
    "batches": "engine.batches",
    "distance_builds": "engine.distance.builds",
    "distance_pairs_computed": "engine.distance.pairs_computed",
    "distance_pairs_pruned": "engine.distance.pairs_pruned",
    "delta_updates": "engine.delta.updates",
    "delta_trees_added": "engine.delta.trees_added",
    "delta_trees_removed": "engine.delta.trees_removed",
    "delta_rows_patched": "engine.delta.rows_patched",
    "delta_supports_patched": "engine.delta.supports_patched",
}

# Wall-time field -> backing histogram (the field reads the histogram
# *total*; per-batch distributions ride along for free).
_HISTOGRAM_FIELDS: dict[str, str] = {
    "mine_seconds": "engine.mine.seconds",
    "total_seconds": "engine.batch.seconds",
}


def _counter_property(metric: str) -> property:
    def fget(self: EngineStats) -> int:
        return self.registry.counter(metric).value

    def fset(self: EngineStats, value: int) -> None:
        self.registry.counter(metric).value = value

    return property(fget, fset)


def _histogram_property(metric: str) -> property:
    def fget(self: EngineStats) -> float:
        return self.registry.histogram(metric).total

    def fset(self: EngineStats, value: float) -> None:
        # Assignment replaces the accumulated total; the distribution
        # restarts from the new value.
        histogram = self.registry.histogram(metric)
        histogram.reset()
        if value:
            histogram.observe(value)

    return property(fget, fset)


class EngineStats:
    """Counters accumulated across the batches an engine has run.

    Attributes
    ----------
    trees_seen:
        Trees handed to the engine and mined (one per input tree per
        batch, repeats included); the counter keeps its
        ``engine.lookups`` name.
    batches:
        Number of engine batch calls.
    mine_seconds:
        Wall time spent in the batches' ``mine_arenas`` calls.
    total_seconds:
        Wall time of whole batch calls (addressing + mining).
    distance_builds:
        Distance-vector builds started.  Nonzero whenever the distance
        path ran at all, even if every pair was pruned to nothing.
    distance_pairs_computed:
        Tree pairs whose distance took an actual merge-join during
        engine matrix builds (:meth:`repro.engine.MiningEngine
        .distance_matrix`) or kernel searches.
    distance_pairs_pruned:
        Tree pairs the inverted pair-key index or size bound proved
        irrelevant — filled from totals alone, no join.
    delta_updates:
        Versioned-corpus mutations applied
        (:class:`repro.engine.delta.VersionedCorpus` add / remove /
        replace calls that changed the corpus).
    delta_trees_added:
        Trees added to versioned corpora (adds plus the new side of
        replacements).
    delta_trees_removed:
        Trees removed from versioned corpora (removals plus the old
        side of replacements).
    delta_rows_patched:
        Rows of materialised distance matrices recomputed or dropped by
        delta updates — the work a full rebuild would have multiplied
        by the corpus size.
    delta_supports_patched:
        (pair key, tree) entries that arrived or departed with the
        rows delta updates added, removed or replaced.
    """

    registry: MetricsRegistry

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        # Materialise every backing metric up front so snapshots always
        # carry the full field set, zeros included.
        for metric in _COUNTER_FIELDS.values():
            self.registry.counter(metric)
        for metric in _HISTOGRAM_FIELDS.values():
            self.registry.histogram(metric)

    trees_seen = _counter_property(_COUNTER_FIELDS["trees_seen"])
    batches = _counter_property(_COUNTER_FIELDS["batches"])
    mine_seconds = _histogram_property(_HISTOGRAM_FIELDS["mine_seconds"])
    total_seconds = _histogram_property(_HISTOGRAM_FIELDS["total_seconds"])
    distance_builds = _counter_property(_COUNTER_FIELDS["distance_builds"])
    distance_pairs_computed = _counter_property(
        _COUNTER_FIELDS["distance_pairs_computed"]
    )
    distance_pairs_pruned = _counter_property(
        _COUNTER_FIELDS["distance_pairs_pruned"]
    )
    delta_updates = _counter_property(_COUNTER_FIELDS["delta_updates"])
    delta_trees_added = _counter_property(_COUNTER_FIELDS["delta_trees_added"])
    delta_trees_removed = _counter_property(
        _COUNTER_FIELDS["delta_trees_removed"]
    )
    delta_rows_patched = _counter_property(
        _COUNTER_FIELDS["delta_rows_patched"]
    )
    delta_supports_patched = _counter_property(
        _COUNTER_FIELDS["delta_supports_patched"]
    )

    def reset(self) -> None:
        """Zero every counter in place — the whole backing registry.

        Registry metrics outside the field set (kernel histograms,
        store counters) reset too: the stats view and any exported
        snapshot always describe the same window.
        """
        self.registry.reset()

    def describe(self) -> str:
        """One-line human rendering used by ``--engine-stats``."""
        line = (
            f"engine: {self.trees_seen} tree(s) mined in "
            f"{self.mine_seconds:.3f}s ({self.batches} batch(es))"
        )
        if (
            self.distance_builds
            or self.distance_pairs_computed
            or self.distance_pairs_pruned
        ):
            # distance_builds alone is enough: a build whose pairs were
            # all pruned (or an empty forest) still reports the
            # distance section rather than silently vanishing.
            line += (
                f"; distance: {self.distance_pairs_computed} pair join(s), "
                f"{self.distance_pairs_pruned} pruned"
            )
        if self.delta_updates:
            line += (
                f"; delta: {self.delta_updates} update(s), "
                f"+{self.delta_trees_added}/-{self.delta_trees_removed} "
                f"tree(s), {self.delta_rows_patched} row(s) patched, "
                f"{self.delta_supports_patched} support(s) patched"
            )
        return line
