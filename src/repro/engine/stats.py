"""Execution counters for the mining engine — a view over a registry.

Every :class:`repro.engine.MiningEngine` owns one
:class:`EngineStats` instance.  Since the observability pass the
object holds no state of its own: each public field is a property
over a named metric in a :class:`repro.obs.metrics.MetricsRegistry`
(``trees_seen`` reads the ``engine.lookups`` counter,
``mine_seconds`` the ``engine.mine.seconds`` histogram total, and so
on — the full name map is ``docs/observability.md``).  The engine's
hot loops increment the *metric objects* directly and spans observe
the timing histograms, so the legacy surface here — read it after a
run (``engine.stats``), reset it between phases
(:meth:`EngineStats.reset`), ship it as JSON
(:meth:`EngineStats.as_dict`) — is unchanged while ``--trace`` and
run manifests see the same numbers through the registry.

:meth:`reset` resets the backing registry in place, so metric
references the engine cached stay valid; :meth:`as_dict` keeps the
exact legacy key set (``tests/property/test_prop_stats.py`` pins it).
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry

__all__ = ["EngineStats"]

# Legacy field -> backing counter, in the original dataclass order.
# The delta_* block joined the surface with the delta-mining pass
# (versioned corpora); it is part of as_dict and pinned alongside the
# legacy fields by tests/property/test_prop_stats.py.
_COUNTER_FIELDS: dict[str, str] = {
    "trees_seen": "engine.lookups",
    "memory_hits": "engine.cache.memory_hits",
    "misses": "engine.cache.misses",
    "rejected": "engine.cache.rejected",
    "batches": "engine.batches",
    "distance_pairs_computed": "engine.distance.pairs_computed",
    "distance_pairs_pruned": "engine.distance.pairs_pruned",
    "delta_updates": "engine.delta.updates",
    "delta_trees_added": "engine.delta.trees_added",
    "delta_trees_removed": "engine.delta.trees_removed",
    "delta_rows_patched": "engine.delta.rows_patched",
    "delta_supports_patched": "engine.delta.supports_patched",
}

# Legacy wall-time field -> backing histogram (the field reads the
# histogram *total*; per-batch distributions ride along for free).
_HISTOGRAM_FIELDS: dict[str, str] = {
    "mine_seconds": "engine.mine.seconds",
    "total_seconds": "engine.batch.seconds",
}

# Registry-only counter (not part of the legacy as_dict surface):
# distance-vector/matrix builds started, including ones whose every
# pair was pruned or filtered to nothing.  describe() uses it so an
# all-zero build still reports its distance section.
DISTANCE_BUILDS_METRIC = "engine.distance.builds"

# The as_dict key order: the original dataclass fields, then the
# delta-mining counters appended at the end (never interleaved, so
# legacy consumers reading positionally keep working).
_FIELD_ORDER: tuple[str, ...] = (
    "trees_seen",
    "memory_hits",
    "misses",
    "rejected",
    "batches",
    "mine_seconds",
    "total_seconds",
    "distance_pairs_computed",
    "distance_pairs_pruned",
    "delta_updates",
    "delta_trees_added",
    "delta_trees_removed",
    "delta_rows_patched",
    "delta_supports_patched",
)


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
        # Assignment replaces the accumulated total (legacy dataclass
        # semantics); the distribution restarts from the new value.
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
        Trees handed to the engine (one per input tree per batch),
        whether or not a cache was consulted; the counter keeps its
        ``engine.lookups`` name.
    memory_hits:
        Lookups served from the in-process LRU cache — including
        repeats of a tree already resolved earlier in the same batch.
    misses:
        Trees mined.  With a cache, the lookups that found nothing
        cached: one per distinct (canonical form, parameters) pair.
        With no cache (``cache_size=0``), every tree of every batch.
    rejected:
        Cached payloads refused at lookup time because they were not
        interned packed counts or their label table disagreed with the
        arena being served (each rejection is also counted as a miss).
    batches:
        Number of engine batch calls.
    mine_seconds:
        Wall time spent mining misses.
    total_seconds:
        Wall time of whole batch calls (lookups + mining + assembly).
    distance_pairs_computed:
        Tree pairs whose distance took an actual merge-join during
        engine matrix builds (:meth:`repro.engine.MiningEngine
        .distance_matrix`) or kernel searches.
    distance_pairs_pruned:
        Tree pairs the inverted pair-key index or size bound proved
        irrelevant — filled from totals alone, no join.
    distance_builds:
        Distance-vector builds started (registry-only; not part of
        :meth:`as_dict`).  Nonzero whenever the distance path ran at
        all, even if every pair was pruned to nothing.
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
        # Materialise every backing metric up front so snapshots and
        # as_dict always carry the full field set, zeros included.
        for metric in _COUNTER_FIELDS.values():
            self.registry.counter(metric)
        self.registry.counter(DISTANCE_BUILDS_METRIC)
        for metric in _HISTOGRAM_FIELDS.values():
            self.registry.histogram(metric)

    trees_seen = _counter_property(_COUNTER_FIELDS["trees_seen"])
    memory_hits = _counter_property(_COUNTER_FIELDS["memory_hits"])
    misses = _counter_property(_COUNTER_FIELDS["misses"])
    rejected = _counter_property(_COUNTER_FIELDS["rejected"])
    batches = _counter_property(_COUNTER_FIELDS["batches"])
    mine_seconds = _histogram_property(_HISTOGRAM_FIELDS["mine_seconds"])
    total_seconds = _histogram_property(_HISTOGRAM_FIELDS["total_seconds"])
    distance_pairs_computed = _counter_property(
        _COUNTER_FIELDS["distance_pairs_computed"]
    )
    distance_pairs_pruned = _counter_property(
        _COUNTER_FIELDS["distance_pairs_pruned"]
    )
    distance_builds = _counter_property(DISTANCE_BUILDS_METRIC)
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

    @property
    def hits(self) -> int:
        """Lookups served without mining."""
        return self.registry.counter(_COUNTER_FIELDS["memory_hits"]).value

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when idle)."""
        seen = self.registry.counter(_COUNTER_FIELDS["trees_seen"]).value
        if seen == 0:
            return 0.0
        return self.hits / seen

    def reset(self) -> None:
        """Zero every counter in place — the whole backing registry.

        Registry metrics outside the legacy field set (cache layer
        counters, kernel histograms) reset too: the stats view and any
        exported snapshot always describe the same window.
        """
        self.registry.reset()

    def as_dict(self) -> dict[str, int | float]:
        """Plain-JSON form (legacy fields plus the derived rates)."""
        payload: dict[str, int | float] = {}
        for field in _FIELD_ORDER:
            counter = _COUNTER_FIELDS.get(field)
            if counter is not None:
                payload[field] = self.registry.counter(counter).value
            else:
                payload[field] = self.registry.histogram(
                    _HISTOGRAM_FIELDS[field]
                ).total
        payload["hits"] = self.hits
        payload["hit_rate"] = self.hit_rate
        return payload

    def describe(self) -> str:
        """One-line human rendering used by ``--engine-stats``."""
        line = (
            f"engine: {self.trees_seen} tree(s), "
            f"{self.memory_hits} memory hit(s), "
            f"{self.misses} miss(es) mined in {self.mine_seconds:.3f}s "
            f"({self.batches} batch(es), hit rate {self.hit_rate:.0%})"
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{field}={value}" for field, value in self.as_dict().items()
        )
        return f"EngineStats({parts})"
