"""Property: ``EngineStats.as_dict`` keeps its exact legacy key set.

The stats object is now a view over a ``MetricsRegistry``; this pins
the public surface so the refactor can never leak registry-only
metrics (``engine.distance.builds``) into the dict, drop a legacy
field, or mangle a value on the trip through the registry.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.stats import EngineStats

COUNTER_FIELDS = (
    "trees_seen",
    "memory_hits",
    "misses",
    "rejected",
    "batches",
    "distance_pairs_computed",
    "distance_pairs_pruned",
    "delta_updates",
    "delta_trees_added",
    "delta_trees_removed",
    "delta_rows_patched",
    "delta_supports_patched",
)
SECONDS_FIELDS = ("mine_seconds", "total_seconds")
LEGACY_KEYS = frozenset(COUNTER_FIELDS) | frozenset(SECONDS_FIELDS) | {
    "hits",
    "hit_rate",
}

counts = st.integers(min_value=0, max_value=10**9)
seconds = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


@settings(max_examples=60, deadline=None)
@given(
    counters=st.fixed_dictionaries({name: counts for name in COUNTER_FIELDS}),
    timings=st.fixed_dictionaries({name: seconds for name in SECONDS_FIELDS}),
)
def test_as_dict_round_trips_with_the_legacy_key_set(counters, timings):
    stats = EngineStats()
    for name, value in counters.items():
        setattr(stats, name, value)
    for name, value in timings.items():
        setattr(stats, name, value)

    payload = stats.as_dict()
    assert set(payload) == LEGACY_KEYS

    for name, value in counters.items():
        assert payload[name] == value
    for name, value in timings.items():
        assert math.isclose(payload[name], value, rel_tol=1e-12, abs_tol=0.0)

    hits = counters["memory_hits"]
    assert payload["hits"] == hits
    if counters["trees_seen"]:
        assert math.isclose(
            payload["hit_rate"], hits / counters["trees_seen"]
        )
    else:
        assert payload["hit_rate"] == 0.0

    # A second view over the same registry reads back the same dict.
    assert EngineStats(stats.registry).as_dict() == payload
