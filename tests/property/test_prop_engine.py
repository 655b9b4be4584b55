"""Property-based serial/parallel/cached equivalence (hypothesis).

For random forests and random parameter draws, the engine must emit
byte-for-byte the same frequent pairs as the dict-loop oracle
(:func:`repro.core.reference.mine_forest_reference`) — under
a serial engine (jobs=1), a real process pool (jobs=2), a cold cache
and a warm cache.  Shrinking then hands back the smallest forest that
breaks the contract.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multi_tree import forest_pair_items
from repro.core.reference import mine_forest_reference
from repro.engine import MiningEngine

from tests.property.strategies import gaps, maxdists, trees

forests = st.lists(trees(max_size=12), min_size=0, max_size=6)


def strict(patterns):
    return [
        (
            p.label_a,
            p.label_b,
            p.distance,
            p.support,
            p.tree_indexes,
            p.total_occurrences,
        )
        for p in patterns
    ]


@settings(max_examples=40, deadline=None)
@given(
    forest=forests,
    maxdist=maxdists,
    gap=gaps,
    minoccur=st.integers(min_value=1, max_value=3),
    minsup=st.integers(min_value=1, max_value=3),
    ignore_distance=st.booleans(),
)
def test_serial_engine_cold_and_warm_equal_reference(
    forest, maxdist, gap, minoccur, minsup, ignore_distance
):
    reference = mine_forest_reference(
        forest,
        maxdist=maxdist,
        minoccur=minoccur,
        minsup=minsup,
        ignore_distance=ignore_distance,
        max_generation_gap=gap,
    )
    engine = MiningEngine(jobs=1)
    for _temperature in ("cold", "warm"):
        got = engine.mine_forest(
            forest,
            maxdist=maxdist,
            minoccur=minoccur,
            minsup=minsup,
            ignore_distance=ignore_distance,
            max_generation_gap=gap,
        )
        assert strict(got) == strict(reference)


@settings(max_examples=15, deadline=None)
@given(forest=forests, maxdist=maxdists, gap=gaps)
def test_process_pool_equals_reference(forest, maxdist, gap):
    reference = mine_forest_reference(
        forest, maxdist=maxdist, max_generation_gap=gap
    )
    # clamp_jobs=False keeps the pool engaged even on a 1-CPU box.
    engine = MiningEngine(jobs=2, min_parallel_trees=1, clamp_jobs=False)
    for _temperature in ("cold", "warm"):
        got = engine.mine_forest(
            forest, maxdist=maxdist, max_generation_gap=gap
        )
        assert strict(got) == strict(reference)


@settings(max_examples=40, deadline=None)
@given(forest=forests, maxdist=maxdists, gap=gaps)
def test_per_tree_items_equal_reference(forest, maxdist, gap):
    engine = MiningEngine(jobs=1)
    assert forest_pair_items(
        forest, maxdist=maxdist, max_generation_gap=gap, engine=engine
    ) == forest_pair_items(forest, maxdist=maxdist, max_generation_gap=gap)


@settings(max_examples=40, deadline=None)
@given(forest=forests, maxdist=maxdists, gap=gaps)
def test_stats_partition_invariant(forest, maxdist, gap):
    engine = MiningEngine(jobs=1)
    engine.counters(forest, maxdist=maxdist, max_generation_gap=gap)
    stats = engine.stats
    assert stats.trees_seen == len(forest)
    assert stats.memory_hits + stats.disk_hits + stats.misses == len(forest)
