"""Property-based engine equivalence (hypothesis).

For random forests and random parameter draws, the engine must emit
byte-for-byte the same frequent pairs as the dict-loop oracle
(:func:`repro.core.reference.mine_forest_reference`), on a first and
a repeated batch.  Shrinking then hands back the smallest forest that
breaks the contract.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multi_tree import mine_forest
from repro.core.params import MiningParams
from repro.core.reference import mine_forest_reference
from repro.core.single_tree import mine_tree
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
    for _repeat in ("first", "repeat"):
        got = mine_forest(
            forest,
            maxdist=maxdist,
            minoccur=minoccur,
            minsup=minsup,
            ignore_distance=ignore_distance,
            max_generation_gap=gap,
            engine=engine,
        )
        assert strict(got) == strict(reference)


@settings(max_examples=40, deadline=None)
@given(forest=forests, maxdist=maxdists, gap=gaps)
def test_per_tree_items_equal_reference(forest, maxdist, gap):
    engine = MiningEngine(jobs=1)
    params = MiningParams(maxdist=maxdist, max_generation_gap=gap)
    assert [counts.items() for counts in engine.mine(forest, params)] == [
        mine_tree(tree, maxdist=maxdist, max_generation_gap=gap)
        for tree in forest
    ]


@settings(max_examples=40, deadline=None)
@given(forest=forests, maxdist=maxdists, gap=gaps)
def test_stats_partition_invariant(forest, maxdist, gap):
    # Every tree handed to the engine is mined exactly once.
    engine = MiningEngine(jobs=1)
    params = MiningParams(maxdist=maxdist, max_generation_gap=gap)
    engine.mine(forest, params)
    assert engine.stats.trees_seen == len(forest)
    assert engine.registry.counter("fastmine.trees").value == len(forest)
    assert engine.stats.batches == 1
