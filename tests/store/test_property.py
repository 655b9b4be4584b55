"""Round-trip property: a packed store is indistinguishable in-RAM.

For any forest, pack -> reopen -> every query is byte-identical to
the in-RAM oracle: frequent pairs across minsup and ignore-distance,
all four :class:`DistanceMode` matrices, and top-k neighbours against
a held-out query tree.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance import DistanceMode
from repro.core.distvec import DistanceVectors
from repro.core.reference import mine_forest_reference
from repro.core.topk import topk_similar
from repro.store import PairStore

from tests.delta.equivalence import MINSUPS, pattern_tuples
from tests.property.strategies import trees


def forests(min_trees=2, max_trees=5):
    return st.lists(trees(max_size=14), min_size=min_trees, max_size=max_trees)


@settings(max_examples=40, deadline=None)
@given(forest=forests(), data=st.data())
def test_pack_reopen_round_trip(forest, data, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("store"))
    PairStore.pack(directory, forest)
    store = PairStore.open(directory)

    for minsup in MINSUPS:
        for ignore_distance in (False, True):
            got = store.frequent_pairs(
                minsup=minsup, ignore_distance=ignore_distance
            )
            want = mine_forest_reference(
                forest, minsup=minsup, ignore_distance=ignore_distance
            )
            assert pattern_tuples(got) == pattern_tuples(want)

    reference = DistanceVectors.from_trees(forest)
    vectors = store.as_vectors()
    for mode in DistanceMode:
        assert np.array_equal(
            np.asarray(vectors.matrix(mode)),
            np.asarray(reference.matrix(mode)),
        )

    query = data.draw(trees(max_size=14), label="query")
    k = data.draw(st.integers(min_value=1, max_value=len(forest)), label="k")
    got = topk_similar(vectors, query, k)
    want = topk_similar(reference, query, k)
    assert got.neighbors == want.neighbors
