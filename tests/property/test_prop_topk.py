"""Property tests: top-k search equals brute-force ranking exactly.

For every random corpus, query tree, ``k`` and mode,
:func:`repro.core.topk.topk_search` (zero-overlap fill, batched join,
stable sort) must return *byte-identical* neighbours to sorting the
all-pairs matrix row of the query.  The join counters must always
reconcile.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance import DistanceMode
from repro.core.distvec import DistanceVectors
from repro.core.topk import topk_similar

from tests.property.strategies import trees

MODES = st.sampled_from(list(DistanceMode))
KS = st.integers(min_value=1, max_value=8)
# Mixed alphabets so some query labels are unknown to the corpus.
QUERY_LABELS = st.one_of(st.none(), st.sampled_from(list("abcdxyz")))


def forests(min_trees=1, max_trees=6):
    return st.lists(trees(max_size=14), min_size=min_trees, max_size=max_trees)


def brute_topk(forest, query, k, mode, minoccur=1):
    combined = DistanceVectors.from_trees(
        list(forest) + [query], minoccur=minoccur
    )
    row, _computed, _pruned = combined.row(len(forest), mode)
    ranked = sorted(
        (distance, index) for index, distance in enumerate(row[: len(forest)])
    )
    return tuple((index, distance) for distance, index in ranked[:k])


@settings(max_examples=80, deadline=None)
@given(
    forest=forests(),
    query=trees(max_size=14, labels=QUERY_LABELS),
    k=KS,
    mode=MODES,
)
def test_equals_brute_force_every_mode(forest, query, k, mode):
    vectors = DistanceVectors.from_trees(forest)
    result = topk_similar(vectors, query, k, mode)
    assert result.neighbors == brute_topk(forest, query, k, mode)


@settings(max_examples=60, deadline=None)
@given(
    forest=forests(),
    query=trees(max_size=14, labels=QUERY_LABELS),
    k=KS,
    mode=MODES,
)
def test_counters_reconcile(forest, query, k, mode):
    vectors = DistanceVectors.from_trees(forest)
    result = topk_similar(vectors, query, k, mode)
    assert result.candidates == len(forest)
    assert (
        result.candidates
        == result.pruned_index + result.exact_joins
    )
    assert result.pruned_index >= 0
    assert len(result.neighbors) == min(k, len(forest))


@settings(max_examples=40, deadline=None)
@given(forest=forests(min_trees=2), query=trees(max_size=12), k=KS)
def test_minoccur_two_still_exact(forest, query, k):
    vectors = DistanceVectors.from_trees(forest, minoccur=2)
    result = topk_similar(vectors, query, k, minoccur=2)
    assert result.neighbors == brute_topk(
        forest, query, k, DistanceMode.DIST_OCCUR, minoccur=2
    )


@settings(max_examples=40, deadline=None)
@given(
    forest=forests(),
    query=trees(max_size=12, labels=QUERY_LABELS),
    mode=MODES,
)
def test_neighbors_sorted_and_tie_broken(forest, query, mode):
    vectors = DistanceVectors.from_trees(forest)
    result = topk_similar(vectors, query, len(forest), mode)
    pairs = [(distance, index) for index, distance in result.neighbors]
    assert pairs == sorted(pairs)
