"""Property tests: the packed distance kernel equals the reference.

:mod:`repro.core.distvec` must agree with the string-keyed
``pairset_distance`` path *exactly* — same integer intersections and
unions, same float division — for every mode, forest and ``minoccur``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import distvec

from repro.core.distance import (
    DistanceMode,
    pairset_distance,
    pairset_distance_matrix,
)
from repro.core.distvec import DistanceVectors
from repro.core.pairset import CousinPairSet
from repro.trees.newick import parse_newick
from repro.trees.tree import Tree

from tests.property.strategies import trees

MODES = st.sampled_from(list(DistanceMode))
MINOCCURS = st.sampled_from([1, 2])


def forests(min_trees=1, max_trees=5):
    return st.lists(trees(max_size=16), min_size=min_trees, max_size=max_trees)


@settings(max_examples=60, deadline=None)
@given(forest=forests(min_trees=2), mode=MODES, minoccur=MINOCCURS)
def test_matches_pairset_distance_exactly(forest, mode, minoccur):
    vectors = DistanceVectors.from_trees(forest, minoccur=minoccur)
    pair_sets = [
        CousinPairSet.from_tree(tree, minoccur=minoccur) for tree in forest
    ]
    for i in range(len(forest)):
        for j in range(len(forest)):
            expected = pairset_distance(pair_sets[i], pair_sets[j], mode)
            assert vectors.distance(i, j, mode) == expected


@settings(max_examples=40, deadline=None)
@given(forest=forests(min_trees=2), mode=MODES)
def test_matrix_matches_reference_exactly(forest, mode):
    vectors = DistanceVectors.from_trees(forest)
    pair_sets = [CousinPairSet.from_tree(tree) for tree in forest]
    assert vectors.matrix(mode) == pairset_distance_matrix(pair_sets, mode)


@settings(max_examples=40, deadline=None)
@given(forest=forests(min_trees=2), mode=MODES)
def test_symmetry_and_zero_diagonal(forest, mode):
    vectors = DistanceVectors.from_trees(forest)
    for i in range(len(forest)):
        assert vectors.distance(i, i, mode) == 0.0
        for j in range(i + 1, len(forest)):
            forward = vectors.distance(i, j, mode)
            assert forward == vectors.distance(j, i, mode)
            assert 0.0 <= forward <= 1.0


@given(mode=MODES)
def test_empty_vs_empty_is_zero(mode):
    # Single-node trees mine no cousin pairs; the convention puts two
    # empty collections at distance 0, not 1.
    bare = []
    for label in ("x", "y"):
        tree = Tree()
        tree.add_root(label=label)
        bare.append(tree)
    vectors = DistanceVectors.from_trees(bare)
    assert vectors.distance(0, 1, mode) == 0.0
    assert vectors.matrix(mode) == [[0.0, 0.0], [0.0, 0.0]]


# ----------------------------------------------------------------------
# Rectangular blocks: one sort-merge join over the whole block must give
# every cell of the pairwise path, however the shared keys are chunked.
# ----------------------------------------------------------------------
# A one-leaf tree (empty under every mode) and a tree whose duplicate
# labels give counts above 1.
BLOCK_EXTRAS = ["a;", "((a,a),(a,a),(b,(b,a)));"]


def index_lists(size):
    return st.lists(
        st.integers(min_value=0, max_value=size - 1), min_size=0, max_size=7
    )


@pytest.mark.parametrize("chunk", [None, 1], ids=["default", "one-match"])
@settings(max_examples=40, deadline=None)
@given(
    forest=forests(min_trees=1, max_trees=5),
    minoccur=MINOCCURS,
    data=st.data(),
)
def test_block_cells_equal_distance(chunk, forest, minoccur, data):
    forest = forest + [parse_newick(text) for text in BLOCK_EXTRAS]
    vectors = DistanceVectors.from_trees(forest, minoccur=minoccur)
    size = len(forest)
    rows = data.draw(index_lists(size), label="rows")
    cols = data.draw(
        st.one_of(st.just(rows), index_lists(size)), label="cols"
    )
    limit = distvec._BLOCK_MATCHES if chunk is None else chunk
    with mock.patch.object(distvec, "_BLOCK_MATCHES", limit):
        for mode in DistanceMode:
            block = vectors.block(rows, cols, mode)
            assert block.shape == (len(rows), len(cols))
            assert block.dtype == float
            for r, i in enumerate(rows):
                for c, j in enumerate(cols):
                    assert block[r, c] == vectors.distance(i, j, mode)


# ----------------------------------------------------------------------
# Row patching (append_packed / remove_rows / replace_rows) edge cases:
# the patched object must be indistinguishable from a from-scratch
# build over the same tree sequence, including after the corpus empties
# out, loses the last holder of a pair key, or carries duplicates.
# ----------------------------------------------------------------------


def _mined(forest, minoccur=1):
    from repro.core.fastmine import mine_arena
    from repro.core.params import MiningParams
    from repro.trees.arena import forest_arenas

    params = MiningParams(maxdist=1.5, minoccur=minoccur, minsup=1)
    _table, arenas = forest_arenas(forest)
    return [mine_arena(arena, params) for arena in arenas]


def assert_equals_rebuild(vectors, forest, minoccur=1):
    # Distances are byte-identical to a rebuild.
    reference = DistanceVectors.from_trees(forest, minoccur=minoccur)
    assert len(vectors) == len(forest)
    for mode in DistanceMode:
        assert vectors.matrix(mode) == reference.matrix(mode)


@settings(max_examples=30, deadline=None)
@given(forest=forests(min_trees=1, max_trees=4), minoccur=MINOCCURS)
def test_growing_from_an_empty_corpus_matches_rebuild(forest, minoccur):
    vectors = DistanceVectors.from_packed([], minoccur=minoccur)
    assert len(vectors) == 0
    assert vectors.matrix(DistanceMode.DIST) == []
    built = 0
    for packed in _mined(forest, minoccur):
        positions = vectors.append_packed([packed], minoccur=minoccur)
        built += 1
        assert positions == [built - 1]
    assert_equals_rebuild(vectors, forest, minoccur)


@settings(max_examples=30, deadline=None)
@given(forest=forests(min_trees=1, max_trees=5), data=st.data())
def test_removing_rows_matches_rebuild_of_survivors(forest, data):
    vectors = DistanceVectors.from_trees(forest)
    vectors.build_index()
    gone = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(forest) - 1),
            min_size=1,
            max_size=len(forest),
            unique=True,
        ),
        label="removed_rows",
    )
    vectors.remove_rows(gone)
    survivors = [
        tree for index, tree in enumerate(forest) if index not in set(gone)
    ]
    assert_equals_rebuild(vectors, survivors)


def test_removing_the_last_holder_of_a_pair_key():
    # Tree 0 is the sole holder of its (x, y) pairs; dropping it must
    # purge those keys so the patched index never resurrects them
    # against a future lookalike.
    from repro.trees.newick import parse_newick

    loner = parse_newick("((x,y),(x,y));")
    others = [parse_newick("((a,b),c);"), parse_newick("((a,b),d);")]
    vectors = DistanceVectors.from_trees([loner] + others)
    vectors.build_index()
    vectors.remove_rows([0])
    assert_equals_rebuild(vectors, others)
    # Re-adding the loner after the purge still matches a rebuild.
    vectors.append_packed(_mined([loner]))
    assert_equals_rebuild(vectors, others + [loner])


def test_remove_all_rows_then_refill():
    from repro.trees.newick import parse_newick

    forest = [parse_newick("((a,b),c);"), parse_newick("(d,(e,f));")]
    vectors = DistanceVectors.from_trees(forest)
    vectors.remove_rows([0, 1])
    assert len(vectors) == 0
    for mode in DistanceMode:
        assert vectors.matrix(mode) == []
    refill = [parse_newick("((g,h),(g,h));")]
    vectors.append_packed(_mined(refill))
    assert_equals_rebuild(vectors, refill)


@settings(max_examples=25, deadline=None)
@given(tree=trees(max_size=12), copies=st.integers(min_value=2, max_value=4))
def test_duplicate_fingerprint_trees_patch_cleanly(tree, copies):
    # Identical trees share one content fingerprint (and in engine use
    # one PackedCounts object); rows must stay independent.
    forest = [tree] * copies
    vectors = DistanceVectors.from_trees(forest)
    for mode in DistanceMode:
        for i in range(copies):
            for j in range(copies):
                assert vectors.distance(i, j, mode) == 0.0
    vectors.remove_rows([copies - 1])
    assert_equals_rebuild(vectors, forest[: copies - 1])


@settings(max_examples=25, deadline=None)
@given(
    forest=forests(min_trees=2, max_trees=4),
    replacement=trees(max_size=12),
    data=st.data(),
)
def test_replace_rows_matches_rebuild(forest, replacement, data):
    position = data.draw(
        st.integers(min_value=0, max_value=len(forest) - 1),
        label="replaced_row",
    )
    vectors = DistanceVectors.from_trees(forest)
    vectors.build_index()
    vectors.replace_rows({position: _mined([replacement])[0]})
    patched = list(forest)
    patched[position] = replacement
    assert_equals_rebuild(vectors, patched)


# ----------------------------------------------------------------------
# The patched inverted index: after any sequence of appends, removals
# and replacements (label growth included), every lookup must answer
# as a fresh build_index() over the current rows does.
# ----------------------------------------------------------------------
# A wider alphabet than the initial forests', so patches grow labels.
GROWING_LABELS = st.one_of(st.none(), st.sampled_from(list("abcdefghijk")))
PATCH_STEPS = st.sampled_from(["append", "remove", "replace"])


def _index_answers(vectors, queries):
    """Every row's neighbours and each query's candidate trees."""
    from repro.core.topk import query_vector

    vectors.build_index()
    keys, _owners = vectors._index
    assert np.all(keys[1:] >= keys[:-1])
    rows = [
        (vectors._neighbors_all(i).tolist(), vectors._neighbors_after(i).tolist())
        for i in range(len(vectors))
    ]
    hits = [
        vectors.candidate_trees(query_vector(vectors, query).pair_keys).tolist()
        for query in queries
    ]
    return rows, hits


def _positions(data, size, label):
    return data.draw(
        st.lists(
            st.integers(min_value=0, max_value=size - 1),
            min_size=1,
            max_size=size,
            unique=True,
        ),
        label=label,
    )


@settings(max_examples=50, deadline=None)
@given(
    forest=forests(min_trees=1, max_trees=4),
    queries=st.lists(
        trees(max_size=10, labels=GROWING_LABELS), min_size=1, max_size=2
    ),
    steps=st.lists(PATCH_STEPS, min_size=1, max_size=6),
    data=st.data(),
)
def test_patched_index_answers_like_a_fresh_build(forest, queries, steps, data):
    rows = _mined(forest)
    queries = _mined(queries)
    vectors = DistanceVectors.from_packed(rows)
    vectors.build_index()
    for step in steps:
        if step == "append":
            added = _mined(
                data.draw(
                    st.lists(
                        trees(max_size=12, labels=GROWING_LABELS),
                        min_size=1,
                        max_size=3,
                    ),
                    label="appended",
                )
            )
            vectors.append_packed(added)
            rows.extend(added)
        elif not rows:
            continue
        elif step == "remove":
            gone = set(_positions(data, len(rows), "removed"))
            vectors.remove_rows(sorted(gone))
            rows = [row for index, row in enumerate(rows) if index not in gone]
        else:
            positions = _positions(data, len(rows), "replaced")
            fresh = _mined(
                data.draw(
                    st.lists(
                        trees(max_size=12, labels=GROWING_LABELS),
                        min_size=len(positions),
                        max_size=len(positions),
                    ),
                    label="replacements",
                )
            )
            vectors.replace_rows(dict(zip(positions, fresh)))
            for index, row in zip(positions, fresh):
                rows[index] = row
        assert _index_answers(vectors, queries) == _index_answers(
            DistanceVectors.from_packed(rows), queries
        )
