"""Property-based tests for the mining core (hypothesis)."""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reference import mine_tree_reference
from repro.core.single_tree import enumerate_cousin_pairs, mine_tree
from repro.core.updown import mine_tree_updown
from repro.trees.ops import relabel

from tests.property.strategies import gaps, maxdists, trees


@settings(max_examples=60, deadline=None)
@given(tree=trees(), maxdist=maxdists, gap=gaps)
def test_three_miners_agree(tree, maxdist, gap):
    """Lemma 1 cross-check: all implementations enumerate the same items."""
    oracle = mine_tree_reference(tree, maxdist, 1, gap)
    assert mine_tree(tree, maxdist, 1, gap) == oracle
    assert mine_tree_updown(tree, maxdist, 1, gap) == oracle


@settings(max_examples=60, deadline=None)
@given(tree=trees(), maxdist=maxdists, gap=gaps)
def test_item_shape_invariants(tree, maxdist, gap):
    """Every item respects maxdist, the half-step grid, and label order."""
    for item in mine_tree(tree, maxdist, 1, gap):
        assert 0 <= item.distance <= maxdist
        assert (2 * item.distance).is_integer()
        assert item.label_a <= item.label_b
        assert item.occurrences >= 1


@settings(max_examples=40, deadline=None)
@given(tree=trees())
def test_maxdist_monotone(tree):
    """Raising maxdist only ever adds items."""
    previous = {}
    for maxdist in [0.0, 0.5, 1.0, 1.5, 2.0]:
        current = {item.key: item.occurrences for item in mine_tree(tree, maxdist)}
        for key, occurrences in previous.items():
            assert current.get(key) == occurrences
        previous = current


@settings(max_examples=40, deadline=None)
@given(tree=trees(), minoccur=st.integers(min_value=1, max_value=4))
def test_minoccur_is_a_pure_filter(tree, minoccur):
    everything = mine_tree(tree, minoccur=1)
    filtered = mine_tree(tree, minoccur=minoccur)
    assert filtered == [
        item for item in everything if item.occurrences >= minoccur
    ]


@settings(max_examples=40, deadline=None)
@given(tree=trees(), maxdist=maxdists)
def test_enumeration_aggregates_to_items(tree, maxdist):
    """enumerate_cousin_pairs and mine_tree are two views of one set."""
    counter = Counter()
    seen_pairs = set()
    for pair in enumerate_cousin_pairs(tree, maxdist):
        assert (pair.id_a, pair.id_b) not in seen_pairs
        seen_pairs.add((pair.id_a, pair.id_b))
        label_a, label_b = pair.label_key
        counter[(label_a, label_b, pair.distance)] += 1
    assert dict(counter) == {
        item.key: item.occurrences for item in mine_tree(tree, maxdist)
    }


@settings(max_examples=40, deadline=None)
@given(tree=trees(), seed=st.integers(min_value=0, max_value=2**16))
def test_sibling_order_irrelevant(tree, seed):
    """The trees are unordered: shuffling children changes nothing."""
    rng = random.Random(seed)
    for node in tree.preorder():
        rng.shuffle(node._children)
    shuffled_items = mine_tree(tree)
    assert shuffled_items == mine_tree_reference(tree)


@settings(max_examples=40, deadline=None)
@given(tree=trees())
def test_label_bijection_equivariance(tree):
    """Renaming labels renames items, bijectively."""
    mapping = {label: f"<{label}>" for label in "abcdefg"}
    renamed = relabel(tree, mapping)
    original = {
        (mapping.get(i.label_a, i.label_a), mapping.get(i.label_b, i.label_b),
         i.distance): i.occurrences
        for i in mine_tree(tree)
    }
    renamed_items = {
        (i.label_a, i.label_b, i.distance): i.occurrences
        for i in mine_tree(renamed)
    }
    assert original == renamed_items


@settings(max_examples=40, deadline=None)
@given(tree=trees(), maxdist=maxdists, gap=gaps)
def test_unlabeled_nodes_invisible(tree, maxdist, gap):
    """Dropping labels that do not exist leaves results unchanged, and
    items never mention an unlabeled node's (absent) label."""
    items = mine_tree(tree, maxdist, 1, gap)
    labels = tree.labels()
    for item in items:
        assert item.label_a in labels
        assert item.label_b in labels


@settings(max_examples=30, deadline=None)
@given(tree=trees(max_size=16))
def test_pair_count_bounded_by_all_pairs(tree):
    """Completeness sanity: never more pairs than label-node pairs."""
    labeled = sum(1 for node in tree.preorder() if node.label is not None)
    total = sum(item.occurrences for item in mine_tree(tree, maxdist=3.0))
    assert total <= labeled * (labeled - 1) // 2


@settings(max_examples=30, deadline=None)
@given(
    forest=st.lists(trees(max_size=15), min_size=1, max_size=5),
    minsup=st.integers(min_value=1, max_value=3),
)
def test_index_matches_batch_miner(forest, minsup):
    """The inverted index is a drop-in accelerator for mine_forest."""
    from repro.core.index import CousinPairIndex
    from repro.core.multi_tree import mine_forest
    from repro.core.reference import mine_forest_reference
    from tests.delta.equivalence import pattern_tuples

    index = CousinPairIndex.build(forest)
    want = pattern_tuples(mine_forest_reference(forest, minsup=minsup))
    assert pattern_tuples(index.frequent(minsup)) == want
    assert pattern_tuples(mine_forest(forest, minsup=minsup)) == want


@settings(max_examples=30, deadline=None)
@given(forest=st.lists(trees(max_size=15), min_size=2, max_size=5))
def test_index_incremental_order_independent_support(forest):
    """Support is a function of the multiset of trees, not arrival order
    (posting lists differ, supports must not)."""
    from repro.core.index import CousinPairIndex

    forward = CousinPairIndex.build(forest)
    backward = CousinPairIndex.build(list(reversed(forest)))
    keys = set(forward) | set(backward)
    for label_a, label_b, distance in keys:
        assert forward.support(label_a, label_b, distance) == (
            backward.support(label_a, label_b, distance)
        )
