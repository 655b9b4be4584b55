"""Differential property tests: the fastmine kernel vs the references.

The interned flat-array kernel (:mod:`repro.core.fastmine`) must be
observationally identical to the pointer-walking miners it replaced —
:mod:`repro.core.single_tree` and :mod:`repro.core.updown` are kept in
the tree precisely to serve as this oracle.  The strategies draw
unlabeled internal nodes (``LABELS`` includes ``None``), and the
parameter grids cover ``max_generation_gap != 1`` and ``max_height``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fastmine, single_tree
from repro.core.params import MiningParams
from repro.core.updown import mine_tree_updown
from repro.core.weighted import enumerate_weighted_pairs
from repro.trees.arena import LabelTable, TreeArena, forest_arenas
from repro.trees.traversal import TreeIndex

from tests.property.strategies import gaps, maxdists, trees

heights = st.one_of(st.none(), st.integers(min_value=1, max_value=3))


@settings(max_examples=60, deadline=None)
@given(tree=trees(), maxdist=maxdists, gap=gaps)
def test_kernel_matches_both_references(tree, maxdist, gap):
    """fastmine, single_tree and updown agree item-for-item."""
    oracle = single_tree.mine_tree(tree, maxdist, 1, gap)
    assert fastmine.mine_tree(tree, maxdist, 1, gap) == oracle
    assert mine_tree_updown(tree, maxdist, 1, gap) == oracle


@settings(max_examples=40, deadline=None)
@given(tree=trees(), maxdist=maxdists, gap=gaps, height=heights)
def test_max_height_agrees(tree, maxdist, gap, height):
    assert fastmine.mine_tree(
        tree, maxdist, 1, gap, max_height=height
    ) == single_tree.mine_tree(tree, maxdist, 1, gap, max_height=height)


@settings(max_examples=40, deadline=None)
@given(tree=trees(), maxdist=maxdists, gap=gaps)
def test_raw_counters_agree(tree, maxdist, gap):
    params = MiningParams(maxdist=maxdist, max_generation_gap=gap)
    assert fastmine.mine_arena(TreeArena.from_tree(tree), params).to_counter() == (
        single_tree.mine_tree_counter(tree, maxdist, gap)
    )


@settings(max_examples=40, deadline=None)
@given(tree=trees(), maxdist=maxdists, gap=gaps)
def test_pair_enumerations_agree_as_sets(tree, maxdist, gap):
    """Same concrete pairs, whatever the yield order."""
    ours = list(fastmine.enumerate_cousin_pairs(tree, maxdist, gap))
    reference = list(single_tree.enumerate_cousin_pairs(tree, maxdist, gap))
    assert len(ours) == len(reference)  # no duplicates hidden by set()
    assert set(ours) == set(reference)


@settings(max_examples=40, deadline=None)
@given(tree=trees(), maxdist=maxdists, gap=gaps,
       minoccur=st.integers(min_value=1, max_value=4))
def test_packed_minoccur_is_a_pure_filter(tree, maxdist, gap, minoccur):
    packed = fastmine.mine_arena(
        TreeArena.from_tree(tree),
        MiningParams(maxdist=maxdist, max_generation_gap=gap),
    )
    everything = packed.items(1)
    assert packed.items(minoccur) == [
        item for item in everything if item.occurrences >= minoccur
    ]


@settings(max_examples=40, deadline=None)
@given(forest=st.lists(trees(max_size=12), min_size=1, max_size=4),
       maxdist=maxdists)
def test_shared_forest_table_changes_nothing(forest, maxdist):
    """Per-tree and forest-wide interning decode to the same counts."""
    params = MiningParams(maxdist=maxdist)
    _table, arenas = forest_arenas(forest)
    for tree, shared in zip(forest, arenas):
        own = fastmine.mine_arena(TreeArena.from_tree(tree), params)
        assert fastmine.mine_arena(shared, params).to_counter() == (
            own.to_counter()
        )


@settings(max_examples=30, deadline=None)
@given(tree=trees(max_size=16), maxdist=maxdists, gap=gaps,
       data=st.data())
def test_weighted_spans_match_lca_walk(tree, maxdist, gap, data):
    """The arena-walk span equals the pointer LCA-walk span, pair by pair."""
    for node in tree.preorder():
        node.length = data.draw(
            st.one_of(
                st.none(),
                st.floats(min_value=0.0, max_value=8.0,
                          allow_nan=False, width=32),
            )
        )

    def reference_spans():
        index = TreeIndex(tree)
        for pair in single_tree.enumerate_cousin_pairs(tree, maxdist, gap):
            node_a = tree.node(pair.id_a)
            node_b = tree.node(pair.id_b)
            ancestor = index.lca(node_a, node_b)
            span = 0.0
            for start in (node_a, node_b):
                current = start
                while current is not ancestor:
                    span += 1.0 if current.length is None else current.length
                    current = current.parent
            yield (pair.id_a, pair.id_b, pair.distance, span)

    ours = sorted(
        (w.pair.id_a, w.pair.id_b, w.distance, w.span)
        for w in enumerate_weighted_pairs(
            tree, maxdist=maxdist, max_generation_gap=gap
        )
    )
    assert ours == sorted(reference_spans())


@settings(max_examples=40, deadline=None)
@given(tree=trees(), other=trees(), maxdist=maxdists, gap=gaps)
def test_fingerprint_tracks_isomorphism_oracle(tree, other, maxdist, gap):
    """Arena fingerprints and content addresses are equal exactly when
    the canonical forms are (the isomorphism oracle), and survive a
    Newick round trip through the arena reader."""
    from repro.engine.cache import arena_cache_key
    from repro.trees.newick import parse_arenas, write_newick

    params = MiningParams(maxdist=maxdist, max_generation_gap=gap)
    first = TreeArena.from_tree(tree)
    second = TreeArena.from_tree(other)
    same = tree.canonical_form() == other.canonical_form()
    assert (first.fingerprint() == second.fingerprint()) == same
    assert (
        arena_cache_key(first, params) == arena_cache_key(second, params)
    ) == same
    (read,) = parse_arenas(write_newick(tree))
    assert arena_cache_key(read, params) == arena_cache_key(first, params)


@settings(max_examples=40, deadline=None)
@given(labels=st.lists(st.text(max_size=6), max_size=30))
def test_interning_is_a_pure_function_of_the_label_set(labels):
    table = LabelTable(labels)
    again = LabelTable(reversed(labels))
    assert table == again
    assert all(
        table.intern(label) == again.intern(label) for label in labels
    )
