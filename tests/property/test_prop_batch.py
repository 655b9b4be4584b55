"""Differential property tests: one batch enumeration vs the Fig 3 miner.

:func:`repro.core.fastmine.mine_arenas` mines a whole batch in one
pair enumeration over concatenated columns.  A batch may mix the
slices of a forest arena (one label table shared by all of them) with
per-tree :meth:`TreeArena.from_tree` arenas (a table each), in any
order; every tree's counts must equal the reference miner's
(:func:`repro.core.single_tree.mine_tree_counter`), and the node-level
enumeration must find the reference's concrete pairs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fastmine, single_tree
from repro.core.params import MiningParams
from repro.trees.arena import TreeArena
from repro.trees.newick import parse_arenas, write_newick

from tests.property.strategies import trees

maxdists = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5])
gaps = st.integers(min_value=0, max_value=2)
heights = st.one_of(st.none(), st.integers(min_value=1, max_value=3))


@st.composite
def batches(draw):
    """``(trees, arenas)``: each tree's arena is a forest slice or its
    own flattening, interleaved in input order."""
    forest = draw(st.lists(trees(max_size=16), min_size=1, max_size=6))
    sliced = draw(st.lists(st.booleans(), min_size=len(forest), max_size=len(forest)))
    text = "".join(
        write_newick(tree, include_lengths=False)
        for tree, is_slice in zip(forest, sliced)
        if is_slice
    )
    slices = iter(parse_arenas(text) if text else ())
    arenas = [
        next(slices) if is_slice else TreeArena.from_tree(tree)
        for tree, is_slice in zip(forest, sliced)
    ]
    return forest, arenas


@settings(max_examples=80, deadline=None)
@given(batch=batches(), maxdist=maxdists, gap=gaps, height=heights)
def test_batch_matches_reference_per_tree(batch, maxdist, gap, height):
    forest, arenas = batch
    params = MiningParams(
        maxdist=maxdist, minsup=1, max_generation_gap=gap, max_height=height
    )
    mined = fastmine.mine_arenas(arenas, params)
    assert len(mined) == len(forest)
    for tree, arena, packed in zip(forest, arenas, mined):
        assert packed.labels is arena.table.labels
        assert packed.to_counter() == single_tree.mine_tree_counter(
            tree, maxdist, gap, height
        )
        # rows are sorted and distinct, as every consumer assumes
        assert (packed.keys[1:] > packed.keys[:-1]).all()


@settings(max_examples=60, deadline=None)
@given(tree=trees(), maxdist=maxdists, gap=gaps, height=heights)
def test_pair_indexes_match_reference_pairs(tree, maxdist, gap, height):
    arena = TreeArena.from_tree(tree)
    params = MiningParams(
        maxdist=maxdist, minsup=1, max_generation_gap=gap, max_height=height
    )
    index_u, index_v, lca, half_steps = fastmine.iter_pair_indexes(arena, params)
    ids = arena.node_ids
    ours = [
        (min(ids[u], ids[v]), max(ids[u], ids[v]), steps / 2.0)
        for u, v, steps in zip(index_u.tolist(), index_v.tolist(), half_steps.tolist())
    ]
    reference = [
        (pair.id_a, pair.id_b, pair.distance)
        for pair in single_tree.enumerate_cousin_pairs(tree, maxdist, gap, height)
    ]
    assert len(ours) == len(set(ours)) == len(reference)
    assert set(ours) == set(reference)
    # the reported LCA is an ancestor of both nodes
    parent = arena.parent
    for u, v, w in zip(index_u.tolist(), index_v.tolist(), lca.tolist()):
        for node in (u, v):
            while node not in (w, -1):
                node = parent[node]
            assert node == w
