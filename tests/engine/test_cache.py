"""Content-address tests: the key scheme, and where addresses are made.

A corpus persists each tree's mining result under its content address,
so a wrong address would serve one tree's counts for another.  These
tests pin the key scheme: every counter-affecting input (canonical
form, maxdist, gap, max_height) changes the address; post-filters
(minoccur, minsup) deliberately do not.  The engine keeps nothing
between batches, and only :meth:`MiningEngine.packed_counts`, whose
callers persist the addresses, computes them.
"""

from __future__ import annotations


import pytest

from repro.core.distvec import DistanceVectors
from repro.core.multi_tree import mine_forest
from repro.core.params import MiningParams
from repro.core.reference import mine_forest_reference
from repro.core.single_tree import mine_tree, mine_tree_counter
from repro.core.topk import topk_similar
from repro.engine import MiningEngine, arena_cache_key
from repro.trees.arena import TreeArena
from repro.trees.newick import parse_newick


def _fingerprint(tree):
    return TreeArena.from_tree(tree).fingerprint()


def _key(tree, params):
    return arena_cache_key(TreeArena.from_tree(tree), params)


@pytest.fixture
def tree():
    return parse_newick("((a,b),(c,d));")


class TestFingerprint:
    def test_isomorphic_reorderings_collide(self):
        first = parse_newick("((a,b),(c,d));")
        second = parse_newick("((d,c),(b,a));")
        assert _fingerprint(first) == _fingerprint(second)

    def test_label_change_changes_fingerprint(self):
        first = parse_newick("((a,b),(c,d));")
        second = parse_newick("((a,b),(c,e));")
        assert _fingerprint(first) != _fingerprint(second)

    def test_structure_change_changes_fingerprint(self):
        first = parse_newick("((a,b),(c,d));")
        second = parse_newick("(a,(b,(c,d)));")
        assert _fingerprint(first) != _fingerprint(second)

    def test_ids_and_lengths_ignored(self):
        first = parse_newick("((a:1,b:2),(c,d));")
        second = parse_newick("((a,b),(c:9,d));")
        assert _fingerprint(first) == _fingerprint(second)

    def test_mutating_a_tree_changes_its_key(self, tree):
        params = MiningParams()
        before = _key(tree, params)
        leaf = next(node for node in tree.preorder() if node.label == "a")
        leaf.label = "z"
        assert _key(tree, params) != before

    def test_tricky_labels_do_not_collide(self):
        # Labels that could forge structure markers if unescaped.
        from repro.trees.tree import Tree

        first = Tree()
        root = first.add_root()
        first.add_child(root, label="(")
        first.add_child(root, label="a")
        second = Tree()
        root = second.add_root()
        second.add_child(root, label="")
        second.add_child(root, label="(a")
        assert _fingerprint(first) != _fingerprint(second)


class TestCacheKey:
    @pytest.mark.parametrize(
        "variant",
        [
            MiningParams(maxdist=2.0),
            MiningParams(max_generation_gap=2),
            MiningParams(max_height=1),
        ],
        ids=["maxdist", "gap", "max_height"],
    )
    def test_counter_affecting_params_change_key(self, tree, variant):
        assert _key(tree, MiningParams()) != _key(tree, variant)

    def test_post_filters_do_not_change_key(self, tree):
        base = _key(tree, MiningParams())
        assert base == _key(tree, MiningParams(minoccur=5))
        assert base == _key(tree, MiningParams(minsup=7))


class TestNoStaleHits:
    def test_param_change_after_warmup(self, forest):
        engine = MiningEngine()
        mine_forest(forest, maxdist=1.5, engine=engine)  # warm at defaults
        for maxdist, gap in [(0.5, 1), (2.5, 3), (1.5, 0)]:
            got = mine_forest(
                forest, maxdist=maxdist, max_generation_gap=gap, engine=engine
            )
            want = mine_forest_reference(
                forest, maxdist=maxdist, max_generation_gap=gap
            )
            assert got == want

    def test_minoccur_reuses_counter_but_filters_correctly(self, forest):
        # minoccur is a post-filter: one mined batch serves every
        # threshold, and each threshold is applied fresh.
        engine = MiningEngine()
        packed = engine.mine(forest, MiningParams(minsup=1))
        assert [counts.items() for counts in packed] == [
            mine_tree(t) for t in forest
        ]
        assert [counts.items(3) for counts in packed] == [
            mine_tree(t, minoccur=3) for t in forest
        ]
        assert engine.stats.batches == 1

    def test_tree_mutation_after_warmup(self, tree):
        engine = MiningEngine()
        params = MiningParams(minsup=1)
        engine.mine([tree], params)
        leaf = next(node for node in tree.preorder() if node.label == "a")
        leaf.label = "z"
        (counts,) = engine.mine([tree], params)
        assert counts.items() == mine_tree(tree)
        assert engine.stats.trees_seen == 2  # both versions mined


class TestUncachedEngineAddressesNothing:
    """The engine has no cache, so it mines each batch without content
    addresses; only :meth:`MiningEngine.packed_counts`, whose addresses
    callers persist, computes them."""

    FOREST = ("((a,b),(c,d));", "((b,a),(d,c));", "(a,(b,(c,d)));")

    @pytest.fixture
    def fingerprints(self, monkeypatch):
        calls = []
        fingerprint = TreeArena.fingerprint

        def counted(arena):
            calls.append(arena)
            return fingerprint(arena)

        monkeypatch.setattr(TreeArena, "fingerprint", counted)
        return calls

    @pytest.fixture
    def forest(self):
        return [parse_newick(text) for text in self.FOREST]

    @pytest.mark.parametrize(
        "call, reference",
        [
            (
                lambda engine, forest: engine.frequent_pairs(
                    forest, MiningParams(minsup=1)
                ),
                lambda forest: mine_forest(forest, minsup=1),
            ),
            (
                lambda engine, forest: engine.distance_vectors(forest).matrix(),
                lambda forest: DistanceVectors.from_trees(forest).matrix(),
            ),
            (
                lambda engine, forest: engine.topk_similar(
                    engine.distance_vectors(forest), forest[2], 2
                ).neighbors,
                lambda forest: topk_similar(
                    DistanceVectors.from_trees(forest), forest[2], 2
                ).neighbors,
            ),
            (
                lambda engine, forest: [
                    counts.items()
                    for counts in engine.mine(forest, MiningParams())
                ],
                lambda forest: [mine_tree(tree) for tree in forest],
            ),
            (
                lambda engine, forest: [
                    counts.to_counter()
                    for counts in engine.mine(forest, MiningParams())
                ],
                lambda forest: [mine_tree_counter(tree) for tree in forest],
            ),
        ],
        ids=["frequent_pairs", "distance_vectors", "topk_similar", "items",
             "counters"],
    )
    def test_no_fingerprint_and_same_answer(
        self, call, reference, forest, fingerprints
    ):
        engine = MiningEngine()
        got = call(engine, forest)
        assert fingerprints == []
        assert got == reference(forest)
        # Every tree handed to the engine is mined, the repeat included.
        assert engine.stats.trees_seen >= len(forest)
        assert (
            engine.registry.counter("fastmine.trees").value
            == engine.stats.trees_seen
        )

    def test_packed_counts_still_addresses(self, forest, fingerprints):
        params = MiningParams(minsup=1)
        engine = MiningEngine()
        keys, packed = engine.packed_counts(forest, params)
        assert len(fingerprints) == len(forest)
        assert keys == [_key(tree, params) for tree in forest]
        # The isomorphic repeat shares its address and its counts, and
        # is mined like any other tree.
        assert keys[0] == keys[1]
        assert packed[0].items() == packed[1].items()
        assert engine.stats.trees_seen == len(forest)
        assert engine.registry.counter("fastmine.trees").value == len(forest)
