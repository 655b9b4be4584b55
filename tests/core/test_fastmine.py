"""Unit tests for the interned flat-array kernel and its arena form."""

import pickle
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core import fastmine, single_tree
from repro.core.cousins import CousinPairItem
from repro.core.fastmine import (
    PackedCounts,
    enumerate_cousin_pairs,
    mine_arena,
    mine_tree,
)
from repro.core.params import MiningParams
from repro.engine.cache import arena_cache_key
from repro.errors import ArenaError, ReproError
from repro.trees import arena as arena_module
from repro.trees.arena import (
    LABEL_BITS,
    MAX_LABELS,
    LabelTable,
    TreeArena,
    forest_arenas,
)
from repro.trees.newick import parse_arenas, parse_newick
from repro.trees.tree import Tree

_LABEL_MASK = (1 << LABEL_BITS) - 1


def _sample_tree() -> Tree:
    return parse_newick("((a,b,(c,a)d)e,((b)f,c,(a,(b,c))));")


def _counter(tree: Tree, maxdist: float = 1.5) -> Counter:
    """The kernel's raw counts of one tree, as a reference counter."""
    params = MiningParams(maxdist=maxdist)
    return mine_arena(TreeArena.from_tree(tree), params).to_counter()


# ----------------------------------------------------------------------
# Helpers that must be importable by worker processes
# ----------------------------------------------------------------------
def _intern_remotely(labels):
    table = LabelTable(labels)
    return [table.intern(label) for label in labels]


def _mine_arena_remotely(payload):
    arena, params = payload
    result = mine_arena(arena, params)
    return arena, result


class TestLabelTable:
    def test_ids_follow_sorted_label_order(self):
        table = LabelTable(["pear", "apple", "fig", "apple"])
        assert table.labels == ("apple", "fig", "pear")
        assert [table.intern(label) for label in table.labels] == [0, 1, 2]
        assert table.intern("apple") < table.intern("fig") < table.intern("pear")

    def test_construction_is_input_order_insensitive(self):
        assert LabelTable(["b", "a", "c"]) == LabelTable(["c", "b", "a", "a"])

    def test_unknown_label_raises_arena_error(self):
        table = LabelTable(["a"])
        with pytest.raises(ArenaError, match="not in this table"):
            table.intern("z")

    def test_arena_error_is_a_repro_error(self):
        assert issubclass(ArenaError, ReproError)

    def test_packed_key_capacity_contract(self):
        # The packed key holds two ids of LABEL_BITS bits each, so the
        # table capacity and the bit width must stay in lock-step.
        assert LABEL_BITS == 21
        assert MAX_LABELS == 1 << 21

    def test_overflow_raises_clearly(self, monkeypatch):
        # Building 2^21 + 1 real strings is wasteful; shrink the cap
        # through the official hook (the LabelTable.max_labels class
        # attribute) to exercise the same code path.
        monkeypatch.setattr(LabelTable, "max_labels", 4)
        with pytest.raises(ArenaError, match="label table overflow"):
            LabelTable(f"l{i}" for i in range(5))
        # At the cap is still fine.
        assert len(LabelTable(f"l{i}" for i in range(4))) == 4

    def test_pickle_preserves_every_id(self):
        table = LabelTable(["delta", "alpha", "omega"])
        clone = pickle.loads(pickle.dumps(table))
        assert clone == table
        assert all(
            clone.intern(label) == table.intern(label)
            for label in table.labels
        )

    def test_interning_is_stable_across_processes(self):
        labels = ["pear", "apple", "fig", "apple", "banana"]
        with ProcessPoolExecutor(max_workers=1) as pool:
            remote_ids = pool.submit(_intern_remotely, labels).result()
        table = LabelTable(labels)
        assert remote_ids == [table.intern(label) for label in labels]


class TestTreeArena:
    def test_preorder_invariants(self):
        arena = TreeArena.from_tree(_sample_tree())
        assert arena.parent[0] == -1
        for index in range(1, len(arena)):
            assert 0 <= arena.parent[index] < index

    def test_child_links_match_parent_array(self):
        arena = TreeArena.from_tree(_sample_tree())
        for index in range(len(arena)):
            for child in arena.children(index):
                assert arena.parent[child] == index
        listed = sorted(
            child for index in range(len(arena))
            for child in arena.children(index)
        )
        assert listed == list(range(1, len(arena)))

    def test_round_trip_preserves_ids_labels_lengths(self):
        tree = parse_newick("((a:0.5,b:2)e:1,(c,d:0.25));")
        arena = TreeArena.from_tree(tree)
        rebuilt = arena.to_tree()
        original = {
            (n.node_id, n.label, n.length) for n in tree.preorder()
        }
        assert {
            (n.node_id, n.label, n.length) for n in rebuilt.preorder()
        } == original
        assert TreeArena.from_tree(rebuilt) == arena

    def test_empty_tree(self):
        arena = TreeArena.from_tree(Tree())
        assert len(arena) == 0
        assert arena.fingerprint() == "empty"
        assert len(arena.to_tree()) == 0

    def test_fingerprint_matches_tree_fingerprint(self):
        for source in ["((a,b,(c,a)d)e,(f,(g)));", "a;", "((,a),);"]:
            (read,) = parse_arenas(source)
            assert read.fingerprint() == (
                TreeArena.from_tree(parse_newick(source)).fingerprint()
            )

    def test_arena_cache_key_matches_cache_key(self):
        source = "((a,b,(c,a)d)e,((b)f,c,(a,(b,c))));"
        params = MiningParams(maxdist=2.5, max_generation_gap=2)
        (read,) = parse_arenas(source)
        assert arena_cache_key(read, params) == (
            arena_cache_key(TreeArena.from_tree(parse_newick(source)), params)
        )

    def test_pickle_round_trip(self):
        arena = TreeArena.from_tree(parse_newick("((a:0.5,b),c)r;"))
        assert pickle.loads(pickle.dumps(arena)) == arena

    def test_forest_slice_pickles_as_arrays(self):
        _first, arena = parse_arenas("(x,y);((a:0.5,b),c)r;")
        clone = pickle.loads(pickle.dumps(arena))
        assert clone == arena
        assert clone.interned() == TreeArena.from_tree(
            parse_newick("((a:0.5,b),c)r;", name="tree_1")
        )

    def test_foreign_label_raises(self):
        table = LabelTable(["a"])
        with pytest.raises(ArenaError, match="not in this table"):
            TreeArena.from_tree(parse_newick("(a,b);"), table)

    def test_forest_arenas_share_one_table(self):
        trees = [parse_newick("(b,c);"), parse_newick("(a,b);")]
        table, arenas = forest_arenas(trees)
        assert table.labels == ("a", "b", "c")
        assert all(arena.table is table for arena in arenas)
        # "b" carries the same id in both arenas.
        b_id = table.intern("b")
        assert b_id in set(arenas[0].label) and b_id in set(arenas[1].label)


class TestPackedFormat:
    def test_keys_decode_onto_the_distance_grid(self):
        params = MiningParams(maxdist=2.5, max_generation_gap=3)
        arena = TreeArena.from_tree(_sample_tree())
        packed = mine_arena(arena, params)
        assert packed.labels == arena.table.labels
        for key, occurrences in zip(packed.keys.tolist(), packed.counts.tolist()):
            label_b = key & _LABEL_MASK
            label_a = (key >> LABEL_BITS) & _LABEL_MASK
            half_steps = key >> (2 * LABEL_BITS)
            assert occurrences >= 1
            assert label_a <= label_b < len(packed.labels)
            assert 0 <= half_steps <= 2 * params.maxdist

    def test_to_counter_matches_reference(self):
        tree = _sample_tree()
        packed = mine_arena(
            TreeArena.from_tree(tree), MiningParams(maxdist=2.0)
        )
        assert packed.to_counter() == single_tree.mine_tree_counter(
            tree, maxdist=2.0
        )

    def test_filtered_counter_and_total(self):
        packed = mine_arena(
            TreeArena.from_tree(parse_newick("(a,a,a,b);")), MiningParams()
        )
        counter = packed.to_counter()
        assert packed.total_occurrences() == sum(counter.values())
        filtered = packed.filtered_counter(3)
        assert filtered == Counter(
            {key: n for key, n in counter.items() if n >= 3}
        )

    def test_items_match_mine_tree(self):
        tree = _sample_tree()
        packed = mine_arena(TreeArena.from_tree(tree), MiningParams())
        assert packed.items(1) == mine_tree(tree)
        assert packed.items(2) == mine_tree(tree, minoccur=2)

    def test_packed_counts_pickle_round_trip(self):
        packed = mine_arena(TreeArena.from_tree(_sample_tree()), MiningParams())
        clone = pickle.loads(pickle.dumps(packed))
        assert clone == packed
        assert clone.to_counter() == packed.to_counter()

    def test_worker_round_trip_is_lossless(self):
        # Arena out, interned result back: what the engine's process
        # pool does, minus the engine.
        arena = TreeArena.from_tree(_sample_tree())
        params = MiningParams(maxdist=2.5)
        with ProcessPoolExecutor(max_workers=1) as pool:
            returned, packed = pool.submit(
                _mine_arena_remotely, (arena, params)
            ).result()
        assert returned == arena
        assert packed == mine_arena(arena, params)


class TestDropInEquivalence:
    def test_basics_match_single_tree(self):
        for source in ["(a,b);", "a;", "(((((a)b)c)d)e);", "(a,a,a);",
                       "((,a),);"]:
            tree = parse_newick(source)
            assert mine_tree(tree, maxdist=5) == (
                single_tree.mine_tree(tree, maxdist=5)
            )

    def test_counter_and_enumeration_match(self):
        tree = _sample_tree()
        assert _counter(tree, maxdist=2.0) == (
            single_tree.mine_tree_counter(tree, maxdist=2.0)
        )
        assert set(enumerate_cousin_pairs(tree, maxdist=2.0)) == set(
            single_tree.enumerate_cousin_pairs(tree, maxdist=2.0)
        )

    def test_two_siblings(self):
        assert mine_tree(parse_newick("(a,b);")) == [
            CousinPairItem("a", "b", 0.0, 1)
        ]

    def test_empty_and_trivial_trees(self):
        assert mine_tree(Tree()) == []
        assert mine_tree(parse_newick("a;")) == []
        assert _counter(Tree()) == Counter()

    def test_random_trees_match(self, rng):
        from tests.conftest import make_random_tree

        for _ in range(10):
            tree = make_random_tree(rng)
            assert mine_tree(tree, maxdist=2.5) == (
                single_tree.mine_tree(tree, maxdist=2.5)
            )


class TestRemapCostsTheTree:
    """Re-interning a tree's keys looks up only the labels they use."""

    FOREST = tuple(f"L{index:05d}" for index in range(17_000))

    def packed(self):
        from repro.trees.packing import pack_key

        return PackedCounts(
            self.FOREST,
            [pack_key(0, 5, 7), pack_key(1, 5, 5), pack_key(2, 7, 9_000)],
            [1, 3, 2],
        )

    def test_sorted_tuple_target(self, monkeypatch):
        from repro.trees.packing import unpack_key

        target = tuple(self.FOREST[index] for index in (1, 5, 7, 9_000, 16_999))
        looked = []
        find = fastmine.find_label

        def spy(labels, label):
            looked.append(label)
            return find(labels, label)

        monkeypatch.setattr(fastmine, "find_label", spy)
        keys, counts = fastmine._remap_packed(self.packed(), target, 1)
        assert sorted(looked) == ["L00005", "L00007", "L09000"]
        decoded = {
            (target[a], target[b], half): int(count)
            for (half, a, b), count in zip(map(unpack_key, keys.tolist()), counts)
        }
        assert decoded == {
            ("L00005", "L00007", 0): 1,
            ("L00007", "L09000", 2): 2,
            ("L00005", "L00005", 1): 3,
        }

    def test_label_table_target(self, monkeypatch):
        table = LabelTable(["L00005", "L00007", "L09000", "other"])
        looked = []
        find_many = LabelTable.find_many

        def spy(self, labels):
            looked.extend(labels)
            return find_many(self, labels)

        monkeypatch.setattr(LabelTable, "find_many", spy)
        keys, _ = fastmine._remap_packed(self.packed(), table, 1)
        assert looked == ["L00005", "L00007", "L09000"]
        assert keys.tolist() == sorted(keys.tolist())

    def test_missing_label_raises(self):
        with pytest.raises(ArenaError, match="not in this table"):
            fastmine._remap_packed(self.packed(), ("L00005", "L00007"), 1)


def _caterpillar(spine: int) -> Tree:
    """A spine of ``spine`` unlabeled nodes, each with one labeled leaf;
    leaf ``i`` is labeled ``c{i % 3}``."""
    tree = Tree()
    node = tree.add_root()
    for index in range(spine):
        tree.add_child(node, label=f"c{index % 3}")
        node = tree.add_child(node)
    return tree


class TestBatchEnumeration:
    """Edge cases of the one-pass batch enumeration (``mine_arenas``)."""

    def test_one_node_trees_in_a_batch(self):
        trees = [parse_newick(text) for text in ("a;", "((a,b),c);", "b;", "(a);")]
        mined = fastmine.mine_arenas(
            [TreeArena.from_tree(tree) for tree in trees], MiningParams()
        )
        assert [len(packed) for packed in mined] == [0, 3, 0, 0]
        for tree, packed in zip(trees, mined):
            assert packed.to_counter() == single_tree.mine_tree_counter(tree)

    def test_empty_batch_and_empty_tree(self):
        assert fastmine.mine_arenas([], MiningParams()) == []
        (packed,) = fastmine.mine_arenas([TreeArena.from_tree(Tree())], MiningParams())
        assert len(packed) == 0 and packed.total_occurrences() == 0

    def test_unlabeled_internal_nodes_and_repeated_labels(self):
        tree = parse_newick("((a,a,(a,b)),((a,b),(,a)),(a,(a,a)));")
        packed = mine_arena(TreeArena.from_tree(tree), MiningParams(maxdist=2.5))
        assert packed.counts.max() > 1
        assert packed.to_counter() == single_tree.mine_tree_counter(tree, 2.5)

    def test_slices_and_own_tables_in_one_batch(self):
        forest = parse_arenas("((a,b),(c,d));((x,y),a);")
        own = TreeArena.from_tree(parse_newick("((b,c),(d,e));"))
        mined = fastmine.mine_arenas([forest[0], own, forest[1]], MiningParams())
        assert [packed.labels for packed in mined] == [
            forest.table.labels, own.table.labels, forest.table.labels
        ]
        for text, packed in zip(
            ("((a,b),(c,d));", "((b,c),(d,e));", "((x,y),a);"), mined
        ):
            assert packed.to_counter() == single_tree.mine_tree_counter(
                parse_newick(text)
            )

    def test_deep_caterpillar_is_linear(self):
        import time

        params = MiningParams()
        big_arena = TreeArena.from_tree(_caterpillar(25_000))
        small_arena = TreeArena.from_tree(_caterpillar(6_250))

        def timed(arena):
            started = time.perf_counter()
            mine_arena(arena, params)
            return time.perf_counter() - started

        assert _counter(_caterpillar(40)) == (
            single_tree.mine_tree_counter(_caterpillar(40))
        )
        # 25,000 spine nodes + 25,000 leaves: no recursion, and each
        # leaf pairs only with the next one (aunt-niece, distance 0.5)
        assert mine_arena(big_arena, params).to_counter() == Counter(
            {("c0", "c1", 0.5): 8_333, ("c1", "c2", 0.5): 8_333,
             ("c0", "c2", 0.5): 8_333}
        )
        # Best of 3 rounds, the two sizes interleaved within each round
        # so that a burst of host load slows both.
        big = small = float("inf")
        for _ in range(3):
            big = min(big, timed(big_arena))
            small = min(small, timed(small_arena))
        # linear: 4x the nodes cost about 4x (a quadratic pass, 16x)
        assert big < 10 * small

    def test_huge_maxdist_costs_the_forest_height(self):
        """No pair sits deeper below its LCA than the trees are tall,
        so a huge ``maxdist`` mines like one just above the height."""
        import time

        forest = parse_arenas(
            "((a,b),(c,(d,e)));(((a,b),c),(d,(e,(f,g))));((a,(b,c)),d);"
        )
        arenas = list(forest)
        # the forest is 4 levels tall: 4.5 admits every pair there is
        want = fastmine.mine_arenas(arenas, MiningParams(maxdist=4.5))
        assert want != fastmine.mine_arenas(arenas, MiningParams(maxdist=2.0))
        for maxdist in (1e6, 1e300):
            started = time.perf_counter()
            got = fastmine.mine_arenas(arenas, MiningParams(maxdist=maxdist))
            assert time.perf_counter() - started < 1.0
            assert got == want
        assert mine_arena(arenas[1], MiningParams(maxdist=1e6)).to_counter() == (
            single_tree.mine_tree_counter(forest[1].to_tree(), 4.5)
        )

    def test_single_label_star_stays_bounded(self):
        import tracemalloc

        leaves = 3_000
        tree = parse_newick("(" + ",".join(["x"] * leaves) + ");")
        arena = TreeArena.from_tree(tree)
        tracemalloc.start()
        try:
            packed = mine_arena(arena, MiningParams())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert packed.to_counter() == Counter(
            {("x", "x", 0.0): leaves * (leaves - 1) // 2}
        )
        # 4.5 million pairs are expanded in chunks, never all at once
        assert peak < 64 * 2**20
