"""Cache-correctness tests: content addressing, staleness, layers.

The dangerous failure mode of a cached engine is the *stale hit* — a
counter mined under one parameter set served for another, or kept
alive after the tree changed.  These tests pin the key scheme: every
counter-affecting input (canonical form, maxdist, gap, max_height)
changes the address; post-filters (minoccur, minsup) deliberately do
not.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.core.kernel import find_kernel_trees
from repro.core.reference import mine_forest_reference
from repro.core.params import MiningParams
from repro.engine import MiningEngine, PairSetCache, cache_key, tree_fingerprint
from repro.errors import EngineError
from repro.trees.newick import parse_newick


@pytest.fixture
def tree():
    return parse_newick("((a,b),(c,d));")


class TestFingerprint:
    def test_isomorphic_reorderings_collide(self):
        first = parse_newick("((a,b),(c,d));")
        second = parse_newick("((d,c),(b,a));")
        assert tree_fingerprint(first) == tree_fingerprint(second)

    def test_label_change_changes_fingerprint(self):
        first = parse_newick("((a,b),(c,d));")
        second = parse_newick("((a,b),(c,e));")
        assert tree_fingerprint(first) != tree_fingerprint(second)

    def test_structure_change_changes_fingerprint(self):
        first = parse_newick("((a,b),(c,d));")
        second = parse_newick("(a,(b,(c,d)));")
        assert tree_fingerprint(first) != tree_fingerprint(second)

    def test_ids_and_lengths_ignored(self):
        first = parse_newick("((a:1,b:2),(c,d));")
        second = parse_newick("((a,b),(c:9,d));")
        assert tree_fingerprint(first) == tree_fingerprint(second)

    def test_mutating_a_tree_changes_its_key(self, tree):
        params = MiningParams()
        before = cache_key(tree, params)
        leaf = next(node for node in tree.preorder() if node.label == "a")
        leaf.label = "z"
        assert cache_key(tree, params) != before

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
        assert tree_fingerprint(first) != tree_fingerprint(second)


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
        assert cache_key(tree, MiningParams()) != cache_key(tree, variant)

    def test_post_filters_do_not_change_key(self, tree):
        base = cache_key(tree, MiningParams())
        assert base == cache_key(tree, MiningParams(minoccur=5))
        assert base == cache_key(tree, MiningParams(minsup=7))


class TestNoStaleHits:
    def test_param_change_after_warmup(self, forest):
        engine = MiningEngine()
        engine.mine_forest(forest, maxdist=1.5)  # warm at defaults
        for maxdist, gap in [(0.5, 1), (2.5, 3), (1.5, 0)]:
            got = engine.mine_forest(
                forest, maxdist=maxdist, max_generation_gap=gap
            )
            want = mine_forest_reference(
                forest, maxdist=maxdist, max_generation_gap=gap
            )
            assert got == want

    def test_minoccur_reuses_counter_but_filters_correctly(self, forest):
        engine = MiningEngine()
        engine.items(forest, minoccur=1)
        misses_after_warmup = engine.stats.misses
        strict_items = engine.items(forest, minoccur=3)
        # Same counters reused (no new misses) ...
        assert engine.stats.misses == misses_after_warmup
        # ... but the post-filter is applied fresh.
        from repro.core.single_tree import mine_tree

        assert strict_items == [mine_tree(t, minoccur=3) for t in forest]

    def test_tree_mutation_after_warmup(self, tree):
        engine = MiningEngine()
        engine.items([tree])
        leaf = next(node for node in tree.preorder() if node.label == "a")
        leaf.label = "z"
        from repro.core.single_tree import mine_tree

        assert engine.items([tree]) == [mine_tree(tree)]
        assert engine.stats.misses == 2  # both versions mined


class TestLRULayer:
    def test_eviction_keeps_capacity(self):
        cache = PairSetCache(max_entries=2)
        from collections import Counter

        cache.put("k1", Counter(a=1))
        cache.put("k2", Counter(b=1))
        cache.put("k3", Counter(c=1))
        assert len(cache) == 2
        assert cache.lookup("k1") is None  # oldest evicted
        assert cache.lookup("k3") is not None

    def test_lookup_refreshes_recency(self):
        from collections import Counter

        cache = PairSetCache(max_entries=2)
        cache.put("k1", Counter(a=1))
        cache.put("k2", Counter(b=1))
        cache.lookup("k1")          # k1 becomes most recent
        cache.put("k3", Counter(c=1))
        assert cache.lookup("k1") is not None
        assert cache.lookup("k2") is None

    def test_zero_capacity_disables_memory_layer(self, tree):
        engine = MiningEngine(cache_size=0)
        engine.items([tree])
        engine.items([tree])
        assert engine.stats.misses == 2  # nothing retained across batches

    def test_negative_capacity_rejected(self):
        with pytest.raises(EngineError):
            PairSetCache(max_entries=-1)


class TestDiskLayer:
    def test_second_engine_hits_disk(self, forest, tmp_path, jobs):
        cache_dir = str(tmp_path / "cache")
        first = MiningEngine(jobs=jobs, cache_dir=cache_dir,
                             min_parallel_trees=1)
        reference = first.mine_forest(forest)
        # Fresh engine, fresh memory layer, same directory: all lookups
        # must come back from disk with identical results.
        second = MiningEngine(cache_dir=cache_dir)
        assert second.mine_forest(forest) == reference
        assert second.stats.misses == 0
        assert second.stats.disk_hits == first.stats.misses

    def test_corrupt_entry_degrades_to_miss(self, tree, tmp_path):
        cache_dir = str(tmp_path / "cache")
        engine = MiningEngine(cache_dir=cache_dir)
        engine.items([tree])
        (entry,) = [
            os.path.join(root, name)
            for root, _dirs, names in os.walk(cache_dir)
            for name in names
        ]
        with open(entry, "wb") as handle:
            handle.write(b"not a pickle")
        fresh = MiningEngine(cache_dir=cache_dir)
        from repro.core.single_tree import mine_tree

        assert fresh.items([tree]) == [mine_tree(tree)]
        assert fresh.stats.misses == 1

    def test_non_counter_payload_rejected(self, tree, tmp_path):
        cache_dir = str(tmp_path / "cache")
        engine = MiningEngine(cache_dir=cache_dir)
        engine.items([tree])
        (entry,) = [
            os.path.join(root, name)
            for root, _dirs, names in os.walk(cache_dir)
            for name in names
        ]
        with open(entry, "wb") as handle:
            pickle.dump({"not": "a counter"}, handle)
        fresh = MiningEngine(cache_dir=cache_dir)
        fresh.items([tree])
        assert fresh.stats.misses == 1


class TestKernelMissAccounting:
    def test_exactly_one_miss_per_distinct_tree(self):
        # Two groups sharing trees and containing internal duplicates:
        # the eager serial path mines 6 trees; the engine must mine
        # each distinct canonical form exactly once.
        g1 = [
            parse_newick("((a,b),(c,d));"),
            parse_newick("((b,a),(d,c));"),  # duplicate of the first
            parse_newick("((a,c),(b,d));"),
        ]
        g2 = [
            parse_newick("((a,b),(c,d));"),  # shared with group 1
            parse_newick("((a,e),(b,c));"),
            parse_newick("((a,c),(b,d));"),  # shared with group 1
        ]
        distinct = {
            tree_fingerprint(tree) for tree in g1 + g2
        }
        engine = MiningEngine()
        result = find_kernel_trees([g1, g2], engine=engine)
        assert engine.stats.misses == len(distinct) == 3
        assert engine.stats.trees_seen == 6

        reference = find_kernel_trees([g1, g2])
        assert result.indexes == reference.indexes
        assert result.average_distance == reference.average_distance
        assert result.pairwise_evaluations == reference.pairwise_evaluations


class TestPayloadRejection:
    """A cached payload must match the arena it is served for.

    The content address binds a payload to the tree's canonical form,
    but a poisoned, stale-scheme or hash-colliding entry could still
    carry the wrong label table — the engine must reject it and
    re-mine instead of decoding ids against the wrong labels.
    """

    def test_label_table_mismatch_is_rejected(self, tree):
        from repro.core.fastmine import PackedCounts

        engine = MiningEngine()
        baseline = engine.items([tree])
        key = cache_key(tree, MiningParams(minsup=1))
        poisoned = PackedCounts(("w", "x", "y", "z"), {0: 99})
        engine.cache.put(key, poisoned)
        engine.stats.reset()

        assert engine.items([tree]) == baseline
        assert engine.stats.rejected == 1
        assert engine.stats.misses == 1
        assert engine.stats.hits == 0
        # The re-mined result replaced the poisoned entry.
        layer, healed = engine.cache.lookup(key)
        assert healed.labels == ("a", "b", "c", "d")

    def test_fingerprint_matched_payload_is_served(self, tree):
        engine = MiningEngine()
        engine.items([tree])
        engine.stats.reset()
        assert engine.items([tree])
        assert engine.stats.rejected == 0
        assert engine.stats.memory_hits == 1

    def test_legacy_counter_payload_is_rejected(self, tree):
        from collections import Counter

        engine = MiningEngine()
        baseline = engine.items([tree])
        key = cache_key(tree, MiningParams(minsup=1))
        engine.cache.put(key, Counter({("a", "b", 1.0): 1}))
        engine.stats.reset()

        assert engine.items([tree]) == baseline
        assert engine.stats.rejected == 1

    def test_rejected_appears_in_stats_dict(self, tree):
        engine = MiningEngine()
        assert engine.stats.as_dict()["rejected"] == 0
