"""Unit tests for Multiple_Tree_Mining, support and frequency."""

import pytest

from repro.core.multi_tree import mine_forest, support
from repro.datasets.figure1 import figure1_trees
from repro.errors import MiningParameterError
from repro.trees.newick import parse_newick


class TestSupport:
    def test_paper_example_distance_1(self):
        trees = list(figure1_trees())
        assert support(trees, "b", "e", 1.0) == 2  # T1 and T3

    def test_paper_example_any_distance(self):
        trees = list(figure1_trees())
        assert support(trees, "b", "e", None) == 3  # all three

    def test_label_order_irrelevant(self):
        trees = list(figure1_trees())
        assert support(trees, "e", "b", 1.0) == support(trees, "b", "e", 1.0)

    def test_absent_pair(self):
        trees = list(figure1_trees())
        assert support(trees, "zz", "qq", None) == 0

    def test_minoccur_raises_bar(self):
        # (a, e) at 0.5 occurs twice in T3 only.
        trees = list(figure1_trees())
        assert support(trees, "a", "e", 0.5, minoccur=2) == 1
        assert support(trees, "a", "e", 0.5, minoccur=3) == 0


class TestMineForest:
    def test_minsup_filters(self):
        trees = [
            parse_newick("(a,b);"),
            parse_newick("(a,b);"),
            parse_newick("(c,d);"),
        ]
        frequent = mine_forest(trees, minsup=2)
        assert len(frequent) == 1
        pattern = frequent[0]
        assert (pattern.label_a, pattern.label_b) == ("a", "b")
        assert pattern.support == 2
        assert pattern.tree_indexes == (0, 1)

    def test_minsup_one_keeps_everything(self):
        trees = [parse_newick("(a,b);"), parse_newick("(c,d);")]
        assert len(mine_forest(trees, minsup=1)) == 2

    def test_sorted_by_support_desc(self):
        trees = [
            parse_newick("((a,b),(c,d));"),
            parse_newick("((a,b),(x,y));"),
            parse_newick("(a,b);"),
        ]
        frequent = mine_forest(trees, minsup=1)
        supports = [pattern.support for pattern in frequent]
        assert supports == sorted(supports, reverse=True)

    def test_distances_distinguish_patterns(self):
        trees = [
            parse_newick("(a,b);"),       # siblings
            parse_newick("((a),b);"),     # aunt-niece (a one deeper)
        ]
        frequent = mine_forest(trees, minsup=1)
        keys = {(p.label_a, p.label_b, p.distance) for p in frequent}
        assert ("a", "b", 0.0) in keys
        assert ("a", "b", 0.5) in keys

    def test_ignore_distance_merges(self):
        trees = [
            parse_newick("(a,b);"),
            parse_newick("((a),b);"),
        ]
        merged = mine_forest(trees, minsup=2, ignore_distance=True)
        assert len(merged) == 1
        assert merged[0].distance is None
        assert merged[0].support == 2

    def test_ignore_distance_sums_occurrences_for_minoccur(self):
        # (a, b) occurs once at 0 and once at 1 => 2 total.
        tree = parse_newick("((a,b),(b,x),(q,r));")
        trees = [tree, tree]
        strict = mine_forest(trees, minoccur=2, minsup=2)
        assert not any((p.label_a, p.label_b) == ("a", "b") for p in strict)
        merged = mine_forest(trees, minoccur=2, minsup=2, ignore_distance=True)
        assert any((p.label_a, p.label_b) == ("a", "b") for p in merged)

    def test_total_occurrences_reported(self):
        trees = [parse_newick("(a,a,a);"), parse_newick("(a,a);")]
        frequent = mine_forest(trees, minsup=2)
        assert frequent[0].total_occurrences == 3 + 1

    def test_empty_forest(self):
        assert mine_forest([]) == []

    def test_invalid_minsup(self):
        with pytest.raises(MiningParameterError):
            mine_forest([parse_newick("(a,b);")], minsup=0)

    def test_describe_mentions_trees(self):
        trees = [parse_newick("(a,b);"), parse_newick("(a,b);")]
        text = mine_forest(trees)[0].describe()
        assert "support 2" in text
        assert "trees 0, 1" in text


class TestMaxHeightForest:
    def test_height_limit_filters_deep_patterns(self):
        # (a, d) are first cousins (heights 2, 2): excluded at height 1.
        trees = [
            parse_newick("((a,b),(d,e));"),
            parse_newick("((a,x),(d,y));"),
        ]
        unrestricted = mine_forest(trees, minsup=2)
        keys = {(p.label_a, p.label_b, p.distance) for p in unrestricted}
        assert ("a", "d", 1.0) in keys
        capped = mine_forest(trees, minsup=2, max_height=1)
        capped_keys = {(p.label_a, p.label_b, p.distance) for p in capped}
        assert ("a", "d", 1.0) not in capped_keys


class TestSharedLabelTable:
    """Counts mined from one forest arena aggregate on their own ids."""

    def test_shared_table_builds_no_table_and_calls_no_remap(self, monkeypatch):
        from repro.core import fastmine
        from repro.core.fastmine import mine_arena
        from repro.core.multi_tree import aggregate_packed
        from repro.core.params import MiningParams
        from repro.trees.arena import LabelTable
        from repro.trees.newick import parse_arenas

        forest = parse_arenas("((a,b),(c,d));\n((a,c),(b,d));\n((a,b),(c,e));\n")
        shared = [mine_arena(arena, MiningParams()) for arena in forest]
        per_tree = [mine_arena(arena.interned(), MiningParams()) for arena in forest]
        assert len({id(counts.labels) for counts in shared}) == 1
        expected = aggregate_packed(
            per_tree, minoccur=1, minsup=2, ignore_distance=False
        )
        calls = []
        init = LabelTable.__init__

        def spy_table(self, labels):
            calls.append("LabelTable")
            init(self, labels)

        def spy_remap(*args):
            calls.append("remap")
            raise AssertionError("shared-table counts need no remap")

        monkeypatch.setattr(LabelTable, "__init__", spy_table)
        monkeypatch.setattr(fastmine, "_remap_keys", spy_remap)
        result = aggregate_packed(
            shared, minoccur=1, minsup=2, ignore_distance=False
        )
        assert calls == []
        assert result == expected
        assert [p.tree_indexes for p in result] == [
            p.tree_indexes for p in expected
        ]
