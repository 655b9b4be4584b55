"""Unit tests for snapshot diffing."""

from repro.apps.diff import diff_forests, diff_patterns
from repro.core.multi_tree import mine_forest
from repro.trees.newick import parse_newick


def forest(*newicks):
    return [parse_newick(text) for text in newicks]


class TestDiffForests:
    def test_identical_snapshots_empty_diff(self):
        trees = forest("((a,b),c);", "((a,b),d);")
        delta = diff_forests(trees, trees)
        assert delta.is_empty
        assert len(delta.unchanged) == len(mine_forest(trees))
        assert delta.snapshot_distance == 0.0

    def test_snapshot_distance_grows_with_divergence(self):
        old = forest("((a,b),(c,d));", "((a,b),e);")
        near = forest("((a,b),(c,d));", "((a,c),e);")
        far = forest("((x,y),(z,w));")
        small = diff_forests(old, near).snapshot_distance
        large = diff_forests(old, far).snapshot_distance
        assert 0.0 < small < large == 1.0

    def test_snapshot_distance_engine_and_mode(self):
        from repro.engine import MiningEngine

        old = forest("((a,b),(c,d));", "((a,b),e);")
        new = forest("((a,b),(c,d));", "((a,c),e);")
        serial = diff_forests(old, new, mode="plain")
        engined = diff_forests(
            old, new, mode="plain", engine=MiningEngine(jobs=1)
        )
        assert engined.snapshot_distance == serial.snapshot_distance
        assert "snapshot distance:" in serial.describe()

    def test_each_snapshot_is_mined_once(self, monkeypatch):
        # One mine_arenas batch per snapshot feeds both the patterns
        # and the snapshot distance.
        import repro.apps.diff
        import repro.core.fastmine
        import repro.core.multi_tree
        from repro.engine import MiningEngine
        from repro.obs.context import scope
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import Tracer

        calls = []
        mine_arenas = repro.core.fastmine.mine_arenas

        def counted(arenas, params):
            calls.append(len(arenas))
            return mine_arenas(arenas, params)

        for module in (repro.core.fastmine, repro.core.multi_tree,
                       repro.apps.diff):
            monkeypatch.setattr(module, "mine_arenas", counted, raising=False)
        old = forest("((a,b),(c,d));", "((a,b),e);", "(a,(b,c));")
        new = forest("((a,b),(c,d));", "((a,c),e);")
        registry = MetricsRegistry()
        with scope(registry, Tracer(registry, enabled=False)):
            delta = diff_forests(old, new)
        assert calls == [len(old), len(new)]
        assert registry.counter("fastmine.trees").value == len(old) + len(new)
        assert delta == diff_forests(old, new, engine=MiningEngine())

    def test_engine_mines_each_snapshot_once_unaddressed(self, monkeypatch):
        from repro.engine import MiningEngine
        from repro.trees.arena import TreeArena

        def no_address(arena):
            raise AssertionError("diff must not content-address a tree")

        monkeypatch.setattr(TreeArena, "fingerprint", no_address)
        old = forest("((a,b),(c,d));", "((a,b),e);")
        new = forest("((a,b),(c,d));", "((a,c),e);", "(a,b);")
        engine = MiningEngine()
        diff_forests(old, new, engine=engine)
        assert engine.stats.batches == 2
        assert engine.stats.trees_seen == len(old) + len(new)
        assert (
            engine.registry.counter("fastmine.trees").value
            == len(old) + len(new)
        )

    def test_pattern_diffs_have_no_snapshot_distance(self):
        trees = forest("((a,b),c);", "((a,b),d);")
        patterns = mine_forest(trees)
        assert diff_patterns(patterns, patterns).snapshot_distance is None

    def test_gained_pattern(self):
        old = forest("((a,b),c);", "((x,y),c);")
        new = old + forest("(a,b);")  # (a, b) now in 2 trees
        delta = diff_forests(old, new)
        gained_keys = {
            (p.label_a, p.label_b, p.distance) for p in delta.gained
        }
        assert ("a", "b", 0.0) in gained_keys
        assert not delta.lost

    def test_lost_pattern(self):
        old = forest("(a,b);", "(a,b);")
        new = forest("(a,b);", "(x,y);")
        delta = diff_forests(old, new)
        lost_keys = {(p.label_a, p.label_b, p.distance) for p in delta.lost}
        assert ("a", "b", 0.0) in lost_keys
        assert not delta.gained

    def test_changed_support(self):
        old = forest("(a,b);", "(a,b);")
        new = forest("(a,b);", "(a,b);", "(a,b);")
        delta = diff_forests(old, new)
        assert len(delta.changed) == 1
        before, after = delta.changed[0]
        assert before.support == 2
        assert after.support == 3

    def test_changed_occurrences_same_support(self):
        old = forest("(a,b);", "(a,b);")
        new = forest("(a,b);", "(a,b,b);")  # extra occurrence in tree 2
        delta = diff_forests(old, new)
        assert len(delta.changed) == 1
        before, after = delta.changed[0]
        assert before.support == after.support == 2
        assert after.total_occurrences > before.total_occurrences


class TestDiffPatterns:
    def test_tree_indexes_ignored_for_equality(self):
        # Same pattern supported by different positions: unchanged.
        old = mine_forest(forest("(x,y);", "(a,b);", "(a,b);"))
        new = mine_forest(forest("(a,b);", "(a,b);", "(x,y);"))
        delta = diff_patterns(old, new)
        assert delta.is_empty

    def test_describe(self):
        old = mine_forest(forest("(a,b);", "(a,b);"))
        new = mine_forest(forest("(c,d);", "(c,d);"))
        text = diff_patterns(old, new).describe()
        assert "1 gained" in text
        assert "1 lost" in text
        assert "+ (c, d)" in text
        assert "- (a, b)" in text

    def test_sorted_output(self):
        old = []
        new = mine_forest(
            forest("((a,b),(c,d));", "((a,b),(c,d));", "(a,b);")
        )
        delta = diff_patterns(old, new)
        supports = [p.support for p in delta.gained]
        assert supports == sorted(supports, reverse=True)
