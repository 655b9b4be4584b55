"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.datasets.seed_plants import SEED_PLANT_NEWICKS
from repro.trees.newick import parse_newick


@pytest.fixture
def forest_file(tmp_path):
    path = tmp_path / "forest.nwk"
    path.write_text("((a,b),(c,d));\n((a,b),(c,e));\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def seed_plants_file(tmp_path):
    path = tmp_path / "seed.nwk"
    path.write_text("\n".join(SEED_PLANT_NEWICKS), encoding="utf-8")
    return str(path)


class TestMine:
    def test_prints_items_per_tree(self, forest_file, capsys):
        assert main(["mine", forest_file]) == 0
        out = capsys.readouterr().out
        assert "tree_0" in out and "tree_1" in out
        assert "(a, b) at distance 0 (siblings) x1" in out

    def test_maxdist_flag(self, forest_file, capsys):
        main(["mine", forest_file, "--maxdist", "0"])
        out = capsys.readouterr().out
        assert "first cousins" not in out


class TestFrequent:
    def test_default_minsup(self, forest_file, capsys):
        assert main(["frequent", forest_file]) == 0
        out = capsys.readouterr().out
        assert "(a, b)" in out
        assert "support 2" in out
        assert "(c, d)" not in out  # only in one tree

    def test_ignore_distance(self, forest_file, capsys):
        assert main(["frequent", forest_file, "--ignore-distance"]) == 0
        out = capsys.readouterr().out
        assert "any distance" in out


class TestSupport:
    def test_with_distance(self, seed_plants_file, capsys):
        code = main([
            "support", seed_plants_file,
            "--pair", "Gnetum", "Welwitschia", "--distance", "0",
        ])
        assert code == 0
        assert "support of (Gnetum, Welwitschia) at distance 0: 4" in (
            capsys.readouterr().out
        )

    def test_any_distance(self, seed_plants_file, capsys):
        main(["support", seed_plants_file, "--pair", "Ephedra", "Ginkgoales"])
        assert "any distance: 2" in capsys.readouterr().out


class TestConsensus:
    def test_outputs_newick(self, tmp_path, capsys):
        path = tmp_path / "profile.nwk"
        path.write_text("((a,b),(c,d));\n((a,b),(d,c));\n", encoding="utf-8")
        assert main(["consensus", str(path), "--method", "strict"]) == 0
        out = capsys.readouterr().out.strip()
        tree = parse_newick(out)
        assert tree.leaf_labels() == {"a", "b", "c", "d"}

    def test_taxa_mismatch_is_clean_error(self, forest_file, capsys):
        # The two trees differ in taxa (d vs e) -> ConsensusError -> 1.
        assert main(["consensus", forest_file, "--method", "majority"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_score_flag(self, tmp_path, capsys):
        path = tmp_path / "same.nwk"
        path.write_text("((a,b),(c,d));\n((a,b),(c,d));\n", encoding="utf-8")
        assert main(["consensus", str(path), "--score"]) == 0
        captured = capsys.readouterr()
        assert "average similarity score" in captured.err


class TestDistance:
    def test_zero_for_identical(self, tmp_path, capsys):
        first = tmp_path / "a.nwk"
        second = tmp_path / "b.nwk"
        first.write_text("((a,b),(c,d));", encoding="utf-8")
        second.write_text("((b,a),(d,c));", encoding="utf-8")
        assert main(["distance", str(first), str(second)]) == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_multi_tree_file_rejected(self, forest_file, tmp_path, capsys):
        single = tmp_path / "one.nwk"
        single.write_text("(a,b);", encoding="utf-8")
        assert main(["distance", forest_file, str(single)]) == 2
        assert "exactly one tree" in capsys.readouterr().err


class TestKernel:
    def test_selects_one_per_group(self, tmp_path, capsys):
        first = tmp_path / "g1.nwk"
        second = tmp_path / "g2.nwk"
        first.write_text("((a,b),(c,d));\n((a,c),(b,d));\n", encoding="utf-8")
        second.write_text("((a,b),(c,e));\n((a,e),(b,c));\n", encoding="utf-8")
        assert main(["kernel", str(first), str(second)]) == 0
        out = capsys.readouterr().out
        assert "average pairwise distance" in out
        assert str(first) in out and str(second) in out

    def test_single_group_rejected(self, forest_file, capsys):
        assert main(["kernel", forest_file]) == 2
        assert "two group files" in capsys.readouterr().err


class TestErrorPaths:
    def test_missing_file(self, capsys):
        assert main(["mine", "/does/not/exist.nwk"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_newick(self, tmp_path, capsys):
        path = tmp_path / "bad.nwk"
        path.write_text("((a,b;", encoding="utf-8")
        assert main(["mine", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_mining_params(self, forest_file, capsys):
        assert main(["mine", forest_file, "--maxdist", "-3"]) == 1
        assert "maxdist" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, message",
        [
            ("kernel", "error: group 0 is empty"),
            ("supertree", "error: supertree assembly needs at least one tree"),
            ("cluster", "error: k must be between 1 and 2, got 500"),
            ("support", "error: minoccur must be >= 1, got 0"),
        ],
        ids=["kernel", "supertree", "cluster", "support"],
    )
    def test_bad_input_is_one_error_line(
        self, command, message, forest_file, tmp_path, capsys
    ):
        empty = tmp_path / "empty.nwk"
        empty.write_text("", encoding="utf-8")
        argv = {
            "kernel": ["kernel", str(empty), forest_file],
            "supertree": ["supertree", str(empty)],
            "cluster": ["cluster", forest_file, "-k", "500"],
            "support": ["support", forest_file, "--pair", "a", "zz",
                        "--minoccur", "0"],
        }[command]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"
        assert "Traceback" not in captured.err


class TestNexusInput:
    def test_mine_reads_nexus(self, tmp_path, capsys):
        path = tmp_path / "trees.nex"
        path.write_text(
            "#NEXUS\nBEGIN TREES;\n"
            "TRANSLATE 1 alpha, 2 beta;\n"
            "TREE t = [&R] (1,2);\nEND;\n",
            encoding="utf-8",
        )
        assert main(["mine", str(path)]) == 0
        out = capsys.readouterr().out
        assert "(alpha, beta) at distance 0" in out


class TestTreerank:
    def test_ranks_identical_first(self, tmp_path, capsys):
        query = tmp_path / "q.nwk"
        db = tmp_path / "db.nwk"
        query.write_text("((a,b),(c,d));", encoding="utf-8")
        db.write_text("((a,c),(b,d));\n((a,b),(c,d));\n", encoding="utf-8")
        assert main(["treerank", str(query), str(db)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert "tree_1" in lines[0]
        assert lines[0].strip().startswith("100.00")

    def test_multi_tree_query_rejected(self, tmp_path, capsys):
        query = tmp_path / "q.nwk"
        query.write_text("(a,b);(c,d);", encoding="utf-8")
        assert main(["treerank", str(query), str(query)]) == 2


class TestSimilar:
    @pytest.fixture
    def query_and_db(self, tmp_path):
        query = tmp_path / "q.nwk"
        db = tmp_path / "db.nwk"
        query.write_text("((a,b),(c,d));", encoding="utf-8")
        db.write_text(
            "((a,c),(b,d));\n((a,b),(c,d));\n((x,y),(z,w));\n",
            encoding="utf-8",
        )
        return str(query), str(db)

    def test_exact_match_ranks_first(self, query_and_db, capsys):
        query, db = query_and_db
        assert main(["similar", query, db, "--k", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("# top-2")
        assert "tree_1" in lines[1]
        assert lines[1].startswith("0.000000")

    def test_k_caps_output(self, query_and_db, capsys):
        query, db = query_and_db
        assert main(["similar", query, db, "--k", "1"]) == 0
        out = capsys.readouterr().out
        # One header plus exactly one neighbour line.
        assert len(out.strip().splitlines()) == 2

    def test_mode_flag(self, query_and_db, capsys):
        query, db = query_and_db
        assert main(["similar", query, db, "--mode", "plain"]) == 0
        assert "(plain)" in capsys.readouterr().out

    def test_funnel_counters_in_header(self, query_and_db, capsys):
        query, db = query_and_db
        assert main(["similar", query, db]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert "index-pruned" in header
        assert "exact join" in header

    def test_multi_tree_query_rejected(self, tmp_path, capsys):
        query = tmp_path / "q.nwk"
        query.write_text("(a,b);(c,d);", encoding="utf-8")
        assert main(["similar", str(query), str(query)]) == 2

    def test_bad_k_is_clean_error(self, query_and_db, capsys):
        query, db = query_and_db
        assert main(["similar", query, db, "--k", "0"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "k must be" in err

    def test_engine_stats_show_topk_counters(self, query_and_db, capsys):
        query, db = query_and_db
        assert main(["similar", query, db, "--engine-stats"]) == 0
        err = capsys.readouterr().err
        assert "topk.candidates" in err

    def test_trace_written(self, query_and_db, tmp_path, capsys):
        query, db = query_and_db
        trace = tmp_path / "trace.jsonl"
        assert main(["similar", query, db, "--trace", str(trace)]) == 0
        text = trace.read_text(encoding="utf-8")
        assert "topk.search" in text

    def test_jobs_flag_output_identical(self, query_and_db, capsys):
        query, db = query_and_db
        assert main(["similar", query, db]) == 0
        serial = capsys.readouterr().out
        assert main(["similar", query, db, "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial


class TestCluster:
    def test_clusters_and_medoids_printed(self, tmp_path, capsys):
        path = tmp_path / "trees.nwk"
        path.write_text(
            "((a,b),(c,d));\n((a,b),(d,c));\n((x,y),(z,w));\n",
            encoding="utf-8",
        )
        assert main(["cluster", str(path), "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "cluster 0:" in out and "cluster 1:" in out
        assert out.count("medoid:") == 2


class TestSupertree:
    def test_merges_overlapping_files(self, tmp_path, capsys):
        first = tmp_path / "a.nwk"
        second = tmp_path / "b.nwk"
        first.write_text("((a,b),c);", encoding="utf-8")
        second.write_text("((b,d),c);", encoding="utf-8")
        assert main(["supertree", str(first), str(second)]) == 0
        out = capsys.readouterr().out.strip()
        tree = parse_newick(out)
        assert tree.leaf_labels() == {"a", "b", "c", "d"}


class TestExportFormats:
    def test_mine_json(self, forest_file, capsys):
        from repro.io import items_from_json

        assert main(["mine", forest_file, "--format", "json"]) == 0
        items = items_from_json(capsys.readouterr().out)
        assert items
        assert any(
            (i.label_a, i.label_b, i.distance) == ("a", "b", 0.0)
            for i in items
        )

    def test_mine_csv(self, forest_file, capsys):
        from repro.io import items_from_csv

        assert main(["mine", forest_file, "--format", "csv"]) == 0
        items = items_from_csv(capsys.readouterr().out)
        assert items

    def test_frequent_json(self, forest_file, capsys):
        from repro.io import patterns_from_json

        assert main(["frequent", forest_file, "--format", "json"]) == 0
        patterns = patterns_from_json(capsys.readouterr().out)
        assert all(p.support >= 2 for p in patterns)


class TestFreeMining:
    def test_free_flag_uses_path_distances(self, tmp_path, capsys):
        # Rooted mining of (b)a; yields nothing (ancestor pair); free
        # mining of the same 2-node path also yields nothing (adjacent),
        # but a 3-node path gives the grandparent pair at distance 0.
        path = tmp_path / "chain.nwk"
        path.write_text("((b)x)a;", encoding="utf-8")
        assert main(["mine", str(path)]) == 0
        rooted_out = capsys.readouterr().out
        assert "0 cousin pair item(s)" in rooted_out
        assert main(["mine", str(path), "--free"]) == 0
        free_out = capsys.readouterr().out
        assert "(a, b) at distance 0" in free_out


class TestReport:
    def test_figure8_style_output(self, seed_plants_file, capsys):
        assert main(["report", seed_plants_file]) == 0
        out = capsys.readouterr().out
        assert out.count("== tree_") == 4  # one window per phylogeny
        assert "Legend:" in out
        assert "Gnetum" in out


class TestModuleEntryPoint:
    def test_python_dash_m(self, forest_file):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "mine", forest_file],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert "cousin pair item" in result.stdout


class TestDiff:
    def test_snapshot_delta(self, tmp_path, capsys):
        old = tmp_path / "old.nwk"
        new = tmp_path / "new.nwk"
        old.write_text("(a,b);\n(a,b);\n", encoding="utf-8")
        new.write_text("(a,b);\n(a,b);\n(c,d);\n(c,d);\n", encoding="utf-8")
        assert main(["diff", str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "1 gained" in out
        assert "+ (c, d)" in out


class TestQuotedLabels:
    """Pair renderings quote a label as Newick does, so each label of a
    pair reads back as one label."""

    LABELS = {"x, y", "a;b"}

    @staticmethod
    def write(tmp_path, name, *trees):
        path = tmp_path / name
        path.write_text("".join(tree + "\n" for tree in trees), encoding="utf-8")
        return str(path)

    @staticmethod
    def read_pair(line):
        """The labels of the ``(first, second)`` pair in ``line``."""
        pair = line[line.index("(") + 1 : line.index(") ")]
        return parse_newick(f"({pair});").leaf_labels()

    def test_frequent_support_and_diff(self, tmp_path, capsys):
        tree = "(('x, y','a;b'),c);"
        old = self.write(tmp_path, "old.nwk", tree, tree)
        new = self.write(tmp_path, "new.nwk", tree, tree, tree)
        assert main(["frequent", old]) == 0
        (line,) = [line for line in capsys.readouterr().out.splitlines()
                   if " at distance 0:" in line]
        assert line.startswith("  ('a;b', 'x, y') at distance 0")
        assert self.read_pair(line) == self.LABELS
        assert main(["support", old, "--pair", "x, y", "a;b"]) == 0
        line = capsys.readouterr().out
        assert line.startswith("support of ('x, y', 'a;b') at any distance: 2")
        assert self.read_pair(line) == self.LABELS
        assert main(["diff", old, new]) == 0
        (line,) = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("  ~ ('a;b', '")]
        assert self.read_pair(line) == self.LABELS

    def test_plain_labels_are_not_quoted(self, forest_file, capsys):
        assert main(["support", forest_file, "--pair", "a", "b"]) == 0
        assert capsys.readouterr().out.startswith("support of (a, b) at")


class TestEngineFlags:
    def test_jobs_flag_output_identical(self, forest_file, capsys):
        assert main(["frequent", forest_file]) == 0
        serial_out = capsys.readouterr().out
        assert main(["frequent", forest_file, "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_jobs_zero_is_clean_error(self, forest_file, capsys):
        assert main(["frequent", forest_file, "--jobs", "0"]) == 1
        err = capsys.readouterr().err
        assert err == "error: jobs must be an integer >= 1, got 0\n"

    def test_jobs_is_inert_and_never_starts_a_pool(
        self, tmp_path, capsys, monkeypatch
    ):
        import concurrent.futures

        def no_pool(self, *args, **kwargs):
            raise AssertionError("the CLI must not start a process pool")

        monkeypatch.setattr(
            concurrent.futures.ProcessPoolExecutor, "__init__", no_pool
        )
        trees = [
            "((a,b),(c,d));", "((a,c),(b,d));", "((a,d),(b,c));",
            "(((a,b),c),d);", "(((a,c),b),d);", "((a,b),(c,(d,e)));",
            "((a,(b,c)),(d,e));", "(((a,b),(c,d)),e);", "((a,e),(b,(c,d)));",
        ]
        forest = tmp_path / "forest.nwk"
        forest.write_text("\n".join(trees) + "\n", encoding="utf-8")
        groups = []
        for index in range(3):
            group = tmp_path / f"g{index}.nwk"
            group.write_text(
                "\n".join(trees[index::3]) + "\n", encoding="utf-8"
            )
            groups.append(str(group))
        for argv in (["frequent", str(forest), "--minsup", "1"],
                     ["kernel", *groups]):
            outputs = []
            for jobs in ([], ["--jobs", "1"], ["--jobs", "4"]):
                assert main(argv + jobs) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0]
            assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_engine_stats_go_to_stderr(self, forest_file, capsys):
        assert main(["frequent", forest_file, "--engine-stats"]) == 0
        captured = capsys.readouterr()
        assert "engine: 2 tree(s) mined in " in captured.err
        assert "engine:" not in captured.out

    def test_kernel_accepts_engine_flags(self, tmp_path, capsys):
        first = tmp_path / "g1.nwk"
        second = tmp_path / "g2.nwk"
        first.write_text("((a,b),(c,d));\n((a,c),(b,d));\n", encoding="utf-8")
        second.write_text("((a,b),(c,e));\n((a,e),(b,c));\n", encoding="utf-8")
        assert main(["kernel", str(first), str(second)]) == 0
        serial_out = capsys.readouterr().out
        assert main(["kernel", str(first), str(second),
                     "--jobs", "2", "--engine-stats"]) == 0
        captured = capsys.readouterr()
        assert captured.out == serial_out
        assert "engine:" in captured.err

    def test_cluster_accepts_engine_flags(self, tmp_path, capsys):
        path = tmp_path / "trees.nwk"
        path.write_text(
            "((a,b),(c,d));\n((a,b),(d,c));\n((x,y),(z,w));\n",
            encoding="utf-8",
        )
        assert main(["cluster", str(path), "-k", "2"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["cluster", str(path), "-k", "2", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_report_accepts_engine_flags(self, seed_plants_file, capsys):
        assert main(["report", seed_plants_file]) == 0
        serial_out = capsys.readouterr().out
        assert main(["report", seed_plants_file, "--jobs", "2",
                     "--engine-stats"]) == 0
        captured = capsys.readouterr()
        assert captured.out == serial_out
        assert "engine:" in captured.err


class TestMaxHeightFlag:
    def test_mine_with_horizontal_limit(self, tmp_path, capsys):
        path = tmp_path / "t.nwk"
        path.write_text("((a,b),(c,d));", encoding="utf-8")
        assert main(["mine", str(path), "--max-height", "1"]) == 0
        out = capsys.readouterr().out
        assert "siblings" in out
        assert "first cousins" not in out


class TestArenaOnlyMiningPath:
    """frequent/kernel read arenas straight from text: no pointer tree
    is built and no tree is flattened on the way to the kernel."""

    @staticmethod
    def _forbid_pointer_trees(monkeypatch):
        from repro.trees.arena import TreeArena
        from repro.trees.tree import Tree

        def refuse(*args, **kwargs):
            raise AssertionError("pointer tree on the mining path")

        monkeypatch.setattr(Tree, "add_root", refuse)
        monkeypatch.setattr(TreeArena, "from_tree", refuse)

    def test_frequent_on_nexus(self, tmp_path, capsys, monkeypatch):
        from repro.datasets.seed_plants import seed_plants_nexus

        path = tmp_path / "seed.nex"
        path.write_text(seed_plants_nexus(), encoding="utf-8")
        argv = ["frequent", str(path), "--minsup", "2"]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        self._forbid_pointer_trees(monkeypatch)
        assert main(argv) == 0
        assert capsys.readouterr().out == expected
        assert "frequent pair(s) in 4 tree(s)" in expected

    def test_kernel_on_newick_groups(self, tmp_path, capsys, monkeypatch):
        paths = []
        for number, block in enumerate(
            [SEED_PLANT_NEWICKS[:2], SEED_PLANT_NEWICKS[2:]]
        ):
            path = tmp_path / f"g{number}.nwk"
            path.write_text("\n".join(block), encoding="utf-8")
            paths.append(str(path))
        for mode in ("plain", "dist", "occur", "dist_occur"):
            argv = ["kernel", *paths, "--mode", mode]
            with monkeypatch.context() as patched:
                assert main(argv) == 0
                expected = capsys.readouterr().out
                self._forbid_pointer_trees(patched)
                assert main(argv) == 0
                assert capsys.readouterr().out == expected


class TestNoPointerTrees:
    """Every command that only mines reaches the kernel on arenas: with
    ``TreeArena.to_tree`` refused, each prints what it printed before."""

    @pytest.mark.parametrize(
        "command",
        ["mine", "support", "cluster", "diff", "frequent", "kernel",
         "distance", "similar"],
    )
    def test_to_tree_never_called(
        self, command, seed_plants_file, tmp_path, capsys, monkeypatch
    ):
        from repro.trees.arena import TreeArena

        one = tmp_path / "one.nwk"
        one.write_text(SEED_PLANT_NEWICKS[0], encoding="utf-8")
        other = tmp_path / "other.nwk"
        other.write_text(SEED_PLANT_NEWICKS[1], encoding="utf-8")
        argv = {
            "mine": ["mine", seed_plants_file],
            "support": ["support", seed_plants_file,
                        "--pair", "Gnetum", "Welwitschia", "--distance", "0"],
            "cluster": ["cluster", seed_plants_file, "-k", "2"],
            "diff": ["diff", str(one), seed_plants_file],
            "frequent": ["frequent", seed_plants_file],
            "kernel": ["kernel", str(one), seed_plants_file],
            "distance": ["distance", str(one), str(other)],
            "similar": ["similar", str(one), seed_plants_file, "--k", "2"],
        }[command]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        assert expected

        def refuse(self):
            raise AssertionError("pointer tree built on the mining path")

        monkeypatch.setattr(TreeArena, "to_tree", refuse)
        assert main(argv) == 0
        assert capsys.readouterr().out == expected


class TestMalformedInputErrors:
    """Truncated or mis-quoted inputs end in one ``error:`` line."""

    NEXUS = "#NEXUS\nBEGIN TREES;\nTREE t = ((a,b),c);\nTREE u = ((a,c),b);\nEND;\n"

    @pytest.fixture(
        params=["truncated-nexus", "unterminated-quote"], ids=lambda p: p
    )
    def bad_file(self, request, tmp_path):
        text = {
            "truncated-nexus": self.NEXUS[: self.NEXUS.index("TREE u") + 14],
            "unterminated-quote": "(('a,b),c);\n",
        }[request.param]
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    @pytest.fixture
    def good_file(self, tmp_path):
        path = tmp_path / "good.nwk"
        path.write_text("((a,b),c);\n", encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize(
        "command", ["frequent", "kernel", "distance", "similar"]
    )
    def test_one_error_line(self, command, bad_file, good_file, capsys):
        argv = {
            "frequent": ["frequent", bad_file],
            "kernel": ["kernel", good_file, bad_file],
            "distance": ["distance", good_file, bad_file],
            "similar": ["similar", good_file, bad_file],
        }[command]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["frequent", "kernel", "corpus init"])
    def test_non_utf8_input_names_the_byte(
        self, command, good_file, tmp_path, capsys
    ):
        bad = tmp_path / "bad.nwk"
        bad.write_bytes(b"((a,b),c);\n\xff\xfe((a,c),b);\n")
        argv = {
            "frequent": ["frequent", str(bad)],
            "kernel": ["kernel", good_file, str(bad)],
            "corpus init": ["corpus", "init", str(tmp_path / "c"), "--trees", str(bad)],
        }[command]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line == f"error: {bad}: not UTF-8 text: byte 0xff at byte offset 11"
