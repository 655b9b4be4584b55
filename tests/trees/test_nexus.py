"""Unit tests for NEXUS tree I/O."""

import pytest

from repro.errors import NewickError
from repro.trees.newick import parse_newick
from repro.trees.nexus import parse_nexus, read_nexus_file, write_nexus

SAMPLE = """#NEXUS
[ TreeBASE-style sample ]
BEGIN TAXA;
    DIMENSIONS NTAX=3;
END;
BEGIN TREES;
    TRANSLATE
        1 Gnetum,
        2 Welwitschia,
        3 'Outgroup to Seed Plants';
    TREE tree_1 = [&R] ((1,2),3);
    TREE tree_2 = ((2,1),3);
END;
"""


class TestParse:
    def test_two_trees_with_translate(self):
        trees = parse_nexus(SAMPLE)
        assert len(trees) == 2
        assert trees[0].name == "tree_1"
        assert trees[0].leaf_labels() == {
            "Gnetum", "Welwitschia", "Outgroup to Seed Plants"
        }

    def test_trees_are_isomorphic_after_translate(self):
        trees = parse_nexus(SAMPLE)
        assert trees[0].isomorphic_to(trees[1])

    def test_without_translate(self):
        text = "#NEXUS\nBEGIN TREES;\nTREE t = ((a,b),c);\nEND;\n"
        (tree,) = parse_nexus(text)
        assert tree.leaf_labels() == {"a", "b", "c"}

    def test_case_insensitive_keywords(self):
        text = "#nexus\nbegin trees;\ntree T = (a,b);\nend;\n"
        assert len(parse_nexus(text)) == 1

    def test_rooting_annotations_ignored(self):
        text = "#NEXUS\nBEGIN TREES;\nTREE t = [&U] (a,(b,c));\nEND;\n"
        (tree,) = parse_nexus(text)
        assert tree.leaf_labels() == {"a", "b", "c"}

    def test_missing_header(self):
        with pytest.raises(NewickError, match="#NEXUS"):
            parse_nexus("BEGIN TREES;\nTREE t = (a,b);\nEND;\n")

    def test_missing_trees_block(self):
        with pytest.raises(NewickError, match="TREES block"):
            parse_nexus("#NEXUS\nBEGIN TAXA;\nEND;\n")

    def test_empty_trees_block(self):
        with pytest.raises(NewickError, match="no TREE statements"):
            parse_nexus("#NEXUS\nBEGIN TREES;\nEND;\n")

    def test_unterminated_comment(self):
        with pytest.raises(NewickError, match="comment"):
            parse_nexus("#NEXUS [oops\nBEGIN TREES;\nTREE t=(a,b);\nEND;")

    def test_malformed_translate(self):
        text = "#NEXUS\nBEGIN TREES;\nTRANSLATE 1;\nTREE t = (1,1);\nEND;\n"
        with pytest.raises(NewickError, match="TRANSLATE"):
            parse_nexus(text)

    def test_multiple_blocks(self):
        text = (
            "#NEXUS\n"
            "BEGIN TREES;\nTREE a = (x,y);\nEND;\n"
            "BEGIN TREES;\nTREE b = (p,q);\nEND;\n"
        )
        trees = parse_nexus(text)
        assert [tree.name for tree in trees] == ["a", "b"]


class TestWrite:
    def test_round_trip_with_translate(self):
        originals = [
            parse_newick("((Gnetum,Welwitschia),Ephedra);", name="t1"),
            parse_newick("((Gnetum,Ephedra),Welwitschia);", name="t2"),
        ]
        text = write_nexus(originals)
        back = parse_nexus(text)
        assert len(back) == 2
        for original, restored in zip(originals, back):
            assert restored.isomorphic_to(original)
            assert restored.name == original.name

    def test_round_trip_without_translate(self):
        originals = [parse_newick("((a,b),c);", name="only")]
        back = parse_nexus(write_nexus(originals, translate=False))
        assert back[0].isomorphic_to(originals[0])

    def test_quoted_taxa_survive(self):
        tree = parse_newick("(('Outgroup to Seed Plants',b),c);")
        back = parse_nexus(write_nexus([tree]))
        assert "Outgroup to Seed Plants" in back[0].leaf_labels()

    def test_file_round_trip(self, tmp_path):
        trees = [parse_newick("((a,b),(c,d));", name="t")]
        path = tmp_path / "trees.nex"
        path.write_text(write_nexus(trees), encoding="utf-8")
        assert read_nexus_file(str(path))[0].isomorphic_to(trees[0])

    def test_lengths_survive(self):
        tree = parse_newick("((a:1.5,b:2):0.5,c:3);", name="t")
        back = parse_nexus(write_nexus([tree]))[0]
        lengths = sorted(
            node.length for node in back.preorder() if node.length is not None
        )
        assert lengths == [0.5, 1.5, 2.0, 3.0]


class TestQuoting:
    """Quoted names may hold NEXUS punctuation: ``;`` ends no statement,
    ``[`` opens no comment and ``,`` splits no TRANSLATE entry inside
    quotes."""

    @pytest.mark.parametrize("taxon", ["a;b", "a[1]", "x, y"])
    def test_round_trip_keeps_quoted_taxon(self, taxon):
        from repro.trees.tree import Tree

        tree = Tree(name="t")
        root = tree.add_root()
        tree.add_child(root, label=taxon)
        tree.add_child(root, label="other")
        (back,) = parse_nexus(write_nexus([tree]))
        assert sorted(back.leaf_labels()) == sorted([taxon, "other"])
        assert back.canonical_form() == tree.canonical_form()

    def test_quoted_names_inline(self):
        text = (
            "#NEXUS\nBEGIN TREES;\n"
            "TREE 'my tree' = ('a;b','x, y',(c[1],'c[1]'));\nEND;\n"
        )
        (tree,) = parse_nexus(text)
        assert tree.name == "my tree"
        assert tree.leaf_labels() == {"a;b", "x, y", "c", "c[1]"}

    def test_internal_label_never_renamed_by_translate(self):
        tree = parse_newick("((a,b)1,c)2;", name="t")
        (back,) = parse_nexus(write_nexus([tree]))
        assert back.canonical_form() == tree.canonical_form()

    def test_unterminated_quote(self):
        text = "#NEXUS\nBEGIN TREES;\nTREE t = ('a,b);\nEND;\n"
        with pytest.raises(NewickError, match="quoted"):
            parse_nexus(text)

    def test_truncated_trees_block(self):
        text = "#NEXUS\nBEGIN TREES;\nTREE t = (a,b);\nTREE u = ((a,"
        with pytest.raises(NewickError, match="unbalanced"):
            parse_nexus(text)
        with pytest.raises(NewickError, match="TREES block"):
            parse_nexus(text[: text.index("TREE u")])

    def test_malformed_tree_statement(self):
        with pytest.raises(NewickError, match="TREE statement"):
            parse_nexus("#NEXUS\nBEGIN TREES;\nTREE (a,b);\nEND;\n")


class TestArenas:
    def test_arenas_match_flattened_trees(self):
        from repro.trees.arena import TreeArena
        from repro.trees.nexus import parse_nexus_arenas

        arenas = parse_nexus_arenas(SAMPLE)
        assert arenas == [TreeArena.from_tree(t) for t in parse_nexus(SAMPLE)]
        assert [arena.name for arena in arenas] == ["tree_1", "tree_2"]

    def test_read_arenas_sniffs_format(self, tmp_path):
        from repro.trees.nexus import read_arenas

        nexus = tmp_path / "trees.nex"
        nexus.write_text(SAMPLE, encoding="utf-8")
        newick = tmp_path / "trees.nwk"
        newick.write_text("((a,b),c);\n(a,(b,c));\n", encoding="utf-8")
        assert [a.name for a in read_arenas(str(nexus))] == ["tree_1", "tree_2"]
        assert [a.name for a in read_arenas(str(newick))] == ["tree_0", "tree_1"]

    def test_non_utf8_file_is_a_newick_error(self, tmp_path):
        """Bytes that are not UTF-8 name their offset, also past the
        first buffered chunk of a text read."""
        from repro.cli import load_trees
        from repro.trees.newick import read_newick_file
        from repro.trees.nexus import read_arenas

        path = tmp_path / "bad.nex"
        head = SAMPLE.encode("utf-8") + b"[" + b"x" * 20_000 + b"]"
        path.write_bytes(head + b"\xe9\n")
        for read in (read_arenas, load_trees, read_newick_file, read_nexus_file):
            with pytest.raises(NewickError) as caught:
                read(str(path))
            assert f"byte 0xe9 at byte offset {len(head)}" in str(caught.value)
