"""Property-based tests for Newick serialisation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trees.newick import parse_forest, parse_newick, write_newick
from repro.trees.validate import check_tree

from tests.property.strategies import leaf_labeled_trees, trees

# Labels exercising the quoting rules: spaces, quotes, parens, unicode.
NASTY_LABELS = st.one_of(
    st.none(),
    st.text(
        alphabet=st.characters(
            blacklist_categories=("Cs",), blacklist_characters="\x00"
        ),
        min_size=1,
        max_size=12,
    ),
)


@settings(max_examples=80, deadline=None)
@given(tree=trees(labels=NASTY_LABELS))
def test_round_trip_preserves_unordered_identity(tree):
    text = write_newick(tree)
    reparsed = parse_newick(text)
    check_tree(reparsed)
    assert reparsed.canonical_form() == tree.canonical_form()


@settings(max_examples=50, deadline=None)
@given(tree=trees())
def test_round_trip_without_lengths(tree):
    text = write_newick(tree, include_lengths=False)
    assert ";" in text
    assert parse_newick(text).canonical_form() == tree.canonical_form()


@settings(max_examples=30, deadline=None)
@given(forest=st.lists(leaf_labeled_trees(), min_size=0, max_size=4))
def test_forest_round_trip(forest):
    text = "\n".join(write_newick(tree) for tree in forest)
    reparsed = parse_forest(text)
    assert len(reparsed) == len(forest)
    for original, back in zip(forest, reparsed):
        assert back.canonical_form() == original.canonical_form()


@settings(max_examples=50, deadline=None)
@given(tree=leaf_labeled_trees())
def test_leaf_labels_survive(tree):
    reparsed = parse_newick(write_newick(tree))
    assert reparsed.leaf_labels() == tree.leaf_labels()


@settings(max_examples=50, deadline=None)
@given(tree=trees())
def test_mining_commutes_with_serialisation(tree):
    """Parsing back a written tree yields identical cousin pair items."""
    from repro.core.single_tree import mine_tree

    reparsed = parse_newick(write_newick(tree))
    assert mine_tree(reparsed) == mine_tree(tree)


@settings(max_examples=150, deadline=None)
@given(text=st.text(max_size=60))
def test_parser_total_on_arbitrary_input(text):
    """Fuzz: the parser either returns a valid tree or raises
    NewickError — never any other exception."""
    from repro.errors import NewickError

    try:
        tree = parse_newick(text)
    except NewickError:
        return
    check_tree(tree)


@settings(max_examples=100, deadline=None)
@given(text=st.text(alphabet="(),;ab'[]: \t0.1", max_size=40))
def test_parser_total_on_grammar_shaped_input(text):
    """Fuzz with grammar-heavy alphabets (parens, quotes, comments)."""
    from repro.errors import NewickError

    try:
        trees = parse_forest(text)
    except NewickError:
        return
    for tree in trees:
        check_tree(tree)


@settings(max_examples=100, deadline=None)
@given(text=st.text(alphabet="#NEXUSBEGINTRESD;()ab,12'[]= \n", max_size=80))
def test_nexus_parser_total(text):
    """Fuzz: NEXUS parsing fails only with NewickError."""
    from repro.errors import NewickError
    from repro.trees.nexus import parse_nexus

    try:
        trees = parse_nexus(text)
    except NewickError:
        return
    for tree in trees:
        check_tree(tree)


# ----------------------------------------------------------------------
# NEXUS round trip
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(
    forest=st.lists(trees(labels=NASTY_LABELS), min_size=1, max_size=3),
    translate=st.booleans(),
)
def test_nexus_round_trip_preserves_unordered_identity(forest, translate):
    """write_nexus then parse_nexus keeps every tree, whatever its
    labels hold (``;``, ``,``, brackets, quotes, whitespace)."""
    from repro.trees.nexus import parse_nexus, write_nexus

    back = parse_nexus(write_nexus(forest, translate=translate))
    assert [tree.canonical_form() for tree in back] == [
        tree.canonical_form() for tree in forest
    ]


# ----------------------------------------------------------------------
# Differential fuzzing: the arena reader against the reference scanner
# ----------------------------------------------------------------------
_FRAGMENTS = st.sampled_from([
    "(", "(", ")", ")", ",", ",", ";", ":", "A", "B", "x\x1fy",
    "1", "0.5", "1e-3", "-2.5", "+.5", "2.5E2", "e", "-",
    "'it''s'", "'a b'", "''", "'", "'(;)'",
    "[c]", "[&R]", "[", "]", "{", "}",
    " ", "\t", "\n", "\x1f", "\xa0", "é", "١",
])
_SNIPPETS = [
    "(A:0.1,B:0.2);",
    "((A,B)X,(C,D)Y)Z;",
    "((A:0.1,B:0.2):0.3,(C:0.4,D:0.5):0.6);",
    "('it''s':1e-3,'a b':-2.5E+1,[c]x\x1fy:+.5)'q''r'[&R];",
    "(,,(,));",
    ";",
    "A;",
    "(a,b);\n(c,(d,e)f)g:1;\n;",
]


def _shape(tree):
    """Ids, parent ids, labels and lengths in preorder, plus the name."""
    return tree.name, [
        (
            node.node_id,
            None if node.parent is None else node.parent.node_id,
            node.label,
            node.length,
        )
        for node in tree.preorder()
    ]


def _assert_reader_matches_oracle(text):
    """Both readers fail with the oracle's message and position, or
    return its trees: equal arenas, ids, labels, lengths, names and
    mined items."""
    from repro.core.fastmine import mine_arena
    from repro.core.params import MiningParams
    from repro.core.single_tree import mine_tree
    from repro.errors import NewickError
    from repro.trees.arena import TreeArena
    from repro.trees.newick import parse_arenas

    from tests.trees import newick_oracle as oracle

    try:
        expected = oracle.parse_forest(text)
    except NewickError as error:
        for reader in (parse_arenas, parse_forest):
            with pytest.raises(NewickError) as caught:
                reader(text)
            assert str(caught.value) == str(error)
    else:
        arenas = parse_arenas(text)
        # Equal after relabelling: the reader interns one table per
        # input, from_tree one per tree.
        assert [arena.interned() for arena in arenas] == [
            TreeArena.from_tree(tree) for tree in expected
        ]
        assert [_shape(t) for t in parse_forest(text)] == [
            _shape(t) for t in expected
        ]
        for tree, arena in zip(expected, arenas):
            assert mine_arena(arena, MiningParams()).items() == mine_tree(tree)

    try:
        single = oracle.parse_newick(text, name="n")
    except NewickError as error:
        with pytest.raises(NewickError) as caught:
            parse_newick(text, name="n")
        assert str(caught.value) == str(error)
        return
    assert _shape(parse_newick(text, name="n")) == _shape(single)


@settings(max_examples=300, deadline=None)
@given(pieces=st.lists(_FRAGMENTS, max_size=24))
def test_reader_matches_oracle_on_token_soup(pieces):
    _assert_reader_matches_oracle("".join(pieces))


@settings(max_examples=150, deadline=None)
@given(text=st.text(alphabet="(),;:ab'[] \t\x1f0.1e-+{}", max_size=40))
def test_reader_matches_oracle_on_grammar_shaped_text(text):
    _assert_reader_matches_oracle(text)


@settings(max_examples=60, deadline=None)
@given(tree=trees(labels=NASTY_LABELS), cut=st.integers(min_value=0))
def test_reader_matches_oracle_on_written_trees_and_prefixes(tree, cut):
    text = write_newick(tree)
    _assert_reader_matches_oracle(text)
    _assert_reader_matches_oracle(text[: cut % (len(text) + 1)])


def test_reader_matches_oracle_on_snippet_forms_and_every_prefix():
    for text in _SNIPPETS:
        for end in range(len(text) + 1):
            _assert_reader_matches_oracle(text[:end])


def test_reader_handles_deep_nesting_without_recursion():
    from repro.trees.arena import TreeArena
    from repro.trees.newick import parse_arenas

    from tests.trees import newick_oracle as oracle

    depth = 50_000
    text = "(" * depth + "a" + ")x" * depth + ";"
    (arena,) = parse_arenas(text)
    assert len(arena) == depth + 1
    (expected,) = oracle.parse_forest(text)
    assert arena.interned() == TreeArena.from_tree(expected)
    assert _shape(parse_newick(text, name="tree_0")) == _shape(expected)


def test_reader_enforces_the_label_table_cap(monkeypatch):
    from repro.errors import ArenaError
    from repro.trees.arena import LabelTable
    from repro.trees.newick import parse_arenas
    from repro.trees.nexus import parse_nexus_arenas

    monkeypatch.setattr(LabelTable, "max_labels", 2)
    assert len(parse_arenas("(a,(b,a));")[0].table) == 2
    with pytest.raises(ArenaError, match="overflow"):
        parse_arenas("(a,b);(a,(b,c));")
    nexus = "#NEXUS\nBEGIN TREES;\nTRANSLATE 1 a, 2 b, 3 c;\nTREE t = (1,2,3);\nEND;\n"
    with pytest.raises(ArenaError, match="overflow"):
        parse_nexus_arenas(nexus)
