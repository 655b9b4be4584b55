"""Differential fuzzing of the NEXUS reader and its TRANSLATE tables.

The reference reading runs the statements in document order, reads
each TRANSLATE with the entry pattern alone and each TREE body with the
character scanner of ``tests/trees/newick_oracle.py``, one tree at a
time.  The reader of :mod:`repro.trees.nexus` must fail with the same
message and position, or return the same trees, names and taxa, which
the packed kernel and the reference miner mine alike.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fastmine import mine_arena
from repro.core.params import MiningParams
from repro.core.single_tree import mine_tree
from repro.errors import ArenaError, NewickError
from repro.trees import nexus
from repro.trees.arena import LabelTable, TreeArena
from repro.trees.nexus import parse_nexus_arenas

from tests.trees import newick_oracle as oracle


def regex_translate(text: str, start: int, stop: int) -> dict[str, str]:
    """A TRANSLATE statement read by the entry pattern alone."""
    keyword = nexus._KEYWORDS_RE.match(text, start, stop)
    begin = start if keyword is None else keyword.end(1)
    table: dict[str, str] = {}
    for key, name in nexus._ENTRY_RE.findall(text, begin, stop):
        if not name:
            raise NewickError(f"malformed TRANSLATE entry {key!r}", start)
        table[nexus._unquote(key)] = nexus._unquote(name)
    return table


def reference_nexus(text: str):
    """The reference reading: statement after statement, tree by tree."""
    header = nexus._HEADER_RE.match(text)
    if header is None:
        raise NewickError("missing #NEXUS header")
    trees = []
    translate = None
    seen_block = False
    for start, stop in nexus._statements(text, header.end()):
        words = nexus._KEYWORDS_RE.match(text, start, stop)
        keyword, second = words.group(1, 2) if words else ("", "")
        keyword = keyword.upper()
        if translate is None:
            if keyword == "BEGIN" and second.upper() == "TREES":
                translate = {}
                seen_block = True
        elif keyword in ("END", "ENDBLOCK"):
            translate = None
        elif keyword == "TRANSLATE":
            translate = regex_translate(text, start, stop)
        elif keyword in ("TREE", "UTREE"):
            head = nexus._TREE_RE.match(text, start, stop)
            if head is None:
                raise NewickError("malformed TREE statement", start)
            body = head.end()
            try:
                tree = oracle.parse_newick(
                    text[body:min(stop + 1, len(text))],
                    name=nexus._unquote(head.group(1)),
                )
            except NewickError as error:
                message = str(error).rsplit(" (at character ", 1)[0]
                raise NewickError(message, body + error.position) from None
            for node in tree.preorder():
                if node.label is not None:
                    node.label = translate.get(node.label, node.label)
            trees.append(tree)
    if translate is not None:
        raise NewickError("unterminated TREES block (no END;)", len(text))
    if not seen_block:
        raise NewickError("no TREES block found")
    if not trees:
        raise NewickError("TREES block contains no TREE statements")
    return trees


def assert_reader_matches_reference(text: str) -> None:
    try:
        expected = reference_nexus(text)
    except NewickError as error:
        with pytest.raises(NewickError) as caught:
            parse_nexus_arenas(text)
        assert str(caught.value) == str(error)
        return
    arenas = parse_nexus_arenas(text)
    assert len({id(arena.table) for arena in arenas}) == 1
    assert [arena.name for arena in arenas] == [tree.name for tree in expected]
    assert [arena.interned() for arena in arenas] == [
        TreeArena.from_tree(tree) for tree in expected
    ]
    for tree, arena in zip(expected, arenas):
        assert mine_arena(arena, MiningParams()).items() == mine_tree(tree)


KEYS = ["1", "2", "3", "a", "'k 1'", "'2'", "x[c]"]
NAMES = [
    "Homo sapiens", "Mus", "'quoted, name'", "'it''s'", "Pan  troglodytes",
    "Rattus\u2003norvegicus", "b", "multi word name", "n [c] x", "'a;b'",
    "Canis\xa0lupus\x1f",
]
BODIES = [
    "(1,2,(3,a));", "((1:0.5,'k 1'),x)y;", "(2,(1,3));", "[&R] (a,(1,'2'));",
    ";", "1;", "((1,2)3:1,a)'q''r';", "(Mus,(a,b));",
]
BROKEN_BODIES = ["(1,2", "(1,,2));", "(1,2) (3);", "(a,'b);"]
SEPARATORS = [",", ", ", ",\n    ", " ,", "\xa0,\u2003", ",\u2028", ", [note] "]


@st.composite
def translate_statements(draw) -> str:
    entries = draw(st.lists(
        st.tuples(
            st.sampled_from(KEYS),
            st.sampled_from(NAMES * 4 + [""]),
        ),
        max_size=5,
    ))
    parts = [f"{key} {name}" for key, name in entries]
    glue = [draw(st.sampled_from(SEPARATORS)) for _ in parts]
    body = "".join(part + sep for part, sep in zip(parts, glue))
    if parts and draw(st.booleans()):
        body = body[: -len(glue[-1])]  # no separator after the last entry
    return f"TRANSLATE\n    {body}"


@st.composite
def tree_statements(draw) -> str:
    keyword = draw(st.sampled_from(["TREE", "tree", "UTREE", "TREE *"]))
    name = draw(st.sampled_from(["t1", "'my tree'", "b2", "'t;3'"]))
    return f"{keyword} {name} = {draw(st.sampled_from(BODIES * 4 + BROKEN_BODIES))}"


@st.composite
def nexus_documents(draw) -> str:
    blocks = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            blocks.append("BEGIN TAXA;\n DIMENSIONS NTAX=3;\n TAXLABELS a 'b c';\nEND;")
            continue
        statements = draw(st.lists(
            st.one_of(translate_statements(), tree_statements(), tree_statements()),
            max_size=5,
        ))
        body = "".join(
            statement if statement.endswith(";") else statement + ";"
            for statement in ("\n" + statement for statement in statements)
        )
        end = draw(st.sampled_from(["\nEND;", "\nENDBLOCK;", "\nend;"] * 3 + [""]))
        blocks.append("BEGIN TREES;" + body + end)
    text = "#NEXUS\n" + "\n".join(blocks) + "\n"
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        text = text[: draw(st.integers(min_value=5, max_value=len(text)))]
    return text


@settings(max_examples=200, deadline=None)
@given(text=nexus_documents())
def test_reader_matches_reference_on_generated_documents(text):
    assert_reader_matches_reference(text)


@pytest.mark.parametrize("text", [
    # Several TREES blocks, each with its own TRANSLATE.
    "#NEXUS\nBEGIN TREES; TRANSLATE 1 a, 2 b; TREE s = (1,2); END;\n"
    "BEGIN TREES; TRANSLATE 1 c, 2 d; TREE t = (1,(2,1)); END;\n",
    # A TRANSLATE after a TREE renames only the later trees.
    "#NEXUS\nBEGIN TREES; TREE s = (1,2); TRANSLATE 1 'x y', 2 b;\n"
    "TREE t = (1,2); ENDBLOCK;\n",
    # A skipped TAXA block, then a bad tree before a bad statement.
    "#NEXUS\nBEGIN TAXA; TAXLABELS a b; END;\nBEGIN TREES;\n"
    "TREE s = (a,b; TREE = (a); END;\n",
    # A bad statement after good trees.
    "#NEXUS\nBEGIN TREES; TREE s = (a,b); TRANSLATE 1; END;\n",
])
def test_reader_matches_reference_on_hand_written_documents(text):
    assert_reader_matches_reference(text)


@settings(max_examples=200, deadline=None)
@given(statement=translate_statements(), prefix=st.sampled_from(["", "  [c] "]))
def test_split_translate_matches_the_entry_pattern(statement, prefix):
    text = prefix + statement
    try:
        expected = regex_translate(text, 0, len(text))
    except NewickError as error:
        with pytest.raises(NewickError) as caught:
            nexus._translate(text, 0, len(text))
        assert str(caught.value) == str(error)
        return
    assert nexus._translate(text, 0, len(text)) == expected


def test_labels_over_the_cap_in_total_fail_typed(monkeypatch, tmp_path, capsys):
    from repro.cli import main

    monkeypatch.setattr(LabelTable, "max_labels", 2)
    # Each tree holds two labels; the file holds three.
    text = "#NEXUS\nBEGIN TREES;\nTREE s = (a,b);\nTREE t = (b,c);\nEND;\n"
    with pytest.raises(ArenaError, match="overflow"):
        parse_nexus_arenas(text)
    path = tmp_path / "forest.nex"
    path.write_text(text, encoding="utf-8")
    assert main(["frequent", str(path)]) == 1
    assert "label table overflow" in capsys.readouterr().err
