"""NEXUS tree-file support.

TreeBASE — the corpus the paper mines — distributes its phylogenies as
NEXUS files.  This module reads and writes the subset of NEXUS needed
for tree exchange: the ``TREES`` block with its optional ``TRANSLATE``
table::

    #NEXUS
    BEGIN TREES;
        TRANSLATE
            1 Gnetum,
            2 Welwitschia,
            3 Ephedra;
        TREE tree_1 = [&R] ((1,2),3);
        TREE tree_2 = ((2,1),3);
    END;

Supported: any number of TREES blocks, ``[...]`` comments (including
the ``[&R]``/``[&U]`` rooting annotations, which are skipped), quoted
names, case-insensitive keywords, and the TRANSLATE indirection
(labels in the Newick bodies are mapped through the table).  Other
NEXUS blocks (TAXA, CHARACTERS, ...) are skipped.

The document is split into ``;``-terminated statements by one
quote- and comment-aware pattern, so a quoted name may hold ``;``,
``,`` or brackets (``'a;b'``, ``'x, y'``, ``'c[1]'``).  The TREE
bodies of the whole document, each with the TRANSLATE map in force at
its statement, go to :func:`repro.trees.newick.read_forest` in one
call, which fills one :class:`~repro.trees.arena.ForestArena` — one
label table over every tree's taxa (:func:`parse_nexus_arenas`);
:func:`read_arenas` reads either format from a file, sniffing the
``#NEXUS`` header.  Errors are reported in document order: a malformed
tree before a malformed statement is the one raised.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from itertools import count, repeat

from repro.errors import NewickError
from repro.trees.arena import ForestArena
from repro.trees.newick import parse_arenas, read_forest, read_text, write_newick
from repro.trees.tree import Tree

__all__ = [
    "parse_nexus",
    "parse_nexus_arenas",
    "write_nexus",
    "read_nexus_file",
    "read_arenas",
]

_QUOTED = r"'[^']*(?:''[^']*)*'(?!')"
_FILLER = r"\s*(?:\[[^\]]*\]\s*)*"
_HEADER_RE = re.compile(rf"{_FILLER}#NEXUS", re.IGNORECASE)
# A statement runs to the next ``;`` outside quotes and comments; the
# match stops early at an unterminated quote or comment.
_STATEMENT_RE = re.compile(rf"(?:[^;'\[]+|{_QUOTED}|\[[^\]]*\])*")
# The first two words of a statement, such as ``BEGIN TREES``.
_KEYWORDS_RE = re.compile(rf"{_FILLER}(\w*){_FILLER}(\w*)")
# One TRANSLATE entry: a key, then the name (one or more words, kept as
# written), then ``,`` or the end of the statement.
_WORD = rf"(?:{_QUOTED}|[^\s\[',;]+)"
_ENTRY_RE = re.compile(
    rf"{_FILLER}({_WORD}){_FILLER}((?:{_WORD}(?:{_FILLER}{_WORD})*)?){_FILLER}(?:,|\Z)"
)
# ``TREE [*] name =``, where ``*`` marks the default tree.
_TREE_RE = re.compile(
    rf"{_FILLER}U?TREE{_FILLER}(?:\*{_FILLER})?({_QUOTED}|[^\s\['=,]+){_FILLER}=",
    re.IGNORECASE,
)


def parse_nexus_arenas(text: str) -> ForestArena:
    """Read every tree in the TREES block(s) of a NEXUS document.

    One forest arena with a tree per TREE statement, named after it,
    with TRANSLATE keys in the Newick body replaced by their taxon
    names and one label table over the taxa of every tree.

    Raises
    ------
    NewickError
        If the document has no ``#NEXUS`` header, no TREES block, an
        unterminated quote, comment or TREES block, or a malformed
        statement or tree.
    ArenaError
        If the trees carry more distinct labels in total than a label
        table holds.
    """
    header = _HEADER_RE.match(text)
    if header is None:
        raise NewickError("missing #NEXUS header")
    bodies: list[tuple[int, int]] = []
    names: list[str] = []
    maps: list[dict[str, str]] = []
    translate: dict[str, str] | None = None  # None outside TREES blocks
    seen_block = False
    try:
        for start, stop in _statements(text, header.end()):
            words = _KEYWORDS_RE.match(text, start, stop)
            keyword, second = words.group(1, 2) if words else ("", "")
            keyword = keyword.upper()
            if translate is None:
                if keyword == "BEGIN" and second.upper() == "TREES":
                    translate = {}
                    seen_block = True
            elif keyword in ("END", "ENDBLOCK"):
                translate = None
            elif keyword == "TRANSLATE":
                translate = _translate(text, start, stop)
            elif keyword in ("TREE", "UTREE"):
                head = _TREE_RE.match(text, start, stop)
                if head is None:
                    raise NewickError("malformed TREE statement", start)
                # The body keeps its ``;``: a bare ``;`` is a one-node tree.
                bodies.append((head.end(), min(stop + 1, len(text))))
                names.append(_unquote(head.group(1)))
                maps.append(translate)
    except NewickError:
        # A malformed tree before this statement is the first error.
        read_forest(text, bodies, names, maps)
        raise
    arenas = read_forest(text, bodies, names, maps)
    if translate is not None:
        raise NewickError("unterminated TREES block (no END;)", len(text))
    if not seen_block:
        raise NewickError("no TREES block found")
    if not arenas:
        raise NewickError("TREES block contains no TREE statements")
    return arenas


def parse_nexus(text: str) -> list[Tree]:
    """Parse every tree in the TREES block(s) of a NEXUS document.

    Tree names become :attr:`Tree.name`; TRANSLATE keys in the Newick
    bodies are replaced by their taxon names.

    Raises
    ------
    NewickError
        If the document has no ``#NEXUS`` header, no TREES block, or a
        malformed tree statement.
    """
    return [arena.to_tree() for arena in parse_nexus_arenas(text)]


def read_nexus_file(path: str) -> list[Tree]:
    """Read all trees from a NEXUS file."""
    return parse_nexus(read_text(path))


def read_arenas(path: str) -> ForestArena:
    """Read every tree of a Newick or NEXUS file into one forest arena.

    The format is sniffed by a ``#NEXUS`` header in the first 64
    characters; Newick trees are named ``tree_0``, ``tree_1``, ...
    A file that is not UTF-8 raises :class:`~repro.errors.NewickError`
    naming the byte offset of its first bad byte.
    """
    text = read_text(path)
    if text[:64].lstrip().upper().startswith("#NEXUS"):
        return parse_nexus_arenas(text)
    return parse_arenas(text)


def _statements(text: str, position: int) -> Iterator[tuple[int, int]]:
    """``(start, stop)`` of each ``;``-terminated statement."""
    end = len(text)
    while position < end:
        match = _STATEMENT_RE.match(text, position)
        stop = position if match is None else match.end()
        if stop < end and text[stop] != ";":
            what = "comment" if text[stop] == "[" else "quoted token"
            raise NewickError(f"unterminated NEXUS {what}", stop)
        yield position, stop
        position = stop + 1


def _unquote(word: str) -> str:
    # Underscores in unquoted tokens are kept literal (TreeBASE taxon
    # names such as ``Mus_musculus`` round-trip unchanged).
    if len(word) >= 2 and word[0] == "'" and word[-1] == "'":
        return word[1:-1].replace("''", "'")
    return word


def _translate(text: str, start: int, stop: int) -> dict[str, str]:
    """The ``key -> taxon`` map of a TRANSLATE statement.

    Entries are ``key name`` pairs separated by commas; a name of
    several unquoted words is kept as written.  A statement with no
    quote and no comment is split on commas and whitespace; the entry
    pattern reads the others.
    """
    keyword = _KEYWORDS_RE.match(text, start, stop)
    begin = start if keyword is None else keyword.end(1)
    body = text[begin:stop]
    table: dict[str, str] = {}
    if "'" in body or "[" in body:
        for key, name in _ENTRY_RE.findall(body):
            if not name:
                raise NewickError(f"malformed TRANSLATE entry {key!r}", start)
            table[_unquote(key)] = _unquote(name)
        return table
    # Whitespace-only pieces (after a trailing comma) are skipped, as
    # the entry pattern skips them.
    for words in map(str.split, body.split(","), repeat(None), repeat(1)):
        if len(words) == 2:
            table[words[0]] = words[1].rstrip()
        elif words:
            raise NewickError(f"malformed TRANSLATE entry {words[0]!r}", start)
    return table


def write_nexus(trees: list[Tree], translate: bool = True) -> str:
    """Serialise trees into a NEXUS document.

    Parameters
    ----------
    translate:
        When true (default), emit a TRANSLATE table over the union of
        leaf labels and reference taxa by number — the compact style
        TreeBASE uses.  Numbers equal to an internal label are skipped,
        so reading the file back never renames an internal node.  When
        false, labels are written inline.
    """
    lines = ["#NEXUS", "BEGIN TREES;"]
    number_of: dict[str, str] = {}
    if translate:
        leaves = {label for tree in trees for label in tree.leaf_labels()}
        taxa = sorted(leaves)
        taken = {
            node.label
            for tree in trees
            for node in tree.internal_nodes()
            if node.label is not None and node.label not in leaves
        }
        numbers = (number for number in map(str, count(1)) if number not in taken)
        number_of = dict(zip(taxa, numbers))
        if taxa:
            lines.append("    TRANSLATE")
            entries = [
                f"        {number} {_quote_if_needed(name)}"
                for name, number in number_of.items()
            ]
            lines.append(",\n".join(entries) + ";")
    for position, tree in enumerate(trees):
        name = tree.name or f"tree_{position}"
        body = write_newick(tree, include_lengths=True, translate=number_of)
        lines.append(f"    TREE {_quote_if_needed(name)} = [&R] {body}")
    lines.append("END;")
    return "\n".join(lines) + "\n"


def _quote_if_needed(name: str) -> str:
    if re.fullmatch(r"[\w.\-|]+", name):
        return name
    return "'" + name.replace("'", "''") + "'"
