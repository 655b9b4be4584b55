"""Newick tree serialization.

Phylogenies (for example those distributed by TreeBASE, the corpus the
paper mines) are conventionally exchanged in the Newick format::

    ((Gnetum,Welwitschia),Ephedra,(Angiosperms,Outgroup));

This module implements a self-contained reader and writer supporting
the common dialect:

- arbitrary multifurcations and nesting depth (the reader is one loop
  over a token list — no recursion limit);
- unquoted labels, ``'single-quoted'`` labels with ``''`` escapes;
- branch lengths introduced by ``:`` (parsed as floats);
- bracketed comments ``[...]`` (skipped);
- whitespace anywhere between tokens;
- multiple semicolon-terminated trees in one string or file
  (:func:`parse_forest`).

The reader fills :class:`~repro.trees.arena.TreeArena` columns
straight from the token stream (:func:`parse_arenas`): preorder parent
indexes, one label table per tree, branch lengths, node ids equal to
preorder positions.  The mining path consumes those arenas directly;
:func:`parse_newick` and :func:`parse_forest` are the same reader plus
:meth:`~repro.trees.arena.TreeArena.to_tree` for the consumers that
need pointer trees.  :mod:`repro.trees.nexus` feeds each TREE
statement of a NEXUS file through the same tokenizer.

It replaces the Biopython / ete3 dependency suggested by the
reproduction notes, which is unavailable in this offline environment.
"""

from __future__ import annotations

import re
from array import array
from collections.abc import Mapping
from typing import cast

from repro.errors import NewickError
from repro.trees.arena import LabelTable, TreeArena
from repro.trees.tree import Node, Tree

__all__ = [
    "parse_arenas",
    "parse_newick",
    "parse_forest",
    "write_newick",
    "read_newick_file",
]

_NEEDS_QUOTING = set("()[]{}:;,' \t\n\r")

# Whitespace and ``[...]`` comments between tokens.  ``\s`` matches
# exactly the characters ``str.isspace`` accepts.
_FILLER = r"\s*(?:\[[^\]]*\]\s*)*"
# One token per match, filler skipped: an unquoted label (``\t\n\r``
# and space end it; other whitespace such as ``\x1f`` is part of it
# once it has started), punctuation, a ``:`` length with its number, a
# quoted label whose closing quote is not the first half of a ``''``
# escape, any other single character — always an error (``]``, ``{``,
# ``}``, or an unterminated quote or comment) — or, at the end, an
# empty token, so trailing filler is never re-read as a token.
_TOKEN_RE = re.compile(
    _FILLER
    + r"([^()\[\]{}:;,'\t\n\r ]+|[(),;]|:"
    + _FILLER
    + r"[\d+\-.eE]*|'[^']*(?:''[^']*)*'(?!')|.|\Z)",
    re.DOTALL,
)

# Token kinds, keyed by first character; anything else starts a label.
_LABEL, _OPEN, _CLOSE, _COMMA, _SEMI, _LENGTH, _QUOTED, _BAD = range(8)
_KINDS = {
    "(": _OPEN,
    ")": _CLOSE,
    ",": _COMMA,
    ";": _SEMI,
    ":": _LENGTH,
    "'": _QUOTED,
    "[": _BAD,
    "]": _BAD,
    "{": _BAD,
    "}": _BAD,
}

# Reader states: expecting a subtree or leaf (after ``(`` or ``,``);
# just read a leaf label or closed a subtree, so a label (only after
# ``)``) or a length may follow; expecting ``,`` or ``)``; the tree is
# complete; between trees; after the one tree of parse_newick.
_ELEMENT, _LABELED, _CLOSED, _NEXT, _DONE, _BETWEEN, _TRAILING = range(7)

_NAN = float("nan")


def parse_arenas(text: str, name_prefix: str = "tree") -> list[TreeArena]:
    """Read every semicolon-terminated Newick tree in ``text``.

    Each tree becomes one :class:`~repro.trees.arena.TreeArena` with
    its own label table, named ``{name_prefix}_0``, ``_1``, ... in
    input order; node ids are preorder positions.  Each arena equals
    ``TreeArena.from_tree(tree)`` for the matching tree of
    :func:`parse_forest`.

    Raises
    ------
    NewickError
        On any syntax error, with the character position.
    ArenaError
        If one tree carries more distinct labels than a label table
        holds.
    """
    return read_tokens(text, name_prefix=name_prefix)


def parse_newick(text: str, name: str | None = None) -> Tree:
    """Parse a single Newick tree.

    Parameters
    ----------
    text:
        A Newick description.  The trailing semicolon is optional, but
        nothing other than filler may follow the tree.
    name:
        Optional name recorded on the returned :class:`Tree`.

    Returns
    -------
    Tree
        Identification numbers are assigned in the order nodes are
        opened in the input (preorder), starting at 0.

    Raises
    ------
    NewickError
        On any syntax error, with the character position.
    """
    return read_tokens(text, single=True, name=name)[0].to_tree()


def parse_forest(text: str, name_prefix: str = "tree") -> list[Tree]:
    """Parse every semicolon-terminated tree in ``text``.

    Trees are named ``{name_prefix}_0``, ``{name_prefix}_1``, ... in
    input order.
    """
    return [arena.to_tree() for arena in parse_arenas(text, name_prefix)]


def read_newick_file(path: str) -> list[Tree]:
    """Read all trees from a Newick file (one or more per file)."""
    with open(path, encoding="utf-8") as handle:
        return parse_forest(handle.read())


def read_tokens(
    text: str,
    start: int = 0,
    end: int | None = None,
    *,
    single: bool = False,
    name: str | None = None,
    name_prefix: str = "tree",
    translate: Mapping[str, str] | None = None,
) -> list[TreeArena]:
    """Read the Newick trees in ``text[start:end]`` into arenas.

    ``single`` reads exactly one tree, optionally ``;``-terminated and
    named ``name`` (the :func:`parse_newick` grammar); otherwise every
    tree is read and named ``{name_prefix}_{i}``.  ``translate`` maps
    label text to taxon names, as a NEXUS TRANSLATE table does.  Error
    positions count from the start of ``text``.
    """
    if end is None:
        end = len(text)
    tokens = _TOKEN_RE.findall(text, start, end)
    while tokens and not tokens[-1]:
        tokens.pop()
    arenas: list[TreeArena] = []
    kind_of = _KINDS.get
    state = _BETWEEN
    node = -1
    parent: list[int] = []
    labels: list[str | None] = []
    lengths: list[float] = []
    stack: list[int] = []
    for number, token in enumerate(tokens):
        kind = kind_of(token[0], _LABEL)
        if state == _ELEMENT:
            if kind == _OPEN:
                stack.append(len(parent))
                parent.append(stack[-2])
                labels.append(None)
                lengths.append(_NAN)
                continue
            node = len(parent)
            parent.append(stack[-1])
            lengths.append(_NAN)
            if kind == _LABEL:
                labels.append(token)
            elif kind == _QUOTED and token != "'":
                labels.append(_unquote(token))
            elif kind == _LENGTH or kind == _COMMA or kind == _CLOSE:
                labels.append(None)
            elif kind == _SEMI:
                raise _error(text, start, end, number, "unbalanced parentheses")
            else:
                raise _unexpected(text, start, end, number, token, True)
            state = _LABELED
            if kind == _LABEL or kind == _QUOTED:
                continue
        elif state == _CLOSED and (kind == _LABEL or kind == _QUOTED):
            if token == "'":
                raise _unexpected(text, start, end, number, token, True)
            labels[node] = token if kind == _LABEL else _unquote(token)
            state = _LABELED
            continue
        if state == _LABELED or state == _CLOSED:
            state = _NEXT
            if kind == _LENGTH:
                lengths[node] = _length(text, start, end, number, token)
                continue
        if state == _NEXT:
            if stack:
                if kind == _COMMA:
                    state = _ELEMENT
                elif kind == _CLOSE:
                    node = stack.pop()
                    state = _CLOSED
                elif kind == _SEMI:
                    raise _error(text, start, end, number, "unbalanced parentheses")
                else:
                    raise _unexpected(text, start, end, number, token, False)
                continue
            state = _DONE
        elif state == _BETWEEN:
            # A tree starts: ``(``, or a one-node tree such as ``A;``,
            # ``:1;`` or a bare ``;`` (one unlabeled node).
            if kind not in (_OPEN, _LABEL, _QUOTED, _LENGTH, _SEMI) or token == "'":
                raise _unexpected(text, start, end, number, token, True)
            node = 0
            parent.append(-1)
            labels.append(None)
            lengths.append(_NAN)
            if kind == _OPEN:
                stack.append(0)
                state = _ELEMENT
                continue
            if kind == _LENGTH:
                lengths[node] = _length(text, start, end, number, token)
                state = _NEXT
                continue
            if kind != _SEMI:
                labels[node] = token if kind == _LABEL else _unquote(token)
                state = _LABELED
                continue
            state = _DONE
        if state == _DONE:
            if kind != _SEMI:
                if token == "[":
                    raise _unexpected(text, start, end, number, token, False)
                if single:
                    raise _error(
                        text, start, end, number,
                        f"unexpected trailing input {token[0]!r}",
                    )
                raise _error(text, start, end, number, "expected ';' between trees")
            arenas.append(
                _arena(parent, labels, lengths, translate,
                       name if single else f"{name_prefix}_{len(arenas)}")
            )
            parent, labels, lengths = [], [], []
            state = _TRAILING if single else _BETWEEN
        elif state == _TRAILING:
            # parse_newick's one tree and its ';' are done.
            if token == "[":
                raise _unexpected(text, start, end, number, token, False)
            raise _error(
                text, start, end, number,
                f"unexpected trailing input {token[0]!r}",
            )
    if stack:
        raise NewickError("unbalanced parentheses", end)
    if state not in (_BETWEEN, _TRAILING):
        arenas.append(
            _arena(parent, labels, lengths, translate,
                   name if single else f"{name_prefix}_{len(arenas)}")
        )
    elif single and not arenas:
        raise NewickError("empty input", end)
    return arenas


def _arena(
    parent: list[int],
    labels: list[str | None],
    lengths: list[float],
    translate: Mapping[str, str] | None,
    name: str | None,
) -> TreeArena:
    """One tree's columns as an arena with its own label table."""
    texts = cast("set[str]", set(labels) - {None})
    taxa = {text: translate.get(text, text) for text in texts} if translate else {}
    table = LabelTable(taxa.values() if taxa else texts)
    ids: dict[str | None, int] = dict(zip(table.labels, range(len(table))))
    if taxa:
        ids = {text: ids[taxon] for text, taxon in taxa.items()}
    ids[None] = -1
    return TreeArena.from_columns(
        array("i", parent),
        array("i", map(ids.__getitem__, labels)),
        array("d", lengths),
        table,
        name,
    )


def _unquote(token: str) -> str:
    return token[1:-1].replace("''", "'")


def _length(text: str, start: int, end: int, number: int, token: str) -> float:
    """The branch length of a ``:`` token (filler may follow the colon)."""
    digits = token[1:]
    try:
        return float(digits)
    except ValueError:
        pass
    digits = re.sub(_FILLER, "", digits, count=1)
    try:
        return float(digits)
    except ValueError:
        position = _position(text, start, end, number) + len(token) - len(digits)
        stop = position + len(digits)
        if not digits and stop < end and text[stop] == "[":
            raise NewickError("unterminated comment", stop) from None
        # The number runs on through digits ``\d`` does not match (``²``).
        while stop < end and (text[stop].isdigit() or text[stop] in "+-.eE"):
            stop += 1
        digits = text[position:stop]
        raise NewickError(f"invalid branch length {digits!r}", position) from None


def _position(text: str, start: int, end: int, number: int) -> int:
    """Where token ``number`` of ``text[start:end]`` begins."""
    for count, match in enumerate(_TOKEN_RE.finditer(text, start, end)):
        if count == number:
            return match.start(1)
    return end


def _error(text: str, start: int, end: int, number: int, message: str) -> NewickError:
    return NewickError(message, _position(text, start, end, number))


def _unexpected(
    text: str, start: int, end: int, number: int, token: str, label_allowed: bool
) -> NewickError:
    """The error for a token that cannot appear where it does.

    ``label_allowed`` says whether a label may start here, which is
    when an unmatched quote reads as an unterminated label.
    """
    position = _position(text, start, end, number)
    if token == "[":
        return NewickError("unterminated comment", position)
    if token == "'" and label_allowed:
        # Report where the search for the closing quote gave up, past
        # any complete '' escapes.
        position += 1
        while (close := text.find("'", position, end)) != -1:
            position = close + 2
        return NewickError("unterminated quoted label", min(position, end))
    return NewickError(f"unexpected character {token[0]!r}", position)


def _format_label(label: str) -> str:
    """Quote a label when the Newick grammar requires it.

    Quoting triggers on grammar metacharacters, any Unicode whitespace
    (the scanner skips whitespace between tokens, including exotic
    separators like ``\\x1f``), and unprintable characters.
    """
    plain = label and not any(
        char in _NEEDS_QUOTING or char.isspace() or not char.isprintable()
        for char in label
    )
    if plain:
        return label
    escaped = label.replace("'", "''")
    return f"'{escaped}'"


def _format_length(length: float | None, include: bool) -> str:
    if length is None or not include:
        return ""
    if length == int(length):
        return f":{int(length)}"
    return f":{length:g}"


def write_newick(
    tree: Tree,
    include_lengths: bool = True,
    include_internal_labels: bool = True,
    *,
    translate: Mapping[str, str] | None = None,
) -> str:
    """Serialise a tree back to Newick, ending with ``;``.

    Children are written in stored order; since the trees are unordered,
    round-tripping preserves identity up to
    :meth:`~repro.trees.tree.Tree.canonical_form`.  Labels found in
    ``translate`` are written as their value (the NEXUS TRANSLATE
    numbering).
    """
    if tree.root is None:
        return ";"
    rename = translate or {}
    pieces: list[str] = []
    # Iterative serialisation: emit open/close markers via a work stack.
    stack: list[tuple[Node, str]] = [(tree.root, "visit")]
    while stack:
        node, action = stack.pop()
        if action == "text":
            pieces.append(
                node_text(node, include_lengths, include_internal_labels, rename)
            )
            continue
        if action == "comma":
            pieces.append(",")
            continue
        if node.is_leaf:
            label = node.label
            text = "" if label is None else _format_label(rename.get(label, label))
            pieces.append(text + _format_length(node.length, include_lengths))
            continue
        pieces.append("(")
        stack.append((node, "text"))
        children = node.children
        for position, child in enumerate(reversed(children)):
            stack.append((child, "visit"))
            if position != len(children) - 1:
                stack.append((child, "comma"))
    return "".join(pieces) + ";"


def node_text(
    node: Node,
    include_lengths: bool,
    include_internal_labels: bool,
    translate: Mapping[str, str] | None = None,
) -> str:
    """The closing text of an internal node: ``)label:length``."""
    label = ""
    if include_internal_labels and node.label is not None:
        text = node.label
        if translate:
            text = translate.get(text, text)
        label = _format_label(text)
    return ")" + label + _format_length(node.length, include_lengths)
