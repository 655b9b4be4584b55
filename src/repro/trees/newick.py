"""Newick tree serialization.

Phylogenies (for example those distributed by TreeBASE, the corpus the
paper mines) are conventionally exchanged in the Newick format::

    ((Gnetum,Welwitschia),Ephedra,(Angiosperms,Outgroup));

This module implements a self-contained reader and writer supporting
the common dialect:

- arbitrary multifurcations and nesting depth (the reader works on
  whole token arrays — no recursion limit);
- unquoted labels, ``'single-quoted'`` labels with ``''`` escapes;
- branch lengths introduced by ``:`` (parsed as floats);
- bracketed comments ``[...]`` (skipped);
- whitespace anywhere between tokens;
- multiple semicolon-terminated trees in one string or file
  (:func:`parse_forest`).

The reader (:func:`read_forest`) tokenizes with one regular
expression, then classifies, validates and links the tokens with
array operations: kind transitions and a ``(``/``)`` depth cumsum
check the grammar, and one ``searchsorted`` finds every node's parent.
It fills one :class:`~repro.trees.arena.ForestArena` per input —
concatenated preorder columns, one label table for the whole input,
node ids equal to preorder positions — whose per-tree
:class:`~repro.trees.arena.TreeArena` slices the mining path consumes
directly.  Input that fails a bulk check is scanned token by token
only to report the first error and its position.
:func:`parse_newick` and :func:`parse_forest` are the same reader plus
:meth:`~repro.trees.arena.TreeArena.to_tree` for the consumers that
need pointer trees; :mod:`repro.trees.nexus` reads all the TREE
statements of a NEXUS file in one call.

It replaces the Biopython / ete3 dependency suggested by the
reproduction notes, which is unavailable in this offline environment.
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Sequence
from operator import itemgetter

import numpy as np

from repro.errors import NewickError
from repro.trees.arena import ForestArena, LabelTable, tree_columns
from repro.trees.tree import Node, Tree

__all__ = [
    "parse_arenas",
    "read_forest",
    "parse_newick",
    "parse_forest",
    "write_newick",
    "read_newick_file",
    "read_text",
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
# The kind of a token by its first code point; slot 128 stands for
# every non-ASCII one.
_KIND_OF = np.array(
    [_KINDS.get(chr(code), _LABEL) for code in range(128)] + [_LABEL], np.int8
)
# The kinds that may follow each kind.  A tree starts as if after a
# ``;``; whether ``,``, ``)`` and ``;`` sit at the right depth is
# checked separately.
_SUCCESSORS = {
    _OPEN: (_OPEN, _LABEL, _QUOTED, _LENGTH, _COMMA, _CLOSE),
    _COMMA: (_OPEN, _LABEL, _QUOTED, _LENGTH, _COMMA, _CLOSE),
    _LABEL: (_LENGTH, _COMMA, _CLOSE, _SEMI),
    _QUOTED: (_LENGTH, _COMMA, _CLOSE, _SEMI),
    _LENGTH: (_COMMA, _CLOSE, _SEMI),
    _CLOSE: (_LABEL, _QUOTED, _LENGTH, _COMMA, _CLOSE, _SEMI),
    _SEMI: (_OPEN, _LABEL, _QUOTED, _LENGTH, _SEMI),
}
_FOLLOWS = np.array(
    [[after in _SUCCESSORS.get(before, ()) for after in range(8)]
     for before in range(8)]
)
# The depth each kind needs after it: a ``,`` sits inside a subtree.
_MIN_DEPTH = np.array([int(kind == _COMMA) for kind in range(8)], np.int32)
# Which previous kinds make the next token start a node.
_STARTS_NODE = np.array([kind in (_OPEN, _COMMA, _SEMI) for kind in range(8)])
# Statements read per bulk pass: bounds the reader's transient memory.
_BLOCK = 32

# Reader states of the error search: expecting a subtree or leaf (after
# ``(`` or ``,``); just read a leaf label or closed a subtree, so a
# label (only after ``)``) or a length may follow; expecting ``,`` or
# ``)``; the tree is complete; between trees; after the one tree of
# parse_newick.
_ELEMENT, _LABELED, _CLOSED, _NEXT, _DONE, _BETWEEN, _TRAILING = range(7)


def parse_arenas(text: str, name_prefix: str = "tree") -> ForestArena:
    """Read every semicolon-terminated Newick tree in ``text``.

    One :class:`~repro.trees.arena.ForestArena`: a
    :class:`~repro.trees.arena.TreeArena` per tree, named
    ``{name_prefix}_0``, ``_1``, ... in input order, all sharing one
    label table; node ids are preorder positions.  Each arena equals
    ``TreeArena.from_tree(tree)`` for the matching tree of
    :func:`parse_forest` after relabelling
    (:meth:`~repro.trees.arena.TreeArena.interned`).

    Raises
    ------
    NewickError
        On any syntax error, with the character position.
    ArenaError
        If the trees carry more distinct labels in total than a label
        table holds.
    """
    return read_forest(text, name_prefix=name_prefix)


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
    return read_forest(text, [(0, len(text))], [name])[0].to_tree()


def parse_forest(text: str, name_prefix: str = "tree") -> list[Tree]:
    """Parse every semicolon-terminated tree in ``text``.

    Trees are named ``{name_prefix}_0``, ``{name_prefix}_1``, ... in
    input order.
    """
    return [arena.to_tree() for arena in parse_arenas(text, name_prefix)]


def read_text(path: str) -> str:
    """The text of a tree file, read as UTF-8 with universal newlines.

    A file that is not UTF-8 raises :class:`~repro.errors.NewickError`
    naming the first bad byte and its byte offset.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError:
            pass
    # A text read reports the offset within one buffered chunk only.
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as error:
        raise NewickError(
            f"{path}: not UTF-8 text: byte 0x{data[error.start]:02x} "
            f"at byte offset {error.start}"
        ) from None
    raise NewickError(f"{path}: not UTF-8 text")


def read_newick_file(path: str) -> list[Tree]:
    """Read all trees from a Newick file (one or more per file)."""
    return parse_forest(read_text(path))


def read_forest(
    text: str,
    bodies: Sequence[tuple[int, int]] | None = None,
    names: Sequence[str | None] = (),
    translate: Sequence[Mapping[str, str] | None] = (),
    name_prefix: str = "tree",
) -> ForestArena:
    """Read Newick trees from ``text`` into one forest arena.

    Without ``bodies`` every tree of ``text`` is read and named
    ``{name_prefix}_{i}``.  Otherwise each ``(start, stop)`` body holds
    exactly one tree, optionally ``;``-terminated (the
    :func:`parse_newick` grammar), named by ``names``; ``translate``
    maps each body's label text to taxon names, as a NEXUS TRANSLATE
    table does.  Error positions count from the start of ``text``.
    """
    if bodies is None:
        blocks: list[range | None] = [None]
    else:
        blocks = [range(at, min(at + _BLOCK, len(bodies)))
                  for at in range(0, len(bodies), _BLOCK)]
    columns: list[tuple[np.ndarray, ...]] = []
    label_nodes: list[np.ndarray] = []
    texts: list[str] = []
    nodes = 0
    for block in blocks:
        if block is None:
            tokens = _tokens(text, 0, len(text))
            starts = None
            if not tokens:
                continue
        else:
            tokens, offsets = [], []
            for body in block:
                offsets.append(len(tokens))
                tokens += _tokens(text, *bodies[body])
            starts = np.asarray(offsets)
        read = _structure(tokens, starts)
        if read is None:
            spans = [(0, len(text))] if block is None else [bodies[b] for b in block]
            for start, stop in spans:
                _raise_first_error(text, start, stop, block is not None)
            raise AssertionError("bulk checks rejected a valid tree")
        parent, lengths, label_at, quoted, label_node = read
        found = [tokens[at] for at in label_at.tolist()]
        del tokens
        for at in quoted.nonzero()[0].tolist():
            found[at] = _unquote(found[at])
        if translate:
            owners = np.searchsorted(starts, label_at, "right") - 1
            cuts = np.searchsorted(owners, np.arange(len(block) + 1)).tolist()
            for number, body in enumerate(block):
                taxa = translate[body]
                if taxa:
                    run = slice(cuts[number], cuts[number + 1])
                    found[run] = map(taxa.get, found[run], found[run])
        texts += found
        label_nodes.append(label_node + nodes)
        columns.append((*tree_columns(parent), lengths))
        nodes += parent.size
    if not columns:
        columns.append((*tree_columns(np.empty(0, np.int32)), np.empty(0)))
    table = LabelTable(texts)
    label = np.full(nodes, -1, np.int32)
    if texts:
        label[np.concatenate(label_nodes)] = table.intern_many(texts)
    del texts, label_nodes
    # Concatenate column by column, dropping each one's parts as it goes.
    parts = list(zip(*columns))
    del columns
    parent, first_child, next_sibling, node_ids, lengths = (
        np.concatenate(parts.pop(0)) for _ in range(5)
    )
    if bodies is None:
        names = [f"{name_prefix}_{number}"
                 for number in range(int(np.count_nonzero(parent < 0)))]
    return ForestArena(
        table, names, parent, first_child, next_sibling, label, node_ids, lengths
    )


def _tokens(text: str, start: int, end: int) -> list[str]:
    """The tokens of ``text[start:end]``, without the trailing empty one."""
    tokens = _TOKEN_RE.findall(text, start, end)
    while tokens and not tokens[-1]:
        tokens.pop()
    return tokens


def _structure(
    tokens: list[str], starts: np.ndarray | None
) -> tuple[np.ndarray, ...] | None:
    """The tree structure of a token list, or ``None`` if it is invalid.

    ``starts`` are the first tokens of the one-tree bodies, or ``None``
    when ``;`` separates the trees.  Every check runs over whole
    arrays: no lone-quote token, only allowed kind transitions (a bad
    token follows nothing), a ``(``/``)`` depth that never goes
    negative, is at least 1 at each ``,`` and 0 at each ``;`` and tree
    end, and a number in every length.  Every ``(`` opens a node, every
    token after ``(``, ``,`` or a tree start that is not ``(`` makes a
    leaf (or a one-node tree), and a node's parent is the last ``(``
    before it one level up — found, like the ``(`` that each ``)``
    closes, by one ``searchsorted`` over ``(depth, position)``.

    Returns the preorder ``parent`` column across the trees (``-1`` at
    each root), the ``lengths`` column, the label tokens' positions,
    which of them are quoted, and their nodes.
    """
    count = len(tokens)
    if starts is not None:
        stops = np.append(starts[1:], count) - 1
        if (stops < starts).any():
            return None
    firsts = "".join(map(itemgetter(0), tokens)).encode("utf-32-le")
    kind = _KIND_OF[np.minimum(np.frombuffer(firsts, np.uint32), 128)]
    del firsts
    if any(len(tokens[at]) == 1 for at in (kind == _QUOTED).nonzero()[0].tolist()):
        return None  # a lone quote
    prev = np.empty(count, np.int8)
    prev[0] = _SEMI
    prev[1:] = kind[:-1]
    if starts is not None:
        prev[starts] = _SEMI
    if not _FOLLOWS[prev, kind].all():
        return None
    opens = kind == _OPEN
    step = opens.astype(np.int32)
    step -= kind == _CLOSE
    depth = step.cumsum(dtype=np.int32)
    semis = kind == _SEMI
    if (depth < _MIN_DEPTH[kind]).any() or depth[-1] or depth[semis].any():
        return None
    if starts is not None:
        if depth[stops].any() or np.count_nonzero(semis) > np.count_nonzero(
            semis[stops]
        ):
            return None
    depth -= step  # now the depth before each token
    del step, semis
    makes = opens | _STARTS_NODE[prev]
    makers = makes.nonzero()[0]
    node = makes.cumsum(dtype=np.int32) - 1
    open_at = opens.nonzero()[0]
    by_level = np.sort((depth[open_at].astype(np.int64) << 40) | open_at)
    open_at = by_level & ((1 << 40) - 1)

    def enclosing(at: np.ndarray) -> np.ndarray:
        """The nodes of the ``(`` enclosing each token at ``at``."""
        keys = ((depth[at].astype(np.int64) - 1) << 40) | at
        return node[open_at[by_level.searchsorted(keys) - 1]]

    parent = np.full(makers.size, -1, np.int32)
    inner = depth[makers] > 0
    parent[inner] = enclosing(makers[inner])
    owner = np.full(count, -1, np.int32)
    owner[makers] = np.arange(makers.size, dtype=np.int32)
    closes = (kind == _CLOSE).nonzero()[0]
    owner[closes] = enclosing(closes)
    label_at = ((kind == _LABEL) | (kind == _QUOTED)).nonzero()[0]
    inside = label_at[prev[label_at] == _CLOSE]
    owner[inside] = owner[inside - 1]
    length_at = (kind == _LENGTH).nonzero()[0]
    after = length_at[~makes[length_at]]
    owner[after] = owner[after - 1]
    lengths = np.full(makers.size, np.nan)
    try:
        lengths[owner[length_at]] = [
            _length_value(tokens[at]) for at in length_at.tolist()
        ]
    except ValueError:
        return None
    return parent, lengths, label_at, kind[label_at] == _QUOTED, owner[label_at]


def _raise_first_error(text: str, start: int, end: int, single: bool) -> None:
    """Raise the first syntax error of the Newick trees in ``text[start:end]``.

    The token-by-token search behind the bulk checks of
    :func:`_structure`: ``single`` asks for the :func:`parse_newick`
    grammar (one tree, ``;`` optional).  Returns only if there is no
    error.
    """
    tokens = _tokens(text, start, end)
    kind_of = _KINDS.get
    state = _BETWEEN
    depth = 0
    for number, token in enumerate(tokens):
        kind = kind_of(token[0], _LABEL)
        if state == _ELEMENT:
            if kind == _OPEN:
                depth += 1
                continue
            if kind == _SEMI:
                raise _error(text, start, end, number, "unbalanced parentheses")
            if kind not in (_LABEL, _QUOTED, _LENGTH, _COMMA, _CLOSE) or token == "'":
                raise _unexpected(text, start, end, number, token, True)
            state = _LABELED
            if kind == _LABEL or kind == _QUOTED:
                continue
        elif state == _CLOSED and (kind == _LABEL or kind == _QUOTED):
            if token == "'":
                raise _unexpected(text, start, end, number, token, True)
            state = _LABELED
            continue
        if state == _LABELED or state == _CLOSED:
            state = _NEXT
            if kind == _LENGTH:
                _length(text, start, end, number, token)
                continue
        if state == _NEXT:
            if depth:
                if kind == _COMMA:
                    state = _ELEMENT
                elif kind == _CLOSE:
                    depth -= 1
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
            if kind == _OPEN:
                depth = 1
                state = _ELEMENT
                continue
            if kind == _LENGTH:
                _length(text, start, end, number, token)
                state = _NEXT
                continue
            if kind != _SEMI:
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
            state = _TRAILING if single else _BETWEEN
        elif state == _TRAILING:
            # parse_newick's one tree and its ';' are done.
            if token == "[":
                raise _unexpected(text, start, end, number, token, False)
            raise _error(
                text, start, end, number,
                f"unexpected trailing input {token[0]!r}",
            )
    if depth:
        raise NewickError("unbalanced parentheses", end)
    if single and state == _BETWEEN:
        raise NewickError("empty input", end)


def _unquote(token: str) -> str:
    return token[1:-1].replace("''", "'")


def _length_value(token: str) -> float:
    """The branch length of a ``:`` token (filler may follow the colon).

    Raises ``ValueError`` if it holds no number.
    """
    try:
        return float(token[1:])
    except ValueError:
        return float(re.sub(_FILLER, "", token[1:], count=1))


def _length(text: str, start: int, end: int, number: int, token: str) -> None:
    """Raise the error of a ``:`` token that holds no number."""
    try:
        _length_value(token)
        return
    except ValueError:
        pass
    digits = re.sub(_FILLER, "", token[1:], count=1)
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
