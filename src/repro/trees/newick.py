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

The reader (:func:`read_forest`) tokenizes a whole input, or a block
of NEXUS tree bodies, with one scan over its code points (a table
lookup classifies them; only quotes and ``[`` are stepped over one by
one), then validates and links the tokens with array operations: kind
transitions and a ``(``/``)`` depth cumsum check the grammar, and one
sort of the nodes by depth finds every parent, first child and next
sibling.  It makes one string per distinct label text, not per label.
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

import sys
from collections.abc import Mapping, Sequence
from typing import NamedTuple

import numpy as np

from repro.errors import NewickError
from repro.trees.arena import ForestArena, LabelTable
from repro.trees.tree import Node, Tree

__all__ = [
    "parse_arenas",
    "read_forest",
    "parse_newick",
    "parse_forest",
    "write_newick",
    "format_label",
    "read_newick_file",
    "read_text",
]

_NEEDS_QUOTING = set("()[]{}:;,' \t\n\r")

# Token kinds: a token's kind is the class of its first character (a
# quoted label is a label).
_LABEL, _OPEN, _CLOSE, _COMMA, _SEMI, _LENGTH, _BAD = range(7)
_PUNCTUATION = {
    "(": _OPEN,
    ")": _CLOSE,
    ",": _COMMA,
    ";": _SEMI,
    ":": _LENGTH,
    "'": _LABEL,
    "[": _BAD,
    "]": _BAD,
    "{": _BAD,
    "}": _BAD,
}
# The other character classes: what no token crosses or starts at (the
# end of a span, the inside of a quoted label and the number of a
# length); what a label may hold — plain characters, those a branch
# length's number may hold (``\d`` and ``+-.eE``) and whitespace other
# than the four blanks, which belongs to a label once it has started;
# then the blanks.  Below ``_SPACE`` a character is not filler.
_OPAQUE, _PLAIN, _DIGIT, _SPACE, _BLANK = range(8, 13)


def _char_class(code: int) -> int:
    """The class of code point ``code``."""
    char = chr(code)
    if char in _PUNCTUATION:
        return _PUNCTUATION[char]
    if char in "\t\n\r ":
        return _BLANK
    if char.isspace():
        return _SPACE
    if char.isdecimal() or char in "+-.eE":
        return _DIGIT
    return _PLAIN


_ASCII_CLASS = np.array([_char_class(code) for code in range(128)], np.int8)
# The byte-order mark that starts each span's code points.
_BOM = "".encode("utf-32")
# The padding past a label text's end, one more than the last code
# point, and the multiplier of the hash that sorts label texts.
_PAD = sys.maxunicode + 1
_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)
# The kinds that may follow each kind (``_FOLLOWS`` at ``before * 8 +
# after``).  A tree starts as if after a ``;``; whether ``,``, ``)``
# and ``;`` sit at the right depth is checked separately.
_SUCCESSORS = {
    _OPEN: (_OPEN, _LABEL, _LENGTH, _COMMA, _CLOSE),
    _COMMA: (_OPEN, _LABEL, _LENGTH, _COMMA, _CLOSE),
    _LABEL: (_LENGTH, _COMMA, _CLOSE, _SEMI),
    _LENGTH: (_COMMA, _CLOSE, _SEMI),
    _CLOSE: (_LABEL, _LENGTH, _COMMA, _CLOSE, _SEMI),
    _SEMI: (_OPEN, _LABEL, _LENGTH, _SEMI),
}
_FOLLOWS = np.array(
    [after in _SUCCESSORS.get(before, ()) for before in range(8) for after in range(8)]
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


class _Tokens(NamedTuple):
    """The tokens of some spans of a text (:func:`_scan`)."""

    kind: np.ndarray
    """Each token's kind (``int8``)."""
    start: np.ndarray
    """Where each token starts in the text (``int32``)."""
    stop: np.ndarray
    """Where each token ends in the text (``int32``)."""
    first: np.ndarray
    """The first token of each span, then the number of tokens."""
    label: np.ndarray
    """For each ``_LABEL`` token, in order, the number
    of its text: equal numbers, equal texts."""
    distinct: np.ndarray
    """For each text number, one token holding that text."""


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
    single = bodies is not None
    if bodies is None:
        bodies = [(0, len(text))]
    # Blocks of at most _BLOCK bodies that share one TRANSLATE map.
    cuts = [0]
    for at in range(1, len(bodies) + 1):
        if at in (len(bodies), cuts[-1] + _BLOCK) or (
            translate and translate[at] is not translate[at - 1]
        ):
            cuts.append(at)
    columns: list[tuple[np.ndarray, ...]] = []
    texts: list[str] = []
    for at, end in zip(cuts, cuts[1:]):
        spans = bodies[at:end]
        tokens = _scan(text, spans)
        if not single and not tokens.kind.size:
            continue
        read = _structure(text, tokens, single)
        if read is None:
            for number, (_, stop) in enumerate(spans):
                run = slice(*tokens.first[number : number + 2].tolist())
                _raise_first_error(
                    text,
                    tokens.kind[run].tolist(),
                    tokens.start[run].tolist(),
                    tokens.stop[run].tolist(),
                    stop,
                    single,
                )
            raise AssertionError("bulk checks rejected a valid tree")
        *links, lengths, label_node = read
        found = [
            _unquote(text[start:stop]) if text[start] == "'" else text[start:stop]
            for start, stop in zip(
                tokens.start[tokens.distinct].tolist(),
                tokens.stop[tokens.distinct].tolist(),
            )
        ]
        taxa = translate[at] if translate else None
        if taxa:
            found = list(map(taxa.get, found, found))
        # Each node's label as a number into ``texts``, ``-1`` if none.
        label = np.full(lengths.size, -1, np.int32)
        label[label_node] = tokens.label + len(texts)
        texts += found
        columns.append((*links, lengths, label))
    if not columns:
        empty = np.empty(0, np.int32)
        columns.append((empty, empty, empty, np.empty(0, "q"), np.empty(0), empty))
    table = LabelTable(texts)
    ids = np.append(table.intern_many(texts), np.int32(-1))
    del texts
    # Concatenate column by column, dropping each one's parts as it goes.
    parts = list(zip(*columns))
    del columns
    parent, first_child, next_sibling, node_ids, lengths, label = (
        np.concatenate(parts.pop(0)) for _ in range(6)
    )
    label = ids[label]
    if not single:
        names = [f"{name_prefix}_{number}"
                 for number in range(int(np.count_nonzero(parent < 0)))]
    return ForestArena(
        table, names, parent, first_child, next_sibling, label, node_ids, lengths
    )


def _scan(text: str, spans: Sequence[tuple[int, int]]) -> _Tokens:
    """The tokens of every ``(start, stop)`` span of ``text``, in one pass.

    Filler — whitespace (``str.isspace``) and ``[...]`` comments —
    separates tokens, and a token is one of:

    - a label: a run of anything but ``()[]{}:;,'`` and the blanks
      ``\\t\\n\\r`` and space; other whitespace, such as ``\\x1f``,
      belongs to a label once it has started;
    - one of ``(),;``;
    - a length: ``:``, the filler after it and the number that follows
      (``\\d`` and ``+-.eE``), which may be empty;
    - a quoted label, closed by the first run of an odd number of
      quotes after its opening quote (the others are ``''`` escapes);
    - any other single character, always an error (``_BAD``): ``]``,
      ``{``, ``}``, or the quote or ``[`` of an unterminated quoted
      label or comment.

    No token crosses the end of its span.  The spans' code points are
    classified with one table lookup; the scan then steps only over
    quotes and ``[``, and cuts label runs where the class changes.
    Returns each token's kind, start and stop as text positions.
    """
    # The spans' code points, each after a byte-order mark (U+FEFF)
    # and one more after the last: these separators are ``_OPAQUE``.
    begin = np.cumsum([1, *(stop - start + 1 for start, stop in spans)])
    pieces = [
        text[start:stop].encode("utf-32", "surrogatepass") for start, stop in spans
    ]
    code = np.frombuffer(b"".join([*pieces, _BOM]), np.uint32)
    del pieces
    kind = _ASCII_CLASS.take(code, mode="clip")
    wide = (code > 127).nonzero()[0]
    if wide.size > begin.size:  # more than the separators
        points, where = np.unique(code[wide], return_inverse=True)
        classes = np.array([_char_class(point) for point in points.tolist()], np.int8)
        kind[wide] = classes[where.reshape(-1)]
        del where
    kind[begin - 1] = _OPAQUE
    del wide
    # The (start, stop) of the tokens that may be longer than one
    # character: quoted labels, lengths and labels, found in this order
    # as each step reads what the one before marked in ``kind``.
    longer = [_enclose(kind, code, begin[1:] - 1), _lengths(kind), _labels(kind)]
    start = (kind < _OPAQUE).nonzero()[0].astype(np.int32)
    kinds = kind[start]
    stop_at = np.empty(kind.size, np.int32)
    del kind
    stop_at[start] = start + 1
    for run_start, run_stop in longer:
        stop_at[run_start] = run_stop
    del longer, run_start, run_stop
    stop = stop_at[start]
    del stop_at
    labels = (kinds == _LABEL).nonzero()[0]
    label, distinct = _number_texts(code, start[labels], stop[labels])
    del code
    first = start.searchsorted(begin)
    shift = np.array([span[0] for span in spans]) - begin[:-1]
    shift = shift.astype(np.int32).repeat(first[1:] - first[:-1])
    start += shift
    stop += shift
    return _Tokens(kinds, start, stop, first, label, labels[distinct])


def _enclose(
    kind: np.ndarray, code: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mark the quoted labels and comments of a scan in ``kind``.

    Each opens at the first quote or ``[`` that no earlier one holds.
    A quoted label closes at the last quote of the first run of an odd
    number of quotes after its opening one, a comment at the next
    ``]``, and both before the end of the span (``ends`` are the span
    ends).  A quote or ``[`` that does not close is a one-character
    ``_BAD`` token.  A comment becomes filler; a quoted label
    becomes one ``_LABEL`` token, whose starts and stops are
    returned.
    """
    quotes = (code == 39).nonzero()[0]
    opens = (code == 91).nonzero()[0]
    if not (quotes.size or opens.size):
        return quotes, quotes
    beyond = [kind.size]
    shuts = np.append((code == 93).nonzero()[0], beyond)
    close = shuts[shuts.searchsorted(opens)]
    if quotes.size:
        # Runs of adjacent quotes: each quote's run, where each run
        # ends and which runs hold an odd number of quotes.
        fresh = np.ones(quotes.size, bool)
        fresh[1:] = quotes[1:] != quotes[:-1] + 1
        run = fresh.cumsum() - 1
        last = np.append(fresh.nonzero()[0][1:], quotes.size) - 1
        odd = ((last - np.append(0, last[:-1] + 1)) % 2 == 0).nonzero()[0]
        odd_last = np.append(quotes[last[odd]], beyond)
        own = (last[run] - np.arange(quotes.size)) % 2 == 1
        quote_close = np.where(
            own, quotes[last[run]], odd_last[odd.searchsorted(run + 1)]
        )
        opens = np.concatenate([quotes, opens])
        order = opens.argsort()
        opens = opens[order]
        close = np.concatenate([quote_close, close])[order]
    closes = close < ends[ends.searchsorted(opens)]
    # Step from each opening to the next one it does not hold.
    step = np.where(
        closes, opens.searchsorted(close, "right"), np.arange(1, opens.size + 1)
    ).tolist()
    taken = []
    at = 0
    while at < len(step):
        taken.append(at)
        at = step[at]
    chosen = np.array(taken)
    shuts = closes[chosen]
    kind[opens[chosen[~shuts]]] = _BAD  # a quote that opens nothing
    chosen = chosen[shuts]
    start, stop = opens[chosen], close[chosen] + 1
    quoted = code[start] == 39
    comments = ~quoted
    kind[_ranges(start[comments], stop[comments])] = _BLANK
    start, stop = start[quoted], stop[quoted]
    kind[_ranges(start, stop)] = _OPAQUE
    kind[start] = _LABEL
    return start, stop


def _lengths(kind: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``:`` of every length of a scan, and where each ends.

    A length's number is what follows the filler after its colon; it
    becomes ``_OPAQUE`` in ``kind``.
    """
    colons = (kind == _LENGTH).nonzero()[0]
    if not colons.size:
        return colons, colons
    solid = (kind < _SPACE).nonzero()[0]
    numbers = solid[solid.searchsorted(colons + 1)]
    del solid
    other = (kind != _DIGIT).nonzero()[0]
    stop = other[other.searchsorted(numbers)]
    kind[_ranges(numbers, stop)] = _OPAQUE
    return colons, stop


def _labels(kind: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The starts and stops of the labels of a scan, marked ``_LABEL``
    in ``kind``: runs of the characters a label may hold, each from
    its first character that is not whitespace."""
    holds = (kind >= _PLAIN) & (kind <= _SPACE)
    edges = (holds[1:] != holds[:-1]).nonzero()[0] + 1
    start, stop = edges[0::2], edges[1::2]
    lead = kind[start] == _SPACE
    if lead.any():
        solid = np.append((holds & (kind != _SPACE)).nonzero()[0], kind.size)
        start[lead] = solid[solid.searchsorted(start[lead])]
        real = start < stop
        start, stop = start[real], stop[real]
    kind[start] = _LABEL
    return start, stop


def _ranges(start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Every position of the ranges ``[start, stop)``, in order."""
    size = stop - start
    ends = size.cumsum()
    return np.arange(ends[-1] if ends.size else 0) + (start - ends + size).repeat(size)


def _number_texts(
    code: np.ndarray, start: np.ndarray, stop: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Number the texts ``code[start:stop]``: equal numbers, equal texts.

    Texts whose widths share a power of two form one array of rows,
    padded past each text with a code point no text holds.  Sorting a
    group by a hash of its rows brings equal rows together, and each
    row that differs from the one before it starts a new number.  So
    equal texts share one number unless a hash collision sorts another
    text between them, which only costs one more string.  Returns each
    text's number and, for each number, one text holding it.
    """
    if not start.size:
        return start, start
    width = stop - start
    order = width.argsort(kind="stable")
    width = width[order]
    start = start[order]
    # Where the sorted widths reach each power of two.
    cuts = width.searchsorted(1 << np.arange(int(width[-1]).bit_length() + 1))
    fresh = np.empty(order.size, bool)
    for low, high in zip(cuts.tolist(), cuts[1:].tolist()):
        if low == high:
            continue
        size = int(width[high - 1])
        columns = np.arange(size)
        rows = code.take(start[low:high, None] + columns, mode="clip")
        if width[low] < size:
            rows[columns >= width[low:high, None]] = _PAD
        # The hash mod 2**64; matmul wraps like the power does.
        sort = (rows @ _MULTIPLIER ** columns.astype(np.uint64)).argsort()
        order[low:high] = order[low:high][sort]
        rows = rows[sort]
        fresh[low] = True
        (rows[1:] != rows[:-1]).any(1, out=fresh[low + 1 : high])
    number = np.empty(order.size, np.int32)
    number[order] = fresh.cumsum(dtype=np.int32) - 1
    return number, order[fresh]


def _structure(
    text: str, tokens: _Tokens, single: bool
) -> tuple[np.ndarray, ...] | None:
    """The tree structure of some tokens, or ``None`` if it is invalid.

    ``single`` says each span holds one tree (the :func:`parse_newick`
    grammar); otherwise ``;`` separates the trees.  Every check runs
    over whole arrays: only allowed kind transitions (a bad token
    follows nothing), a ``(``/``)`` depth that
    never goes negative, is at least 1 at each ``,`` and 0 at each
    ``;`` and tree end, and a number in every length.  Every ``(``
    opens a node, every token after ``(``, ``,`` or a tree start that
    is not ``(`` makes a leaf (or a one-node tree), and a node's parent
    made the ``(`` enclosing it — found, like the ``(`` that each ``)``
    closes, by one sort of the nodes and ``)`` by ``(depth, position)``.

    Returns the preorder ``parent``, ``first_child``, ``next_sibling``
    and ``node_ids`` columns, tree-local (``-1`` for none), the
    ``lengths`` column and the nodes of the label tokens.
    """
    kind = tokens.kind
    count = kind.size
    if single:
        starts = tokens.first[:-1]
        stops = tokens.first[1:] - 1
        if (stops < starts).any():
            return None
    prev = np.empty(count, np.int8)
    prev[0] = _SEMI
    prev[1:] = kind[:-1]
    if single:
        prev[starts] = _SEMI
    if not _FOLLOWS.take((prev << 3) | kind).all():
        return None
    opens = kind == _OPEN
    closing = kind == _CLOSE
    step = opens.astype(np.int32)
    step -= closing
    depth = step.cumsum(dtype=np.int32)
    semis = kind == _SEMI
    if (depth < _MIN_DEPTH[kind]).any() or depth[-1] or depth[semis].any():
        return None
    if single:
        if depth[stops].any() or np.count_nonzero(semis) > np.count_nonzero(
            semis[stops]
        ):
            return None
    depth -= step  # now the depth before each token
    del step, semis
    makes = opens | _STARTS_NODE[prev]
    makers = makes.nonzero()[0]
    node = makes.cumsum(dtype=np.int32) - 1
    # Nodes and ``)`` by (level, position), where a ``)`` has the level
    # of the ``(`` it closes (a ``)`` that ends an empty leaf is also a
    # node): each ``)`` comes right after its ``(``, and each later
    # child right after its previous sibling's subtree.
    # Keys (level, position, is ``)``): a ``)`` key is one level down.
    key = (depth.astype(np.int64) << 33) | (np.arange(count) << 1)
    order = np.sort(np.concatenate([key[makes], key[closing] - ((1 << 33) - 1)]))
    at = (order >> 1) & 0xFFFFFFFF
    closed = (order & 1).astype(bool)
    shut = closed.nonzero()[0]
    del order
    owner = np.full(count, -1, np.int32)
    owner[makers] = np.arange(makers.size, dtype=np.int32)
    owner[at[shut]] = node[at[shut - 1]]
    # A first child's parent made the ``(`` before it; a later child
    # (after ``,``) shares it with the last first child before it here,
    # and follows the node before it here as its next sibling.
    at = at[~closed]
    first = prev[at] != _COMMA
    inner = prev[at] == _OPEN
    node_at = node[at]
    heads = np.where(inner, node[at - 1], -1)
    parent = np.empty(makers.size, np.int32)
    parent[node_at] = heads[
        np.maximum.accumulate(np.where(first, np.arange(at.size), 0))
    ]
    first_child = np.full(makers.size, -1, np.int32)
    first_child[heads[inner]] = node_at[inner]
    next_sibling = np.full(makers.size, -1, np.int32)
    later = ~first[1:]
    next_sibling[node_at[:-1][later]] = node_at[1:][later]
    del at, first, inner, node_at, heads
    # Tree-local links and node ids: minus each tree's first row.
    roots = (parent < 0).nonzero()[0]
    base = roots.astype(np.int32)[(parent < 0).cumsum() - 1]
    for links in (parent, first_child, next_sibling):
        np.subtract(links, base, out=links, where=links >= 0)
    node_ids = np.arange(makers.size, dtype="q") - base
    label_at = (kind == _LABEL).nonzero()[0]
    inside = label_at[prev[label_at] == _CLOSE]
    owner[inside] = owner[inside - 1]
    length_at = (kind == _LENGTH).nonzero()[0]
    after = length_at[~makes[length_at]]
    owner[after] = owner[after - 1]
    lengths = np.full(makers.size, np.nan)
    # What follows each colon; ``float`` skips whitespace filler only.
    rests = [
        text[start + 1 : stop]
        for start, stop in zip(
            tokens.start[length_at].tolist(), tokens.stop[length_at].tolist()
        )
    ]
    try:
        lengths[owner[length_at]] = list(map(float, rests))
    except ValueError:
        try:
            lengths[owner[length_at]] = [float(_number(rest)) for rest in rests]
        except ValueError:
            return None
    return parent, first_child, next_sibling, node_ids, lengths, owner[label_at]


def _raise_first_error(
    text: str,
    kinds: list[int],
    starts: list[int],
    stops: list[int],
    end: int,
    single: bool,
) -> None:
    """Raise the first syntax error among the tokens of one span.

    The token-by-token search behind the bulk checks of
    :func:`_structure`, over the ``kinds``, ``starts`` and ``stops`` of
    the tokens of a span that ends at ``end``: ``single`` asks for the
    :func:`parse_newick` grammar (one tree, ``;`` optional).  Returns
    only if there is no error.
    """
    state = _BETWEEN
    depth = 0
    for kind, start, stop in zip(kinds, starts, stops):
        if state == _ELEMENT:
            if kind == _OPEN:
                depth += 1
                continue
            if kind == _SEMI:
                raise NewickError("unbalanced parentheses", start)
            if kind not in (_LABEL, _LENGTH, _COMMA, _CLOSE):
                raise _unexpected(text, start, end, True)
            state = _LABELED
            if kind == _LABEL:
                continue
        elif state == _CLOSED and (kind == _LABEL or text[start] == "'"):
            if kind == _BAD:  # a quote that opens no label
                raise _unexpected(text, start, end, True)
            state = _LABELED
            continue
        if state == _LABELED or state == _CLOSED:
            state = _NEXT
            if kind == _LENGTH:
                _length(text, start, stop, end)
                continue
        if state == _NEXT:
            if depth:
                if kind == _COMMA:
                    state = _ELEMENT
                elif kind == _CLOSE:
                    depth -= 1
                    state = _CLOSED
                elif kind == _SEMI:
                    raise NewickError("unbalanced parentheses", start)
                else:
                    raise _unexpected(text, start, end, False)
                continue
            state = _DONE
        elif state == _BETWEEN:
            # A tree starts: ``(``, or a one-node tree such as ``A;``,
            # ``:1;`` or a bare ``;`` (one unlabeled node).
            if kind not in (_OPEN, _LABEL, _LENGTH, _SEMI):
                raise _unexpected(text, start, end, True)
            if kind == _OPEN:
                depth = 1
                state = _ELEMENT
                continue
            if kind == _LENGTH:
                _length(text, start, stop, end)
                state = _NEXT
                continue
            if kind != _SEMI:
                state = _LABELED
                continue
            state = _DONE
        if state == _DONE:
            if kind != _SEMI:
                if text[start] == "[":
                    raise _unexpected(text, start, end, False)
                if single:
                    raise NewickError(
                        f"unexpected trailing input {text[start]!r}", start
                    )
                raise NewickError("expected ';' between trees", start)
            state = _TRAILING if single else _BETWEEN
        elif state == _TRAILING:
            # parse_newick's one tree and its ';' are done.
            if text[start] == "[":
                raise _unexpected(text, start, end, False)
            raise NewickError(f"unexpected trailing input {text[start]!r}", start)
    if depth:
        raise NewickError("unbalanced parentheses", end)
    if single and state == _BETWEEN:
        raise NewickError("empty input", end)


def _unquote(token: str) -> str:
    return token[1:-1].replace("''", "'")


def _number(rest: str) -> str:
    """The number of a length from the text after its colon: what
    follows the filler (the number holds no ``]`` and no whitespace)."""
    return rest[rest.rfind("]") + 1 :].lstrip()


def _length(text: str, start: int, stop: int, end: int) -> None:
    """Raise the error of the ``:`` token at ``text[start:stop]`` unless
    it holds a number."""
    digits = _number(text[start + 1 : stop])
    position = stop - len(digits)
    if not digits and stop < end and text[stop] == "[":
        raise NewickError("unterminated comment", stop)
    # The number runs on through digits ``\d`` does not match (``²``).
    while stop < end and (text[stop].isdigit() or text[stop] in "+-.eE"):
        stop += 1
    digits = text[position:stop]
    try:
        float(digits)
    except ValueError:
        raise NewickError(f"invalid branch length {digits!r}", position) from None


def _unexpected(text: str, position: int, end: int, label_allowed: bool) -> NewickError:
    """The error for the token at ``position``, which cannot appear there.

    ``label_allowed`` says whether a label may start here, which is
    when an unmatched quote reads as an unterminated label.
    """
    char = text[position]
    if char == "[":
        return NewickError("unterminated comment", position)
    if char == "'" and label_allowed:
        # Report where the search for the closing quote gave up, past
        # any complete '' escapes.
        position += 1
        while (close := text.find("'", position, end)) != -1:
            position = close + 2
        return NewickError("unterminated quoted label", min(position, end))
    return NewickError(f"unexpected character {char!r}", position)


def format_label(label: str) -> str:
    """A label as Newick writes it: quoted when the grammar requires it.

    Quoting triggers on grammar metacharacters, any whitespace (the
    reader skips whitespace between tokens, including exotic
    separators like ``\\x1f``) and unprintable characters; every
    whitespace character but space is unprintable.  The reader reads a
    quoted label back as the label itself.
    """
    if label and label.isprintable() and _NEEDS_QUOTING.isdisjoint(label):
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
            text = "" if label is None else format_label(rename.get(label, label))
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
        label = format_label(text)
    return ")" + label + _format_length(node.length, include_lengths)
