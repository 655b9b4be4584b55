"""The reference Newick parser: a character scanner over pointer trees.

A test oracle for the token reader of :mod:`repro.trees.newick`, which
must accept the same dialect.  ``tests/property/test_prop_newick.py``
fuzzes the two against each other: on every input both raise
:class:`~repro.errors.NewickError` with the same message and position,
or the reader's arenas equal ``TreeArena.from_tree`` of the trees
parsed here.

:data:`TOKEN_RE` is the reference for the reader's tokens: one regular
expression, one token per match.  ``tests/trees/test_scan.py`` checks
that the code-point scanner cuts every text into the same tokens.
"""

from __future__ import annotations

import re

from repro.errors import NewickError
from repro.trees.tree import Node, Tree

__all__ = ["parse_newick", "parse_forest", "TOKEN_RE", "tokens"]

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
TOKEN_RE = re.compile(
    _FILLER
    + r"([^()\[\]{}:;,'\t\n\r ]+|[(),;]|:"
    + _FILLER
    + r"[\d+\-.eE]*|'[^']*(?:''[^']*)*'(?!')|.|\Z)",
    re.DOTALL,
)


def tokens(text: str, start: int = 0, end: int | None = None) -> list[str]:
    """The tokens of ``text[start:end]``, without the trailing empty one."""
    found = TOKEN_RE.findall(text, start, len(text) if end is None else end)
    while found and not found[-1]:
        found.pop()
    return found

_UNQUOTED_FORBIDDEN = set("()[]{}:;,'\t\n\r ")


class _Scanner:
    """Character scanner with comment and whitespace skipping."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def skip_filler(self) -> None:
        """Advance past whitespace and ``[...]`` comments."""
        text = self.text
        while self.pos < len(text):
            char = text[self.pos]
            if char.isspace():
                self.pos += 1
            elif char == "[":
                end = text.find("]", self.pos + 1)
                if end == -1:
                    raise NewickError("unterminated comment", self.pos)
                self.pos = end + 1
            else:
                return

    def peek(self) -> str | None:
        self.skip_filler()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take(self) -> str:
        char = self.peek()
        if char is None:
            raise NewickError("unexpected end of input", self.pos)
        self.pos += 1
        return char

    def expect(self, char: str) -> None:
        got = self.peek()
        if got != char:
            shown = "end of input" if got is None else repr(got)
            raise NewickError(f"expected {char!r}, found {shown}", self.pos)
        self.pos += 1

    def read_label(self) -> str | None:
        """Read a (possibly quoted) label, or ``None`` if absent."""
        char = self.peek()
        if char is None:
            return None
        if char == "'":
            return self._read_quoted()
        if char in _UNQUOTED_FORBIDDEN:
            return None
        start = self.pos
        text = self.text
        while self.pos < len(text) and text[self.pos] not in _UNQUOTED_FORBIDDEN:
            self.pos += 1
        return text[start : self.pos]

    def _read_quoted(self) -> str:
        self.pos += 1  # opening quote
        pieces: list[str] = []
        text = self.text
        while True:
            end = text.find("'", self.pos)
            if end == -1:
                raise NewickError("unterminated quoted label", self.pos)
            pieces.append(text[self.pos : end])
            self.pos = end + 1
            if self.pos < len(text) and text[self.pos] == "'":
                pieces.append("'")  # escaped quote
                self.pos += 1
            else:
                return "".join(pieces)

    def read_length(self) -> float | None:
        """Read a ``:length`` suffix if present."""
        if self.peek() != ":":
            return None
        self.pos += 1
        self.skip_filler()
        start = self.pos
        text = self.text
        while self.pos < len(text) and (
            text[self.pos].isdigit() or text[self.pos] in "+-.eE"
        ):
            self.pos += 1
        token = text[start : self.pos]
        try:
            return float(token)
        except ValueError:
            raise NewickError(f"invalid branch length {token!r}", start) from None


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
    scanner = _Scanner(text)
    tree = _parse_one(scanner, name)
    if scanner.peek() == ";":
        scanner.take()
    trailing = scanner.peek()
    if trailing is not None:
        raise NewickError(f"unexpected trailing input {trailing!r}", scanner.pos)
    return tree


def parse_forest(text: str, name_prefix: str = "tree") -> list[Tree]:
    """Parse every semicolon-terminated tree in ``text``.

    Trees are named ``{name_prefix}_0``, ``{name_prefix}_1``, ... in
    input order.
    """
    scanner = _Scanner(text)
    trees: list[Tree] = []
    while scanner.peek() is not None:
        tree = _parse_one(scanner, f"{name_prefix}_{len(trees)}")
        trees.append(tree)
        if scanner.peek() == ";":
            scanner.take()
        elif scanner.peek() is not None:
            raise NewickError("expected ';' between trees", scanner.pos)
    return trees


def _parse_one(scanner: _Scanner, name: str | None) -> Tree:
    """Parse one tree, iteratively, leaving the scanner after its body."""
    tree = Tree(name=name)
    char = scanner.peek()
    if char is None:
        raise NewickError("empty input", scanner.pos)

    if char != "(":
        # A degenerate single-node tree such as "A;" — or a bare ";",
        # which this dialect reads as a single unlabeled node.
        label = scanner.read_label()
        if label is None and scanner.peek() not in (":", ";"):
            raise NewickError(f"unexpected character {char!r}", scanner.pos)
        root = tree.add_root(label=label)
        root.length = scanner.read_length()
        return tree

    root = tree.add_root()
    scanner.expect("(")
    stack: list[Node] = [root]
    # ``expecting_element`` is True right after '(' or ',', where the
    # grammar allows a subtree, a leaf, or an empty (unlabeled) leaf.
    expecting_element = True
    while stack:
        char = scanner.peek()
        if expecting_element:
            if char == "(":
                scanner.take()
                child = tree.add_child(stack[-1])
                stack.append(child)
            elif char in (",", ")"):
                # Empty element, e.g. "(,,(,))": an unlabeled leaf.
                tree.add_child(stack[-1])
                expecting_element = False
            elif char is None:
                raise NewickError("unbalanced parentheses", scanner.pos)
            else:
                label = scanner.read_label()
                length = scanner.read_length()
                tree.add_child(stack[-1], label=label, length=length)
                expecting_element = False
        else:
            if char == ",":
                scanner.take()
                expecting_element = True
            elif char == ")":
                scanner.take()
                node = stack.pop()
                node.label = scanner.read_label()
                node.length = scanner.read_length()
            elif char is None or char == ";":
                raise NewickError("unbalanced parentheses", scanner.pos)
            else:
                raise NewickError(f"unexpected character {char!r}", scanner.pos)
    return tree
