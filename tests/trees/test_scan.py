"""The code-point scanner of :mod:`repro.trees.newick` against the
reference token pattern of ``tests/trees/newick_oracle.py``.

On any text, and on any split of a text into spans, the scanner must
cut the same tokens as one ``findall`` per span, with the kind of each
token's first character (a lone quote is an error token), and number
equal label texts equally.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trees import newick
from repro.trees.newick import parse_arenas

from tests.trees import newick_oracle as oracle

ALPHABET = "(),;:'[]{} \t\n\x1f ²0.1eab"


def scanned(text, spans=None):
    """The scanner's ``(kind, text)`` tokens of each span, in order."""
    spans = [(0, len(text))] if spans is None else spans
    tokens = newick._scan(text, spans)
    assert tokens.first.tolist() == sorted(tokens.first.tolist())
    assert tokens.first[-1] == tokens.kind.size
    return [
        (kind, text[start:stop])
        for kind, start, stop in zip(
            tokens.kind.tolist(), tokens.start.tolist(), tokens.stop.tolist()
        )
    ]


def kind_of(token):
    """A token's kind: its first character's, but a quote that opens no
    quoted label is an error token."""
    if token == "'":
        return newick._BAD
    return newick._PUNCTUATION.get(token[0], newick._LABEL)


def expected(text, spans=None):
    """The reference ``(kind, text)`` tokens: one ``findall`` per span."""
    spans = [(0, len(text))] if spans is None else spans
    return [
        (kind_of(token), token)
        for start, stop in spans
        for token in oracle.tokens(text, start, stop)
    ]


def assert_numbered(text, spans=None, collide=False):
    """Label tokens share a number only when their texts are equal, and
    each number's token holds that text; unless hashes ``collide``,
    equal texts share one number."""
    spans = [(0, len(text))] if spans is None else spans
    tokens = newick._scan(text, spans)
    labels = [
        text[start:stop]
        for kind, start, stop in zip(
            tokens.kind.tolist(), tokens.start.tolist(), tokens.stop.tolist()
        )
        if kind == newick._LABEL
    ]
    numbers = tokens.label.tolist()
    assert len(numbers) == len(labels)
    held = [
        text[tokens.start[at] : tokens.stop[at]] for at in tokens.distinct.tolist()
    ]
    assert collide or len(set(held)) == len(held)
    assert [held[number] for number in numbers] == labels


@settings(max_examples=400, deadline=None)
@given(text=st.text(alphabet=ALPHABET, max_size=60))
def test_scanner_matches_the_token_pattern(text):
    assert scanned(text) == expected(text)
    assert_numbered(text)


@settings(max_examples=200, deadline=None)
@given(
    text=st.text(alphabet=ALPHABET, max_size=60),
    cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=6),
)
def test_spans_scan_like_separate_texts(text, cuts):
    """No token crosses a span's end: one scan over several spans
    equals one ``findall`` per span."""
    points = sorted({min(cut, len(text)) for cut in cuts} | {0, len(text)})
    spans = list(zip(points[:-1], points[1:]))
    assert scanned(text, spans) == expected(text, spans)
    assert_numbered(text, spans)


@pytest.mark.parametrize(
    "text",
    [
        "a\x1fb",  # whitespace inside a label belongs to it
        "\x1fa",  # ... but before a label it is filler
        " a",
        "(a\x1f,\x1f b)",
        "A:[c]1.5",  # a comment between the colon and the number
        "A: [c] [d]\t2e-3,",
        "A:²",  # a Unicode digit that is not ``\d`` ends the number
        "A:١٢",  # ... one that is ``\d`` belongs to it
        "A:1.5eb",
        "A:\x1f1b",
        ":",
        "A:[",
        "'a[b]':1",  # a quoted label holding brackets ...
        "'a;b',c",  # ... or a semicolon
        "[it's](a,b);",  # a comment holding a quote
        "'it'''",  # a '' escape at the end of a quote
        "'a''",
        "'''",
        "''''",
        "'a'b'",
        "'unterminated",  # an unterminated quote
        "(a,b)[unterminated",  # an unterminated comment
        "a[b[c]d]e",
        "a]b",  # stray closing bracket and braces
        "{a}",
        "",
        " \t\n",
    ],
)
def test_fixed_cases(text):
    assert scanned(text) == expected(text)
    assert_numbered(text)


def test_non_ascii_and_surrogates():
    text = "('é\u2003x':1,ü\u00a0y\u2028,\ud800)"
    assert scanned(text) == expected(text)
    assert_numbered(text)


def test_colliding_hashes_are_told_apart():
    """Two labels whose code-point hashes collide (Thue–Morse strings
    of length 1,024 collide for every multiplier mod 2**64) never share
    a number and read back as two labels."""
    bits = [0]
    while len(bits) < 1024:
        bits += [1 - bit for bit in bits]
    first = "".join("AB"[bit] for bit in bits)
    second = "".join("BA"[bit] for bit in bits)
    text = f"(({first},{second}),{first});"
    assert_numbered(text, collide=True)
    (arena,) = parse_arenas(text)
    assert arena.table.labels == (first, second)
