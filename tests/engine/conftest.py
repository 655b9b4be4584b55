"""Fixtures for the engine equivalence harness.

The engine has one mining path; ``jobs`` is an inert compatibility
input.  The ``jobs`` fixture still runs every equivalence test at two
values so the suite pins that the value never changes a result.
"""

from __future__ import annotations

import pytest

from repro.trees.newick import parse_newick


@pytest.fixture(params=[1, 2], ids=lambda jobs: f"jobs{jobs}")
def jobs(request) -> int:
    return request.param


FOREST_NEWICKS = [
    "((a,b),(c,d));",
    "((a,b),(c,e));",
    "((b,a),(d,c));",          # isomorphic to the first (reordered)
    "(a,(b,(c,(d,e))));",      # caterpillar
    "((a,a),(a,b));",          # repeated labels
    "(((a,b),(c,d)),((e,f),(g,a)));",
    "(a,b,c,d,e);",            # star
    "(a);",
]


@pytest.fixture
def forest():
    """A mixed forest with duplicates, stars, chains, repeated labels."""
    return [parse_newick(text) for text in FOREST_NEWICKS]
