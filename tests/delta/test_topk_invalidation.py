"""Regression tests: top-k answers follow corpus churn exactly.

An incremental add/remove/replace patches the corpus vectors in
place; a query that kept seeing the old rows would rank trees that no
longer exist (or miss ones that now do).  Every post-churn query must
equal a from-scratch engine on the same trees.
"""

from __future__ import annotations

import pytest

from repro.core.distance import DistanceMode
from repro.core.distvec import DistanceVectors
from repro.core.topk import topk_similar
from repro.engine import MiningEngine, VersionedCorpus
from repro.trees.newick import parse_newick

from tests.delta.equivalence import mirror


def tree(newick):
    return parse_newick(newick)


BASE = ("((a,b),(c,d));", "((a,b),(c,e));", "((x,y),(z,w));")


@pytest.fixture
def corpus():
    return VersionedCorpus(
        [tree(text) for text in BASE], engine=MiningEngine(jobs=1)
    )


QUERY = "((a,b),(c,(d,e)));"


def fresh_answer(corpus, newicks, k=2, mode=DistanceMode.DIST_OCCUR):
    """What a brand-new engine says about the corpus's current trees,
    given as the Newick sequence the test mirrored."""
    vectors = DistanceVectors.from_trees(
        [tree(text) for text in newicks], minoccur=corpus.params.minoccur
    )
    return topk_similar(
        vectors, tree(QUERY), k, mode, params=corpus.params
    ).neighbors


class TestDifferentialAfterChurn:
    @pytest.mark.parametrize("mode", list(DistanceMode))
    def test_add_changes_the_answer_correctly(self, corpus, mode):
        before = corpus.topk_similar(tree(QUERY), 2, mode)
        # A near-duplicate of the query must become the new nearest
        # neighbour.
        corpus.add_trees([tree(QUERY)])
        after = corpus.topk_similar(tree(QUERY), 2, mode)
        assert after.neighbors == fresh_answer(
            corpus, [*BASE, QUERY], 2, mode
        )
        assert after.neighbors[0] == (3, 0.0)
        assert before.neighbors[0][1] > 0.0

    @pytest.mark.parametrize("mode", list(DistanceMode))
    def test_remove_changes_the_answer_correctly(self, corpus, mode):
        corpus.add_trees([tree(QUERY)])
        nearest = corpus.topk_similar(tree(QUERY), 1, mode)
        assert nearest.neighbors[0] == (3, 0.0)
        # Remove the exact match; it must vanish from the ranking.
        corpus.remove_trees([3])
        after = corpus.topk_similar(tree(QUERY), 2, mode)
        assert after.neighbors == fresh_answer(corpus, BASE, 2, mode)
        assert all(distance > 0.0 for _idx, distance in after.neighbors)

    @pytest.mark.parametrize("mode", list(DistanceMode))
    def test_replace_changes_the_answer_correctly(self, corpus, mode):
        before = corpus.topk_similar(tree(QUERY), 1, mode)
        corpus.replace_trees({2: tree(QUERY)})
        after = corpus.topk_similar(tree(QUERY), 1, mode)
        assert after.neighbors == fresh_answer(
            corpus, [*BASE[:2], QUERY], 1, mode
        )
        assert after.neighbors[0] == (2, 0.0)
        assert before.neighbors[0] != after.neighbors[0]

    def test_churn_sequence_stays_differential(self, corpus):
        newicks = list(BASE)
        script = [
            ("add", ["((a,d),(b,c));"]),
            ("replace", {1: "((z,w),(x,v));"}),
            ("remove", [0]),
            ("add", [QUERY, "(m,(n,o));"]),
        ]
        for op, payload in script:
            if op == "add":
                corpus.add_trees([tree(text) for text in payload])
            elif op == "replace":
                corpus.replace_trees(
                    {index: tree(text) for index, text in payload.items()}
                )
            else:
                corpus.remove_trees(payload)
            mirror(newicks, op, payload)
            for k in (1, 3):
                got = corpus.topk_similar(tree(QUERY), k).neighbors
                assert got == fresh_answer(corpus, newicks, k)
