"""Hypothesis churn machine: random add/remove/replace, exact re-mine.

The stateful core of the delta-mining differential harness.  Each run
starts from an empty :class:`~repro.engine.delta.VersionedCorpus` and
applies a random mutation sequence; after *every* step the invariant
re-derives frequent pairs (three ``minsup`` levels, both distance
handling modes) and all four distance-mode matrices from scratch and
requires byte identity, plus monotone versioning and a log that
faithfully replays to the live membership.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.engine.delta import VersionedCorpus

from tests.delta.equivalence import assert_corpus_matches_remine
from tests.property.strategies import trees


class CorpusChurnMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.corpus = VersionedCorpus(minoccur=1)
        # The tree sequence, mirrored: the corpus keeps only rows.
        self.trees = []
        self.versions_seen = [self.corpus.version]

    @rule(new=st.lists(trees(max_size=10), min_size=1, max_size=3))
    def add(self, new):
        before = len(self.corpus)
        positions = self.corpus.add_trees(new)
        self.trees.extend(new)
        assert positions == list(range(before, before + len(new)))
        self.versions_seen.append(self.corpus.version)

    @precondition(lambda self: len(self.corpus) > 0)
    @rule(data=st.data())
    def remove(self, data):
        size = len(self.corpus)
        indexes = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=size - 1),
                min_size=1,
                max_size=min(3, size),
                unique=True,
            ),
            label="remove_indexes",
        )
        self.corpus.remove_trees(indexes)
        for index in sorted(indexes, reverse=True):
            del self.trees[index]
        assert len(self.corpus) == size - len(indexes)
        self.versions_seen.append(self.corpus.version)

    @precondition(lambda self: len(self.corpus) > 0)
    @rule(data=st.data(), replacement=trees(max_size=10))
    def replace(self, data, replacement):
        size = len(self.corpus)
        position = data.draw(
            st.integers(min_value=0, max_value=size - 1),
            label="replace_position",
        )
        self.corpus.replace_trees({position: replacement})
        self.trees[position] = replacement
        assert len(self.corpus) == size
        self.versions_seen.append(self.corpus.version)

    @invariant()
    def byte_identical_to_remine(self):
        assert_corpus_matches_remine(
            self.corpus, self.trees, context=f"v{self.corpus.version}"
        )

    @invariant()
    def versions_are_monotone(self):
        assert self.versions_seen == sorted(set(self.versions_seen))
        assert self.corpus.version == self.versions_seen[-1]
        log = self.corpus.log()
        assert [delta.version for delta in log] == list(
            range(self.corpus.version + 1)
        )
        assert log[-1].trees_after == len(self.corpus)

    @invariant()
    def log_replays_to_membership(self):
        # Folding the whole log (adds minus removes, matched by uid)
        # must land exactly on the live membership.
        alive: dict[int, str] = {}
        for delta in self.corpus.log():
            for ref in delta.removed:
                del alive[ref.uid]
            for ref in delta.added:
                alive[ref.uid] = ref.content_key
        refs = self.corpus.snapshot().refs
        assert {ref.uid: ref.content_key for ref in refs} == alive


CorpusChurnMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=8, deadline=None
)
TestCorpusChurn = CorpusChurnMachine.TestCase
