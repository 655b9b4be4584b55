"""Unit tests: versions, the delta log, diff composition, reopening."""

from __future__ import annotations

import pytest

from repro.core.params import MiningParams
from repro.engine import VersionedCorpus
from repro.engine.delta import CorpusDelta
from repro.errors import EngineError
from repro.trees.newick import parse_newick

from tests.delta.equivalence import pattern_tuples


def tree(newick):
    return parse_newick(newick)


@pytest.fixture
def corpus():
    return VersionedCorpus(
        [tree("((a,b),(c,d));"), tree("((a,b),(c,e));")], minoccur=1
    )


class TestVersioning:
    def test_starts_at_version_zero_with_an_init_delta(self, corpus):
        assert corpus.version == 0
        log = corpus.log()
        assert len(log) == 1
        assert log[0].op == "init"
        assert log[0].trees_after == 2
        assert len(log[0].added) == 2
        assert log[0].keys_gained  # the initial pairs exist now

    def test_empty_corpus_still_logs_init(self):
        corpus = VersionedCorpus()
        assert corpus.version == 0
        assert corpus.log()[0].trees_after == 0
        assert corpus.frequent_pairs(minsup=1) == []
        assert corpus.distance_matrix() == []

    def test_each_mutation_bumps_once(self, corpus):
        corpus.add_trees([tree("((a,b),f);")])
        assert corpus.version == 1
        corpus.replace_trees({0: tree("(x,(y,z));")})
        assert corpus.version == 2
        corpus.remove_trees([1])
        assert corpus.version == 3
        assert [delta.version for delta in corpus.log()] == [0, 1, 2, 3]

    def test_uids_are_never_reused(self, corpus):
        corpus.replace_trees({0: tree("(x,y);")})
        corpus.add_trees([tree("(p,q);")])
        seen = set()
        for delta in corpus.log():
            for ref in delta.added:
                assert ref.uid not in seen
                seen.add(ref.uid)

    def test_snapshot_is_detached_from_later_mutations(self, corpus):
        before = corpus.snapshot()
        corpus.add_trees([tree("(m,n);")])
        after = corpus.snapshot()
        assert before.version == 0 and after.version == 1
        assert len(before) == 2 and len(after) == 3
        assert before.fingerprint != after.fingerprint

    def test_fingerprint_tracks_content_not_history(self, corpus):
        start = corpus.fingerprint
        added = tree("(g,h);")
        corpus.add_trees([added])
        corpus.remove_trees([2])
        # Same membership again, different version: content fingerprint
        # returns, version does not.
        assert corpus.fingerprint == start
        assert corpus.version == 2


class TestDiff:
    def test_add_then_remove_cancels(self, corpus):
        corpus.add_trees([tree("(u,v);")])
        corpus.remove_trees([2])
        diff = corpus.diff(0, 2)
        assert diff.added == () and diff.removed == ()
        assert diff.keys_gained == () and diff.keys_lost == ()
        assert diff.updates == 2
        assert diff.supports_changed > 0  # gross work, not netted

    def test_replace_reports_both_sides(self, corpus):
        old_ref = corpus.snapshot().refs[0]
        corpus.replace_trees({0: tree("((q,r),(q,r));")})
        diff = corpus.diff(0, 1)
        assert [ref.uid for ref in diff.removed] == [old_ref.uid]
        assert len(diff.added) == 1
        assert diff.added[0].uid != old_ref.uid

    def test_partial_spans_compose(self, corpus):
        corpus.add_trees([tree("(a,(b,c));")])
        corpus.add_trees([tree("(d,(e,f));")])
        corpus.remove_trees([0])
        full = corpus.diff(0, 3)
        first = corpus.diff(0, 1)
        rest = corpus.diff(1, 3)
        added = {ref.uid for ref in first.added} | {
            ref.uid for ref in rest.added
        }
        removed = {ref.uid for ref in first.removed} | {
            ref.uid for ref in rest.removed
        }
        assert {ref.uid for ref in full.added} == added - removed
        assert {ref.uid for ref in full.removed} == removed - added

    def test_empty_span_is_empty(self, corpus):
        corpus.add_trees([tree("(a,b);")])
        diff = corpus.diff(1, 1)
        assert diff.added == () and diff.removed == () and diff.updates == 0

    def test_out_of_range_versions_are_rejected(self, corpus):
        with pytest.raises(EngineError):
            corpus.diff(0, 1)  # version 1 does not exist yet
        with pytest.raises(EngineError):
            corpus.diff(-1, 0)
        corpus.add_trees([tree("(a,b);")])
        with pytest.raises(EngineError):
            corpus.diff(1, 0)  # reversed

    def test_describe_mentions_the_span(self, corpus):
        corpus.add_trees([tree("(a,b);")])
        assert "v0..v1" in corpus.diff(0, 1).describe()


class TestRestore:
    """Round trips through the pair store (:meth:`VersionedCorpus.open`)."""

    def test_round_trip_preserves_queries_log_and_diff(
        self, corpus, tmp_path
    ):
        corpus.add_trees([tree("((a,b),(a,b));")])
        corpus.pack_store(str(tmp_path / "corpus"))
        corpus.replace_trees({1: tree("(c,(d,e));")})
        snapshot = corpus.snapshot()
        restored = VersionedCorpus.open(str(tmp_path / "corpus"))
        assert restored.snapshot() == snapshot
        assert restored.names == corpus.names
        assert restored.log() == corpus.log()
        assert restored.latest() == corpus.latest() == corpus.log()[-1]
        assert restored.diff(0, 2) == corpus.diff(0, 2)
        assert pattern_tuples(
            restored.frequent_pairs(minsup=1)
        ) == pattern_tuples(corpus.frequent_pairs(minsup=1))
        for label_a, label_b, distance in corpus.log()[0].keys_gained:
            for at in (distance, None):
                assert restored.support(label_a, label_b, at) == (
                    corpus.support(label_a, label_b, at)
                )

    def test_restored_corpus_keeps_mutating(self, corpus, tmp_path):
        corpus.add_trees([tree("(q,(r,s));")])
        corpus.pack_store(str(tmp_path / "corpus"))
        # The newest tree leaves before the reopen: its uid stays taken.
        corpus.remove_trees([2])
        restored = VersionedCorpus.open(str(tmp_path / "corpus"))
        restored.add_trees([tree("(z,(z,z));")])
        assert restored.version == 3
        new_uid = restored.log()[-1].added[0].uid
        assert new_uid == 3
        assert VersionedCorpus.open(str(tmp_path / "corpus")).log() == (
            restored.log()
        )

    def test_log_is_validated_against_the_version_when_read(
        self, corpus, tmp_path
    ):
        from repro.errors import StoreError
        from repro.store import LOG_FILE

        directory = tmp_path / "corpus"
        corpus.pack_store(str(directory))
        corpus.add_trees([tree("(a,(b,c));")])
        path = directory / LOG_FILE
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0])
        # Opening reads no log; the first query of it fails.
        reopened = VersionedCorpus.open(str(directory))
        with pytest.raises(StoreError, match="shorter"):
            reopened.log()
        path.write_bytes(lines[0] + lines[0])
        with pytest.raises(StoreError, match="version"):
            VersionedCorpus.open(str(directory)).diff(0, 1)

    def test_commits_decode_no_log_record(self, corpus, tmp_path):
        from repro.errors import StoreError
        from repro.store import LOG_FILE

        directory = tmp_path / "corpus"
        corpus.pack_store(str(directory))
        path = directory / LOG_FILE
        path.write_bytes(b"not json\n")
        reopened = VersionedCorpus.open(str(directory))
        reopened.add_trees([tree("(a,(b,c));")])
        assert reopened.latest().op == "add"
        reopened.remove_trees([0])
        assert (reopened.version, reopened.latest().version) == (2, 2)
        assert path.read_bytes().startswith(b"not json\n")
        with pytest.raises(StoreError, match="corrupt corpus log"):
            reopened.log()


class TestDeltaSerialisation:
    def test_as_dict_round_trips(self, corpus):
        corpus.replace_trees({0: tree("((m,n),o);")})
        for delta in corpus.log():
            assert CorpusDelta.from_dict(delta.as_dict()) == delta

    def test_logged_keys_decode_only_when_read(self):
        # A distance that is no number shows when the keys are decoded.
        delta = CorpusDelta.from_dict({
            "version": 1, "op": "add", "added": [], "removed": [],
            "trees_after": 0, "keys_gained": [["a", "b", "x"]] * 3,
            "keys_lost": [], "supports_changed": 0,
        })
        assert "3 pair key(s) gained, 0 lost" in delta.describe()
        with pytest.raises(ValueError):
            list(delta.keys_gained)

    def test_params_validation_routes_through_mining_params(self):
        with pytest.raises(Exception):
            VersionedCorpus(minoccur=0)
        with pytest.raises(Exception):
            VersionedCorpus(maxdist=-1.0)
        params = MiningParams(maxdist=1.0, minoccur=2, minsup=1)
        corpus = VersionedCorpus([tree("(a,(a,b));")], params)
        assert corpus.params is params
