"""The ``repro-mine corpus`` CLI, byte for byte, and its failure paths.

The golden transcript runs ``corpus init`` on the Fig 8 seed plants,
then ``add``, ``remove`` (two indexes), ``log``, ``diff 0 2`` and an
out-of-range ``remove`` in fresh ``python -m repro`` processes, and
pins every stdout, stderr and exit code.  It was recorded while the
corpus still lived in a ``corpus.json`` next to a separately packed
store; the pair-store corpus must print the same bytes.

The failure tests damage a corpus directory the way a crash or an
older release leaves it and require a one-line ``error:`` with exit 1,
no traceback, and — for damage — a counted ``store.read_errors``
(read from the ``--trace`` snapshot, which is written for failed runs
too).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.datasets.seed_plants import seed_plants_nexus
from repro.store import COLUMNS_FILE, LOG_FILE

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

MORE_TREES = (
    "((Gnetum,Welwitschia),(Ephedra,Ginkgoales));\n"
    "((Gnetum,(Welwitschia,Ephedra)),Pinaceae);\n"
)

GOLDEN = [
    (
        ["corpus", "init", "herbarium", "--trees", "seed_plants.nex"],
        0,
        "initialised corpus at herbarium: 4 tree(s), v0\n",
        "",
    ),
    (
        ["corpus", "add", "herbarium", "more.nwk"],
        0,
        "v1 add: +2/-0 tree(s), 6 after; 7 pair key(s) gained, 0 lost, "
        "10 support entr(ies) touched\n"
        "  added tree_0 at #4\n"
        "  added tree_1 at #5\n",
        "",
    ),
    (
        ["corpus", "remove", "herbarium", "0", "2"],
        0,
        "v2 remove: +0/-2 tree(s), 4 after; 0 pair key(s) gained, 9 lost, "
        "27 support entr(ies) touched\n"
        "  removed seed_plants_1\n"
        "  removed seed_plants_3\n",
        "",
    ),
    (
        ["corpus", "log", "herbarium"],
        0,
        "v0 init: +4/-0 tree(s), 4 after; 32 pair key(s) gained, 0 lost, "
        "56 support entr(ies) touched\n"
        "v1 add: +2/-0 tree(s), 6 after; 7 pair key(s) gained, 0 lost, "
        "10 support entr(ies) touched\n"
        "v2 remove: +0/-2 tree(s), 4 after; 0 pair key(s) gained, 9 lost, "
        "27 support entr(ies) touched\n",
        "",
    ),
    (
        ["corpus", "diff", "herbarium", "0", "2"],
        0,
        "v0..v2: +2/-2 tree(s), 7 pair key(s) gained, 9 lost across "
        "2 update(s) (37 support entr(ies) touched)\n"
        "  + #4@1b0a66ea1b3a\n"
        "  + #5@1a101fe3e25f\n"
        "  - #0@6abfe438eaf8\n"
        "  - #2@1658312961f5\n",
        "",
    ),
    (
        ["corpus", "remove", "herbarium", "7"],
        1,
        "",
        "error: tree index 7 out of range for 4 trees\n",
    ),
]


def run(argv, cwd):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "seed_plants.nex").write_text(
        seed_plants_nexus(), encoding="utf-8"
    )
    (tmp_path / "more.nwk").write_text(MORE_TREES, encoding="utf-8")
    return tmp_path


def test_golden_transcript(workdir):
    for argv, code, stdout, stderr in GOLDEN:
        result = run(argv, workdir)
        assert (result.returncode, result.stdout, result.stderr) == (
            code,
            stdout,
            stderr,
        ), argv


def read_errors(trace_path):
    with open(trace_path, encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle]
    (snapshot,) = [line for line in lines if line["type"] == "snapshot"]
    return snapshot["registry"]["counters"].get("store.read_errors", 0)


def assert_clean_failure(result, fragment):
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert fragment in result.stderr
    assert "Traceback" not in result.stderr


@pytest.fixture
def herbarium(workdir):
    for argv, _code, _stdout, _stderr in GOLDEN[:2]:
        assert run(argv, workdir).returncode == 0
    return workdir / "herbarium"


class TestFailurePaths:
    def test_old_corpus_json_names_the_fix(self, workdir):
        old = workdir / "old"
        old.mkdir()
        (old / "corpus.json").write_text(
            json.dumps({"format": 1, "version": 0, "trees": [], "log": []}),
            encoding="utf-8",
        )
        for action in (["log", "old"], ["add", "old", "more.nwk"]):
            result = run(["corpus", *action, "--trace", "t.jsonl"], workdir)
            assert_clean_failure(result, "corpus init")
            assert read_errors(workdir / "t.jsonl") == 0

    def test_truncated_shard_fails_counted(self, herbarium, workdir):
        generation = sorted(
            name for name in os.listdir(herbarium) if name.startswith("gen-")
        )[-1]
        with open(herbarium / generation / COLUMNS_FILE, "r+b") as handle:
            handle.truncate(16)
        result = run(
            ["corpus", "log", "herbarium", "--trace", "t.jsonl"], workdir
        )
        assert_clean_failure(result, "truncated store shard")
        assert read_errors(workdir / "t.jsonl") == 1

    def test_short_log_fails_counted(self, herbarium, workdir):
        path = herbarium / LOG_FILE
        first = path.read_bytes().split(b"\n")[0] + b"\n"
        path.write_bytes(first)
        result = run(
            ["corpus", "add", "herbarium", "more.nwk", "--trace", "t.jsonl"],
            workdir,
        )
        assert_clean_failure(result, "shorter than the store")
        assert read_errors(workdir / "t.jsonl") == 1
        # Nothing was committed.
        assert path.read_bytes() == first

    def test_torn_log_tail_is_ignored_then_cut(self, herbarium, workdir):
        path = herbarium / LOG_FILE
        committed = path.read_bytes()
        path.write_bytes(committed + b'{"version": 2, "op": "ad')
        log = run(["corpus", "log", "herbarium"], workdir)
        assert log.returncode == 0
        # The golden log's first two lines: init and the add.
        assert log.stdout.splitlines() == GOLDEN[3][2].splitlines()[:2]
        assert run(["corpus", "remove", "herbarium", "0"], workdir).returncode == 0
        lines = path.read_bytes().split(b"\n")
        assert lines[:2] == committed.split(b"\n")[:2]
        assert [json.loads(line)["version"] for line in lines[:-1]] == [0, 1, 2]
        assert lines[-1] == b""


@pytest.mark.parametrize(
    "argv",
    [
        ["corpus", "pack", "herbarium"],
        ["corpus", "log", "herbarium", "--store", "elsewhere"],
        ["frequent", "more.nwk", "--cache-dir", "cache"],
    ],
)
def test_removed_options_are_usage_errors(workdir, argv):
    result = run(argv, workdir)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
