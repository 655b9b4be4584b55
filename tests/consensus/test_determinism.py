"""Consensus output must not depend on Python's string hashing.

Cluster families are sets of frozensets; a tree built from one in set
order lists siblings by string hash, which ``PYTHONHASHSEED`` changes
between processes.  Every method must print one Newick string in
fresh interpreters started under different hash seeds.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.consensus.base import CONSENSUS_METHODS

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

# One profile, two variants: siblings swapped, and one NNI move.
PROFILE = (
    "((t0,t1),(t2,t3),((t4,t5),(t6,t7)),(t8,t9));\n"
    "((t1,t0),(t3,t2),((t6,t7),(t4,t5)),(t9,t8));\n"
    "((t0,t1),(t2,t3),((t4,t6),(t5,t7)),(t8,t9));\n"
)

HASH_SEEDS = ("0", "1", "2", "3")


@pytest.mark.parametrize("method", sorted(CONSENSUS_METHODS))
def test_stdout_is_identical_across_hash_seeds(tmp_path, method):
    path = tmp_path / "profile.nwk"
    path.write_text(PROFILE, encoding="utf-8")
    outputs = set()
    for seed in HASH_SEEDS:
        env = dict(
            os.environ,
            PYTHONPATH=os.path.abspath(SRC),
            PYTHONHASHSEED=seed,
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro", "consensus", str(path),
             "--method", method],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.add(result.stdout)
    assert len(outputs) == 1, outputs
