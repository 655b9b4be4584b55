"""Seeded inputs and independent reference answers for the workloads.

Each workload has two set-up halves:

- ``prepare_<name>(seed, directory)`` generates the inputs the program
  consumes (tree files, a commit schedule) and
  returns a *job* describing them; keys starting with ``_`` hold
  in-memory objects that never leave this process.  ``run.py`` times this
  half several times and reports the median as ``setup_s``.
- ``reference_<name>(job)`` computes the expected answers once, by a
  path that shares no aggregation, search or serving code with the
  production path it checks: the Fig 3 reference miner
  (``repro.core.single_tree``) plus the plain aggregation below, an
  exhaustive minimum over full distance matrices, and sorted
  brute-force ``DistanceVectors.row`` results.

Trees travel between processes as Newick text; every generator draws
only from a ``random.Random`` seeded by the ``--seed`` argument.
"""

from __future__ import annotations

import os
import random
from collections import defaultdict

import numpy as np

from repro.core.distvec import DistanceVectors
from repro.core.single_tree import mine_tree_counter
from repro.generate.phylo import random_nni, yule_tree
from repro.generate.treebase import synthetic_study, synthetic_treebase_corpus
from repro.trees.newick import parse_newick, write_newick
from repro.trees.nexus import write_nexus
from sessions import MINSUP, TOPK, digest

# fig7-frequent: a slice of the paper's Fig 7 corpus (1,500 trees there),
# small enough that one run times several processes.
FIG7_TREES = 400

# fig10-kernel: groups of related phylogenies over one taxon pool.
KERNEL_GROUPS = 3
KERNEL_TREES_PER_GROUP = 70
KERNEL_POOL = 120
KERNEL_GROUP_TAXA = 108
KERNEL_MAX_NNI = 4

# corpus-churn: 1% adds + 1% removes per commit.
CHURN_TREES = 500
CHURN_STEP_TREES = 5
CHURN_STEPS = 24
CHURN_NOVEL_EVERY = 6


def newick(tree) -> str:
    return write_newick(tree, include_lengths=False)


def tree_stats(trees) -> dict:
    """The stated input size: trees, nodes and distinct labels."""
    labels = set()
    for tree in trees:
        labels |= tree.labels()
    return {
        "trees": len(trees),
        "nodes": sum(len(tree) for tree in trees),
        "labels": len(labels),
    }


def directory_bytes(directory: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(directory):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def _write(path: str, text: str) -> int:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return len(text.encode("utf-8"))


def _treebase(num_trees: int, rng: random.Random) -> list:
    studies = synthetic_treebase_corpus(num_trees=num_trees, rng=rng)
    return [tree for study in studies for tree in study.trees]


# ----------------------------------------------------------------------
# Reference frequent pairs: Fig 3 miner + a plain aggregation
# ----------------------------------------------------------------------
def frequent_lines(counters, minsup: int = MINSUP) -> list[str]:
    """Frequent-pair lines as ``FrequentCousinPair.describe`` renders
    them, by a dict-of-lists aggregation of per-tree counters keyed
    ``(label_a, label_b, distance)``."""
    supporters: dict[tuple, list[int]] = defaultdict(list)
    for position, counter in enumerate(counters):
        for key in counter:
            supporters[key].append(position)
    frequent = [
        (key, positions)
        for key, positions in supporters.items()
        if len(positions) >= minsup
    ]
    frequent.sort(key=lambda kp: (-len(kp[1]), kp[0][0], kp[0][1], kp[0][2]))
    return [
        f"({a}, {b}) at distance {d:g}: support {len(positions)} "
        f"(trees {', '.join(str(i) for i in positions)})"
        for (a, b, d), positions in frequent
    ]


def reference_counters(trees):
    """Per-tree counters from the Fig 3 reference miner."""
    return (mine_tree_counter(tree, maxdist=1.5) for tree in trees)


def expected_frequent_stdout(trees) -> str:
    """The exact stdout ``repro-mine frequent`` must print."""
    lines = frequent_lines(reference_counters(trees))
    header = f"# {len(lines)} frequent pair(s) in {len(trees)} tree(s)"
    return "\n".join([header] + [f"  {line}" for line in lines]) + "\n"


def sorted_neighbours(row, positions, k: int = TOPK) -> list[list]:
    """The first ``k`` of ``positions`` by (distance, position)."""
    ranked = sorted((row[j], position) for position, j in enumerate(positions))
    return [[position, distance] for distance, position in ranked[:k]]


# ----------------------------------------------------------------------
# fig7-frequent
# ----------------------------------------------------------------------
def prepare_fig7(seed: int, directory: str) -> dict:
    trees = _treebase(FIG7_TREES, random.Random(seed))
    path = os.path.join(directory, "corpus.nex")
    size = _write(path, write_nexus(trees))
    return {
        "argv": ["frequent", path, "--minsup", str(MINSUP), "--jobs", "1"],
        "file": path,
        "inputs": {**tree_stats(trees), "input_bytes": size},
        "_trees": trees,
    }


def reference_fig7(job: dict) -> dict:
    return {"stdout_sha256": digest(expected_frequent_stdout(job["_trees"]))}


# ----------------------------------------------------------------------
# fig10-kernel
# ----------------------------------------------------------------------
def prepare_fig10(seed: int, directory: str) -> dict:
    rng = random.Random(seed)
    pool = [f"Taxon{i:03d}" for i in range(KERNEL_POOL)]
    groups = []
    for _ in range(KERNEL_GROUPS):
        base = yule_tree(rng.sample(pool, KERNEL_GROUP_TAXA), rng)
        group = []
        for _ in range(KERNEL_TREES_PER_GROUP):
            tree = base
            for _ in range(rng.randint(1, KERNEL_MAX_NNI)):
                tree = random_nni(tree, rng)
            group.append(tree)
        groups.append(group)
    paths, size = [], 0
    for number, group in enumerate(groups):
        path = os.path.join(directory, f"group{number}.nwk")
        size += _write(path, "".join(newick(tree) + "\n" for tree in group))
        paths.append(path)
    flat = [tree for group in groups for tree in group]
    return {
        "argv": ["kernel", *paths, "--jobs", "1"],
        "files": paths,
        "inputs": {**tree_stats(flat), "input_bytes": size},
        "_groups": groups,
    }


def reference_fig10(job: dict) -> dict:
    """Exhaustive minimum over the cross-group distance matrices.

    Sums accumulate in the search's order (each new group adds its
    distances to all earlier choices), so the minimum and its
    lexicographically first argmin match an exact search bit for bit.
    """
    groups = job["_groups"]
    flat = [tree for group in groups for tree in group]
    vectors = DistanceVectors.from_counters(list(reference_counters(flat)))
    matrix = np.asarray(vectors.matrix())
    offsets = np.cumsum([0] + [len(group) for group in groups])
    block = [
        [matrix[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]]
         for j in range(len(groups))]
        for i in range(len(groups))
    ]
    totals = np.zeros(len(groups[0]))
    for g in range(1, len(groups)):
        added = np.zeros(totals.shape + (len(groups[g]),))
        for earlier in range(g):
            shape = [1] * (g + 1)
            shape[earlier] = len(groups[earlier])
            shape[g] = len(groups[g])
            added = added + block[earlier][g].reshape(shape)
        totals = totals[..., None] + added
    flat_best = int(np.argmin(totals))
    indexes = [int(i) for i in np.unravel_index(flat_best, totals.shape)]
    pairs = len(groups) * (len(groups) - 1) // 2
    average = float(totals.flat[flat_best]) / pairs
    return {"indexes": indexes, "average": f"{average:.6f}"}


# ----------------------------------------------------------------------
# corpus-churn
# ----------------------------------------------------------------------
def prepare_churn(seed: int, directory: str) -> dict:
    """A TreeBASE-like corpus (as fig7's) plus a commit schedule.

    Adds are NNI variants of random members (their labels are known,
    so the store appends a generation); every ``CHURN_NOVEL_EVERY``-th
    commit also brings a tree over never-seen taxa, whose label growth
    makes the store compact.
    """
    rng = random.Random(seed)
    trees = _treebase(CHURN_TREES, rng)
    path = os.path.join(directory, "corpus.nex")
    size = _write(path, write_nexus(trees))
    members = list(range(len(trees)))
    union = list(trees)
    steps = []
    for step in range(CHURN_STEPS):
        adds = [
            random_nni(union[rng.choice(members)], rng)
            for _ in range(CHURN_STEP_TREES)
        ]
        if step % CHURN_NOVEL_EVERY == CHURN_NOVEL_EVERY - 1:
            taxa = [f"Novel{step:02d}_{i:03d}" for i in range(200)]
            adds[-1] = synthetic_study(f"N{step}", taxa, 1, rng=rng).trees[0]
        members.extend(range(len(union), len(union) + len(adds)))
        union.extend(adds)
        removes = sorted(rng.sample(range(len(members)), CHURN_STEP_TREES))
        for index in reversed(removes):
            del members[index]
        query = union[rng.choice(members)]
        steps.append({
            "add": [newick(tree) for tree in adds],
            "remove": removes,
            "query": newick(random_nni(query, rng)),
            "_members": list(members),
        })
    return {
        "file": path,
        "steps": steps,
        "inputs": {**tree_stats(trees), "input_bytes": size},
        "_trees": trees,
        "_union": union,
    }


def reference_churn(job: dict) -> dict:
    """Final frequent pairs re-mined from scratch, and each step's
    top-k from brute-force rows over every tree the schedule touches
    (a distance depends on its two trees only)."""
    union = job["_union"]
    steps = job["steps"]
    queries = [parse_newick(step["query"]) for step in steps]
    counters = list(reference_counters(union + queries))
    vectors = DistanceVectors.from_counters(counters)
    neighbours = [
        sorted_neighbours(vectors.row(len(union) + number)[0], step["_members"])
        for number, step in enumerate(steps)
    ]
    final = [counters[uid] for uid in steps[-1]["_members"]]
    return {
        "neighbours": neighbours,
        "frequent_sha256": digest("\n".join(frequent_lines(final))),
    }


PREPARE = {
    "fig7-frequent": prepare_fig7,
    "fig10-kernel": prepare_fig10,
    "corpus-churn": prepare_churn,
}

REFERENCE = {
    "fig7-frequent": reference_fig7,
    "fig10-kernel": reference_fig10,
    "corpus-churn": reference_churn,
}
