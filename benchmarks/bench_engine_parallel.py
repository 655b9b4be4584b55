"""Engine benchmark: kernels, plain and engine paths (BENCH_engine.json).

Runs ``Multiple_Tree_Mining`` over a Figure-6-style synthetic forest
and records, side by side:

- the **legacy** serial kernel (per-tree
  :func:`repro.core.single_tree.mine_tree_counter`, the seed's hot
  path) vs the **fastmine** serial kernel (per tree,
  :meth:`TreeArena.from_tree` + :func:`repro.core.fastmine.mine_arena`
  + ``.to_counter()``) — the perf trajectory across PRs stays
  comparable because both are always measured;
- ``mine_forest`` without an engine, and through an engine (one
  batch).

Both kernels must produce equal counters, and both forest paths the
same frequent pairs.
"""

from __future__ import annotations

import json
import multiprocessing
import random
from pathlib import Path

from benchmarks.conftest import wall_time, write_run_manifest
from repro.core import single_tree
from repro.core.fastmine import mine_arena
from repro.core.multi_tree import mine_forest
from repro.core.params import MiningParams
from repro.engine import MiningEngine
from repro.generate.random_trees import SyntheticTreeParams, synthetic_forest
from repro.trees.arena import TreeArena

COUNT = 600
TREESIZE = 50  # Table 3's 200 scaled down, matching bench_fig6
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def make_corpus(count: int = COUNT) -> list:
    params = SyntheticTreeParams(
        treesize=TREESIZE, databasesize=count, fanout=5, alphabetsize=200
    )
    return synthetic_forest(params, random.Random(4200 + count))


def strict(patterns):
    return [
        (p.label_a, p.label_b, p.distance, p.support, p.tree_indexes,
         p.total_occurrences)
        for p in patterns
    ]


def test_engine_kernels(benchmark, print_rows):
    corpus = make_corpus()
    cpus = multiprocessing.cpu_count()

    def sweep() -> dict:
        # Kernel comparison, both single-thread over the same corpus.
        legacy_counts, legacy_seconds = wall_time(
            lambda: [single_tree.mine_tree_counter(t) for t in corpus]
        )
        params = MiningParams()
        fast_counts, fastmine_seconds = wall_time(
            lambda: [
                mine_arena(TreeArena.from_tree(t), params).to_counter()
                for t in corpus
            ]
        )
        assert fast_counts == legacy_counts

        reference, serial_seconds = wall_time(mine_forest, corpus)

        engine = MiningEngine()
        engined, engine_seconds = wall_time(mine_forest, corpus, engine=engine)
        assert strict(engined) == strict(reference)
        assert engine.stats.trees_seen == len(corpus)

        payload = {
            "corpus": {"trees": COUNT, "treesize": TREESIZE, "fanout": 5,
                       "alphabetsize": 200},
            "cpu_count": cpus,
            "kernel_legacy_seconds": legacy_seconds,
            "kernel_fastmine_seconds": fastmine_seconds,
            "kernel_speedup": legacy_seconds / fastmine_seconds,
            "serial_seconds": serial_seconds,
            "engine_seconds": engine_seconds,
            "phases": [
                {"name": "kernel_legacy", "seconds": legacy_seconds},
                {"name": "kernel_fastmine", "seconds": fastmine_seconds},
                {"name": "serial", "seconds": serial_seconds},
                {"name": "engine", "seconds": engine_seconds},
            ],
        }
        return payload, engine.registry

    payload, registry = benchmark.pedantic(sweep, rounds=1, iterations=1)
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    write_run_manifest("bench_engine", payload, OUTPUT, registry=registry)

    print_rows(
        "Engine — kernels and forest paths (BENCH_engine.json)",
        [
            f"cpus {payload['cpu_count']}",
            f"kernel legacy:   {payload['kernel_legacy_seconds']:.3f}s",
            f"kernel fastmine: {payload['kernel_fastmine_seconds']:.3f}s "
            f"({payload['kernel_speedup']:.2f}x)",
            f"serial:        {payload['serial_seconds']:.3f}s",
            f"engine:        {payload['engine_seconds']:.3f}s",
        ],
    )
