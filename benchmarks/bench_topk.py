"""Top-k similarity benchmark: exact top-k vs the sorted all-pairs row (BENCH_topk.json).

Answers the ROADMAP's service-shaped query — "find the k trees nearest
to mine" — two ways over a TreeBASE-like synthetic corpus (studies of
related trees drawing taxa from a shared namespace that grows with the
corpus, one taxon per base tree) and for all four ``DistanceMode``s:

- ``reference`` — one full
  :meth:`repro.core.distvec.DistanceVectors.row` per query (the exact
  merge-joins ``distance_matrix`` would spend on that row), sorted in
  Python;
- ``topk`` — :meth:`repro.engine.MiningEngine.topk_similar`: the query
  mined through the engine cache, projected onto the corpus labels,
  one vectorised distance row
  (:meth:`~repro.core.distvec.DistanceVectors.query_distances`) and a
  stable sort.

The corpus is swept over several sizes.  At every size and mode the
neighbours must be **byte-identical** (same distances, ties broken by
the smaller tree index).  In full mode, top-k wall-clock must also
stay within ``RATIO_GATE`` x the reference at every size of at least
``GATE_MIN_TREES`` trees: the reference is the work an exact answer
cannot avoid, so top-k may only add its query mining and projection on
top.  Each side is timed ``ROUNDS`` times, alternating, and the fastest
round counts, so a loaded host inflates neither side alone.

Run under pytest (``pytest benchmarks/bench_topk.py``) to regenerate
``BENCH_topk.json``, or standalone::

    PYTHONPATH=src python benchmarks/bench_topk.py          # full gate
    PYTHONPATH=src python benchmarks/bench_topk.py --smoke  # CI smoke

Smoke mode sweeps two small corpora and gates byte identity only.
"""

from __future__ import annotations

import argparse
import json
import random
import time
from pathlib import Path

try:
    from benchmarks.conftest import write_run_manifest
except ImportError:  # script invocation: sys.path[0] is benchmarks/
    from conftest import write_run_manifest

from repro.core.distance import DistanceMode
from repro.core.params import MiningParams
from repro.engine import MiningEngine
from repro.generate.treebase import synthetic_treebase_corpus
from repro.obs.context import scope
from repro.obs.metrics import MetricsRegistry, stopwatch
from repro.trees.ops import relabel

SIZES = (400, 4000, 20000)
MIN_NODES = 40
MAX_NODES = 120
QUERIES = 8
K = 10
ROUNDS = 3
RATIO_GATE = 1.5
GATE_MIN_TREES = 496
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_topk.json"

SMOKE_SIZES = (60, 240)
SMOKE_MIN_NODES = 15
SMOKE_MAX_NODES = 40
SMOKE_QUERIES = 3


def make_corpus(count: int, alphabet: int, min_nodes: int, max_nodes: int):
    studies = synthetic_treebase_corpus(
        num_trees=count,
        trees_per_study=4,
        min_nodes=min_nodes,
        max_nodes=max_nodes,
        alphabet_size=alphabet,
        rng=7000 + count,
    )
    return [tree for study in studies for tree in study.trees]


def plant_variants(forest, query_indexes, variants, rng):
    """Append near-duplicates of every query tree to the corpus.

    Variant ``v`` of a query relabels ``v + 1`` of its leaves to fresh
    taxa — a graded cloud of close neighbours, the TreeBASE situation
    where later studies republish a phylogeny with a few taxa swapped.
    With >= k such neighbours every query has a real, well-separated
    top k to find.
    """
    planted = []
    for query_position, index in enumerate(query_indexes):
        source = forest[index]
        leaves = sorted(source.leaf_labels())
        for variant in range(variants):
            chosen = rng.sample(leaves, min(len(leaves), variant + 1))
            mapping = {
                label: f"Variant{query_position:02d}_{variant:02d}_{i:02d}"
                for i, label in enumerate(chosen)
            }
            planted.append(relabel(source, mapping))
    return planted


def reference_topk(vectors, index, mode):
    """The first K entries of ``index``'s sorted all-pairs row."""
    row, _computed, _pruned = vectors.row(index, mode)
    ranked = sorted((distance, position) for position, distance in enumerate(row))
    return tuple((position, distance) for distance, position in ranked[:K])


def run_size(
    count: int,
    min_nodes: int,
    max_nodes: int,
    queries: int,
    registry: MetricsRegistry,
) -> tuple[dict, dict]:
    """One corpus size: every mode, reference and top-k, timed."""
    params = MiningParams(maxdist=1.5, minoccur=1, minsup=1)
    with scope(registry), stopwatch() as corpus_watch:
        forest = make_corpus(count, count, min_nodes, max_nodes)
        # Queries are corpus members spread across studies: the natural
        # catalog workload ("which trees resemble this study's tree?").
        query_indexes = [i * count // queries for i in range(queries)]
        forest.extend(
            plant_variants(forest, query_indexes, K + 2, random.Random(13))
        )
    engine = MiningEngine(jobs=1)
    with scope(registry), stopwatch() as build_watch:
        vectors = engine.distance_vectors(forest, params)
        vectors.build_index()

    per_mode = []
    with scope(registry):
        for mode in DistanceMode:
            reference_seconds = []
            topk_seconds = []
            for _round in range(ROUNDS):
                started = time.perf_counter()
                references = [
                    reference_topk(vectors, index, mode)
                    for index in query_indexes
                ]
                reference_seconds.append(time.perf_counter() - started)
                started = time.perf_counter()
                results = [
                    engine.topk_similar(vectors, forest[index], K, mode, params)
                    for index in query_indexes
                ]
                topk_seconds.append(time.perf_counter() - started)
            per_mode.append(
                {
                    "mode": mode.value,
                    "reference_seconds": min(reference_seconds),
                    "topk_seconds": min(topk_seconds),
                    "exact_joins": sum(r.exact_joins for r in results),
                    "pruned_index": sum(r.pruned_index for r in results),
                    "identical": all(
                        result.neighbors == reference
                        for result, reference in zip(results, references)
                    ),
                }
            )
    reference_total = sum(entry["reference_seconds"] for entry in per_mode)
    topk_total = sum(entry["topk_seconds"] for entry in per_mode)
    entry = {
        "trees": len(forest),
        "base_trees": count,
        "planted_variants": len(forest) - count,
        "alphabetsize": count,
        "per_mode": per_mode,
        "reference_seconds": reference_total,
        "topk_seconds": topk_total,
        "ratio": topk_total / reference_total,
        "identical": all(mode_entry["identical"] for mode_entry in per_mode),
    }
    phases = {
        f"corpus_{count}": corpus_watch.seconds,
        f"build_{count}": build_watch.seconds,
        f"reference_{count}": reference_total,
        f"topk_{count}": topk_total,
    }
    return entry, phases


def run(
    sizes: tuple[int, ...],
    min_nodes: int,
    max_nodes: int,
    queries: int,
    smoke: bool,
) -> tuple[dict, MetricsRegistry]:
    registry = MetricsRegistry()
    entries = []
    phases: dict[str, float] = {}
    for count in sizes:
        entry, size_phases = run_size(
            count, min_nodes, max_nodes, queries, registry
        )
        entries.append(entry)
        phases.update(size_phases)
    payload = {
        "mode": "smoke" if smoke else "full",
        "queries": queries,
        "k": K,
        "rounds": ROUNDS,
        "min_nodes": min_nodes,
        "max_nodes": max_nodes,
        "sizes": entries,
        "identical": all(entry["identical"] for entry in entries),
        "ratio_gate": None if smoke else RATIO_GATE,
        "gate_min_trees": GATE_MIN_TREES,
        "phases": [
            {"name": name, "seconds": seconds}
            for name, seconds in phases.items()
        ],
        "note": (
            "single-thread; TreeBASE-like studies over a taxon namespace "
            "growing with the corpus; per size, query and mode the top-k "
            "neighbours must equal the sorted all-pairs row exactly (ties "
            "by smaller index); full mode also gates top-k wall-clock at "
            f"<= {RATIO_GATE}x the sorted row for every size of >= "
            f"{GATE_MIN_TREES} trees (fastest of {ROUNDS} rounds per side)"
        ),
    }
    return payload, registry


def check(payload: dict) -> None:
    for entry in payload["sizes"]:
        assert entry["identical"], (
            f"top-k neighbours diverged from the sorted all-pairs row "
            f"at {entry['trees']} trees"
        )
        if (
            payload["ratio_gate"] is not None
            and entry["trees"] >= payload["gate_min_trees"]
        ):
            assert entry["ratio"] <= payload["ratio_gate"], entry


def report_rows(payload: dict) -> list[str]:
    rows = [
        f"{payload['queries']} queries, k={payload['k']}, "
        f"{payload['min_nodes']}-{payload['max_nodes']} nodes per tree, "
        f"fastest of {payload['rounds']} rounds"
    ]
    for entry in payload["sizes"]:
        rows.append(
            f"{entry['trees']:>6} trees: reference "
            f"{entry['reference_seconds']:.3f}s vs top-k "
            f"{entry['topk_seconds']:.3f}s ({entry['ratio']:.2f}x); "
            f"identical: {entry['identical']}"
        )
        for mode_entry in entry["per_mode"]:
            rows.append(
                f"    {mode_entry['mode']:>10}: reference "
                f"{mode_entry['reference_seconds']:.4f}s vs top-k "
                f"{mode_entry['topk_seconds']:.4f}s, "
                f"{mode_entry['exact_joins']} join(s), "
                f"{mode_entry['pruned_index']} index-pruned"
            )
    gate = payload["ratio_gate"]
    rows.append(
        "gate: identical at every size"
        + (
            f"; top-k <= {gate}x reference at >= "
            f"{payload['gate_min_trees']} trees"
            if gate is not None
            else ""
        )
    )
    return rows


def test_topk_matches_and_keeps_pace_with_sorted_row(benchmark, print_rows):
    payload, registry = benchmark.pedantic(
        lambda: run(SIZES, MIN_NODES, MAX_NODES, QUERIES, smoke=False),
        rounds=1, iterations=1,
    )
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    write_run_manifest("bench_topk", payload, OUTPUT, registry=registry)
    print_rows(
        "Top-k similarity — exact top-k vs sorted all-pairs row "
        "(BENCH_topk.json)",
        report_rows(payload),
    )
    check(payload)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="two small corpora, byte-identity gate only (CI-sized)",
    )
    parser.add_argument(
        "--manifest", default=None, metavar="PATH",
        help="also write the run manifest (params, git revision, "
             "phase timings, metrics snapshot) to PATH",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        payload, registry = run(
            SMOKE_SIZES, SMOKE_MIN_NODES, SMOKE_MAX_NODES, SMOKE_QUERIES,
            smoke=True,
        )
    else:
        payload, registry = run(
            SIZES, MIN_NODES, MAX_NODES, QUERIES, smoke=False
        )
        OUTPUT.write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        write_run_manifest("bench_topk", payload, OUTPUT, registry=registry)
    if args.manifest:
        write_run_manifest(
            "bench_topk", payload, OUTPUT,
            registry=registry, path=args.manifest,
        )
    print(f"[top-k similarity benchmark — {payload['mode']}]")
    for row in report_rows(payload):
        print(f"  {row}")
    check(payload)
    print("ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
