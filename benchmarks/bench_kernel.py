"""Kernel benchmark: fastmine vs the pointer reference (BENCH_kernel.json).

Times three single-thread passes over the PR-1 corpus shape (600
synthetic trees of ~50 nodes, Figure-6 style):

- ``reference`` — the seed miner, :func:`repro.core.single_tree.
  mine_tree_counter`, walking ``Node`` objects and hashing label
  strings;
- ``dropin`` — :meth:`TreeArena.from_tree` + :func:`mine_arena` +
  :meth:`PackedCounts.to_counter` per tree: the kernel as a drop-in
  replacement for the reference, *including* the cost of
  materialising a string-keyed ``Counter`` per tree;
- ``kernel`` — the interned pipeline, one tree per call:
  :meth:`TreeArena.from_tree` + :func:`mine_arena`, producing packed
  counts (string materialisation happens once, outside the timed
  region, exactly as the engine defers it to the boundary).

An extra ``batch`` row (no gate) times what the engine runs on a
batch of cache misses: every tree flattened, then one
:func:`mine_arenas` call over all of them.

The gate asserts the interned kernel is >= 3x the reference, and that
both fastmine passes decode to output *byte-identical* to the
reference (a canonical serialisation of every per-tree counter is
compared as bytes, not just ``==``).

Run under pytest (``pytest benchmarks/bench_kernel.py``) to regenerate
``BENCH_kernel.json``, or standalone::

    PYTHONPATH=src python benchmarks/bench_kernel.py          # full gate
    PYTHONPATH=src python benchmarks/bench_kernel.py --smoke  # CI smoke

The smoke mode runs a tiny corpus in a few hundred milliseconds and
only asserts no regression (kernel >= 1x reference) plus byte-identical
output — enough for CI to catch a broken or slowed kernel without a
long perf job.
"""

from __future__ import annotations

import argparse
import json
import random
import time
from collections import Counter
from pathlib import Path

try:
    from benchmarks.conftest import write_run_manifest
except ImportError:  # script invocation: sys.path[0] is benchmarks/
    from conftest import write_run_manifest

from repro.core import single_tree
from repro.core.fastmine import mine_arena, mine_arenas
from repro.core.params import MiningParams
from repro.generate.random_trees import SyntheticTreeParams, synthetic_forest
from repro.obs.context import scope
from repro.obs.metrics import MetricsRegistry, stopwatch
from repro.trees.arena import TreeArena

COUNT = 600
TREESIZE = 50  # Table 3's 200 scaled down, matching bench_fig6
MAXDIST = 1.5
REPEATS = 3  # every pass is best-of-N to shrug off scheduler noise
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"

SMOKE_COUNT = 40
SMOKE_TREESIZE = 20


def make_corpus(count: int = COUNT, treesize: int = TREESIZE) -> list:
    params = SyntheticTreeParams(
        treesize=treesize, databasesize=count, fanout=5, alphabetsize=200
    )
    return synthetic_forest(params, random.Random(4200 + count))


def best_of(repeats: int, pass_fn, corpus):
    """Run ``pass_fn`` over the corpus ``repeats`` times; keep the
    fastest wall time (results are identical every round)."""
    result, seconds = None, float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        result = [pass_fn(tree) for tree in corpus]
        seconds = min(seconds, time.perf_counter() - started)
    return result, seconds


def canonical_bytes(counters: list[Counter]) -> bytes:
    """A canonical byte serialisation of per-tree counters.

    Length-prefixed labels keep the encoding injective; sorting makes
    it independent of dict insertion order, so two byte-equal outputs
    carry exactly the same counts.
    """
    lines = []
    for counter in counters:
        for (label_a, label_b, distance), count in sorted(counter.items()):
            lines.append(
                f"{len(label_a)}:{label_a}|{len(label_b)}:{label_b}"
                f"|{distance!r}|{count}"
            )
        lines.append("--")
    return "\n".join(lines).encode("utf-8")


def run(
    count: int, treesize: int, smoke: bool
) -> tuple[dict, MetricsRegistry]:
    registry = MetricsRegistry()
    with scope(registry), stopwatch() as corpus_watch:
        corpus = make_corpus(count, treesize)
    params = MiningParams(maxdist=MAXDIST)

    with scope(registry):
        reference, reference_seconds = best_of(
            REPEATS,
            lambda t: single_tree.mine_tree_counter(t, MAXDIST),
            corpus,
        )
        dropin, dropin_seconds = best_of(
            REPEATS,
            lambda t: mine_arena(TreeArena.from_tree(t), params).to_counter(),
            corpus,
        )
        packed, kernel_seconds = best_of(
            REPEATS,
            lambda t: mine_arena(TreeArena.from_tree(t), params),
            corpus,
        )
        batch_seconds = float("inf")
        for _ in range(REPEATS):
            started = time.perf_counter()
            batched = mine_arenas(
                [TreeArena.from_tree(tree) for tree in corpus], params
            )
            batch_seconds = min(batch_seconds, time.perf_counter() - started)
        # Boundary materialisation, outside the timed region by design.
        decoded = [p.to_counter() for p in packed]

    reference_bytes = canonical_bytes(reference)
    byte_identical = (
        canonical_bytes(dropin) == reference_bytes
        and canonical_bytes(decoded) == reference_bytes
        and canonical_bytes([p.to_counter() for p in batched]) == reference_bytes
    )

    gate = 1.0 if smoke else 3.0
    phases = {
        "corpus": corpus_watch.seconds,
        "reference": reference_seconds,
        "dropin": dropin_seconds,
        "kernel": kernel_seconds,
        "batch": batch_seconds,
    }
    payload = {
        "mode": "smoke" if smoke else "full",
        "corpus": {"trees": count, "treesize": treesize, "fanout": 5,
                   "alphabetsize": 200},
        "maxdist": MAXDIST,
        "repeats": REPEATS,
        "reference_seconds": reference_seconds,
        "dropin_seconds": dropin_seconds,
        "kernel_seconds": kernel_seconds,
        "dropin_speedup": reference_seconds / dropin_seconds,
        "kernel_speedup": reference_seconds / kernel_seconds,
        "batch_seconds": batch_seconds,
        "batch_speedup": reference_seconds / batch_seconds,
        "byte_identical": byte_identical,
        "gate": gate,
        "phases": [
            {"name": name, "seconds": seconds}
            for name, seconds in phases.items()
        ],
        "note": (
            "single-thread; 'kernel' times TreeArena.from_tree + "
            "mine_arena (packed counts, as the engine caches them); "
            "'batch' times TreeArena.from_tree per tree + one mine_arenas "
            "call (no gate); "
            "'dropin' adds per-tree Counter materialisation; the gate "
            f"asserts kernel_speedup >= {gate}x with byte-identical "
            "output"
        ),
    }
    return payload, registry


def check(payload: dict) -> None:
    assert payload["byte_identical"], (
        "fastmine output diverged from the single_tree reference"
    )
    assert payload["kernel_speedup"] >= payload["gate"], payload


def report_rows(payload: dict) -> list[str]:
    return [
        f"corpus: {payload['corpus']['trees']} trees x "
        f"~{payload['corpus']['treesize']} nodes (best of "
        f"{payload['repeats']})",
        f"reference: {payload['reference_seconds']:.3f}s",
        f"dropin:    {payload['dropin_seconds']:.3f}s "
        f"({payload['dropin_speedup']:.2f}x)",
        f"kernel:    {payload['kernel_seconds']:.3f}s "
        f"({payload['kernel_speedup']:.2f}x, gate {payload['gate']:.0f}x)",
        f"batch:     {payload['batch_seconds']:.3f}s "
        f"({payload['batch_speedup']:.2f}x, one mine_arenas call)",
        f"byte-identical: {payload['byte_identical']}",
    ]


def test_kernel_speedup_gate(benchmark, print_rows):
    payload, registry = benchmark.pedantic(
        lambda: run(COUNT, TREESIZE, smoke=False), rounds=1, iterations=1
    )
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    write_run_manifest("bench_kernel", payload, OUTPUT, registry=registry)
    print_rows(
        "Kernel — fastmine vs single_tree (BENCH_kernel.json)",
        report_rows(payload),
    )
    check(payload)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny corpus, >=1x no-regression gate (CI-sized)",
    )
    parser.add_argument(
        "--manifest", default=None, metavar="PATH",
        help="also write the run manifest (params, git revision, "
             "phase timings, metrics snapshot) to PATH",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        payload, registry = run(SMOKE_COUNT, SMOKE_TREESIZE, smoke=True)
    else:
        payload, registry = run(COUNT, TREESIZE, smoke=False)
        OUTPUT.write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        write_run_manifest("bench_kernel", payload, OUTPUT, registry=registry)
    if args.manifest:
        write_run_manifest(
            "bench_kernel", payload, OUTPUT,
            registry=registry, path=args.manifest,
        )
    print(f"[kernel benchmark — {payload['mode']}]")
    for row in report_rows(payload):
        print(f"  {row}")
    check(payload)
    print("ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
