"""On-disk pair store vs in-RAM serving (BENCH_store.json).

The tentpole gate for :mod:`repro.store`: mine + distance queries
over a memmapped 10k-tree corpus must run within 1.2x of the in-RAM
pipeline, byte-identically, with a documented fraction of its
resident memory, and a warm reopen must reach its first query in
under 100 ms.  The reopen is timed in three store children and gated
on the fastest: host load only ever adds time, and one slow child on a
shared host says nothing about the store.

Three phases run as separate child processes so ``ru_maxrss`` (the
process-lifetime peak RSS) isolates each side:

- ``pack``  — build the synthetic forest and pack it into a store;
- ``inram`` — build the forest again, mine it in RAM and serve the
  query workload from in-RAM vectors (`mine_forest` +
  ``DistanceVectors`` rows);
- ``store`` — open the packed store cold (never constructing a single
  tree) and serve the identical workload from memmapped rows.

The workload: frequent pairs at ``minsup=2`` plus full distance rows
for eight spread-out trees.  Results are compared by sha256 digest —
the store must serve the same bytes, not merely similar numbers.

Run under pytest (``pytest benchmarks/bench_store.py``) to regenerate
``BENCH_store.json``, or standalone::

    PYTHONPATH=src python benchmarks/bench_store.py          # full gate
    PYTHONPATH=src python benchmarks/bench_store.py --smoke  # CI smoke

Smoke mode shrinks the corpus and gates digest identity plus the
reopen budget only (wall-clock ratios are noise at smoke size).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

try:
    from benchmarks.conftest import write_run_manifest
except ImportError:  # script invocation: sys.path[0] is benchmarks/
    from conftest import write_run_manifest

COUNT = 10_000
TREESIZE = 12
ALPHABET = 120
ROW_QUERIES = 8
MINSUP = 2
RATIO_GATE = 1.2
REOPEN_GATE_SECONDS = 0.100
REOPEN_CHILDREN = 3
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_store.json"

SMOKE_COUNT = 400


def make_forest(count: int):
    from repro.generate import SyntheticTreeParams, synthetic_forest

    return synthetic_forest(
        SyntheticTreeParams(
            treesize=TREESIZE, databasesize=count, alphabetsize=ALPHABET
        ),
        rng=42,
    )


def query_indexes(count: int) -> list[int]:
    return [i * count // ROW_QUERIES for i in range(ROW_QUERIES)]


def digest_patterns(patterns) -> str:
    blob = "\n".join(
        f"{p.label_a}|{p.label_b}|{p.distance!r}|{p.support}|"
        f"{p.tree_indexes!r}|{p.total_occurrences}"
        for p in patterns
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def digest_rows(rows) -> str:
    blob = "\n".join(
        " ".join(repr(value) for value in row) for row in rows
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ----------------------------------------------------------------------
# Child phases (each runs in its own process for an isolated ru_maxrss)
# ----------------------------------------------------------------------
def phase_pack(directory: str, count: int, engine=None) -> dict:
    from repro.engine.delta import VersionedCorpus

    forest = make_forest(count)
    started = time.perf_counter()
    VersionedCorpus(forest, engine=engine).pack_store(directory)
    pack_seconds = time.perf_counter() - started
    size_bytes = sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, names in os.walk(directory)
        for name in names
    )
    return {
        "pack_seconds": pack_seconds,
        "store_bytes": size_bytes,
        "ru_maxrss_kb": peak_rss_kb(),
    }


def phase_inram(count: int, engine=None) -> dict:
    from repro.core.multi_tree import mine_forest
    from repro.core.params import MiningParams
    from repro.engine import MiningEngine

    forest = make_forest(count)
    params = MiningParams(
        maxdist=1.5, minoccur=1, minsup=1,
        max_generation_gap=1, max_height=None,
    )
    if engine is None:
        engine = MiningEngine(jobs=1)
    started = time.perf_counter()
    vectors = engine.distance_vectors(forest, params)
    build_seconds = time.perf_counter() - started

    started = time.perf_counter()
    patterns = mine_forest(forest, minsup=MINSUP, engine=engine)
    mine_seconds = time.perf_counter() - started

    started = time.perf_counter()
    rows = [vectors.row(index)[0] for index in query_indexes(count)]
    distance_seconds = time.perf_counter() - started
    return {
        "build_seconds": build_seconds,
        "mine_seconds": mine_seconds,
        "distance_seconds": distance_seconds,
        "patterns": len(patterns),
        "patterns_digest": digest_patterns(patterns),
        "rows_digest": digest_rows(rows),
        "ru_maxrss_kb": peak_rss_kb(),
    }


def phase_store(directory: str, count: int) -> dict:
    from repro.store import PairStore

    # Warm reopen to first query: open + vectors + one exact distance.
    started = time.perf_counter()
    store = PairStore.open(directory)
    vectors = store.as_vectors()
    vectors.distance(0, 1)
    reopen_seconds = time.perf_counter() - started

    started = time.perf_counter()
    patterns = store.frequent_pairs(minsup=MINSUP)
    mine_seconds = time.perf_counter() - started

    started = time.perf_counter()
    rows = [vectors.row(index)[0] for index in query_indexes(count)]
    distance_seconds = time.perf_counter() - started
    return {
        "reopen_seconds": reopen_seconds,
        "mine_seconds": mine_seconds,
        "distance_seconds": distance_seconds,
        "patterns": len(patterns),
        "patterns_digest": digest_patterns(patterns),
        "rows_digest": digest_rows(rows),
        "ru_maxrss_kb": peak_rss_kb(),
    }


def run_child(phase: str, directory: str, count: int) -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    completed = subprocess.run(
        [
            sys.executable, os.fspath(Path(__file__).resolve()),
            "--phase", phase, "--dir", directory, "--count", str(count),
        ],
        capture_output=True, text=True, env=env, check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{phase} child failed:\n{completed.stdout}\n{completed.stderr}"
        )
    return json.loads(completed.stdout.splitlines()[-1])


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------
def run(count: int, smoke: bool) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench_store.") as scratch:
        directory = os.path.join(scratch, "store")
        pack = run_child("pack", directory, count)
        inram = run_child("inram", directory, count)
        stores = [
            run_child("store", directory, count)
            for _ in range(REOPEN_CHILDREN)
        ]
    store = stores[0]
    reopen_samples = [child["reopen_seconds"] for child in stores]

    inram_query = inram["mine_seconds"] + inram["distance_seconds"]
    store_query = store["mine_seconds"] + store["distance_seconds"]
    ratio = store_query / inram_query if inram_query > 0 else None
    rss_fraction = (
        store["ru_maxrss_kb"] / inram["ru_maxrss_kb"]
        if inram["ru_maxrss_kb"]
        else None
    )
    identical = all(
        inram["patterns_digest"] == child["patterns_digest"]
        and inram["rows_digest"] == child["rows_digest"]
        for child in stores
    )
    payload = {
        "mode": "smoke" if smoke else "full",
        "corpus": {
            "trees": count,
            "treesize": TREESIZE,
            "alphabetsize": ALPHABET,
        },
        "minsup": MINSUP,
        "row_queries": ROW_QUERIES,
        "pack": pack,
        "inram": inram,
        "store": store,
        "query_ratio": ratio,
        "rss_fraction": rss_fraction,
        "reopen_seconds": min(reopen_samples),
        "reopen_samples": reopen_samples,
        "identical": identical,
        "ratio_gate": RATIO_GATE,
        "reopen_gate_seconds": REOPEN_GATE_SECONDS,
        "phases": [
            {"name": "pack", "seconds": pack["pack_seconds"]},
            {"name": "inram_build", "seconds": inram["build_seconds"]},
            {"name": "inram_query", "seconds": inram_query},
            {"name": "store_reopen", "seconds": min(reopen_samples)},
            {"name": "store_query", "seconds": store_query},
        ],
        "note": (
            "children run in separate processes so ru_maxrss isolates "
            "each side; the store child never constructs a tree — its "
            "peak RSS is the memmap-serving footprint; the reopen is the "
            "fastest of three store children; digests compare "
            "frequent pairs (every field) and full distance rows "
            "bit-for-bit"
        ),
    }
    return payload


def run_traced(count: int, trace_path: str, smoke: bool = True) -> dict:
    """The three phases in one traced process (``--trace PATH``).

    Subprocess isolation is what makes the full gate's ``ru_maxrss``
    honest, but a trace needs one span tree — so the traced variant
    runs pack/inram/store in-process under an enabled tracer, with one
    root span per phase whose wall-clock *is* the manifest phase
    timing.  ``repro-mine profile`` over the written trace therefore
    reconciles exactly: per-root self-time totals sum back to the
    payload's phase seconds.  Ratio/RSS gates are skipped (shared
    process, tracing overhead); digest identity still holds.
    """
    from repro.engine import MiningEngine
    from repro.obs.context import scope
    from repro.obs.export import write_trace
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer

    registry = MetricsRegistry()
    tracer = Tracer(registry, enabled=True)
    with tempfile.TemporaryDirectory(prefix="bench_store.") as scratch:
        directory = os.path.join(scratch, "store")
        with scope(registry, tracer):
            engine = MiningEngine(
                jobs=1, registry=registry, tracer=tracer
            )
            with tracer.span("pack"):
                pack = phase_pack(directory, count, engine=engine)
            with tracer.span("inram"):
                inram = phase_inram(count, engine=engine)
            with tracer.span("store"):
                store = phase_store(directory, count)
    roots = {
        record.name: record.seconds
        for record in tracer.records
        if record.parent_id is None
    }
    identical = (
        inram["patterns_digest"] == store["patterns_digest"]
        and inram["rows_digest"] == store["rows_digest"]
    )
    payload = {
        "mode": "traced",
        "corpus": {
            "trees": count,
            "treesize": TREESIZE,
            "alphabetsize": ALPHABET,
        },
        "minsup": MINSUP,
        "row_queries": ROW_QUERIES,
        "pack": pack,
        "inram": inram,
        "store": store,
        "query_ratio": None,
        "rss_fraction": None,
        "reopen_seconds": store["reopen_seconds"],
        "identical": identical,
        "ratio_gate": RATIO_GATE,
        "reopen_gate_seconds": REOPEN_GATE_SECONDS,
        "phases": [
            {"name": name, "seconds": roots[name]}
            for name in ("pack", "inram", "store")
        ],
        "note": (
            "traced in-process run: one root span per phase, manifest "
            "phase timings are the root span durations; ratio/RSS "
            "gates do not apply"
        ),
    }
    write_trace(trace_path, tracer, registry, command="bench_store --trace")
    return payload


def check(payload: dict) -> None:
    assert payload["identical"], (
        "store-served results diverged from the in-RAM pipeline"
    )
    assert payload["reopen_seconds"] < payload["reopen_gate_seconds"], (
        f"warm reopen {payload['reopen_seconds'] * 1000:.1f}ms exceeds "
        f"{payload['reopen_gate_seconds'] * 1000:.0f}ms"
    )
    if payload["mode"] == "full":
        assert payload["query_ratio"] <= payload["ratio_gate"], (
            f"memmapped queries {payload['query_ratio']:.2f}x in-RAM "
            f"exceed the {payload['ratio_gate']}x gate"
        )
        assert payload["rss_fraction"] < 1.0, (
            f"store serving used {payload['rss_fraction']:.2f}x the "
            "in-RAM run's peak RSS — expected a fraction"
        )


def report_rows(payload: dict) -> list[str]:
    corpus = payload["corpus"]
    pack, inram, store = payload["pack"], payload["inram"], payload["store"]
    rows = [
        f"corpus: {corpus['trees']} trees x ~{corpus['treesize']} nodes, "
        f"{corpus['alphabetsize']} taxa; "
        f"store {pack['store_bytes'] / 1e6:.1f} MB "
        f"(packed in {pack['pack_seconds']:.1f}s)",
        f"mine (minsup={payload['minsup']}): in-RAM "
        f"{inram['mine_seconds']:.3f}s vs store "
        f"{store['mine_seconds']:.3f}s ({inram['patterns']} patterns)",
        f"distance ({payload['row_queries']} full rows): in-RAM "
        f"{inram['distance_seconds']:.3f}s vs store "
        f"{store['distance_seconds']:.3f}s",
    ]
    if payload["query_ratio"] is not None:
        rows.append(
            f"query ratio: {payload['query_ratio']:.2f}x "
            f"(gate {payload['ratio_gate']}x)"
        )
    if payload["rss_fraction"] is not None:
        rows.append(
            f"peak RSS: in-RAM {inram['ru_maxrss_kb'] / 1024:.0f} MB vs "
            f"store {store['ru_maxrss_kb'] / 1024:.0f} MB "
            f"({payload['rss_fraction']:.2f}x)"
        )
    rows.append(
        f"warm reopen to first query: "
        f"{payload['reopen_seconds'] * 1000:.1f}ms "
        f"(gate {payload['reopen_gate_seconds'] * 1000:.0f}ms)"
    )
    rows.append(f"identical: {payload['identical']}")
    return rows


def test_store_serving_gate(benchmark, print_rows):
    payload = benchmark.pedantic(
        lambda: run(COUNT, smoke=False), rounds=1, iterations=1
    )
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    write_run_manifest("bench_store", payload, OUTPUT)
    print_rows(
        "Pair store — memmapped vs in-RAM serving (BENCH_store.json)",
        report_rows(payload),
    )
    check(payload)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny corpus; gate digest identity + reopen budget only",
    )
    parser.add_argument(
        "--manifest", default=None, metavar="PATH",
        help="also write the run manifest to PATH",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="run the phases in-process under an enabled tracer and "
             "write a JSON-lines trace to PATH (skips ratio/RSS gates)",
    )
    parser.add_argument("--phase", default=None,
                        choices=["pack", "inram", "store"],
                        help=argparse.SUPPRESS)
    parser.add_argument("--dir", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--count", type=int, default=COUNT,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.phase is not None:
        if args.phase == "pack":
            result = phase_pack(args.dir, args.count)
        elif args.phase == "inram":
            result = phase_inram(args.count)
        else:
            result = phase_store(args.dir, args.count)
        print(json.dumps(result))
        return 0

    count = SMOKE_COUNT if args.smoke else COUNT
    if args.trace is not None:
        payload = run_traced(count, args.trace, smoke=args.smoke)
    else:
        payload = run(count, smoke=args.smoke)
    if not args.smoke and args.trace is None:
        OUTPUT.write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        write_run_manifest("bench_store", payload, OUTPUT)
    if args.manifest:
        write_run_manifest(
            "bench_store", payload, OUTPUT, path=args.manifest
        )
    print(f"[pair store benchmark — {payload['mode']}]")
    for row in report_rows(payload):
        print(f"  {row}")
    check(payload)
    print("ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
