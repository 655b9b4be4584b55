"""The measured work of each workload, runnable traced or untraced.

A session runs one workload's operations through the public API and
checks every answer against the set-up's reference.  The same code
serves both kinds of run:

- untraced, in a fresh child process (``python3 perfbench/sessions.py
  JOB.json``), for the end-to-end numbers of corpus-churn;
- traced, in-process, for the per-layer split: ``run.py`` passes an
  enabled :class:`repro.obs.trace.Tracer`, so the spans below wrap
  each call into a layer and the program's own spans nest under them.

Span names are ``<layer>.<call>``; ``run.py`` attributes self time by
the part before the first dot.  The two CLI workloads run the real
``repro-mine`` for end-to-end numbers; their sessions here replay the
command's calls (parse, mine, format) for the traced split only.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback

from repro.cli import load_trees
from repro.core.kernel import find_kernel_trees
from repro.core.multi_tree import mine_forest
from repro.engine import MiningEngine
from repro.engine.delta import VersionedCorpus
from repro.obs.context import scope
from repro.obs.trace import Tracer
from repro.trees.newick import parse_newick

MINSUP = 2
TOPK = 10
FREQUENT_EVERY = 20


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Tally:
    """Operations attempted and failed; failures print a traceback."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: wrong answer: {what}", file=sys.stderr)

    def error(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"perfbench: {what} raised:", file=sys.stderr)
        traceback.print_exc()


def frequent_stdout(patterns, tree_count: int) -> str:
    """What ``repro-mine frequent`` prints for ``patterns``."""
    lines = [f"# {len(patterns)} frequent pair(s) in {tree_count} tree(s)"]
    lines.extend(f"  {pattern.describe()}" for pattern in patterns)
    return "\n".join(lines) + "\n"


def kernel_stdout(result, paths) -> str:
    """What ``repro-mine kernel`` prints for ``result``."""
    lines = [f"# average pairwise distance: {result.average_distance:.6f}"]
    for path, index, tree in zip(paths, result.indexes, result.trees):
        lines.append(f"{path}: {tree.name or f'tree {index}'} (#{index})")
    return "\n".join(lines) + "\n"


def kernel_answer(stdout: str) -> dict:
    """The selection a ``repro-mine kernel`` stdout reports."""
    lines = stdout.splitlines()
    average = lines[0].rsplit(" ", 1)[1]
    indexes = [int(line.rsplit("(#", 1)[1].rstrip(")")) for line in lines[1:]]
    return {"indexes": indexes, "average": average}


def cli_output_ok(workload: str, stdout: str, expected: dict) -> bool:
    if workload == "fig7-frequent":
        return digest(stdout) == expected["stdout_sha256"]
    try:
        return kernel_answer(stdout) == expected
    except (IndexError, ValueError):
        return False


def _engine(tracer: Tracer) -> MiningEngine:
    return MiningEngine(jobs=1, registry=tracer.registry, tracer=tracer)


def session_fig7(job, expected, tracer, tally, samples) -> None:
    engine = _engine(tracer)
    with tracer.span("trees.parse"):
        trees = load_trees(job["file"])
    with tracer.span("multi_tree.mine_forest"):
        patterns = mine_forest(trees, minsup=MINSUP, engine=engine)
    with tracer.span("cli.format"):
        stdout = frequent_stdout(patterns, len(trees))
    samples["output_bytes"] = len(stdout.encode("utf-8"))
    samples["nodes"] = sum(len(tree) for tree in trees)
    samples["patterns"] = len(patterns)
    tally.check(cli_output_ok("fig7-frequent", stdout, expected), "frequent")


def session_fig10(job, expected, tracer, tally, samples) -> None:
    engine = _engine(tracer)
    with tracer.span("trees.parse"):
        groups = [load_trees(path) for path in job["files"]]
    with tracer.span("kernel.find_kernel_trees"):
        result = find_kernel_trees(groups, engine=engine)
    with tracer.span("cli.format"):
        stdout = kernel_stdout(result, job["files"])
    samples["output_bytes"] = len(stdout.encode("utf-8"))
    samples["nodes"] = sum(len(tree) for group in groups for tree in group)
    tally.check(cli_output_ok("fig10-kernel", stdout, expected), "kernel")


def _neighbours_ok(result, want) -> bool:
    return [list(pair) for pair in result.neighbors] == want


def session_churn(job, expected, tracer, tally, samples) -> None:
    """Build the versioned corpus and its store, then per step one
    commit (adds, removes, store re-sync) and one top-k query."""
    engine = _engine(tracer)
    samples.update(commit_ms=[], similar_ms=[], step_ms=[])
    with tracer.span("trees.parse"):
        trees = load_trees(job["file"])
    samples["nodes"] = sum(len(tree) for tree in trees)
    with tracer.span("delta.init"):
        corpus = VersionedCorpus(trees, engine=engine)
    with tracer.span("delta.pack_store"):
        corpus.pack_store(job["store"])
    for number, step in enumerate(job["steps"]):
        began = time.perf_counter()
        try:
            with tracer.span("trees.parse"):
                adds = [parse_newick(text) for text in step["add"]]
            with tracer.span("delta.add_trees"):
                corpus.add_trees(adds)
            with tracer.span("delta.remove_trees"):
                corpus.remove_trees(step["remove"])
            committed = time.perf_counter()
            with tracer.span("trees.parse"):
                query = parse_newick(step["query"])
            with tracer.span("delta.topk_similar"):
                result = corpus.topk_similar(query, TOPK)
        except Exception:
            tally.error(f"churn step {number}")
            continue
        ended = time.perf_counter()
        samples["nodes"] += len(query) + sum(len(tree) for tree in adds)
        samples["commit_ms"].append(1e3 * (committed - began))
        samples["similar_ms"].append(1e3 * (ended - committed))
        samples["step_ms"].append(1e3 * (ended - began))
        tally.check(_neighbours_ok(result, expected["neighbours"][number]),
                    f"churn top-k after step {number}")
    try:
        with tracer.span("delta.frequent_pairs"):
            patterns = corpus.frequent_pairs(minsup=MINSUP)
        with tracer.span("cli.format"):
            text = "\n".join(p.describe() for p in patterns)
    except Exception:
        tally.error("final frequent_pairs")
        return
    samples["store_trees"] = len(corpus.store)
    tally.check(digest(text) == expected["frequent_sha256"],
                "final frequent pairs")
    # The read path: a fresh engine opens the churned store and serves
    # the same frequent pairs from its shards.
    try:
        reader = _engine(tracer)
        with tracer.span("engine.open_store"):
            reader.open_store(job["store"])
        with tracer.span("engine.store_frequent_pairs"):
            patterns = reader.store_frequent_pairs(minsup=MINSUP)
        with tracer.span("cli.format"):
            text = "\n".join(p.describe() for p in patterns)
    except Exception:
        tally.error("store_frequent_pairs after reopen")
        return
    tally.check(digest(text) == expected["frequent_sha256"],
                "reopened store frequent pairs")


SESSIONS = {
    "fig7-frequent": session_fig7,
    "fig10-kernel": session_fig10,
    "corpus-churn": session_churn,
}


def run_session(workload, job, expected, tracer) -> tuple[Tally, dict]:
    """Run one session under ``tracer``'s scope; returns the tally and
    the session's samples."""
    tally, samples = Tally(), {}
    with scope(tracer.registry, tracer):
        SESSIONS[workload](job, expected, tracer, tally, samples)
    return tally, samples


def main(path: str) -> int:
    """Child entry: one untraced session; samples as JSON on stdout."""
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    tally, samples = run_session(
        spec["workload"], spec["job"], spec["expected"],
        Tracer(enabled=False),
    )
    samples.update(attempted=tally.attempted, failed=tally.failed)
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
