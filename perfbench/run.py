"""End-to-end, layer-attributed benchmark of the cousin-pair miner.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload fig7-frequent --seed 1 \\
        --seconds 25 --trace 0

Workloads: ``fig7-frequent``, ``fig10-kernel``, ``corpus-churn`` (see
``BENCHMARK.json`` and ``perfbench/README.md``).

``--trace 0`` measures end to end with tracing off: set-up is repeated
``SETUP_REPEATS`` times (median reported), then fresh child processes
run the workload's unit of work back to back for about ``--seconds``
(at least one; see ``FIT_FRACTION``).  Timings are reported at the
reference speed of ``calibrate.py``, raw ones as text lines.
``--trace 1`` replays the session in-process under an enabled tracer
and reports per-layer metrics.
Every operation's answer is checked against a reference computed in
set-up; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Inputs and stores live in
a temporary directory under ``.perfbench-tmp/`` that is removed on
exit; spans stay in memory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig7-frequent", "fig10-kernel", "corpus-churn")
CLI_WORKLOADS = ("fig7-frequent", "fig10-kernel")
SETUP_REPEATS = 3
# Another child starts only while this share of the previous child's
# wall-clock still fits in the --seconds window, so a run overshoots
# the window by at most a quarter of one child.
FIT_FRACTION = 0.75
IMPORT_CHILDREN = 3
CHILD_TIMEOUT_S = 150.0


def note(name: str, value, unit: str) -> None:
    """One human-readable metric line (the JSON line comes last)."""
    shown = f"{value:.6g}" if isinstance(value, float) else value
    print(f"perfbench: {name} = {shown} {unit}", flush=True)


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def public(value):
    """``value`` without the underscore keys set-up keeps for itself."""
    if isinstance(value, dict):
        return {k: public(v) for k, v in value.items() if not k.startswith("_")}
    if isinstance(value, list):
        return [public(item) for item in value]
    return value


def session_job(workload: str, job: dict, store: str) -> dict:
    """The job as a session sees it; churn sessions pack their own
    store, so each gets a fresh directory."""
    copy = public(job)
    if workload == "corpus-churn":
        copy["store"] = store
    return copy


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def spawn(argv, root: str, out_path: str) -> tuple[int, float, float, str]:
    """Run one child; returns (exit code, wall s, peak RSS MB, stdout)."""
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        began = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=root,
                                env=child_env(root))
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - began
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8") as handle:
        stdout = handle.read()
    if proc.returncode != 0:
        with open(out_path + ".err", encoding="utf-8") as handle:
            sys.stderr.write(handle.read()[-4000:])
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout


# ----------------------------------------------------------------------
# End to end (tracing off)
# ----------------------------------------------------------------------
def end_to_end(workload, job, expected, seconds, root, tmp):
    """Children back to back, each bracketed by calibrant samples; op
    latencies are reported raw and at reference speed (``calibrate``)."""
    from calibrate import Clock
    from sessions import cli_output_ok

    walls, rss, ops, scaled = [], [], {"op_ms": []}, []
    attempted = failed = 0
    clock = Clock()
    began = time.perf_counter()
    number = 0
    while not walls or (
        seconds - (time.perf_counter() - began) >= FIT_FRACTION * walls[-1]
    ):
        number += 1
        out = os.path.join(tmp, f"child{number}.out")
        if workload in CLI_WORKLOADS:
            argv = [sys.executable, "-m", "repro", *job["argv"]]
        else:
            store = os.path.join(tmp, f"store{number}")
            spec = {"workload": workload, "expected": expected,
                    "job": session_job(workload, job, store)}
            spec_path = os.path.join(tmp, f"child{number}.json")
            with open(spec_path, "w", encoding="utf-8") as handle:
                json.dump(spec, handle)
            argv = [sys.executable, os.path.join(HERE, "sessions.py"), spec_path]
        code, wall, peak, stdout = spawn(argv, root, out)
        factor = clock.scale()
        walls.append(wall)
        rss.append(peak)
        if workload in CLI_WORKLOADS:
            attempted += 1
            failed += 0 if code == 0 and cli_output_ok(
                workload, stdout, expected) else 1
            ops["op_ms"].append(1e3 * wall)
            scaled.append(1e3 * wall * factor)
            continue
        if code != 0:
            attempted += 1
            failed += 1
            continue
        samples = json.loads(stdout)
        attempted += samples.pop("attempted")
        failed += samples.pop("failed")
        for name, value in samples.items():
            if isinstance(value, list):
                ops.setdefault(name, []).extend(value)
        ops["op_ms"].extend(samples["step_ms"])
        scaled.extend(ms * factor for ms in samples["step_ms"])
        shutil.rmtree(store, ignore_errors=True)
    note("children", len(walls), "count")
    note("op_samples", len(ops["op_ms"]), "count")
    note("wall_p50_s", statistics.median(walls), "s")
    note("calibrant_p50_ms", 1e3 * statistics.median(clock.samples), "ms")
    # A run whose every child failed still reports its process times.
    latencies = ops.pop("op_ms") or [1e3 * wall for wall in walls]
    scaled = scaled or latencies
    for q in (10, 50, 90):
        note(f"op_raw_p{q}_ms", percentile(latencies, q), "ms")
    note("op_norm_p90_ms", percentile(scaled, 90), "ms")
    for name in sorted(ops):
        if ops[name]:
            stem = name[:-len("_ms")]
            for q in (10, 50, 90):
                note(f"{stem}_p{q}_ms", percentile(ops[name], q), "ms")
    metrics = {
        "op_p50_ms": (statistics.median(scaled), "ms"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    return metrics, attempted, failed


# ----------------------------------------------------------------------
# Per layer (tracing on, in-process replay)
# ----------------------------------------------------------------------
def import_seconds(root: str, tmp: str) -> float:
    times = []
    for number in range(IMPORT_CHILDREN):
        code, wall, _peak, _out = spawn(
            [sys.executable, "-c", "import repro.cli"], root,
            os.path.join(tmp, f"import{number}.out"),
        )
        if code != 0:
            raise RuntimeError("import repro.cli failed")
        times.append(wall)
    return statistics.median(times)


def per_layer(workload, job, expected, root, tmp):
    """Time a ``repro-mine`` child (CLI workloads) and the import, then
    replay the session in this process, untraced and then traced."""
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer

    import layers
    from sessions import cli_output_ok, run_session
    from workloads import directory_bytes

    # Adjacent in time, so machine-speed drift between the samples that
    # cli.unspanned_s and obs.trace_overhead_frac subtract stays small.
    extra = {"cli_wall_s": None}
    if workload in CLI_WORKLOADS:
        code, wall, _peak, stdout = spawn(
            [sys.executable, "-m", "repro", *job["argv"]], root,
            os.path.join(tmp, "cli.out"),
        )
        extra["cli_wall_s"] = wall
    extra["cli.import_s"] = import_seconds(root, tmp)
    untraced_job = session_job(workload, job, os.path.join(tmp, "untraced"))
    began = time.perf_counter()
    tally, _ = run_session(workload, untraced_job, expected,
                           Tracer(enabled=False))
    extra["untraced_s"] = time.perf_counter() - began
    if workload in CLI_WORKLOADS:
        tally.check(code == 0 and cli_output_ok(workload, stdout, expected),
                    "repro-mine")

    registry = MetricsRegistry()
    tracer = Tracer(registry, enabled=True)
    traced_job = session_job(workload, job, os.path.join(tmp, "traced"))
    with tracer.span("bench.session"):
        traced_tally, samples = run_session(workload, traced_job, expected,
                                            tracer)
    extra["session_s"] = next(record.seconds for record in tracer.records
                              if record.name == "bench.session")
    if workload not in CLI_WORKLOADS:
        extra["store_bytes"] = directory_bytes(traced_job["store"])
    metrics = layers.layer_metrics(tracer.records, registry, samples, extra)
    attempted = tally.attempted + traced_tally.attempted
    failed = tally.failed + traced_tally.failed
    return metrics, attempted, failed


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: no src/repro under the working directory; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import workloads
    from calibrate import Clock

    scratch = os.path.join(root, ".perfbench-tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        note("nproc", os.cpu_count(), "cpus")
        note("affinity", len(os.sched_getaffinity(0)), "cpus")
        repeats = SETUP_REPEATS if args.trace == 0 else 1
        setup_times, setup_scaled = [], []
        clock = Clock()
        for number in range(repeats):
            directory = os.path.join(tmp, f"setup{number}")
            os.makedirs(directory)
            began = time.perf_counter()
            job = workloads.PREPARE[args.workload](args.seed, directory)
            setup_times.append(time.perf_counter() - began)
            setup_scaled.append(setup_times[-1] * clock.scale())
            if number:
                shutil.rmtree(os.path.join(tmp, f"setup{number - 1}"))
        began = time.perf_counter()
        expected = workloads.REFERENCE[args.workload](job)
        note("reference_s", time.perf_counter() - began, "s")
        # Keep the set-up's objects out of the collector's way so an
        # in-process replay pays the garbage collection a fresh
        # repro-mine process would, not more.
        gc.collect()
        gc.freeze()
        for name, value in job["inputs"].items():
            note(f"input.{name}", value,
                 "bytes" if name.endswith("_bytes") else "count")
        if args.trace == 0:
            metrics, attempted, failed = end_to_end(
                args.workload, job, expected, args.seconds, root, tmp)
            note("setup_raw_s", statistics.median(setup_times), "s")
            metrics = {"setup_s": (statistics.median(setup_scaled), "s"),
                       **metrics}
        else:
            metrics, attempted, failed = per_layer(
                args.workload, job, expected, root, tmp)
        for name, (value, unit) in metrics.items():
            note(name, value, unit)
        note("fail_frac", failed / attempted, "ratio")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    # A terminated run still removes its files and stops its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    raise SystemExit(main())
