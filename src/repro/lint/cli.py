"""Command-line front end: ``repro-lint`` / ``python -m repro.lint``.

By default this runs the full pass — per-file rules plus the
whole-program rules — and compares findings against
the nearest checked-in baseline (``.repro-lint-baseline.json``,
discovered upward from the first path).  Baselined findings are
reported but do not fail the build; new ones do.

Exit status: 0 when clean or fully baselined, 1 when new findings
were reported, 2 on usage errors (unknown rule id, bad pragma,
missing path, unparsable source).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.lint.analyzer import _iter_python_files, run_lint
from repro.lint.baseline import (
    BASELINE_NAME,
    discover_baseline,
    load_baseline,
    partition,
    write_baseline,
)
from repro.lint.project import analyze_project
from repro.lint.rules import RULES
from repro.lint.xrules import PROJECT_RULES

__all__ = ["main"]

REPORT_VERSION = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Project-specific static analysis for the repro mining "
            "stack: per-file rules plus the whole-program engine= "
            "threading rule (see docs/dev.md)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress the summary line (findings only)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the machine-readable report (schemas/lint.schema.json)",
    )
    parser.add_argument(
        "--no-project",
        action="store_true",
        help="per-file rules only; skip the whole-program RPL101 pass",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help=(
            "baseline file of known findings (default: nearest "
            f"{BASELINE_NAME} at or above the first path)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline; every finding fails the run",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record spans (scan, project pass) and write a "
             "JSON-lines trace of the run to PATH",
    )
    parser.add_argument(
        "--engine-stats",
        action="store_true",
        dest="engine_stats",
        help="print pass statistics to stderr",
    )
    return parser


def _resolve_baseline(options) -> Path | None:
    if options.no_baseline:
        return None
    if options.baseline:
        return Path(options.baseline)
    return discover_baseline(options.paths[0])


def main(argv: Sequence[str] | None = None) -> int:
    """Run the analyzer; returns the process exit status.

    ``--trace PATH`` installs an enabled tracer for the run, so the
    scan/project spans land in a JSON-lines trace exactly like
    the ``repro-mine`` engine subcommands; ``--engine-stats`` prints
    the accumulated metrics to stderr.
    """
    options = _build_parser().parse_args(argv)

    if options.list_rules:
        for rule in sorted((*RULES, *PROJECT_RULES), key=lambda rule: rule.id):
            print(f"{rule.id}  {rule.name}: {rule.summary}")
        return 0

    from repro.obs.context import scope
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer

    registry = MetricsRegistry()
    tracer = Tracer(registry, enabled=options.trace is not None)
    try:
        with scope(registry, tracer):
            with tracer.span("lint.run", metric="lint.run.seconds"):
                return _execute(options)
    finally:
        if options.trace is not None:
            from repro.obs.export import write_trace

            write_trace(options.trace, tracer, registry, command="lint")
        if options.engine_stats:
            from repro.obs.export import render_stats

            for line in render_stats(registry):
                print(line, file=sys.stderr)


def _execute(options) -> int:
    select = None
    if options.select:
        select = [part.strip() for part in options.select.split(",") if part.strip()]

    try:
        if options.no_project:
            findings = run_lint(options.paths, select=select)
            files = len(list(_iter_python_files(options.paths)))
            rule_ids = [rule.id for rule in RULES] if select is None else sorted(select)
        else:
            report = analyze_project(options.paths, select=select)
            findings = report.findings
            files = report.files
            rule_ids = report.rule_ids
    except (FileNotFoundError, ValueError) as error:
        print(f"repro-lint: error: {error}", file=sys.stderr)
        return 2
    except SyntaxError as error:
        print(f"repro-lint: cannot parse: {error}", file=sys.stderr)
        return 2

    baseline_path = _resolve_baseline(options)
    if options.write_baseline:
        target = baseline_path if baseline_path is not None else Path(BASELINE_NAME)
        write_baseline(target, findings)
        if not options.quiet:
            noun = "finding" if len(findings) == 1 else "findings"
            print(f"repro-lint: wrote {len(findings)} {noun} to {target}")
        return 0

    allowed = None
    if baseline_path is not None:
        try:
            allowed = load_baseline(baseline_path)
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as error:
            print(
                f"repro-lint: error: bad baseline {baseline_path}: {error}",
                file=sys.stderr,
            )
            return 2
    if allowed is not None:
        new, baselined = partition(findings, allowed)
    else:
        new, baselined = list(findings), []

    if options.as_json:
        baselined_set = {id(f) for f in baselined}
        payload = {
            "version": REPORT_VERSION,
            "tool": "repro-lint",
            "paths": [str(path) for path in options.paths],
            "rules": rule_ids,
            "files": files,
            "baseline": {
                "path": str(baseline_path) if baseline_path is not None else None,
                "entries": sum(allowed.values()) if allowed is not None else 0,
                "matched": len(baselined),
            },
            "findings": [
                {**finding.to_dict(), "baselined": id(finding) in baselined_set}
                for finding in findings
            ],
            "counts": {
                "total": len(findings),
                "new": len(new),
                "baselined": len(baselined),
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if new else 0

    for finding in new:
        print(finding.render())
    if not options.quiet:
        noun = "finding" if len(new) == 1 else "findings"
        suffix = f" ({len(baselined)} baselined)" if baselined else ""
        print(f"repro-lint: {len(new)} {noun}{suffix}")
    return 1 if new else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
