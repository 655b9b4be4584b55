#!/usr/bin/env bash
# One-shot static-analysis gate for the mining stack.
#
#   tools/check.sh            # run everything available
#   tools/check.sh --strict   # additionally fail if ruff/mypy are absent
#
# Always runs the project AST lint pack (repro-lint, stdlib-only).
# ruff and mypy are optional-dependency tools (`pip install -e ".[lint]"`);
# when they are not installed the corresponding step is skipped with a
# notice, unless --strict is given.  Exit status is nonzero if any step
# that ran reported findings.

set -u

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

strict=0
if [ "${1:-}" = "--strict" ]; then
    strict=1
fi

status=0

run_step() {
    local name="$1"
    shift
    printf '== %s\n' "$name"
    if "$@"; then
        printf '   ok\n'
    else
        printf '   FAILED: %s\n' "$name" >&2
        status=1
    fi
}

skip_step() {
    local name="$1" hint="$2"
    if [ "$strict" -eq 1 ]; then
        printf '== %s\n   MISSING (strict mode): %s\n' "$name" "$hint" >&2
        status=1
    else
        printf '== %s\n   skipped: %s\n' "$name" "$hint"
    fi
}

# Whole-program pass gated on the checked-in baseline: known debt is
# reported but only *new* findings fail; the JSON report lands in
# .lint-report.json for inspection.
lint_gate() {
    python -m repro.lint --json \
        --baseline .repro-lint-baseline.json \
        src/repro > .lint-report.json
    local code=$?
    python - <<'PY'
import json

report = json.load(open(".lint-report.json", encoding="utf-8"))
counts = report["counts"]
print(
    f"   {counts['total']} findings "
    f"({counts['new']} new, {counts['baselined']} baselined)"
)
for finding in report["findings"]:
    if not finding["baselined"]:
        print(
            f"   NEW {finding['path']}:{finding['line']}:"
            f"{finding['col']}: {finding['rule_id']} {finding['message']}"
        )
PY
    return $code
}

run_step "repro-lint src/repro (whole-program, baseline-gated)" lint_gate

# Perf gate: every checked-in benchmark manifest against the run
# history warehouse.  Ingest first (a counted no-op for manifests that
# are already recorded), then check — only *new* regressions fail:
# a re-ingested manifest is excluded from its own baseline, and a
# fresh warehouse abstains rather than failing.  Both steps run on a
# temporary copy of .repro-history, so the gate writes no tracked
# file; recording a run is an explicit `perf ingest` of its own.
perf_gate() {
    local history code
    history="$(mktemp -d)" || return 1
    if [ -d .repro-history ]; then
        cp -R .repro-history/. "$history"/
    fi
    python -m repro.cli perf ingest --history "$history" \
            BENCH_*.manifest.json >/dev/null \
        && python -m repro.cli perf check --history "$history" \
            BENCH_*.manifest.json
    code=$?
    rm -rf "$history"
    return "$code"
}

if ls BENCH_*.manifest.json >/dev/null 2>&1; then
    run_step "perf check (run-history regression gate)" perf_gate
else
    skip_step "perf check" "no BENCH_*.manifest.json present"
fi

if command -v ruff >/dev/null 2>&1; then
    run_step "ruff check" ruff check src/repro tests
else
    skip_step "ruff check" "ruff not installed (pip install -e \".[lint]\")"
fi

if command -v mypy >/dev/null 2>&1; then
    run_step "mypy --strict src/repro" mypy --strict src/repro
else
    skip_step "mypy --strict" "mypy not installed (pip install -e \".[lint]\")"
fi

exit "$status"
