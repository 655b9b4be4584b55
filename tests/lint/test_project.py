"""Tests for the whole-program pass: RPL101, ``analyze_project``, baseline.

Fixture modules are summarised under synthetic module keys (the same
trick the per-file tests use), so each project rule can be aimed at
an arbitrary snippet in the scope it polices.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint import (
    PROJECT_RULES,
    analyze_project,
    lint_source,
    project_from_sources,
)
from repro.lint.baseline import (
    discover_baseline,
    fingerprint,
    load_baseline,
    partition,
    write_baseline,
)

FIXTURES = Path(__file__).parent / "fixtures"
REPO = Path(__file__).parents[2]

# fixture stem -> module key its summary is built under
MODULE_KEYS = {
    "rpl101": "repro/core/fixture.py",
}

RULES_BY_ID = {rule.id: rule for rule in PROJECT_RULES}


def project_findings(name: str, rule_id: str):
    stem = name.split("_")[0]
    source = (FIXTURES / f"{name}.py").read_text(encoding="utf-8")
    context = project_from_sources([(source, MODULE_KEYS[stem])])
    rule = RULES_BY_ID[rule_id]
    return [
        finding
        for finding in rule.check(context)
        if not context.suppressed(finding)
    ]


class TestCatalogue:
    def test_rule_ids_are_unique_and_ordered(self):
        ids = [rule.id for rule in PROJECT_RULES]
        assert ids == sorted(set(ids))
        assert all(id.startswith("RPL1") for id in ids)

    def test_every_rule_is_documented(self):
        for rule in PROJECT_RULES:
            assert rule.summary, rule.id
            assert rule.__doc__ and rule.id in rule.__doc__


@pytest.mark.parametrize("rule_id", sorted(RULES_BY_ID))
class TestFixturePairs:
    """Every project rule: bad fixture fires, good fixture stays clean."""

    def test_bad_fixture_triggers(self, rule_id):
        findings = project_findings(f"{rule_id.lower()}_bad", rule_id)
        assert findings, f"{rule_id} did not fire on its bad fixture"
        assert all(f.rule_id == rule_id for f in findings)

    def test_good_fixture_passes(self, rule_id):
        assert project_findings(f"{rule_id.lower()}_good", rule_id) == []


class TestRPL101:
    def test_names_caller_and_callee(self):
        (finding,) = project_findings("rpl101_bad", "RPL101")
        assert "distance_table" in finding.message
        assert "build_vectors" in finding.message

    def test_cross_module_resolution(self):
        lib = (
            "def build_vectors(trees, engine=None):\n"
            "    return trees\n"
        )
        app = (
            "from repro.core.fixlib import build_vectors\n"
            "def wrap(trees, engine=None):\n"
            "    return build_vectors(trees)\n"
        )
        context = project_from_sources(
            [(lib, "repro/core/fixlib.py"), (app, "repro/apps/fixapp.py")]
        )
        findings = list(RULES_BY_ID["RPL101"].check(context))
        assert [f.rule_id for f in findings] == ["RPL101"]
        assert "repro.core.fixlib.build_vectors" in findings[0].message

    def test_calls_on_the_engine_object_are_exempt(self):
        source = (
            "def wrap(trees, engine=None):\n"
            "    return engine.distance_vectors(trees)\n"
        )
        context = project_from_sources([(source, "repro/core/fixture.py")])
        assert list(RULES_BY_ID["RPL101"].check(context)) == []


class TestAnalyzeProject:
    def test_select_filters_project_rules(self, tmp_path):
        target = tmp_path / "repro" / "core" / "fixture.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            (FIXTURES / "rpl101_bad.py").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        report = analyze_project([tmp_path], select=["RPL101"])
        assert [f.rule_id for f in report.findings] == ["RPL101"]
        assert analyze_project([tmp_path], select=["RPL001"]).findings == []

    def test_unknown_rule_id_raises(self, tmp_path):
        (tmp_path / "m.py").write_text("x = 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown rule"):
            analyze_project([tmp_path], select=["RPL999"])


class TestBaseline:
    def test_partition_respects_counts(self, tmp_path):
        source = (FIXTURES / "rpl105_bad.py").read_text(encoding="utf-8")
        findings = lint_source(
            source, module="repro/core/topk.py", select=["RPL105"]
        )
        assert len(findings) >= 2

        path = tmp_path / "baseline.json"
        write_baseline(path, findings[:1])
        allowed = load_baseline(path)
        new, baselined = partition(findings, allowed)
        assert len(baselined) == 1
        assert fingerprint(baselined[0]) in allowed
        assert len(new) == len(findings) - 1

    def test_discover_walks_upward(self, tmp_path):
        nested = tmp_path / "a" / "b"
        nested.mkdir(parents=True)
        target = tmp_path / ".repro-lint-baseline.json"
        write_baseline(target, [])
        assert discover_baseline(nested) == target

    def test_repo_baseline_matches_current_findings(self):
        # The checked-in debt ledger stays in sync with the code: the
        # full pass over src/repro yields exactly the baselined set.
        report = analyze_project([REPO / "src" / "repro"])
        allowed = load_baseline(REPO / ".repro-lint-baseline.json")
        new, baselined = partition(report.findings, allowed)
        assert new == [], [f.render() for f in new]
        assert len(baselined) == sum(allowed.values())


class TestSelfApplication:
    def test_whole_program_pass_is_clean_modulo_baseline(self):
        # The whole-program pass over the package that defines it
        # reports nothing beyond the checked-in baseline.
        report = analyze_project([REPO / "src" / "repro"])
        allowed = load_baseline(REPO / ".repro-lint-baseline.json")
        new, _baselined = partition(report.findings, allowed)
        assert new == [], [f.render() for f in new]

    def test_json_report_validates_against_schema(self, tmp_path):
        import subprocess
        import sys

        report_path = tmp_path / "report.json"
        env_src = str(REPO / "src")
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.lint",
                "--json",
                str(REPO / "src" / "repro" / "lint"),
            ],
            capture_output=True,
            text=True,
            cwd=REPO,
            env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        report_path.write_text(result.stdout, encoding="utf-8")
        check = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.obs.schema",
                str(report_path),
                str(REPO / "schemas" / "lint.schema.json"),
            ],
            capture_output=True,
            text=True,
            cwd=REPO,
            env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
        )
        assert check.returncode == 0, check.stdout + check.stderr
        assert payload["tool"] == "repro-lint"
        assert payload["counts"]["new"] == 0
