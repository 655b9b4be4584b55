"""Tests for the whole-program pass: RPL1xx rules, cache, baseline.

Fixture modules are summarised under synthetic module keys (the same
trick the per-file tests use), so each project rule can be aimed at
an arbitrary snippet in the scope it polices.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint import PROJECT_RULES, analyze_project, project_from_sources
from repro.lint.baseline import (
    discover_baseline,
    fingerprint,
    load_baseline,
    partition,
    write_baseline,
)
from repro.lint.cache import LintCache

FIXTURES = Path(__file__).parent / "fixtures"
REPO = Path(__file__).parents[2]

# fixture stem -> module key its summary is built under
MODULE_KEYS = {
    "rpl101": "repro/core/fixture.py",
    "rpl102": "repro/engine/fixture.py",
    "rpl103": "repro/engine/fixture.py",
    "rpl104": "repro/engine/fixture.py",
    "rpl105": "repro/core/topk.py",
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


class TestRPL102:
    def test_ambient_obs_and_method_payload_each_reported(self):
        findings = project_findings("rpl102_bad", "RPL102")
        messages = " ".join(f.message for f in findings)
        assert "ambient obs" in messages
        assert "not a module-level function" in messages
        assert len(findings) == 2

    def test_taint_is_transitive(self):
        source = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from repro.obs.context import get_registry\n"
            "def _leaf():\n"
            "    return get_registry()\n"
            "def _worker(chunk):\n"
            "    _leaf()\n"
            "    return chunk\n"
            "def fan(chunks):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(_worker, chunks))\n"
        )
        context = project_from_sources([(source, "repro/engine/fixture.py")])
        (finding,) = RULES_BY_ID["RPL102"].check(context)
        assert "_leaf" in finding.message


class TestRPL103:
    def test_names_the_missing_input(self):
        (finding,) = project_findings("rpl103_bad", "RPL103")
        assert "minoccur" in finding.message
        assert "'items'" in finding.message

    def test_pragma_suppresses(self):
        source = (FIXTURES / "rpl103_bad.py").read_text(encoding="utf-8")
        source = source.replace(
            "        self._projections[key] = value",
            "        # repro-lint: disable-next-line=RPL103 -- fixture\n"
            "        self._projections[key] = value",
        )
        context = project_from_sources([(source, "repro/engine/fixture.py")])
        rule = RULES_BY_ID["RPL103"]
        findings = [
            f for f in rule.check(context) if not context.suppressed(f)
        ]
        assert findings == []


class TestRPL104:
    def test_flags_the_omitted_namespace_only(self):
        # The acceptance gate: a namespace deliberately left out of
        # invalidate_distance_memos is provably caught.
        (finding,) = project_findings("rpl104_bad", "RPL104")
        assert "'sketch'" in finding.message
        assert "distmat" not in finding.message

    def test_reset_hook_counts_as_coverage(self):
        # rpl104_good covers 'sketch' via an on_reset-registered hook
        # that is not named invalidate*.
        assert project_findings("rpl104_good", "RPL104") == []


class TestRPL105:
    def test_np_and_builtin_allocations_each_reported(self):
        findings = project_findings("rpl105_bad", "RPL105")
        messages = " ".join(f.message for f in findings)
        assert "np.zeros" in messages
        assert "list()" in messages

    def test_scoped_to_hot_modules_only(self):
        source = (FIXTURES / "rpl105_bad.py").read_text(encoding="utf-8")
        context = project_from_sources([(source, "repro/apps/report.py")])
        assert list(RULES_BY_ID["RPL105"].check(context)) == []

    def test_pair_store_module_is_in_scope(self):
        # The memmapped shard reader serves the same per-query loops
        # the in-RAM kernels do; its loops are gated the same way.
        source = (FIXTURES / "rpl105_bad.py").read_text(encoding="utf-8")
        context = project_from_sources(
            [(source, "repro/store/pairstore.py")]
        )
        assert list(RULES_BY_ID["RPL105"].check(context))

    @pytest.mark.parametrize("fixture, flagged", [("bad", True), ("good", False)])
    def test_aggregation_kernel_module_is_in_scope(self, fixture, flagged):
        # The frequent-pair kernel runs once per pattern group over
        # every corpus query; its loops are gated like the kernels'.
        source = (FIXTURES / f"rpl105_{fixture}.py").read_text(encoding="utf-8")
        context = project_from_sources(
            [(source, "repro/core/multi_tree.py")]
        )
        assert bool(list(RULES_BY_ID["RPL105"].check(context))) is flagged


class TestAnalyzeProject:
    def test_select_filters_project_rules(self, tmp_path):
        target = tmp_path / "repro" / "engine" / "fixture.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            (FIXTURES / "rpl104_bad.py").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        report = analyze_project([tmp_path], select=["RPL104"])
        assert [f.rule_id for f in report.findings] == ["RPL104"]
        assert analyze_project([tmp_path], select=["RPL101"]).findings == []

    def test_unknown_rule_id_raises(self, tmp_path):
        (tmp_path / "m.py").write_text("x = 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown rule"):
            analyze_project([tmp_path], select=["RPL999"])

    def test_cache_round_trip(self, tmp_path):
        target = tmp_path / "repro" / "core" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text("def f():\n    return 1\n", encoding="utf-8")
        cache_file = tmp_path / "cache.json"

        cache = LintCache(cache_file)
        cold = analyze_project([target.parent], cache=cache)
        cache.write()
        assert (cold.cache_hits, cold.cache_misses) == (0, 1)

        warm_cache = LintCache(cache_file)
        warm = analyze_project([target.parent], cache=warm_cache)
        assert (warm.cache_hits, warm.cache_misses) == (1, 0)
        assert [f.to_dict() for f in warm.findings] == [
            f.to_dict() for f in cold.findings
        ]

        # Editing the file invalidates exactly its entry.
        target.write_text("def f():\n    return 2\n", encoding="utf-8")
        edited_cache = LintCache(cache_file)
        edited = analyze_project([target.parent], cache=edited_cache)
        assert (edited.cache_hits, edited.cache_misses) == (0, 1)

    def test_cached_findings_are_select_filtered(self, tmp_path):
        target = tmp_path / "repro" / "apps" / "mod.py"
        target.parent.mkdir(parents=True)
        # RPL007: untraced perf_counter outside the obs package.
        target.write_text(
            "import time\n"
            "def t():\n"
            "    return time.perf_counter()\n",
            encoding="utf-8",
        )
        cache_file = tmp_path / "cache.json"
        cache = LintCache(cache_file)
        full = analyze_project([target.parent], cache=cache)
        cache.write()
        assert [f.rule_id for f in full.findings] == ["RPL007"]

        warm_cache = LintCache(cache_file)
        narrowed = analyze_project(
            [target.parent], select=["RPL001"], cache=warm_cache
        )
        assert narrowed.cache_hits == 1
        assert narrowed.findings == []

    def test_parallel_matches_serial(self, tmp_path):
        root = tmp_path / "repro" / "core"
        root.mkdir(parents=True)
        for index in range(4):
            (root / f"mod{index}.py").write_text(
                "import time\n"
                f"def t{index}():\n"
                "    return time.perf_counter()\n",
                encoding="utf-8",
            )
        serial = analyze_project([root], jobs=1)
        parallel = analyze_project([root], jobs=2, min_parallel_files=2)
        assert [f.to_dict() for f in parallel.findings] == [
            f.to_dict() for f in serial.findings
        ]


class TestBaseline:
    def test_partition_respects_counts(self, tmp_path):
        source = (FIXTURES / "rpl105_bad.py").read_text(encoding="utf-8")
        context = project_from_sources([(source, "repro/core/topk.py")])
        findings = sorted(RULES_BY_ID["RPL105"].check(context))
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
        # The tentpole gate: the two-phase pass over the package that
        # defines it reports nothing beyond the checked-in baseline.
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
