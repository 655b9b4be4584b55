"""The ``repro-lint`` command line: exit codes, output, discovery."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from repro.lint.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_SRC = Path(__file__).parents[2] / "src"


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n", encoding="utf-8")
        assert main([str(target)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        # Rules scope by the path's repro/... suffix, so the fixture
        # must live under a repro package directory to be in scope.
        target = tmp_path / "repro" / "core"
        target.mkdir(parents=True)
        bad = target / "packedkeys.py"
        bad.write_text(
            (FIXTURES / "rpl002_bad.py").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "RPL002" in out
        assert str(bad) in out

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["--select", "RPL999", str(FIXTURES)]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.txt")]) == 2
        assert "error" in capsys.readouterr().err

    def test_select_narrows_rules(self, tmp_path, capsys):
        target = tmp_path / "repro" / "core"
        target.mkdir(parents=True)
        bad = target / "packedkeys.py"
        bad.write_text("key = 1 << 42\n", encoding="utf-8")
        assert main(["--select", "RPL001", str(bad)]) == 0
        assert main(["--select", "RPL002", str(bad)]) == 1


class TestListRules:
    def test_lists_exactly_the_kept_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == [
            "RPL001",
            "RPL002",
            "RPL003",
            "RPL004",
            "RPL005",
            "RPL007",
            "RPL008",
            "RPL101",
            "RPL105",
        ]

    def test_quiet_drops_summary(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n", encoding="utf-8")
        assert main(["--quiet", str(target)]) == 0
        assert capsys.readouterr().out == ""


class TestDirectoryDiscovery:
    def test_directory_is_walked_recursively(self, tmp_path, capsys):
        package = tmp_path / "repro" / "core"
        package.mkdir(parents=True)
        (package / "bad.py").write_text("key = 1 << 42\n", encoding="utf-8")
        (package / "good.py").write_text("x = 2\n", encoding="utf-8")
        assert main([str(tmp_path)]) == 1
        assert "bad.py" in capsys.readouterr().out

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        target = tmp_path / "broken.py"
        target.write_text("def f(:\n", encoding="utf-8")
        assert main([str(target)]) == 2
        assert "cannot parse" in capsys.readouterr().err


class TestPragmaDiagnostics:
    def test_unknown_pragma_id_exits_two(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(
            "x = 1  # repro-lint: disable=RPL999\n", encoding="utf-8"
        )
        assert main([str(target)]) == 2
        assert "unknown rule id 'RPL999'" in capsys.readouterr().err

    def test_unparsable_pragma_exits_two(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(
            "x = 1  # repro-lint: hush\n", encoding="utf-8"
        )
        assert main([str(target)]) == 2
        assert "unparsable" in capsys.readouterr().err


class TestJsonReport:
    def test_json_report_shape_and_exit(self, tmp_path, capsys):
        package = tmp_path / "repro" / "core"
        package.mkdir(parents=True)
        (package / "bad.py").write_text("key = 1 << 42\n", encoding="utf-8")
        assert main(["--json", str(tmp_path)]) == 1
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "repro-lint"
        assert payload["counts"]["new"] == 1
        assert payload["findings"][0]["rule_id"] == "RPL002"
        assert payload["findings"][0]["baselined"] is False
        assert payload["version"] == 2
        assert "cache" not in payload

    def test_json_clean_run_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n", encoding="utf-8")
        assert main(["--json", str(target)]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"total": 0, "new": 0, "baselined": 0}


class TestBaselineFlow:
    def _bad_package(self, tmp_path):
        package = tmp_path / "repro" / "core"
        package.mkdir(parents=True)
        (package / "bad.py").write_text("key = 1 << 42\n", encoding="utf-8")
        return package

    def test_write_then_gate(self, tmp_path, capsys):
        self._bad_package(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(
            ["--write-baseline", "--baseline", str(baseline), str(tmp_path)]
        ) == 0
        capsys.readouterr()
        # Gated run: the finding is baselined, the build stays green.
        assert main(["--baseline", str(baseline), str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 findings (1 baselined)" in out
        # A second, new finding still fails.
        (tmp_path / "repro" / "core" / "worse.py").write_text(
            "other = 1 << 21\n", encoding="utf-8"
        )
        assert main(["--baseline", str(baseline), str(tmp_path)]) == 1

    def test_no_baseline_ignores_discovered_file(self, tmp_path, capsys):
        self._bad_package(tmp_path)
        baseline = tmp_path / ".repro-lint-baseline.json"
        assert main(
            ["--write-baseline", "--baseline", str(baseline), str(tmp_path)]
        ) == 0
        capsys.readouterr()
        assert main([str(tmp_path)]) == 0  # discovered automatically
        assert main(["--no-baseline", str(tmp_path)]) == 1

    def test_no_project_skips_rpl1xx(self, tmp_path, capsys):
        package = tmp_path / "repro" / "core"
        package.mkdir(parents=True)
        (package / "fixture.py").write_text(
            (FIXTURES / "rpl101_bad.py").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        assert main(["--no-baseline", str(tmp_path)]) == 1
        assert "RPL101" in capsys.readouterr().out
        assert main(["--no-baseline", "--no-project", str(tmp_path)]) == 0


class TestModuleEntryPoint:
    def test_python_dash_m_runs_clean_on_src(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(REPO_SRC / "repro")],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "0 findings" in result.stdout
