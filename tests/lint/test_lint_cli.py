"""CLI surfaces: python -m repro.lint and the repro.cli lint subcommand."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent.parent

VIOLATION = """\
def f(x):
    raise ValueError(x)
"""

CLEAN = "x = 1\n"


def run_lint_cli(args, cwd, module="repro.lint"):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture
def project(tmp_path):
    (tmp_path / "bad.py").write_text(textwrap.dedent(VIOLATION))
    (tmp_path / "good.py").write_text(CLEAN)
    return tmp_path


class TestModuleEntryPoint:
    def test_findings_exit_1_with_location(self, project):
        proc = run_lint_cli(["bad.py"], cwd=project)
        assert proc.returncode == 1
        assert "bad.py:2:5: [error-taxonomy]" in proc.stdout

    def test_clean_exit_0(self, project):
        proc = run_lint_cli(["good.py"], cwd=project)
        assert proc.returncode == 0
        assert "clean" in proc.stdout

    def test_json_report(self, project):
        proc = run_lint_cli(["bad.py", "--json"], cwd=project)
        payload = json.loads(proc.stdout)
        assert payload["clean"] is False
        assert payload["findings"][0]["rule"] == "error-taxonomy"

    def test_list_rules_names_all_builtins(self, project):
        proc = run_lint_cli(["--list-rules"], cwd=project)
        assert proc.returncode == 0
        for name in ("determinism", "set-order", "spec-purity",
                     "error-taxonomy", "shm-discipline",
                     "process-discipline", "oracle-isolation",
                     "env-discipline",
                     "worker-capture"):
            assert name in proc.stdout

    def test_select_narrows_rules(self, project):
        proc = run_lint_cli(
            ["bad.py", "--select", "determinism"], cwd=project
        )
        assert proc.returncode == 0  # the bare raise is not determinism

    def test_usage_error_exit_2(self, project):
        (project / "notes.txt").write_text("hi")
        proc = run_lint_cli(["notes.txt"], cwd=project)
        assert proc.returncode == 2
        assert "error" in proc.stderr


class TestBaselineWorkflow:
    def test_update_baseline_then_clean_then_stale(self, project):
        # 1. Grandfather the existing violation.
        proc = run_lint_cli(["bad.py", "--update-baseline"], cwd=project)
        assert proc.returncode == 0
        baseline = project / "lint-baseline.json"
        assert baseline.exists()
        listed = json.loads(baseline.read_text())["findings"]
        assert len(listed) == 1

        # 2. The baselined violation no longer fails the run.
        proc = run_lint_cli(["bad.py"], cwd=project)
        assert proc.returncode == 0
        assert "1 baselined" in proc.stdout

        # 3. Fix the code: plain run still 0, strict flags the stale entry.
        (project / "bad.py").write_text(CLEAN)
        proc = run_lint_cli(["bad.py"], cwd=project)
        assert proc.returncode == 0
        assert "stale baseline entry" in proc.stdout
        proc = run_lint_cli(["bad.py", "--strict"], cwd=project)
        assert proc.returncode == 1

        # 4. --update-baseline burns the stale entry down to empty.
        proc = run_lint_cli(["bad.py", "--update-baseline"], cwd=project)
        assert proc.returncode == 0
        assert json.loads(baseline.read_text())["findings"] == []
        proc = run_lint_cli(["bad.py", "--strict"], cwd=project)
        assert proc.returncode == 0


class TestReproCliSubcommand:
    def test_lint_subcommand_reports_and_fails(self, project):
        proc = run_lint_cli(["lint", "bad.py"], cwd=project,
                            module="repro.cli")
        assert proc.returncode == 1
        assert "bad.py:2:5: [error-taxonomy]" in proc.stdout

    def test_lint_subcommand_clean_and_json(self, project):
        proc = run_lint_cli(["lint", "good.py", "--json"], cwd=project,
                            module="repro.cli")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["clean"] is True

    def test_repo_tree_passes_strict_via_subcommand(self):
        proc = run_lint_cli(
            ["lint", "src/repro", "--strict"], cwd=REPO,
            module="repro.cli",
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
