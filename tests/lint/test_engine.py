"""Engine behaviour: suppressions, baseline, registry, reporters."""

import json
import textwrap

import pytest

from repro.errors import LintBaselineError, LintRuleError, LintUsageError
from repro.lint import (
    SUPPRESSION_RULE,
    Finding,
    LintRule,
    fingerprint,
    lint_paths,
    load_baseline,
    register_rule,
    registered_rules,
    rule_class,
    write_baseline,
)
from repro.lint.registry import _RULES
from repro.lint.report import render_human, render_json

VIOLATION = """\
def f(x):
    raise ValueError(x)
"""


def write(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return path


class TestSuppressions:
    def test_trailing_justified_directive_silences_own_line(self, tmp_path):
        path = write(tmp_path, """\
            def f(x):
                raise ValueError(x)  # repro-lint: disable=error-taxonomy -- doc example
            """)
        run = lint_paths([path], select=["error-taxonomy"], root=tmp_path)
        assert run.clean
        assert len(run.suppressed) == 1

    def test_standalone_directive_applies_to_next_code_line(self, tmp_path):
        path = write(tmp_path, """\
            def f(x):
                # repro-lint: disable=error-taxonomy -- continuation lines
                # below extend this justification.
                raise ValueError(x)
            """)
        run = lint_paths([path], select=["error-taxonomy"], root=tmp_path)
        assert run.clean and len(run.suppressed) == 1

    def test_unjustified_directive_is_itself_reported(self, tmp_path):
        path = write(tmp_path, """\
            def f(x):
                raise ValueError(x)  # repro-lint: disable=error-taxonomy
            """)
        run = lint_paths([path], select=["error-taxonomy"], root=tmp_path)
        rules = {f.rule for f in run.findings}
        # The violation stays active AND the naked directive is flagged.
        assert rules == {"error-taxonomy", SUPPRESSION_RULE}

    def test_suppression_finding_cannot_be_suppressed(self, tmp_path):
        path = write(tmp_path, """\
            def f(x):
                raise ValueError(x)  # repro-lint: disable=error-taxonomy,suppression-justification
            """)
        run = lint_paths([path], select=["error-taxonomy"], root=tmp_path)
        assert any(f.rule == SUPPRESSION_RULE for f in run.findings)

    def test_star_disables_every_rule_on_the_line(self, tmp_path):
        path = write(tmp_path, """\
            import os
            # repro-lint: disable=* -- demo line needs both violations
            x = os.environ.get("X", os.getenv("Y"))
            """)
        run = lint_paths([path], select=["env-discipline"], root=tmp_path)
        assert run.clean and len(run.suppressed) == 2

    def test_directive_names_only_its_rule(self, tmp_path):
        path = write(tmp_path, """\
            import os
            def f(x):
                # repro-lint: disable=error-taxonomy -- wrong rule named
                v = os.environ["X"]
            """)
        run = lint_paths([path], select=["env-discipline"], root=tmp_path)
        assert [f.rule for f in run.findings] == ["env-discipline"]


class TestBaseline:
    def test_baselined_findings_partition_separately(self, tmp_path):
        path = write(tmp_path, VIOLATION)
        first = lint_paths([path], select=["error-taxonomy"], root=tmp_path)
        assert len(first.findings) == 1
        seen = {}
        prints = [
            fingerprint(f, seen, "    raise ValueError(x)")
            for f in first.findings
        ]
        second = lint_paths(
            [path], select=["error-taxonomy"], baseline=prints,
            root=tmp_path,
        )
        assert second.clean
        assert len(second.baselined) == 1

    def test_fingerprints_survive_edits_above(self, tmp_path):
        path = write(tmp_path, VIOLATION)
        run = lint_paths([path], select=["error-taxonomy"], root=tmp_path)
        fp1 = fingerprint(run.findings[0], {}, "    raise ValueError(x)")
        shifted = write(
            tmp_path, "import sys\n\n\n" + VIOLATION, name="shifted.py"
        )
        run2 = lint_paths(
            [shifted], select=["error-taxonomy"], root=tmp_path
        )
        fp2 = fingerprint(run2.findings[0], {}, "    raise ValueError(x)")
        # Same rule + stripped line text; only the path differs.
        assert fp1.split(":")[0] == fp2.split(":")[0]
        assert run.findings[0].line != run2.findings[0].line

    def test_identical_lines_get_distinct_fingerprints(self):
        seen = {}
        a = Finding("m.py", 2, 5, "error-taxonomy", "bare ValueError")
        b = Finding("m.py", 9, 5, "error-taxonomy", "bare ValueError")
        fp_a = fingerprint(a, seen, "raise ValueError(x)")
        fp_b = fingerprint(b, seen, "raise ValueError(x)")
        assert fp_a != fp_b

    def test_roundtrip(self, tmp_path):
        target = tmp_path / "baseline.json"
        write_baseline(target, ["rule:bbb", "rule:aaa"])
        assert load_baseline(target) == ["rule:aaa", "rule:bbb"]

    @pytest.mark.parametrize("payload", [
        "[]",
        '{"version": 2, "findings": []}',
        '{"version": 1, "findings": [1, 2]}',
        '{"version": 1}',
        "not json",
    ])
    def test_malformed_baseline_rejected(self, tmp_path, payload):
        target = tmp_path / "baseline.json"
        target.write_text(payload)
        with pytest.raises(LintBaselineError):
            load_baseline(target)


class TestUsageErrors:
    def test_non_python_path_rejected(self, tmp_path):
        target = tmp_path / "notes.txt"
        target.write_text("hello")
        with pytest.raises(LintUsageError, match="not a python file"):
            lint_paths([target], root=tmp_path)

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(LintUsageError, match="no python files"):
            lint_paths([tmp_path], root=tmp_path)

    def test_syntax_error_named_with_line(self, tmp_path):
        path = write(tmp_path, "def broken(:\n")
        with pytest.raises(LintUsageError, match="line 1"):
            lint_paths([path], root=tmp_path)

    def test_unknown_select_rule_rejected(self, tmp_path):
        path = write(tmp_path, "x = 1\n")
        with pytest.raises(LintRuleError, match="unknown lint rule"):
            lint_paths([path], select=["no-such-rule"], root=tmp_path)


class TestRegistry:
    def test_builtins_registered(self):
        names = {cls.name for cls in registered_rules()}
        assert names >= {
            "determinism", "set-order", "spec-purity", "error-taxonomy",
            "shm-discipline", "process-discipline", "oracle-isolation",
            "env-discipline",
            "worker-capture",
        }

    def test_rule_class_lookup(self):
        assert rule_class("determinism").name == "determinism"

    def test_custom_rule_runs_via_select(self, tmp_path):
        @register_rule
        class NoPrintRule(LintRule):
            name = "test-no-print"
            description = "print() is for humans, not libraries"

            def check(self, module):
                import ast
                for node in ast.walk(module.tree):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "print"
                    ):
                        yield module.finding(
                            node, self.name, "print() call"
                        )

        try:
            path = write(tmp_path, "print('hi')\n")
            run = lint_paths(
                [path], select=["test-no-print"], root=tmp_path
            )
            assert [f.rule for f in run.findings] == ["test-no-print"]
        finally:
            _RULES.pop("test-no-print", None)

    def test_conflicting_name_rejected(self):
        class Impostor(LintRule):
            name = "determinism"
            description = "shadow"

            def check(self, module):
                return iter(())

        with pytest.raises(LintRuleError, match="already registered"):
            register_rule(Impostor)

    def test_nameless_rule_rejected(self):
        class Nameless(LintRule):
            description = "no name"

        with pytest.raises(LintRuleError, match="non-empty 'name'"):
            register_rule(Nameless)


class TestReporters:
    def _run(self, tmp_path):
        path = write(tmp_path, VIOLATION)
        return lint_paths([path], select=["error-taxonomy"], root=tmp_path)

    def test_human_report_has_location_and_summary(self, tmp_path):
        text = render_human(self._run(tmp_path))
        assert "mod.py:2:5: [error-taxonomy]" in text
        assert "1 finding (error-taxonomy=1) in 1 file" in text

    def test_human_report_clean_line(self, tmp_path):
        path = write(tmp_path, "x = 1\n")
        run = lint_paths([path], select=["error-taxonomy"], root=tmp_path)
        assert "clean: 1 file, 1 rule" in render_human(run)

    def test_json_report_parses(self, tmp_path):
        payload = json.loads(render_json(self._run(tmp_path)))
        assert payload["clean"] is False
        assert payload["findings"][0]["rule"] == "error-taxonomy"
        assert payload["findings"][0]["path"] == "mod.py"
        assert payload["stale_baseline"] == []
