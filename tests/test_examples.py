"""Smoke tests for the runnable examples.

The fast examples run end-to-end (their assertions double as integration
checks); the minute-scale sweeps are validated at the argument-parsing
level only, since the benchmark suite already exercises their code paths.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, argv=None):
    old_argv = sys.argv
    sys.argv = [name] + (argv or [])
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


class TestFastExamples:
    def test_quickstart(self, capsys):
        run_example("quickstart.py")
        out = capsys.readouterr().out
        assert "bit-identical to sequential SGD:  True" in out
        assert "always-hit" in out

    def test_trace_replay(self, capsys):
        run_example("trace_replay.py")
        out = capsys.readouterr().out
        assert "trained 20 batches from the file" in out
        assert "hazards: none" in out

    def test_workload_analysis(self, capsys):
        run_example("workload_analysis.py", ["--locality", "high"])
        out = capsys.readouterr().out
        assert "single-use rows" in out
        assert "headroom" in out

    def test_real_trace_quickstart(self, capsys):
        run_example("real_trace_quickstart.py", ["--batches", "8"])
        out = capsys.readouterr().out
        assert "verified" in out
        assert "bit-identical to the TSV parse" in out
        assert "Plan-stage hit rate on the real trace" in out

    def test_drift_sweep(self, capsys):
        run_example("drift_sweep.py", ["--rates", "0", "64"])
        out = capsys.readouterr().out
        assert "hit rate vs hot-set drift rate" in out
        assert "Scenario matrix" in out
        assert "hit rate falls" in out

    def test_heterogeneous_caches(self, capsys):
        run_example("heterogeneous_caches.py", ["--rhos", "0", "0.5"])
        out = capsys.readouterr().out
        assert "per-table hit rates" in out
        assert "allocation knob works" in out

    def test_adagrad_training(self, capsys):
        run_example("adagrad_training.py")
        out = capsys.readouterr().out
        assert "weights bit-identical to reference:      True" in out
        assert "accumulators bit-identical to reference: True" in out

    def test_live_replay(self, capsys):
        run_example("live_replay.py", ["--batches", "16"])
        out = capsys.readouterr().out
        assert "p50 ms" in out and "p99 ms" in out
        assert "end_to_end" in out
        assert "replay deterministic (rerun identical): True" in out
        assert "load shedding bounds the tail" in out

    def test_pipeline_timeline(self, capsys):
        run_example("pipeline_timeline.py")
        out = capsys.readouterr().out
        assert "ScratchPipe schedule — random trace, 2% cache" in out
        assert "B11" in out and "more cycles" in out
        assert "steady-state cycle:" in out
        assert "bottleneck stage:    collect" in out
        assert "hidden by overlap" in out

    def test_system_comparison(self, capsys):
        run_example("system_comparison.py")
        out = capsys.readouterr().out
        assert "41 GB model, 2% GPU cache" in out
        rows = [line.split() for line in out.splitlines()
                if line.split()[:1] in (["random"], ["low"], ["medium"],
                                        ["high"])]
        assert [row[0] for row in rows] == ["random", "low", "medium", "high"]
        for row in rows:
            hybrid, static, strawman, scratchpipe = map(float, row[1:5])
            # Pipelining beats the straw-man, which beats the hybrid.
            assert scratchpipe < strawman < hybrid
            assert float(row[5].rstrip("x")) > 1.0  # speedup over static

    def test_locality_study(self, capsys):
        run_example("locality_study.py")
        out = capsys.readouterr().out
        assert "Criteo" in out and "Alibaba" in out
        assert "anchor points" in out

    def test_lint_custom_rule(self, capsys):
        from repro.lint.registry import _RULES

        # runpy re-executes the module, so drop any registration left by
        # an earlier run and clean up after: the demo rule must not leak
        # into the self-check tests, which run every registered rule.
        _RULES.pop("example-no-print", None)
        try:
            run_example("lint_custom_rule.py")
            out = capsys.readouterr().out
            assert "custom rule enforced:  True" in out
            assert "sim.py:5:9: [example-no-print]" in out
            assert "suppressed with justification" in out
        finally:
            _RULES.pop("example-no-print", None)


class TestExampleFilesPresent:
    @pytest.mark.parametrize("name", [
        "quickstart.py",
        "locality_study.py",
        "system_comparison.py",
        "cost_planner.py",
        "trace_replay.py",
        "pipeline_timeline.py",
        "adagrad_training.py",
        "workload_analysis.py",
        "heterogeneous_caches.py",
        "live_replay.py",
    ])
    def test_exists_and_has_docstring(self, name):
        path = EXAMPLES / name
        assert path.exists(), name
        text = path.read_text()
        assert '"""' in text.split("\n", 2)[-1] or text.startswith("#!"), name
        assert "def main()" in text, name
