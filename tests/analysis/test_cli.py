"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("fig6", "fig12b", "fig13", "fig14", "table1",
                        "overhead", "compare"):
            args = parser.parse_args([command])
            assert args.command == command
            assert callable(args.func)

    def test_fraction_arguments(self):
        args = build_parser().parse_args(
            ["fig13", "--fractions", "0.02", "0.1"]
        )
        assert args.fractions == [0.02, 0.1]

    def test_batches_argument(self):
        args = build_parser().parse_args(["--batches", "10", "overhead"])
        assert args.batches == 10


class TestCommands:
    def test_overhead_output(self, capsys):
        main(["overhead"])
        out = capsys.readouterr().out
        assert "Section VI-D" in out
        assert "storage_worst_case_bytes" in out

    def test_fig6_output(self, capsys):
        main(["fig6", "--points", "10"])
        out = capsys.readouterr().out
        assert "Criteo" in out
        assert "Alibaba" in out

    def test_compare_rejects_unknown_locality(self):
        with pytest.raises(SystemExit):
            main(["compare", "--locality", "extreme"])


class TestSpecFlags:
    def test_systems_listing(self, capsys):
        main(["systems"])
        out = capsys.readouterr().out
        assert "scratchpipe" in out and "static_cache" in out
        assert "lru" in out and "random" in out

    def test_cache_spec_on_compare(self, capsys):
        main(["--batches", "8", "--cache-spec", "table0=0.2,rest=0.05",
              "compare", "--locality", "medium"])
        out = capsys.readouterr().out
        assert "table0=0.2" in out
        assert "scratchpipe" in out

    def test_system_json_adds_compare_row(self, capsys):
        import json

        spec = json.dumps({
            "system": "strawman",
            "cache": {"fraction": 0.05, "policy": "random"},
        })
        main(["--batches", "8", "--system", spec, "compare"])
        out = capsys.readouterr().out
        assert "custom (strawman)" in out

    def test_custom_compare_row_names_its_own_cache(self, capsys):
        import json

        spec = json.dumps({
            "system": "multi_gpu_scratchpipe", "num_gpus": 2,
            "cache": {"fraction": 0.05},
        })
        main(["--batches", "8", "--system", spec, "compare"])
        out = capsys.readouterr().out
        assert "medium, 2% cache" in out
        assert "custom (multi_gpu_scratchpipe) 5% cache" in out

    def test_bad_cache_spec_is_clean_error(self):
        with pytest.raises(SystemExit, match="invalid --cache-spec"):
            main(["--cache-spec", "nonsense=,", "compare"])

    def test_cacheless_system_row_on_compare(self, capsys):
        main(["--batches", "8", "--system", "multi_gpu", "compare"])
        out = capsys.readouterr().out
        assert "custom (multi_gpu)" in out

    def test_cache_spec_rejected_for_cacheless_system(self):
        with pytest.raises(SystemExit, match="takes no cache"):
            main(["--batches", "8", "--system", "hybrid",
                  "--cache-spec", "0.05", "compare"])

    def test_unknown_system_is_clean_error(self):
        with pytest.raises(SystemExit, match="invalid system spec"):
            main(["--batches", "8", "--system", "warp_drive", "compare"])

    def test_flags_rejected_where_not_applicable(self):
        with pytest.raises(SystemExit, match="--system does not apply"):
            main(["--system", "scratchpipe", "fig13"])
        with pytest.raises(SystemExit, match="--cache-spec does not apply"):
            main(["--cache-spec", "0.02", "fig13"])

    def test_hetero_in_parser(self):
        args = build_parser().parse_args(
            ["hetero", "--rhos", "0", "0.5", "--splits", "0.02"]
        )
        assert args.command == "hetero"
        assert args.rhos == [0.0, 0.5]


class TestNewCommands:
    def test_validate_in_parser(self):
        args = build_parser().parse_args(["validate"])
        assert args.command == "validate"

    def test_timeline_in_parser(self):
        args = build_parser().parse_args(
            ["timeline", "--locality", "high", "--cache", "0.05"]
        )
        assert args.locality == "high"
        assert args.cache == 0.05

    def test_validate_output(self, capsys):
        main(["validate"])
        out = capsys.readouterr().out
        assert "predicted" in out and "measured" in out

    def test_timeline_rejects_unknown_locality(self):
        with pytest.raises(SystemExit):
            main(["timeline", "--locality", "nope"])

    def test_timeline_rejects_the_strawman(self):
        # The straw-man streams the pipeline too, but has no pipelined
        # schedule to draw.
        with pytest.raises(SystemExit) as excinfo:
            main(["--batches", "8", "--system", "strawman", "timeline"])
        assert str(excinfo.value) == (
            "timeline needs a pipelined dynamic-cache system; 'strawman' "
            "does not stream the metadata pipeline"
        )

    def test_timeline_prices_multi_gpu_scratchpipe_by_its_rule(self, capsys):
        def train_utilisation(system, num_gpus):
            spec = (f'{{"system": "{system}", "num_gpus": {num_gpus}, '
                    '"cache": {"fraction": 0.05}}')
            main(["--batches", "8", "--system", spec, "timeline"])
            out = capsys.readouterr().out
            assert "B7" in out and "steady-state cycle" in out
            row = next(line for line in out.splitlines()
                       if line.startswith("train "))
            return float(row.split()[1].rstrip("%"))

        # Two GPUs split the Train stage's embedding work, so it sits idle
        # for more of each cycle than on one GPU.
        assert (train_utilisation("multi_gpu_scratchpipe", 2)
                < train_utilisation("scratchpipe", 1))


class TestRealTraceFlow:
    """The fetch -> ingest -> --trace quickstart, end to end."""

    @pytest.fixture
    def sample_tsv(self, tmp_path):
        from repro.data.fetch import generate_sample_tsv

        # A short regeneration of the checked-in fixture: same layout,
        # fewer lines, so CLI runs stay fast.
        return generate_sample_tsv(tmp_path / "sample.tsv", num_lines=600)

    @pytest.fixture
    def compiled(self, sample_tsv, tmp_path, capsys):
        out = tmp_path / "sample.rtrc"
        main(["ingest", str(sample_tsv), "--out", str(out)])
        capsys.readouterr()
        return out

    def test_trace_listing(self, capsys):
        main(["trace"])
        out = capsys.readouterr().out
        assert "criteo-sample" in out and "criteo-kaggle" in out

    def test_trace_info_verifies_sample(self, capsys):
        main(["trace", "criteo-sample"])
        out = capsys.readouterr().out
        assert "verified" in out
        assert "8 tables x 128 batch x 3 lookups" in out
        assert "15" in out  # batches

    def test_ingest_prints_sha_and_geometry(self, sample_tsv, tmp_path,
                                            capsys):
        out_path = tmp_path / "out.rtrc"
        main(["ingest", str(sample_tsv), "--out", str(out_path)])
        out = capsys.readouterr().out
        assert out_path.exists()
        assert "sha256" in out
        assert "8 tables x 128 batch x 3 lookups" in out

    def test_fig13_trace_tsv_and_compiled_byte_identical(
        self, sample_tsv, compiled, capsys
    ):
        main(["--batches", "4", "--trace", str(compiled),
              "fig13", "--fractions", "0.1"])
        from_compiled = capsys.readouterr().out
        main(["--batches", "4", "--trace", str(sample_tsv),
              "fig13", "--fractions", "0.1"])
        from_tsv = capsys.readouterr().out
        assert from_compiled == from_tsv
        assert "trace" in from_compiled

    def test_compare_on_trace(self, compiled, capsys):
        main(["--batches", "4", "--trace", str(compiled), "compare",
              "--cache", "0.1"])
        out = capsys.readouterr().out
        assert "scratchpipe" in out and "static_cache" in out

    def test_trace_rejects_scenario_combo(self, compiled):
        with pytest.raises(SystemExit, match="--scenario"):
            main(["--trace", str(compiled), "--scenario", "fast-drift",
                  "fig13"])

    def test_trace_rejected_where_not_applicable(self, compiled):
        with pytest.raises(SystemExit, match="--trace does not apply"):
            main(["--trace", str(compiled), "fig6"])
        with pytest.raises(SystemExit, match="--trace does not apply"):
            main(["--trace", str(compiled), "driftsweep"])

    def test_unknown_trace_is_clean_error(self):
        with pytest.raises(SystemExit, match="invalid --trace"):
            main(["--trace", "warp-dataset", "fig13"])

    def test_undersized_cache_on_trace_is_spec_error(self, compiled):
        # floor at sample geometry: 4 * 128 * 3 = 1536 slots of 50000 rows
        with pytest.raises(Exception, match="hazard-window"):
            main(["--batches", "4", "--trace", str(compiled),
                  "fig13", "--fractions", "0.01"])


class TestLongRunningSweeps:
    """The --checkpoint/--resume/--point-* resilience flags."""

    def test_checkpoint_then_resume_byte_identical(self, tmp_path, capsys):
        """Acceptance: a resumed checkpointed run reprints the same bytes."""
        journal = tmp_path / "fig13.jsonl"
        argv = ["--batches", "6", "--checkpoint", str(journal),
                "fig13", "--fractions", "0.05"]
        main(argv)
        first = capsys.readouterr().out
        assert journal.exists() and journal.stat().st_size > 0
        # Second run resumes every point from the journal; output is
        # byte-identical to the uninterrupted run.
        main(["--resume"] + argv)
        assert capsys.readouterr().out == first

    def test_resume_requires_checkpoint(self):
        with pytest.raises(SystemExit, match="--resume requires"):
            main(["--resume", "fig13"])

    def test_resume_requires_existing_journal(self, tmp_path):
        with pytest.raises(SystemExit, match="does not exist"):
            main(["--resume", "--checkpoint", str(tmp_path / "none.jsonl"),
                  "fig13"])

    def test_point_flags_parse(self):
        args = build_parser().parse_args(
            ["--point-timeout", "30", "--point-retries", "5", "fig13"]
        )
        assert args.point_timeout == 30.0
        assert args.point_retries == 5

    def test_quarantine_renders_failure_report(self, monkeypatch, capsys):
        from repro.analysis import experiments
        from repro.analysis.sweep import (
            GridReport, PointFailure, SweepGridError, SweepPoint,
        )
        from repro.model.config import tiny_config

        point = SweepPoint(
            system="scratchpipe", locality="high", cache_fraction=0.05,
            seed=2, num_batches=6, config=tiny_config(),
            hardware=experiments.DEFAULT_HARDWARE,
        )
        report = GridReport(results=[None], failures=[PointFailure(
            index=0, point=point, error_type="SweepWorkerCrashError",
            message="worker crashed", attempts=3,
        )], retries=2)

        def doomed(points, workers=1, **kwargs):
            raise SweepGridError(report)

        monkeypatch.setattr(experiments, "run_grid", doomed)
        with pytest.raises(SystemExit) as excinfo:
            main(["--batches", "6", "fig13", "--fractions", "0.05"])
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert "sweep failure report" in err
        assert "SweepWorkerCrashError" in err
        assert "scratchpipe:high" in err
