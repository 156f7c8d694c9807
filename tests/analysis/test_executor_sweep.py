"""Executor equivalence through the analysis stack (PR 10 satellite).

The determinism contract — ``overlapped`` is bit-identical to ``serial``
— is proven core-side in ``tests/core/test_executor.py``; here it is
pinned where users consume it: figure full dumps, sweep grids with
worker pools, and random (SystemSpec, ScenarioSpec) draws.  Also covers
the thread-pooled parent-side trace publication.
"""

import io
import contextlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import sweep
from repro.analysis.experiments import (
    ExperimentSetup,
    fig12a_baseline_latency,
    fig13_speedup,
)
from repro.analysis.sweep import run_grid, run_point
from repro.api.specs import CacheSpec, PipelineSpec, SystemSpec
from repro.data.scenarios import ChurnSpec, DriftSpec, ScenarioSpec
from repro.errors import ExperimentConfigError
from repro.model.config import tiny_config


@pytest.fixture
def cfg():
    return tiny_config(
        rows_per_table=20_000, batch_size=8, lookups_per_table=2, num_tables=2
    )


@pytest.fixture(autouse=True)
def two_planners(monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", "2")


def setup_for(cfg, executor, scenario=None):
    return ExperimentSetup(
        config=cfg, num_batches=10, seed=2, scenario=scenario,
        executor=executor,
    )


class TestSetupExecutor:
    def test_unknown_executor_rejected_eagerly(self, cfg):
        with pytest.raises(ExperimentConfigError, match="warp-drive"):
            setup_for(cfg, "warp-drive")

    def test_nonserial_setup_attaches_spec(self, cfg):
        point = setup_for(cfg, "overlapped").point(
            "scratchpipe", "high", 0.05, 2
        )
        assert point.system_spec is not None
        assert point.system_spec.pipeline.executor == "overlapped"

    def test_serial_setup_keeps_specless_points(self, cfg):
        point = setup_for(cfg, "serial").point("scratchpipe", "high", 0.05, 2)
        assert point.system_spec is None

    def test_executor_overrides_given_spec(self, cfg):
        spec = SystemSpec(system="scratchpipe", cache=CacheSpec(fraction=0.05))
        point = setup_for(cfg, "overlapped").point(
            "scratchpipe", "high", 0.05, 2, system_spec=spec
        )
        assert point.system_spec.pipeline.executor == "overlapped"


class TestFigureDumps:
    def test_fig12a_full_dump_identical(self, cfg):
        dumps = {}
        for executor in ("serial", "overlapped"):
            out = fig12a_baseline_latency(
                setup_for(cfg, executor), cache_fractions=(0.02,)
            )
            dumps[executor] = json.dumps(out, sort_keys=True)
        assert dumps["overlapped"] == dumps["serial"]

    def test_fig13_full_dump_identical(self, cfg):
        dumps = {}
        for executor in ("serial", "overlapped"):
            points = fig13_speedup(
                setup_for(cfg, executor),
                cache_fractions=(0.05,),
                localities=("high",),
            )
            dumps[executor] = repr(points)
        assert dumps["overlapped"] == dumps["serial"]

    def test_fig13_cli_bytes_identical(self):
        from repro.cli import main

        def run(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                main(argv)
            return buf.getvalue()

        base = ["--batches", "8", "fig13", "--fractions", "0.02"]
        assert run(["--executor", "overlapped"] + base) == run(base)

    def test_cli_rejects_unknown_executor(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="invalid --executor"):
            main(["--executor", "warp-drive", "--batches", "8", "fig13"])


class TestOverlappedSweepCell:
    def test_workers2_overlapped_matches_serial_reference(self, cfg):
        """The satellite's acceptance cell: a workers=2 pool whose points
        themselves run the overlapped executor equals the workers=1
        serial-executor reference."""
        grids = {}
        for executor in ("serial", "overlapped"):
            setup = setup_for(cfg, executor)
            points = [
                setup.point("scratchpipe", locality, 0.05, 2,
                            metric=metric)
                for locality in ("random", "high")
                for metric in ("hit_rate", "cache_stats")
            ]
            grids[executor] = points
        reference = run_grid(grids["serial"], workers=1)
        assert run_grid(grids["overlapped"], workers=1) == reference
        assert run_grid(grids["overlapped"], workers=2) == reference


class TestRandomSpecProperty:
    @given(
        policy=st.sampled_from(["lru", "lfu", "random"]),
        fraction=st.sampled_from([0.03, 0.05]),
        future_window=st.sampled_from([1, 2, 3]),
        process=st.sampled_from(["none", "drift", "churn"]),
        locality=st.sampled_from(["high", "medium"]),
    )
    @settings(max_examples=5, deadline=None)
    def test_overlapped_matches_serial_for_random_specs(
        self, policy, fraction, future_window, process, locality
    ):
        cfg = tiny_config(
            rows_per_table=20_000, batch_size=8, lookups_per_table=2,
            num_tables=2,
        )
        scenario = ScenarioSpec(
            drift=DriftSpec(rate=8.0) if process == "drift" else None,
            churn=ChurnSpec(hot_fraction=0.05, period=4)
            if process == "churn" else None,
        )
        results = {}
        for executor in ("serial", "overlapped"):
            spec = SystemSpec(
                system="scratchpipe",
                cache=CacheSpec(fraction=fraction, policy=policy),
                pipeline=PipelineSpec(
                    future_window=future_window,
                    executor=executor,
                ),
            )
            setup = ExperimentSetup(
                config=cfg, num_batches=10, seed=4, scenario=scenario
            )
            point = setup.point(
                "scratchpipe", locality, fraction, 2,
                metric="cache_stats", system_spec=spec,
            )
            results[executor] = run_point(point)
        assert results["overlapped"] == results["serial"]


def threads(monkeypatch, count):
    """Pin the publication thread count (capped by the unique traces)."""
    monkeypatch.setattr(
        sweep, "_publish_threads", lambda num_keys: min(count, num_keys)
    )


class TestThreadedPublication:
    def grid_points(self, cfg):
        points = []
        for scenario in (None, ScenarioSpec(drift=DriftSpec(rate=8.0))):
            setup = ExperimentSetup(
                config=cfg, num_batches=10, seed=1, scenario=scenario
            )
            for locality in ("random", "medium", "high"):
                points.append(
                    setup.point("scratchpipe", locality, 0.05, 2,
                                metric="hit_rate")
                )
        return points

    def test_threaded_publication_bit_identical(self, cfg, tmp_path,
                                                monkeypatch,
                                                retrack_segments):
        """Segments published through the thread pool carry byte-identical
        traces, in the same deterministic point order."""
        threads(monkeypatch, 3)
        points = self.grid_points(cfg)
        sweep._cached_trace.cache_clear()
        manifest, segments = {}, []
        try:
            sweep._publish_shared_traces(points, manifest, segments)
            assert list(manifest) == [
                key for key in dict.fromkeys(p.trace_key for p in points)
            ]
            sweep._cached_trace.cache_clear()
            sweep._SHM_MANIFEST.update(manifest)
            for point in points:
                attached = sweep._attach_shared_trace(point.trace_key)
                reference = sweep._generate_trace(point.trace_key)
                for i in range(len(reference)):
                    assert np.array_equal(
                        attached.batch(i).sparse_ids,
                        reference.batch(i).sparse_ids,
                    )
        finally:
            sweep._SHM_MANIFEST.clear()
            for name in list(sweep._SHM_ATTACHED):
                sweep._SHM_ATTACHED.pop(name).close()
            sweep._cached_trace.cache_clear()
            retrack_segments(segments)
            for segment in segments:
                segment.close()
                segment.unlink()

    def test_grid_results_unchanged_under_threading(self, cfg, monkeypatch):
        points = self.grid_points(cfg)
        threads(monkeypatch, 1)
        sweep._cached_trace.cache_clear()
        sequential = run_grid(points, workers=2)
        threads(monkeypatch, 3)
        sweep._cached_trace.cache_clear()
        assert run_grid(points, workers=2) == sequential

    def test_thread_count_is_capped(self, monkeypatch):
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 8)
        counts = [sweep._publish_threads(n) for n in (0, 1, 3, 9)]
        assert counts == [1, 1, 3, 4]
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: None)
        assert sweep._publish_threads(9) == 1

    def test_leak_free_publication(self, cfg, monkeypatch, shm_leak_check):
        threads(monkeypatch, 3)
        sweep._cached_trace.cache_clear()
        run_grid(self.grid_points(cfg), workers=2)
