"""Spec-shipping sweep tests: scenarios, shared memory, worker equivalence.

Extends the PR 2 oracle tests (workers>1 == workers=1, bit-identical) to
scenario-driven traces, and pins the new dispatch contract: what crosses
the process boundary is a few-hundred-byte spec — never a pickled trace —
and each unique trace is generated exactly once, in the parent, with
workers mapping shared memory.
"""

import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import sweep
from repro.analysis.experiments import ExperimentSetup, fig13_speedup
from repro.analysis.sweep import SweepPoint, run_grid, run_point
from repro.data.scenarios import (
    BurstSpec,
    ChurnSpec,
    CorrelationSpec,
    DriftSpec,
    ScenarioSpec,
)
from repro.model.config import tiny_config


@pytest.fixture
def cfg():
    return tiny_config(
        rows_per_table=20_000, batch_size=8, lookups_per_table=2, num_tables=2
    )


def scenario_setup(cfg, spec):
    return ExperimentSetup(config=cfg, num_batches=10, seed=1, scenario=spec)


DRIFT = ScenarioSpec(drift=DriftSpec(rate=8.0))


class TestScenarioPoints:
    def test_point_carries_scenario(self, cfg):
        point = scenario_setup(cfg, DRIFT).point("scratchpipe", "high", 0.05, 2)
        assert point.scenario == DRIFT

    def test_trace_key_folds_locality_into_scenario(self, cfg):
        point = scenario_setup(cfg, DRIFT).point("scratchpipe", "high", 0.05, 2)
        *_, scenario, trace_file = point.trace_key
        assert scenario.locality == "high"
        assert scenario.drift == DRIFT.drift
        assert trace_file is None

    def test_hit_rate_metric_scratchpipe_only(self, cfg):
        setup = scenario_setup(cfg, None)
        with pytest.raises(ValueError, match="hit_rate"):
            setup.point("hybrid", "high", 0.0, 0, metric="hit_rate")

    def test_points_pickle_small(self, cfg):
        """Dispatch ships specs: a point is kilobytes, never a trace.

        10 batches x 2 tables x 8 x 2 lookups alone would be ~2.5 KB of
        int64 per trace at *this* toy scale and megabytes at paper scale;
        the descriptor must stay spec-sized regardless.
        """
        for spec in (None, DRIFT):
            point = scenario_setup(cfg, spec).point(
                "scratchpipe", "high", 0.05, 2
            )
            assert len(pickle.dumps(point)) < 4096

    def test_scenario_changes_the_result(self, cfg):
        stationary = run_point(
            scenario_setup(cfg, None).point(
                "scratchpipe", "high", 0.05, 2, metric="hit_rate"
            )
        )
        drifted = run_point(
            scenario_setup(cfg, DRIFT).point(
                "scratchpipe", "high", 0.05, 2, metric="hit_rate"
            )
        )
        # Fast drift destroys cross-batch reuse: the study the paper
        # motivates but could not previously express.
        assert drifted < stationary


class TestSharedMemoryDispatch:
    def grid(self, cfg):
        points = []
        for spec in (None, DRIFT):
            setup = scenario_setup(cfg, spec)
            for locality in ("random", "high"):
                points.append(setup.point("scratchpipe", locality, 0.05, 2))
                points.append(
                    setup.point(
                        "scratchpipe", locality, 0.05, 2, metric="hit_rate"
                    )
                )
        return points

    def test_parallel_matches_serial_under_scenarios(self, cfg):
        points = self.grid(cfg)
        assert run_grid(points, workers=1) == run_grid(points, workers=2)

    def test_each_trace_generated_once_in_parent(self, cfg, tmp_path,
                                                 monkeypatch):
        """Regeneration counting: pool start-up neither pickles traces nor
        regenerates them per worker — the parent generates each unique
        trace exactly once and publishes shared memory."""
        gen_dir = tmp_path / "gens"
        gen_dir.mkdir()
        monkeypatch.setenv(sweep.TRACE_GEN_LOG_ENV, str(gen_dir))
        sweep._cached_trace.cache_clear()
        points = self.grid(cfg)
        unique_keys = {p.trace_key for p in points}
        run_grid(points, workers=2)
        markers = os.listdir(gen_dir)
        assert len(markers) == len(unique_keys)
        parent = str(os.getpid())
        assert all(m.split("-")[1] == parent for m in markers)

    def test_workers_regenerate_without_shared_memory(self, cfg, tmp_path,
                                                      monkeypatch):
        """A worker handed no shared segment for a key regenerates the
        trace from the key, bit-identically."""
        gen_dir = tmp_path / "gens"
        gen_dir.mkdir()
        monkeypatch.setenv(sweep.TRACE_GEN_LOG_ENV, str(gen_dir))
        sweep._cached_trace.cache_clear()
        points = [
            scenario_setup(cfg, spec).point("scratchpipe", loc, 0.05, 2)
            for spec in (None, DRIFT)
            for loc in ("random", "high")
        ]
        serial = run_grid(points, workers=1)
        pool = sweep._make_pool(2, {})
        try:
            futures = [pool.submit(run_point, p) for p in points]
            assert [f.result() for f in futures] == serial
        finally:
            pool.shutdown(wait=True)
        parent = str(os.getpid())
        assert any(
            m.split("-")[1] != parent for m in os.listdir(gen_dir)
        )

    def test_parallel_run_after_serial_adds_no_generations(
        self, cfg, tmp_path, monkeypatch
    ):
        """A parallel run after a serial one publishes the parent's
        memoised traces instead of regenerating them in workers."""
        gen_dir = tmp_path / "gens"
        gen_dir.mkdir()
        monkeypatch.setenv(sweep.TRACE_GEN_LOG_ENV, str(gen_dir))
        sweep._cached_trace.cache_clear()
        points = [
            scenario_setup(cfg, DRIFT).point("scratchpipe", loc, 0.05, 2)
            for loc in ("random", "high")
        ]
        serial = run_grid(points, workers=1)
        serial_gens = len(os.listdir(gen_dir))
        assert run_grid(points, workers=2) == serial
        markers = os.listdir(gen_dir)
        # The parallel run added no generations anywhere: the parent's
        # memoised traces were published via shared memory and mapped.
        assert len(markers) == serial_gens
        parent = str(os.getpid())
        assert all(m.split("-")[1] == parent for m in markers)

    def test_shared_trace_attach_is_bit_identical(self, cfg, retrack_segments):
        """A worker-side shm attachment reproduces the parent's trace."""
        from multiprocessing import shared_memory

        point = scenario_setup(cfg, DRIFT).point("scratchpipe", "high", 0.05, 2)
        key = point.trace_key
        manifest, segments = {}, []
        sweep._publish_shared_traces([point], manifest, segments)
        try:
            # Simulate a fresh worker: empty caches, manifest installed.
            sweep._cached_trace.cache_clear()
            sweep._SHM_MANIFEST.update(manifest)
            attached = sweep._attach_shared_trace(key)
            reference = sweep._generate_trace(key)
            assert len(attached) == len(reference)
            for i in range(len(attached)):
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


class TestWorkerEquivalenceProperty:
    @given(
        drift_rate=st.sampled_from([0.0, 2.0, 32.0]),
        process=st.sampled_from(["churn", "burst", "correlation", "none"]),
        locality=st.sampled_from(["high", "medium"]),
    )
    @settings(max_examples=4, deadline=None)
    def test_fig13_bit_identical_across_workers(
        self, drift_rate, process, locality
    ):
        """Figure outputs are bit-identical between workers=1 and
        workers>1 for arbitrary scenario-driven traces."""
        cfg = tiny_config(
            rows_per_table=20_000, batch_size=8, lookups_per_table=2,
            num_tables=2,
        )
        spec = ScenarioSpec(
            drift=DriftSpec(rate=drift_rate) if drift_rate else None,
            churn=ChurnSpec(hot_fraction=0.05, period=4)
            if process == "churn" else None,
            burst=BurstSpec(period=6, duration=2, share=0.4, rows=8)
            if process == "burst" else None,
            correlation=CorrelationSpec(rho=0.5)
            if process == "correlation" else None,
        )
        setup = ExperimentSetup(
            config=cfg, num_batches=10, seed=2, scenario=spec
        )
        serial = fig13_speedup(
            setup, cache_fractions=(0.05,), localities=(locality,), workers=1
        )
        parallel = fig13_speedup(
            setup, cache_fractions=(0.05,), localities=(locality,), workers=2
        )
        assert serial == parallel
