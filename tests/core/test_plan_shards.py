"""Table-parallel Plan in the serial executor.

Each cycle's per-table Plan and hazard check run on
``REPRO_EXECUTOR_WORKERS`` contiguous table shards (shard 0 on the
calling thread, the rest on a thread pool the stream owns) and merge in
table order.  Every observable result — per-batch stats, final Hit-Maps,
losses, the violation log, the raised error — must be the same for any
shard count, and the pool's threads must not outlive the stream.
"""

import re
import threading

import numpy as np
import pytest

from repro.core import blas
from repro.core.pipeline import HazardError, HazardMonitor, ScratchPipePipeline
from repro.core.replacement import CachePressureError
from repro.core.scratchpad import GpuScratchpad, make_scratchpads, required_slots
from repro.data.trace import make_dataset
from repro.model.config import tiny_config
from repro.model.dlrm import DLRMModel, DenseNetwork
from repro.model.optimizer import SGD
from repro.systems.scratchpipe_system import ScratchPipeTrainingRun

#: 1: no pool; 2 and 3: uneven contiguous shards; 8: clamped to one per table.
WORKER_COUNTS = ("1", "2", "3", "8")


@pytest.fixture
def cfg():
    return tiny_config(rows_per_table=300, batch_size=6, lookups_per_table=2,
                       num_tables=5)


def for_each_count(monkeypatch, run):
    """``{workers: run()}`` with ``REPRO_EXECUTOR_WORKERS`` set to each count."""
    results = {}
    for workers in WORKER_COUNTS:
        monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", workers)
        results[workers] = run()
    return results


def assert_all_equal(results):
    reference = results[WORKER_COUNTS[0]]
    for workers, value in results.items():
        assert value == reference, f"REPRO_EXECUTOR_WORKERS={workers}"


def shrunk_window_pipeline(cfg, *, strict):
    """No past or future window: hazards fire on many tables per cycle."""
    pads = [
        GpuScratchpad(num_slots=30, num_rows=cfg.rows_per_table,
                      past_window=0, policy_name="random")
        for _ in range(cfg.num_tables)
    ]
    monitor = HazardMonitor(strict=strict)
    pipeline = ScratchPipePipeline(
        config=cfg,
        scratchpads=pads,
        dataset_batches=make_dataset(cfg, "random", seed=3, num_batches=40),
        future_window=0,
        monitor=monitor,
    )
    return pipeline, monitor


class TestShardCountInvariance:
    def test_stats_and_hitmaps(self, cfg, monkeypatch):
        dataset = make_dataset(cfg, "medium", seed=3, num_batches=24)

        def run():
            pads = make_scratchpads(cfg, required_slots(cfg))
            monitor = HazardMonitor(strict=True)
            result = ScratchPipePipeline(
                config=cfg, scratchpads=pads, dataset_batches=dataset,
                monitor=monitor,
            ).run()
            hit_maps = [pad.hit_map.export_state().tolist() for pad in pads]
            return result.cache_stats, hit_maps, monitor.violations

        assert_all_equal(for_each_count(monkeypatch, run))

    def test_functional_losses_and_tables(self, monkeypatch):
        cfg = tiny_config(rows_per_table=400, batch_size=8,
                          lookups_per_table=3, num_tables=3)
        dataset = make_dataset(cfg, "medium", seed=13, num_batches=18,
                               with_dense=True)

        def run():
            init = DLRMModel.initialise(cfg, seed=77)
            dense = DenseNetwork.initialise(cfg, np.random.default_rng(0))
            dense.copy_parameters_from(init.dense_network)
            training = ScratchPipeTrainingRun(
                config=cfg,
                cpu_tables=[t.weights.copy() for t in init.tables],
                dense_network=dense,
                num_slots=required_slots(cfg),
                optimizer=SGD(lr=0.01),
                monitor=HazardMonitor(strict=True),
            )
            result = training.run(dataset)
            tables = [table.tolist() for table in training.final_tables()]
            return result.losses, result.cache_stats, tables

        results = for_each_count(monkeypatch, run)
        assert results["1"][0]  # functional mode really trained
        assert_all_equal(results)

    def test_nonstrict_violation_log(self, cfg, monkeypatch):
        def run():
            pipeline, monitor = shrunk_window_pipeline(cfg, strict=False)
            pipeline.run()
            return list(monitor.violations)

        results = for_each_count(monkeypatch, run)
        assert_all_equal(results)
        # Not vacuous: some [Collect] cycle flags on several tables, so the
        # merge order across shards is what the comparison checks.
        tables_by_cycle = {}
        for message in results["1"]:
            table, cycle = re.search(r"table (\d+)\D*cycle (\d+)", message).groups()
            tables_by_cycle.setdefault(cycle, set()).add(table)
        assert max(len(tables) for tables in tables_by_cycle.values()) >= 3

    def test_strict_hazard_message(self, cfg, monkeypatch):
        threads_before = threading.active_count()

        def run():
            pipeline, monitor = shrunk_window_pipeline(cfg, strict=True)
            with pytest.raises(HazardError) as excinfo:
                pipeline.run()
            assert monitor.violations == [str(excinfo.value)]
            assert threading.active_count() == threads_before
            return str(excinfo.value)

        assert_all_equal(for_each_count(monkeypatch, run))

    def test_cache_pressure_error_on_a_later_table(self, cfg, monkeypatch):
        # Table 0 is roomy; tables 1.. are undersized, each by a different
        # slot count, so the message names which table failed first.  The
        # first failure comes mid-run, after some batches retired.
        def run(executor="serial"):
            pads = [
                GpuScratchpad(num_slots=required_slots(cfg) if table == 0
                              else 40 + table, num_rows=cfg.rows_per_table)
                for table in range(cfg.num_tables)
            ]
            pipeline = ScratchPipePipeline(
                config=cfg, scratchpads=pads,
                dataset_batches=make_dataset(cfg, "medium", seed=3,
                                             num_batches=24),
                monitor=HazardMonitor(strict=False),
                executor=executor,
            )
            retired = []
            with pytest.raises(CachePressureError) as excinfo:
                retired.extend(pipeline.stream())
            return str(excinfo.value), retired

        results = for_each_count(monkeypatch, run)
        message, retired = results["1"]
        assert "slots are eligible" in message and retired
        # Planner processes ship a stopped shard's prefix, then its error.
        monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", "3")
        results["overlapped"] = run("overlapped")
        assert_all_equal(results)


def test_closing_stream_mid_run_joins_plan_threads(cfg, monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", "3")
    threads_before = threading.active_count()
    blas_before = blas.thread_count()
    dataset = make_dataset(cfg, "medium", seed=3, num_batches=24,
                           with_dense=True)
    metadata = ScratchPipePipeline(
        config=cfg,
        scratchpads=make_scratchpads(cfg, required_slots(cfg)),
        dataset_batches=dataset,
        monitor=HazardMonitor(strict=True),
    )
    # A functional pipeline also trains on the pool, BLAS held at one thread.
    init = DLRMModel.initialise(cfg, seed=77)
    run = ScratchPipeTrainingRun(
        config=cfg,
        cpu_tables=[t.weights.copy() for t in init.tables],
        dense_network=init.dense_network,
        num_slots=required_slots(cfg),
    )
    functional = ScratchPipePipeline(
        config=cfg, scratchpads=run.scratchpads, dataset_batches=dataset,
        cpu_tables=run.cpu_tables, trainer=run.trainer,
        monitor=HazardMonitor(strict=True),
    )
    for pipeline in (metadata, functional):
        stream = pipeline.stream()
        first = [next(stream) for _ in range(3)]
        assert threading.active_count() > threads_before
        stream.close()
        assert threading.active_count() == threads_before
        assert blas.thread_count() == blas_before
        assert [stats.batch_index for stats in first] == [0, 1, 2]
