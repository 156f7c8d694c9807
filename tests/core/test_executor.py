"""Executor-backend tests: registry contracts, serial vs overlapped
bit-identity (the PR 10 determinism contract), and planner-worker fault
injection at the ``pipeline.executor`` site — a crashed, stalled or
raising planner must surface as a named error, never a hang or a leaked
shared-memory segment."""

import multiprocessing

import numpy as np
import pytest

from repro.core.executor import (
    _liveness_timeout,
    _shard_tables,
    _worker_count,
    make_executor,
    register_executor,
    registered_executors,
)
from repro.core.pipeline import HazardError, HazardMonitor, ScratchPipePipeline
from repro.core.scratchpad import make_scratchpads, required_slots
from repro.data.trace import make_dataset
from repro.errors import (
    ExecutorConfigError,
    ExecutorUnavailableError,
    ExecutorWorkerError,
)
from repro.model.config import tiny_config
from repro.model.dlrm import DLRMModel, DenseNetwork
from repro.model.optimizer import SGD
from repro.systems.scratchpipe_system import ScratchPipeTrainingRun
from repro.testing.faults import FaultSpec, InjectedFaultError, injected_faults


@pytest.fixture
def cfg():
    return tiny_config(rows_per_table=300, batch_size=6, lookups_per_table=2,
                       num_tables=4)


@pytest.fixture
def dataset(cfg):
    return make_dataset(cfg, "medium", seed=3, num_batches=24)


def run_once(cfg, dataset, executor, *, strict=False, num_slots=None,
             num_batches=None):
    """One fresh metadata-mode run; returns (result, monitor, scratchpads)."""
    pads = make_scratchpads(cfg, num_slots or required_slots(cfg))
    monitor = HazardMonitor(strict=strict)
    pipeline = ScratchPipePipeline(
        config=cfg,
        scratchpads=pads,
        dataset_batches=dataset,
        monitor=monitor,
        executor=executor,
    )
    result = pipeline.run(num_batches=num_batches)
    return result, monitor, pads


def assert_runs_identical(cfg, serial, overlapped):
    s_result, s_monitor, s_pads = serial
    o_result, o_monitor, o_pads = overlapped
    assert o_result.cache_stats == s_result.cache_stats
    assert o_result.losses == s_result.losses
    assert o_monitor.violations == s_monitor.violations
    for table in range(cfg.num_tables):
        assert np.array_equal(
            o_pads[table].hit_map.export_state(),
            s_pads[table].hit_map.export_state(),
        )


class TestRegistry:
    def test_builtins_registered(self):
        assert {"serial", "overlapped"} <= set(registered_executors())

    def test_names_sorted(self):
        names = registered_executors()
        assert list(names) == sorted(names)

    def test_unknown_executor_rejected(self):
        with pytest.raises(ExecutorConfigError, match="unknown executor"):
            make_executor("warp-drive")

    def test_duplicate_registration_rejected(self):
        class Impostor:
            pass

        with pytest.raises(ExecutorConfigError, match="already registered"):
            register_executor("serial")(Impostor)

    def test_pipeline_validates_executor_eagerly(self, cfg, dataset):
        with pytest.raises(ExecutorConfigError, match="warp-drive"):
            ScratchPipePipeline(
                config=cfg,
                scratchpads=make_scratchpads(cfg, required_slots(cfg)),
                dataset_batches=dataset,
                executor="warp-drive",
            )


class TestConfigKnobs:
    def test_worker_count_default_clamps_to_tables(self):
        assert _worker_count(1) == 1

    @pytest.mark.parametrize("cores, busy, count", [
        (2, 0, 2), (2, 1, 1), (1, 1, 1), (8, 1, 4), (None, 1, 1),
    ])
    def test_worker_count_default_leaves_busy_cores(self, monkeypatch,
                                                    cores, busy, count):
        import repro.core.executor as executor

        monkeypatch.delenv("REPRO_EXECUTOR_WORKERS", raising=False)
        monkeypatch.setattr(executor.os, "cpu_count", lambda: cores)
        assert _worker_count(8, busy_cores=busy) == count
        monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", "3")
        assert _worker_count(8, busy_cores=busy) == 3

    def test_worker_count_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", "2")
        assert _worker_count(8) == 2

    @pytest.mark.parametrize("raw", ["zero", "0", "-3"])
    def test_worker_count_env_validated(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", raw)
        with pytest.raises(ExecutorConfigError, match="REPRO_EXECUTOR_WORKERS"):
            _worker_count(8)

    @pytest.mark.parametrize("raw", ["soon", "0", "-1.5"])
    def test_timeout_env_validated(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_EXECUTOR_TIMEOUT_S", raw)
        with pytest.raises(
            ExecutorConfigError, match="REPRO_EXECUTOR_TIMEOUT_S"
        ):
            _liveness_timeout()

    def test_shards_contiguous_and_ordered(self):
        shards = _shard_tables(5, 3)
        assert shards == [(0, 1), (2, 3), (4,)]
        flat = [t for shard in shards for t in shard]
        assert flat == sorted(flat)

    def test_daemonic_parent_rejected(self, cfg, dataset, monkeypatch):
        class _Daemon:
            daemon = True

        monkeypatch.setattr(
            "repro.core.executor.multiprocessing.current_process",
            lambda: _Daemon(),
        )
        with pytest.raises(ExecutorUnavailableError, match="daemonic"):
            run_once(cfg, dataset, "overlapped")


class TestMetadataBitIdentity:
    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    def test_stats_violations_and_hitmap_identical(
        self, cfg, dataset, monkeypatch, workers
    ):
        serial = run_once(cfg, dataset, "serial")
        monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", workers)
        overlapped = run_once(cfg, dataset, "overlapped")
        assert_runs_identical(cfg, serial, overlapped)

    def test_partial_run_identical(self, cfg, dataset, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", "2")
        serial = run_once(cfg, dataset, "serial", num_batches=7)
        overlapped = run_once(cfg, dataset, "overlapped", num_batches=7)
        assert_runs_identical(cfg, serial, overlapped)

    def test_streaming_yields_same_sequence(self, cfg, dataset, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", "2")
        streams = []
        for executor in ("serial", "overlapped"):
            pads = make_scratchpads(cfg, required_slots(cfg))
            pipeline = ScratchPipePipeline(
                config=cfg, scratchpads=pads, dataset_batches=dataset,
                executor=executor,
            )
            streams.append(list(pipeline.stream()))
        assert streams[0] == streams[1]


class _CountingDataset:
    """Dataset wrapper counting the ``batch()`` calls made in this
    process (forked planners count into their own copies)."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __len__(self):
        return len(self.inner)

    def batch(self, index):
        self.calls += 1
        return self.inner.batch(index)


class TestSingleLoop:
    """Both executors drive the pipeline's one cycle loop; only the plan
    source differs."""

    def test_early_close_stops_planners(
        self, cfg, dataset, shm_leak_check, monkeypatch
    ):
        monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", "2")
        pipeline = ScratchPipePipeline(
            config=cfg,
            scratchpads=make_scratchpads(cfg, required_slots(cfg)),
            dataset_batches=dataset,
            monitor=HazardMonitor(strict=True),
            executor="overlapped",
        )
        stream = pipeline.stream()
        first = [next(stream) for _ in range(3)]
        assert multiprocessing.active_children()
        stream.close()
        assert multiprocessing.active_children() == []
        assert [s.batch_index for s in first] == [0, 1, 2]

    def test_metadata_parent_never_fetches_batches(
        self, cfg, dataset, monkeypatch
    ):
        monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", "2")
        stats = {}
        calls = {}
        for executor in ("serial", "overlapped"):
            counting = _CountingDataset(dataset)
            pipeline = ScratchPipePipeline(
                config=cfg,
                scratchpads=make_scratchpads(cfg, required_slots(cfg)),
                dataset_batches=counting,
                executor=executor,
            )
            stats[executor] = pipeline.run().cache_stats
            calls[executor] = counting.calls
        assert calls["serial"] == len(dataset)  # the wrapper does count
        assert calls["overlapped"] == 0
        assert stats["overlapped"] == stats["serial"]


class TestFunctionalBitIdentity:
    @pytest.mark.parametrize("locality", ["low", "medium"])
    def test_losses_tables_and_dense_identical(self, locality, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", "2")
        cfg = tiny_config(rows_per_table=400, batch_size=8,
                          lookups_per_table=3, num_tables=2)
        dataset = make_dataset(cfg, locality, seed=13, num_batches=18,
                               with_dense=True)
        runs = {}
        for executor in ("serial", "overlapped"):
            init = DLRMModel.initialise(cfg, seed=77)
            dense = DenseNetwork.initialise(cfg, np.random.default_rng(0))
            dense.copy_parameters_from(init.dense_network)
            run = ScratchPipeTrainingRun(
                config=cfg,
                cpu_tables=[t.weights.copy() for t in init.tables],
                dense_network=dense,
                num_slots=required_slots(cfg),
                optimizer=SGD(lr=0.01),
                monitor=HazardMonitor(strict=True),
                executor=executor,
            )
            result = run.run(dataset)
            runs[executor] = (result, run.final_tables(), dense)
        s_result, s_tables, s_dense = runs["serial"]
        o_result, o_tables, o_dense = runs["overlapped"]
        assert np.allclose(o_result.losses, s_result.losses, rtol=0, atol=0)
        assert o_result.cache_stats == s_result.cache_stats
        for table in range(cfg.num_tables):
            assert np.array_equal(o_tables[table], s_tables[table])
        for s_mlp, o_mlp in (
            (s_dense.bottom_mlp, o_dense.bottom_mlp),
            (s_dense.top_mlp, o_dense.top_mlp),
        ):
            for s_layer, o_layer in zip(s_mlp.layers, o_mlp.layers):
                assert np.array_equal(s_layer.weight, o_layer.weight)
                assert np.array_equal(s_layer.bias, o_layer.bias)


def sabotaged_run(executor, *, strict):
    """A run whose table-0 hold mask is wiped before every plan, forcing
    RAW hazards; returns (run(), monitor) or raises what ``run()`` raises.
    """
    cfg = tiny_config(rows_per_table=200, batch_size=4,
                      lookups_per_table=2, num_tables=1)
    dataset = make_dataset(cfg, "random", seed=3, num_batches=30)
    pads = make_scratchpads(cfg, 24, policy_name="random")
    monitor = HazardMonitor(strict=strict)
    pipeline = ScratchPipePipeline(
        config=cfg,
        scratchpads=pads,
        dataset_batches=dataset,
        future_window=2,
        monitor=monitor,
        executor=executor,
    )
    original_plan = pads[0].plan_batch

    def sabotaged_plan(batch_ids, future_ids=None, **kwargs):
        pads[0].hold_mask._release_at[:] = 0
        return original_plan(batch_ids, future_ids, **kwargs)

    pads[0].plan_batch = sabotaged_plan
    return pipeline, monitor


class TestHazardParity:
    def test_strict_hazard_message_identical(self, monkeypatch):
        messages = {}
        for executor in ("serial", "overlapped"):
            pipeline, monitor = sabotaged_run(executor, strict=True)
            with pytest.raises(HazardError) as excinfo:
                pipeline.run()
            messages[executor] = str(excinfo.value)
            assert monitor.violations[-1] == str(excinfo.value)
        assert messages["overlapped"] == messages["serial"]

    def test_nonstrict_violation_log_identical(self, monkeypatch):
        logs = {}
        for executor in ("serial", "overlapped"):
            pipeline, monitor = sabotaged_run(executor, strict=False)
            pipeline.run()
            logs[executor] = list(monitor.violations)
        assert logs["serial"]  # the sabotage actually fired
        assert logs["overlapped"] == logs["serial"]


class TestPlannerFaults:
    """Satellite 2: kill/stall/raise a planner mid-batch.  Every leg must
    end in recovery or a named repro.errors failure — never a hang, never
    a leaked /dev/shm segment (``shm_leak_check``)."""

    @pytest.fixture
    def fault_cfg(self):
        return tiny_config(rows_per_table=300, batch_size=6,
                           lookups_per_table=2, num_tables=2)

    @pytest.fixture
    def fault_dataset(self, fault_cfg):
        return make_dataset(fault_cfg, "medium", seed=11, num_batches=16)

    def test_killed_planner_surfaces_named_error(
        self, fault_cfg, fault_dataset, tmp_path, shm_leak_check, monkeypatch
    ):
        monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", "2")
        with injected_faults(
            FaultSpec(site="pipeline.executor", mode="kill", after=3),
            state_dir=str(tmp_path / "faults"),
        ):
            with pytest.raises(ExecutorWorkerError, match="died with exit"):
                run_once(fault_cfg, fault_dataset, "overlapped")

    def test_raising_planner_surfaces_injected_error(
        self, fault_cfg, fault_dataset, tmp_path, shm_leak_check, monkeypatch
    ):
        monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", "2")
        with injected_faults(
            FaultSpec(site="pipeline.executor", mode="raise", after=2),
            state_dir=str(tmp_path / "faults"),
        ):
            with pytest.raises(InjectedFaultError):
                run_once(fault_cfg, fault_dataset, "overlapped")

    def test_short_stall_recovers_bit_identical(
        self, fault_cfg, fault_dataset, tmp_path, shm_leak_check, monkeypatch
    ):
        serial = run_once(fault_cfg, fault_dataset, "serial")
        monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", "2")
        with injected_faults(
            FaultSpec(site="pipeline.executor", mode="stall", stall_s=0.2,
                      after=4),
            state_dir=str(tmp_path / "faults"),
        ):
            overlapped = run_once(fault_cfg, fault_dataset, "overlapped")
        assert_runs_identical(fault_cfg, serial, overlapped)

    def test_long_stall_trips_liveness_watchdog(
        self, fault_cfg, fault_dataset, tmp_path, shm_leak_check, monkeypatch
    ):
        monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", "2")
        monkeypatch.setenv("REPRO_EXECUTOR_TIMEOUT_S", "0.4")
        with injected_faults(
            FaultSpec(site="pipeline.executor", mode="stall", stall_s=30.0,
                      after=3),
            state_dir=str(tmp_path / "faults"),
        ):
            with pytest.raises(ExecutorWorkerError, match="hung"):
                run_once(fault_cfg, fault_dataset, "overlapped")

    def test_fault_free_plan_leaves_serial_unaffected(
        self, fault_cfg, fault_dataset, tmp_path
    ):
        # The executor site never fires on the serial path: the plan
        # targets planner workers, and serial has none.
        with injected_faults(
            FaultSpec(site="pipeline.executor", mode="raise"),
            state_dir=str(tmp_path / "faults"),
        ):
            result, _, _ = run_once(fault_cfg, fault_dataset, "serial")
        assert len(result.cache_stats) == 16
