"""Executor tests: the executor names, serial vs overlapped
bit-identity (the determinism contract), re-streaming one pipeline, and
a fault raised at an overlapped Plan — it must surface as the named
error with no stage thread left behind."""

import threading

import numpy as np
import pytest

from repro.api import InvalidSystemSpecError, PipelineSpec
from repro.core.executor import EXECUTORS, _shard_tables, _worker_count
from repro.core.pipeline import HazardError, HazardMonitor, ScratchPipePipeline
from repro.core.scratchpad import make_scratchpads, required_slots
from repro.data.trace import make_dataset
from repro.errors import ExecutorConfigError
from repro.model.config import tiny_config
from repro.model.dlrm import DLRMModel, DenseNetwork
from repro.model.optimizer import SGD
from repro.systems.scratchpipe_system import ScratchPipeTrainingRun
from repro.testing.faults import (
    FaultSpec,
    InjectedFaultError,
    injected_faults,
    injection_count,
)


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


def hit_map_contents(pads):
    """Each table's cached keys, in slot order, with their slots."""
    contents = []
    for pad in pads:
        keys = pad.hit_map.keys()
        contents.append((keys.tolist(), pad.hit_map.slots_of_keys(keys).tolist()))
    return contents


def assert_runs_identical(cfg, serial, overlapped):
    s_result, s_monitor, s_pads = serial
    o_result, o_monitor, o_pads = overlapped
    assert o_result.cache_stats == s_result.cache_stats
    assert o_result.losses == s_result.losses
    assert o_monitor.violations == s_monitor.violations
    assert hit_map_contents(o_pads) == hit_map_contents(s_pads)


def repro_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("repro-")]


class TestRegistry:
    """The executor names every pipeline, spec and setup checks against."""

    def test_builtins_registered(self):
        assert set(EXECUTORS) == {"serial", "overlapped"}

    def test_names_sorted(self):
        assert list(EXECUTORS) == sorted(EXECUTORS)

    def test_unknown_executor_rejected(self):
        with pytest.raises(InvalidSystemSpecError,
                           match="unknown executor 'warp-drive'"):
            PipelineSpec(executor="warp-drive")

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

    def test_shards_contiguous_and_ordered(self):
        shards = _shard_tables(5, 3)
        assert shards == [(0, 1), (2, 3), (4,)]
        flat = [t for shard in shards for t in shard]
        assert flat == sorted(flat)


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


class TestSingleLoop:
    """Both executors drive the pipeline's one cycle loop in the calling
    process; only when Plan runs differs."""

    def test_early_close_leaves_no_stage_thread(self, cfg, dataset,
                                                monkeypatch):
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
        assert repro_threads()
        stream.close()
        assert repro_threads() == []
        assert [s.batch_index for s in first] == [0, 1, 2]

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    def test_restream_without_reset_matches_serial(self, cfg, dataset,
                                                   monkeypatch, workers):
        # Streaming one pipeline twice carries every table's Plan state
        # (Hit-Map, hold mask, replacement stamps) into the second pass,
        # which therefore checks that the stream kept all of it.
        monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", workers)
        runs = {}
        for executor in ("serial", "overlapped"):
            pads = make_scratchpads(cfg, required_slots(cfg))
            pipeline = ScratchPipePipeline(
                config=cfg, scratchpads=pads, dataset_batches=dataset,
                executor=executor,
            )
            passes, violations = [], []
            for _ in range(2):
                # Each pass gets its own monitor; a shared one is
                # test_one_monitor_watches_every_pass's business.
                pipeline.monitor = HazardMonitor(strict=False)
                passes.append(list(pipeline.stream()))
                violations.append(pipeline.monitor.violations)
            runs[executor] = (passes, violations, hit_map_contents(pads))
        assert runs["overlapped"] == runs["serial"]
        passes = runs["serial"][0]
        assert passes[1] != passes[0]  # the second pass starts warm

    def test_one_monitor_watches_every_pass(self, cfg, dataset):
        # A later stream's monitor cycles carry on from the earlier one's,
        # so one non-strict monitor sees each pass as a fresh one would.
        # Past window 1 gives the monitor hazards to count.
        def passes(shared):
            pipeline = ScratchPipePipeline(
                config=cfg,
                scratchpads=make_scratchpads(cfg, 48, policy_name="random",
                                             past_window=1),
                dataset_batches=dataset,
            )
            monitor = HazardMonitor(strict=False)
            stats, counts = [], []
            for _ in range(2):
                if not shared:
                    monitor = HazardMonitor(strict=False)
                pipeline.monitor = monitor
                seen = len(monitor.violations)
                stats.append(list(pipeline.stream(10)))
                counts.append(len(monitor.violations) - seen)
            return stats, counts

        fresh = passes(False)
        assert fresh[1][0] > 0
        assert passes(True) == fresh

    def test_stream_after_an_early_close_keeps_the_monitor(self, cfg,
                                                           dataset):
        pipeline = ScratchPipePipeline(
            config=cfg,
            scratchpads=make_scratchpads(cfg, required_slots(cfg)),
            dataset_batches=dataset,
            monitor=HazardMonitor(strict=True),
        )
        stream = pipeline.stream()
        [next(stream) for _ in range(3)]
        stream.close()
        assert len(list(pipeline.stream(10))) == 10
        assert pipeline.monitor.violations == []


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
    """A fault raised at an overlapped Plan surfaces as the injected error
    and leaves no stage thread behind; a stalled stage changes no
    result."""

    @pytest.fixture
    def fault_cfg(self):
        return tiny_config(rows_per_table=300, batch_size=6,
                           lookups_per_table=2, num_tables=2)

    @pytest.fixture
    def fault_dataset(self, fault_cfg):
        return make_dataset(fault_cfg, "medium", seed=11, num_batches=16)

    def test_raising_planner_surfaces_injected_error(
        self, fault_cfg, fault_dataset, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", "2")
        with injected_faults(
            FaultSpec(site="pipeline.stage", mode="raise", match="plan:4"),
            state_dir=str(tmp_path / "faults"),
        ):
            with pytest.raises(InjectedFaultError, match="plan:4"):
                run_once(fault_cfg, fault_dataset, "overlapped")
        assert repro_threads() == []

    def test_short_stall_recovers_bit_identical(
        self, fault_cfg, fault_dataset, tmp_path, monkeypatch
    ):
        serial = run_once(fault_cfg, fault_dataset, "serial")
        monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", "2")
        with injected_faults(
            FaultSpec(site="pipeline.stage", mode="stall", stall_s=0.2,
                      match="insert:4"),
            state_dir=str(tmp_path / "faults"),
        ):
            overlapped = run_once(fault_cfg, fault_dataset, "overlapped")
        assert_runs_identical(fault_cfg, serial, overlapped)
        assert injection_count(str(tmp_path / "faults")) == 1
