"""[Train] beside [Insert], [Collect] and [Plan] in each cycle.

A training stream runs each cycle's Train on a pool thread while the
calling thread runs the cycle's other stages, with OpenBLAS held at one
thread, whenever the windows rule out every hazard (past window >= 3,
future window >= 2) and no violation has been recorded.  Otherwise it
runs the sequential order.  Every result must equal the sequential
order's bit for bit, and the stream must leave no thread alive and the
BLAS thread count as it found it, however it ends.

The sequential reference is forced without changing any plan: a monitor
that already holds a (planted) violation keeps every cycle sequential.
"""

import copy
import multiprocessing
import threading

import numpy as np
import pytest

from repro.core import blas
from repro.core.pipeline import HazardError, HazardMonitor, ScratchPipePipeline
from repro.core.scratchpad import required_slots
from repro.data.trace import make_dataset
from repro.model.adagrad import AdagradOptimizer, augment_tables
from repro.model.config import tiny_config
from repro.model.dlrm import DLRMModel
from repro.model.optimizer import SGD
from repro.systems.scratchpipe_system import ScratchPipeTrainingRun
from repro.testing.faults import FaultSpec, InjectedFaultError, injected_faults
from test_executor import hit_map_contents

#: Whether this process can hold OpenBLAS at one thread; without it every
#: stream keeps the sequential order.
OVERLAPS = blas.thread_count() is not None
POOL_THREAD = "repro-stage" if OVERLAPS else "MainThread"
NUM_BATCHES = 18


@pytest.fixture
def cfg():
    return tiny_config(rows_per_table=400, batch_size=8, lookups_per_table=3,
                       num_tables=3)


@pytest.fixture
def dataset(cfg):
    return make_dataset(cfg, "medium", seed=13, num_batches=NUM_BATCHES,
                        with_dense=True)


def sequential_monitor(strict=True):
    """A monitor holding a planted violation: the stream never overlaps."""
    return HazardMonitor(strict=strict, violations=["planted"])


class ThreadSpy:
    """Wraps a trainer; records the thread (pool prefix or name) each
    batch trained on."""

    def __init__(self, trainer, fail_at=None):
        self.trainer = trainer
        self.fail_at = fail_at
        self.threads = []

    def train(self, batch, plans, scratchpads):
        self.threads.append(threading.current_thread().name.partition("_")[0])
        if batch.index == self.fail_at:
            raise ZeroDivisionError(f"trainer failed on batch {batch.index}")
        return self.trainer.train(batch, plans, scratchpads)


def training_run(cfg, optimizer="sgd", *, monitor=None, past_window=3,
                 future_window=2, num_slots=None, policy="lru", fail_at=None,
                 seed=77, lr=0.01):
    init = DLRMModel.initialise(cfg, seed=seed)
    tables = [t.weights.copy() for t in init.tables]
    if optimizer == "adagrad":
        tables = augment_tables(tables)
        row_optimizer = AdagradOptimizer(lr=0.05, state_dtype=np.float32)
    else:
        row_optimizer = SGD(lr=lr)
    run = ScratchPipeTrainingRun(
        config=cfg,
        cpu_tables=tables,
        dense_network=copy.deepcopy(init.dense_network),
        num_slots=required_slots(cfg) if num_slots is None else num_slots,
        optimizer=row_optimizer,
        policy_name=policy,
        future_window=future_window,
        monitor=monitor,
        past_window=past_window,
    )
    run.trainer = ThreadSpy(run.trainer, fail_at=fail_at)
    return run


def pipeline_of(run, dataset):
    return ScratchPipePipeline(
        config=run.config, scratchpads=run.scratchpads,
        dataset_batches=dataset, cpu_tables=run.cpu_tables,
        trainer=run.trainer, future_window=run.future_window,
        monitor=run.monitor,
    )


def outcome(run, result):
    """Everything a run leaves behind, in exactly comparable form."""
    return (
        [loss.hex() for loss in result.losses],
        [table.tobytes() for table in run.final_tables()],
        [pad.storage.tobytes() for pad in run.scratchpads],
        hit_map_contents(run.scratchpads),
    )


def repro_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("repro-")]


def plant_shrunk_hold_masks(run):
    """The hold masks keep no past batch, but the scratchpads claim the
    paper's window: the overlap rule sees no reason to stay sequential."""
    for pad in run.scratchpads:
        pad.past_window = 3


class TestBitIdentity:
    @pytest.mark.parametrize("optimizer", ["sgd", "adagrad"])
    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    def test_overlap_matches_sequential(self, cfg, dataset, monkeypatch,
                                        optimizer, workers):
        monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", workers)
        overlapped = training_run(cfg, optimizer,
                                  monitor=HazardMonitor(strict=True))
        sequential = training_run(cfg, optimizer, monitor=sequential_monitor())
        result = overlapped.run(dataset)
        reference = sequential.run(dataset)
        assert overlapped.trainer.threads == [POOL_THREAD] * NUM_BATCHES
        assert sequential.trainer.threads == ["MainThread"] * NUM_BATCHES
        assert result.cache_stats == reference.cache_stats
        assert outcome(overlapped, result) == outcome(sequential, reference)

    def test_losses_do_not_depend_on_blas_threads(self):
        # Wide enough batches that OpenBLAS splits the MLP GEMMs.
        cfg = tiny_config(rows_per_table=2000, batch_size=256,
                          lookups_per_table=4, num_tables=2)
        data = make_dataset(cfg, "medium", seed=5, num_batches=6,
                            with_dense=True)

        def losses():
            model = DLRMModel.initialise(cfg, seed=3, optimizer=SGD(lr=0.02))
            return [model.train_step(data.batch(i)).hex() for i in range(6)]

        default = losses()
        if not blas.hold_single_thread():
            pytest.skip("no OpenBLAS thread-count setter in this process")
        try:
            assert blas.thread_count() == 1
            single = losses()
        finally:
            blas.release()
        assert single == default
        pipelined = training_run(cfg, monitor=HazardMonitor(strict=True),
                                 seed=3, lr=0.02)
        result = pipelined.run(data)
        assert pipelined.trainer.threads == [POOL_THREAD] * 6
        assert [loss.hex() for loss in result.losses] == default


class TestFallback:
    @pytest.mark.parametrize("windows", [{"past_window": 2},
                                         {"future_window": 1}])
    def test_short_windows_stay_sequential(self, cfg, dataset, windows):
        before = blas.thread_count()
        run = training_run(cfg, monitor=HazardMonitor(strict=False), **windows)
        pipeline = pipeline_of(run, dataset)
        stream = pipeline.stream()
        next(stream)
        # Nothing overlaps, so BLAS is left alone.
        assert blas.thread_count() == before
        list(stream)
        assert run.trainer.threads == ["MainThread"] * NUM_BATCHES

    def test_violation_switches_to_sequential(self, cfg):
        data = make_dataset(cfg, "random", seed=3, num_batches=40,
                            with_dense=True)

        def run_with(monitor):
            run = training_run(cfg, monitor=monitor, past_window=0,
                               num_slots=200, policy="random")
            plant_shrunk_hold_masks(run)
            return run, run.run(data)

        monitor = HazardMonitor(strict=False)
        overlapped, result = run_with(monitor)
        reference_monitor = sequential_monitor(strict=False)
        sequential, reference = run_with(reference_monitor)
        assert monitor.violations  # the planted windows really let hazards in
        assert monitor.violations == reference_monitor.violations[1:]
        threads = overlapped.trainer.threads
        assert "MainThread" in threads
        if OVERLAPS:
            # Overlapped until the first violation, sequential from then on.
            switch = threads.index("MainThread")
            assert switch > 0
            assert threads == [POOL_THREAD] * switch + ["MainThread"] * (
                len(threads) - switch)
        assert outcome(overlapped, result) == outcome(sequential, reference)

    def test_strict_hazard_message_matches_sequential(self, cfg):
        data = make_dataset(cfg, "random", seed=3, num_batches=40,
                            with_dense=True)

        def failure(monitor):
            run = training_run(cfg, monitor=monitor, past_window=0,
                               num_slots=200, policy="random")
            plant_shrunk_hold_masks(run)
            losses = []
            with pytest.raises(HazardError) as excinfo:
                list(pipeline_of(run, data).stream(losses=losses))
            return str(excinfo.value), [loss.hex() for loss in losses], run

        message, losses, run = failure(HazardMonitor(strict=True))
        assert (message, losses) == failure(sequential_monitor())[:2]
        assert losses  # the hazard fired mid-run, after some batches trained
        assert set(run.trainer.threads) == {POOL_THREAD}
        assert repro_threads() == []


class TestStreamLifetime:
    def test_exhausted_stream_restores_blas(self, cfg, dataset):
        before = blas.thread_count()
        run = training_run(cfg, monitor=HazardMonitor(strict=True))
        stream = pipeline_of(run, dataset).stream()
        next(stream)
        assert blas.thread_count() == (1 if OVERLAPS else None)
        list(stream)
        assert blas.thread_count() == before
        assert repro_threads() == []

    def test_closed_stream_restores_blas(self, cfg, dataset):
        before = blas.thread_count()
        run = training_run(cfg, monitor=HazardMonitor(strict=True))
        stream = pipeline_of(run, dataset).stream()
        for _ in range(3):
            next(stream)
        stream.close()
        assert blas.thread_count() == before
        assert repro_threads() == []

    def test_failing_train_thread_restores_blas(self, cfg, dataset):
        before = blas.thread_count()
        run = training_run(cfg, monitor=HazardMonitor(strict=True), fail_at=7)
        losses = []
        with pytest.raises(ZeroDivisionError, match="batch 7"):
            list(pipeline_of(run, dataset).stream(losses=losses))
        assert len(losses) == 7
        assert run.trainer.threads == [POOL_THREAD] * 8
        assert blas.thread_count() == before
        assert repro_threads() == []

    def test_interleaved_streams_restore_once(self, cfg, dataset):
        before = blas.thread_count()
        first = pipeline_of(training_run(cfg), dataset).stream()
        second = pipeline_of(training_run(cfg), dataset).stream()
        next(first)
        next(second)
        first.close()
        assert blas.thread_count() == (1 if OVERLAPS else None)
        second.close()
        assert blas.thread_count() == before
        assert repro_threads() == []


@pytest.mark.parametrize("stage", ["collect", "insert", "train", "plan"])
def test_fault_point_mid_run(cfg, dataset, tmp_path, stage):
    before = blas.thread_count()
    run = training_run(cfg, monitor=HazardMonitor(strict=True))
    losses = []
    with injected_faults(
        FaultSpec(site="pipeline.stage", mode="raise", match=f"{stage}:9"),
        state_dir=str(tmp_path / "faults"),
    ):
        with pytest.raises(InjectedFaultError, match=f"{stage}:9"):
            list(pipeline_of(run, dataset).stream(losses=losses))
    assert losses  # the fault came mid-run
    assert repro_threads() == []
    assert multiprocessing.active_children() == []
    assert blas.thread_count() == before
