"""Tests for Adagrad state co-location: row-wise Adagrad through
:class:`repro.systems.scratchpipe_system.ScratchPipeTrainingRun`, with each
row's accumulator in the last column of its augmented table."""

import numpy as np
import pytest

from repro.api import CacheSpec, PipelineSpec, ScratchpadSpec, SystemSpec
from repro.core.pipeline import HazardMonitor
from repro.core.replacement import CachePressureError
from repro.core.scratchpad import required_slots
from repro.data.trace import make_dataset
from repro.model.adagrad import AdagradOptimizer, augment_tables, split_tables
from repro.model.config import tiny_config
from repro.model.dlrm import DLRMModel, DenseNetwork
from repro.systems.scratchpipe_system import (
    ScratchPipeTrainer,
    ScratchPipeTrainingRun,
)

NUM_BATCHES = 16


@pytest.fixture
def cfg():
    return tiny_config(rows_per_table=300, batch_size=8, lookups_per_table=3,
                       num_tables=2)


def adagrad_run(cfg, init, num_slots, lr, monitor=None):
    """A pipelined row-wise Adagrad run from ``init``'s weights."""
    return ScratchPipeTrainingRun(
        config=cfg,
        cpu_tables=augment_tables([t.weights for t in init.tables]),
        dense_network=init.dense_network,
        num_slots=num_slots,
        optimizer=AdagradOptimizer(lr=lr, state_dtype=np.float32),
        monitor=monitor,
    )


def adagrad_spec(fraction, **sections):
    return SystemSpec(system="scratchpipe", cache=CacheSpec(fraction=fraction),
                      **sections)


class TestAugmentation:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        tables = [rng.standard_normal((10, 4)).astype(np.float32)]
        augmented = augment_tables(tables)
        assert augmented[0].shape == (10, 5)
        assert np.allclose(augmented[0][:, 4], 0.0)
        weights, accumulators = split_tables(augmented)
        assert np.array_equal(weights[0], tables[0])
        assert accumulators[0].shape == (10,)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            augment_tables([np.zeros(5, dtype=np.float32)])


class TestTrainerValidation:
    def test_positive_lr(self, cfg):
        dense = DenseNetwork.initialise(cfg, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ScratchPipeTrainer(config=cfg, dense_network=dense,
                               optimizer=AdagradOptimizer(lr=0.0))

    def test_rows_without_accumulator_rejected(self):
        """Row-wise Adagrad on plain (un-augmented) rows fails by name."""
        from repro.errors import ModelShapeError

        optimizer = AdagradOptimizer(state_dtype=np.float32)
        rows = np.ones((3, 4), dtype=np.float32)
        with pytest.raises(ModelShapeError, match="augment_tables"):
            optimizer.update_rows(rows, np.ones((3, 4), dtype=np.float32))


class TestTrainerPlanInvariant:
    def test_mismatched_plan_raises(self):
        """Twin of the SGD trainer's check: a plan covering IDs the batch
        never looks up fails by name, before any row is written."""
        from repro.core.scratchpad import GpuScratchpad
        from repro.data.trace import MiniBatch
        from repro.errors import PlanMismatchError

        cfg = tiny_config(rows_per_table=50, batch_size=2,
                          lookups_per_table=2, num_tables=1)
        pad = GpuScratchpad(num_slots=32, num_rows=cfg.rows_per_table,
                            dim=cfg.embedding_dim + 1, with_storage=True)
        plan = pad.plan_batch(np.array([1, 2, 3, 4]))
        pad.storage[:] = 1.0
        batch = MiniBatch(
            index=0,
            sparse_ids=np.array([[[1, 2], [1, 2]]], dtype=np.int64),
            dense=np.zeros((2, cfg.num_dense_features), dtype=np.float32),
            labels=np.zeros(2, dtype=np.float32),
        )
        trainer = ScratchPipeTrainer(
            config=cfg,
            dense_network=DenseNetwork.initialise(
                cfg, np.random.default_rng(0)
            ),
            optimizer=AdagradOptimizer(state_dtype=np.float32),
        )
        with pytest.raises(PlanMismatchError,
                           match="plan/batch mismatch for table 0"):
            trainer.train(batch, [plan], [pad])
        assert np.all(pad.storage == 1.0)
        assert trainer.losses == []


class TestFromSpec:
    def _run(self, cfg, spec):
        init = DLRMModel.initialise(cfg, seed=3)
        return ScratchPipeTrainingRun.from_spec(
            spec, cfg,
            augment_tables([t.weights for t in init.tables]),
            init.dense_network,
            optimizer=AdagradOptimizer(lr=0.05, state_dtype=np.float32),
        )

    def test_honours_past_window(self, cfg):
        run = self._run(cfg, adagrad_spec(
            0.5, scratchpad=ScratchpadSpec(past_window=5)
        ))
        assert [pad.past_window for pad in run.scratchpads] == [5, 5]

    def test_carries_executor(self, cfg):
        spec = adagrad_spec(0.5, pipeline=PipelineSpec(executor="overlapped"))
        run = self._run(cfg, spec)
        assert run.executor == spec.pipeline.executor

    def test_storage_carries_accumulator_column(self, cfg):
        run = self._run(cfg, adagrad_spec(0.5))
        assert all(pad.storage.shape[1] == cfg.embedding_dim + 1
                   for pad in run.scratchpads)

    def test_undersized_cache_names_table(self, cfg):
        dataset = make_dataset(cfg, "random", seed=5, num_batches=NUM_BATCHES,
                               with_dense=True)
        run = self._run(cfg, adagrad_spec(0.04))
        with pytest.raises(CachePressureError, match=r"table 0, plan cycle"):
            run.run(dataset)


class TestEquivalence:
    def _reference(self, cfg, dataset, seed, lr):
        model = DLRMModel.initialise(
            cfg, seed=seed,
            optimizer=AdagradOptimizer(lr=lr, state_dtype=np.float32),
        )
        losses = [model.train_step(dataset.batch(i))
                  for i in range(NUM_BATCHES)]
        return model, losses

    def test_bit_identical_weights_and_state(self, cfg):
        """Pipelined Adagrad with migrating accumulators reproduces the
        sequential reference exactly — weights AND optimiser state."""
        dataset = make_dataset(cfg, "medium", seed=19, num_batches=NUM_BATCHES,
                               with_dense=True)
        reference, ref_losses = self._reference(cfg, dataset, seed=33, lr=0.05)

        init = DLRMModel.initialise(cfg, seed=33)
        run = adagrad_run(cfg, init, required_slots(cfg), lr=0.05,
                          monitor=HazardMonitor(strict=True))
        result = run.run(dataset)
        weights, accumulators = split_tables(run.final_tables())

        for t in range(cfg.num_tables):
            assert np.array_equal(weights[t], reference.tables[t].weights)
            ref_state = reference.optimizer._sparse[
                id(reference.tables[t])
            ].accumulator(np.arange(cfg.rows_per_table))
            assert np.array_equal(accumulators[t], ref_state)
        assert np.allclose(result.losses, ref_losses, rtol=0, atol=0)

    def test_state_survives_eviction(self, cfg):
        """Accumulators round-trip through CPU memory on eviction: a tight
        cache (constant evictions) still matches the reference exactly."""
        dataset = make_dataset(cfg, "low", seed=23, num_batches=NUM_BATCHES,
                               with_dense=True)
        reference, _ = self._reference(cfg, dataset, seed=44, lr=0.05)

        init = DLRMModel.initialise(cfg, seed=44)
        run = adagrad_run(cfg, init, required_slots(cfg, window_batches=6),
                          lr=0.05, monitor=HazardMonitor(strict=True))
        run.run(dataset)
        # Evictions must actually have happened for this test to bite.
        weights, accumulators = split_tables(run.final_tables())
        for t in range(cfg.num_tables):
            assert np.array_equal(weights[t], reference.tables[t].weights)
            # Rows trained then evicted keep nonzero accumulators on CPU.
            assert (accumulators[t] > 0).any()

    def test_accumulators_grow_only_for_trained_rows(self, cfg):
        dataset = make_dataset(cfg, "high", seed=29, num_batches=8,
                               with_dense=True)
        init = DLRMModel.initialise(cfg, seed=1)
        run = adagrad_run(cfg, init, required_slots(cfg), lr=0.05)
        run.run(dataset)
        _, accumulators = split_tables(run.final_tables())
        touched = np.unique(np.concatenate([
            dataset.batch(i).table_ids(0) for i in range(8)
        ]))
        untouched = np.setdiff1d(np.arange(cfg.rows_per_table), touched)
        assert np.allclose(accumulators[0][untouched], 0.0)
        assert (accumulators[0][touched] > 0).all()
