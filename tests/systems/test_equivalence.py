"""Algorithmic-equivalence integration tests — the paper's central claim.

"ScratchPipe does not change the algorithmic properties of RecSys training
and provides identical training accuracy vs. the original training algorithm
executed over baseline hybrid CPU-GPU" (Section II-D / VI).  We verify the
strongest version of that claim: *bit-identical* final parameters after
training the same trace from the same initialisation through

* the sequential reference (tables in one memory space),
* the static-cache split-placement trainer, and
* the fully pipelined ScratchPipe with six batches in flight.
"""

import numpy as np
import pytest

from repro.core.pipeline import HazardMonitor
from repro.core.scratchpad import required_slots
from repro.data.trace import make_dataset
from repro.model.config import tiny_config
from repro.model.dlrm import DLRMModel, DenseNetwork
from repro.model.optimizer import SGD
from repro.systems.scratchpipe_system import ScratchPipeTrainingRun
from repro.systems.static_cache import StaticCacheTrainer

NUM_BATCHES = 18


def build_cfg(**overrides):
    defaults = dict(
        rows_per_table=400, batch_size=8, lookups_per_table=3, num_tables=2
    )
    defaults.update(overrides)
    return tiny_config(**defaults)


def train_reference(cfg, dataset, seed, lr=0.01):
    model = DLRMModel.initialise(cfg, seed=seed, optimizer=SGD(lr=lr))
    losses = [model.train_step(dataset.batch(i)) for i in range(len(dataset))]
    return model, losses


def cloned_dense(cfg, reference_model):
    dense = DenseNetwork.initialise(cfg, np.random.default_rng(0))
    ref_init = DLRMModel.initialise(cfg, seed=reference_model)
    dense.copy_parameters_from(ref_init.dense_network)
    return dense, [t.weights.copy() for t in ref_init.tables]


def dense_params_equal(a: DenseNetwork, b: DenseNetwork) -> bool:
    for mlp_a, mlp_b in (
        (a.bottom_mlp, b.bottom_mlp),
        (a.top_mlp, b.top_mlp),
    ):
        for la, lb in zip(mlp_a.layers, mlp_b.layers):
            if not np.array_equal(la.weight, lb.weight):
                return False
            if not np.array_equal(la.bias, lb.bias):
                return False
    return True


class TestScratchPipeEquivalence:
    @pytest.mark.parametrize("locality", ["random", "low", "high"])
    def test_bit_identical_tables_and_dense(self, locality):
        cfg = build_cfg()
        dataset = make_dataset(
            cfg, locality, seed=13, num_batches=NUM_BATCHES, with_dense=True
        )
        reference, ref_losses = train_reference(cfg, dataset, seed=77)

        dense, cpu_tables = cloned_dense(cfg, 77)
        run = ScratchPipeTrainingRun(
            config=cfg,
            cpu_tables=cpu_tables,
            dense_network=dense,
            num_slots=required_slots(cfg),
            optimizer=SGD(lr=0.01),
            monitor=HazardMonitor(strict=True),
        )
        result = run.run(dataset)

        final = run.final_tables()
        for t in range(cfg.num_tables):
            assert np.array_equal(final[t], reference.tables[t].weights)
        assert dense_params_equal(dense, reference.dense_network)
        assert np.allclose(result.losses, ref_losses, rtol=0, atol=0)

    def test_equivalence_with_small_cache(self):
        # Minimum hazard-free capacity: constant eviction traffic, still
        # bit-identical.
        cfg = build_cfg()
        dataset = make_dataset(
            cfg, "medium", seed=5, num_batches=NUM_BATCHES, with_dense=True
        )
        reference, _ = train_reference(cfg, dataset, seed=31)
        dense, cpu_tables = cloned_dense(cfg, 31)
        run = ScratchPipeTrainingRun(
            config=cfg,
            cpu_tables=cpu_tables,
            dense_network=dense,
            num_slots=required_slots(cfg, window_batches=6),
            optimizer=SGD(lr=0.01),
            monitor=HazardMonitor(strict=True),
        )
        run.run(dataset)
        final = run.final_tables()
        for t in range(cfg.num_tables):
            assert np.array_equal(final[t], reference.tables[t].weights)

    @pytest.mark.parametrize("policy", ["lru", "lfu", "random"])
    def test_equivalence_independent_of_policy(self, policy):
        # Section VI-E: the replacement policy affects performance, never
        # correctness.
        cfg = build_cfg()
        dataset = make_dataset(
            cfg, "medium", seed=3, num_batches=12, with_dense=True
        )
        reference, _ = train_reference(cfg, dataset, seed=8)
        dense, cpu_tables = cloned_dense(cfg, 8)
        run = ScratchPipeTrainingRun(
            config=cfg,
            cpu_tables=cpu_tables,
            dense_network=dense,
            num_slots=required_slots(cfg),
            optimizer=SGD(lr=0.01),
            policy_name=policy,
            monitor=HazardMonitor(strict=True),
        )
        run.run(dataset)
        final = run.final_tables()
        for t in range(cfg.num_tables):
            assert np.array_equal(final[t], reference.tables[t].weights)


class TestStaticCacheEquivalence:
    def test_bit_identical_after_merge(self):
        cfg = build_cfg()
        dataset = make_dataset(
            cfg, "high", seed=21, num_batches=NUM_BATCHES, with_dense=True
        )
        reference, ref_losses = train_reference(cfg, dataset, seed=55)
        dense, cpu_tables = cloned_dense(cfg, 55)
        trainer = StaticCacheTrainer(
            config=cfg,
            cpu_tables=cpu_tables,
            hot_rows=40,
            dense_network=dense,
            optimizer=SGD(lr=0.01),
        )
        losses = [trainer.train_batch(dataset.batch(i))
                  for i in range(NUM_BATCHES)]
        merged = trainer.merged_tables()
        for t in range(cfg.num_tables):
            assert np.array_equal(merged[t], reference.tables[t].weights)
        assert dense_params_equal(dense, reference.dense_network)
        assert np.allclose(losses, ref_losses, rtol=0, atol=0)
