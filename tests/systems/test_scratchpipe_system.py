"""Tests for the ScratchPipe system (repro.systems.scratchpipe_system)."""

import numpy as np
import pytest

from repro.api import build_system, uniform_system_spec
from repro.data.trace import make_dataset
from repro.hardware.spec import DEFAULT_HARDWARE
from repro.model.config import ModelConfig, tiny_config
from repro.core.scratchpad import make_scratchpads
from repro.core.pipeline import PRICED_STAGE_OFFSETS


@pytest.fixture
def cfg():
    return tiny_config(rows_per_table=300, batch_size=6, lookups_per_table=2,
                       num_tables=2)


class TestConstruction:
    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            build_system(
                uniform_system_spec("scratchpipe", 0.0),
                ModelConfig(), DEFAULT_HARDWARE,
            )

    def test_make_scratchpads(self, cfg):
        pads = make_scratchpads(cfg, 16)
        assert len(pads) == cfg.num_tables
        assert all(p.past_window == 3 for p in pads)
        assert [p.table_index for p in pads] == [0, 1]

    def test_make_scratchpads_per_table_width(self, cfg):
        pads = make_scratchpads(cfg, 16, with_storage=True, dim=(4, 5))
        assert [p.storage.shape for p in pads] == [(16, 4), (16, 5)]

    def test_training_run_honours_spec_windows(self, cfg):
        """``from_spec`` builds the spec's hold window, not the default."""
        from repro.api import CacheSpec, PipelineSpec, ScratchpadSpec, SystemSpec
        from repro.model.dlrm import DLRMModel
        from repro.systems.scratchpipe_system import ScratchPipeTrainingRun

        spec = SystemSpec(
            system="scratchpipe", cache=CacheSpec(fraction=0.5),
            scratchpad=ScratchpadSpec(past_window=5),
            pipeline=PipelineSpec(future_window=1),
        )
        init = DLRMModel.initialise(cfg, seed=0)
        run = ScratchPipeTrainingRun.from_spec(
            spec, cfg, [t.weights.copy() for t in init.tables],
            init.dense_network,
        )
        assert [p.past_window for p in run.scratchpads] == [5, 5]
        assert run.future_window == 1


class TestTiming:
    def test_stage_means_cover_pipeline(self, cfg):
        system = build_system(
            uniform_system_spec("scratchpipe", 0.2),
            cfg, DEFAULT_HARDWARE,
        )
        dataset = make_dataset(cfg, "medium", seed=1, num_batches=16)
        result = system.run_trace(dataset)
        means = result.stage_means(warmup=8)
        assert set(means) == set(PRICED_STAGE_OFFSETS)

    def test_pipelined_iteration_below_stage_sum(self):
        # The whole point of pipelining: the iteration time approaches the
        # slowest stage, not the sum of all stages.  (Needs full-scale stage
        # latencies — at toy scale the per-cycle sync overhead dominates.)
        config = ModelConfig()
        system = build_system(
            uniform_system_spec("scratchpipe", 0.02),
            config, DEFAULT_HARDWARE,
        )
        dataset = make_dataset(config, "medium", seed=1, num_batches=12)
        result = system.run_trace(dataset)
        stage_sum = result.breakdowns[-1].total
        assert result.mean_latency(warmup=8) < 0.6 * stage_sum

    def test_faster_than_strawman(self):
        config = ModelConfig()
        dataset = make_dataset(config, "medium", seed=1, num_batches=12)
        from repro.data.trace import MaterialisedDataset

        trace = MaterialisedDataset(dataset)
        pipelined = build_system(
            uniform_system_spec("scratchpipe", 0.02),
            config, DEFAULT_HARDWARE,
        )
        sequential = build_system(
            uniform_system_spec("strawman", 0.02),
            config, DEFAULT_HARDWARE,
        )
        assert (
            pipelined.run_trace(trace).mean_latency(8)
            < sequential.run_trace(trace).mean_latency(8)
        )

    def test_full_scale_latency_in_paper_range(self):
        # Table I: ScratchPipe iteration times are 26-48 ms across the four
        # locality classes at 2% cache.
        config = ModelConfig()
        for locality, bounds in {
            "random": (0.030, 0.060),
            "high": (0.012, 0.035),
        }.items():
            dataset = make_dataset(config, locality, seed=1, num_batches=14)
            system = build_system(
                uniform_system_spec("scratchpipe", 0.02),
                config, DEFAULT_HARDWARE,
            )
            latency = system.run_trace(dataset).mean_latency(8)
            assert bounds[0] < latency < bounds[1], (locality, latency)

    def test_energy_positive(self, cfg):
        system = build_system(
            uniform_system_spec("scratchpipe", 0.2),
            cfg, DEFAULT_HARDWARE,
        )
        dataset = make_dataset(cfg, "medium", seed=1, num_batches=12)
        result = system.run_trace(dataset)
        assert result.mean_energy(warmup=8) > 0


class TestCacheSimulation:
    def test_simulate_cache_returns_stats(self, cfg):
        system = build_system(
            uniform_system_spec("scratchpipe", 0.2),
            cfg, DEFAULT_HARDWARE,
        )
        dataset = make_dataset(cfg, "high", seed=1, num_batches=12)
        stats = system.simulate_cache(dataset)
        assert len(stats) == 12
        # Dynamic cache warms up: later batches hit.
        assert np.mean([s.hit_rate for s in stats[6:]]) > 0.2

    def test_policy_affects_behaviour(self, cfg):
        dataset = make_dataset(cfg, "high", seed=1, num_batches=12)
        lru = build_system(
            uniform_system_spec("scratchpipe", 0.3, policy="lru"),
            cfg, DEFAULT_HARDWARE,
        )
        rnd = build_system(
            uniform_system_spec("scratchpipe", 0.3, policy="random"),
            cfg, DEFAULT_HARDWARE,
        )
        lru_stats = lru.simulate_cache(dataset)
        rnd_stats = rnd.simulate_cache(dataset)
        # Both valid runs; totals conserved.
        for stats in (lru_stats, rnd_stats):
            assert all(s.hits + s.misses == s.unique_ids for s in stats)


class TestTrainerPlanInvariant:
    def test_mismatched_plan_raises(self):
        """Training a batch against another batch's plan must fail loudly
        (the gradient scatter would otherwise hit the wrong Storage rows)."""
        from repro.model.dlrm import DenseNetwork
        from repro.systems.scratchpipe_system import ScratchPipeTrainer

        cfg = tiny_config(rows_per_table=50, batch_size=2,
                          lookups_per_table=2, num_tables=1)
        pad = make_scratchpads(cfg, num_slots=32, with_storage=True)[0]
        # Plan covers IDs {1, 2, 3, 4}; the trained batch gathers only
        # {1, 2}, so every gather resolves but the coalesced gradient IDs
        # differ from the plan's unique_ids.
        plan = pad.plan_batch(np.array([1, 2, 3, 4]))
        from repro.data.trace import MiniBatch

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
        )
        with pytest.raises(AssertionError, match="plan/batch mismatch"):
            trainer.train(batch, [plan], [pad])

    def test_matching_plan_trains(self):
        from repro.model.dlrm import DenseNetwork
        from repro.data.trace import MiniBatch
        from repro.systems.scratchpipe_system import ScratchPipeTrainer

        cfg = tiny_config(rows_per_table=50, batch_size=2,
                          lookups_per_table=2, num_tables=1)
        pad = make_scratchpads(cfg, num_slots=32, with_storage=True)[0]
        sparse_ids = np.array([[[1, 2], [3, 4]]], dtype=np.int64)
        plan = pad.plan_batch(sparse_ids[0].reshape(-1))
        batch = MiniBatch(
            index=0,
            sparse_ids=sparse_ids,
            dense=np.zeros((2, cfg.num_dense_features), dtype=np.float32),
            labels=np.zeros(2, dtype=np.float32),
        )
        trainer = ScratchPipeTrainer(
            config=cfg,
            dense_network=DenseNetwork.initialise(
                cfg, np.random.default_rng(0)
            ),
        )
        loss = trainer.train(batch, [plan], [pad])
        assert np.isfinite(loss)
