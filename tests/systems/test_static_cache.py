"""Tests for the static-cache system (repro.systems.static_cache)."""

import numpy as np
import pytest

from repro.api import build_system, uniform_system_spec
from repro.data.trace import make_dataset
from repro.hardware.spec import DEFAULT_HARDWARE
from repro.model.config import ModelConfig, tiny_config
from repro.model.dlrm import DenseNetwork
from repro.model.optimizer import SGD
from repro.systems.static_cache import (
    SplitStats,
    StaticCacheTrainer,
    split_batch,
)


@pytest.fixture
def cfg():
    return tiny_config(rows_per_table=100, batch_size=6, lookups_per_table=2,
                       num_tables=2)


class TestSplitBatch:
    def test_split_partitions_lookups(self, cfg):
        batch = make_dataset(cfg, "high", seed=1, num_batches=1).batch(0)
        split = split_batch(batch, hot_rows=10)
        assert split.total_lookups == cfg.lookups_per_batch
        assert split.hit_lookups + split.miss_lookups == split.total_lookups

    def test_all_hot_when_cache_covers_table(self, cfg):
        batch = make_dataset(cfg, "medium", seed=1, num_batches=1).batch(0)
        split = split_batch(batch, hot_rows=cfg.rows_per_table)
        assert split.miss_lookups == 0
        assert split.hit_rate == 1.0

    def test_all_cold_when_cache_empty(self, cfg):
        batch = make_dataset(cfg, "medium", seed=1, num_batches=1).batch(0)
        split = split_batch(batch, hot_rows=0)
        assert split.hit_lookups == 0

    def test_high_locality_hits_more(self, cfg):
        high = make_dataset(cfg, "high", seed=2, num_batches=1).batch(0)
        low = make_dataset(cfg, "low", seed=2, num_batches=1).batch(0)
        hot = 5
        assert (
            split_batch(high, hot).hit_rate > split_batch(low, hot).hit_rate
        )

    def test_empty_split_hit_rate(self):
        split = SplitStats(hit_lookups=0, miss_lookups=0, hit_unique=0,
                           miss_unique=0)
        assert split.hit_rate == 1.0


class TestStaticCacheSystem:
    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            build_system(
                uniform_system_spec("static_cache", 0.0),
                ModelConfig(), DEFAULT_HARDWARE,
            )
        with pytest.raises(ValueError):
            build_system(
                uniform_system_spec("static_cache", 1.5),
                ModelConfig(), DEFAULT_HARDWARE,
            )

    def test_larger_cache_faster_on_locality(self):
        cfg = ModelConfig()
        big = build_system(
            uniform_system_spec("static_cache", 0.10),
            cfg, DEFAULT_HARDWARE,
        )
        small = build_system(
            uniform_system_spec("static_cache", 0.02),
            cfg, DEFAULT_HARDWARE,
        )
        lookups = cfg.lookups_per_batch
        # High-locality split for the two cache sizes.
        split_small = SplitStats(
            hit_lookups=int(lookups * 0.8), miss_lookups=int(lookups * 0.2),
            hit_unique=1000, miss_unique=int(lookups * 0.2),
        )
        split_big = SplitStats(
            hit_lookups=int(lookups * 0.9), miss_lookups=int(lookups * 0.1),
            hit_unique=1000, miss_unique=int(lookups * 0.1),
        )
        assert (
            big.iteration_breakdown(split_big).total
            < small.iteration_breakdown(split_small).total
        )

    def test_run_trace_faster_on_high_locality(self, cfg):
        system = build_system(
            uniform_system_spec("static_cache", 0.10),
            cfg, DEFAULT_HARDWARE,
        )
        high = make_dataset(cfg, "high", seed=3, num_batches=6)
        low = make_dataset(cfg, "low", seed=3, num_batches=6)
        assert (
            system.run_trace(high).mean_latency(0)
            < system.run_trace(low).mean_latency(0)
        )

    def test_miss_path_runs_on_cpu(self):
        cfg = ModelConfig()
        system = build_system(
            uniform_system_spec("static_cache", 0.02),
            cfg, DEFAULT_HARDWARE,
        )
        lookups = cfg.lookups_per_batch
        all_miss = SplitStats(0, lookups, 0, lookups)
        all_hit = SplitStats(lookups, 0, lookups // 4, 0)
        assert (
            system.iteration_breakdown(all_miss).total
            > 3 * system.iteration_breakdown(all_hit).total
        )


class TestStaticCacheTrainer:
    def test_hot_rows_validated(self, cfg):
        rng = np.random.default_rng(0)
        tables = [
            rng.standard_normal((cfg.rows_per_table, cfg.embedding_dim)).astype(
                np.float32
            )
            for _ in range(cfg.num_tables)
        ]
        dense = DenseNetwork.initialise(cfg, rng)
        with pytest.raises(ValueError):
            StaticCacheTrainer(
                config=cfg, cpu_tables=tables, hot_rows=-1, dense_network=dense
            )

    def test_updates_split_by_placement(self, cfg):
        rng = np.random.default_rng(0)
        tables = [
            rng.standard_normal((cfg.rows_per_table, cfg.embedding_dim)).astype(
                np.float32
            )
            for _ in range(cfg.num_tables)
        ]
        originals = [t.copy() for t in tables]
        dense = DenseNetwork.initialise(cfg, rng)
        trainer = StaticCacheTrainer(
            config=cfg, cpu_tables=tables, hot_rows=20, dense_network=dense,
            optimizer=SGD(lr=0.1),
        )
        dataset = make_dataset(cfg, "high", seed=4, num_batches=3,
                               with_dense=True)
        for i in range(3):
            loss = trainer.train_batch(dataset.batch(i))
            assert np.isfinite(loss)
        # CPU copies of hot rows must be untouched (stale); training went to
        # the GPU cache.
        for t in range(cfg.num_tables):
            assert np.array_equal(tables[t][:20], originals[t][:20])
        merged = trainer.merged_tables()
        touched_hot = any(
            not np.array_equal(merged[t][:20], originals[t][:20])
            for t in range(cfg.num_tables)
        )
        assert touched_hot
