"""Tests for the 6-stage pipeline executor (repro.core.pipeline)."""

import numpy as np
import pytest

from repro.core.pipeline import (
    BatchCacheStats,
    HazardMonitor,
    ScratchPipePipeline,
    STAGES,
)
from repro.core.scratchpad import required_slots
from repro.data.trace import make_dataset
from repro.model.config import tiny_config
from repro.core.scratchpad import make_scratchpads


@pytest.fixture
def cfg():
    return tiny_config(rows_per_table=300, batch_size=6, lookups_per_table=2,
                       num_tables=2)


@pytest.fixture
def dataset(cfg):
    return make_dataset(cfg, "medium", seed=5, num_batches=12)


def build_pipeline(cfg, dataset, **kwargs):
    slots = kwargs.pop("num_slots", required_slots(cfg))
    pads = make_scratchpads(cfg, slots, with_storage=kwargs.pop("with_storage", False))
    cpu_tables = kwargs.pop("cpu_tables", None)
    return ScratchPipePipeline(
        config=cfg,
        scratchpads=pads,
        dataset_batches=dataset,
        cpu_tables=cpu_tables,
        **kwargs,
    )


class TestConstruction:
    def test_scratchpad_count_validated(self, cfg, dataset):
        pads = make_scratchpads(cfg, 16)[:1]
        with pytest.raises(ValueError, match="one scratchpad per table"):
            ScratchPipePipeline(config=cfg, scratchpads=pads,
                                dataset_batches=dataset)

    def test_cpu_table_count_validated(self, cfg, dataset):
        pads = make_scratchpads(cfg, 16)
        with pytest.raises(ValueError, match="one array per table"):
            ScratchPipePipeline(
                config=cfg, scratchpads=pads, dataset_batches=dataset,
                cpu_tables=[np.zeros((10, 4), np.float32)],
            )

    def test_negative_future_window_rejected(self, cfg, dataset):
        with pytest.raises(ValueError):
            build_pipeline(cfg, dataset, future_window=-1)

    def test_stage_names(self):
        assert STAGES == ("load", "plan", "collect", "exchange", "insert", "train")


class TestMetadataRun:
    def test_stats_per_batch_in_order(self, cfg, dataset):
        result = build_pipeline(cfg, dataset).run()
        assert [s.batch_index for s in result.cache_stats] == list(range(12))

    def test_first_batch_all_miss(self, cfg, dataset):
        result = build_pipeline(cfg, dataset).run()
        first = result.cache_stats[0]
        assert first.hits == 0
        assert first.misses == first.unique_ids

    def test_hit_rate_improves_after_warmup(self, cfg, dataset):
        result = build_pipeline(cfg, dataset).run()
        warm = result.cache_stats[6:]
        assert np.mean([s.hit_rate for s in warm]) > 0.0

    def test_lookup_totals(self, cfg, dataset):
        result = build_pipeline(cfg, dataset).run()
        for stats in result.cache_stats:
            assert stats.total_lookups == cfg.lookups_per_batch
            assert stats.unique_ids <= stats.total_lookups
            assert stats.hits + stats.misses == stats.unique_ids
            assert len(stats.per_table_misses) == cfg.num_tables
            assert sum(stats.per_table_misses) == stats.misses

    def test_partial_run(self, cfg, dataset):
        result = build_pipeline(cfg, dataset).run(num_batches=5)
        assert len(result.cache_stats) == 5

    def test_invalid_num_batches(self, cfg, dataset):
        pipeline = build_pipeline(cfg, dataset)
        with pytest.raises(ValueError):
            pipeline.run(num_batches=0)
        with pytest.raises(ValueError):
            pipeline.run(num_batches=99)

    def test_no_losses_without_trainer(self, cfg, dataset):
        result = build_pipeline(cfg, dataset).run()
        assert result.losses == []

    def test_writebacks_zero_with_ample_capacity(self, cfg, dataset):
        # A scratchpad big enough to never displace has zero write-backs.
        pipeline = build_pipeline(cfg, dataset, num_slots=cfg.rows_per_table)
        result = pipeline.run()
        assert all(s.writebacks == 0 for s in result.cache_stats)

    def test_monitor_clean_with_default_windows(self, cfg, dataset):
        monitor = HazardMonitor(strict=True)
        build_pipeline(cfg, dataset, monitor=monitor).run()
        assert monitor.violations == []


class TestFunctionalDataMovement:
    def test_rows_migrate_cpu_to_storage(self, cfg, dataset):
        rng = np.random.default_rng(0)
        cpu_tables = [
            rng.standard_normal((cfg.rows_per_table, cfg.embedding_dim)).astype(
                np.float32
            )
            for _ in range(cfg.num_tables)
        ]
        originals = [t.copy() for t in cpu_tables]
        pipeline = build_pipeline(
            cfg, dataset, with_storage=True, cpu_tables=cpu_tables
        )
        pipeline.run()
        # Without training, no value may change anywhere: fills copy rows in,
        # evictions copy identical values back.
        for t in range(cfg.num_tables):
            assert np.array_equal(cpu_tables[t], originals[t])
        # But the scratchpads must now cache real rows.
        for t, pad in enumerate(pipeline.scratchpads):
            keys = pad.hit_map.keys()
            assert keys.size > 0
            slots = pad.hit_map.slots_of_keys(keys)
            assert np.array_equal(pad.storage[slots], originals[t][keys])


class TestBatchCacheStats:
    def test_hit_rate_empty(self):
        stats = BatchCacheStats(
            batch_index=0, total_lookups=0, unique_ids=0, hits=0, misses=0,
            writebacks=0, per_table_misses=(),
        )
        assert stats.hit_rate == 1.0

    def test_hit_rate_fraction(self):
        stats = BatchCacheStats(
            batch_index=0, total_lookups=10, unique_ids=4, hits=3, misses=1,
            writebacks=0, per_table_misses=(1,),
        )
        assert stats.hit_rate == pytest.approx(0.75)
