"""Edge-case tests for the pipeline executor (fill/drain, short traces,
window boundary conditions)."""

import numpy as np
import pytest

from repro.core.pipeline import HazardMonitor, ScratchPipePipeline
from repro.core.scratchpad import required_slots
from repro.data.trace import make_dataset
from repro.model.config import tiny_config
from repro.core.scratchpad import make_scratchpads


@pytest.fixture
def cfg():
    return tiny_config(rows_per_table=300, batch_size=4, lookups_per_table=2,
                       num_tables=2)


class TestShortTraces:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_trace_shorter_than_pipeline_depth(self, cfg, n):
        """Traces shorter than the 6-stage depth never reach steady state
        but must still complete every batch exactly once."""
        dataset = make_dataset(cfg, "medium", seed=1, num_batches=n)
        pipeline = ScratchPipePipeline(
            config=cfg,
            scratchpads=make_scratchpads(cfg, required_slots(cfg)),
            dataset_batches=dataset,
            monitor=HazardMonitor(strict=True),
        )
        result = pipeline.run()
        assert [s.batch_index for s in result.cache_stats] == list(range(n))

    def test_single_batch_all_miss(self, cfg):
        dataset = make_dataset(cfg, "medium", seed=1, num_batches=1)
        pipeline = ScratchPipePipeline(
            config=cfg,
            scratchpads=make_scratchpads(cfg, 64),
            dataset_batches=dataset,
        )
        result = pipeline.run()
        stats = result.cache_stats[0]
        assert stats.hits == 0
        assert stats.misses == stats.unique_ids


class TestFutureWindowBoundaries:
    def test_future_window_truncates_at_trace_end(self, cfg):
        """The last batches have no future batches to protect; the pipeline
        must not peek past the trace."""
        dataset = make_dataset(cfg, "medium", seed=2, num_batches=4)
        pipeline = ScratchPipePipeline(
            config=cfg,
            scratchpads=make_scratchpads(cfg, required_slots(cfg)),
            dataset_batches=dataset,
            future_window=3,
            monitor=HazardMonitor(strict=True),
        )
        result = pipeline.run()
        assert len(result.cache_stats) == 4

    def test_zero_future_window_runs(self, cfg):
        """future_window=0 is legal (it only weakens RAW-4 protection, which
        an ample cache may never expose)."""
        dataset = make_dataset(cfg, "medium", seed=2, num_batches=8)
        pipeline = ScratchPipePipeline(
            config=cfg,
            scratchpads=make_scratchpads(cfg, cfg.rows_per_table),
            dataset_batches=dataset,
            future_window=0,
            monitor=HazardMonitor(strict=True),
        )
        result = pipeline.run()
        # With the cache covering the whole table there are no evictions,
        # hence no RAW-4 opportunities even without the future window.
        assert all(s.writebacks == 0 for s in result.cache_stats)

    def test_large_future_window(self, cfg):
        dataset = make_dataset(cfg, "medium", seed=2, num_batches=6)
        pipeline = ScratchPipePipeline(
            config=cfg,
            scratchpads=make_scratchpads(
                cfg, required_slots(cfg, window_batches=10)
            ),
            dataset_batches=dataset,
            future_window=5,
            monitor=HazardMonitor(strict=True),
        )
        result = pipeline.run()
        assert len(result.cache_stats) == 6


class TestDeterminism:
    def test_two_identical_runs_agree(self, cfg):
        dataset = make_dataset(cfg, "high", seed=7, num_batches=10)

        def run():
            pipeline = ScratchPipePipeline(
                config=cfg,
                scratchpads=make_scratchpads(cfg, required_slots(cfg)),
                dataset_batches=dataset,
            )
            return pipeline.run()

        a, b = run(), run()
        for sa, sb in zip(a.cache_stats, b.cache_stats):
            assert sa == sb

    def test_partial_equals_prefix_of_full(self, cfg):
        dataset = make_dataset(cfg, "high", seed=7, num_batches=10)

        def run(n):
            pipeline = ScratchPipePipeline(
                config=cfg,
                scratchpads=make_scratchpads(cfg, required_slots(cfg)),
                dataset_batches=dataset,
            )
            return pipeline.run(num_batches=n)

        full = run(10)
        partial = run(6)
        for sa, sb in zip(partial.cache_stats, full.cache_stats[:6]):
            # The cache decisions of a prefix depend only on the prefix
            # (plus its bounded future window), so early batches agree.
            assert sa.batch_index == sb.batch_index
            assert sa.unique_ids == sb.unique_ids
