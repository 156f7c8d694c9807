"""Tests for the straw-man's metadata stream (repro.systems.strawman_system).

The straw-man streams ScratchPipe's pipeline with both windows at 0; these
tests pin that stream to what a plain sequential loop over the batches
computes.
"""

import numpy as np
import pytest

from repro.api import CacheSpec, ScratchpadSpec, SystemSpec
from repro.core.pipeline import BatchCacheStats
from repro.core.scratchpad import make_scratchpads
from repro.data.trace import make_dataset
from repro.hardware.spec import DEFAULT_HARDWARE
from repro.model.config import tiny_config
from repro.systems.strawman_system import StrawmanSystem


@pytest.fixture
def cfg():
    return tiny_config(rows_per_table=200, batch_size=6, lookups_per_table=2,
                       num_tables=2)


@pytest.fixture
def dataset(cfg):
    return make_dataset(cfg, "high", seed=9, num_batches=16)


def strawman(cfg, slots, **spec):
    """A straw-man of ``slots`` per table, built without the floor check."""
    spec = SystemSpec(system="strawman", cache=CacheSpec(slots=slots), **spec)
    return StrawmanSystem(cfg, DEFAULT_HARDWARE, spec=spec)


class TestConstruction:
    def test_scratchpads_use_zero_past_window(self, cfg):
        """The straw-man system pins the hold window at 0, whatever the
        spec's scratchpad section says."""
        system = strawman(cfg, 100,
                          scratchpad=ScratchpadSpec(past_window=5))
        pads = system._reusable_scratchpads()
        assert all(p.past_window == 0 for p in pads)
        assert len(pads) == cfg.num_tables


class TestMetadataRun:
    def test_stats_shape(self, cfg, dataset):
        stats = strawman(cfg, 64).simulate_cache(dataset)
        assert len(stats) == 16
        assert all(s.hits + s.misses == s.unique_ids for s in stats)

    def test_high_locality_hits_accumulate(self, cfg, dataset):
        stats = strawman(cfg, 64).simulate_cache(dataset)
        assert np.mean([s.hit_rate for s in stats[8:]]) > 0.3

    def test_partial_run_validation(self, cfg, dataset):
        with pytest.raises(ValueError):
            strawman(cfg, 64).simulate_cache(dataset, num_batches=0)

    def test_small_cache_evicts_and_writes_back(self, cfg, dataset):
        # With a cache smaller than the working set, steady state must show
        # evictions (write-backs of dirty victims).
        stats = strawman(cfg, 14).simulate_cache(dataset)
        assert sum(s.writebacks for s in stats[4:]) > 0


class TestMatchesSequentialLoop:
    @pytest.mark.parametrize("workers", ["1", "3"])
    def test_stream_equals_a_per_batch_plan_loop(self, monkeypatch, workers):
        """Each batch planned once, in order, with no future window: the
        sequential runtime the straw-man stands for."""
        monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", workers)
        cfg = tiny_config(rows_per_table=200, batch_size=6,
                          lookups_per_table=2, num_tables=3)
        dataset = make_dataset(cfg, "medium", seed=5, num_batches=20)
        pads = make_scratchpads(cfg, 14, past_window=0)
        expected = []
        for index in range(len(dataset)):
            batch = dataset.batch(index)
            plans = [
                pad.plan_batch(batch.unique_table_ids(table), None,
                               presorted_unique=True)
                for table, pad in enumerate(pads)
            ]
            expected.append(BatchCacheStats.from_plans(
                batch.index, cfg.lookups_per_batch, plans
            ))
        assert sum(s.writebacks for s in expected) > 0
        assert list(strawman(cfg, 14).stream_cache_stats(dataset)) == expected
