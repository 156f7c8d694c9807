"""Tests for the straw-man sequential dynamic cache (repro.core.strawman)."""

import numpy as np
import pytest

from repro.core.scratchpad import make_scratchpads
from repro.core.strawman import StrawmanCache
from repro.data.trace import make_dataset
from repro.model.config import tiny_config


@pytest.fixture
def cfg():
    return tiny_config(rows_per_table=200, batch_size=6, lookups_per_table=2,
                       num_tables=2)


@pytest.fixture
def dataset(cfg):
    return make_dataset(cfg, "high", seed=9, num_batches=16)


class TestConstruction:
    def test_scratchpads_use_zero_past_window(self, cfg):
        """The straw-man system pins the hold window at 0, whatever the
        spec's scratchpad section says."""
        from repro.api import CacheSpec, ScratchpadSpec, SystemSpec
        from repro.hardware.spec import DEFAULT_HARDWARE
        from repro.systems.strawman_system import StrawmanSystem

        spec = SystemSpec(system="strawman", cache=CacheSpec(fraction=0.5),
                          scratchpad=ScratchpadSpec(past_window=5))
        system = StrawmanSystem(cfg, DEFAULT_HARDWARE, spec=spec)
        pads = system._make_cache().scratchpads
        assert all(p.past_window == 0 for p in pads)
        assert len(pads) == cfg.num_tables

    def test_table_count_validated(self, cfg):
        pads = make_scratchpads(cfg, 16, past_window=0)[:1]
        with pytest.raises(ValueError):
            StrawmanCache(config=cfg, scratchpads=pads)


class TestMetadataRun:
    def test_stats_shape(self, cfg, dataset):
        cache = StrawmanCache(
            config=cfg, scratchpads=make_scratchpads(cfg, 64, past_window=0)
        )
        stats = cache.run(dataset)
        assert len(stats) == 16
        assert all(s.hits + s.misses == s.unique_ids for s in stats)

    def test_high_locality_hits_accumulate(self, cfg, dataset):
        cache = StrawmanCache(
            config=cfg, scratchpads=make_scratchpads(cfg, 64, past_window=0)
        )
        stats = cache.run(dataset)
        assert np.mean([s.hit_rate for s in stats[8:]]) > 0.3

    def test_partial_run_validation(self, cfg, dataset):
        cache = StrawmanCache(
            config=cfg, scratchpads=make_scratchpads(cfg, 64, past_window=0)
        )
        with pytest.raises(ValueError):
            cache.run(dataset, num_batches=0)

    def test_small_cache_evicts_and_writes_back(self, cfg, dataset):
        # With a cache smaller than the working set, steady state must show
        # evictions (write-backs of dirty victims).
        cache = StrawmanCache(
            config=cfg, scratchpads=make_scratchpads(cfg, 14, past_window=0)
        )
        stats = cache.run(dataset)
        assert sum(s.writebacks for s in stats[4:]) > 0


class TestFunctionalRun:
    def test_value_preservation_without_training(self, cfg, dataset):
        rng = np.random.default_rng(1)
        cpu_tables = [
            rng.standard_normal((cfg.rows_per_table, cfg.embedding_dim)).astype(
                np.float32
            )
            for _ in range(cfg.num_tables)
        ]
        originals = [t.copy() for t in cpu_tables]
        cache = StrawmanCache(
            config=cfg,
            scratchpads=make_scratchpads(cfg, 14, with_storage=True, past_window=0),
            cpu_tables=cpu_tables,
        )
        cache.run(dataset)
        for t in range(cfg.num_tables):
            assert np.array_equal(cpu_tables[t], originals[t])
        for t, pad in enumerate(cache.scratchpads):
            keys = pad.hit_map.keys()
            slots = pad.hit_map.slots_of_keys(keys)
            assert np.array_equal(pad.storage[slots], originals[t][keys])
