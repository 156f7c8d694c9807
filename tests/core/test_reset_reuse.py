"""Reset-and-reuse paths: scratchpads (and their dense Hit-Maps) must be
reusable across runs with bit-identical results and zero re-allocation."""

import numpy as np
import pytest

from repro.core.hitmap import EMPTY, HitMap
from repro.core.holdmask import HoldMask
from repro.core.pipeline import HazardMonitor
from repro.api import build_system, uniform_system_spec
from repro.data.trace import MaterialisedDataset, make_dataset
from repro.hardware.spec import DEFAULT_HARDWARE
from repro.model.config import tiny_config


@pytest.fixture
def cfg():
    return tiny_config(
        rows_per_table=2_000, batch_size=8, lookups_per_table=4, num_tables=2
    )


def _stats_tuples(stats):
    return [
        (s.batch_index, s.unique_ids, s.hits, s.misses, s.writebacks,
         s.per_table_misses)
        for s in stats
    ]


class TestHitMapReset:
    def test_reset_empties_in_place(self):
        hitmap = HitMap(num_slots=8, num_rows=100)
        hitmap.assign_many(
            np.array([5, 17, 99], dtype=np.int64),
            np.array([0, 3, 7], dtype=np.int64),
        )
        slot_of_key = hitmap._slot_of_key
        key_of_slot = hitmap._key_of_slot
        hitmap.reset()
        # Same arrays, fully cleared.
        assert hitmap._slot_of_key is slot_of_key
        assert hitmap._key_of_slot is key_of_slot
        assert len(hitmap) == 0
        assert (slot_of_key == EMPTY).all()
        assert (key_of_slot == EMPTY).all()


class TestHoldMaskReset:
    def test_reset_clears_holds_and_clock(self):
        mask = HoldMask(num_slots=6, past_window=3)
        mask.hold(np.array([1, 4]))
        mask.advance()
        mask.reset()
        assert mask.held_count() == 0
        assert mask.clock == 0
        assert mask.eligible_mask().all()


class TestSystemReuse:
    @pytest.mark.parametrize("policy", ["lru", "lfu", "random"])
    def test_simulate_cache_reuse_is_bit_identical(self, cfg, policy):
        trace = MaterialisedDataset(
            make_dataset(cfg, "medium", seed=4, num_batches=16)
        )
        fresh = build_system(
            uniform_system_spec("scratchpipe", 0.1, policy=policy),
            cfg, DEFAULT_HARDWARE,
        )
        reference = _stats_tuples(fresh.simulate_cache(trace))

        reused = build_system(
            uniform_system_spec("scratchpipe", 0.1, policy=policy),
            cfg, DEFAULT_HARDWARE,
        )
        first = _stats_tuples(
            reused.simulate_cache(trace, monitor=HazardMonitor(strict=True))
        )
        second = _stats_tuples(
            reused.simulate_cache(trace, monitor=HazardMonitor(strict=True))
        )
        assert first == reference
        assert second == reference

    def test_reuse_allocates_hit_maps_once(self, cfg, monkeypatch):
        """One Hit-Map allocation per table per system, however many runs."""
        constructions = []
        original = HitMap.__post_init__

        def counting(self):
            constructions.append(self.num_rows)
            original(self)

        monkeypatch.setattr(HitMap, "__post_init__", counting)
        trace = MaterialisedDataset(
            make_dataset(cfg, "medium", seed=4, num_batches=12)
        )
        system = build_system(
            uniform_system_spec("scratchpipe", 0.1),
            cfg, DEFAULT_HARDWARE,
        )
        for _ in range(3):
            system.run_trace(trace)
        assert len(constructions) == cfg.num_tables

    def test_strawman_reuse_is_bit_identical(self, cfg):
        trace = MaterialisedDataset(
            make_dataset(cfg, "medium", seed=9, num_batches=12)
        )
        system = build_system(
            uniform_system_spec("strawman", 0.2),
            cfg, DEFAULT_HARDWARE,
        )
        first = system.run_trace(trace).iteration_times
        second = system.run_trace(trace).iteration_times
        assert first == second


class TestSweepSystemMemoisation:
    def test_run_point_reuses_one_system(self, cfg, monkeypatch):
        from repro.analysis import sweep
        from repro.analysis.experiments import ExperimentSetup

        sweep._cached_system.cache_clear()
        sweep._cached_trace.cache_clear()
        constructions = []
        original = HitMap.__post_init__

        def counting(self):
            constructions.append(self.num_rows)
            original(self)

        monkeypatch.setattr(HitMap, "__post_init__", counting)
        setup = ExperimentSetup(config=cfg, num_batches=10, seed=1)
        point = setup.point("scratchpipe", "medium", 0.1, 2)
        first = sweep.run_point(point)
        after_first = len(constructions)
        # Same (system, scale) again — same result, no new Hit-Maps.
        for locality in ("medium", "high", "medium"):
            sweep.run_point(setup.point("scratchpipe", locality, 0.1, 2))
        assert sweep.run_point(point) == first
        assert len(constructions) == after_first == cfg.num_tables
        sweep._cached_system.cache_clear()
        sweep._cached_trace.cache_clear()
