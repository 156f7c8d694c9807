"""Tests for the GPU scratchpad and Plan-stage logic (repro.core.scratchpad)."""

import numpy as np
import pytest

from repro.core.hitmap import EMPTY
from repro.core.replacement import CachePressureError
from repro.core.scratchpad import (
    GpuScratchpad,
    required_slots,
    worst_case_storage_bytes,
)
from repro.errors import PlanCoverageError
from repro.model.config import ModelConfig, tiny_config


def make_pad(num_slots=8, num_rows=100, past_window=3, **kwargs):
    return GpuScratchpad(
        num_slots=num_slots, num_rows=num_rows, past_window=past_window, **kwargs
    )


class TestPlanBatch:
    def test_cold_start_all_miss(self):
        pad = make_pad()
        plan = pad.plan_batch(np.array([3, 1, 4, 1]))
        assert plan.num_unique == 3
        assert plan.num_hits == 0
        assert plan.num_misses == 3
        assert plan.num_writebacks == 0
        assert np.array_equal(plan.unique_ids, [1, 3, 4])

    def test_second_batch_hits(self):
        pad = make_pad()
        pad.plan_batch(np.array([1, 2]))
        plan = pad.plan_batch(np.array([1, 5]))
        assert plan.num_hits == 1
        assert plan.num_misses == 1

    def test_every_unique_id_gets_slot(self):
        pad = make_pad()
        plan = pad.plan_batch(np.array([7, 7, 9, 2]))
        assert (plan.slots != EMPTY).all()
        assert len(set(plan.slots.tolist())) == plan.num_unique

    def test_hit_slot_stable_across_batches(self):
        pad = make_pad()
        first = pad.plan_batch(np.array([5]))
        second = pad.plan_batch(np.array([5]))
        assert first.slots[0] == second.slots[0]

    def test_eviction_after_window_expiry(self):
        pad = make_pad(num_slots=2, past_window=1)
        pad.plan_batch(np.array([1, 2]))  # fills both slots
        pad.plan_batch(np.array([1]))     # holds only id 1
        pad.plan_batch(np.array([1]))     # id 2's hold expired
        plan = pad.plan_batch(np.array([9]))  # must evict id 2
        assert plan.num_misses == 1
        assert plan.evicted_ids.tolist() == [2]

    def test_writeback_only_for_displaced(self):
        pad = make_pad(num_slots=4)
        plan = pad.plan_batch(np.array([1, 2]))
        assert plan.num_writebacks == 0  # vacant slots, nothing displaced

    def test_cache_pressure_raises(self):
        pad = make_pad(num_slots=2)
        with pytest.raises(CachePressureError):
            pad.plan_batch(np.array([1, 2, 3]))

    def test_future_ids_protected(self):
        pad = make_pad(num_slots=2, past_window=0)
        pad.plan_batch(np.array([1, 2]))
        pad.plan_batch(np.array([1]))  # id 2 not held by past window
        # Without future protection id 2 would be evictable; with id 2 in
        # the future window it must not be chosen.
        with pytest.raises(CachePressureError):
            pad.plan_batch(np.array([9]), future_ids=np.array([1, 2]))

    def test_future_ids_not_cached_are_ignored(self):
        pad = make_pad(num_slots=4, past_window=0)
        plan = pad.plan_batch(np.array([1]), future_ids=np.array([50, 60]))
        assert plan.num_misses == 1  # future misses impose no constraints

    def test_hitmap_updated_eagerly(self):
        # The delayed-update discipline: Hit-Map changes at Plan even though
        # Storage is untouched until Insert.
        pad = make_pad(with_storage=True, dim=2)
        pad.plan_batch(np.array([3]))
        assert 3 in pad.hit_map
        assert np.allclose(pad.storage, 0.0)  # storage still vacant


class TestTablePlanSlotsFor:
    """``slots_for`` and the ``positions_for`` it indexes ``slots`` by."""

    def test_maps_repeated_ids(self):
        pad = make_pad()
        plan = pad.plan_batch(np.array([4, 2, 4]))
        ids = np.array([[4, 4], [2, 2]])
        slots = plan.slots_for(ids)
        assert slots.shape == (2, 2)
        assert slots[0, 0] == slots[0, 1]
        assert slots[0, 0] != slots[1, 0]
        positions = plan.positions_for(ids)
        assert positions.shape == (2, 2)
        assert positions[0, 0] == positions[0, 1]
        assert positions[0, 0] != positions[1, 0]
        assert np.array_equal(plan.unique_ids[positions], ids)
        assert np.array_equal(plan.slots[positions], slots)

    def test_locate_matches_a_search_per_lookup(self):
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 40, size=(6, 4)).astype(np.int32)
        plan = make_pad(num_slots=64).plan_batch(ids)
        positions, distinct = plan.locate(ids)
        assert np.array_equal(positions, np.searchsorted(plan.unique_ids, ids))
        assert distinct == plan.num_unique
        assert plan.locate(ids[:2])[1] == np.unique(ids[:2]).size

    def test_uncovered_id_raises(self):
        pad = make_pad()
        plan = pad.plan_batch(np.array([4, 2]))
        for lookup in (plan.slots_for, plan.positions_for):
            with pytest.raises(PlanCoverageError):
                lookup(np.array([3]))

    def test_id_beyond_plan_range_raises(self):
        pad = make_pad()
        plan = pad.plan_batch(np.array([4, 2]))
        for lookup in (plan.slots_for, plan.positions_for):
            with pytest.raises(PlanCoverageError):
                lookup(np.array([99]))


class TestStorage:
    def test_metadata_only_rejects_storage_access(self):
        pad = make_pad()
        with pytest.raises(RuntimeError, match="metadata-only"):
            pad.read_slots(np.array([0]))

    def test_storage_requires_dim(self):
        with pytest.raises(ValueError, match="dim"):
            GpuScratchpad(num_slots=2, num_rows=10, with_storage=True)

    def test_read_write_roundtrip(self):
        pad = make_pad(with_storage=True, dim=3)
        values = np.arange(6, dtype=np.float32).reshape(2, 3)
        pad.write_slots(np.array([1, 4]), values)
        assert np.array_equal(pad.read_slots(np.array([4, 1])), values[::-1])

    def test_occupancy_tracks_hitmap(self):
        pad = make_pad(num_slots=4)
        pad.plan_batch(np.array([1, 2]))
        assert pad.occupancy() == pytest.approx(0.5)


class TestSizing:
    def test_required_slots_formula(self):
        cfg = tiny_config(rows_per_table=10_000, batch_size=4,
                          lookups_per_table=3)
        assert required_slots(cfg, window_batches=6) == 4 * 3 * 6

    def test_required_slots_capped_by_table(self):
        cfg = tiny_config(rows_per_table=10, batch_size=4, lookups_per_table=3)
        assert required_slots(cfg) == 10

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            required_slots(tiny_config(), window_batches=0)

    def test_paper_960mb_bound(self):
        # Section VI-D: (8 tables x 20 gathers x 2048 batch x 128 dim x 4 B)
        # x 6 batches = 960 MB.
        bound = worst_case_storage_bytes(ModelConfig(), window_batches=6)
        assert bound == 8 * 20 * 2048 * 128 * 4 * 6
        assert bound / 1e6 == pytest.approx(1006.6, rel=0.01)  # ~960 MiB
