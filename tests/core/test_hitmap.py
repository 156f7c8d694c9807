"""Tests for the Hit-Map (repro.core.hitmap)."""

import numpy as np
import pytest

from repro.core.hitmap import EMPTY, HitMap
from repro.core.scratchpad import GpuScratchpad
from repro.errors import HitMapConfigError


@pytest.fixture
def hitmap():
    return HitMap(num_slots=4, num_rows=100)


class TestConstruction:
    def test_starts_empty(self, hitmap):
        assert len(hitmap) == 0
        assert hitmap.occupancy() == 0.0
        assert hitmap.free_slot_mask().all()

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            HitMap(num_slots=0, num_rows=10)
        with pytest.raises(ValueError):
            HitMap(num_slots=4, num_rows=0)

    def test_id_universe_beyond_int32_rejected(self):
        # Refused before the dense index (8 GB at this size) is allocated.
        with pytest.raises(HitMapConfigError, match="int32"):
            HitMap(num_slots=4, num_rows=2**31)


class TestQuery:
    def test_miss_on_empty(self, hitmap):
        slots, hits = hitmap.query(np.array([1, 2, 3]))
        assert not hits.any()
        assert (slots == EMPTY).all()

    def test_negative_key_rejected(self, hitmap):
        # Regression: negative keys used to wrap-index the dense map and
        # silently return the slot cached for the *end* of the ID universe.
        with pytest.raises(ValueError, match="out of range"):
            hitmap.query(np.array([1, -3]))

    def test_too_large_key_rejected(self, hitmap):
        with pytest.raises(ValueError, match="out of range"):
            hitmap.query(np.array([0, 100]))

    def test_presorted_fast_path_checks_bounds(self, hitmap):
        lookups = (
            lambda keys: hitmap.query(keys, presorted_unique=True),
            hitmap.slots_raw,
        )
        for lookup in lookups:
            with pytest.raises(HitMapConfigError, match="out of range"):
                lookup(np.array([-1, 5]))
            with pytest.raises(HitMapConfigError, match="out of range"):
                lookup(np.array([5, 100]))

    def test_presorted_fast_path_matches_slow_path(self, hitmap):
        hitmap.assign(42, 2)
        keys = np.array([7, 42, 99], dtype=np.int64)
        slow = hitmap.query(keys)
        fast = hitmap.query(keys, presorted_unique=True)
        assert np.array_equal(slow[0], fast[0])
        assert np.array_equal(slow[1], fast[1])

    def test_slots_raw_result_is_owned_by_the_caller(self, monkeypatch):
        # A later assignment must not rewrite an earlier lookup's result.
        # The lookup is the Plan stage's own: a future-window set handed
        # to plan_batch in the per-batch sorted-unique shape.
        pad = GpuScratchpad(num_slots=64, num_rows=1000)
        hitmap = pad.hit_map
        looked_up = []
        slots_raw = hitmap.slots_raw

        def recording_slots_raw(*args, **kwargs):
            looked_up.append(slots_raw(*args, **kwargs))
            return looked_up[-1]

        monkeypatch.setattr(hitmap, "slots_raw", recording_slots_raw)
        keys = np.arange(0, 400, 10, dtype=np.int64)
        plan = pad.plan_batch(
            np.array([999], dtype=np.int64), [keys], presorted_unique=True
        )
        assert len(looked_up) == 1 and looked_up[0].size == keys.size
        assert (looked_up[0] == EMPTY).all()
        assert 5 not in plan.fill_slots.tolist()
        hitmap.assign_many(keys[7:8], np.array([5]))
        assert hitmap.slot_of(int(keys[7])) == 5
        assert (looked_up[0] == EMPTY).all()

    def test_empty_query_ok(self, hitmap):
        slots, hits = hitmap.query(np.empty(0, dtype=np.int64))
        assert slots.size == 0 and hits.size == 0

    def test_hit_after_assign(self, hitmap):
        hitmap.assign(42, 2)
        slots, hits = hitmap.query(np.array([42, 43]))
        assert hits.tolist() == [True, False]
        assert slots[0] == 2

    def test_scalar_lookups(self, hitmap):
        hitmap.assign(7, 1)
        assert 7 in hitmap
        assert 8 not in hitmap
        assert hitmap.slot_of(7) == 1
        assert hitmap.slot_of(8) is None
        assert hitmap.key_of(1) == 7
        assert hitmap.key_of(0) == EMPTY


class TestAssign:
    def test_vacant_slot_returns_empty(self, hitmap):
        assert hitmap.assign(5, 0) == EMPTY
        assert len(hitmap) == 1

    def test_displacement(self, hitmap):
        hitmap.assign(5, 0)
        displaced = hitmap.assign(9, 0)
        assert displaced == 5
        assert 5 not in hitmap
        assert hitmap.slot_of(9) == 0
        assert len(hitmap) == 1

    def test_reassigning_cached_key_rejected(self, hitmap):
        hitmap.assign(5, 0)
        with pytest.raises(ValueError, match="already cached"):
            hitmap.assign(5, 1)

    def test_out_of_range_slot_rejected(self, hitmap):
        with pytest.raises(ValueError):
            hitmap.assign(5, 4)
        with pytest.raises(ValueError):
            hitmap.assign(5, -1)

    def test_assign_many_vectorised(self, hitmap):
        keys = np.array([10, 20, 30])
        slots = np.array([0, 1, 2])
        displaced = hitmap.assign_many(keys, slots)
        assert (displaced == EMPTY).all()
        got, hits = hitmap.query(keys)
        assert hits.all()
        assert np.array_equal(got, slots)

    def test_assign_many_displaces(self, hitmap):
        hitmap.assign_many(np.array([1, 2]), np.array([0, 1]))
        displaced = hitmap.assign_many(np.array([3, 4]), np.array([1, 0]))
        assert displaced.tolist() == [2, 1]
        assert len(hitmap) == 2

    def test_assign_many_empty_noop(self, hitmap):
        out = hitmap.assign_many(np.empty(0, np.int64), np.empty(0, np.int64))
        assert out.size == 0

    def test_length_mismatch_rejected(self, hitmap):
        with pytest.raises(ValueError, match="mismatch"):
            hitmap.assign_many(np.array([1]), np.array([0, 1]))


class TestBookkeeping:
    def test_occupancy(self, hitmap):
        hitmap.assign_many(np.array([1, 2]), np.array([0, 3]))
        assert hitmap.occupancy() == pytest.approx(0.5)

    def test_free_slot_mask(self, hitmap):
        hitmap.assign_many(np.array([1, 2]), np.array([0, 3]))
        assert hitmap.free_slot_mask().tolist() == [False, True, True, False]

    def test_keys(self, hitmap):
        hitmap.assign_many(np.array([10, 30]), np.array([2, 0]))
        assert sorted(hitmap.keys().tolist()) == [10, 30]

    def test_slots_of_keys(self, hitmap):
        hitmap.assign_many(np.array([10, 30]), np.array([2, 0]))
        assert hitmap.slots_of_keys(np.array([30, 10])).tolist() == [0, 2]

    def test_slots_of_keys_raises_on_miss(self, hitmap):
        hitmap.assign(10, 2)
        with pytest.raises(KeyError):
            hitmap.slots_of_keys(np.array([10, 11]))

    def test_size_stable_under_displacement_cycles(self, hitmap):
        for i in range(20):
            hitmap.assign(99 - i, i % 4)
        assert len(hitmap) == 4
        assert hitmap.occupancy() == 1.0
