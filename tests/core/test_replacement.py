"""Tests for replacement policies (repro.core.replacement)."""

import numpy as np
import pytest

from repro.core.holdmask import HoldMask
from repro.core.replacement import (
    CachePressureError,
    LfuPolicy,
    LruPolicy,
    RandomPolicy,
    make_policy,
)


def all_eligible(n):
    return np.ones(n, dtype=bool)


def select(policy, eligible, count):
    """``select_eligible`` over an eligibility mask: nothing is held, and
    the ineligible slots go in as the transient exclusions."""
    policy.bind_hold_mask(HoldMask(num_slots=policy.num_slots, past_window=0))
    return policy.select_eligible(count, np.flatnonzero(~eligible))


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("lru", LruPolicy), ("LFU", LfuPolicy), ("random", RandomPolicy),
    ])
    def test_make_policy(self, name, cls):
        assert isinstance(make_policy(name, 4), cls)

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("fifo", 4)

    def test_invalid_slot_count(self):
        with pytest.raises(ValueError):
            LruPolicy(num_slots=0)


class TestSelection:
    def test_prefers_vacant_slots(self):
        policy = LruPolicy(num_slots=4)
        policy.record_use(np.array([0, 1]), cycle=1)
        victims = set(select(policy, all_eligible(4), 2).tolist())
        assert victims == {2, 3}

    def test_lru_evicts_oldest(self):
        policy = LruPolicy(num_slots=3)
        policy.record_use(np.array([0]), cycle=1)
        policy.record_use(np.array([1]), cycle=2)
        policy.record_use(np.array([2]), cycle=3)
        assert select(policy, all_eligible(3), 1).tolist() == [0]

    def test_lru_respects_refresh(self):
        policy = LruPolicy(num_slots=2)
        policy.record_use(np.array([0]), cycle=1)
        policy.record_use(np.array([1]), cycle=2)
        policy.record_use(np.array([0]), cycle=3)  # slot 0 refreshed
        assert select(policy, all_eligible(2), 1).tolist() == [1]

    def test_lfu_evicts_least_frequent(self):
        policy = LfuPolicy(num_slots=2)
        policy.record_use(np.array([0]), cycle=1)
        policy.record_use(np.array([0]), cycle=2)
        policy.record_use(np.array([1]), cycle=3)
        assert select(policy, all_eligible(2), 1).tolist() == [1]

    def test_random_respects_eligibility(self):
        policy = RandomPolicy(num_slots=10, seed=3)
        policy.record_use(np.arange(10), cycle=1)
        eligible = np.zeros(10, dtype=bool)
        eligible[[2, 5, 7]] = True
        for _ in range(5):
            victims = select(policy, eligible, 2)
            assert set(victims.tolist()) <= {2, 5, 7}
            assert len(set(victims.tolist())) == 2

    def test_zero_count_returns_empty(self):
        policy = LruPolicy(num_slots=3)
        assert select(policy, all_eligible(3), 0).size == 0

    def test_selected_victims_distinct(self):
        policy = LruPolicy(num_slots=8)
        policy.record_use(np.arange(8), cycle=1)
        victims = select(policy, all_eligible(8), 5)
        assert len(set(victims.tolist())) == 5

    def test_ineligible_never_selected(self):
        policy = LruPolicy(num_slots=6)
        policy.record_use(np.arange(6), cycle=1)
        eligible = np.array([False, True, False, True, False, True])
        victims = select(policy, eligible, 3)
        assert set(victims.tolist()) == {1, 3, 5}


class TestCachePressure:
    def test_pressure_error_raised(self):
        policy = LruPolicy(num_slots=2)
        with pytest.raises(CachePressureError, match="enlarge the scratchpad"):
            select(policy, np.zeros(2, dtype=bool), 1)

    def test_pressure_error_on_partial_shortage(self):
        policy = LruPolicy(num_slots=4)
        eligible = np.array([True, False, False, False])
        with pytest.raises(CachePressureError):
            select(policy, eligible, 2)


class TestRecordUse:
    def test_empty_record_noop(self):
        policy = LruPolicy(num_slots=2)
        policy.record_use(np.empty(0, dtype=np.int64), cycle=5)
        # Both slots still look vacant -> selected before any used slot.
        victims = select(policy, all_eligible(2), 2)
        assert set(victims.tolist()) == {0, 1}
