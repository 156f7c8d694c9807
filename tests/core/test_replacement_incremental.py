"""Equivalence of the incremental victim selection with the scan oracle.

The incremental candidate queues of the production policies must pick
*bit-identical* victims, in identical order, to the full-scan oracle
policies of ``repro.testing.oracles`` under arbitrary interleavings of
hold / advance / record_use / select / reset — for all three policies,
including selects whose victims are never used afterwards (selection is a
pure query) and states rebuilt after ``reset()``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.holdmask import HoldMask
from repro.core.replacement import (
    CachePressureError,
    LfuPolicy,
    LruPolicy,
    RandomPolicy,
    make_policy,
)
from repro.testing.oracles import (
    ScanRandomPolicy,
    make_scan_policy,
    use_scan_policies,
)

NUM_SLOTS = 24
PAST_WINDOW = 2

POLICIES = ("lru", "lfu", "random")


def _subset(draw, max_size=8):
    return draw(
        st.lists(
            st.integers(0, NUM_SLOTS - 1), max_size=max_size, unique=True
        )
    )


@st.composite
def op_sequences(draw):
    ops = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(
            st.sampled_from(
                ["advance", "use", "hold", "select", "select", "reset"]
            )
        )
        if kind in ("use", "hold"):
            ops.append((kind, _subset(draw)))
        elif kind == "select":
            ops.append(
                (
                    "select",
                    draw(st.integers(0, 6)),
                    _subset(draw, max_size=6),   # transient slots
                    draw(st.booleans()),         # use the victims afterwards?
                )
            )
        else:
            ops.append((kind,))
    return ops


def _replay(policy_name, scan, ops):
    """Replay one op sequence; returns the trace of select outcomes."""
    mask = HoldMask(num_slots=NUM_SLOTS, past_window=PAST_WINDOW)
    make = make_scan_policy if scan else make_policy
    policy = make(policy_name, NUM_SLOTS)
    policy.bind_hold_mask(mask)
    outcomes = []
    cycle = 0
    for op in ops:
        if op[0] == "advance":
            mask.advance()
        elif op[0] == "use":
            slots = np.array(op[1], dtype=np.int64)
            cycle += 1
            mask.hold(slots)
            policy.record_use(slots, cycle)
        elif op[0] == "hold":
            mask.hold(np.array(op[1], dtype=np.int64))
        elif op[0] == "reset":
            mask.reset()
            policy.reset()
        else:
            _, count, transient, use_victims = op
            transient = np.array(transient, dtype=np.int64)
            try:
                victims = policy.select_eligible(count, transient)
            except CachePressureError:
                outcomes.append("pressure")
                continue
            outcomes.append(victims.tolist())
            assert len(set(victims.tolist())) == victims.size
            if use_victims and victims.size:
                cycle += 1
                mask.hold(victims)
                policy.record_use(victims, cycle)
    return outcomes


class TestIncrementalMatchesOracle:
    @pytest.mark.parametrize("policy_name", POLICIES)
    @given(ops=op_sequences())
    @settings(max_examples=120, deadline=None)
    def test_identical_victims_and_pressure(self, policy_name, ops):
        oracle = _replay(policy_name, True, ops)
        incremental = _replay(policy_name, False, ops)
        assert oracle == incremental

    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_repeated_select_is_pure(self, policy_name):
        """Selection must not consume candidacy: with unchanged state the
        same victims come back (matching the stateless scan oracle)."""
        mask = HoldMask(num_slots=NUM_SLOTS, past_window=PAST_WINDOW)
        policy = make_policy(policy_name, NUM_SLOTS)
        policy.bind_hold_mask(mask)
        slots = np.arange(10, dtype=np.int64)
        mask.hold(slots)
        policy.record_use(slots, cycle=1)
        for _ in range(PAST_WINDOW + 1):
            mask.advance()
        first = policy.select_eligible(4)
        second = policy.select_eligible(4)
        assert np.array_equal(first, second)


class TestCanonicalOrder:
    def test_lru_victims_ordered_by_age_then_slot(self):
        mask = HoldMask(num_slots=8, past_window=0)
        policy = LruPolicy(num_slots=8)
        policy.bind_hold_mask(mask)
        policy.record_use(np.array([5, 1]), cycle=1)
        policy.record_use(np.array([3]), cycle=2)
        mask.advance()
        # Vacant slots first (ascending), then cycle-1 users (ascending),
        # then the cycle-2 user.
        victims = policy.select_eligible(8)
        assert victims.tolist() == [0, 2, 4, 6, 7, 1, 5, 3]

    def test_lfu_victims_ordered_by_count_then_slot(self):
        mask = HoldMask(num_slots=6, past_window=0)
        policy = LfuPolicy(num_slots=6)
        policy.bind_hold_mask(mask)
        for cycle in range(1, 4):
            policy.record_use(np.array([4]), cycle=cycle)   # count 3
        policy.record_use(np.array([0, 2]), cycle=4)        # count 1
        mask.advance()
        victims = policy.select_eligible(6)
        assert victims.tolist() == [1, 3, 5, 0, 2, 4]


class TestRandomVacancyOrder:
    """Regression: the vacancy-fill order of RandomPolicy is pinned to
    ascending slot index, for both implementations."""

    @pytest.mark.parametrize("scan", [False, True])
    def test_warmup_fills_sorted_vacancies(self, scan):
        mask = HoldMask(num_slots=12, past_window=1)
        policy = (ScanRandomPolicy if scan else RandomPolicy)(num_slots=12, seed=7)
        policy.bind_hold_mask(mask)
        used = np.array([0, 3, 4], dtype=np.int64)
        mask.hold(used)
        policy.record_use(used, cycle=1)
        for _ in range(2):
            mask.advance()
        victims = policy.select_eligible(5)
        # Deterministic warm-up: the five smallest vacant slot indices.
        assert victims.tolist() == [1, 2, 5, 6, 7]

    def test_eviction_tail_matches_oracle_draws(self):
        """Once vacancies run out, both implementations must consume the
        RNG identically (the sensitivity figures depend on every draw)."""
        outcomes = []
        for policy_cls in (ScanRandomPolicy, RandomPolicy):
            mask = HoldMask(num_slots=10, past_window=0)
            policy = policy_cls(num_slots=10, seed=3)
            policy.bind_hold_mask(mask)
            picks = []
            for cycle in range(1, 9):
                slots = np.array([(cycle * 3) % 10, (cycle * 7) % 10])
                mask.hold(slots)
                policy.record_use(slots, cycle)
                mask.advance()
                picks.append(policy.select_eligible(4).tolist())
            outcomes.append(picks)
        assert outcomes[0] == outcomes[1]


class TestPostResetEquivalence:
    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_reset_restores_fresh_behaviour(self, policy_name):
        ops = (
            [("use", [1, 2, 3]), ("advance",), ("select", 3, [], True)]
            * (PAST_WINDOW + 2)
        )
        fresh = _replay(policy_name, False, ops)
        again = _replay(policy_name, False, [("reset",)] + ops)
        assert fresh == again


class TestPipelineOracleEquivalence:
    """Whole-pipeline check: scan-oracle scratchpads and incremental
    scratchpads produce bit-identical cache statistics."""

    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_metadata_stats_identical(self, policy_name):
        from repro.core.pipeline import HazardMonitor, ScratchPipePipeline
        from repro.data.trace import make_dataset
        from repro.model.config import tiny_config
        from repro.core.scratchpad import make_scratchpads

        cfg = tiny_config(
            rows_per_table=500, batch_size=6, lookups_per_table=3, num_tables=2
        )
        dataset = make_dataset(cfg, "random", seed=11, num_batches=30)

        def run(scan):
            pads = make_scratchpads(cfg, 150, policy_name=policy_name)
            pipeline = ScratchPipePipeline(
                config=cfg,
                scratchpads=use_scan_policies(pads) if scan else pads,
                dataset_batches=dataset,
                monitor=HazardMonitor(strict=True),
            )
            return [
                (s.batch_index, s.unique_ids, s.hits, s.misses, s.writebacks,
                 s.per_table_misses)
                for s in pipeline.run().cache_stats
            ]

        assert run(True) == run(False)
