"""Exactness of the RAW-4 merge test in :class:`HazardMonitor.check`.

A plan's miss IDs and the live write-back ring's rows are narrowed to
int32 and sorted together; only a repeated value sends the check to the
exact per-entry ``searchsorted`` probe.  These tests give that test real
work: a row universe far beyond the 40 rows of
``test_hazard_equivalence.py``, false alarms the exact probe must clear
(a row two ring entries share, IDs above int32 that collide after the
cast), and a true hazard hidden among them.
"""

import numpy as np
import pytest

from repro.core.pipeline import HazardMonitor, ScratchPipePipeline
from repro.core.scratchpad import EMPTY, GpuScratchpad, TablePlan, required_slots
from repro.data.trace import make_dataset
from repro.model.config import tiny_config
from repro.testing.oracles import ScanHazardMonitor


def miss_plan(misses, slots, evicted):
    """A plan that misses every row of ``misses`` into ``slots``,
    evicting ``evicted`` (``EMPTY`` for a clean slot)."""
    misses = np.array(misses, dtype=np.int64)
    slots = np.array(slots, dtype=np.int64)
    return TablePlan(
        unique_ids=misses,
        slots=slots,
        hit_mask=np.zeros(misses.size, dtype=bool),
        miss_ids=misses,
        fill_slots=slots,
        evicted_ids=np.array(evicted, dtype=np.int64),
    )


def replay(plans, monitor_cls):
    """Feed ``(cycle, plan)`` pairs for table 0 to a non-strict monitor."""
    monitor = monitor_cls(strict=False)
    for cycle, plan in plans:
        monitor.on_plan(cycle=cycle, table=0, plan=plan)
        monitor.on_cycle_end(cycle)
    return monitor.violations


@pytest.fixture
def merge_verdicts(monkeypatch):
    """Every answer the merge test gives, in call order."""
    verdicts = []
    merge = HazardMonitor._may_share_a_row

    def spy(miss_ids, entries):
        verdict = merge(miss_ids, entries)
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(HazardMonitor, "_may_share_a_row", staticmethod(spy))
    return verdicts


class TestLargeUniverse:
    def test_same_raw4_messages_as_the_oracle(self, merge_verdicts):
        # Uniform IDs over 2M rows with no lookahead: rows evicted one or
        # two cycles before they are missed again are RAW-4 hazards.
        cfg = tiny_config(rows_per_table=2_000_000, batch_size=256,
                          lookups_per_table=8, num_tables=2)
        violations = {}
        for monitor_cls in (HazardMonitor, ScanHazardMonitor):
            monitor = monitor_cls(strict=False)
            ScratchPipePipeline(
                config=cfg,
                scratchpads=[
                    GpuScratchpad(num_slots=required_slots(cfg, 5),
                                  num_rows=cfg.rows_per_table,
                                  past_window=3, policy_name="random")
                    for _ in range(cfg.num_tables)
                ],
                dataset_batches=make_dataset(cfg, "random", seed=4,
                                             num_batches=30),
                future_window=0,
                monitor=monitor,
            ).run()
            violations[monitor_cls] = monitor.violations
        flagged = violations[HazardMonitor]
        assert flagged == violations[ScanHazardMonitor]
        assert len(flagged) > 10
        assert all(v.startswith("RAW-4") for v in flagged)
        # Both outcomes of the merge test occurred.
        assert True in merge_verdicts and False in merge_verdicts


class TestFalseAlarms:
    def test_row_shared_by_two_entries_is_not_flagged(self, merge_verdicts):
        # Both plans evict row 100 (a hand-built sequence: a real one
        # could only re-evict it after a flagged miss), so the merge test
        # fires at cycle 2, whose own misses never touch row 100.
        plans = [
            (0, miss_plan([1], [0], [100])),
            (1, miss_plan([2], [1], [100])),
            (2, miss_plan([3, 4], [2, 3], [EMPTY, EMPTY])),
        ]
        assert replay(plans, HazardMonitor) == []
        assert replay(plans, ScanHazardMonitor) == []
        assert merge_verdicts == [False, True]

    def test_ids_wrapped_by_the_cast_flag_only_the_shared_row(
        self, merge_verdicts
    ):
        # Rows 2**32 + 5 and 9 collide with misses 5 and 2**32 + 9 once
        # narrowed to int32; only row 42 is both missed and in flight.
        big = 2**32
        plans = [
            (0, miss_plan([1, 2, 3], [0, 1, 2], [big + 5, 42, 9])),
            (1, miss_plan([5, 42, big + 9], [3, 4, 5], [EMPTY] * 3)),
        ]
        flagged = replay(plans, HazardMonitor)
        assert flagged == [
            "RAW-4: row 42 of table 0 read from the CPU table at cycle 2 "
            "while its write-back lands at cycle 3"
        ]
        assert flagged == replay(plans, ScanHazardMonitor)
        assert merge_verdicts == [True]
