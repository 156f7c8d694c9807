"""Stateful test: :class:`HazardMonitor` against the dict oracle.

A hypothesis state machine feeds ``HazardMonitor`` and
``ScanHazardMonitor`` the same random table-plans — several tables,
non-decreasing cycles with repeats and gaps, fill slots a subset of the
planned slots, dirty and ``EMPTY`` evictions, row IDs at and above
2**31 — ends every cycle on both, and requires the same violations, in
the same order, after every step.  Small slot and row pools make RAW-2/3
and RAW-4 hazards, and int32 collisions, frequent.
"""

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.pipeline import HazardMonitor
from repro.core.scratchpad import EMPTY, TablePlan
from repro.testing.oracles import ScanHazardMonitor

TABLES = 3
SLOTS = 24
#: Row IDs the plans draw from: small ones, ones above 2**31, and ones
#: that equal a small one once narrowed to int32.
ROWS = (
    list(range(10))
    + [2**31 + r for r in range(3)]
    + [2**32 + r for r in range(3)]
    + [2**33 + 2**31 + r for r in range(3)]
)


class MonitorMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.monitor = HazardMonitor(strict=False)
        self.oracle = ScanHazardMonitor(strict=False)
        self.cycle = 0

    @rule(table=st.integers(0, TABLES - 1), data=st.data())
    def plan(self, table, data):
        slots = np.array(
            data.draw(st.lists(st.integers(0, SLOTS - 1), unique=True,
                               max_size=8), label="slots"),
            dtype=np.int64,
        )
        hit_mask = np.array(
            data.draw(st.lists(st.booleans(), min_size=slots.size,
                               max_size=slots.size), label="hit_mask"),
            dtype=bool,
        )
        misses = int(np.count_nonzero(~hit_mask))
        rows = data.draw(
            st.lists(st.sampled_from(ROWS), unique=True,
                     min_size=slots.size, max_size=slots.size),
            label="rows",
        )
        evicted = data.draw(
            st.lists(st.sampled_from([EMPTY] + ROWS), min_size=misses,
                     max_size=misses),
            label="evicted",
        )
        unique_ids = np.array(rows, dtype=np.int64)
        plan = TablePlan(
            unique_ids=unique_ids,
            slots=slots,
            hit_mask=hit_mask,
            miss_ids=unique_ids[~hit_mask],
            fill_slots=slots[~hit_mask],
            evicted_ids=np.array(evicted, dtype=np.int64),
        )
        for monitor in (self.monitor, self.oracle):
            monitor.on_plan(cycle=self.cycle, table=table, plan=plan)

    @rule(cycles=st.integers(1, 3))
    def end_cycles(self, cycles):
        for _ in range(cycles):
            for monitor in (self.monitor, self.oracle):
                monitor.on_cycle_end(self.cycle)
            self.cycle += 1

    @invariant()
    def same_violations(self):
        assert self.monitor.violations == self.oracle.violations


TestMonitorMatchesOracle = MonitorMachine.TestCase
TestMonitorMatchesOracle.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
