"""The RAW-4 write-back ring of :class:`HazardMonitor`.

RAW-4 is tracked only in a ring of the last few plans' sorted dirty
rows, so the monitor's memory is bounded by the scratchpad, never by the
row universe, and its pruning leans on per-table ``on_plan`` cycles never
decreasing.  These tests pin both facts; the flagging itself is pinned to
the dict oracle by ``test_hazard_equivalence.py``.
"""

import numpy as np
import pytest

from repro.api import CacheSpec, SystemSpec, build_system
from repro.core.pipeline import HazardMonitor
from repro.core.scratchpad import TablePlan, required_slots
from repro.data.trace import make_dataset
from repro.errors import MonitorCycleError
from repro.hardware.spec import DEFAULT_HARDWARE
from repro.model.config import tiny_config


def one_miss_plan(row, slot=0, evicted=-1):
    return TablePlan(
        unique_ids=np.array([row]),
        slots=np.array([slot]),
        hit_mask=np.array([False]),
        miss_ids=np.array([row]),
        fill_slots=np.array([slot]),
        evicted_ids=np.array([evicted]),
    )


def monitor_arrays(monitor):
    """Every numpy array the monitor holds, however it is nested."""
    found = []

    def walk(value):
        if isinstance(value, np.ndarray):
            found.append(value)
        elif isinstance(value, dict):
            for item in value.values():
                walk(item)
        elif isinstance(value, (list, tuple)):
            for item in value:
                walk(item)

    walk(vars(monitor))
    return found


class TestCycleOrder:
    def test_backwards_cycle_is_refused(self):
        monitor = HazardMonitor(strict=False)
        monitor.on_plan(cycle=5, table=0, plan=one_miss_plan(7))
        with pytest.raises(MonitorCycleError, match="table 0 planned at cycle 4"):
            monitor.on_plan(cycle=4, table=0, plan=one_miss_plan(8, slot=1))
        # A broken pipeline invariant, like HazardError.
        assert issubclass(MonitorCycleError, AssertionError)
        assert issubclass(MonitorCycleError, RuntimeError)

    def test_repeated_cycle_and_independent_tables_are_accepted(self):
        monitor = HazardMonitor(strict=True)
        monitor.on_plan(cycle=5, table=0, plan=one_miss_plan(7))
        monitor.on_plan(cycle=5, table=0, plan=one_miss_plan(8, slot=1))
        # Each table keeps its own clock.
        monitor.on_plan(cycle=1, table=1, plan=one_miss_plan(7))
        assert monitor.violations == []


class TestMemoryBound:
    def test_no_array_is_sized_by_the_row_universe(self):
        cfg = tiny_config(rows_per_table=2_000_000, batch_size=32,
                          lookups_per_table=4, num_tables=2)
        slots = required_slots(cfg)
        system = build_system(
            SystemSpec(system="scratchpipe", cache=CacheSpec(slots=slots)),
            cfg, DEFAULT_HARDWARE,
        )
        trace = make_dataset(cfg, "random", seed=5, num_batches=24)
        monitor = HazardMonitor(strict=True)
        stats = system.simulate_cache(trace, monitor=monitor)

        # The run evicted dirty rows from across the 2M-row universe, so
        # RAW-4 bookkeeping was exercised at that scale.
        assert sum(s.writebacks for s in stats) > 0
        assert monitor.violations == []
        arrays = monitor_arrays(monitor)
        assert arrays
        largest = max(array.size for array in arrays)
        assert largest <= max(1024, 4 * slots) < cfg.rows_per_table // 100
