"""Hazard-freedom tests: the paper's sliding window is necessary AND sufficient.

Section IV-C argues that a past window of 3 plus a future window of 2
removes all RAW hazards (RAW-1..4 of Figure 8) among in-flight mini-batches.
These tests verify both directions with the :class:`HazardMonitor`:

* sufficiency — the default windows produce zero violations on adversarial
  traces;
* necessity — shrinking either window makes the monitor catch real
  violations, i.e. the windows are not vacuous.
"""

import numpy as np
import pytest

from repro.core.pipeline import HazardError, HazardMonitor, ScratchPipePipeline
from repro.core.scratchpad import GpuScratchpad, required_slots
from repro.data.trace import make_dataset
from repro.model.config import tiny_config
from repro.testing.oracles import ScanHazardMonitor


def make_cfg(**overrides):
    defaults = dict(
        rows_per_table=120, batch_size=6, lookups_per_table=2, num_tables=1
    )
    defaults.update(overrides)
    return tiny_config(**defaults)


def run_pipeline(cfg, dataset, past_window, future_window, num_slots,
                 strict=False, policy="lru"):
    pads = [
        GpuScratchpad(
            num_slots=num_slots,
            num_rows=cfg.rows_per_table,
            past_window=past_window,
            policy_name=policy,
        )
        for _ in range(cfg.num_tables)
    ]
    monitor = HazardMonitor(strict=strict)
    pipeline = ScratchPipePipeline(
        config=cfg,
        scratchpads=pads,
        dataset_batches=dataset,
        future_window=future_window,
        monitor=monitor,
    )
    pipeline.run()
    return monitor


class TestSufficiency:
    @pytest.mark.parametrize("locality", ["random", "high"])
    def test_default_windows_hazard_free(self, locality):
        cfg = make_cfg()
        dataset = make_dataset(cfg, locality, seed=17, num_batches=30)
        monitor = run_pipeline(
            cfg, dataset, past_window=3, future_window=2,
            num_slots=required_slots(cfg), strict=True,
        )
        assert monitor.violations == []

    def test_tight_cache_still_hazard_free(self):
        # Even at the minimum hazard-free capacity, the windows protect
        # every in-flight slot.
        cfg = make_cfg()
        dataset = make_dataset(cfg, "medium", seed=23, num_batches=30)
        monitor = run_pipeline(
            cfg, dataset, past_window=3, future_window=2,
            num_slots=required_slots(cfg, window_batches=6), strict=True,
        )
        assert monitor.violations == []

    def test_oversized_windows_also_clean(self):
        cfg = make_cfg()
        dataset = make_dataset(cfg, "medium", seed=29, num_batches=20)
        monitor = run_pipeline(
            cfg, dataset, past_window=5, future_window=3,
            num_slots=required_slots(cfg, window_batches=10), strict=True,
        )
        assert monitor.violations == []


class TestNecessity:
    def test_no_future_window_triggers_raw4(self):
        # Without the future window, a batch can evict a row the next batch
        # needs: the next batch's [Collect] then reads the CPU table before
        # the write-back lands (RAW-4).  The cache is sized so the hold
        # window never exhausts eligibility but evictions still occur.
        cfg = make_cfg(rows_per_table=40, batch_size=3)
        dataset = make_dataset(cfg, "random", seed=3, num_batches=60)
        monitor = run_pipeline(
            cfg, dataset, past_window=3, future_window=0, num_slots=34,
        )
        assert any("RAW-4" in v for v in monitor.violations)

    def test_short_past_window_triggers_raw23(self):
        # With past window 1, a victim can be chosen while a batch two or
        # three stages ahead still has a pending [Insert]/[Train] write
        # (RAW-2/3).  Random replacement makes recent slots fair game.
        cfg = make_cfg(rows_per_table=40, batch_size=3)
        dataset = make_dataset(cfg, "random", seed=3, num_batches=60)
        monitor = run_pipeline(
            cfg, dataset, past_window=1, future_window=2, num_slots=34,
            policy="random",
        )
        assert any("RAW-2/3" in v for v in monitor.violations)

    def test_strict_monitor_raises(self):
        cfg = make_cfg(rows_per_table=40, batch_size=3)
        dataset = make_dataset(cfg, "random", seed=3, num_batches=60)
        with pytest.raises(HazardError):
            run_pipeline(
                cfg, dataset, past_window=0, future_window=0, num_slots=34,
                strict=True, policy="random",
            )


class TestMonitorMechanics:
    @staticmethod
    def _one_slot_plan():
        from repro.core.scratchpad import TablePlan

        return TablePlan(
            unique_ids=np.array([7]),
            slots=np.array([0]),
            hit_mask=np.array([False]),
            miss_ids=np.array([7]),
            fill_slots=np.array([0]),
            evicted_ids=np.array([5]),
        )

    def test_legacy_retirement_clears_pending_writes(self):
        monitor = ScanHazardMonitor(strict=False)
        # After on_cycle_end past the write cycle, the pending maps drain.
        monitor.on_plan(cycle=1, table=0, plan=self._one_slot_plan())
        assert monitor._pending_slot_writes
        assert monitor._pending_writebacks
        monitor.on_cycle_end(10)
        assert not monitor._pending_slot_writes
        assert not monitor._pending_writebacks

    def test_vectorised_retirement_is_lazy(self):
        # The vectorised monitor needs no on_cycle_end: a slot write cycle
        # in the past simply stops comparing as pending, and a landed
        # write-back drops out of the ring at the next plan, so a later
        # plan touching the same slot/row is clean.
        monitor = HazardMonitor(strict=True)
        monitor.on_plan(cycle=1, table=0, plan=self._one_slot_plan())
        monitor.on_cycle_end(10)  # no-op
        monitor.on_plan(cycle=11, table=0, plan=self._one_slot_plan())
        assert monitor.violations == []

    def test_vectorised_flags_like_legacy_on_reuse(self):
        # Re-planning the same fill slot and missed row one cycle later is
        # inside both pending windows: both implementations flag RAW-2/3
        # (slot 0 written at [Train]) and RAW-4 (row 5 written back).
        plan = self._one_slot_plan()
        seen = {}
        for scan in (False, True):
            monitor = (ScanHazardMonitor if scan else HazardMonitor)(strict=False)
            monitor.on_plan(cycle=1, table=0, plan=plan)
            second = self._one_slot_plan()
            second = type(second)(
                unique_ids=np.array([5]),
                slots=np.array([0]),
                hit_mask=np.array([False]),
                miss_ids=np.array([5]),
                fill_slots=np.array([0]),
                evicted_ids=np.array([7]),
            )
            monitor.on_cycle_end(1)
            monitor.on_plan(cycle=2, table=0, plan=second)
            seen[scan] = monitor.violations
        assert seen[False] == seen[True]
        assert any("RAW-2/3" in v for v in seen[False])
        assert any("RAW-4" in v for v in seen[False])
