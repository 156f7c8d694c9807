"""Equivalence properties of the vectorised hot-loop rewrites.

The pipeline's Plan/monitor path was rewritten from per-element Python
loops to numpy array operations; these tests pin the rewrites to their
originals:

* the vectorised :class:`HazardMonitor` flags *exactly* the violations the
  dict oracle (``ScanHazardMonitor``) flags — same messages, same order —
  on randomised traces with deliberately shrunken windows;
* the per-batch unique-ID planning (``presorted_unique=True``) produces
  bit-identical ``TablePlan``s and ``PipelineResult``s versus the
  per-cycle ``np.unique`` oracle (``PerCycleUniquePipeline``).

Both oracles come from ``repro.testing.oracles``.
"""

import numpy as np
import pytest

from repro.core.pipeline import HazardMonitor, ScratchPipePipeline
from repro.core.scratchpad import GpuScratchpad, required_slots
from repro.data.trace import MaterialisedDataset, make_dataset
from repro.model.config import tiny_config
from repro.core.scratchpad import make_scratchpads
from repro.testing.oracles import PerCycleUniquePipeline, ScanHazardMonitor


def make_cfg(**overrides):
    defaults = dict(
        rows_per_table=40, batch_size=3, lookups_per_table=2, num_tables=2
    )
    defaults.update(overrides)
    return tiny_config(**defaults)


def run_monitored(cfg, dataset, past_window, future_window, num_slots,
                  policy, scan):
    pads = [
        GpuScratchpad(
            num_slots=num_slots,
            num_rows=cfg.rows_per_table,
            past_window=past_window,
            policy_name=policy,
        )
        for _ in range(cfg.num_tables)
    ]
    monitor = (ScanHazardMonitor if scan else HazardMonitor)(strict=False)
    ScratchPipePipeline(
        config=cfg,
        scratchpads=pads,
        dataset_batches=dataset,
        future_window=future_window,
        monitor=monitor,
    ).run()
    return monitor


class TestHazardMonitorEquivalence:
    """The vectorised monitor and the dict oracle are interchangeable."""

    @pytest.mark.parametrize("past_window,future_window,policy", [
        (0, 0, "random"),   # both hazard classes fire
        (1, 2, "random"),   # RAW-2/3 only
        (3, 0, "lru"),      # RAW-4 only
        (3, 2, "lru"),      # hazard-free
        (2, 1, "lfu"),
    ])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_same_violations_same_order(
        self, past_window, future_window, policy, seed
    ):
        cfg = make_cfg()
        num_slots = 34
        violations = {}
        for scan in (False, True):
            # Fresh dataset per run: scratchpad planning is deterministic,
            # so both runs see identical plans.
            dataset = make_dataset(cfg, "random", seed=seed, num_batches=60)
            monitor = run_monitored(
                cfg, dataset, past_window, future_window, num_slots,
                policy, scan,
            )
            violations[scan] = monitor.violations
        assert violations[False] == violations[True]

    @pytest.mark.parametrize("past_window,future_window,policy", [
        (0, 0, "random"),
        (1, 2, "random"),
        (3, 0, "lru"),
    ])
    def test_same_violations_through_three_plan_shards(
        self, monkeypatch, past_window, future_window, policy
    ):
        # One table per shard: every table's check runs on its own thread.
        monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", "3")
        cfg = make_cfg(num_tables=3)
        violations = {}
        for scan in (False, True):
            dataset = make_dataset(cfg, "random", seed=3, num_batches=60)
            monitor = run_monitored(
                cfg, dataset, past_window, future_window, 34, policy, scan,
            )
            violations[scan] = monitor.violations
        assert violations[False]
        assert violations[False] == violations[True]

    def test_shrunken_windows_do_flag(self):
        # Guard against vacuous equivalence: the shrunken-window cases
        # above must actually produce violations.
        cfg = make_cfg()
        dataset = make_dataset(cfg, "random", seed=3, num_batches=60)
        monitor = run_monitored(cfg, dataset, 0, 0, 34, "random", scan=False)
        assert any("RAW-2/3" in v for v in monitor.violations)
        assert any("RAW-4" in v for v in monitor.violations)


def plan_fields_equal(a, b):
    return (
        np.array_equal(a.unique_ids, b.unique_ids)
        and np.array_equal(a.slots, b.slots)
        and np.array_equal(a.hit_mask, b.hit_mask)
        and np.array_equal(a.miss_ids, b.miss_ids)
        and np.array_equal(a.fill_slots, b.fill_slots)
        and np.array_equal(a.evicted_ids, b.evicted_ids)
    )


class TestUniqueFastPathEquivalence:
    """The cached-unique Plan path is bit-identical to the per-cycle
    ``np.unique`` oracle."""

    @pytest.mark.parametrize("locality", ["random", "medium", "high"])
    def test_table_plans_bit_identical(self, locality):
        cfg = make_cfg(rows_per_table=300, batch_size=6, num_tables=1)
        dataset = MaterialisedDataset(
            make_dataset(cfg, locality, seed=7, num_batches=25)
        )
        slots = required_slots(cfg)
        slow_pad = GpuScratchpad(num_slots=slots, num_rows=cfg.rows_per_table)
        fast_pad = GpuScratchpad(num_slots=slots, num_rows=cfg.rows_per_table)
        n = len(dataset)
        for index in range(n):
            batch = dataset.batch(index)
            future = [dataset.batch(i) for i in (index + 1, index + 2) if i < n]
            slow_future = (
                np.concatenate([b.table_ids(0) for b in future])
                if future else None
            )
            fast_future = (
                np.concatenate([b.unique_table_ids(0) for b in future])
                if future else None
            )
            slow_plan = slow_pad.plan_batch(batch.sparse_ids[0], slow_future)
            fast_plan = fast_pad.plan_batch(
                batch.unique_table_ids(0), fast_future, presorted_unique=True
            )
            assert plan_fields_equal(slow_plan, fast_plan), f"batch {index}"

    @pytest.mark.parametrize("locality", ["random", "high"])
    def test_pipeline_results_bit_identical(self, locality):
        cfg = make_cfg(rows_per_table=300, batch_size=6)
        results = {}
        monitors = {}
        for unique_cache in (False, True):
            dataset = MaterialisedDataset(
                make_dataset(cfg, locality, seed=9, num_batches=30)
            )
            monitor = HazardMonitor(strict=False)
            pipeline_cls = (
                ScratchPipePipeline if unique_cache else PerCycleUniquePipeline
            )
            result = pipeline_cls(
                config=cfg,
                scratchpads=make_scratchpads(cfg, required_slots(cfg)),
                dataset_batches=dataset,
                monitor=monitor,
            ).run()
            results[unique_cache] = result
            monitors[unique_cache] = monitor
        assert results[False].cache_stats == results[True].cache_stats
        assert results[False].train_hit_rate == results[True].train_hit_rate
        assert monitors[False].violations == monitors[True].violations == []
