"""Tests for the shared cache-stage pricing (repro.systems.stages)."""

import pytest

from repro.core.pipeline import PRICED_STAGE_OFFSETS, BatchCacheStats
from repro.hardware.timing import CostModel
from repro.systems.stages import (
    cache_stage_times,
    collect_time,
    exchange_time,
    insert_time,
    plan_time,
    train_time,
)


@pytest.fixture
def cost():
    return CostModel()


def stats(lookups=327_680, unique=300_000, misses=40_000, writebacks=40_000):
    return BatchCacheStats(
        batch_index=0,
        total_lookups=lookups,
        unique_ids=unique,
        hits=unique - misses,
        misses=misses,
        writebacks=writebacks,
        per_table_misses=(misses,),
    )


class TestStagePricing:
    def test_all_stages_priced(self, cost):
        times = cache_stage_times(cost, stats(), future_window=2)
        assert set(times) == set(PRICED_STAGE_OFFSETS)
        assert all(t.seconds > 0 for t in times.values())

    def test_collect_is_cpu_bound(self, cost):
        # The CPU read of missed rows dwarfs the GPU victim read, so the
        # stage time equals the CPU side.
        s = stats()
        assert collect_time(cost, s) == pytest.approx(
            cost.cpu_table_read(s.misses)
        )

    def test_collect_scales_with_misses(self, cost):
        few = stats(misses=1_000)
        many = stats(misses=100_000)
        assert collect_time(cost, many) > 10 * collect_time(cost, few)

    def test_exchange_full_duplex(self, cost):
        s = stats(misses=50_000, writebacks=10_000)
        # Dominated by the larger direction.
        assert exchange_time(cost, s) == pytest.approx(
            cost.row_transfer(50_000), rel=0.01
        )

    def test_insert_cheaper_than_collect(self, cost):
        # Write-combining makes the write-back side cheaper than the
        # latency-bound gather side (Figure 12(b)'s Insert < Collect).
        s = stats()
        assert insert_time(cost, s) < collect_time(cost, s)

    def test_plan_scales_with_future_window(self, cost):
        s = stats()
        assert plan_time(cost, s, 4) > plan_time(cost, s, 0)

    def test_train_includes_dense(self, cost):
        s = stats()
        assert train_time(cost, s) > cost.dense_train("gpu")

    def test_zero_miss_batch(self, cost):
        s = stats(misses=0, writebacks=0)
        assert collect_time(cost, s) == 0.0
        assert exchange_time(cost, s) == 0.0
        assert insert_time(cost, s) == 0.0
        # Plan and Train still run.
        assert plan_time(cost, s, 2) > 0
        assert train_time(cost, s) > 0

    def test_train_is_gpu_stage(self, cost):
        times = cache_stage_times(cost, stats(), future_window=2)
        assert times["train"].busy == ("gpu",)
        assert set(times["collect"].busy) == {"cpu", "gpu"}
