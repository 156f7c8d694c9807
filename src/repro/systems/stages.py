"""Pricing of the dynamic-cache pipeline stages (shared by straw-man and
ScratchPipe).

Given one batch's :class:`~repro.core.pipeline.BatchCacheStats`, these
helpers return the latency of every stage of Figure 8 / Figure 10:
``Plan`` (ID transfer + Hit-Map query + Hold-mask update), ``Collect`` (CPU
table reads in parallel with GPU victim reads), ``Exchange`` (bidirectional
PCIe), ``Insert`` (CPU write-backs in parallel with GPU fills) and ``Train``
(the whole embedding + dense training executed at GPU memory speed).
"""

from __future__ import annotations

from typing import Dict

from repro.core.pipeline import BatchCacheStats
from repro.hardware.timing import CostModel
from repro.systems.base import StageTime, gpu_stage, transfer_stage

#: Reporting group for every dynamic-cache stage (Figure 12(b) plots stages
#: directly, so group == stage name).
PLAN = "plan"
COLLECT = "collect"
EXCHANGE = "exchange"
INSERT = "insert"
TRAIN = "train"


def plan_time(cost: CostModel, stats: BatchCacheStats, future_window: int) -> float:
    """[Plan]: copy sparse IDs to the GPU, probe the Hit-Map for the current
    batch and the future window, advance/set the Hold mask."""
    queries = stats.unique_ids * (1 + future_window)
    return (
        cost.id_transfer(stats.total_lookups)
        + cost.hitmap_query(queries)
        + cost.holdmask_update(stats.unique_ids)
    )


def collect_time(cost: CostModel, stats: BatchCacheStats) -> float:
    """[Collect]: CPU gathers the missed rows while the GPU reads out the
    dirty victims — the two proceed concurrently on different devices."""
    return max(
        cost.cpu_table_read(stats.misses),
        cost.cache_evict_read(stats.writebacks),
    )


def exchange_time(cost: CostModel, stats: BatchCacheStats) -> float:
    """[Exchange]: full-duplex PCIe copy — misses in, evictions out."""
    return cost.row_exchange(stats.misses, stats.writebacks)


def insert_time(cost: CostModel, stats: BatchCacheStats) -> float:
    """[Insert]: CPU lands the write-backs while the GPU fills Storage."""
    return max(
        cost.cpu_table_write(stats.writebacks),
        cost.cache_fill(stats.misses),
    )


def train_time(cost: CostModel, stats: BatchCacheStats) -> float:
    """[Train]: gather/reduce/dense/duplicate/coalesce/scatter, all on GPU."""
    return (
        cost.gpu_resident_embedding_train(stats.total_lookups, stats.unique_ids)
        + cost.dense_train("gpu")
    )


def cache_stage_times(
    cost: CostModel, stats: BatchCacheStats, future_window: int
) -> Dict[str, StageTime]:
    """All five priced stages for one batch, keyed by stage name (in
    ``PRICED_STAGE_OFFSETS`` order)."""
    return {
        PLAN: transfer_stage(PLAN, PLAN, plan_time(cost, stats, future_window)),
        COLLECT: transfer_stage(COLLECT, COLLECT, collect_time(cost, stats)),
        EXCHANGE: transfer_stage(EXCHANGE, EXCHANGE, exchange_time(cost, stats)),
        INSERT: transfer_stage(INSERT, INSERT, insert_time(cost, stats)),
        TRAIN: gpu_stage(TRAIN, TRAIN, train_time(cost, stats)),
    }
