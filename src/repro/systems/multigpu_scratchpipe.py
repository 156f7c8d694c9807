"""ScratchPipe extended to multi-GPU training (Section VI-G, future work).

The paper sketches the design: under table-wise model parallelism each GPU
owns a subset of the embedding tables and runs its *own* per-table cache
managers — no inter-GPU RAW hazards arise because each partitioned table is
locally an independent table.  This module provides the analytic timing
model for that design point so the paper's prediction can be tested: with
the DNNs contributing little, multi-GPU ScratchPipe underutilises the extra
GPUs and is **less cost-effective** than the single-GPU design.

:class:`MultiGpuScratchPipeSystem` *is* a
:class:`~repro.systems.scratchpipe_system.ScratchPipeSystem`: the same
per-table caches (and so the same build-time hazard-window floor), the
same metadata pipeline and the same pipelined-cycle rule.  It overrides
only two things, the per-batch stage pricing and the extra GPUs' energy.

Modelling choices (documented deviations):

* [Collect]/[Insert] still bottleneck on the *single* CPU memory — adding
  GPUs multiplies PCIe lanes but not DDR4 bandwidth, so the CPU-side stage
  time does not shrink.
* [Exchange] parallelises across the per-GPU PCIe links.
* [Train] embedding work splits across GPUs; the dense network trains
  data-parallel with the same batch-invariant-efficiency behaviour as
  :class:`repro.systems.multigpu.MultiGpuSystem`, plus all-to-all and
  all-reduce collectives.
"""

from __future__ import annotations

from typing import Dict

from repro.api.registry import register_system
from repro.errors import SystemConfigError
from repro.core.pipeline import BatchCacheStats
from repro.model.config import dense_parameter_bytes
from repro.systems.base import IterationBreakdown, StageTime, gpu_stage, transfer_stage
from repro.systems.scratchpipe_system import ScratchPipeSystem
from repro.systems.stages import COLLECT, EXCHANGE, INSERT, PLAN, TRAIN, plan_time


@register_system(
    "multi_gpu_scratchpipe",
    requires_cache=True,
    uses_num_gpus=True,
    description="ScratchPipe over table-parallel GPUs (Section VI-G)",
)
class MultiGpuScratchPipeSystem(ScratchPipeSystem):
    """Analytic timing of ScratchPipe over ``spec.num_gpus`` table-parallel
    GPUs."""

    name = "multi_gpu_scratchpipe"

    def stage_times(self, stats: BatchCacheStats) -> Dict[str, StageTime]:
        cost = self.cost
        g = self.spec.num_gpus
        cfg = self.config

        plan = plan_time(cost, stats, self.future_window) / g
        # CPU DDR4 is shared: reads/writes of missed/evicted rows do not
        # parallelise, only the GPU-side halves do.
        collect = max(
            cost.cpu_table_read(stats.misses),
            cost.cache_evict_read(stats.writebacks) / g,
        )
        exchange = cost.row_exchange(stats.misses / g, stats.writebacks / g)
        insert = max(
            cost.cpu_table_write(stats.writebacks),
            cost.cache_fill(stats.misses) / g,
        )
        embedding = cost.gpu_resident_embedding_train(
            stats.total_lookups / g, stats.unique_ids / g
        )
        pooled_bytes_per_gpu = cfg.reduced_bytes_per_batch / g
        collectives = 2 * cost.nvlink.allto_all_time(
            pooled_bytes_per_gpu, g
        ) + cost.nvlink.allreduce_time(dense_parameter_bytes(cfg), g)
        train = embedding + cost.dense_train("gpu") + collectives

        return {
            PLAN: transfer_stage(PLAN, PLAN, plan),
            COLLECT: transfer_stage(COLLECT, COLLECT, collect),
            EXCHANGE: transfer_stage(EXCHANGE, EXCHANGE, exchange),
            INSERT: transfer_stage(INSERT, INSERT, insert),
            TRAIN: gpu_stage(TRAIN, TRAIN, train),
        }

    def iteration_energy(
        self, seconds: float, breakdown: IterationBreakdown
    ) -> float:
        gpu_extra_w = (self.spec.num_gpus - 1) * self.hardware.power.gpu_active_w
        return (
            super().iteration_energy(seconds, breakdown) + gpu_extra_w * seconds
        )


def tco_comparison(
    single_gpu_latency: float,
    multi_gpu_latency: float,
    num_gpus: int,
    single_gpu_price_hr: float = 3.06,
    price_per_gpu_hr: float = 3.06,
) -> Dict[str, float]:
    """Cost-effectiveness of scaling ScratchPipe out to ``num_gpus`` GPUs.

    Returns the speedup, the cost ratio (multi / single for equal iteration
    counts) and the marginal GPU utilisation efficiency — the paper expects
    the latter to be well below 1 (Section VI-G).
    """
    if single_gpu_latency <= 0 or multi_gpu_latency <= 0:
        raise SystemConfigError("latencies must be positive")
    speedup = single_gpu_latency / multi_gpu_latency
    single_cost = single_gpu_price_hr * single_gpu_latency
    multi_cost = price_per_gpu_hr * num_gpus * multi_gpu_latency
    return {
        "speedup": speedup,
        "cost_ratio": multi_cost / single_cost,
        "scaling_efficiency": speedup / num_gpus,
    }
