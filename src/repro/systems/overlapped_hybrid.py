"""Software-pipelined hybrid CPU-GPU baseline (overlap without caching).

The related-work section cites a body of systems ([33]-[38]) that hide
CPU-GPU communication by overlapping computation with data movement — but
*without* changing where the embedding work executes.  This design point
makes that argument quantitative: a two-stage software pipeline overlaps
the CPU's embedding work for neighbouring batches with the GPU's dense
work, which helps only until the CPU side saturates.  Since the hybrid
baseline is CPU-bound by 5-10x (Figure 5), overlap alone recovers little —
ScratchPipe's gain comes from *relocating* the embedding work to GPU
memory, not from scheduling.

Pipeline structure (batch ``i``):

* CPU stage of cycle ``i``: embedding backward of batch ``i-1`` (needs the
  dense gradients produced last cycle) followed by embedding forward of
  batch ``i``;
* GPU stage of cycle ``i``: dense forward/backward of batch ``i`` (needs
  this cycle's CPU forward output — the serialising dependency);
* PCIe transfers ride along each hand-off.

The cycle time is ``cpu_backward(i-1) + cpu_forward(i) + transfers`` when
CPU-bound (the dense work of batch ``i-1`` hides inside it), bounded below
by the dense time when the model is MLP-dominated.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.systems.base import (
    BatchAccessStats,
    CPU_EMB_BACKWARD,
    CPU_EMB_FORWARD,
    GPU_GROUP,
    IterationBreakdown,
    TrainingSystem,
    cpu_stage,
    gpu_stage,
    transfer_stage,
)


from repro.api.registry import register_system


@register_system(
    "overlapped_hybrid",
    description="Hybrid baseline with software-pipelined CPU/GPU overlap, "
                "no cache",
)
class OverlappedHybridSystem(TrainingSystem):
    """Hybrid CPU-GPU with software-pipelined CPU/GPU overlap, no cache."""

    name = "overlapped_hybrid"

    def iteration_breakdown(self, stats: BatchAccessStats) -> IterationBreakdown:
        """Stage latencies of one iteration (pre-overlap)."""
        cost = self.cost
        stages = (
            cpu_stage("cpu_emb_forward", CPU_EMB_FORWARD,
                      cost.embedding_gather(stats.total_lookups, "cpu")
                      + cost.embedding_reduce(stats.total_lookups, "cpu")),
            # Pooled embeddings out, pooled gradients back; full duplex
            # overlaps them across neighbouring batches.
            transfer_stage("pooled_exchange", GPU_GROUP,
                           cost.pooled_transfer()),
            gpu_stage("dense_train", GPU_GROUP, cost.dense_train("gpu")),
            cpu_stage("cpu_emb_backward", CPU_EMB_BACKWARD,
                      cost.embedding_backward(
                          stats.total_lookups, stats.unique_rows, "cpu")),
        )
        return IterationBreakdown(stages=stages)

    def cycle_seconds(self, breakdown: IterationBreakdown) -> float:
        """Overlapped steady-state iteration time of one priced batch.

        The CPU and GPU stages of *different* batches run concurrently;
        each cycle retires one batch and costs the slower side plus the
        non-overlappable hand-off.
        """
        stage = breakdown.by_stage()
        transfer = stage["pooled_exchange"]
        cpu_side = stage["cpu_emb_forward"] + stage["cpu_emb_backward"] + transfer
        gpu_side = stage["dense_train"] + transfer
        return max(cpu_side, gpu_side) + self.hardware.stage_sync_s

    def steady_cycle_seconds(self, stats: BatchAccessStats) -> float:
        """Overlapped steady-state iteration time of a batch's statistics."""
        return self.cycle_seconds(self.iteration_breakdown(stats))

    def iteration_times(
        self, breakdowns: Sequence[IterationBreakdown]
    ) -> List[float]:
        return [self.cycle_seconds(breakdown) for breakdown in breakdowns]

    def iteration_energy(
        self, seconds: float, breakdown: IterationBreakdown
    ) -> float:
        # Both devices are busy every overlapped cycle.
        return self.overlapped_energy(seconds)
