"""The baseline hybrid CPU-GPU system without caching (Figure 4(a)).

Embedding tables live in CPU DRAM; every gather, reduction, gradient
duplication/coalescing and scatter executes at CPU memory speed.  The GPU
only sees the pooled embeddings (shipped over PCIe) and runs the dense
network; pooled gradients travel back over PCIe for the CPU-side embedding
backward pass.  This is the design whose memory-bandwidth bottleneck the
whole paper sets out to remove.
"""

from __future__ import annotations

from typing import Optional

from repro.model.config import ModelConfig
from repro.systems.base import (
    CPU_EMB_BACKWARD,
    CPU_EMB_FORWARD,
    GPU_GROUP,
    BatchAccessStats,
    IterationBreakdown,
    SystemRunResult,
    TrainingSystem,
    batch_access_stats,
    cpu_stage,
    gpu_stage,
    transfer_stage,
)


from repro.api.registry import register_system


@register_system(
    "hybrid",
    description="No-cache hybrid CPU-GPU baseline (Figure 4(a))",
)
class HybridSystem(TrainingSystem):
    """Timing model of the no-cache hybrid CPU-GPU baseline."""

    name = "hybrid"

    def iteration_breakdown(self, stats: BatchAccessStats) -> IterationBreakdown:
        """Price one iteration given the batch's ID statistics."""
        cost = self.cost
        lookups = stats.total_lookups
        unique = stats.unique_rows
        stages = (
            cpu_stage(
                "cpu_gather",
                CPU_EMB_FORWARD,
                cost.embedding_gather(lookups, "cpu"),
            ),
            cpu_stage(
                "cpu_reduce",
                CPU_EMB_FORWARD,
                cost.embedding_reduce(lookups, "cpu"),
            ),
            transfer_stage("pooled_to_gpu", GPU_GROUP, cost.pooled_transfer()),
            gpu_stage("dense_train", GPU_GROUP, cost.dense_train("gpu")),
            transfer_stage("grads_to_cpu", GPU_GROUP, cost.pooled_transfer()),
            cpu_stage(
                "cpu_grad_duplicate",
                CPU_EMB_BACKWARD,
                cost.gradient_duplicate(lookups, "cpu"),
            ),
            cpu_stage(
                "cpu_grad_coalesce",
                CPU_EMB_BACKWARD,
                cost.gradient_coalesce(lookups, "cpu"),
            ),
            cpu_stage(
                "cpu_grad_scatter",
                CPU_EMB_BACKWARD,
                cost.gradient_scatter(unique, "cpu"),
            ),
        )
        return IterationBreakdown(stages=stages)

    def run_trace(
        self, dataset_batches: object, num_batches: Optional[int] = None
    ) -> SystemRunResult:
        total = len(dataset_batches)
        num_batches = total if num_batches is None else num_batches
        result = SystemRunResult(system=self.name)
        for index in range(num_batches):
            stats = batch_access_stats(dataset_batches.batch(index))
            breakdown = self.iteration_breakdown(stats)
            result.breakdowns.append(breakdown)
            result.iteration_times.append(breakdown.total)
            result.energies.append(breakdown.sequential_energy(self.energy_model))
        return result
