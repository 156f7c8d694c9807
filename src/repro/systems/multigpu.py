"""GPU-only multi-GPU baseline (Table I's 8-GPU p3.16xlarge system).

The embedding tables are partitioned table-wise across the GPUs' pooled HBM
(model parallelism) while the dense network trains data-parallel — the
configuration Section VI-F compares ScratchPipe's training cost against.
Every embedding operation runs at HBM speed; the costs that remain are the
all-to-all redistributing pooled embeddings/gradients, the dense all-reduce,
and per-iteration synchronisation.
"""

from __future__ import annotations

from repro.errors import SystemConfigError
from repro.model.config import ModelConfig, dense_parameter_bytes
from repro.systems.base import (
    BatchAccessStats,
    GPU_GROUP,
    IterationBreakdown,
    TrainingSystem,
    gpu_stage,
)
from repro.hardware.energy import GPU, EnergySlice

#: Fraction of extra GPU coalesce time per unit of duplication factor —
#: hot rows serialise atomic gradient updates, which is why the paper's
#: 8-GPU system is mildly *slower* on high-locality datasets (Table I:
#: 18.61 ms for High vs 16.22 ms for Random).
HOT_ROW_CONTENTION_ALPHA = 0.15

#: The multi-GPU reference implementations the paper compares against apply
#: gradients with atomic scatter-adds rather than a full sorted coalesce, so
#: updates to the same hot row serialise: effective scatter work scales with
#: the *total* gradient count, not the unique row count.
ATOMIC_SCATTER_ALPHA = 1.0


from repro.api.registry import register_system


@register_system(
    "multi_gpu",
    uses_num_gpus=True,
    description="GPU-only model-parallel baseline (Table I's 8-GPU system)",
)
class MultiGpuSystem(TrainingSystem):
    """Analytic timing model of the GPU-only model-parallel system."""

    name = "multi_gpu"

    def __init__(self, config: ModelConfig, hardware, num_gpus: int = 8) -> None:
        super().__init__(config, hardware)
        if num_gpus < 1:
            raise SystemConfigError(f"num_gpus must be >= 1, got {num_gpus}")
        self.num_gpus = num_gpus

    @classmethod
    def from_spec(cls, spec, config, hardware):
        system = cls(config, hardware, num_gpus=spec.num_gpus)
        system.spec = spec
        return system

    def iteration_breakdown(self, stats: BatchAccessStats) -> IterationBreakdown:
        """Price one iteration of the multi-GPU system."""
        cost = self.cost
        cfg = self.config
        per_gpu_lookups = stats.total_lookups / self.num_gpus
        per_gpu_unique = stats.unique_rows / self.num_gpus
        contention = 1.0 + HOT_ROW_CONTENTION_ALPHA * (
            stats.duplication_factor - 1.0
        )

        emb_forward = cost.embedding_gather(
            per_gpu_lookups, "gpu"
        ) + cost.embedding_reduce(per_gpu_lookups, "gpu")
        pooled_bytes_per_gpu = cfg.reduced_bytes_per_batch / self.num_gpus
        alltoall_fwd = cost.nvlink.allto_all_time(
            pooled_bytes_per_gpu, self.num_gpus
        )
        # Dense time is approximately batch-invariant under data parallelism
        # (GEMM efficiency falls with the per-GPU batch; Section VI-G).
        dense = cost.dense_train("gpu")
        allreduce = cost.nvlink.allreduce_time(
            dense_parameter_bytes(cfg), self.num_gpus
        )
        alltoall_bwd = cost.nvlink.allto_all_time(
            pooled_bytes_per_gpu, self.num_gpus
        )
        atomic_scatter_rows = per_gpu_unique * (
            1.0 + ATOMIC_SCATTER_ALPHA * (stats.duplication_factor - 1.0)
        )
        emb_backward = (
            cost.gradient_duplicate(per_gpu_lookups, "gpu")
            + cost.gradient_coalesce(per_gpu_lookups, "gpu") * contention
            + cost.gradient_scatter(atomic_scatter_rows, "gpu")
        )
        sync = self.hardware.stage_sync_s

        stages = (
            gpu_stage("emb_forward", GPU_GROUP, emb_forward),
            gpu_stage("alltoall_fwd", GPU_GROUP, alltoall_fwd),
            gpu_stage("dense_train", GPU_GROUP, dense),
            gpu_stage("allreduce", GPU_GROUP, allreduce),
            gpu_stage("alltoall_bwd", GPU_GROUP, alltoall_bwd),
            gpu_stage("emb_backward", GPU_GROUP, emb_backward),
            gpu_stage("sync", GPU_GROUP, sync),
        )
        return IterationBreakdown(stages=stages)

    def iteration_energy(
        self, seconds: float, breakdown: IterationBreakdown
    ) -> float:
        # All GPUs active; CPU idles.  Energy scaled by GPU count.
        per_gpu = self.energy_model.total_energy(
            [EnergySlice(seconds=seconds, busy=(GPU,))]
        )
        gpu_extra = (self.num_gpus - 1) * (
            self.hardware.power.gpu_active_w * seconds
        )
        return per_gpu + gpu_extra
