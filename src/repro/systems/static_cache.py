"""CPU-GPU system with a software-managed *static* GPU embedding cache.

Reproduces the caching baseline of Yin et al. that the paper compares
against (Figure 4(b)): the top-N most-frequently-accessed embeddings of each
table are pinned in GPU memory for the entire training run, never evicted.
Hits train at GPU speed; misses pay the full CPU gather / gradient
duplicate-coalesce-scatter path plus PCIe crossings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.errors import SystemConfigError
from repro.api.registry import register_system
from repro.api.specs import InvalidSystemSpecError, SystemSpec
from repro.core.scratchpad import per_table
from repro.data.trace import MiniBatch
from repro.model.config import ModelConfig
from repro.model.dlrm import DenseNetwork
from repro.model.embedding import coalesce_gradients, duplicate_gradients
from repro.model.optimizer import SGD
from repro.systems.scratchpipe_system import _legacy_shim_spec
from repro.systems.base import (
    CPU_EMB_BACKWARD,
    CPU_EMB_FORWARD,
    GPU_GROUP,
    IterationBreakdown,
    SystemRunResult,
    TrainingSystem,
    cpu_stage,
    gpu_stage,
    transfer_stage,
)


@dataclass(frozen=True)
class SplitStats:
    """Hit/miss split of one batch against the static hot set.

    Lookup counts include duplicates; unique counts do not.
    """

    hit_lookups: int
    miss_lookups: int
    hit_unique: int
    miss_unique: int

    @property
    def total_lookups(self) -> int:
        """All gathers issued by the batch."""
        return self.hit_lookups + self.miss_lookups

    @property
    def hit_rate(self) -> float:
        """Lookup-level hit rate against the static cache."""
        if self.total_lookups == 0:
            return 1.0
        return self.hit_lookups / self.total_lookups


def split_batch(
    batch: MiniBatch, hot_rows: Union[int, Tuple[int, ...]]
) -> SplitStats:
    """Split a batch's lookups into static-cache hits and misses.

    The synthetic distributions rank rows by popularity with row ID == rank,
    so the top-N hot set is exactly ``ids < hot_rows`` (see
    ``repro.data.distributions``).  ``hot_rows`` may be a per-table
    sequence (heterogeneous pinning budgets) or a uniform scalar.
    """
    thresholds = per_table(hot_rows, batch.num_tables, "hot_rows")
    hit_lookups = 0
    miss_lookups = 0
    hit_unique = 0
    miss_unique = 0
    for table in range(batch.num_tables):
        ids = batch.table_ids(table)
        hits = ids < thresholds[table]
        hit_lookups += int(hits.sum())
        miss_lookups += int(ids.size - hits.sum())
        unique = batch.unique_table_ids(table)
        unique_hits = int((unique < thresholds[table]).sum())
        hit_unique += unique_hits
        miss_unique += int(unique.size - unique_hits)
    return SplitStats(
        hit_lookups=hit_lookups,
        miss_lookups=miss_lookups,
        hit_unique=hit_unique,
        miss_unique=miss_unique,
    )


@register_system(
    "static_cache",
    requires_cache=True,
    description="Static top-N pinned GPU embedding cache (Figure 4(b))",
)
class StaticCacheSystem(TrainingSystem):
    """Timing model of the static-cache CPU-GPU design (Figure 4(b))."""

    name = "static_cache"

    def __init__(
        self,
        config: ModelConfig,
        hardware,
        cache_fraction: Optional[float] = None,
        *,
        spec: Optional[SystemSpec] = None,
    ) -> None:
        super().__init__(config, hardware)
        if spec is None:
            spec = _legacy_shim_spec(self.name, cache_fraction, "lru", 2)
        elif cache_fraction is not None:
            raise TypeError(
                "pass either a spec or positional cache parameters, not both"
            )
        if spec.cache is None:
            raise InvalidSystemSpecError(f"{self.name} requires a cache spec")
        self.spec = spec
        resolved = spec.cache.resolve(config.num_tables, config.rows_per_table)
        #: Per-table pinned-row budgets (replacement policy does not apply
        #: to a never-evicting static cache and is ignored).
        self.table_hot_rows: Tuple[int, ...] = tuple(r.slots for r in resolved)
        self.cache_fraction = (
            spec.cache.fraction if spec.cache.is_uniform else None
        )
        self.hot_rows: Union[int, Tuple[int, ...]] = (
            self.table_hot_rows[0] if spec.cache.is_uniform
            else self.table_hot_rows
        )

    @classmethod
    def from_spec(cls, spec, config, hardware):
        return cls(config, hardware, spec=spec)

    def iteration_breakdown(self, split: SplitStats) -> IterationBreakdown:
        """Price one iteration from the batch's hit/miss split."""
        cost = self.cost
        stages = (
            # Sparse IDs travel to the GPU where hit/miss is evaluated; the
            # missed IDs travel back for the CPU-side lookups.
            transfer_stage("ids_to_gpu", GPU_GROUP,
                           cost.id_transfer(split.total_lookups)),
            gpu_stage("hit_miss_eval", GPU_GROUP,
                      cost.hitmap_query(split.total_lookups)),
            transfer_stage("miss_ids_to_cpu", GPU_GROUP,
                           cost.id_transfer(split.miss_lookups)),
            cpu_stage("cpu_gather_missed", CPU_EMB_FORWARD,
                      cost.embedding_gather(split.miss_lookups, "cpu")),
            transfer_stage("missed_rows_to_gpu", CPU_EMB_FORWARD,
                           cost.row_transfer(split.miss_lookups)),
            gpu_stage("gpu_gather_hit", GPU_GROUP,
                      cost.embedding_gather(split.hit_lookups, "gpu")),
            gpu_stage("gpu_reduce", GPU_GROUP,
                      cost.embedding_reduce(split.total_lookups, "gpu")),
            gpu_stage("dense_train", GPU_GROUP, cost.dense_train("gpu")),
            gpu_stage(
                "gpu_grad_dup_coalesce_hit",
                GPU_GROUP,
                cost.gradient_duplicate(split.hit_lookups, "gpu")
                + cost.gradient_coalesce(split.hit_lookups, "gpu"),
            ),
            gpu_stage("gpu_scatter_hit", GPU_GROUP,
                      cost.gradient_scatter(split.hit_unique, "gpu")),
            transfer_stage("grads_to_cpu", CPU_EMB_BACKWARD,
                           cost.pooled_transfer()),
            cpu_stage(
                "cpu_grad_dup_coalesce_missed",
                CPU_EMB_BACKWARD,
                cost.gradient_duplicate(split.miss_lookups, "cpu")
                + cost.gradient_coalesce(split.miss_lookups, "cpu"),
            ),
            cpu_stage("cpu_scatter_missed", CPU_EMB_BACKWARD,
                      cost.gradient_scatter(split.miss_unique, "cpu")),
        )
        return IterationBreakdown(stages=stages)

    def run_trace(
        self, dataset_batches: object, num_batches: Optional[int] = None
    ) -> SystemRunResult:
        total = len(dataset_batches)
        num_batches = total if num_batches is None else num_batches
        result = SystemRunResult(system=self.name)
        for index in range(num_batches):
            split = split_batch(dataset_batches.batch(index), self.hot_rows)
            breakdown = self.iteration_breakdown(split)
            result.breakdowns.append(breakdown)
            result.iteration_times.append(breakdown.total)
            result.energies.append(breakdown.sequential_energy(self.energy_model))
        return result


@dataclass
class StaticCacheTrainer:
    """Functional static-cache training for the equivalence tests.

    Rows below ``hot_rows`` live in a GPU-side copy; the rest stay in the
    CPU master table.  Updates are applied wherever the row lives, so after
    merging the final weights must match sequential baseline training
    bit-for-bit (static caching changes data placement, not the algorithm).
    """

    config: ModelConfig
    cpu_tables: List[np.ndarray]
    hot_rows: int
    dense_network: DenseNetwork
    optimizer: SGD = field(default_factory=SGD)
    gpu_caches: List[np.ndarray] = field(init=False)

    def __post_init__(self) -> None:
        if not 0 <= self.hot_rows <= self.config.rows_per_table:
            raise SystemConfigError(
                f"hot_rows must be in [0, {self.config.rows_per_table}], "
                f"got {self.hot_rows}"
            )
        self.gpu_caches = [t[: self.hot_rows].copy() for t in self.cpu_tables]

    def _gather(self, table: int, ids: np.ndarray) -> np.ndarray:
        values = self.cpu_tables[table][ids]
        hits = ids < self.hot_rows
        if hits.any():
            values[hits] = self.gpu_caches[table][ids[hits]]
        return values

    def train_batch(self, batch: MiniBatch) -> float:
        """One training iteration through the split-placement tables."""
        cfg = self.config
        pooled = np.stack(
            [
                self._gather(t, batch.sparse_ids[t]).sum(axis=1)
                for t in range(cfg.num_tables)
            ],
            axis=1,
        )
        self.dense_network.forward(batch.dense, pooled)
        loss = self.dense_network.loss(batch.labels)
        grad_pooled = self.dense_network.backward(batch.labels)
        for t in range(cfg.num_tables):
            ids = batch.sparse_ids[t]
            duplicated = duplicate_gradients(grad_pooled[:, t, :], ids.shape[1])
            unique_ids, positions = np.unique(ids.reshape(-1), return_inverse=True)
            grads = coalesce_gradients(
                positions, duplicated.reshape(-1, cfg.embedding_dim), unique_ids.size
            )
            hits = unique_ids < self.hot_rows
            self.optimizer.scatter(
                self.gpu_caches[t], unique_ids[hits], grads[hits]
            )
            self.optimizer.scatter(
                self.cpu_tables[t], unique_ids[~hits], grads[~hits]
            )
        self.dense_network.step(self.optimizer)
        return loss

    def merged_tables(self) -> List[np.ndarray]:
        """Authoritative table weights (GPU cache merged over CPU master)."""
        merged = [t.copy() for t in self.cpu_tables]
        for t, cache in zip(merged, self.gpu_caches):
            t[: self.hot_rows] = cache
        return merged
