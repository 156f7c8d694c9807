"""Optimiser-state co-location: row-wise Adagrad inside the scratchpad.

The paper trains with SGD, whose updates are stateless per row.  Production
DLRM training typically uses row-wise Adagrad, which keeps one accumulator
per embedding row — and under ScratchPipe that accumulator must *migrate
with the row* between the CPU table and the GPU scratchpad, or the
post-eviction updates would restart the accumulator and diverge from the
reference algorithm.

The implementation rides on an observation: the pipeline's functional data
movement ([Collect]/[Exchange]/[Insert]) is agnostic to row width.  We
simply widen every row by one float32 column holding the accumulator:

* CPU tables become ``(rows, dim + 1)`` — column ``dim`` is the state;
* the scratchpad Storage becomes ``(slots, dim + 1)``;
* fills, victim reads and write-backs carry the state automatically;
* the [Train] callback splits the columns, performs the row-wise Adagrad
  update in float32 and writes both halves back.

Equivalence holds bit-for-bit against a sequential reference running
:class:`repro.model.adagrad.AdagradOptimizer` with ``state_dtype=float32``
(the tests verify it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import SystemConfigError, SystemInputError
from repro.core.pipeline import HazardMonitor, ScratchPipePipeline
from repro.core.scratchpad import GpuScratchpad, TablePlan, per_table
from repro.data.trace import MiniBatch
from repro.model.adagrad import DenseAdagrad
from repro.model.config import ModelConfig
from repro.model.dlrm import DenseNetwork
from repro.model.embedding import coalesce_gradients, duplicate_gradients
from repro.systems.scratchpipe_system import plan_lookups


def augment_tables(tables: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Append a zeroed float32 accumulator column to each weight table."""
    out = []
    for table in tables:
        if table.ndim != 2:
            raise SystemConfigError(f"expected (rows, dim) table, got {table.shape}")
        aux = np.zeros((table.shape[0], 1), dtype=np.float32)
        out.append(np.concatenate([table.astype(np.float32), aux], axis=1))
    return out


def split_tables(augmented: Sequence[np.ndarray]) -> tuple:
    """Split augmented tables back into ``(weights, accumulators)``."""
    weights = [t[:, :-1].copy() for t in augmented]
    accumulators = [t[:, -1].copy() for t in augmented]
    return weights, accumulators


@dataclass
class AdagradScratchPipeTrainer:
    """[Train] callback performing row-wise Adagrad against augmented rows.

    Indexes through the Plan like
    :class:`~repro.systems.scratchpipe_system.ScratchPipeTrainer`: one
    Storage read of the plan's unique rows feeds both the forward gather
    and the update.
    """

    config: ModelConfig
    dense_network: DenseNetwork
    lr: float = 0.01
    eps: float = 1e-10
    dense_optimizer: DenseAdagrad = field(init=False)
    losses: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.lr <= 0:
            raise SystemConfigError(f"lr must be positive, got {self.lr}")
        self.dense_optimizer = DenseAdagrad(lr=self.lr, eps=self.eps)

    def train(
        self,
        batch: MiniBatch,
        plans: Sequence[TablePlan],
        scratchpads: Sequence[GpuScratchpad],
    ) -> float:
        """One training iteration; weights and accumulators live together."""
        if batch.dense is None or batch.labels is None:
            raise SystemInputError("functional training requires dense inputs/labels")
        cfg = self.config
        dim = cfg.embedding_dim

        lookups = [
            plan_lookups(plans[t], scratchpads[t], batch.sparse_ids[t], t)
            for t in range(cfg.num_tables)
        ]
        pooled = np.stack(
            [rows[positions][..., :dim].sum(axis=1)
             for positions, rows in lookups],
            axis=1,
        )

        self.dense_network.forward(batch.dense, pooled)
        loss = self.dense_network.loss(batch.labels)
        grad_pooled = self.dense_network.backward(batch.labels)

        lr32 = np.float32(self.lr)
        # ``state`` is each table's unique rows as read for the forward
        # pass: nothing writes a held slot in between.
        for t, (positions, state) in enumerate(lookups):
            duplicated = duplicate_gradients(grad_pooled[:, t, :], positions.shape[1])
            grads = coalesce_gradients(
                positions, duplicated.reshape(-1, dim), len(state)
            )
            accumulator = state[:, dim]
            # Identical float32 expression order as SparseAdagrad with
            # state_dtype=float32 — bit-exact equivalence by construction.
            accumulator = accumulator + (
                grads.astype(np.float32) ** 2
            ).mean(axis=1)
            scale = lr32 / (np.sqrt(accumulator) + np.float32(self.eps))
            state[:, :dim] = state[:, :dim] - (
                scale[:, None] * grads
            ).astype(np.float32)
            state[:, dim] = accumulator
            scratchpads[t].write_slots(plans[t].slots, state)

        self.dense_optimizer.step(self.dense_network.bottom_mlp)
        self.dense_optimizer.step(self.dense_network.top_mlp)
        self.losses.append(loss)
        return loss


@dataclass
class AdagradScratchPipeRun:
    """End-to-end pipelined Adagrad training with state co-location.

    Args:
        config: Model geometry.
        weight_tables: Plain ``(rows, dim)`` initial weights per table;
            augmented internally with the accumulator column.
        dense_network: Dense model (trained with dense Adagrad).
        num_slots: Scratchpad capacity per table.
    """

    config: ModelConfig
    weight_tables: Sequence[np.ndarray]
    dense_network: DenseNetwork
    num_slots: object
    lr: float = 0.01
    eps: float = 1e-10
    policy_name: object = "lru"
    future_window: int = 2
    monitor: Optional[HazardMonitor] = None
    cpu_tables: List[np.ndarray] = field(init=False)
    scratchpads: List[GpuScratchpad] = field(init=False)
    trainer: AdagradScratchPipeTrainer = field(init=False)

    def __post_init__(self) -> None:
        self.cpu_tables = augment_tables(self.weight_tables)
        slots = per_table(self.num_slots, self.config.num_tables, "num_slots")
        policies = per_table(
            self.policy_name, self.config.num_tables, "policy_name"
        )
        self.scratchpads = [
            GpuScratchpad(
                num_slots=slots[table],
                num_rows=self.config.rows_per_table,
                dim=self.config.embedding_dim + 1,
                policy_name=policies[table],
                with_storage=True,
            )
            for table in range(self.config.num_tables)
        ]
        self.trainer = AdagradScratchPipeTrainer(
            config=self.config,
            dense_network=self.dense_network,
            lr=self.lr,
            eps=self.eps,
        )

    @classmethod
    def from_spec(
        cls,
        spec,
        config: ModelConfig,
        weight_tables: Sequence[np.ndarray],
        dense_network: DenseNetwork,
        lr: float = 0.01,
        eps: float = 1e-10,
        monitor: Optional[HazardMonitor] = None,
    ) -> "AdagradScratchPipeRun":
        """Adagrad training run described by a ``repro.api.SystemSpec``.

        The (possibly heterogeneous) cache spec sizes each table's
        storage-backed scratchpad independently.
        """
        from repro.api.specs import InvalidSystemSpecError

        if spec.cache is None:
            raise InvalidSystemSpecError(
                "a functional Adagrad ScratchPipe run requires a cache spec"
            )
        resolved = spec.cache.resolve(config.num_tables, config.rows_per_table)
        return cls(
            config=config,
            weight_tables=weight_tables,
            dense_network=dense_network,
            num_slots=tuple(r.slots for r in resolved),
            lr=lr,
            eps=eps,
            policy_name=tuple(r.policy for r in resolved),
            future_window=spec.pipeline.future_window,
            monitor=monitor,
        )

    def run(self, dataset_batches: object, num_batches: Optional[int] = None):
        """Run the functional pipeline; returns its ``PipelineResult``."""
        pipeline = ScratchPipePipeline(
            config=self.config,
            scratchpads=self.scratchpads,
            dataset_batches=dataset_batches,
            cpu_tables=self.cpu_tables,
            trainer=self.trainer,
            future_window=self.future_window,
            monitor=self.monitor,
        )
        return pipeline.run(num_batches)

    def final_state(self) -> tuple:
        """``(weights, accumulators)`` with cached rows merged back."""
        merged = [t.copy() for t in self.cpu_tables]
        for t, scratchpad in enumerate(self.scratchpads):
            keys = scratchpad.hit_map.keys()
            if keys.size:
                slots = scratchpad.hit_map.slots_of_keys(keys)
                merged[t][keys] = scratchpad.storage[slots]
        return split_tables(merged)
