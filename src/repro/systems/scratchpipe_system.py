"""The pipelined ScratchPipe system: timing model + functional trainer.

Timing: :class:`ScratchPipeSystem` is a
:class:`~repro.systems.strawman_system.StrawmanSystem` (the same per-table
caches, metadata stream and stage prices) whose stages of *different*
batches overlap (Figure 10), so the steady-state iteration time is the
per-cycle maximum across the stages currently occupied — plus a per-cycle
synchronisation overhead — instead of the per-batch sum.  That cycle rule
lives in :mod:`repro.core.timeline`; ``stream_breakdowns`` is the one
stream of priced stages that ``run_trace``, the live replay
(:mod:`repro.serve`), the CLI ``timeline`` command and the examples read.

Functional: :class:`ScratchPipeTrainer` implements the [Train] stage
callback of :class:`repro.core.pipeline.ScratchPipePipeline`, performing the
entire embedding forward/backward against the GPU scratchpad's Storage
array — the paper's "training at GPU memory speed".
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import PlanMismatchError, SystemInputError
from repro.api.registry import register_system
from repro.api.specs import InvalidSystemSpecError, SystemSpec
from repro.core.pipeline import HazardMonitor, ScratchPipePipeline
from repro.core.scratchpad import GpuScratchpad, TablePlan, make_scratchpads
from repro.core.timeline import PipelineTimeline
from repro.data.trace import MiniBatch
from repro.model.adagrad import AdagradOptimizer
from repro.model.config import ModelConfig
from repro.model.dlrm import DenseNetwork
from repro.model.embedding import coalesce_gradients, duplicate_gradients
from repro.model.optimizer import SGD
from repro.systems.base import IterationBreakdown
from repro.systems.strawman_system import StrawmanSystem


@register_system(
    "scratchpipe",
    requires_cache=True,
    description="Pipelined ScratchPipe: dynamic per-table GPU cache, "
                "6-stage pipeline (the paper's design)",
)
class ScratchPipeSystem(StrawmanSystem):
    """Timing model of the pipelined ScratchPipe design point.

    The straw-man's per-table caches, metadata stream and stage pricing,
    plus what Section IV-C adds: the spec's hold and lookahead windows
    (and so a hazard floor of ``past_window + 1`` worst-case batches),
    the pipelined cycle of :mod:`repro.core.timeline` and both devices
    busy every cycle.
    """

    name = "scratchpipe"

    @classmethod
    def windows(cls, spec: SystemSpec) -> Tuple[int, int]:
        """The spec's windows (3 and 2 in the paper)."""
        return spec.scratchpad.past_window, spec.pipeline.future_window

    def iteration_times(
        self, breakdowns: Sequence[IterationBreakdown]
    ) -> List[float]:
        """The pipelined cycle each batch retires in (see
        :mod:`repro.core.timeline`)."""
        if not breakdowns:
            return []
        return PipelineTimeline(
            stage_seconds=[breakdown.by_stage() for breakdown in breakdowns],
            sync_seconds=self.hardware.stage_sync_s,
        ).retired_cycle_seconds()

    def iteration_energy(
        self, seconds: float, breakdown: IterationBreakdown
    ) -> float:
        # Both devices stay busy during a pipelined cycle (the GPU trains
        # while the CPU collects/inserts for other batches).
        return self.overlapped_energy(seconds)


def plan_lookups(
    plan: TablePlan, scratchpad: GpuScratchpad, ids: np.ndarray, table: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Resolve one table's batch lookups through its plan, for [Train].

    Returns ``(positions, rows)``: each lookup's position in the plan's
    unique IDs (shape of ``ids``) and the plan's unique rows, read once
    from Storage.  Pool with ``rows[positions]``, coalesce by
    ``positions``, update ``rows`` and write them back through
    ``plan.slots``.

    Raises:
        PlanCoverageError: the batch looks up an ID the plan does not cover.
        PlanMismatchError: the plan covers an ID the batch never looks up,
            so the plan belongs to another batch.
    """
    positions, distinct = plan.locate(ids)
    if distinct != plan.num_unique:
        raise PlanMismatchError(
            f"plan/batch mismatch for table {table}: the plan covers "
            f"{plan.num_unique - distinct} unique IDs the batch never "
            "looks up — the plan does not belong to this batch"
        )
    return positions, scratchpad.read_slots(plan.slots)


#: Optimisers the functional trainer accepts: each applies its dense step
#: through ``DenseNetwork.step`` and its embedding step through
#: ``update_rows(rows, grads)`` on the plan's Storage rows.
RowOptimizer = Union[SGD, AdagradOptimizer]


@dataclass
class ScratchPipeTrainer:
    """Functional [Train] stage: embedding + dense training on the scratchpad.

    Train indexes everything through the Plan.  Each table's unique rows
    are read from Storage once, through the slots Plan assigned; every
    lookup gathers its row by its position among them, gradients coalesce
    by position, and the updated rows go back through the same slots.  If
    the plan missed any ID the position lookup would raise, so a completed
    run *is* the always-hit guarantee.

    Pooling reads the first ``embedding_dim`` columns of each row; any
    further columns are optimiser state that
    ``optimizer.update_rows`` keeps (row-wise Adagrad's co-located
    accumulator, see :func:`repro.model.adagrad.augment_tables`).
    """

    config: ModelConfig
    dense_network: DenseNetwork
    optimizer: RowOptimizer = field(default_factory=SGD)

    def train(
        self,
        batch: MiniBatch,
        plans: Sequence[TablePlan],
        scratchpads: Sequence[GpuScratchpad],
    ) -> float:
        """Run one full training iteration against the scratchpads."""
        if batch.dense is None or batch.labels is None:
            raise SystemInputError("functional training requires dense inputs/labels")
        cfg = self.config
        dim = cfg.embedding_dim
        lookups = [
            plan_lookups(plans[t], scratchpads[t], batch.sparse_ids[t], t)
            for t in range(cfg.num_tables)
        ]
        pooled = np.stack(
            [rows[positions][..., :dim].sum(axis=1) for positions, rows in lookups],
            axis=1,
        )

        self.dense_network.forward(batch.dense, pooled)
        loss = self.dense_network.loss(batch.labels)
        grad_pooled = self.dense_network.backward(batch.labels)

        # Nothing writes a held slot between the reads above and the
        # writes below, so ``rows`` is still what Storage holds.
        for t, (positions, rows) in enumerate(lookups):
            duplicated = duplicate_gradients(grad_pooled[:, t, :], positions.shape[1])
            grads = coalesce_gradients(
                positions, duplicated.reshape(-1, dim), len(rows)
            )
            scratchpads[t].write_slots(
                plans[t].slots, self.optimizer.update_rows(rows, grads)
            )
        self.dense_network.step(self.optimizer)
        return loss


@dataclass
class ScratchPipeTrainingRun:
    """Convenience wrapper: functional end-to-end ScratchPipe training.

    Builds storage-backed scratchpads over the given CPU master tables,
    wires in a :class:`ScratchPipeTrainer` and runs the full pipeline.
    After :meth:`run`, :meth:`final_tables` returns the authoritative
    weights (CPU master with the still-cached scratchpad rows merged back),
    which equivalence tests compare against sequential baseline training.

    ``past_window`` only sizes the scratchpads' hold masks, so it is an
    init-only argument; ``scratchpads[t].past_window`` holds it afterwards.

    Storage rows are as wide as the CPU tables.  For row-wise Adagrad,
    pass ``augment_tables(weights)`` and
    ``AdagradOptimizer(state_dtype=np.float32)``: each row's accumulator
    rides in its last column through every fill and write-back, and
    ``split_tables(run.final_tables())`` returns weights and accumulators.
    """

    config: ModelConfig
    cpu_tables: List[np.ndarray]
    dense_network: DenseNetwork
    num_slots: Union[int, Sequence[int]]
    optimizer: RowOptimizer = field(default_factory=SGD)
    policy_name: Union[str, Sequence[str]] = "lru"
    future_window: int = 2
    monitor: Optional[HazardMonitor] = None
    executor: str = "serial"
    past_window: InitVar[int] = 3
    scratchpads: List[GpuScratchpad] = field(init=False)
    trainer: ScratchPipeTrainer = field(init=False)

    def __post_init__(self, past_window: int) -> None:
        self.scratchpads = make_scratchpads(
            self.config,
            self.num_slots,
            policy_name=self.policy_name,
            with_storage=True,
            past_window=past_window,
            dim=[table.shape[1] for table in self.cpu_tables],
        )
        self.trainer = ScratchPipeTrainer(
            config=self.config,
            dense_network=self.dense_network,
            optimizer=self.optimizer,
        )

    @classmethod
    def from_spec(
        cls,
        spec: SystemSpec,
        config: ModelConfig,
        cpu_tables: List[np.ndarray],
        dense_network: DenseNetwork,
        optimizer: Optional[RowOptimizer] = None,
        monitor: Optional[HazardMonitor] = None,
    ) -> "ScratchPipeTrainingRun":
        """Functional training run described by a ``SystemSpec``.

        Resolves the (possibly per-table heterogeneous) cache spec into
        independently sized storage-backed scratchpads, with the spec's
        hold and lookahead windows and executor.
        """
        if spec.cache is None:
            raise InvalidSystemSpecError(
                "a functional ScratchPipe run requires a cache spec"
            )
        resolved = spec.cache.resolve(config.num_tables, config.rows_per_table)
        return cls(
            config=config,
            cpu_tables=cpu_tables,
            dense_network=dense_network,
            num_slots=tuple(r.slots for r in resolved),
            optimizer=optimizer if optimizer is not None else SGD(),
            policy_name=tuple(r.policy for r in resolved),
            future_window=spec.pipeline.future_window,
            monitor=monitor,
            executor=spec.pipeline.executor,
            past_window=spec.scratchpad.past_window,
        )

    def run(self, dataset_batches: object, num_batches: Optional[int] = None):
        """Run the functional pipeline; returns its :class:`PipelineResult`."""
        pipeline = ScratchPipePipeline(
            config=self.config,
            scratchpads=self.scratchpads,
            dataset_batches=dataset_batches,
            cpu_tables=self.cpu_tables,
            trainer=self.trainer,
            future_window=self.future_window,
            monitor=self.monitor,
            executor=self.executor,
        )
        return pipeline.run(num_batches)

    def final_tables(self) -> List[np.ndarray]:
        """CPU master tables with cached dirty rows merged back in."""
        merged = [t.copy() for t in self.cpu_tables]
        for t, scratchpad in enumerate(self.scratchpads):
            keys = scratchpad.hit_map.keys()
            if keys.size:
                slots = scratchpad.hit_map.slots_of_keys(keys)
                merged[t][keys] = scratchpad.storage[slots]
        return merged
