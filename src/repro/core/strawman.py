"""The straw-man architecture: dynamic cache without pipelining (Section IV-B).

The straw-man executes the four cache-management steps
(``Query -> Collect -> Exchange -> Insert``) and the training steps
*sequentially* for every mini-batch (Figure 8).  With no concurrent
mini-batches in flight there are no RAW hazards to manage, so the hold
window only needs to protect the current batch (``past_window = 0``) and no
future lookahead is required.  Its cache-management latency sits squarely on
the critical path — which is precisely the limitation the pipelined
ScratchPipe removes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ScratchpadConfigError
from repro.core.hitmap import EMPTY
from repro.core.pipeline import BatchCacheStats, PipelineTrainer
from repro.core.scratchpad import GpuScratchpad, TablePlan
from repro.data.trace import MiniBatch
from repro.model.config import ModelConfig


@dataclass
class StrawmanCache:
    """Sequential dynamic-cache runtime (the paper's straw-man design point).

    Args:
        config: Model geometry.
        scratchpads: Per-table caches, built by
            :func:`~repro.core.scratchpad.make_scratchpads` with
            ``past_window=0`` (larger windows are legal but needlessly
            restrict victim choice).
        cpu_tables: Master tables for functional runs, or ``None`` for
            metadata-only statistics.
        trainer: Train-stage callback, or ``None``.
    """

    config: ModelConfig
    scratchpads: Sequence[GpuScratchpad]
    cpu_tables: Optional[List[np.ndarray]] = None
    trainer: Optional[PipelineTrainer] = None
    _losses: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.scratchpads) != self.config.num_tables:
            raise ScratchpadConfigError(
                f"need one scratchpad per table ({self.config.num_tables}), "
                f"got {len(self.scratchpads)}"
            )
        self._functional = self.cpu_tables is not None

    @property
    def losses(self) -> List[float]:
        """Losses of every trained batch, in order."""
        return self._losses

    def _exchange_and_insert(self, plans: List[TablePlan]) -> None:
        for table, plan in enumerate(plans):
            if plan.fill_slots.size == 0:
                continue
            scratchpad = self.scratchpads[table]
            # [Collect]: read missed rows from the CPU table and victim rows
            # from the scratchpad.
            missed_rows = self.cpu_tables[table][plan.miss_ids].copy()
            victim_rows = scratchpad.read_slots(plan.fill_slots).copy()
            # [Exchange] is a PCIe transfer (priced by the timing layer);
            # [Insert] lands both sides.
            dirty = plan.evicted_ids != EMPTY
            if dirty.any():
                self.cpu_tables[table][plan.evicted_ids[dirty]] = victim_rows[dirty]
            scratchpad.write_slots(plan.fill_slots, missed_rows)

    def run_batch(self, batch: MiniBatch) -> BatchCacheStats:
        """Process one mini-batch through all steps of Figure 8."""
        plans: List[TablePlan] = []
        for table, scratchpad in enumerate(self.scratchpads):
            # [Query]: sequential execution needs no future lookahead; the
            # batch's cached sorted-unique IDs feed the plan directly.
            plans.append(
                scratchpad.plan_batch(
                    batch.unique_table_ids(table), None, presorted_unique=True
                )
            )
        if self._functional:
            self._exchange_and_insert(plans)
        if self.trainer is not None:
            self._losses.append(self.trainer.train(batch, plans, self.scratchpads))
        return BatchCacheStats.from_plans(
            batch.index, self.config.lookups_per_batch, plans
        )

    def run(self, dataset_batches: object, num_batches: Optional[int] = None) -> List[BatchCacheStats]:
        """Process ``num_batches`` sequentially; returns per-batch stats."""
        total = len(dataset_batches)
        if num_batches is None:
            num_batches = total
        if not 0 < num_batches <= total:
            raise ScratchpadConfigError(
                f"num_batches must be in [1, {total}], got {num_batches}"
            )
        return [
            self.run_batch(dataset_batches.batch(i)) for i in range(num_batches)
        ]
