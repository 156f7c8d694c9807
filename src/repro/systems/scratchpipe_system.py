"""The pipelined ScratchPipe system: timing model + functional trainer.

Timing: every batch's five stage latencies are priced exactly like the
straw-man's, but the stages of *different* batches overlap (Figure 10), so
the steady-state iteration time is the per-cycle maximum across the stages
currently occupied — plus a per-cycle synchronisation overhead — instead of
the per-batch sum.  That cycle rule lives in :mod:`repro.core.timeline`;
:meth:`ScratchPipeSystem.stream_breakdowns` is the one stream of priced
stages that ``run_trace``, the live replay (:mod:`repro.serve`), the CLI
``timeline`` command and the examples read.

Functional: :class:`ScratchPipeTrainer` implements the [Train] stage
callback of :class:`repro.core.pipeline.ScratchPipePipeline`, performing the
entire embedding forward/backward against the GPU scratchpad's Storage
array — the paper's "training at GPU memory speed".
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import PlanMismatchError, SystemConfigError, SystemInputError
from repro.api.registry import register_system
from repro.api.specs import InvalidSystemSpecError, SystemSpec
from repro.core.pipeline import (
    BatchCacheStats,
    HazardMonitor,
    ScratchPipePipeline,
)
from repro.core.scratchpad import (
    GpuScratchpad,
    TablePlan,
    hazard_floor_slots,
    make_scratchpads,
)
from repro.core.timeline import PipelineTimeline
from repro.data.trace import MiniBatch
from repro.model.adagrad import AdagradOptimizer
from repro.model.config import ModelConfig
from repro.model.dlrm import DenseNetwork
from repro.model.embedding import coalesce_gradients, duplicate_gradients
from repro.model.optimizer import SGD
from repro.systems.base import IterationBreakdown, StageTime, TrainingSystem
from repro.systems.stages import cache_stage_times


@dataclass
class AggregateCacheStats:
    """Running totals of a streamed metadata run.

    Attributes mirror the per-batch :class:`BatchCacheStats` counters,
    summed over every retired batch past the warm-up prefix, plus
    per-table rollups — the observable the heterogeneous-cache studies
    read (how does table 0's 4 % cache fare against table 3's 0.5 %?).
    """

    batches: int = 0
    total_lookups: int = 0
    unique_ids: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    per_table_hits: Tuple[int, ...] = ()
    per_table_unique: Tuple[int, ...] = ()
    per_table_misses: Tuple[int, ...] = ()

    @property
    def hit_rate(self) -> float:
        """Hits over unique planned IDs (the Plan-stage hit rate)."""
        if self.unique_ids == 0:
            return 0.0
        return self.hits / self.unique_ids

    def per_table_hit_rates(self) -> Tuple[float, ...]:
        """Plan-stage hit rate of each table's cache manager."""
        return tuple(
            hits / unique if unique else 0.0
            for hits, unique in zip(self.per_table_hits, self.per_table_unique)
        )

    def add(self, stats: BatchCacheStats) -> None:
        """Fold one retired batch's counters into the running totals."""
        self.batches += 1
        self.total_lookups += stats.total_lookups
        self.unique_ids += stats.unique_ids
        self.hits += stats.hits
        self.misses += stats.misses
        self.writebacks += stats.writebacks
        if stats.per_table_hits:
            if self.per_table_hits:
                self.per_table_hits = tuple(
                    a + b for a, b in zip(self.per_table_hits,
                                          stats.per_table_hits)
                )
                self.per_table_unique = tuple(
                    a + b for a, b in zip(self.per_table_unique,
                                          stats.per_table_unique)
                )
                self.per_table_misses = tuple(
                    a + b for a, b in zip(self.per_table_misses,
                                          stats.per_table_misses)
                )
            else:
                self.per_table_hits = tuple(stats.per_table_hits)
                self.per_table_unique = tuple(stats.per_table_unique)
                self.per_table_misses = tuple(stats.per_table_misses)


@register_system(
    "scratchpipe",
    requires_cache=True,
    description="Pipelined ScratchPipe: dynamic per-table GPU cache, "
                "6-stage pipeline (the paper's design)",
)
class ScratchPipeSystem(TrainingSystem):
    """Timing model of the pipelined ScratchPipe design point.

    Built from a :class:`~repro.api.specs.SystemSpec`, normally through
    ``repro.api.build_system`` (which also enforces the hazard-window
    floor); uniform caches come from
    :func:`~repro.api.specs.uniform_system_spec`.  Each table's
    Hit-Map/Hold-mask/policy triple is sized independently from the
    resolved :class:`~repro.api.specs.CacheSpec`, and per-table
    statistics roll up through :class:`AggregateCacheStats`.
    """

    name = "scratchpipe"

    def __init__(
        self, config: ModelConfig, hardware, *, spec: SystemSpec
    ) -> None:
        super().__init__(config, hardware)
        if spec.system != self.name:
            raise InvalidSystemSpecError(
                f"spec names system {spec.system!r} but is being built as "
                f"{self.name!r}"
            )
        if spec.cache is None:
            raise InvalidSystemSpecError(
                f"{self.name} requires a cache spec"
            )
        if config.num_tables % spec.num_gpus != 0:
            raise SystemConfigError(
                f"num_gpus ({spec.num_gpus}) must divide num_tables "
                f"({config.num_tables}) for table-wise partitioning"
            )
        self.spec = spec
        resolved = spec.cache.resolve(config.num_tables, config.rows_per_table)
        #: Per-table scratchpad capacities/policies (uniform specs repeat
        #: one value; the heterogeneous path sizes each independently).
        self.table_slots: Tuple[int, ...] = tuple(r.slots for r in resolved)
        self.table_policies: Tuple[str, ...] = tuple(r.policy for r in resolved)
        self.future_window = spec.pipeline.future_window
        self.executor = spec.pipeline.executor
        self._scratchpads: Optional[List[GpuScratchpad]] = None

    @classmethod
    def from_spec(cls, spec, config, hardware):
        return cls(config, hardware, spec=spec)

    @classmethod
    def min_cache_slots(cls, spec, config):
        """Hold-mask hazard floor: ``past_window + 1`` worst-case batches.

        Any table sized below this can exhaust hazard-free victims
        mid-run (``CachePressureError``); ``build_system`` rejects such
        specs at construction instead (see
        :func:`repro.core.scratchpad.hazard_floor_slots`).
        """
        return hazard_floor_slots(
            config, past_window=spec.scratchpad.past_window
        )

    def _reusable_scratchpads(self) -> List[GpuScratchpad]:
        """Metadata-only scratchpads, built once per system and reset per run.

        Each scratchpad owns a dense ``rows_per_table``-sized Hit-Map index
        (~320 MB across tables at paper scale); sweep runners evaluate many
        grid points against one system instance, so the index is allocated
        once and wiped in place between runs.
        """
        if self._scratchpads is None:
            self._scratchpads = make_scratchpads(
                self.config,
                self.table_slots,
                policy_name=self.table_policies,
                with_storage=self.spec.scratchpad.with_storage,
                past_window=self.spec.scratchpad.past_window,
            )
        else:
            for scratchpad in self._scratchpads:
                scratchpad.reset()
        return self._scratchpads

    def simulate_cache(
        self,
        dataset_batches: object,
        num_batches: Optional[int] = None,
        monitor: Optional[HazardMonitor] = None,
    ) -> List[BatchCacheStats]:
        """Metadata-only pipeline run returning per-batch cache statistics.

        Args:
            dataset_batches: Random-access batch source.
            num_batches: Prefix length (default: whole trace).
            monitor: Optional :class:`HazardMonitor` to attach, verifying
                hazard freedom alongside the statistics run.
        """
        return list(self.stream_cache_stats(dataset_batches, num_batches, monitor))

    def stream_cache_stats(
        self,
        dataset_batches: object,
        num_batches: Optional[int] = None,
        monitor: Optional[HazardMonitor] = None,
    ):
        """Streaming twin of :meth:`simulate_cache`.

        Yields each batch's :class:`BatchCacheStats` as it retires instead
        of accumulating the list, so arbitrarily long scenario traces flow
        through the system at constant memory (the pipeline holds only its
        six in-flight batches and the source generates chunk-wise).
        """
        pipeline = ScratchPipePipeline(
            config=self.config,
            scratchpads=self._reusable_scratchpads(),
            dataset_batches=dataset_batches,
            future_window=self.future_window,
            monitor=monitor,
            executor=self.executor,
        )
        return pipeline.stream(num_batches)

    def aggregate_cache_stats(
        self,
        dataset_batches: object,
        num_batches: Optional[int] = None,
        warmup: int = 0,
    ) -> "AggregateCacheStats":
        """Whole-trace cache totals, computed streamingly.

        The reduction the locality-sensitivity studies want (hit rate under
        drift/churn/burst) without materialising per-batch statistics —
        memory stays flat in the trace length.

        Mirrors the ``SystemRunResult`` warm-up convention: a trace no
        longer than ``warmup`` aggregates over every batch instead of
        silently reducing nothing.
        """
        steady = AggregateCacheStats()
        full = AggregateCacheStats()
        for stats in self.stream_cache_stats(dataset_batches, num_batches):
            for totals in ((full, steady) if stats.batch_index >= warmup
                           else (full,)):
                totals.add(stats)
        return steady if steady.batches else full

    def stage_times(self, stats: BatchCacheStats) -> Dict[str, StageTime]:
        """One retired batch's five priced stages, keyed by stage name."""
        return cache_stage_times(self.cost, stats, self.future_window)

    def stream_breakdowns(
        self, dataset_batches: object, num_batches: Optional[int] = None
    ) -> Iterator[IterationBreakdown]:
        """Each retired batch's priced stages, streamed in trace order."""
        for stats in self.stream_cache_stats(dataset_batches, num_batches):
            yield IterationBreakdown(
                stages=tuple(self.stage_times(stats).values())
            )

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
