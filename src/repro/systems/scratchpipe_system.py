"""The pipelined ScratchPipe system: timing model + functional trainer.

Timing: every batch's five stage latencies are priced exactly like the
straw-man's, but the stages of *different* batches overlap (Figure 10), so
the steady-state iteration time is the per-cycle maximum across the stages
currently occupied — plus a per-cycle synchronisation overhead — instead of
the per-batch sum.

Functional: :class:`ScratchPipeTrainer` implements the [Train] stage
callback of :class:`repro.core.pipeline.ScratchPipePipeline`, performing the
entire embedding forward/backward against the GPU scratchpad's Storage
array — the paper's "training at GPU memory speed".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import PlanMismatchError, SystemInputError
from repro.api.registry import register_system
from repro.api.specs import InvalidSystemSpecError, SystemSpec
from repro.core.pipeline import (
    PRICED_STAGE_OFFSETS,
    BatchCacheStats,
    HazardMonitor,
    ScratchPipePipeline,
)
from repro.core.scratchpad import (
    GpuScratchpad,
    TablePlan,
    hazard_floor_slots,
    per_table,
)
from repro.data.trace import MiniBatch
from repro.hardware.energy import CPU, GPU, EnergySlice
from repro.model.config import ModelConfig
from repro.model.dlrm import DenseNetwork
from repro.model.embedding import coalesce_gradients, duplicate_gradients
from repro.model.optimizer import SGD
from repro.systems.base import IterationBreakdown, SystemRunResult, TrainingSystem
from repro.systems.stages import CACHE_STAGES, cache_stage_times


def _pipelined_cycle_times(
    stage_times: Sequence[Dict[str, float]], sync: float
) -> List[float]:
    """Per-retired-batch cycle times of the 6-stage pipeline.

    The cycle in which batch ``b`` trains takes as long as its slowest
    occupied stage plus the sync overhead.  Batches that retire during
    pipeline *drain* (the trailing cycles where upstream stages sit empty)
    would otherwise look artificially cheap — on a long-running job every
    retiring batch shares the pipe with five younger ones — so drain-cycle
    batches are attributed the mean fully-occupied (steady-state) cycle.

    Implemented as a sliding-window max: stage ``s`` of batch ``b`` occupies
    cycle ``b + offset(s)``, so laying each stage column into a
    cycle-indexed matrix shifted by its offset turns the per-cycle
    "max over occupied stages" into one row-wise ``max`` over the matrix.
    """
    num_batches = len(stage_times)
    if num_batches == 0:
        return []
    stages = tuple(PRICED_STAGE_OFFSETS)
    times = np.array(
        [[st[stage] for stage in stages] for st in stage_times], dtype=np.float64
    )
    train_offset = PRICED_STAGE_OFFSETS["train"]
    last_cycle = num_batches - 1 + train_offset
    shifted = np.full((last_cycle + 1, len(stages)), -np.inf)
    for column, stage in enumerate(stages):
        offset = PRICED_STAGE_OFFSETS[stage]
        shifted[offset : offset + num_batches, column] = times[:, column]
    occupied = shifted != -np.inf
    cycle_times = shifted.max(axis=1) + sync
    cycle_of_batch = cycle_times[train_offset : train_offset + num_batches].tolist()
    fully_occupied = cycle_times[occupied.sum(axis=1) == len(stages)]
    if fully_occupied.size:
        # Sequential sum keeps the mean bit-identical to the original
        # accumulate-in-cycle-order loop.
        steady = sum(fully_occupied.tolist()) / fully_occupied.size
        drain_start = num_batches - (train_offset - 1)
        for batch_index in range(max(0, drain_start), num_batches):
            cycle_of_batch[batch_index] = steady
    return cycle_of_batch


def make_scratchpads(
    config: ModelConfig,
    num_slots: Union[int, Sequence[int]],
    policy_name: Union[str, Sequence[str]] = "lru",
    with_storage: bool = False,
    past_window: int = 3,
) -> List[GpuScratchpad]:
    """Build one pipelined-mode scratchpad per table.

    ``num_slots`` and ``policy_name`` accept either a uniform scalar or a
    per-table sequence — the heterogeneous-cache path sizes each table's
    Hit-Map/Hold-mask/policy independently.
    """
    slots = per_table(num_slots, config.num_tables, "num_slots")
    policies = per_table(policy_name, config.num_tables, "policy_name")
    return [
        GpuScratchpad(
            num_slots=slots[table],
            num_rows=config.rows_per_table,
            dim=config.embedding_dim,
            past_window=past_window,
            policy_name=policies[table],
            with_storage=with_storage,
            table_index=table,
        )
        for table in range(config.num_tables)
    ]


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
        pipeline = ScratchPipePipeline(
            config=self.config,
            scratchpads=self._reusable_scratchpads(),
            dataset_batches=dataset_batches,
            future_window=self.future_window,
            monitor=monitor,
            executor=self.executor,
        )
        return pipeline.run(num_batches).cache_stats

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

    def run_trace(
        self, dataset_batches: object, num_batches: Optional[int] = None
    ) -> SystemRunResult:
        total = len(dataset_batches)
        num_batches = total if num_batches is None else num_batches
        all_stats = self.simulate_cache(dataset_batches, num_batches)

        # Price each batch's stages.
        stage_times: List[Dict[str, float]] = []
        result = SystemRunResult(system=self.name)
        for stats in all_stats:
            priced = cache_stage_times(self.cost, stats, self.future_window)
            stage_times.append({k: v.seconds for k, v in priced.items()})
            result.breakdowns.append(
                IterationBreakdown(stages=tuple(priced.values()))
            )

        # Pipeline timing: cycle c advances every in-flight batch one stage;
        # the cycle takes as long as its slowest occupied stage.
        cycle_of_batch = _pipelined_cycle_times(
            stage_times, self.hardware.stage_sync_s
        )

        for index in range(num_batches):
            result.iteration_times.append(cycle_of_batch[index])
            # Both devices stay busy during a pipelined cycle (the GPU
            # trains while the CPU collects/inserts for other batches).
            result.energies.append(
                self.energy_model.total_energy(
                    [EnergySlice(seconds=cycle_of_batch[index], busy=(CPU, GPU))]
                )
            )
        return result


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
    positions = plan.positions_for(ids)
    counts = np.bincount(positions.reshape(-1), minlength=plan.num_unique)
    if not counts.all():
        raise PlanMismatchError(
            f"plan/batch mismatch for table {table}: the plan covers "
            f"{int(np.count_nonzero(counts == 0))} unique IDs the batch never "
            "looks up — the plan does not belong to this batch"
        )
    return positions, scratchpad.read_slots(plan.slots)


@dataclass
class ScratchPipeTrainer:
    """Functional [Train] stage: embedding + dense training on the scratchpad.

    Train indexes everything through the Plan.  Each table's unique rows
    are read from Storage once, through the slots Plan assigned; every
    lookup gathers its row by its position among them, gradients coalesce
    by position, and the updated rows go back through the same slots.  If
    the plan missed any ID the position lookup would raise, so a completed
    run *is* the always-hit guarantee.
    """

    config: ModelConfig
    dense_network: DenseNetwork
    optimizer: SGD = field(default_factory=SGD)
    losses: List[float] = field(default_factory=list)

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
        lookups = [
            plan_lookups(plans[t], scratchpads[t], batch.sparse_ids[t], t)
            for t in range(cfg.num_tables)
        ]
        pooled = np.stack(
            [rows[positions].sum(axis=1) for positions, rows in lookups], axis=1
        )

        self.dense_network.forward(batch.dense, pooled)
        loss = self.dense_network.loss(batch.labels)
        grad_pooled = self.dense_network.backward(batch.labels)

        # Nothing writes a held slot between the reads above and the
        # writes below, so ``rows`` is still what Storage holds.
        for t, (positions, rows) in enumerate(lookups):
            duplicated = duplicate_gradients(grad_pooled[:, t, :], positions.shape[1])
            grads = coalesce_gradients(
                positions, duplicated.reshape(-1, cfg.embedding_dim), len(rows)
            )
            scratchpads[t].write_slots(
                plans[t].slots, rows - self.optimizer.lr * grads
            )
        self.dense_network.step(self.optimizer)
        self.losses.append(loss)
        return loss


@dataclass
class ScratchPipeTrainingRun:
    """Convenience wrapper: functional end-to-end ScratchPipe training.

    Builds storage-backed scratchpads over the given CPU master tables,
    wires in a :class:`ScratchPipeTrainer` and runs the full pipeline.
    After :meth:`run`, :meth:`final_tables` returns the authoritative
    weights (CPU master with the still-cached scratchpad rows merged back),
    which equivalence tests compare against sequential baseline training.
    """

    config: ModelConfig
    cpu_tables: List[np.ndarray]
    dense_network: DenseNetwork
    num_slots: Union[int, Sequence[int]]
    optimizer: SGD = field(default_factory=SGD)
    policy_name: Union[str, Sequence[str]] = "lru"
    future_window: int = 2
    monitor: Optional[HazardMonitor] = None
    executor: str = "serial"
    scratchpads: List[GpuScratchpad] = field(init=False)
    trainer: ScratchPipeTrainer = field(init=False)

    def __post_init__(self) -> None:
        self.scratchpads = make_scratchpads(
            self.config,
            self.num_slots,
            policy_name=self.policy_name,
            with_storage=True,
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
        optimizer: Optional[SGD] = None,
        monitor: Optional[HazardMonitor] = None,
    ) -> "ScratchPipeTrainingRun":
        """Functional training run described by a ``SystemSpec``.

        Resolves the (possibly per-table heterogeneous) cache spec into
        independently sized storage-backed scratchpads.
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
