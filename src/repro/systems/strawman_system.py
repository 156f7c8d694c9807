"""The straw-man dynamic cache: ScratchPipe's caches without the pipeline.

The straw-man (Section IV-B, Figure 8) keeps a dynamic per-table GPU cache
and runs the same Plan/Collect/Exchange/Insert/Train stages as ScratchPipe,
but one mini-batch at a time, so its iteration latency is the *sum* of the
stage latencies — the cache-management steps sit on the critical path.
With no other batch in flight there is no RAW hazard to manage, so the hold
window protects only the current batch (past window 0) and Plan looks at no
future batch (future window 0).

:class:`StrawmanSystem` is therefore the plain dynamic-cache design: the
spec-sized scratchpads and the metadata stream of
:class:`~repro.core.pipeline.ScratchPipePipeline` with both windows at 0,
priced stage by stage and timed sequentially.  With both windows at 0 the
pipeline plans batch after batch exactly as a sequential loop would.
:class:`~repro.systems.scratchpipe_system.ScratchPipeSystem` adds what
Section IV-C adds: the spec's windows and the pipelined cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import SystemConfigError
from repro.api.registry import register_system
from repro.api.specs import InvalidSystemSpecError, SystemSpec
from repro.core.pipeline import (
    BatchCacheStats,
    HazardMonitor,
    ScratchPipePipeline,
)
from repro.core.scratchpad import (
    GpuScratchpad,
    hazard_floor_slots,
    make_scratchpads,
)
from repro.model.config import ModelConfig
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
        if not stats.per_table_hits:
            return
        for name in ("per_table_hits", "per_table_unique", "per_table_misses"):
            added = getattr(stats, name)
            totals = getattr(self, name) or (0,) * len(added)
            setattr(self, name, tuple(a + b for a, b in zip(totals, added)))


@register_system(
    "strawman",
    requires_cache=True,
    description="Sequential dynamic cache without pipelining (Section IV-B)",
)
class StrawmanSystem(TrainingSystem):
    """The dynamic-cache design point without pipelining (Section IV-B).

    Built from a :class:`~repro.api.specs.SystemSpec`, normally through
    ``repro.api.build_system`` (which also enforces the hazard-window
    floor); uniform caches come from
    :func:`~repro.api.specs.uniform_system_spec`.  Each table's
    Hit-Map/Hold-mask/policy triple is sized independently from the
    resolved :class:`~repro.api.specs.CacheSpec`, and per-table
    statistics roll up through :class:`AggregateCacheStats`.  The spec's
    hold and lookahead windows are ignored (see :meth:`windows`).
    """

    name = "strawman"

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
        self.past_window, self.future_window = self.windows(spec)
        self._scratchpads: Optional[List[GpuScratchpad]] = None

    @classmethod
    def from_spec(cls, spec, config, hardware):
        return cls(config, hardware, spec=spec)

    @classmethod
    def windows(cls, spec: SystemSpec) -> Tuple[int, int]:
        """``(past, future)``: the batches each table's hold mask protects
        besides the current one, and the upcoming batches [Plan] protects.
        With no other batch in flight, the straw-man pins both at 0."""
        return 0, 0

    @classmethod
    def min_cache_slots(cls, spec, config):
        """Hold-mask hazard floor: ``past_window + 1`` worst-case batches.

        Any table sized below this can exhaust hazard-free victims
        mid-run (``CachePressureError``); ``build_system`` rejects such
        specs at construction instead (see
        :func:`repro.core.scratchpad.hazard_floor_slots`).  The
        straw-man's floor is one batch: it holds no concurrent batches,
        but every batch still needs its own misses to fit.
        """
        return hazard_floor_slots(config, past_window=cls.windows(spec)[0])

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
                past_window=self.past_window,
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
        )
        return pipeline.stream(num_batches)

    def aggregate_cache_stats(
        self,
        dataset_batches: object,
        num_batches: Optional[int] = None,
        warmup: int = 0,
    ) -> AggregateCacheStats:
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
