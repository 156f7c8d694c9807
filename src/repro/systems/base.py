"""Shared infrastructure for the end-to-end training-system design points.

The paper evaluates four designs (Section VI): the hybrid CPU-GPU baseline,
a CPU-GPU with a static GPU embedding cache, the straw-man dynamic cache
without pipelining, and the pipelined ScratchPipe.  Every design is a
:class:`TrainingSystem` that turns a trace into per-iteration
:class:`IterationBreakdown` objects (stage latencies + device attribution)
and a :class:`SystemRunResult` (wall-clock and energy per iteration).

:meth:`TrainingSystem.run_trace` is written once, here.  It is assembled
from three per-design hooks:

* :meth:`~TrainingSystem.stream_breakdowns` prices each batch.  By default
  it hands :meth:`~TrainingSystem.batch_stats` of every batch to the
  design's ``iteration_breakdown``; the cache-simulating designs stream
  their cache statistics instead.
* :meth:`~TrainingSystem.iteration_times` turns the breakdowns into
  wall-clock seconds: the stage sum for sequential designs, the
  overlapped CPU/GPU cycle, or the pipelined cycle of
  :mod:`repro.core.timeline`.
* :meth:`~TrainingSystem.iteration_energy` charges each iteration's
  Joules: stage by stage for sequential designs, both devices busy for
  overlapped ones, plus the extra GPUs of the multi-GPU designs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.trace import MiniBatch
from repro.hardware.energy import CPU, GPU, EnergyModel, EnergySlice
from repro.hardware.spec import HardwareSpec
from repro.hardware.timing import CostModel
from repro.model.config import ModelConfig

class InsufficientSteadyStateError(ValueError):
    """A run is too short for the requested warm-up window.

    Raised by the steady-state reductions of :class:`SystemRunResult`
    when ``len(values) <= warmup``: trimming would leave no steady-state
    samples, and silently falling back to the full (warmup-contaminated)
    series skews every latency/energy/throughput number built on top.
    Callers that genuinely want the short-run mean opt in with
    ``allow_short=True``.
    """


#: Stage-group labels used by Figures 5 and 12(a).
CPU_EMB_FORWARD = "cpu_embedding_forward"
CPU_EMB_BACKWARD = "cpu_embedding_backward"
GPU_GROUP = "gpu"


@dataclass(frozen=True)
class StageTime:
    """One priced stage of an iteration.

    Attributes:
        name: Stage name (system specific).
        group: Reporting group (e.g. Figure 5's CPU-forward/CPU-backward/GPU).
        seconds: Stage latency.
        busy: Devices kept busy, for energy attribution.
    """

    name: str
    group: str
    seconds: float
    busy: Tuple[str, ...]

    def energy_slice(self) -> EnergySlice:
        """Convert to an energy-model slice."""
        return EnergySlice(seconds=self.seconds, busy=self.busy)


@dataclass(frozen=True)
class IterationBreakdown:
    """All priced stages of one training iteration."""

    stages: Tuple[StageTime, ...]

    @property
    def total(self) -> float:
        """Sum of stage latencies (the iteration time of sequential systems)."""
        return sum(s.seconds for s in self.stages)

    def by_group(self) -> Dict[str, float]:
        """Stage latencies summed per reporting group."""
        grouped: Dict[str, float] = {}
        for stage in self.stages:
            grouped[stage.group] = grouped.get(stage.group, 0.0) + stage.seconds
        return grouped

    def by_stage(self) -> Dict[str, float]:
        """Stage latencies keyed by stage name."""
        return {s.name: s.seconds for s in self.stages}

    def sequential_energy(self, model: EnergyModel) -> float:
        """Joules when the stages execute back-to-back (sequential systems)."""
        return model.total_energy(s.energy_slice() for s in self.stages)


@dataclass
class SystemRunResult:
    """Per-iteration outcomes of running a system over a trace.

    Attributes:
        system: System name.
        breakdowns: Per-iteration stage latencies (trace order).
        iteration_times: Wall-clock seconds attributed to each iteration
            (for pipelined systems this is the steady-state cycle time, not
            the sum of that batch's stage latencies).
        energies: Joules attributed to each iteration.
    """

    system: str
    breakdowns: List[IterationBreakdown] = field(default_factory=list)
    iteration_times: List[float] = field(default_factory=list)
    energies: List[float] = field(default_factory=list)

    def _steady(self, values: Sequence, warmup: int, allow_short: bool):
        """Trim the warm-up prefix, refusing to trim an entire run.

        Returns ``values[warmup:]`` — never the untrimmed series unless
        the caller explicitly opted in with ``allow_short=True``, in
        which case a warning flags that the "steady-state" numbers
        include warm-up iterations.
        """
        if len(values) == 0:
            raise InsufficientSteadyStateError("no iterations recorded")
        if len(values) <= warmup:
            if not allow_short:
                raise InsufficientSteadyStateError(
                    f"run has {len(values)} iterations but warmup={warmup}: "
                    "no steady-state samples remain after trimming; pass "
                    "allow_short=True to average the full (warmup-"
                    "contaminated) series, or lower the warmup"
                )
            warnings.warn(
                f"steady-state metrics over {len(values)} iterations "
                f"include warm-up (warmup={warmup} >= run length)",
                RuntimeWarning,
                stacklevel=3,
            )
            return values
        return values[warmup:]

    def mean_latency(self, warmup: int = 6, allow_short: bool = False) -> float:
        """Mean steady-state iteration latency (seconds)."""
        steady = self._steady(self.iteration_times, warmup, allow_short)
        return float(np.asarray(steady).mean())

    def mean_energy(self, warmup: int = 6, allow_short: bool = False) -> float:
        """Mean steady-state energy per iteration (Joules)."""
        steady = self._steady(self.energies, warmup, allow_short)
        return float(np.asarray(steady).mean())

    def stage_means(
        self, warmup: int = 6, allow_short: bool = False
    ) -> Dict[str, float]:
        """Mean per-stage latency at steady state (Figure 12 series)."""
        return self._breakdown_means("by_stage", warmup, allow_short)

    def group_means(
        self, warmup: int = 6, allow_short: bool = False
    ) -> Dict[str, float]:
        """Mean per-group latency at steady state (Figure 5 series)."""
        return self._breakdown_means("by_group", warmup, allow_short)

    def _breakdown_means(
        self, reduction: str, warmup: int, allow_short: bool
    ) -> Dict[str, float]:
        steady = self._steady(self.breakdowns, warmup, allow_short)
        sums: Dict[str, float] = {}
        for breakdown in steady:
            for name, seconds in getattr(breakdown, reduction)().items():
                sums[name] = sums.get(name, 0.0) + seconds
        return {k: v / len(steady) for k, v in sums.items()}


@dataclass(frozen=True)
class BatchAccessStats:
    """ID-level statistics of one batch that timing models consume.

    Attributes:
        total_lookups: Gathers issued across all tables (with duplicates).
        unique_rows: Unique rows touched, summed over tables.
    """

    total_lookups: int
    unique_rows: int

    @property
    def duplication_factor(self) -> float:
        """Mean number of gathers per touched row (>= 1)."""
        if self.unique_rows == 0:
            return 1.0
        return self.total_lookups / self.unique_rows


def batch_access_stats(batch: MiniBatch) -> BatchAccessStats:
    """Compute :class:`BatchAccessStats` for a batch."""
    unique = sum(
        int(batch.unique_table_ids(t).size) for t in range(batch.num_tables)
    )
    total = int(batch.sparse_ids.size)
    return BatchAccessStats(total_lookups=total, unique_rows=unique)


class TrainingSystem:
    """Interface every design point implements."""

    #: Display name used in reports (doubles as the default registry name).
    name: str = "abstract"

    def __init__(self, config: ModelConfig, hardware: HardwareSpec) -> None:
        self.config = config
        self.hardware = hardware
        self.cost = CostModel(hardware=hardware, config=config)
        self.energy_model = EnergyModel(hardware=hardware)
        #: The ``repro.api.SystemSpec`` this instance was built from, or
        #: ``None`` for a cache-less baseline constructed directly from
        #: ``(config, hardware)``.
        self.spec = None

    @classmethod
    def from_spec(cls, spec, config: ModelConfig, hardware: HardwareSpec):
        """Build from a ``repro.api.SystemSpec``.

        The default covers systems with no configuration beyond
        ``(config, hardware)``; designs with caches or GPU counts
        override it.  ``repro.api.build_system`` is the public door —
        it validates the spec/registry pairing before delegating here.
        """
        system = cls(config, hardware)
        system.spec = spec
        return system

    @classmethod
    def min_cache_slots(cls, spec, config: ModelConfig) -> Optional[int]:
        """Per-table cache floor this design needs at ``config``'s geometry.

        ``repro.api.build_system`` rejects specs whose resolved per-table
        capacity falls below this with a named ``InvalidSystemSpecError``
        — turning mid-run ``CachePressureError`` deadlocks into
        construction-time failures.  ``None`` (the default) means the
        design has no replacement pressure to bound (cache-less baselines,
        the never-evicting static cache).
        """
        return None

    def run_trace(
        self, dataset_batches: object, num_batches: Optional[int] = None
    ) -> SystemRunResult:
        """Run (timing-wise) over ``num_batches`` of a trace (default: all)."""
        total = len(dataset_batches)
        num_batches = total if num_batches is None else num_batches
        breakdowns = list(self.stream_breakdowns(dataset_batches, num_batches))
        times = self.iteration_times(breakdowns)
        return SystemRunResult(
            system=self.name,
            breakdowns=breakdowns,
            iteration_times=times,
            energies=[
                self.iteration_energy(seconds, breakdown)
                for seconds, breakdown in zip(times, breakdowns)
            ],
        )

    def batch_stats(self, batch: MiniBatch):
        """The statistics ``iteration_breakdown`` prices one batch from."""
        return batch_access_stats(batch)

    def stream_breakdowns(
        self, dataset_batches: object, num_batches: int
    ) -> Iterator[IterationBreakdown]:
        """Each batch's priced stages, in trace order."""
        for index in range(num_batches):
            yield self.iteration_breakdown(
                self.batch_stats(dataset_batches.batch(index))
            )

    def iteration_times(
        self, breakdowns: Sequence[IterationBreakdown]
    ) -> List[float]:
        """Sequential designs: an iteration costs the sum of its stages."""
        return [breakdown.total for breakdown in breakdowns]

    def iteration_energy(
        self, seconds: float, breakdown: IterationBreakdown
    ) -> float:
        """Sequential designs: Joules of the stages run back-to-back."""
        return breakdown.sequential_energy(self.energy_model)

    def overlapped_energy(self, seconds: float) -> float:
        """Joules of an iteration that keeps both CPU and GPU busy."""
        return self.energy_model.total_energy(
            [EnergySlice(seconds=seconds, busy=(CPU, GPU))]
        )


def cpu_stage(name: str, group: str, seconds: float) -> StageTime:
    """A stage that keeps only the CPU busy."""
    return StageTime(name=name, group=group, seconds=seconds, busy=(CPU,))


def gpu_stage(name: str, group: str, seconds: float) -> StageTime:
    """A stage that keeps only the GPU busy."""
    return StageTime(name=name, group=group, seconds=seconds, busy=(GPU,))


def transfer_stage(name: str, group: str, seconds: float) -> StageTime:
    """A PCIe transfer keeps both sides' memory systems busy."""
    return StageTime(name=name, group=group, seconds=seconds, busy=(CPU, GPU))
