"""Pipeline timeline: the pipelined-cycle rule and the Figure 10 schedule.

This module owns the one timing rule of a pipelined iteration (§IV-C,
Figure 10).  Stage ``s`` of batch ``b`` occupies cycle
``b + PRICED_STAGE_OFFSETS[s]``; a cycle lasts as long as its slowest
occupied priced stage plus the per-cycle sync.  A cycle is *steady* when
all five priced stages are occupied (Load is unpriced host work).  Each
batch is attributed the cycle it trains in, except the batches that
retire while the pipe drains: on a long-running job every retiring batch
shares the pipe with younger ones, so they are attributed the mean steady
cycle instead.

:meth:`PipelineTimeline.retired_cycle_seconds` is the iteration time of
every pipelined design's ``run_trace``; the schedule, the steady-state
cycle and the stage utilisation read from the same cycle times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.errors import TimelineConfigError
from repro.core.pipeline import PRICED_STAGE_OFFSETS, STAGES

#: Cycle in which batch 0 trains: the pipe is full from here on.
_TRAIN_OFFSET = PRICED_STAGE_OFFSETS["train"]


@dataclass(frozen=True)
class CycleOccupancy:
    """Which batch occupies each stage during one cycle.

    Attributes:
        cycle: Cycle index.
        batches: Stage name -> batch index (absent = stage idle/empty).
        cycle_seconds: Wall-clock length of this cycle (the slowest occupied
            stage plus sync), when stage latencies were provided.
    """

    cycle: int
    batches: Dict[str, int]
    cycle_seconds: float = 0.0


def schedule(num_batches: int) -> List[CycleOccupancy]:
    """The pure occupancy schedule: batch ``b`` is at stage ``s`` in cycle
    ``b + index(s)``."""
    if num_batches < 1:
        raise TimelineConfigError(f"num_batches must be >= 1, got {num_batches}")
    cycles = []
    last_cycle = num_batches - 1 + len(STAGES) - 1
    for cycle in range(last_cycle + 1):
        occupancy = {}
        for offset, stage in enumerate(STAGES):
            batch = cycle - offset
            if 0 <= batch < num_batches:
                occupancy[stage] = batch
        cycles.append(CycleOccupancy(cycle=cycle, batches=occupancy))
    return cycles


@dataclass
class PipelineTimeline:
    """Timing-annotated pipeline schedule.

    Args:
        stage_seconds: Per-batch stage latencies — ``stage_seconds[b][s]``
            is batch ``b``'s latency at stage ``s`` (missing stages cost 0).
        sync_seconds: Per-cycle synchronisation overhead.
    """

    stage_seconds: Sequence[Mapping[str, float]]
    sync_seconds: float = 0.0
    _prices: np.ndarray = field(init=False, repr=False)
    _cycle_seconds: np.ndarray = field(init=False, repr=False)
    _steady: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.stage_seconds:
            raise TimelineConfigError("stage_seconds must cover at least one batch")
        num_batches = len(self.stage_seconds)
        self._prices = np.array(
            [[seconds.get(stage, 0.0) for stage in PRICED_STAGE_OFFSETS]
             for seconds in self.stage_seconds],
            dtype=np.float64,
        )
        # Lay each stage column into a cycle-indexed matrix shifted by its
        # offset: the per-cycle "max over occupied stages" is then one
        # row-wise max (idle cells cost 0, as does the Load-only cycle 0).
        num_cycles = num_batches + _TRAIN_OFFSET
        shifted = np.zeros((num_cycles, len(PRICED_STAGE_OFFSETS)))
        occupied = np.zeros(num_cycles, dtype=np.int64)
        for column, offset in enumerate(PRICED_STAGE_OFFSETS.values()):
            shifted[offset : offset + num_batches, column] = self._prices[:, column]
            occupied[offset : offset + num_batches] += 1
        self._cycle_seconds = shifted.max(axis=1) + self.sync_seconds
        self._steady = occupied == len(PRICED_STAGE_OFFSETS)

    @property
    def num_batches(self) -> int:
        """Batches covered by the timeline."""
        return len(self.stage_seconds)

    def cycles(self) -> List[CycleOccupancy]:
        """Occupancy plus per-cycle wall-clock time."""
        return [
            CycleOccupancy(entry.cycle, entry.batches, seconds)
            for entry, seconds in zip(
                schedule(self.num_batches), self._cycle_seconds.tolist()
            )
        ]

    def total_seconds(self) -> float:
        """End-to-end wall-clock time including fill/drain."""
        return sum(self._cycle_seconds.tolist())

    def steady_state_cycle_seconds(self) -> float:
        """Mean cycle time over the cycles with every priced stage occupied."""
        steady = self._cycle_seconds[self._steady]
        if not steady.size:  # trace shorter than the pipeline depth
            return self.total_seconds() / self.num_batches
        # Sequential sum: accumulate in cycle order.
        return sum(steady.tolist()) / steady.size

    def retired_cycle_seconds(self) -> List[float]:
        """Seconds attributed to each batch, in trace order.

        A batch costs the cycle it trains in; batches that retire during
        the drain get the mean steady cycle.  A trace too short to fill
        the pipe keeps its raw train cycles.
        """
        retired = self._cycle_seconds[_TRAIN_OFFSET:]
        if self._steady.any():
            retired = np.where(
                self._steady[_TRAIN_OFFSET:],
                retired,
                self.steady_state_cycle_seconds(),
            )
        return retired.tolist()

    def stage_utilisation(self) -> Dict[str, float]:
        """Fraction of occupied-cycle time each stage is actually busy.

        The bottleneck stage approaches 1.0; heavily overlapped stages sit
        far below — quantifying how much latency the pipeline hides.
        """
        wall = self.total_seconds()
        if wall == 0.0:
            return {s: 0.0 for s in PRICED_STAGE_OFFSETS}
        return {
            stage: sum(self._prices[:, column].tolist()) / wall
            for column, stage in enumerate(PRICED_STAGE_OFFSETS)
        }

    def bottleneck_stage(self) -> str:
        """The stage with the highest utilisation."""
        utilisation = self.stage_utilisation()
        return max(utilisation, key=utilisation.get)


def render_ascii(
    cycles: Sequence[CycleOccupancy], max_cycles: Optional[int] = 16
) -> str:
    """Render the schedule as the Figure 10-style staircase diagram."""
    shown = list(cycles[:max_cycles]) if max_cycles else list(cycles)
    width = 10
    header = "cycle".ljust(7) + "".join(s.ljust(width) for s in STAGES)
    lines = [header, "-" * len(header)]
    for entry in shown:
        cells = [
            (f"B{entry.batches[s]}" if s in entry.batches else ".").ljust(width)
            for s in STAGES
        ]
        lines.append(str(entry.cycle).ljust(7) + "".join(cells))
    if max_cycles and len(cycles) > max_cycles:
        lines.append(f"... ({len(cycles) - max_cycles} more cycles)")
    return "\n".join(lines)
