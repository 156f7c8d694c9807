"""Timing model of the straw-man dynamic cache (no pipelining, Figure 8).

The straw-man runs the same Plan/Collect/Exchange/Insert/Train stages as
ScratchPipe but sequentially, so its iteration latency is the *sum* of the
stage latencies — the cache-management steps sit on the critical path.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.api.registry import register_system
from repro.api.specs import InvalidSystemSpecError, SystemSpec
from repro.core.scratchpad import hazard_floor_slots, make_scratchpads
from repro.core.strawman import StrawmanCache
from repro.model.config import ModelConfig
from repro.systems.base import IterationBreakdown, TrainingSystem
from repro.systems.stages import cache_stage_times


@register_system(
    "strawman",
    requires_cache=True,
    description="Sequential dynamic cache without pipelining (Section IV-B)",
)
class StrawmanSystem(TrainingSystem):
    """Sequential dynamic-cache design point (Section IV-B)."""

    name = "strawman"

    def __init__(
        self, config: ModelConfig, hardware, *, spec: SystemSpec
    ) -> None:
        super().__init__(config, hardware)
        if spec.cache is None:
            raise InvalidSystemSpecError(f"{self.name} requires a cache spec")
        self.spec = spec
        resolved = spec.cache.resolve(config.num_tables, config.rows_per_table)
        self.table_slots: Tuple[int, ...] = tuple(r.slots for r in resolved)
        self.table_policies: Tuple[str, ...] = tuple(r.policy for r in resolved)
        self._scratchpads = None

    @classmethod
    def from_spec(cls, spec, config, hardware):
        return cls(config, hardware, spec=spec)

    @classmethod
    def min_cache_slots(cls, spec, config):
        """Sequential hazard floor: one worst-case batch of unique IDs.

        The straw-man holds no concurrent batches (its past window is
        pinned at 0), but every batch still needs its own misses to fit —
        a cache below one batch's worst-case unique count can deadlock.
        """
        return hazard_floor_slots(config, past_window=0)

    def _make_cache(self) -> StrawmanCache:
        # Like ScratchPipeSystem, reuse the scratchpads (and their dense
        # Hit-Map indices) across run_trace calls, resetting in place.
        if self._scratchpads is None:
            self._scratchpads = make_scratchpads(
                self.config, self.table_slots,
                policy_name=self.table_policies,
                with_storage=self.spec.scratchpad.with_storage,
                past_window=0,
            )
        else:
            for scratchpad in self._scratchpads:
                scratchpad.reset()
        return StrawmanCache(config=self.config, scratchpads=self._scratchpads)

    def stream_breakdowns(
        self, dataset_batches: object, num_batches: int
    ) -> Iterator[IterationBreakdown]:
        cache = self._make_cache()
        for index in range(num_batches):
            stats = cache.run_batch(dataset_batches.batch(index))
            # Sequential execution needs no future window.
            stage_times = cache_stage_times(self.cost, stats, future_window=0)
            yield IterationBreakdown(stages=tuple(stage_times.values()))
