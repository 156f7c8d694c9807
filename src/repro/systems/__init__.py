"""End-to-end training-system design points (Section VI's four systems)."""

from repro.systems.base import (
    CPU_EMB_BACKWARD,
    CPU_EMB_FORWARD,
    GPU_GROUP,
    BatchAccessStats,
    InsufficientSteadyStateError,
    IterationBreakdown,
    StageTime,
    SystemRunResult,
    TrainingSystem,
    batch_access_stats,
)
from repro.systems.hybrid import HybridSystem
from repro.systems.multigpu import MultiGpuSystem
from repro.systems.overlapped_hybrid import OverlappedHybridSystem
from repro.systems.multigpu_scratchpipe import (
    MultiGpuScratchPipeSystem,
    tco_comparison,
)
from repro.systems.scratchpipe_system import (
    ScratchPipeSystem,
    ScratchPipeTrainer,
    ScratchPipeTrainingRun,
)
from repro.systems.metrics import (
    DegenerateLatencyError,
    ThroughputReport,
    speedup,
    throughput_report,
)
from repro.systems.stages import cache_stage_times
from repro.systems.static_cache import (
    SplitStats,
    StaticCacheSystem,
    StaticCacheTrainer,
    split_batch,
)
from repro.systems.strawman_system import AggregateCacheStats, StrawmanSystem

__all__ = [
    "CPU_EMB_BACKWARD",
    "CPU_EMB_FORWARD",
    "GPU_GROUP",
    "BatchAccessStats",
    "InsufficientSteadyStateError",
    "IterationBreakdown",
    "StageTime",
    "SystemRunResult",
    "TrainingSystem",
    "batch_access_stats",
    "HybridSystem",
    "MultiGpuSystem",
    "OverlappedHybridSystem",
    "MultiGpuScratchPipeSystem",
    "tco_comparison",
    "AggregateCacheStats",
    "ScratchPipeSystem",
    "ScratchPipeTrainer",
    "ScratchPipeTrainingRun",
    "DegenerateLatencyError",
    "ThroughputReport",
    "speedup",
    "throughput_report",
    "cache_stage_times",
    "SplitStats",
    "StaticCacheSystem",
    "StaticCacheTrainer",
    "split_batch",
    "StrawmanSystem",
]
