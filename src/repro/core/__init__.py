"""Core ScratchPipe machinery: Hit-Map, Hold mask, scratchpad, pipeline."""

from repro.core.hitmap import EMPTY, HitMap
from repro.core.holdmask import HoldMask
from repro.core.pipeline import (
    BatchCacheStats,
    HazardError,
    HazardMonitor,
    PipelineResult,
    PipelineTrainer,
    ScratchPipePipeline,
    PLAN_TO_COLLECT,
    PLAN_TO_INSERT,
    PLAN_TO_TRAIN,
    PRICED_STAGE_OFFSETS,
    STAGES,
)
from repro.core.replacement import (
    CachePressureError,
    LfuPolicy,
    LruPolicy,
    RandomPolicy,
    ReplacementPolicy,
    make_policy,
)
from repro.core.scratchpad import (
    GpuScratchpad,
    TablePlan,
    make_scratchpads,
    required_slots,
    worst_case_storage_bytes,
)
from repro.core.timeline import (
    CycleOccupancy,
    PipelineTimeline,
    render_ascii,
    schedule,
)

__all__ = [
    "EMPTY",
    "HitMap",
    "HoldMask",
    "BatchCacheStats",
    "HazardError",
    "HazardMonitor",
    "PipelineResult",
    "PipelineTrainer",
    "ScratchPipePipeline",
    "PLAN_TO_COLLECT",
    "PLAN_TO_INSERT",
    "PLAN_TO_TRAIN",
    "PRICED_STAGE_OFFSETS",
    "STAGES",
    "CachePressureError",
    "LfuPolicy",
    "LruPolicy",
    "RandomPolicy",
    "ReplacementPolicy",
    "make_policy",
    "GpuScratchpad",
    "TablePlan",
    "make_scratchpads",
    "required_slots",
    "worst_case_storage_bytes",
    "CycleOccupancy",
    "PipelineTimeline",
    "render_ascii",
    "schedule",
]
