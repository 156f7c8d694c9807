"""repro — a reproduction of "Training Personalized Recommendation Systems
from (GPU) Scratch: Look Forward not Backwards" (Kwon & Rhu, ISCA 2022).

Public API tour
---------------
* ``repro.api``      — declarative system assembly: ``SystemSpec`` /
  ``CacheSpec`` (uniform or per-table heterogeneous), the system/policy
  plugin registries and ``build_system`` — the single composition surface
  the CLI, experiments and sweeps share.
* ``repro.model``    — numpy DLRM: embeddings, MLPs, interaction, SGD.
* ``repro.data``     — power-law access distributions, dataset profiles,
  synthetic traces, real-trace ingestion.
* ``repro.core``     — ScratchPipe's Hit-Map, Hold mask, scratchpad,
  straw-man cache and the 6-stage pipeline.
* ``repro.systems``  — the four end-to-end design points plus the 8-GPU
  baseline, each producing per-iteration latency/energy breakdowns.
* ``repro.hardware`` — the analytic Xeon + V100 + PCIe timing substrate.
* ``repro.analysis`` — one entry point per paper table/figure.
* ``repro.serve``    — live-traffic replay: seeded open-loop arrivals,
  bounded-queue backpressure, exact p50/p95/p99 latency and SLA
  accounting on a deterministic virtual clock.

Quickstart::

    from repro import ExperimentSetup, fig13_speedup
    for point in fig13_speedup(ExperimentSetup(num_batches=12)):
        print(point.locality, point.cache_fraction, point.speedups())
"""

from repro.analysis import (
    CACHE_FRACTIONS,
    ExperimentSetup,
    GridReport,
    SpeedupPoint,
    SweepError,
    SweepGridError,
    SweepPointTimeoutError,
    SweepWorkerCrashError,
    fig3_access_counts,
    fig5_breakdown,
    fig6_hit_rate,
    fig12a_baseline_latency,
    fig12b_scratchpipe_latency,
    fig13_speedup,
    fig14_energy,
    fig15a_dim_sensitivity,
    fig15b_lookup_sensitivity,
    table1_cost,
)
from repro.api import (
    CacheSpec,
    PipelineSpec,
    ScratchpadSpec,
    SystemSpec,
    build_system,
    register_policy,
    register_system,
)
from repro.core import (
    GpuScratchpad,
    HazardMonitor,
    HitMap,
    HoldMask,
    ScratchPipePipeline,
    StrawmanCache,
    required_slots,
)
from repro.data.fetch import ChecksumMismatchError
from repro.data import (
    MiniBatch,
    ScenarioSpec,
    SyntheticDataset,
    TraceSource,
    build_scenario,
    make_dataset,
    scenario_by_name,
)
from repro.hardware import DEFAULT_HARDWARE, CostModel, HardwareSpec
from repro.model import DLRMModel, DenseNetwork, ModelConfig, tiny_config
from repro.serve import (
    AdmissionRejectedError,
    ArrivalSpec,
    ArrivalSpecError,
    ServeReport,
    ServeSpec,
    format_serve_report,
    replay,
)
from repro.systems import (
    HybridSystem,
    InsufficientSteadyStateError,
    MultiGpuSystem,
    ScratchPipeSystem,
    ScratchPipeTrainingRun,
    StaticCacheSystem,
    StrawmanSystem,
)

__version__ = "1.0.0"

__all__ = [
    "CacheSpec",
    "PipelineSpec",
    "ScratchpadSpec",
    "SystemSpec",
    "build_system",
    "register_policy",
    "register_system",
    "CACHE_FRACTIONS",
    "ExperimentSetup",
    "GridReport",
    "SpeedupPoint",
    "SweepError",
    "SweepGridError",
    "SweepPointTimeoutError",
    "SweepWorkerCrashError",
    "ChecksumMismatchError",
    "fig3_access_counts",
    "fig5_breakdown",
    "fig6_hit_rate",
    "fig12a_baseline_latency",
    "fig12b_scratchpipe_latency",
    "fig13_speedup",
    "fig14_energy",
    "fig15a_dim_sensitivity",
    "fig15b_lookup_sensitivity",
    "table1_cost",
    "GpuScratchpad",
    "HazardMonitor",
    "HitMap",
    "HoldMask",
    "ScratchPipePipeline",
    "StrawmanCache",
    "required_slots",
    "MiniBatch",
    "ScenarioSpec",
    "SyntheticDataset",
    "TraceSource",
    "build_scenario",
    "make_dataset",
    "scenario_by_name",
    "DEFAULT_HARDWARE",
    "CostModel",
    "HardwareSpec",
    "DLRMModel",
    "DenseNetwork",
    "ModelConfig",
    "tiny_config",
    "AdmissionRejectedError",
    "ArrivalSpec",
    "ArrivalSpecError",
    "ServeReport",
    "ServeSpec",
    "format_serve_report",
    "replay",
    "HybridSystem",
    "InsufficientSteadyStateError",
    "MultiGpuSystem",
    "ScratchPipeSystem",
    "ScratchPipeTrainingRun",
    "StaticCacheSystem",
    "StrawmanSystem",
    "__version__",
]
