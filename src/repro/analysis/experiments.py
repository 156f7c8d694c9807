"""One entry point per paper experiment (every evaluation table and figure).

Each function regenerates the rows/series of one figure or table of the
paper's Section VI using the timing substrate and the system designs.  The
benchmark suite in ``benchmarks/`` is a thin printing/asserting wrapper
around these functions — keeping the experiment logic importable and
unit-testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExperimentConfigError
from repro.analysis.cost import CostRow, multi_gpu_row, scratchpipe_row
from repro.analysis.locality import access_count_curve, dataset_hit_rate_curves
from repro.analysis.sweep import SweepPoint, _cached_trace, run_grid, trace_key
from repro.api.factory import build_system
from repro.api.specs import (
    CacheSpec,
    SystemSpec,
    parse_cache_spec,
    uniform_system_spec,
)
from repro.core.scratchpad import worst_case_storage_bytes
from repro.data.datasets import DATASET_PROFILES, LOCALITY_CLASSES
from repro.data.scenarios import CorrelationSpec, DriftSpec, ScenarioSpec
from repro.data.io import TraceFileSpec
from repro.data.trace import MaterialisedDataset
from repro.hardware.spec import DEFAULT_HARDWARE, HardwareSpec
from repro.model.config import ModelConfig
from repro.systems.base import SystemRunResult, TrainingSystem

#: Cache-fraction sweep used by Figures 12 and 13 (2% .. 10%).
CACHE_FRACTIONS = (0.02, 0.04, 0.06, 0.08, 0.10)

#: Default trace length for timing experiments — long enough for the
#: dynamic caches to reach steady state past the 6-deep pipeline warm-up.
DEFAULT_NUM_BATCHES = 24

#: Warm-up iterations excluded from steady-state means.
WARMUP = 8


def effective_warmup(num_batches: int, warmup: int = WARMUP) -> int:
    """Largest warm-up that still leaves a steady-state sample.

    The steady-state reductions now *refuse* to trim an entire run
    (:class:`repro.systems.base.InsufficientSteadyStateError`) instead of
    silently averaging warm-up iterations.  Figure presets keep their
    paper warm-up at the default trace lengths, but short exploratory
    runs (``repro.cli --batches 8``) clamp to ``num_batches - 1`` so one
    deterministic steady-state sample always remains.
    """
    return min(warmup, max(num_batches - 1, 0))


@dataclass(frozen=True)
class ExperimentSetup:
    """Shared experiment parameters.

    Sweep points (:meth:`point`) and in-process figures (:meth:`trace`)
    get their traces from the sweep's one trace builder
    (:func:`~repro.analysis.sweep.trace_key` → ``_cached_trace``).  The
    geometry sweeps (Figure 15, the VI-E sensitivities) replace only
    ``config``; every other field carries through.

    Attributes:
        config: Model geometry (paper defaults unless a sweep overrides).
        hardware: Node being modelled.
        num_batches: Trace length per (locality, system) point.
        seed: Trace seed.
        scenario: Optional time-varying workload applied to every trace
            this setup builds.  ``None`` (the default) keeps the stationary
            legacy path bit-identical; any :class:`ScenarioSpec` re-runs
            the same figure under that scenario's processes, with each
            figure point's locality class as the base skew.
        trace_file: Optional real-trace file
            (:class:`~repro.data.io.TraceFileSpec`).  When set, every
            figure point replays the file instead of a synthetic trace —
            the locality argument becomes a label — and ``config`` should
            be the geometry the spec maps onto
            (``trace_file.configure(...)``).  Mutually exclusive with a
            non-stationary ``scenario``.
        executor: Stage-execution backend every point of this setup runs
            under (``repro.core.executor`` registry).  The default
            ``"serial"`` keeps spec-less points on the legacy path; any
            other name makes :meth:`point` attach a full
            :class:`~repro.api.SystemSpec` carrying the executor, so
            sweep workers build their systems with it.  All backends are
            bit-identical — figure output never depends on this field.
    """

    config: ModelConfig = field(default_factory=ModelConfig)
    hardware: HardwareSpec = field(default_factory=lambda: DEFAULT_HARDWARE)
    num_batches: int = DEFAULT_NUM_BATCHES
    seed: int = 0
    scenario: Optional[ScenarioSpec] = None
    trace_file: Optional[TraceFileSpec] = None
    executor: str = "serial"

    def __post_init__(self) -> None:
        if (
            self.trace_file is not None
            and self.scenario is not None
            and not self.scenario.is_stationary
        ):
            raise ExperimentConfigError(
                "a file-backed trace replays recorded batches; scenario "
                "processes cannot be applied on top — drop one of "
                "trace_file / scenario"
            )
        from repro.core.executor import check_executor

        check_executor(self.executor, ExperimentConfigError)

    def trace(self, locality: str) -> MaterialisedDataset:
        """The benchmark trace for one locality class, memoised by the
        sweep's trace builder.

        With a ``trace_file`` the file is authoritative and ``locality``
        only labels the point.
        """
        return _cached_trace(trace_key(
            self.config, locality, self.seed, self.num_batches,
            self.scenario, self.trace_file,
        ))

    def point(
        self,
        system: str,
        locality: str,
        cache_fraction: float,
        warmup: int,
        metric: str = "mean_latency",
        policy_name: str = "lru",
        system_spec: "Optional[SystemSpec]" = None,
        arrivals: "Optional[object]" = None,
        serve: "Optional[object]" = None,
    ) -> SweepPoint:
        """Describe one grid evaluation of this setup for the sweep runner.

        ``system_spec`` attaches a full :class:`~repro.api.SystemSpec`
        (heterogeneous caches, plugin systems); when given, ``system`` is
        derived from it and ``cache_fraction``/``policy_name`` only label
        the point.  ``arrivals``/``serve`` carry the live-replay specs of
        ``"serve"``-metric points.

        The warm-up is clamped via :func:`effective_warmup` so preset
        figures keep working on short ``--batches`` runs: at the default
        trace lengths the clamp is the identity.
        """
        if system_spec is not None:
            system = system_spec.system
        if self.executor != "serial":
            if system_spec is None:
                # Mirror SweepPoint.resolved_system_spec's synthesis so
                # the only difference a non-serial setup introduces is
                # the executor name.
                fraction: Optional[float] = cache_fraction
                if system in ("hybrid", "overlapped_hybrid", "multi_gpu"):
                    fraction = None
                system_spec = uniform_system_spec(
                    system, fraction, policy=policy_name
                )
            system_spec = replace(
                system_spec,
                pipeline=replace(
                    system_spec.pipeline, executor=self.executor
                ),
            )
        return SweepPoint(
            system=system,
            locality=locality,
            cache_fraction=cache_fraction,
            seed=self.seed,
            num_batches=self.num_batches,
            config=self.config,
            hardware=self.hardware,
            warmup=effective_warmup(self.num_batches, warmup),
            metric=metric,
            policy_name=policy_name,
            scenario=self.scenario,
            system_spec=system_spec,
            trace_file=self.trace_file,
            arrivals=arrivals,
            serve=serve,
        )

    def build(self, spec: "SystemSpec | str") -> TrainingSystem:
        """Build a system against this setup's config + hardware."""
        return build_system(spec, self.config, self.hardware)


# ----------------------------------------------------------------------
# Figure 3 — sorted access counts of the four dataset profiles
# ----------------------------------------------------------------------
def fig3_access_counts(
    num_rows: int = 10_000_000,
    total_accesses: int = 100_000_000,
    n_points: int = 1000,
) -> Dict[str, np.ndarray]:
    """Sorted access-count curves, one per dataset profile."""
    return {
        profile.name: access_count_curve(
            profile.distribution(num_rows), total_accesses, n_points
        )
        for profile in DATASET_PROFILES
    }


# ----------------------------------------------------------------------
# Figure 5 — training-time breakdown: hybrid vs static 2% / 10%
# ----------------------------------------------------------------------
def fig5_breakdown(
    setup: Optional[ExperimentSetup] = None,
    cache_fractions: Sequence[float] = (0.02, 0.10),
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Per-group latency (seconds) for each locality and design.

    Returns ``{locality: {design: {group: seconds}}}`` with designs
    ``"hybrid"``, ``"static_2%"`` etc.
    """
    setup = setup or ExperimentSetup()
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for locality in LOCALITY_CLASSES:
        trace = setup.trace(locality)
        designs: Dict[str, Dict[str, float]] = {}
        hybrid = setup.build(SystemSpec(system="hybrid"))
        designs["hybrid"] = hybrid.run_trace(trace).group_means(warmup=0)
        for fraction in cache_fractions:
            system = setup.build(SystemSpec(
                system="static_cache", cache=CacheSpec(fraction=fraction)
            ))
            label = f"static_{int(fraction * 100)}%"
            designs[label] = system.run_trace(trace).group_means(warmup=0)
        out[locality] = designs
    return out


# ----------------------------------------------------------------------
# Figure 6 — static-cache hit rate vs cache size
# ----------------------------------------------------------------------
def fig6_hit_rate(
    cache_fractions: Optional[Sequence[float]] = None,
    num_rows: int = 10_000_000,
) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Hit-rate curves of the four dataset profiles (Figure 6)."""
    if cache_fractions is None:
        cache_fractions = np.linspace(0.01, 1.0, 100)
    fractions = np.asarray(cache_fractions, dtype=np.float64)
    return fractions, dataset_hit_rate_curves(fractions, num_rows)


# ----------------------------------------------------------------------
# Figures 12(a)/(b) — latency breakdowns
# ----------------------------------------------------------------------
def fig12a_baseline_latency(
    setup: Optional[ExperimentSetup] = None,
    cache_fractions: Sequence[float] = CACHE_FRACTIONS,
    workers: int = 1,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Baseline (0%) and static-cache (2-10%) group breakdowns."""
    setup = setup or ExperimentSetup()
    points = []
    for locality in LOCALITY_CLASSES:
        points.append(setup.point("hybrid", locality, 0.0, 0, "group_means"))
        for fraction in cache_fractions:
            points.append(
                setup.point("static_cache", locality, fraction, 0, "group_means")
            )
    results = iter(run_grid(points, workers=workers))
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for locality in LOCALITY_CLASSES:
        designs: Dict[str, Dict[str, float]] = {"0%": next(results)}
        for fraction in cache_fractions:
            designs[f"{int(fraction * 100)}%"] = next(results)
        out[locality] = designs
    return out


def fig12b_scratchpipe_latency(
    setup: Optional[ExperimentSetup] = None,
    cache_fractions: Sequence[float] = CACHE_FRACTIONS,
    workers: int = 1,
    localities: Sequence[str] = LOCALITY_CLASSES,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """ScratchPipe per-stage latency for each locality and cache size."""
    setup = setup or ExperimentSetup()
    points = [
        setup.point("scratchpipe", locality, fraction, WARMUP, "stage_means")
        for locality in localities
        for fraction in cache_fractions
    ]
    results = iter(run_grid(points, workers=workers))
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for locality in localities:
        out[locality] = {
            f"{int(fraction * 100)}%": next(results)
            for fraction in cache_fractions
        }
    return out


# ----------------------------------------------------------------------
# Figure 13 — end-to-end speedup (normalised to the static cache)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SpeedupPoint:
    """All four designs' latencies at one (locality, cache size) point."""

    locality: str
    cache_fraction: float
    hybrid_s: float
    static_s: float
    strawman_s: float
    scratchpipe_s: float

    def speedups(self) -> Dict[str, float]:
        """Speedups normalised to the static cache (Figure 13's y-axis)."""
        return {
            "hybrid": self.static_s / self.hybrid_s,
            "static_cache": 1.0,
            "strawman": self.static_s / self.strawman_s,
            "scratchpipe": self.static_s / self.scratchpipe_s,
        }


def fig13_speedup(
    setup: Optional[ExperimentSetup] = None,
    cache_fractions: Sequence[float] = CACHE_FRACTIONS,
    localities: Sequence[str] = LOCALITY_CLASSES,
    workers: int = 1,
) -> List[SpeedupPoint]:
    """End-to-end latency of the four designs across the full sweep.

    ``workers=1`` evaluates the grid serially (bit-identical reference);
    larger values fan the independent (system, locality, fraction) points
    across processes with identical results.
    """
    setup = setup or ExperimentSetup()
    grid = []
    for locality in localities:
        grid.append(setup.point("hybrid", locality, 0.0, 0))
        for fraction in cache_fractions:
            grid.append(setup.point("static_cache", locality, fraction, 0))
            grid.append(setup.point("strawman", locality, fraction, WARMUP))
            grid.append(setup.point("scratchpipe", locality, fraction, WARMUP))
    results = iter(run_grid(grid, workers=workers))
    points: List[SpeedupPoint] = []
    for locality in localities:
        hybrid_s = next(results)
        for fraction in cache_fractions:
            points.append(
                SpeedupPoint(
                    locality=locality,
                    cache_fraction=fraction,
                    hybrid_s=hybrid_s,
                    static_s=next(results),
                    strawman_s=next(results),
                    scratchpipe_s=next(results),
                )
            )
    return points


# ----------------------------------------------------------------------
# Figure 14 — energy
# ----------------------------------------------------------------------
def fig14_energy(
    setup: Optional[ExperimentSetup] = None,
    cache_fraction: float = 0.02,
    localities: Sequence[str] = LOCALITY_CLASSES,
) -> Dict[str, Dict[str, float]]:
    """Per-iteration energy (J) of static cache vs ScratchPipe."""
    setup = setup or ExperimentSetup()
    cache = CacheSpec(fraction=cache_fraction)
    out: Dict[str, Dict[str, float]] = {}
    for locality in localities:
        trace = setup.trace(locality)
        static = setup.build(
            SystemSpec(system="static_cache", cache=cache)
        ).run_trace(trace)
        scratchpipe = setup.build(
            SystemSpec(system="scratchpipe", cache=cache)
        ).run_trace(trace)
        out[locality] = {
            "static_cache": static.mean_energy(warmup=0),
            "scratchpipe": scratchpipe.mean_energy(
                warmup=effective_warmup(setup.num_batches)
            ),
        }
    return out


# ----------------------------------------------------------------------
# Figure 15 — sensitivity sweeps
# ----------------------------------------------------------------------
def _reject_file_trace(base: "ExperimentSetup", what: str) -> None:
    """Geometry sweeps rebuild configs per point; a fixed-geometry trace
    file cannot follow them — fail loudly instead of silently reverting
    to synthetic traces."""
    if base.trace_file is not None:
        raise ExperimentConfigError(
            f"{what} sweeps the model geometry; the file-backed trace "
            f"{base.trace_file.path!r} has a fixed geometry and cannot "
            "follow it — drop ExperimentSetup.trace_file"
        )


def _geometry_sweep(
    base: "ExperimentSetup",
    what: str,
    variants: Iterable[Tuple[str, ModelConfig]],
    cache_fraction: float,
    localities: Sequence[str],
    workers: int,
) -> List[SpeedupPoint]:
    """Figure 13 at one cache size for each ``(label, config)`` variant.

    Each variant is ``base`` with only its config replaced, so the base
    setup's scenario, executor, seed and trace length carry through;
    every row's locality is suffixed ``/<label>``.
    """
    _reject_file_trace(base, what)
    points: List[SpeedupPoint] = []
    for label, config in variants:
        for point in fig13_speedup(
            replace(base, config=config), cache_fractions=(cache_fraction,),
            localities=localities, workers=workers,
        ):
            points.append(
                replace(point, locality=f"{point.locality}/{label}")
            )
    return points


def fig15a_dim_sensitivity(
    dims: Sequence[int] = (64, 128, 256),
    cache_fraction: float = 0.02,
    base: Optional[ExperimentSetup] = None,
    workers: int = 1,
) -> List[SpeedupPoint]:
    """Speedups when sweeping the embedding dimension (Figure 15(a))."""
    base = base or ExperimentSetup()
    variants = (
        (f"dim={dim}", base.config.scaled(
            embedding_dim=dim,
            bottom_mlp=tuple(base.config.bottom_mlp[:-1]) + (dim,),
        ))
        for dim in dims
    )
    return _geometry_sweep(
        base, "fig15a", variants, cache_fraction, LOCALITY_CLASSES, workers
    )


def fig15b_lookup_sensitivity(
    lookups: Sequence[int] = (1, 20, 50),
    cache_fraction: float = 0.10,
    base: Optional[ExperimentSetup] = None,
    workers: int = 1,
) -> List[SpeedupPoint]:
    """Speedups when sweeping lookups per table (Figure 15(b)).

    The default cache is 10% (within the paper's 2-10% study range): 50
    lookups per table inflate the hazard window's worst-case working set
    to ~4.1% of the table, so the 2% fraction the other figures default
    to sits below the build-time hazard floor at the widest point (and
    pre-floor it deadlocked mid-run with ``CachePressureError`` on the
    unskewed "random" locality).
    """
    base = base or ExperimentSetup()
    variants = (
        (f"lookups={n}", base.config.scaled(lookups_per_table=n))
        for n in lookups
    )
    return _geometry_sweep(
        base, "fig15b", variants, cache_fraction, LOCALITY_CLASSES, workers
    )


def replacement_policy_sensitivity(
    setup: Optional[ExperimentSetup] = None,
    cache_fraction: float = 0.02,
    policies: Sequence[str] = ("lru", "lfu", "random"),
    workers: int = 1,
    localities: Sequence[str] = LOCALITY_CLASSES,
) -> Dict[str, Dict[str, float]]:
    """ScratchPipe latency per replacement policy (Section VI-E)."""
    setup = setup or ExperimentSetup()
    grid = [
        setup.point(
            "scratchpipe", locality, cache_fraction, WARMUP, policy_name=policy
        )
        for locality in localities
        for policy in policies
    ]
    results = iter(run_grid(grid, workers=workers))
    return {
        locality: {policy: next(results) for policy in policies}
        for locality in localities
    }


def batch_size_sensitivity(
    batch_sizes: Sequence[int] = (512, 2048, 4096),
    cache_fraction: float = 0.06,
    base: Optional[ExperimentSetup] = None,
    localities: Sequence[str] = ("medium",),
    workers: int = 1,
) -> List[SpeedupPoint]:
    """Speedups when sweeping the mini-batch size (Section VI-E).

    The default cache is 6% (the VI-E benchmark's sizing): the 4096
    batch point pushes the hazard window's worst-case working set to
    ~3.3% of the table, over the 2% default the fixed-geometry figures
    use.
    """
    base = base or ExperimentSetup()
    variants = (
        (f"batch={size}", base.config.scaled(batch_size=size))
        for size in batch_sizes
    )
    return _geometry_sweep(
        base, "batch-size sensitivity", variants, cache_fraction,
        localities, workers,
    )


def mlp_intensity_sensitivity(
    width_multipliers: Sequence[int] = (1, 2, 4),
    cache_fraction: float = 0.02,
    base: Optional[ExperimentSetup] = None,
    localities: Sequence[str] = ("medium",),
    workers: int = 1,
) -> List[SpeedupPoint]:
    """Speedups for increasingly MLP-intensive models (Section VI-E).

    The paper reports testing "more MLP-intensive (and less embedding
    intensive) models" and omits the numbers; we widen every top-MLP layer
    by the given multipliers.  ScratchPipe's advantage should shrink as the
    dense network grows (the embedding bottleneck it removes matters less)
    while remaining above 1x.
    """
    base = base or ExperimentSetup()
    variants = (
        (f"mlp_x{m}", base.config.scaled(
            top_mlp=tuple(h * m for h in base.config.top_mlp[:-1]) + (1,)
        ))
        for m in width_multipliers
    )
    return _geometry_sweep(
        base, "MLP-intensity sensitivity", variants, cache_fraction,
        localities, workers,
    )


# ----------------------------------------------------------------------
# Locality-sensitivity studies — the scenarios the paper motivates
# (temporal stability of the hot set) but never stresses
# ----------------------------------------------------------------------
def drift_sensitivity(
    setup: Optional[ExperimentSetup] = None,
    drift_rates: Sequence[float] = (0.0, 1.0, 4.0, 16.0, 64.0),
    cache_fraction: float = 0.02,
    localities: Sequence[str] = ("medium", "high"),
    workers: int = 1,
    cache: Optional[CacheSpec] = None,
) -> Dict[str, Dict[float, float]]:
    """ScratchPipe Plan-stage hit rate vs hot-set drift rate.

    Rate 0 is the drift-free baseline; larger rates rotate the popularity
    head faster (rows per batch).  The pipeline's 2-batch look-forward
    tracks drift far better than popularity caching would, but hit rate
    must still fall as the head outruns the scratchpad — this study
    quantifies how fast.

    Any other processes on ``setup.scenario`` are kept: the sweep replaces
    only the drift component, so churn/burst/diurnal backdrops compose
    with the swept rate.  ``cache`` overrides the uniform
    ``cache_fraction`` with an arbitrary (possibly per-table) CacheSpec.

    Returns ``{locality: {drift_rate: hit_rate}}``.
    """
    setup = setup or ExperimentSetup()
    base_spec = setup.scenario or ScenarioSpec()
    system_spec = None
    if cache is not None:
        system_spec = SystemSpec(system="scratchpipe", cache=cache)
    grid = []
    for locality in localities:
        for rate in drift_rates:
            scenario = replace(
                base_spec, drift=DriftSpec(rate=rate) if rate > 0 else None
            )
            point_setup = replace(setup, scenario=scenario)
            grid.append(
                point_setup.point(
                    "scratchpipe", locality, cache_fraction, WARMUP,
                    metric="hit_rate", system_spec=system_spec,
                )
            )
    results = iter(run_grid(grid, workers=workers))
    return {
        locality: {rate: next(results) for rate in drift_rates}
        for locality in localities
    }


def scenario_comparison(
    scenarios: Dict[str, Optional[ScenarioSpec]],
    setup: Optional[ExperimentSetup] = None,
    cache_fraction: float = 0.02,
    locality: str = "medium",
    workers: int = 1,
    cache: Optional[CacheSpec] = None,
) -> Dict[str, Dict[str, float]]:
    """ScratchPipe latency and hit rate under each named scenario.

    Returns ``{scenario_name: {"mean_latency": s, "hit_rate": r}}`` —
    the whole-figure view of how time-varying workloads move both the
    cache behaviour and the end-to-end iteration time.  ``cache``
    overrides the uniform ``cache_fraction`` with an arbitrary (possibly
    per-table) CacheSpec.
    """
    setup = setup or ExperimentSetup()
    system_spec = None
    if cache is not None:
        system_spec = SystemSpec(system="scratchpipe", cache=cache)
    grid = []
    names = list(scenarios)
    for name in names:
        point_setup = replace(setup, scenario=scenarios[name])
        grid.append(
            point_setup.point(
                "scratchpipe", locality, cache_fraction, WARMUP,
                system_spec=system_spec,
            )
        )
        grid.append(
            point_setup.point(
                "scratchpipe", locality, cache_fraction, WARMUP,
                metric="hit_rate", system_spec=system_spec,
            )
        )
    results = iter(run_grid(grid, workers=workers))
    return {
        name: {"mean_latency": next(results), "hit_rate": next(results)}
        for name in names
    }


def serve_latency_grid(
    arrivals,
    setup: Optional[ExperimentSetup] = None,
    cache_fractions: Sequence[float] = (0.02,),
    rates: Optional[Sequence[float]] = None,
    locality: str = "medium",
    serve=None,
    workers: int = 1,
) -> Dict[Tuple[float, float], object]:
    """Live-replay tail latency over {cache fraction x arrival rate}.

    The figure family the paper's "heavy traffic" framing implies but
    never plots: for each cache fraction and offered arrival rate, replay
    the trace as open-loop traffic and report the full
    :class:`repro.serve.ServeReport` — p50/p95/p99 per-stage latency and
    the SLA-violation rate.  ``arrivals`` is the base
    :class:`~repro.serve.ArrivalSpec`; ``rates`` (default: just
    ``arrivals.rate``) sweeps its rate axis.  ``serve`` optionally carries
    the queueing/admission/SLA configuration applied at every cell.

    Returns ``{(cache_fraction, rate): ServeReport}``.  Points flow
    through :func:`run_grid`, so worker counts, checkpoints and resume
    all behave exactly like every other figure.
    """
    from repro.serve import ServeSpec

    setup = setup or ExperimentSetup()
    rates = tuple(rates) if rates is not None else (arrivals.rate,)
    base = serve if serve is not None else ServeSpec(arrivals=arrivals)
    warmup = effective_warmup(setup.num_batches)
    grid = []
    cells = []
    for fraction in cache_fractions:
        for rate in rates:
            cell_serve = replace(base, arrivals=replace(arrivals, rate=rate))
            grid.append(
                setup.point(
                    "scratchpipe", locality, fraction, warmup,
                    metric="serve", serve=cell_serve,
                )
            )
            cells.append((fraction, rate))
    results = run_grid(grid, workers=workers)
    return dict(zip(cells, results))


def default_heterogeneous_splits(
    num_tables: int,
) -> Dict[str, CacheSpec]:
    """Budget-matched cache splits for :func:`heterogeneous_cache`.

    The heterogeneous split doubles table 0's cache (4 %) over the paper's
    smallest evaluated fraction (2 %) for the rest — 2 % is the floor the
    hazard window demands at the default geometry (see
    ``repro.core.scratchpad.required_slots``; smaller splits like the CLI's
    ``rest=0.005`` example are valid on geometries with fewer lookups per
    batch).  The uniform comparison point spends the *same total slot
    budget* spread evenly, so any hit-rate difference is allocation, not
    capacity.
    """
    hetero = parse_cache_spec("table0=0.04,rest=0.02")
    uniform_fraction = (0.04 + (num_tables - 1) * 0.02) / num_tables
    return {
        f"uniform={uniform_fraction:g}": CacheSpec(fraction=uniform_fraction),
        "table0=0.04,rest=0.02": hetero,
    }


def heterogeneous_cache(
    setup: Optional[ExperimentSetup] = None,
    rhos: Sequence[float] = (0.0, 0.25, 0.5, 0.75),
    cache_specs: Optional[Dict[str, CacheSpec]] = None,
    locality: str = "medium",
    workers: int = 1,
) -> Dict[str, Dict[float, Dict[str, object]]]:
    """Hit rate vs {correlation rho x per-table cache split}.

    The ROADMAP matrix cell the SystemSpec layer unblocks: under the PR 3
    cross-table correlation scenario, tables increasingly touch the *same*
    rows per batch, so the marginal value of each table's private cache
    shifts — a heterogeneous split (one big cache, small caches elsewhere)
    and a budget-matched uniform split trade places as rho grows.  Each
    grid point ships a ``(SystemSpec, ScenarioSpec)`` pair through the
    spec-only worker dispatch and streams the pipeline once per cell (the
    ``cache_stats`` metric carries both reductions back).

    Any processes on ``setup.scenario`` other than correlation are kept
    (the sweep replaces only the correlation component).

    Returns ``{split_name: {rho: {"hit_rate": float,
    "per_table": (rate, ...)}}}``.
    """
    setup = setup or ExperimentSetup()
    if cache_specs is None:
        cache_specs = default_heterogeneous_splits(setup.config.num_tables)
    base_spec = setup.scenario or ScenarioSpec()
    grid = []
    for name, cache in cache_specs.items():
        system_spec = SystemSpec(system="scratchpipe", cache=cache)
        for rho in rhos:
            scenario = replace(
                base_spec,
                correlation=CorrelationSpec(rho=rho) if rho > 0 else None,
            )
            point_setup = replace(setup, scenario=scenario)
            grid.append(
                point_setup.point(
                    "scratchpipe", locality, 0.0, WARMUP,
                    metric="cache_stats", system_spec=system_spec,
                )
            )
    results = iter(run_grid(grid, workers=workers))
    out: Dict[str, Dict[float, Dict[str, object]]] = {}
    for name in cache_specs:
        out[name] = {}
        for rho in rhos:
            aggregate = next(results)
            out[name][rho] = {
                "hit_rate": aggregate.hit_rate,
                "per_table": aggregate.per_table_hit_rates(),
            }
    return out


# ----------------------------------------------------------------------
# Table I — training cost vs the 8-GPU system
# ----------------------------------------------------------------------
def table1_cost(
    setup: Optional[ExperimentSetup] = None,
    cache_fraction: float = 0.02,
    num_gpus: int = 8,
    localities: Sequence[str] = LOCALITY_CLASSES,
) -> List[Tuple[CostRow, CostRow]]:
    """(ScratchPipe row, 8-GPU row) per locality class."""
    setup = setup or ExperimentSetup()
    rows: List[Tuple[CostRow, CostRow]] = []
    for locality in localities:
        trace = setup.trace(locality)
        sp_latency = setup.build(SystemSpec(
            system="scratchpipe", cache=CacheSpec(fraction=cache_fraction)
        )).run_trace(trace).mean_latency(
            warmup=effective_warmup(setup.num_batches)
        )
        mg_latency = setup.build(SystemSpec(
            system="multi_gpu", num_gpus=num_gpus
        )).run_trace(trace).mean_latency(warmup=0)
        rows.append(
            (
                scratchpipe_row(locality.capitalize(), sp_latency),
                multi_gpu_row(locality.capitalize(), mg_latency),
            )
        )
    return rows


# ----------------------------------------------------------------------
# Section VI-D — implementation overhead
# ----------------------------------------------------------------------
def overhead_vi_d(config: Optional[ModelConfig] = None) -> Dict[str, float]:
    """The Storage-array sizing numbers of Section VI-D (bytes)."""
    config = config or ModelConfig()
    worst_case = worst_case_storage_bytes(config, window_batches=6)
    # Hit-Map: (8 B key + 4 B value + ~20 B container overhead) per cached
    # row; Section VI-D quotes "<1 GB" for a 10% cache of 80M rows.
    hitmap_bytes = int(0.10 * config.num_tables * config.rows_per_table) * 32
    misc_bytes = 300 * 10 ** 6  # "other miscellaneous data structures"
    return {
        "storage_worst_case_bytes": float(worst_case),
        "hitmap_bytes": float(hitmap_bytes),
        "misc_bytes": float(misc_bytes),
        "total_bytes": float(worst_case + hitmap_bytes + misc_bytes),
    }
