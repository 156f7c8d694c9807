"""Parallel grid runner for the paper's experiment sweeps.

Every figure-level experiment is a grid of independent
(system × workload × cache-fraction × seed) evaluations; this module turns
such a grid into a flat list of :class:`SweepPoint` descriptors and runs
them either serially (``workers=1``, the bit-identical default) or across a
``concurrent.futures.ProcessPoolExecutor``.

Two properties make the parallel path safe:

* **Determinism** — a point is described by plain configuration values
  (including an optional :class:`ScenarioSpec`, a few-dozen-byte frozen
  dataclass), traces are deterministic functions of those values, and
  results are assembled by grid index, so they are identical for any
  worker count.
* **Cheap dispatch** — descriptors carry no arrays, ever: what crosses the
  process boundary is the spec, and trace *content* reaches workers through
  shared memory.  Each worker memoises the traces *and system instances*
  it has built.

Trace distribution (workers > 1):

* **Shared memory (the default)** — the parent materialises each unique
  trace of the grid once, publishes its stacked sparse-ID array in a
  ``multiprocessing.shared_memory`` segment, and ships workers only the
  segment name + shape.  Workers map the segment and build zero-copy
  ``MiniBatch`` views, so a pool of N workers holds one copy of each trace
  instead of N, and worker start-up serialises kilobytes of specs rather
  than megabytes of trace.  Segment lifetime is owned by a
  :class:`_PublishedTraces` context manager: close+unlink runs on *every*
  exit path — mid-publish failures, worker crashes, quarantined grids —
  and a failure to release one segment never skips the rest.
* **On-disk cache (opt-in)** — when ``REPRO_TRACE_CACHE`` names a
  directory, traces are memoised to ``.npz`` archives there instead
  (:mod:`repro.data.io`), surviving across runs.  The user owns
  invalidation of a persistent cache.

Resilience (the long-running-sweep contract):

* **Crash recovery** — a killed worker (OOM, SIGKILL, segfault) breaks the
  ``ProcessPoolExecutor``; :func:`run_grid` respawns the pool and
  re-dispatches only the unfinished points.  Failing points are retried
  with exponential backoff + jitter (injectable clock/sleep/rng, so tests
  are deterministic) up to ``max_retries``, then *quarantined*: the grid
  completes with partial results plus a structured :class:`GridReport`
  instead of dying hours in.
* **Per-point timeouts** — ``timeout`` bounds each point's wall clock; a
  stalled worker is killed, the point records a
  :class:`SweepPointTimeoutError` attempt, and innocent in-flight points
  are re-queued without burning their retry budget.
* **Checkpoint/resume** — ``checkpoint=path`` appends each completed
  point's result to a JSONL journal keyed by :func:`point_key` (a stable
  content hash of the frozen spec).  A re-run with the same journal skips
  the already-computed points and returns results bit-identical to an
  uninterrupted run.  The journal is append-only; a line truncated by an
  interrupt is skipped on load.

Systems are reused across the grid points that share their construction
parameters — the dynamic-cache systems reset their scratchpads in place
(one dense ``rows_per_table`` Hit-Map allocation per worker per
(system, scale) instead of ~320 MB of fresh index per grid point at paper
scale).
"""

from __future__ import annotations

import hashlib
import json
import os
import itertools
import random
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from functools import lru_cache
from pathlib import Path
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro._env import read_env, write_env
from repro.errors import SweepConfigError
from repro.analysis.shm import (
    _PublishedTraces,
    _SHM_ATTACHED,
    _SHM_MANIFEST,
    attach_shared_trace as _attach_shared_trace,
    install_manifest,
    publish_trace,
)
from repro.api.factory import build_system
from repro.api.specs import SystemSpec, uniform_system_spec
from repro.data.io import TraceFileSpec, materialise_cached
from repro.data.scenarios import ScenarioSpec, build_scenario
from repro.data.trace import MaterialisedDataset, MiniBatch, make_dataset
from repro.hardware.spec import HardwareSpec
from repro.model.config import ModelConfig
from repro.serve.arrivals import ArrivalSpec, ServeSpec
from repro.systems.base import TrainingSystem
from repro.testing import faults
from repro.testing.faults import fault_point

#: Result metrics a sweep point can request.  The ``SystemRunResult``
#: reductions work for every system; ``hit_rate``, ``per_table_hit_rates``
#: and ``cache_stats`` (the whole ``AggregateCacheStats``, for consumers
#: that want several reductions from one pipeline pass) stream the
#: metadata pipeline and are only meaningful for the dynamic-cache
#: ScratchPipe.
METRICS = ("mean_latency", "mean_energy", "stage_means", "group_means",
           "hit_rate", "per_table_hit_rates", "cache_stats", "serve")

#: Metrics that stream the ScratchPipe metadata pipeline.
_STREAMING_METRICS = ("hit_rate", "per_table_hit_rates", "cache_stats")

#: The live-replay metric: returns a full ``repro.serve.ServeReport``
#: (p50/p95/p99 per-stage latency, SLA-violation rate) instead of a
#: scalar.  Like the streaming metrics it drives the ScratchPipe
#: pipeline, so it is scratchpipe-only.
_SERVE_METRIC = "serve"

#: Legacy system names a spec-less point may carry; a point with a
#: ``system_spec`` may name any registered system.
SYSTEMS = ("hybrid", "static_cache", "strawman", "scratchpipe")

#: Environment variable naming the on-disk trace cache directory.
TRACE_CACHE_ENV = "REPRO_TRACE_CACHE"

#: Optional directory where every trace *generation* drops a marker file —
#: the observability hook the serialisation/regeneration-counting tests
#: use to prove workers map shared memory instead of regenerating (or
#: receiving pickled) traces.
TRACE_GEN_LOG_ENV = "REPRO_TRACE_GEN_LOG"

#: Override for the trace-publication thread count (``run_grid`` parent).
PUBLISH_THREADS_ENV = "REPRO_PUBLISH_THREADS"

#: Trace key: everything a worker needs to regenerate a trace from scratch.
#: The final component addresses a real-trace file; workers re-open the
#: (path-addressed, sha-pinned) file when shared memory has not published
#: its content already.
TraceKey = Tuple[
    ModelConfig, str, int, int, Optional[ScenarioSpec],
    Optional[TraceFileSpec],
]

#: Per-process counter naming trace-generation marker files (pid + a
#: monotone index is unique without reaching for ambient entropy).
_GEN_MARKER_IDS = itertools.count()


# ----------------------------------------------------------------------
# Error taxonomy (the InvalidSystemSpecError pattern: named subclasses a
# caller can catch precisely, surfaced in the CLI failure report)
# ----------------------------------------------------------------------
class SweepError(RuntimeError):
    """Base class of the sweep-resilience failures."""


class SweepPointTimeoutError(SweepError):
    """A sweep point exceeded its per-point wall-clock budget."""


class SweepWorkerCrashError(SweepError):
    """A pool worker died (OOM kill, SIGKILL, segfault) mid-point."""


class SweepGridError(SweepError):
    """A grid finished with quarantined points.

    Carries the full :class:`GridReport` as ``.report`` — partial results,
    per-point failures and checkpoint location — so callers (the CLI)
    can render a structured failure report instead of a bare traceback.
    """

    def __init__(self, report: "GridReport") -> None:
        super().__init__(report.summary())
        self.report = report


@dataclass(frozen=True)
class SweepPoint:
    """One independent evaluation of an experiment grid.

    Attributes:
        system: One of :data:`SYSTEMS`.
        locality: Trace locality class (``"random"``/``"low"``/...).
        cache_fraction: Cache size as a fraction of the table
            (ignored by the cache-less hybrid baseline).
        seed: Trace seed.
        num_batches: Trace length.
        config: Model geometry.
        hardware: Node being modelled.
        warmup: Iterations excluded from the steady-state metric.
        metric: Which reduction to return (one of :data:`METRICS`).
        policy_name: Replacement policy for the dynamic-cache systems
            (spec-less points only).
        scenario: Optional time-varying workload.  ``None`` (the default)
            is the legacy stationary path; a :class:`ScenarioSpec` runs the
            point under that scenario's processes with the point's
            ``locality`` as the base skew.
        system_spec: Optional full :class:`~repro.api.specs.SystemSpec`.
            When present it is the authoritative system description — the
            heterogeneous per-table cache path and plugin systems ride the
            existing spec-shipping dispatch for free — and ``system`` must
            equal ``system_spec.system``.  When absent, a uniform spec is
            synthesized from ``(system, cache_fraction, policy_name)``
            by :func:`~repro.api.specs.uniform_system_spec`.
        trace_file: Optional :class:`~repro.data.io.TraceFileSpec`
            replaying a real trace file instead of a synthetic one.  The
            spec (not the trace) crosses the process boundary; ``locality``
            becomes a label.  Mutually exclusive with a non-stationary
            ``scenario``.
        arrivals: Optional :class:`~repro.serve.ArrivalSpec` — shorthand
            for a ``serve`` spec with default queueing.  Only meaningful
            (and only allowed) with the ``"serve"`` metric.
        serve: Optional full :class:`~repro.serve.ServeSpec` (arrivals +
            queue depths + admission + SLA).  Only allowed with the
            ``"serve"`` metric; takes precedence over ``arrivals``.
    """

    system: str
    locality: str
    cache_fraction: float
    seed: int
    num_batches: int
    config: ModelConfig
    hardware: HardwareSpec
    warmup: int = 0
    metric: str = "mean_latency"
    policy_name: str = "lru"
    scenario: Optional[ScenarioSpec] = None
    system_spec: Optional[SystemSpec] = None
    trace_file: Optional[TraceFileSpec] = None
    arrivals: Optional[ArrivalSpec] = None
    serve: Optional[ServeSpec] = None

    def __post_init__(self) -> None:
        if (
            self.trace_file is not None
            and self.scenario is not None
            and not self.scenario.is_stationary
        ):
            raise SweepConfigError(
                "a file-backed sweep point replays recorded batches; "
                "scenario processes cannot be applied on top"
            )
        if self.system_spec is not None:
            if self.system != self.system_spec.system:
                raise SweepConfigError(
                    f"point names system {self.system!r} but its spec "
                    f"names {self.system_spec.system!r}"
                )
        elif self.system not in SYSTEMS:
            raise SweepConfigError(
                f"unknown system {self.system!r}; expected one of {SYSTEMS} "
                "(or attach a system_spec for registered/plugin systems)"
            )
        if self.metric not in METRICS:
            raise SweepConfigError(
                f"unknown metric {self.metric!r}; expected one of {METRICS}"
            )
        if (
            self.metric in _STREAMING_METRICS + (_SERVE_METRIC,)
            and self.system != "scratchpipe"
        ):
            raise SweepConfigError(
                f"the {self.metric} metric streams the ScratchPipe metadata "
                f"pipeline and is not defined for {self.system!r}"
            )
        if self.metric == _SERVE_METRIC:
            if self.arrivals is None and self.serve is None:
                raise SweepConfigError(
                    "the serve metric needs an arrival process: set "
                    "point.arrivals (ArrivalSpec) or point.serve (ServeSpec)"
                )
        elif self.arrivals is not None or self.serve is not None:
            raise SweepConfigError(
                f"arrivals/serve specs only apply to the {_SERVE_METRIC!r} "
                f"metric, not {self.metric!r}"
            )

    @property
    def resolved_system_spec(self) -> SystemSpec:
        """The spec this point builds its system from.

        Spec-less points synthesize the uniform spec their legacy fields
        describe (hybrid baselines drop the meaningless cache fraction).
        """
        if self.system_spec is not None:
            return self.system_spec
        cache_fraction: Optional[float] = self.cache_fraction
        if self.system in ("hybrid", "overlapped_hybrid", "multi_gpu"):
            cache_fraction = None
        return uniform_system_spec(
            self.system, cache_fraction, policy=self.policy_name
        )

    @property
    def resolved_serve(self) -> Optional[ServeSpec]:
        """The full serve spec of a ``"serve"``-metric point."""
        if self.serve is not None:
            return self.serve
        if self.arrivals is not None:
            return ServeSpec(arrivals=self.arrivals)
        return None

    @property
    def trace_key(self) -> TraceKey:
        """Everything that determines this point's trace content.

        Stationary specs normalise to ``None`` — they generate traces
        bit-identical to the legacy path, so giving them a distinct key
        would duplicate cache entries and shared-memory segments.
        """
        effective = self.scenario
        if effective is not None:
            if effective.is_stationary:
                effective = None
            else:
                effective = effective.with_locality(self.locality)
        # File-backed content depends only on (file spec, config,
        # length): normalise the synthetic-only axes so seed replicates
        # and locality labels share one materialisation + shm segment.
        if self.trace_file is not None:
            return (self.config, "trace", 0, self.num_batches,
                    effective, self.trace_file)
        return (self.config, self.locality, self.seed, self.num_batches,
                effective, self.trace_file)

    def label(self) -> str:
        """Compact human-readable identity for reports and fault details."""
        return (
            f"{self.system}:{self.locality}:cache={self.cache_fraction:g}:"
            f"{self.metric}:seed={self.seed}"
        )


def point_key(point: SweepPoint) -> str:
    """Stable content hash of a point — the checkpoint-journal key.

    ``SweepPoint`` and every spec it nests are frozen dataclasses whose
    ``repr`` is a pure function of their field values (verified stable
    across processes and ``PYTHONHASHSEED``), so the digest identifies the
    *computation*, not the process that ran it.
    """
    return hashlib.sha256(repr(point).encode("utf-8")).hexdigest()


def _log_trace_generation(key: TraceKey) -> None:
    log_dir = read_env(TRACE_GEN_LOG_ENV)
    if not log_dir:
        return
    marker = os.path.join(
        log_dir, f"gen-{os.getpid()}-{next(_GEN_MARKER_IDS)}"
    )
    with open(marker, "w", encoding="utf-8") as fh:
        fh.write(repr(key))


def _generate_trace(key: TraceKey) -> MaterialisedDataset:
    """Materialise one trace from its key (generation, not lookup)."""
    config, locality, seed, num_batches, scenario, trace_file = key
    _log_trace_generation(key)
    if trace_file is not None:
        return trace_file.materialise(config, num_batches)
    if scenario is not None and not scenario.is_stationary:
        source = build_scenario(
            config, scenario, seed=seed, num_batches=num_batches
        )
        return MaterialisedDataset(source)
    return MaterialisedDataset(
        make_dataset(config, locality, seed=seed, num_batches=num_batches)
    )


@lru_cache(maxsize=8)
def _cached_trace(key: TraceKey) -> MaterialisedDataset:
    """Resolve (and memoise, per process) one benchmark trace.

    Resolution order: parent-published shared memory (zero-copy), then the
    on-disk archive cache when :data:`TRACE_CACHE_ENV` is set, then
    regeneration from the key.
    """
    shared = _attach_shared_trace(key)
    if shared is not None:
        return shared
    config, locality, seed, num_batches, scenario, trace_file = key
    cache_dir = read_env(TRACE_CACHE_ENV)
    if cache_dir and trace_file is None and (
        scenario is None or scenario.is_stationary
    ):
        return materialise_cached(config, locality, seed, num_batches, cache_dir)
    return _generate_trace(key)


@lru_cache(maxsize=8)
def _cached_system(
    spec: SystemSpec,
    config: ModelConfig,
    hardware: HardwareSpec,
) -> TrainingSystem:
    """Build (and memoise, per process) one system instance.

    Every construction flows through ``repro.api.build_system`` keyed on
    the (hashable) spec, so uniform and heterogeneous grid points share
    one code path.  The dynamic-cache systems reset their scratchpads
    between ``run_trace`` calls, so reuse across grid points is
    value-identical to building fresh instances while allocating each
    dense Hit-Map index once per worker.
    """
    return build_system(spec, config, hardware)


def _build_system(point: SweepPoint) -> TrainingSystem:
    return _cached_system(
        point.resolved_system_spec, point.config, point.hardware
    )


def run_point(point: SweepPoint) -> Any:
    """Evaluate one sweep point: build trace + system, run, reduce."""
    fault_point("sweep.point", detail=point.label())
    trace = _cached_trace(point.trace_key)
    system = _build_system(point)
    if point.metric in _STREAMING_METRICS:
        aggregate = system.aggregate_cache_stats(trace, warmup=point.warmup)
        if point.metric == "hit_rate":
            return aggregate.hit_rate
        if point.metric == "per_table_hit_rates":
            return aggregate.per_table_hit_rates()
        return aggregate
    if point.metric == _SERVE_METRIC:
        # Lazy import mirrors the AggregateCacheStats codec pattern: the
        # spec types are cheap, the replay machinery loads on first use.
        from repro.serve import replay

        return replay(
            system, trace, point.resolved_serve, warmup=point.warmup
        )
    result = system.run_trace(trace)
    return getattr(result, point.metric)(warmup=point.warmup)


def _worker_init(
    cache_dir: Optional[str],
    manifest: Dict[TraceKey, Tuple[str, Tuple[int, ...]]],
) -> None:
    if cache_dir:
        write_env(TRACE_CACHE_ENV, cache_dir)
    install_manifest(manifest)
    # Under the fork start method the worker inherits the parent's memo
    # caches — including any traces the parent materialised while
    # publishing shared memory.  Drop them so workers resolve traces
    # through the shared segments (one copy pool-wide) instead of keeping
    # inherited private copies alive.
    _cached_trace.cache_clear()
    _cached_system.cache_clear()
    # Fresh-process semantics for the fault injector's per-process arrival
    # counters (a forked worker would otherwise inherit the parent's).
    faults.reset_arrivals()


def _disk_cacheable(key: TraceKey) -> bool:
    """Whether :func:`materialise_cached` can serve this trace key."""
    scenario, trace_file = key[4], key[5]
    return trace_file is None and (scenario is None or scenario.is_stationary)


def _publish_threads(num_keys: int) -> int:
    """Trace-generation thread count for the publication pipeline."""
    raw = read_env(PUBLISH_THREADS_ENV)
    if raw is not None:
        try:
            count = int(raw)
        except ValueError:
            raise SweepConfigError(
                f"{PUBLISH_THREADS_ENV} must be an integer, got {raw!r}"
            ) from None
        if count < 1:
            raise SweepConfigError(
                f"{PUBLISH_THREADS_ENV} must be >= 1, got {count}"
            )
    else:
        count = min(4, os.cpu_count() or 1)
    return min(count, max(num_keys, 1))


def _publish_shared_traces(
    points: Sequence[SweepPoint],
    manifest: Dict[TraceKey, Tuple[str, Tuple[int, ...]]],
    segments: List[Any],
    skip_disk_cacheable: bool,
) -> None:
    """Materialise each unique trace once and publish it in shared memory.

    Fills the caller-owned ``manifest`` (handed to workers) and
    ``segments`` (released by the caller once the pool is done) in place,
    so segments created before a mid-publish failure are still released.
    The parent pays one generation per unique trace — the same total work
    one worker would have done — and every worker maps, rather than
    copies, the result.  With ``skip_disk_cacheable`` (an explicit
    ``REPRO_TRACE_CACHE``), only the keys the disk cache *cannot* serve —
    non-stationary scenario traces — are published.  The raw segment
    handling lives in :mod:`repro.analysis.shm` (the one module allowed
    to touch ``multiprocessing.shared_memory``).

    Generation runs on a small thread pool (``REPRO_PUBLISH_THREADS``,
    default ``min(4, cpus)``): the numpy sampling inside
    :func:`make_dataset` releases the GIL, so wide grids with several
    unique traces overlap generation instead of serialising the whole
    dispatch behind it.  Publication itself stays on the calling thread,
    in point order — ``manifest``/``segments`` are never touched
    concurrently and segment creation order is deterministic.  The
    submission window is bounded by the thread count so the parent never
    holds more than ``threads + lru`` traces at once.
    """
    keys: List[TraceKey] = []
    queued = set()
    for point in points:
        key = point.trace_key
        if key in manifest or key in queued:
            continue
        if skip_disk_cacheable and _disk_cacheable(key):
            continue
        queued.add(key)
        keys.append(key)
    if not keys:
        return
    threads = _publish_threads(len(keys))
    if threads == 1 or len(keys) == 1:
        for key in keys:
            publish_trace(key, _cached_trace(key), manifest, segments)
        return
    window: Deque[Tuple[TraceKey, Future]] = deque()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for key in keys:
            window.append((key, pool.submit(_cached_trace, key)))
            if len(window) > threads:
                head, future = window.popleft()
                publish_trace(head, future.result(), manifest, segments)
        while window:
            head, future = window.popleft()
            publish_trace(head, future.result(), manifest, segments)


# ----------------------------------------------------------------------
# Checkpoint journal: append-only JSONL of completed point results
# ----------------------------------------------------------------------
def _encode_result(value: Any) -> Any:
    """JSON-encode a metric result so it round-trips exactly.

    Tuples and the ``AggregateCacheStats`` dataclass are tagged; numpy
    scalars narrow to their Python equivalents (value-identical — figure
    formatting and equality are unchanged).
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, tuple):
        return {"__tuple__": [_encode_result(v) for v in value]}
    if isinstance(value, list):
        return [_encode_result(v) for v in value]
    if isinstance(value, dict):
        return {
            "__dict__": [
                [_encode_result(k), _encode_result(v)]
                for k, v in value.items()
            ]
        }
    from repro.systems.scratchpipe_system import AggregateCacheStats

    if isinstance(value, AggregateCacheStats):
        return {
            "__cache_stats__": {
                f.name: _encode_result(getattr(value, f.name))
                for f in dataclass_fields(value)
            }
        }
    from repro.serve.report import ServeReport

    if isinstance(value, ServeReport):
        return {
            "__serve_report__": {
                f.name: _encode_result(getattr(value, f.name))
                for f in dataclass_fields(value)
            }
        }
    raise TypeError(
        f"cannot journal a result of type {type(value).__name__}; "
        "teach _encode_result about it before checkpointing this metric"
    )


def _decode_result(value: Any) -> Any:
    """Inverse of :func:`_encode_result`."""
    if isinstance(value, list):
        return [_decode_result(v) for v in value]
    if isinstance(value, dict):
        if "__tuple__" in value:
            return tuple(_decode_result(v) for v in value["__tuple__"])
        if "__dict__" in value:
            return {
                _decode_result(k): _decode_result(v)
                for k, v in value["__dict__"]
            }
        if "__cache_stats__" in value:
            from repro.systems.scratchpipe_system import AggregateCacheStats

            return AggregateCacheStats(**{
                k: _decode_result(v)
                for k, v in value["__cache_stats__"].items()
            })
        if "__serve_report__" in value:
            from repro.serve.report import ServeReport

            return ServeReport(**{
                k: _decode_result(v)
                for k, v in value["__serve_report__"].items()
            })
    return value


class CheckpointJournal:
    """Append-only JSONL journal of completed sweep-point results.

    One line per completed point: ``{"v": 1, "key": <point_key>,
    "result": <tagged JSON>}``.  Loading tolerates a truncated final line
    (the signature of an interrupt mid-write) and unknown versions, so a
    journal can always be resumed from.  Appends are flushed per line —
    an interrupted grid loses at most its in-flight points.
    """

    VERSION = 1

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fh = None

    def load(self) -> Dict[str, Any]:
        """Read the journal into ``{point_key: decoded result}``."""
        results: Dict[str, Any] = {}
        if not self.path.exists():
            return results
        with open(self.path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # truncated tail from an interrupted append
                if (
                    not isinstance(record, dict)
                    or record.get("v") != self.VERSION
                    or "key" not in record
                    or "result" not in record
                ):
                    continue
                results[record["key"]] = _decode_result(record["result"])
        return results

    def record(self, key: str, result: Any) -> None:
        """Append one completed point (flushed immediately)."""
        if self._fh is None:
            if self.path.parent != Path("."):
                self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        line = json.dumps(
            {"v": self.VERSION, "key": key, "result": _encode_result(result)},
            separators=(",", ":"),
        )
        self._fh.write(line + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# ----------------------------------------------------------------------
# Grid options + failure report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GridOptions:
    """Resilience knobs for :func:`run_grid`.

    Attributes:
        timeout: Per-point wall-clock budget in seconds (``None``: no
            timeout).  Measured from dispatch; in-flight submissions are
            capped at the worker count, so dispatch ≈ start.
        max_retries: Failed attempts a point may retry before quarantine
            (total attempts = ``max_retries + 1``).
        backoff_base: First retry delay, seconds.
        backoff_max: Retry-delay ceiling, seconds.
        jitter: Uniform multiplicative jitter fraction added to each
            delay (``delay *= 1 + jitter * rng.random()``).
        checkpoint: Path of the :class:`CheckpointJournal` (``None``: no
            journaling).
        poll: Future-polling interval of the scheduler loop, seconds.
    """

    timeout: Optional[float] = None
    max_retries: int = 2
    backoff_base: float = 0.5
    backoff_max: float = 30.0
    jitter: float = 0.1
    checkpoint: Optional[Union[str, Path]] = None
    poll: float = 0.05


#: Ambient defaults, overridable per-call or via :func:`grid_options`.
# repro-lint: disable=worker-capture -- parent-only knob: run_grid reads
# it once before dispatch and ships the resolved GridOptions to workers;
# workers never consult the ambient value.
_AMBIENT_OPTIONS = GridOptions()


@contextmanager
def grid_options(**overrides: Any) -> Iterator[GridOptions]:
    """Override the ambient :class:`GridOptions` inside a ``with`` block.

    The CLI's global ``--checkpoint``/``--point-timeout``/
    ``--point-retries`` flags use this to reach every :func:`run_grid`
    call a figure makes without threading parameters through each
    experiment entry point.
    """
    global _AMBIENT_OPTIONS
    saved = _AMBIENT_OPTIONS
    _AMBIENT_OPTIONS = replace(saved, **overrides)
    try:
        yield _AMBIENT_OPTIONS
    finally:
        _AMBIENT_OPTIONS = saved


@dataclass(frozen=True)
class PointFailure:
    """One quarantined point in a :class:`GridReport`."""

    index: int
    point: SweepPoint
    error_type: str
    message: str
    attempts: int


@dataclass
class GridReport:
    """Everything a grid run produced, failures included.

    Attributes:
        results: Per-point results in grid order; ``None`` at quarantined
            indices.
        failures: Quarantined points, in the order they gave up.
        completed: Points computed by *this* run (excludes resumed).
        resumed: Points served from the checkpoint journal.
        retries: Re-dispatches performed (crashes, timeouts, errors).
        checkpoint: Journal path, when checkpointing was on.
    """

    results: List[Any]
    failures: List[PointFailure] = field(default_factory=list)
    completed: int = 0
    resumed: int = 0
    retries: int = 0
    checkpoint: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        """One-line outcome (the :class:`SweepGridError` message)."""
        return (
            f"{len(self.failures)} of {len(self.results)} sweep points "
            f"quarantined ({self.completed} completed, "
            f"{self.resumed} resumed, {self.retries} retries)"
        )

    def format(self) -> str:
        """Multi-line structured failure report (the CLI rendering)."""
        lines = [f"sweep failure report: {self.summary()}"]
        for failure in self.failures:
            lines.append(
                f"  [{failure.index}] {failure.point.label()}: "
                f"{failure.error_type}: {failure.message} "
                f"({failure.attempts} attempts)"
            )
        if self.checkpoint:
            lines.append(
                f"completed points are journaled in {self.checkpoint}; "
                "re-run with the same checkpoint to resume"
            )
        return "\n".join(lines)


_UNSET = object()


def run_grid(
    points: Sequence[SweepPoint],
    workers: Optional[int] = 1,
    *,
    timeout: Any = _UNSET,
    max_retries: Any = _UNSET,
    backoff_base: Any = _UNSET,
    backoff_max: Any = _UNSET,
    jitter: Any = _UNSET,
    checkpoint: Any = _UNSET,
    report: bool = False,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
    rng: Optional[random.Random] = None,
) -> Union[List[Any], GridReport]:
    """Evaluate a grid of sweep points, preserving input order.

    Args:
        points: The grid, flattened in the order results are wanted.
        workers: Process count.  ``1`` (the default) runs serially in this
            process — the deterministic reference path; ``None`` uses all
            CPUs.  Results are order-preserved and value-identical for any
            worker count, so parallelism only changes wall-clock time.
        timeout, max_retries, backoff_base, backoff_max, jitter,
        checkpoint: Per-call overrides of the ambient
            :class:`GridOptions` (see :func:`grid_options`).
        report: Return the full :class:`GridReport` instead of the bare
            result list.  Without it, a grid with quarantined points
            raises :class:`SweepGridError` (carrying the report).
        clock, sleep, rng: Injectable time source, sleeper and jitter RNG
            — tests drive the backoff schedule deterministically with a
            fake clock whose ``sleep`` advances it.  ``clock`` and
            ``sleep`` must be a consistent pair.

    Resilience (workers > 1): worker crashes respawn the pool and re-queue
    unfinished points; per-point timeouts kill stalled workers; failing
    points retry with exponential backoff + jitter up to ``max_retries``
    and are quarantined afterwards.  The serial path is the bit-identical
    reference and deliberately stays un-instrumented — exceptions
    propagate — but honours the checkpoint journal, so an interrupted
    ``workers=1`` run resumes too.
    """
    overrides = {
        name: value
        for name, value in (
            ("timeout", timeout),
            ("max_retries", max_retries),
            ("backoff_base", backoff_base),
            ("backoff_max", backoff_max),
            ("jitter", jitter),
            ("checkpoint", checkpoint),
        )
        if value is not _UNSET
    }
    options = replace(_AMBIENT_OPTIONS, **overrides)
    points = list(points)
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise SweepConfigError(f"workers must be >= 1 (or None), got {workers}")
    grid = _run_grid(
        points, workers, options, clock, sleep, rng or random.Random(0)
    )
    if report:
        return grid
    if not grid.ok:
        raise SweepGridError(grid)
    return grid.results


def _run_grid(
    points: List[SweepPoint],
    workers: int,
    options: GridOptions,
    clock: Callable[[], float],
    sleep: Callable[[float], None],
    rng: random.Random,
) -> GridReport:
    journal = (
        CheckpointJournal(options.checkpoint) if options.checkpoint else None
    )
    keys = [point_key(p) for p in points] if journal else []
    results: List[Any] = [None] * len(points)
    out = GridReport(
        results=results,
        checkpoint=str(options.checkpoint) if options.checkpoint else None,
    )
    pending = list(range(len(points)))
    if journal is not None:
        known = journal.load()
        still_pending = []
        for i in pending:
            if keys[i] in known:
                results[i] = known[keys[i]]
                out.resumed += 1
            else:
                still_pending.append(i)
        pending = still_pending
    try:
        if workers == 1 or len(pending) <= 1:
            for i in pending:
                results[i] = run_point(points[i])
                out.completed += 1
                if journal is not None:
                    journal.record(keys[i], results[i])
            return out
        _run_grid_parallel(
            points, pending, min(workers, len(pending)), options,
            out, journal, keys, clock, sleep, rng,
        )
        return out
    finally:
        if journal is not None:
            journal.close()


def _make_pool(
    workers: int,
    cache_dir: Optional[str],
    manifest: Dict[TraceKey, Tuple[str, Tuple[int, ...]]],
) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        max_workers=workers,
        initializer=_worker_init,
        initargs=(cache_dir, manifest),
    )


def _kill_pool_workers(pool: ProcessPoolExecutor) -> None:
    """Forcibly stop a pool whose workers no longer respond.

    Reaches into the executor's private process table — there is no public
    API for "a task is stuck, take the workers down" — terminates each
    worker and escalates to SIGKILL if one survives the grace period.
    """
    processes = list(getattr(pool, "_processes", {}).values())
    for process in processes:
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already dead
            pass
    for process in processes:
        process.join(timeout=5.0)
        if process.is_alive():  # pragma: no cover - SIGTERM ignored
            process.kill()
            process.join(timeout=5.0)


def _run_grid_parallel(
    points: List[SweepPoint],
    pending: List[int],
    workers: int,
    options: GridOptions,
    out: GridReport,
    journal: Optional[CheckpointJournal],
    keys: List[str],
    clock: Callable[[], float],
    sleep: Callable[[float], None],
    rng: random.Random,
) -> None:
    """The resilient scheduler: dispatch, recover, retry, quarantine."""
    cache_dir = read_env(TRACE_CACHE_ENV)
    attempts: Dict[int, int] = {}
    retry_at: Dict[int, float] = {}
    queue = deque(pending)

    def record_success(index: int, value: Any) -> None:
        out.results[index] = value
        out.completed += 1
        if journal is not None:
            journal.record(keys[index], value)

    def record_failure(index: int, error: BaseException) -> None:
        attempts[index] = attempts.get(index, 0) + 1
        if attempts[index] > options.max_retries:
            out.failures.append(
                PointFailure(
                    index=index,
                    point=points[index],
                    error_type=type(error).__name__,
                    message=str(error),
                    attempts=attempts[index],
                )
            )
            return
        out.retries += 1
        delay = min(
            options.backoff_max,
            options.backoff_base * (2 ** (attempts[index] - 1)),
        )
        delay *= 1.0 + options.jitter * rng.random()
        retry_at[index] = clock() + delay

    with _PublishedTraces() as shared:
        _publish_shared_traces(
            [points[i] for i in pending],
            shared.manifest,
            shared.segments,
            skip_disk_cacheable=bool(cache_dir),
        )
        # The parent runs no points itself when workers > 1; dropping its
        # memoised traces here leaves the shared segments as the only
        # copy instead of pinning a private duplicate (arrays + unique
        # sets) in the parent for the life of the process.
        _cached_trace.cache_clear()
        pool = _make_pool(workers, cache_dir, shared.manifest)
        inflight: Dict[Future, Tuple[int, float]] = {}
        try:
            while queue or inflight or retry_at:
                now = clock()
                for index in [i for i, t in retry_at.items() if t <= now]:
                    del retry_at[index]
                    queue.append(index)
                crashed = False
                while queue and len(inflight) < workers:
                    index = queue.popleft()
                    try:
                        future = pool.submit(run_point, points[index])
                    except BrokenProcessPool:
                        # The pool broke between iterations (a worker died
                        # with nothing of ours in flight to report it
                        # through): recover below, re-dispatch afterwards.
                        queue.appendleft(index)
                        crashed = True
                        break
                    inflight[future] = (index, clock())
                if not crashed and not inflight:
                    if retry_at:
                        sleep(max(0.0, min(retry_at.values()) - clock()))
                    continue
                done: Sequence[Future] = ()
                if not crashed:
                    done, _ = wait(
                        list(inflight),
                        timeout=options.poll,
                        return_when=FIRST_COMPLETED,
                    )
                for future in done:
                    index, _started = inflight.pop(future)
                    try:
                        value = future.result()
                    except BrokenProcessPool:
                        crashed = True
                        record_failure(
                            index,
                            SweepWorkerCrashError(
                                f"worker crashed while "
                                f"{points[index].label()} was in flight"
                            ),
                        )
                    except Exception as error:
                        record_failure(index, error)
                    else:
                        record_success(index, value)
                timed_out: List[Future] = []
                if options.timeout is not None:
                    now = clock()
                    timed_out = [
                        future
                        for future, (_, started) in inflight.items()
                        if now - started >= options.timeout
                    ]
                if timed_out:
                    for future in timed_out:
                        index, _started = inflight.pop(future)
                        record_failure(
                            index,
                            SweepPointTimeoutError(
                                f"{points[index].label()} exceeded the "
                                f"{options.timeout:g}s per-point budget"
                            ),
                        )
                    # A running future cannot be cancelled; the only way
                    # to reclaim a stalled worker is to take the pool
                    # down.  The remaining in-flight points are innocent
                    # by construction (they did not exceed the budget) —
                    # re-queued below without burning their retry budget.
                    _kill_pool_workers(pool)
                if crashed:
                    # The pool is broken: every still-queued future is
                    # about to fail too.  Give the executor a moment to
                    # resolve them so the culprit's own future (which
                    # raises BrokenProcessPool) is charged an attempt,
                    # then drain.
                    drained, still = wait(list(inflight), timeout=5.0)
                    for future in drained:
                        index, _started = inflight.pop(future)
                        try:
                            value = future.result()
                        except Exception as error:
                            record_failure(
                                index,
                                SweepWorkerCrashError(
                                    f"worker crashed while "
                                    f"{points[index].label()} was in "
                                    f"flight ({type(error).__name__})"
                                ),
                            )
                        else:  # pragma: no cover - completed pre-break
                            record_success(index, value)
                    for future in still:  # pragma: no cover - rare race
                        index, _started = inflight.pop(future)
                        queue.append(index)
                if crashed or timed_out:
                    for future in list(inflight):
                        index, _started = inflight.pop(future)
                        queue.append(index)
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = _make_pool(workers, cache_dir, shared.manifest)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
