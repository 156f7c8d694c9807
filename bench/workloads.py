"""The five benchmark workloads, and the worker that runs one in a process.

``BENCHMARK.json`` gates the three single-process workloads; the two that
keep both cores busy (``plan_cold_overlapped`` and ``grid_serve``) run
and are checked here too, but their timings follow the shared box more
than the program (see ``bench/README.md``).

Every workload is a closed loop: the pipeline admits the next batch only
when a cycle retires one.  A *pass* replays the workload's whole trace
from a cold cache (the system's scratchpads are reset at stream start).
For the pipeline workloads the set-up before the first pass builds the
trace, the system and the model, then streams an 8-batch warm-up that
triggers the lazy scratchpad allocation.  A grid sweep builds all of that
inside ``run_grid``, so its set-up is the time from the ``run_grid`` call
to the first retired batch.  The program receives only the generated
traces and specs; the seed given here is the only source of randomness.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import multiprocessing
import os
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional

from bench.spans import RETIRE, SPAN_NAMES, StreamClock, Tracer, instrument

#: Batches streamed by the set-up warm-up.
WARMUP_BATCHES = 8
#: train_dlrm: leading losses checked against sequential training.
REFERENCE_LOSSES = 50
#: plan_cold_overlapped: leading batches checked against the serial executor.
SERIAL_PREFIX = 50
#: train_dlrm: SGD learning rate.
LEARNING_RATE = 0.02
#: grid_serve: cache fractions, Poisson rates (batches per virtual
#: second), trace-seed offsets and steady-state warm-up of its points.
GRID_FRACTIONS = (0.05, 0.2)
GRID_RATES = (200.0, 2000.0)
GRID_SEED_OFFSETS = (0, 1)
GRID_WARMUP = 20


@dataclass(frozen=True)
class Geometry:
    """Model shape of a workload (MLPs (64, dim) bottom and (64, 1) top)."""

    tables: int
    rows: int
    batch: int
    lookups: int
    dim: int = 32

    def config(self):
        from repro.model.config import ModelConfig

        return ModelConfig(
            num_tables=self.tables,
            rows_per_table=self.rows,
            embedding_dim=self.dim,
            lookups_per_table=self.lookups,
            batch_size=self.batch,
            bottom_mlp=(64, self.dim),
            top_mlp=(64, 1),
        )


@dataclass(frozen=True)
class Workload:
    """One benchmark input set.

    Attributes:
        kind: ``"plan"`` (metadata-only pipeline), ``"train"`` (functional
            DLRM training) or ``"grid"`` (a ``run_grid`` sweep of serve
            points).
        cache_fraction: Scratchpad size as a fraction of each table (the
            grid sweeps :data:`GRID_FRACTIONS` instead).
        batches: Trace length (grid: per point).

    Why each workload exists is recorded in ``bench/README.md``, and
    beside the gated ones' names in ``BENCHMARK.json``.
    """

    name: str
    kind: str
    geometry: Geometry
    locality: str
    cache_fraction: float
    batches: int
    executor: str = "serial"


_ACCEPTANCE = Geometry(tables=8, rows=1_000_000, batch=512, lookups=20)
_PAPER = Geometry(tables=8, rows=10_000_000, batch=512, lookups=20)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("plan_hot", "plan", _ACCEPTANCE, "high", 0.1, 500),
        Workload("plan_cold", "plan", _PAPER, "random", 0.02, 200),
        Workload("plan_cold_overlapped", "plan", _PAPER, "random", 0.02, 200,
                 executor="overlapped"),
        Workload("train_dlrm", "train",
                 Geometry(tables=4, rows=200_000, batch=256, lookups=8),
                 "medium", 0.25, 400),
        Workload("grid_serve", "grid", _ACCEPTANCE, "medium", GRID_FRACTIONS[0], 150),
    )
}


def digest(payload) -> str:
    """sha256 of a JSON-serialisable payload (key order fixed)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _stats_rows(stats) -> list:
    return [dataclasses.astuple(s) for s in stats]


def _drain(stream) -> None:
    for _ in stream:
        pass


def _scratchpipe_spec(fraction: float, executor: str = "serial"):
    from repro.api import CacheSpec, PipelineSpec, SystemSpec

    return SystemSpec(
        system="scratchpipe",
        cache=CacheSpec(fraction=fraction),
        pipeline=PipelineSpec(executor=executor),
    )


class _PlanRunner:
    """Metadata-only pipeline under a strict hazard monitor."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.offered = workload.batches
        self.violations = 0
        self.first_stats: Optional[list] = None

    def setup(self) -> None:
        from repro.api import build_system
        from repro.core.pipeline import HazardMonitor
        from repro.data.trace import MaterialisedDataset, make_dataset
        from repro.hardware.spec import DEFAULT_HARDWARE

        w = self.workload
        self.config = w.geometry.config()
        self.trace = MaterialisedDataset(
            make_dataset(self.config, w.locality, seed=self.seed, num_batches=w.batches)
        )
        self.system = build_system(
            _scratchpipe_spec(w.cache_fraction, w.executor), self.config, DEFAULT_HARDWARE
        )
        _drain(self.system.stream_cache_stats(
            self.trace, WARMUP_BATCHES, monitor=HazardMonitor(strict=True)
        ))

    def prepare_pass(self) -> None:
        pass

    def run_pass(self):
        from repro.core.pipeline import HazardMonitor

        monitor = HazardMonitor(strict=True)
        try:
            return list(self.system.stream_cache_stats(self.trace, monitor=monitor))
        finally:
            self.violations += len(monitor.violations)

    def digest(self, stats) -> str:
        if self.first_stats is None:
            self.first_stats = stats[:SERIAL_PREFIX]
        return digest(_stats_rows(stats))

    def checks(self) -> Dict[str, bool]:
        if self.workload.executor == "serial" or self.first_stats is None:
            return {}
        from repro.api import build_system
        from repro.core.pipeline import HazardMonitor
        from repro.hardware.spec import DEFAULT_HARDWARE

        serial = build_system(
            _scratchpipe_spec(self.workload.cache_fraction), self.config, DEFAULT_HARDWARE
        )
        prefix = list(serial.stream_cache_stats(
            self.trace, len(self.first_stats), monitor=HazardMonitor(strict=True)
        ))
        return {"serial_prefix_identical": _stats_rows(prefix) == _stats_rows(self.first_stats)}


class _TrainRunner:
    """Functional ScratchPipe training, serial executor, strict monitor."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.offered = workload.batches
        self.violations = 0
        self.first_losses: Optional[List[float]] = None

    def setup(self) -> None:
        from repro.data.trace import MaterialisedDataset, make_dataset
        from repro.model.dlrm import DLRMModel

        w = self.workload
        self.config = w.geometry.config()
        self.trace = MaterialisedDataset(make_dataset(
            self.config, w.locality, seed=self.seed, num_batches=w.batches,
            with_dense=True,
        ))
        self.init = DLRMModel.initialise(self.config, seed=self.seed)
        _drain(self._pipeline().stream(WARMUP_BATCHES))

    def _pipeline(self):
        """A pipeline over a fresh training run from the initial weights."""
        from repro.core.pipeline import HazardMonitor, ScratchPipePipeline
        from repro.model import SGD
        from repro.systems.scratchpipe_system import ScratchPipeTrainingRun

        run = ScratchPipeTrainingRun.from_spec(
            _scratchpipe_spec(self.workload.cache_fraction),
            self.config,
            [table.weights.copy() for table in self.init.tables],
            copy.deepcopy(self.init.dense_network),
            optimizer=SGD(lr=LEARNING_RATE),
            monitor=HazardMonitor(strict=True),
        )
        return ScratchPipePipeline(
            config=run.config,
            scratchpads=run.scratchpads,
            dataset_batches=self.trace,
            cpu_tables=run.cpu_tables,
            trainer=run.trainer,
            future_window=run.future_window,
            monitor=run.monitor,
            executor=run.executor,
        )

    def prepare_pass(self) -> None:
        # The last pass's pipeline goes first, or both would count in the peak.
        self.pipeline = None
        self.pipeline = self._pipeline()

    def run_pass(self):
        losses: List[float] = []
        try:
            return list(self.pipeline.stream(losses=losses)), losses
        finally:
            self.violations += len(self.pipeline.monitor.violations)

    def digest(self, output) -> str:
        stats, losses = output
        if self.first_losses is None:
            self.first_losses = losses[:REFERENCE_LOSSES]
        return digest([_stats_rows(stats), [loss.hex() for loss in losses]])

    def checks(self) -> Dict[str, bool]:
        from repro.model import SGD
        from repro.model.dlrm import DLRMModel

        if self.first_losses is None:
            return {}
        reference = DLRMModel.initialise(
            self.config, seed=self.seed, optimizer=SGD(lr=LEARNING_RATE)
        )
        losses = [
            reference.train_step(self.trace.batch(i))
            for i in range(len(self.first_losses))
        ]
        return {"losses_match_sequential": losses == self.first_losses}


class _GridRunner:
    """``run_grid`` over the serve points, at ``min(2, nproc)`` workers
    (one when traced)."""

    def __init__(self, workload: Workload, seed: int, traced: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.workers = 1 if traced else min(2, os.cpu_count() or 1)
        self.offered = (
            len(GRID_SEED_OFFSETS) * len(GRID_FRACTIONS) * len(GRID_RATES) * workload.batches
        )
        self.violations = 0
        self.retries = 0
        self.quarantined = 0

    def setup(self) -> None:
        """The grid's points; ``run_grid`` builds their traces and systems."""
        from repro.analysis.sweep import SweepPoint
        from repro.hardware.spec import DEFAULT_HARDWARE
        from repro.serve import ArrivalSpec, ServeSpec

        w = self.workload
        config = w.geometry.config()
        self.points = [
            SweepPoint(
                system="scratchpipe",
                locality=w.locality,
                cache_fraction=fraction,
                seed=self.seed + offset,
                num_batches=w.batches,
                config=config,
                hardware=DEFAULT_HARDWARE,
                warmup=GRID_WARMUP,
                metric="serve",
                serve=ServeSpec(arrivals=ArrivalSpec(kind="poisson", rate=rate), seed=self.seed),
            )
            for offset in GRID_SEED_OFFSETS
            for fraction in GRID_FRACTIONS
            for rate in GRID_RATES
        ]

    def prepare_pass(self) -> None:
        # A one-worker grid memoises traces and systems in this process;
        # every pass starts without them, as a fresh sweep does.
        from repro.analysis import sweep

        sweep._cached_trace.cache_clear()
        sweep._cached_system.cache_clear()

    def run_pass(self):
        from repro.analysis.sweep import run_grid

        report = run_grid(self.points, workers=self.workers, report=True)
        self.retries += report.retries
        self.quarantined += len(report.failures)
        return report

    def digest(self, report) -> str:
        return digest([
            None if result is None else dataclasses.asdict(result)
            for result in report.results
        ])

    def checks(self) -> Dict[str, bool]:
        return {"grid_ok": self.quarantined == 0}


def _reap_children(timeout_s: float = 30.0) -> None:
    """Wait for every process this one started (pool workers shut down
    without waiting), so none outlives the run and ``RUSAGE_CHILDREN``
    counts them all."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.02)


def _peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus that of its reaped children."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + children_kb) / 1024.0


def _stream_summary(streams) -> dict:
    """Retire intervals and returned-stats totals of recorded streams."""
    intervals: List[float] = []
    first: List[float] = []
    totals = {"batches": 0, "unique": 0, "hits": 0, "misses": 0, "writebacks": 0}
    for record in streams:
        yields = record["yields"]
        if yields:
            first.append(1000.0 * (yields[0] - record["start"]))
        intervals.extend(1000.0 * (b - a) for a, b in zip(yields, yields[1:]))
        totals["batches"] += len(yields)
        for key in ("unique", "hits", "misses", "writebacks"):
            totals[key] += record[key]
    return {"intervals_ms": intervals, "first_retire_ms": first, **totals}


def layer_report(
    tracer: Tracer, setup_spans: int, setup_s: float, passes: List[dict], batches: int
) -> Dict[str, float]:
    """Per-layer numbers of a traced run.

    Over the traced passes: each span's calls and self time per retired
    batch, and its self-time share of the passes' wall time.  The
    ``retire`` root's self time is ``executor.wait``: time the pipeline
    stream spent outside every layer span.  ``data.materialise`` also
    reports its share of the set-up.  A grid's dispatch overhead is its
    wall time outside ``sweep.run_point``: trace generation, publication
    and result collection in the sweep parent.
    """
    measured_s = sum(p["seconds"] for p in passes)
    calls: Dict[str, int] = {name: 0 for name in SPAN_NAMES + (RETIRE,)}
    self_s: Dict[str, float] = dict.fromkeys(calls, 0.0)
    sizes: Dict[str, int] = dict.fromkeys(calls, 0)
    points_s = 0.0
    for span in tracer.closed(setup_spans):
        calls[span.name] += 1
        self_s[span.name] += span.self_s
        sizes[span.name] += span.size
        if span.name == "sweep.run_point":
            points_s += span.end - span.start
    per_batch = max(batches, 1)
    out: Dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls_per_batch"] = calls[name] / per_batch
        out[f"{name}.self_ms_per_batch"] = 1000.0 * self_s[name] / per_batch
        out[f"{name}.share"] = self_s[name] / measured_s
    out["executor.wait.calls_per_batch"] = calls[RETIRE] / per_batch
    out["executor.wait.self_ms_per_batch"] = 1000.0 * self_s[RETIRE] / per_batch
    out["executor.wait.share"] = self_s[RETIRE] / measured_s
    out["trace.coverage"] = sum(self_s[name] for name in SPAN_NAMES) / measured_s
    setup_materialise = sum(
        s.self_s for s in tracer.closed(0, setup_spans) if s.name == "data.materialise"
    )
    out["data.materialise.setup_share"] = setup_materialise / setup_s
    if points_s:
        out["sweep.dispatch_overhead_s"] = (measured_s - points_s) / len(passes)
        out["sweep.dispatch_overhead.share"] = 1.0 - points_s / measured_s
    for name, key in (("replacement.select_eligible", "replacement.victims_per_call"),
                      ("hitmap.assign_many", "hitmap.assign_keys_per_call")):
        out[key] = sizes[name] / calls[name] if calls[name] else 0.0
    return out


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    tracer: Optional[Tracer] = None,
    sink_dir: Optional[str] = None,
    min_passes: int = 1,
    check: bool = True,
) -> dict:
    """Set up one workload, time passes for about ``seconds``, check the outputs.

    A pass starts while the passes so far leave room for half of another
    within ``seconds``, and at least ``min_passes`` run.  With a tracer,
    every traced pass follows an untraced reference pass, so the tracing
    overhead is priced against passes of the same moment: across minutes
    the box's drift swamps it.  ``check=False`` skips the untimed
    reference checks.

    Returns the JSON-serialisable result the parent aggregates.  A pass
    that raises is recorded in ``errors`` and ends the run; its batches
    that never retired count as ``failed``.  ``sink_dir`` receives the
    retire times of forked sweep workers.
    """
    import numpy

    if workload.kind == "grid":
        runner = _GridRunner(workload, seed, traced=tracer is not None)
    elif workload.kind == "plan":
        runner = _PlanRunner(workload, seed)
    else:
        runner = _TrainRunner(workload, seed)
    clock = StreamClock(tracer, sink_dir)
    result: dict = {
        "workload": workload.name, "seed": seed, "traced": tracer is not None,
        "numpy": numpy.__version__, "passes": [], "references": [], "errors": [],
        "attempted": 0, "failed": 0,
    }
    streams: List[dict] = []

    def timed_pass(into: List[dict], keep_streams: bool) -> None:
        runner.prepare_pass()
        result["attempted"] += runner.offered
        start = perf_counter()
        try:
            output = runner.run_pass()
        except Exception as error:  # a failed pass is a result, not a crash
            result["errors"].append(f"{type(error).__name__}: {error}")
            retired = sum(len(s["yields"]) for s in clock.take())
            result["failed"] += runner.offered - retired
            return
        seconds = perf_counter() - start
        _reap_children()
        recorded = clock.take() + (clock.collect_sink() if sink_dir else [])
        if keep_streams:
            streams.extend(recorded)
        # perf_counter is CLOCK_MONOTONIC: forked workers' times compare.
        first = min((s["yields"][0] for s in recorded if s["yields"]), default=None)
        into.append({"batches": runner.offered, "seconds": seconds,
                     "digest": runner.digest(output),
                     "first_retire_s": None if first is None else first - start})

    with clock.installed(), (instrument(tracer) if tracer is not None else nullcontext()):
        start = perf_counter()
        runner.setup()
        result["setup_s"] = perf_counter() - start
        _reap_children()
        clock.take()
        setup_spans = len(tracer.spans) if tracer is not None else 0
        measuring = perf_counter()
        while not result["errors"]:
            if tracer is not None:
                # (A traced grid runs on one worker, so its reference does too.)
                tracer.enabled = False
                timed_pass(result["references"], keep_streams=False)
                tracer.enabled = True
                if result["errors"]:
                    break
            timed_pass(result["passes"], keep_streams=True)
            done = len(result["passes"])
            elapsed = perf_counter() - measuring
            if done >= min_passes and elapsed * (1.0 + 0.5 / max(done, 1)) > seconds:
                break
        if workload.kind == "grid":
            result["failed"] += runner.quarantined * workload.batches
            first = (result["references"] + result["passes"])[:1]
            if first:
                # run_grid generates the traces and builds the systems
                # itself: its set-up is the wait for its first retired batch.
                result["setup_s"] = first[0]["first_retire_s"]
    result["peak_rss_mb"] = _peak_rss_mb()
    result["streams"] = _stream_summary(streams)
    result["violations"] = runner.violations
    if workload.kind == "grid":
        result["sweep"] = {"retries": runner.retries, "quarantined": runner.quarantined}
    if tracer is not None and result["passes"]:
        result["layers"] = layer_report(
            tracer, setup_spans, result["setup_s"], result["passes"],
            result["streams"]["batches"],
        )
    result["checks"] = runner.checks() if check and not result["errors"] else {}
    return result
