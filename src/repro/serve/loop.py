"""Virtual-clock live-replay loop: open-loop traffic through ScratchPipe.

The steady-state timing model (``repro.systems.scratchpipe_system``) answers
"how fast does one iteration go when batches are always ready?".  This
module answers the production question the paper motivates but never
measures: with batches *arriving* on their own clock, how long does each
one wait, and what do the latency **tails** look like?

The replay is a tandem queue over the five priced pipeline stages
(``PRICED_STAGE_OFFSETS`` order) with blocking-after-service semantics:
each consecutive stage pair shares a bounded buffer of ``queue_depth``
slots, so a batch finishing stage ``k`` holds the stage until the batch
``queue_depth`` ahead of it has started stage ``k + 1`` — backpressure
propagates upstream exactly as it would through bounded inter-stage queues.
Everything runs on a virtual clock: no sleeping, no wall-time, bit-identical
results for the same ``(system, trace, ServeSpec, warmup)``.

Service times are the system's own stage prices over the contiguous trace
(``ScratchPipeSystem.stream_breakdowns``, the stream ``run_trace`` prices
from), so under the ``"reject"`` admission policy a dropped batch still
advances the cache state — rejection models the queueing consequence, not
a functional skip.
"""

from __future__ import annotations

import bisect
from typing import Optional, Union

import numpy as np

from repro.errors import ServeConfigError
from repro.core.pipeline import PRICED_STAGE_OFFSETS
from repro.serve.arrivals import ArrivalSpec, ServeSpec, arrival_times
from repro.serve.report import PERCENTILES, ServeReport, exact_percentiles
from repro.systems.base import InsufficientSteadyStateError
from repro.systems.scratchpipe_system import ScratchPipeSystem


class AdmissionRejectedError(RuntimeError):
    """A batch arrived to a full entry queue under the reject policy.

    The replay loop raises and accounts these internally — they surface
    as the ``rejected`` count of :class:`repro.serve.report.ServeReport`
    rather than aborting the run.  Exposed so callers building their own
    admission layers can reuse the same named signal.
    """

    def __init__(self, batch_index: int, arrival_s: float, depth: int):
        super().__init__(
            f"batch {batch_index} rejected at t={arrival_s:.6f}s: "
            f"entry queue full ({depth} waiting)"
        )
        self.batch_index = batch_index
        self.arrival_s = arrival_s
        self.depth = depth


def _service_times(system, trace, num_batches: int) -> np.ndarray:
    """Per-batch service seconds, one column per priced stage.

    Stage prices are the ones the steady-state model uses, plus the
    hardware's per-stage sync overhead.
    """
    if not isinstance(system, ScratchPipeSystem):
        raise TypeError(
            f"system {getattr(system, 'name', system)!r} does not stream "
            "cache statistics; live replay drives the ScratchPipe pipeline"
        )
    sync = system.hardware.stage_sync_s
    rows = []
    for breakdown in system.stream_breakdowns(trace, num_batches):
        priced = breakdown.by_stage()
        rows.append([priced[stage] + sync for stage in PRICED_STAGE_OFFSETS])
    return np.asarray(rows, dtype=np.float64)


def replay(
    system,
    trace,
    serve: Union[ServeSpec, ArrivalSpec, None] = None,
    num_batches: Optional[int] = None,
    warmup: int = 0,
) -> ServeReport:
    """Replay ``trace`` through ``system`` as open-loop live traffic.

    Args:
        system: A ``ScratchPipeSystem`` (or a subclass, priced by its own
            ``stream_breakdowns``).
        trace: Random-access batch source (``TraceSource`` / dataset).
        serve: A :class:`ServeSpec`, a bare :class:`ArrivalSpec` (wrapped
            with default queueing), or ``None`` for all defaults.
        num_batches: Trace prefix to offer (default: whole trace).
        warmup: Admitted batches excluded from percentile/SLA statistics
            (they still occupy the pipeline).  Like every steady-state
            reduction, a replay whose admitted count is ``<= warmup``
            raises :class:`InsufficientSteadyStateError` rather than
            silently reporting warmup-contaminated tails.

    Returns:
        A :class:`ServeReport` with exact per-stage and end-to-end
        p50/p95/p99 latency and the SLA-violation rate.
    """
    if serve is None:
        spec = ServeSpec()
    elif isinstance(serve, ArrivalSpec):
        spec = ServeSpec(arrivals=serve)
    else:
        spec = serve
    n = len(trace) if num_batches is None else num_batches
    if n < 1:
        raise ServeConfigError(f"num_batches must be >= 1, got {n}")
    if warmup < 0:
        raise ServeConfigError(f"warmup must be >= 0, got {warmup}")

    service = _service_times(system, trace, n)
    arrivals = arrival_times(spec.arrivals, spec.seed, n)
    num_stages = len(PRICED_STAGE_OFFSETS)
    depth = spec.queue_depth
    reject = spec.admission == "reject"

    # Per-admitted-batch schedules (virtual seconds).
    adm_arrival: list = []   # arrival time of each admitted batch
    adm_index: list = []     # original trace index
    starts: list = []        # starts[a][k] — service start at stage k
    deps: list = []          # deps[a][k] — departure (buffer slot freed)
    entries: list = []       # entries[a][k] — joined the stage-k queue
    rejections: list = []    # AdmissionRejectedError per dropped batch

    for i in range(n):
        t = float(arrivals[i])
        if reject:
            # Entry-queue occupancy: admitted batches that arrived but
            # have not started Plan yet.  starts[.][0] is non-decreasing,
            # so a bisect counts the still-waiting suffix.
            start0 = [s[0] for s in starts]
            waiting = len(start0) - bisect.bisect_right(start0, t)
            if waiting >= spec.admission_depth:
                rejections.append(AdmissionRejectedError(i, t, waiting))
                continue
        a = len(adm_arrival)
        adm_arrival.append(t)
        adm_index.append(i)
        row_start = [0.0] * num_stages
        row_comp = [0.0] * num_stages
        row_dep = [0.0] * num_stages
        row_entry = [0.0] * num_stages
        for k in range(num_stages):
            entry = t if k == 0 else row_dep[k - 1]
            start = entry if a == 0 else max(entry, deps[a - 1][k])
            comp = start + float(service[i][k])
            if k == num_stages - 1 or a < depth:
                dep = comp
            else:
                # Blocking-after-service: the slot ahead of stage k+1
                # frees when the batch `depth` ahead starts that stage.
                dep = max(comp, starts[a - depth][k + 1])
            row_entry[k] = entry
            row_start[k] = start
            row_comp[k] = comp
            row_dep[k] = dep
        starts.append(row_start)
        deps.append(row_dep)
        entries.append(row_entry)

    admitted = len(adm_arrival)
    if admitted <= warmup:
        raise InsufficientSteadyStateError(
            f"replay admitted {admitted} batches but warmup={warmup}: "
            "no measured batches remain; offer more traffic or lower "
            "the warmup"
        )

    measured = range(warmup, admitted)
    e2e = [deps[a][num_stages - 1] - adm_arrival[a] for a in measured]
    stage_percentiles = {}
    for k, stage in enumerate(PRICED_STAGE_OFFSETS):
        residence = [deps[a][k] - entries[a][k] for a in measured]
        stage_percentiles[stage] = exact_percentiles(residence, PERCENTILES)

    service_e2e = [float(service[adm_index[a]].sum()) for a in measured]
    if spec.sla_seconds is not None:
        sla = float(spec.sla_seconds)
    else:
        sla = spec.sla_factor * (sum(service_e2e) / len(service_e2e))
    violations = sum(1 for v in e2e if v > sla)

    duration = deps[-1][num_stages - 1] - adm_arrival[0]
    return ServeReport(
        system=getattr(system, "name", str(system)),
        offered=n,
        admitted=admitted,
        rejected=len(rejections),
        completed=admitted,
        measured=len(e2e),
        warmup=warmup,
        duration_s=float(duration),
        throughput_bps=float(admitted / duration) if duration > 0 else 0.0,
        mean_latency=float(sum(e2e) / len(e2e)),
        sla_seconds=float(sla),
        sla_violation_rate=float(violations / len(e2e)),
        stage_percentiles=stage_percentiles,
        end_to_end=exact_percentiles(e2e, PERCENTILES),
    )
