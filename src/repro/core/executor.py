"""Pluggable stage executors for the ScratchPipe pipeline.

There is one cycle loop, ``ScratchPipePipeline._stream_cycles``: which
stage of which in-flight batch runs at each cycle is fixed by the
paper's schedule (Section IV-C, Figure 10).  What an executor chooses is
the loop's *plan source* — where the [Plan] stage of each batch runs.
This module keeps those strategies in a registry of named executors so
systems, sweeps, the CLI and the live-replay harness can pick one per
run:

* ``serial`` (the default everywhere) plans inline: every stage of every
  cycle runs in the calling process.
* ``overlapped`` realises the paper's premise — Plan for batch
  ``N + future`` runs *ahead*, concurrently with Collect/Insert/Train of
  earlier batches — by sharding the per-table Plan work across dedicated
  worker processes (ScratchPipe instantiates one cache-manager per
  table, Section VI-G, so per-table Plan streams are independent by
  construction).  Each worker runs the pipeline's own per-table
  plan+monitor step.  Results travel back by message passing — full
  plan rows in functional mode, four counters per table in metadata
  mode, never shared memory, so there is no segment to leak — and the
  parent's loop takes them from the receiver as its plan source.
  Bounded queues are the plan-ahead window: a planner at most
  ``_PLAN_AHEAD_DEPTH`` batches ahead blocks until the parent catches
  up.

Determinism contract: for a given pipeline, ``overlapped`` yields
bit-identical per-batch statistics, plans, losses, hazard-violation
lists and final table/scratchpad contents to ``serial``, for any worker
count.  This holds because each table's Plan stream is a pure function
of that table's initial scratchpad state and the batch sequence, and
tables never share Plan state.

The registry mirrors ``repro.core.replacement``'s policy registry:
``@register_executor`` to add one, ``make_executor(name)`` to
instantiate.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from queue import Empty
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Protocol, Tuple, Type

from repro._env import read_env
from repro.errors import (
    ExecutorConfigError,
    ExecutorUnavailableError,
    ExecutorWorkerError,
    HazardError,
)
from repro.testing.faults import fault_point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.pipeline import BatchCacheStats, ScratchPipePipeline


class Executor(Protocol):
    """One execution strategy for a :class:`ScratchPipePipeline`."""

    name: str

    def stream(
        self,
        pipeline: "ScratchPipePipeline",
        num_batches: int,
        losses: Optional[List[float]],
    ) -> Iterator["BatchCacheStats"]:
        """Run ``num_batches`` batches, yielding stats as batches retire.

        Called by ``ScratchPipePipeline.stream`` *after* argument
        validation; implementations may assume ``num_batches`` is in
        range.
        """
        ...


# repro-lint: disable=worker-capture -- import-time registry, rebuilt
# identically in every process on module import.
_EXECUTORS: Dict[str, Type] = {}


def register_executor(name: str):
    """Class decorator registering an :class:`Executor` under ``name``."""

    def decorate(cls: Type) -> Type:
        if name in _EXECUTORS:
            raise ExecutorConfigError(
                f"executor {name!r} is already registered "
                f"({_EXECUTORS[name].__qualname__})"
            )
        cls.name = name
        _EXECUTORS[name] = cls
        return cls

    return decorate


def registered_executors() -> Tuple[str, ...]:
    """Registered executor names, sorted."""
    return tuple(sorted(_EXECUTORS))


def make_executor(name: str) -> Executor:
    """Instantiate the executor registered under ``name``."""
    try:
        cls = _EXECUTORS[name]
    except KeyError:
        raise ExecutorConfigError(
            f"unknown executor {name!r}; registered: "
            f"{', '.join(registered_executors())}"
        ) from None
    return cls()


@register_executor("serial")
class SerialExecutor:
    """Every stage in the calling process: the loop's inline plan source."""

    name = "serial"

    def stream(self, pipeline, num_batches, losses):
        return pipeline._stream_cycles(num_batches, losses)


# ----------------------------------------------------------------------
# The overlapped executor
# ----------------------------------------------------------------------

#: How many batches a planner may run ahead of the parent's retirement
#: (the per-shard queue bound).  Matches the spirit of the paper's
#: bounded look-ahead: deep enough to hide retirement stalls, shallow
#: enough that a planner never races the whole trace ahead.
_PLAN_AHEAD_DEPTH = 8

#: Parent-side queue poll interval while waiting on a planner.
_POLL_S = 0.05

#: Default liveness bound: if a planner delivers nothing for this long
#: the run fails with :class:`ExecutorWorkerError` instead of hanging.
_DEFAULT_TIMEOUT_S = 300.0


def _worker_count(num_tables: int) -> int:
    """Planner-process count: ``REPRO_EXECUTOR_WORKERS`` or a CPU-bound
    default, clamped to one worker per table."""
    raw = read_env("REPRO_EXECUTOR_WORKERS")
    if raw is None:
        count = min(4, os.cpu_count() or 1)
    else:
        try:
            count = int(raw)
        except ValueError:
            raise ExecutorConfigError(
                f"REPRO_EXECUTOR_WORKERS must be an integer, got {raw!r}"
            ) from None
        if count < 1:
            raise ExecutorConfigError(
                f"REPRO_EXECUTOR_WORKERS must be >= 1, got {count}"
            )
    return max(1, min(count, num_tables))


def _liveness_timeout() -> float:
    """Seconds of planner silence tolerated before declaring a hang."""
    raw = read_env("REPRO_EXECUTOR_TIMEOUT_S")
    if raw is None:
        return _DEFAULT_TIMEOUT_S
    try:
        value = float(raw)
    except ValueError:
        raise ExecutorConfigError(
            f"REPRO_EXECUTOR_TIMEOUT_S must be a number, got {raw!r}"
        ) from None
    if value <= 0:
        raise ExecutorConfigError(
            f"REPRO_EXECUTOR_TIMEOUT_S must be > 0, got {value}"
        )
    return value


def _shard_tables(num_tables: int, workers: int) -> List[Tuple[int, ...]]:
    """Contiguous, near-equal table shards — ascending across shards so
    concatenating per-shard results in shard order preserves table
    order."""
    base, extra = divmod(num_tables, workers)
    shards: List[Tuple[int, ...]] = []
    start = 0
    for index in range(workers):
        size = base + (1 if index < extra else 0)
        if size:
            shards.append(tuple(range(start, start + size)))
            start += size
    return shards


def _shippable(error: BaseException):
    """The exception itself if it pickles, else a descriptive string.

    ``Queue.put`` pickles lazily on its feeder thread; an unpicklable
    exception would be dropped there and the parent would only see a
    silent worker death.  Probing up front keeps the failure named.
    """
    try:
        pickle.dumps(error)
    except Exception:
        return f"{type(error).__name__}: {error}"
    return error


def _encode_plan(plan) -> tuple:
    return (
        plan.unique_ids,
        plan.slots,
        plan.hit_mask,
        plan.miss_ids,
        plan.fill_slots,
        plan.evicted_ids,
    )


def _planner_worker(pipeline, shard_index: int, tables, num_batches: int, queue) -> None:
    """Plan-ahead worker: plans its table shard for every batch, in order.

    Runs in a forked child, so ``pipeline`` (scratchpads, monitor, batch
    cache) is a private copy-on-write snapshot of the parent's
    construction-time state — exactly the state a serial run would plan
    against, since Plan is the only stage that touches it.  Each table
    goes through the pipeline's own plan+monitor step at the cycle the
    serial loop would run it (``index + 1``).
    """
    from repro.core.pipeline import plan_counters

    try:
        monitor = pipeline.monitor
        encode = _encode_plan if pipeline._functional else plan_counters
        for index in range(num_batches):
            fault_point("pipeline.executor", detail=f"plan:{index}:shard:{shard_index}")
            fault_point("pipeline.stage", detail=f"plan:{index}")
            batch = pipeline._get_batch(index)
            future_batches = pipeline._future_batches(index)
            payload = []
            flagged: List[Tuple[int, str]] = []
            for table in tables:
                before = len(monitor.violations) if monitor is not None else 0
                try:
                    plan = pipeline._plan_monitored(
                        index + 1, table, batch, future_batches
                    )
                except HazardError as error:
                    queue.put(("hazard", index, table, str(error)))
                    return
                if monitor is not None:
                    flagged.extend(
                        (table, message)
                        for message in monitor.violations[before:]
                    )
                payload.append(encode(plan))
            queue.put(("plan", index, payload, flagged))
            pipeline._evict_batches_before(index + 1)
            if monitor is not None:
                monitor.on_cycle_end(index + 1)
        queue.put(
            (
                "done",
                [
                    (table, pipeline.scratchpads[table].hit_map.export_state())
                    for table in tables
                ],
            )
        )
    except BaseException as error:
        queue.put(("error", _shippable(error)))


class _PlanReceiver:
    """Parent-side demux of the per-shard planner queues."""

    def __init__(self, pipeline, workers, queues, shards, timeout_s: float) -> None:
        self._pipeline = pipeline
        self._workers = workers
        self._queues = queues
        self._shards = shards
        self._timeout_s = timeout_s

    def _next(self, shard_index: int):
        queue = self._queues[shard_index]
        worker = self._workers[shard_index]
        waited = 0.0
        item = None
        while item is None:
            try:
                item = queue.get(timeout=_POLL_S)
            except Empty:
                if not worker.is_alive():
                    # One last drain: the feeder thread may have flushed
                    # a final message between our poll and the death.
                    try:
                        item = queue.get(timeout=_POLL_S)
                    except Empty:
                        tables = self._shards[shard_index]
                        raise ExecutorWorkerError(
                            f"plan-ahead worker {shard_index} (tables "
                            f"{tables[0]}..{tables[-1]}) died with exit "
                            f"code {worker.exitcode} before delivering "
                            f"its next plan"
                        ) from None
                else:
                    waited += _POLL_S
                    if waited >= self._timeout_s:
                        raise ExecutorWorkerError(
                            f"plan-ahead worker {shard_index} produced no "
                            f"message for ~{self._timeout_s:.0f}s "
                            f"(REPRO_EXECUTOR_TIMEOUT_S); treating the "
                            f"run as hung"
                        )
        if item[0] == "error":
            payload = item[1]
            if isinstance(payload, BaseException):
                raise payload
            raise ExecutorWorkerError(
                f"plan-ahead worker {shard_index} failed: {payload}"
            )
        return item

    def receive(self, batch_index: int):
        """Collect batch ``batch_index``'s per-table results from every
        shard.

        Returns ``(payloads, flagged, hazard)`` — payloads and
        non-strict violation messages concatenated in table order, and
        the strict-mode hazard message (lowest table wins, matching the
        serial table-scan order) or ``None``.
        """
        payloads: List[tuple] = []
        flagged: List[Tuple[int, str]] = []
        hazards: List[Tuple[int, str]] = []
        for shard_index in range(len(self._workers)):
            item = self._next(shard_index)
            kind = item[0]
            if kind == "hazard":
                if item[1] != batch_index:
                    raise ExecutorWorkerError(
                        f"plan-ahead worker {shard_index} broke protocol: "
                        f"hazard for batch {item[1]} while the parent is "
                        f"at batch {batch_index}"
                    )
                hazards.append((item[2], item[3]))
                continue
            if kind != "plan" or item[1] != batch_index:
                raise ExecutorWorkerError(
                    f"plan-ahead worker {shard_index} broke protocol: "
                    f"expected plan for batch {batch_index}, got "
                    f"{kind!r} for {item[1]!r}"
                )
            payloads.extend(item[2])
            flagged.extend(item[3])
        if hazards:
            _, message = min(hazards)
            return [], [], message
        return payloads, flagged, None

    def plan_into(self, record, cycle: int) -> None:
        """The overlapped plan source: fill ``record`` from the shards.

        Functional runs decode the shipped plan rows; metadata runs build
        the batch's statistics straight from the shipped counters.
        Non-strict violations join the parent's monitor in table order;
        a strict hazard is re-raised here, where a serial run raises it.
        """
        from repro.core.pipeline import BatchCacheStats
        from repro.core.scratchpad import TablePlan

        pipeline = self._pipeline
        payloads, flagged, hazard = self.receive(record.index)
        monitor = pipeline.monitor
        if monitor is not None:
            monitor.violations.extend(message for _, message in flagged)
        if hazard is not None:
            if monitor is not None:
                monitor.violations.append(hazard)
            raise HazardError(hazard)
        if pipeline._functional:
            record.plans = [TablePlan(*fields) for fields in payloads]
        else:
            record.stats = BatchCacheStats.from_counters(
                record.index, pipeline.config.lookups_per_batch, payloads
            )

    def finish(self) -> List[Tuple[int, object]]:
        """Collect every shard's final ``("done", states)`` message."""
        states: List[Tuple[int, object]] = []
        for shard_index in range(len(self._workers)):
            item = self._next(shard_index)
            if item[0] != "done":
                raise ExecutorWorkerError(
                    f"plan-ahead worker {shard_index} broke protocol: "
                    f"expected done, got {item[0]!r}"
                )
            states.extend(item[1])
        return states

    def shutdown(self) -> None:
        """Terminate planners and release queue resources (idempotent)."""
        for worker in self._workers:
            if worker.is_alive():
                worker.terminate()
        for worker in self._workers:
            worker.join(timeout=5.0)
        for queue in self._queues:
            queue.close()
            queue.cancel_join_thread()


@register_executor("overlapped")
class OverlappedExecutor:
    """Plan N+future on dedicated worker processes, retire on the parent.

    Requires the ``fork`` start method (workers inherit the pipeline's
    construction-time state copy-on-write; nothing is pickled on the way
    in) and a non-daemonic calling process.  Plan results come back as
    messages — full plan-row ownership handoff in functional mode,
    compact per-table counters in metadata mode — so no shared-memory
    segments exist to leak.  After the run the parent adopts each
    worker's final Hit-Map contents, keeping post-run scratchpad
    observations (occupancy, cached keys) identical to a serial run's.
    """

    name = "overlapped"

    def stream(self, pipeline, num_batches, losses):
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ExecutorUnavailableError(
                "the overlapped executor needs the 'fork' start method, "
                "which this platform does not offer"
            )
        if multiprocessing.current_process().daemon:
            raise ExecutorUnavailableError(
                "the overlapped executor cannot spawn plan-ahead workers "
                "from a daemonic process"
            )
        context = multiprocessing.get_context("fork")
        shards = _shard_tables(
            pipeline.config.num_tables,
            _worker_count(pipeline.config.num_tables),
        )
        timeout_s = _liveness_timeout()
        queues = [context.Queue(maxsize=_PLAN_AHEAD_DEPTH) for _ in shards]
        workers = [
            context.Process(
                target=_planner_worker,
                args=(pipeline, shard_index, tables, num_batches, queue),
                daemon=True,
                name=f"repro-planner-{shard_index}",
            )
            for shard_index, (tables, queue) in enumerate(zip(shards, queues))
        ]
        receiver = _PlanReceiver(pipeline, workers, queues, shards, timeout_s)
        try:
            for worker in workers:
                worker.start()
            yield from pipeline._stream_cycles(
                num_batches, losses, plan=receiver.plan_into
            )
            for table, key_of_slot in receiver.finish():
                pipeline.scratchpads[table].hit_map.adopt_state(key_of_slot)
        finally:
            receiver.shutdown()
