"""ScratchPipe's 6-stage pipelined executor (Section IV-C, Figure 10).

Stages: ``Load -> Plan -> Collect -> Exchange -> Insert -> Train``.  Batch
``b`` occupies stage ``s`` at cycle ``b + s``; one batch completes per cycle
at steady state.  The executor performs the *functional* data movement
(CPU-table reads, scratchpad fills, victim write-backs, training) and
returns per-stage row counts that the timing layer prices.

A :class:`HazardMonitor` can be attached to verify the paper's central
correctness argument: with past window 3 and future window 2, no two
in-flight mini-batches ever touch the same scratchpad slot or CPU table row
in a conflicting order (RAW-1..4 of Figure 8).  Tests shrink the windows to
show the monitor *does* catch the hazards the windows exist to prevent.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.errors import (
    ExecutorConfigError,
    HazardError,
    MonitorCycleError,
    PipelineConfigError,
)
from repro.core import blas
from repro.core.executor import _shard_tables, _worker_count, check_executor
from repro.core.hitmap import EMPTY
from repro.core.scratchpad import GpuScratchpad, TablePlan
from repro.data.trace import MiniBatch
from repro.model.config import ModelConfig
from repro.testing.faults import fault_point

#: Stage names in pipeline order.
STAGES = ("load", "plan", "collect", "exchange", "insert", "train")

#: Pipeline distance from a batch's [Plan] to its [Collect].
PLAN_TO_COLLECT = 1
#: Pipeline distance from a batch's [Plan] to its [Insert].
PLAN_TO_INSERT = 3
#: Pipeline distance from a batch's [Plan] to its [Train].
PLAN_TO_TRAIN = 4

#: The windows at and above which [Train] of batch ``N-5`` can run beside
#: [Insert] ``N-4``, [Collect] ``N-2`` and [Plan] ``N-1`` of its cycle:
#: the past window must hold batch ``N-5``'s slots through the Plan of
#: batch ``N-2`` (its [Collect] reads victims in Train's cycle), and the
#: future window must span [Insert] to [Collect].
OVERLAP_PAST_WINDOW = PLAN_TO_TRAIN - PLAN_TO_COLLECT
OVERLAP_FUTURE_WINDOW = PLAN_TO_INSERT - PLAN_TO_COLLECT

#: Pipeline offsets of the *priced* stages (batch ``b`` is at stage ``s``
#: in cycle ``b + offset``); Load is unpriced — it overlaps host-side
#: dataset reads.  Its keys, in order, are the one list of priced stages:
#: the pipelined-cycle rule (``repro.core.timeline``), the stage pricing
#: (``repro.systems.stages``) and the live-replay tandem queue
#: (``repro.serve``) all read it.
PRICED_STAGE_OFFSETS = {
    "plan": 1,
    "collect": 2,
    "exchange": 3,
    "insert": 4,
    "train": 5,
}


class PipelineTrainer(Protocol):
    """Callback the [Train] stage invokes for one mini-batch.

    Implementations gather rows from the scratchpads using the plans, run
    the dense network forward/backward and scatter updated rows back —
    entirely "at GPU memory speed" in the paper's terms.
    """

    def train(
        self,
        batch: MiniBatch,
        plans: Sequence[TablePlan],
        scratchpads: Sequence[GpuScratchpad],
    ) -> float:
        """Train on one batch; returns the loss."""
        ...


@dataclass(frozen=True)
class BatchCacheStats:
    """Per-batch cache statistics summed over tables.

    Attributes:
        batch_index: Trace position of the batch.
        total_lookups: All gathers issued (including duplicates).
        unique_ids: Unique rows gathered.
        hits: Unique rows already cached at [Plan].
        misses: Unique rows fetched from CPU ([Collect]/[Exchange]/[Insert]).
        writebacks: Dirty victims returned to the CPU table.
        per_table_misses: Miss count per table (for per-table timing).
        per_table_hits: Hit count per table (heterogeneous per-table
            caches are judged table by table).
        per_table_unique: Unique-ID count per table (pairs with
            ``per_table_hits`` to give per-table hit rates).
    """

    batch_index: int
    total_lookups: int
    unique_ids: int
    hits: int
    misses: int
    writebacks: int
    per_table_misses: Tuple[int, ...]
    per_table_hits: Tuple[int, ...] = ()
    per_table_unique: Tuple[int, ...] = ()

    @property
    def hit_rate(self) -> float:
        """Unique-ID hit rate of the [Plan] stage's Hit-Map queries."""
        if self.unique_ids == 0:
            return 1.0
        return self.hits / self.unique_ids

    @classmethod
    def from_plans(
        cls, batch_index: int, total_lookups: int, plans: Sequence[TablePlan]
    ) -> "BatchCacheStats":
        """Stats of one batch's per-table plans, in table order."""
        unique = tuple(plan.num_unique for plan in plans)
        hits = tuple(plan.num_hits for plan in plans)
        misses = tuple(plan.num_misses for plan in plans)
        return cls(
            batch_index=batch_index,
            total_lookups=total_lookups,
            unique_ids=sum(unique),
            hits=sum(hits),
            misses=sum(misses),
            writebacks=sum(plan.num_writebacks for plan in plans),
            per_table_misses=misses,
            per_table_hits=hits,
            per_table_unique=unique,
        )


#: "No write pending" sentinel for the vectorised pending-cycle arrays;
#: any real write cycle compares greater.  Cycle counts fit int32 with room
#: to spare, and halving the element width halves the random-access traffic
#: on these (slot-count-sized) arrays.
_NO_WRITE = np.iinfo(np.int32).min


@dataclass
class HazardMonitor:
    """Detects RAW hazards among concurrently in-flight mini-batches.

    Tracks, per table, the scratchpad slots each in-flight batch will write
    (at [Insert] and [Train]) and the pending CPU-table write-backs, then
    checks every [Plan]'s victim choices and every [Collect]'s CPU reads
    against them.  ``strict=True`` raises :class:`HazardError` on the
    first violation; otherwise violations accumulate in :attr:`violations`.

    Each table-plan goes through two steps.  :meth:`check` validates the
    plan against the table's in-flight writes, registers its own, and
    returns the violation messages; it touches only that table's
    entries, so checks of *distinct* tables may run on concurrent threads
    (two concurrent checks of one table are not safe).  :meth:`record`
    then logs the messages — and raises, if strict — on the thread that
    owns :attr:`violations`, in table order.  :meth:`on_plan` is both
    steps in one call.

    RAW-2/3 state is one int32 array per table recording the cycle at
    which the last scheduled write to each *slot* lands (a check is a
    fancy-indexed comparison against the reading cycle; retirement is
    lazy — a recorded cycle in the past never compares as pending again).
    It is sized by the scratchpad, never by the table's row universe.

    RAW-4 state is a ring of ``(insert_cycle, dirty rows)`` entries per
    table, the rows kept unsorted as the plan evicted them: only the plans
    of the last ``PLAN_TO_INSERT - PLAN_TO_COLLECT`` cycles can have a
    write-back still in flight, so the ring holds a handful of small
    arrays.  The check first sorts the miss IDs and the live entries' rows
    together, narrowed to int32 (every row ID fits), and looks for a
    repeated value.  With none, no missed row can be in flight; that is
    every plan of a hazard-free run.  Only otherwise does it sort each
    live entry and probe it with ``searchsorted`` on the true IDs, so an
    ID the cast wrapped costs at most that exact probe and never hides a
    hazard.  Entries are pruned as soon as they land before the reading
    cycle, which is sound only because per-table ``check`` cycles never
    decrease (each table is planned once per cycle, in cycle order); a
    call that breaks that contract raises :class:`MonitorCycleError`.
    Per-element dict bookkeeping is the equivalence-test oracle
    ``repro.testing.oracles.ScanHazardMonitor``; both flag identical
    violations in identical order.
    """

    strict: bool = True
    violations: List[str] = field(default_factory=list)
    # table -> int32 pending-write cycle per slot; table -> ring of
    # (insert_cycle, dirty row IDs) in-flight CPU write-backs;
    # table -> cycle of its latest plan.
    _slot_write_cycles: Dict[int, np.ndarray] = field(default_factory=dict)
    _recent_writebacks: Dict[int, List[Tuple[int, np.ndarray]]] = field(
        default_factory=dict
    )
    _last_cycle: Dict[int, int] = field(default_factory=dict)

    @staticmethod
    def _grown(store: Dict[int, np.ndarray], table: int, min_size: int) -> np.ndarray:
        """Fetch ``store[table]``, growing it geometrically to ``min_size``.

        Each growth at least doubles the array (amortised O(1) per slot)
        but never exceeds twice ``min_size`` — one past the highest slot
        seen — so beyond its 1,024-entry floor the array stays within 2x
        the scratchpad it tracks.
        """
        array = store.get(table)
        if array is None:
            array = np.full(max(min_size, 1024), _NO_WRITE, dtype=np.int32)
            store[table] = array
        elif array.size < min_size:
            grown = np.full(max(min_size, 2 * array.size), _NO_WRITE, dtype=np.int32)
            grown[: array.size] = array
            store[table] = array = grown
        return array

    def on_plan(self, cycle: int, table: int, plan: TablePlan) -> None:
        """Validate and register one table-plan produced at ``cycle``."""
        self.record(self.check(cycle, table, plan))

    def record(self, messages: Sequence[str]) -> None:
        """Log the violations :meth:`check` found; a strict monitor
        raises :class:`HazardError` on the first, after logging it."""
        for message in messages:
            self.violations.append(message)
            if self.strict:
                raise HazardError(message)

    def check(self, cycle: int, table: int, plan: TablePlan) -> List[str]:
        """Validate and register one table-plan produced at ``cycle``;
        returns the violations it finds, in flagging order.

        Touches only ``table``'s entries, so calls for distinct tables may
        run on concurrent threads.  Raises only :class:`MonitorCycleError`.
        """
        if cycle < self._last_cycle.get(table, cycle):
            raise MonitorCycleError(
                f"table {table} planned at cycle {cycle} after a plan at "
                f"cycle {self._last_cycle[table]}; per-table check cycles "
                f"must not decrease"
            )
        self._last_cycle[table] = cycle
        collect_cycle = cycle + PLAN_TO_COLLECT
        insert_cycle = cycle + PLAN_TO_INSERT
        train_cycle = cycle + PLAN_TO_TRAIN

        fill_slots = np.asarray(plan.fill_slots, dtype=np.int64).reshape(-1)
        slots = np.asarray(plan.slots, dtype=np.int64).reshape(-1)
        miss_ids = np.asarray(plan.miss_ids, dtype=np.int64).reshape(-1)
        evicted = np.asarray(plan.evicted_ids).reshape(-1)

        messages: List[str] = []
        # fill_slots is a subset of slots, so slots bounds both.
        slot_writes = self._grown(
            self._slot_write_cycles, table, int(slots.max(initial=-1)) + 1
        )

        # RAW-2/3: a victim slot read at [Collect] must have no in-flight
        # write scheduled at or after the read.
        if fill_slots.size:
            pending = slot_writes[fill_slots]
            for i in np.flatnonzero(pending >= collect_cycle):
                messages.append(
                    f"RAW-2/3: slot {int(fill_slots[i])} of table {table} "
                    f"chosen as victim (read at cycle {collect_cycle}) "
                    f"while an in-flight batch writes it at cycle "
                    f"{int(pending[i])}"
                )

        # RAW-4: a missed ID read from the CPU table at [Collect] must not
        # have a write-back landing at or after the read.  Entries landing
        # before this [Collect] can never flag again, so they are pruned.
        entries = [
            entry for entry in self._recent_writebacks.get(table, ())
            if entry[0] >= collect_cycle
        ]
        self._recent_writebacks[table] = entries
        if entries and miss_ids.size and self._may_share_a_row(miss_ids, entries):
            # Exact probe, oldest entry first so the freshest write-back
            # of a row wins.
            pending = np.full(miss_ids.size, _NO_WRITE, dtype=np.int64)
            for insert_at, rows in entries:
                rows = np.sort(rows)
                positions = np.minimum(
                    np.searchsorted(rows, miss_ids), rows.size - 1
                )
                pending[rows[positions] == miss_ids] = insert_at
            for i in np.flatnonzero(pending >= collect_cycle):
                messages.append(
                    f"RAW-4: row {int(miss_ids[i])} of table {table} read "
                    f"from the CPU table at cycle {collect_cycle} while its "
                    f"write-back lands at cycle {int(pending[i])}"
                )

        # Register this batch's future writes.  Every planned slot ends at
        # the [Train] write cycle: fill slots' earlier [Insert] writes are
        # superseded (fill_slots is a subset of slots), and no in-flight
        # batch can have scheduled a later write — the latest write any
        # previous plan registered is its own train cycle, which is
        # strictly earlier.  A plain scatter therefore matches the dict
        # oracle's ``max(existing, train_cycle)`` bookkeeping exactly.
        if slots.size:
            slot_writes[slots] = train_cycle
        if evicted.size:
            dirty = evicted[: fill_slots.size]
            dirty = dirty[dirty != EMPTY]
            if dirty.size:
                entries.append((insert_cycle, dirty))
        return messages

    @staticmethod
    def _may_share_a_row(
        miss_ids: np.ndarray, entries: List[Tuple[int, np.ndarray]]
    ) -> bool:
        """Whether any value repeats among ``miss_ids`` and the entries'
        rows, all narrowed to int32.

        ``False`` proves no missed row is in flight: equal IDs stay equal
        under the cast.  ``True`` may be a false alarm (a wrapped ID above
        int32, a row two entries share, a repeated miss ID), which the
        exact probe clears.
        """
        merged = np.concatenate(
            [miss_ids] + [rows for _, rows in entries],
            dtype=np.int32, casting="unsafe",
        )
        merged.sort()
        return bool((merged[1:] == merged[:-1]).any())

    def on_cycle_end(self, cycle: int) -> None:
        """Retire writes that have now happened.

        A no-op: retirement is lazy (pending cycles in the past never
        flag).  Monitors that prune eagerly override it.
        """


@dataclass
class _InFlight:
    """State of one mini-batch travelling down the pipeline.

    Carries the batch's trace index, not the batch: a stage that needs
    the lookups fetches them from the pipeline's batch cache.
    """

    index: int
    plans: List[TablePlan] = field(default_factory=list)
    collected_rows: List[np.ndarray] = field(default_factory=list)
    victim_rows: List[np.ndarray] = field(default_factory=list)


class _TableStaging:
    """Preallocated per-table ring of miss/victim staging buffers.

    Functional runs used to heap-allocate fresh copies of the miss rows and
    victim rows for every table of every cycle.  A batch's staging is alive
    only from its [Collect] to its [Insert], so at most
    ``PLAN_TO_INSERT - PLAN_TO_COLLECT + 1`` batches ever hold staging at
    once — a ring of that depth, indexed by batch number, lets every cycle
    reuse the buffers of a retired batch (growing them geometrically the
    first time a bigger miss burst comes through).  [Insert] of batch ``b``
    runs before [Collect] of batch ``b+2`` within a cycle, so a slot is
    always drained before the ring wraps back onto it.
    """

    __slots__ = ("depth", "_collected", "_victims")

    def __init__(self, depth: int) -> None:
        self.depth = depth
        self._collected: List[Optional[np.ndarray]] = [None] * depth
        self._victims: List[Optional[np.ndarray]] = [None] * depth

    @staticmethod
    def _view(
        buffers: List[Optional[np.ndarray]],
        slot: int,
        rows: int,
        dim: int,
        dtype: np.dtype,
    ) -> np.ndarray:
        buffer = buffers[slot]
        if (
            buffer is None
            or buffer.shape[0] < rows
            or buffer.shape[1] != dim
            or buffer.dtype != dtype
        ):
            capacity = rows if buffer is None else max(rows, 2 * buffer.shape[0])
            buffer = np.empty((max(capacity, 1), dim), dtype=dtype)
            buffers[slot] = buffer
        return buffer[:rows]

    def collected_view(
        self, batch_index: int, rows: int, dim: int, dtype: np.dtype
    ) -> np.ndarray:
        """Staging for the CPU-table rows batch ``batch_index`` collects."""
        return self._view(self._collected, batch_index % self.depth, rows, dim, dtype)

    def victims_view(
        self, batch_index: int, rows: int, dim: int, dtype: np.dtype
    ) -> np.ndarray:
        """Staging for the victim rows batch ``batch_index`` reads out."""
        return self._view(self._victims, batch_index % self.depth, rows, dim, dtype)


@dataclass
class PipelineResult:
    """Outcome of a pipeline run.

    Attributes:
        cache_stats: Per-batch cache statistics, in trace order.
        losses: Per-batch training losses (empty in metadata-only runs).
        train_hit_rate: Hit rate observed *at the Train stage* — the paper's
            always-hit guarantee demands this be exactly 1.0.
    """

    cache_stats: List[BatchCacheStats]
    losses: List[float]
    train_hit_rate: float


@dataclass
class ScratchPipePipeline:
    """The pipelined ScratchPipe runtime for one training job.

    Args:
        config: Model geometry.
        scratchpads: One per table (functional or metadata-only, but all the
            same mode).
        dataset_batches: Random-access source of mini-batches (anything with
            ``batch(i)`` and ``__len__``, e.g. a ``SyntheticDataset``).
        cpu_tables: Master embedding tables in "CPU memory" (list of
            ``(rows, dim)`` arrays), or ``None`` for metadata-only runs.
        trainer: The [Train] stage callback, or ``None`` to skip training.
        future_window: How many upcoming batches [Plan] protects (2 in the
            paper: the [Insert]-to-[Collect] distance).
        monitor: Optional hazard monitor.
        executor: ``"serial"`` or ``"overlapped"``
            (:data:`repro.core.executor.EXECUTORS`).  Both names run the
            one schedule of :meth:`_stream_cycles`; ``"overlapped"`` is
            kept as an alias for specs and journals that name it.
    """

    config: ModelConfig
    scratchpads: Sequence[GpuScratchpad]
    dataset_batches: object
    cpu_tables: Optional[List[np.ndarray]] = None
    trainer: Optional[PipelineTrainer] = None
    future_window: int = 2
    monitor: Optional[HazardMonitor] = None
    executor: str = "serial"

    def __post_init__(self) -> None:
        check_executor(self.executor, ExecutorConfigError)
        if len(self.scratchpads) != self.config.num_tables:
            raise PipelineConfigError(
                f"need one scratchpad per table ({self.config.num_tables}), "
                f"got {len(self.scratchpads)}"
            )
        if self.cpu_tables is not None and len(self.cpu_tables) != self.config.num_tables:
            raise PipelineConfigError("cpu_tables must have one array per table")
        if self.future_window < 0:
            raise PipelineConfigError(f"future_window must be >= 0, got {self.future_window}")
        self._functional = self.cpu_tables is not None
        # Batch cache: synthetic datasets regenerate batches on demand, and
        # each batch is needed by [Load] plus the future windows of the two
        # preceding [Plan]s — materialise each index once.
        self._batch_cache: Dict[int, MiniBatch] = {}
        # Ring of reusable staging buffers for functional-mode [Collect];
        # a batch's staging lives until its own [Insert] drains it.
        self._staging: List[_TableStaging] = [
            _TableStaging(PLAN_TO_INSERT - PLAN_TO_COLLECT + 1)
            for _ in range(self.config.num_tables)
        ] if self._functional else []

    # ------------------------------------------------------------------
    # Stage implementations
    # ------------------------------------------------------------------
    def _get_batch(self, index: int) -> MiniBatch:
        if index not in self._batch_cache:
            self._batch_cache[index] = self.dataset_batches.batch(index)
        return self._batch_cache[index]

    def _evict_batches_before(self, index: int) -> None:
        for stale in [k for k in self._batch_cache if k < index]:
            del self._batch_cache[stale]

    def _future_batches(self, index: int) -> List[MiniBatch]:
        """The batches the plan of batch ``index`` must protect."""
        n = len(self.dataset_batches)
        return [
            self._get_batch(index + offset)
            for offset in range(1, self.future_window + 1)
            if index + offset < n
        ]

    def _plan_table(
        self, table: int, batch: MiniBatch, future_batches: List[MiniBatch]
    ) -> TablePlan:
        """Plan one table of one batch.

        Each batch's sorted-unique IDs are computed once (cached on the
        MiniBatch) and shared between its own Plan and the future windows
        of the two preceding Plans.  The per-batch sets are handed over
        as a list — the Plan stage only flags their slots, so neither
        concatenating nor deduplicating across batches would change
        anything.
        """
        future_ids: Optional[object] = None
        if future_batches:
            future_ids = [b.unique_table_ids(table) for b in future_batches]
        return self.scratchpads[table].plan_batch(
            batch.unique_table_ids(table), future_ids, presorted_unique=True
        )

    def _plan_shard(
        self,
        cycle: int,
        tables: Sequence[int],
        batch: MiniBatch,
        future_batches: List[MiniBatch],
    ) -> Tuple[List[Tuple[TablePlan, List[str]]], Optional[Exception]]:
        """Plan and check ``tables`` of one batch, in order.

        The unit of Plan work the stream shards over threads.
        Returns ``(planned, error)``: each planned table's plan with the
        monitor's :meth:`HazardMonitor.check` messages, and the exception
        that stopped the shard early (``None`` if every table planned).
        The caller records the messages and re-raises ``error`` in table
        order, so a shard fails exactly where a table-by-table scan would.
        """
        monitor = self.monitor
        planned: List[Tuple[TablePlan, List[str]]] = []
        try:
            for table in tables:
                plan = self._plan_table(table, batch, future_batches)
                messages = [] if monitor is None else monitor.check(cycle, table, plan)
                planned.append((plan, messages))
        except Exception as error:
            return planned, error
        return planned, None

    def _do_plan(
        self,
        record: _InFlight,
        cycle: int,
        shards: Sequence[Sequence[int]],
        pool: Optional[ThreadPoolExecutor],
    ) -> None:
        """[Plan] of ``record``'s batch, every table.

        Shard 0 runs on the calling thread and the others on ``pool``
        (ScratchPipe's per-table cache managers share no Plan state, and
        numpy releases the GIL inside Plan's kernels).  Fault points and
        the batch cache stay on the calling thread; the merge records
        violations and re-raises errors in table order.
        """
        fault_point("pipeline.stage", detail=f"plan:{record.index}")
        batch = self._get_batch(record.index)
        future_batches = self._future_batches(record.index)
        pending = [
            pool.submit(self._plan_shard, cycle, tables, batch, future_batches)
            for tables in shards[1:]
        ]
        results = [self._plan_shard(cycle, shards[0], batch, future_batches)]
        results.extend(future.result() for future in pending)
        for planned, error in results:
            for plan, messages in planned:
                if self.monitor is not None:
                    self.monitor.record(messages)
                record.plans.append(plan)
            if error is not None:
                raise error

    def _do_collect(self, record: _InFlight) -> None:
        fault_point("pipeline.stage", detail=f"collect:{record.index}")
        if not self._functional:
            return
        index = record.index
        for table, plan in enumerate(record.plans):
            staging = self._staging[table]
            cpu_table = self.cpu_tables[table]
            collected = staging.collected_view(
                index, plan.miss_ids.size, cpu_table.shape[1], cpu_table.dtype
            )
            np.take(cpu_table, plan.miss_ids, axis=0, out=collected)
            record.collected_rows.append(collected)
            scratchpad = self.scratchpads[table]
            victims = staging.victims_view(
                index, plan.fill_slots.size, scratchpad.dim,
                np.dtype(np.float32),
            )
            scratchpad.read_slots_into(plan.fill_slots, victims)
            record.victim_rows.append(victims)

    def _do_insert(self, record: _InFlight) -> None:
        fault_point("pipeline.stage", detail=f"insert:{record.index}")
        if not self._functional:
            return
        for table, plan in enumerate(record.plans):
            dirty = plan.evicted_ids != EMPTY
            if dirty.any():
                self.cpu_tables[table][plan.evicted_ids[dirty]] = (
                    record.victim_rows[table][dirty]
                )
            if plan.fill_slots.size:
                self.scratchpads[table].write_slots(
                    plan.fill_slots, record.collected_rows[table]
                )
            # The staging views are ring-owned: dropping the references is
            # enough, the buffers themselves are reused by a later batch.
            record.collected_rows[table] = np.empty(0, dtype=np.float32)
            record.victim_rows[table] = np.empty(0, dtype=np.float32)

    def _do_train(self, record: _InFlight, batch: MiniBatch) -> float:
        """Train on ``batch``; may run on a pool thread, so the caller
        fetches the batch and fires the fault point."""
        return self.trainer.train(batch, record.plans, self.scratchpads)

    def _stages_may_overlap(self) -> bool:
        """Whether the windows leave [Train] no slot in common with the
        cycle's other stages (see :meth:`_stream_cycles`)."""
        return (
            self.trainer is not None
            and self.future_window >= OVERLAP_FUTURE_WINDOW
            and all(
                pad.past_window >= OVERLAP_PAST_WINDOW for pad in self.scratchpads
            )
        )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def stream(
        self,
        num_batches: Optional[int] = None,
        losses: Optional[List[float]] = None,
    ) -> Iterator[BatchCacheStats]:
        """Run the pipeline, yielding each batch's stats as it retires.

        The streaming twin of :meth:`run`: identical cycle-by-cycle
        behaviour (``run`` is implemented on top of this generator), but
        per-batch statistics are handed to the caller instead of
        accumulated, so a million-batch scenario flows through in constant
        memory — the pipeline itself only ever holds its six in-flight
        batches.  Batches retire in trace order.

        Args:
            num_batches: Prefix length (default: whole trace).
            losses: Optional caller-owned list that receives each
                functional-mode training loss.  Kept per-invocation (not
                on the pipeline object) so interleaved or abandoned
                streams cannot contaminate one another.
        """
        total = len(self.dataset_batches)
        if num_batches is None:
            num_batches = total
        if not 0 < num_batches <= total:
            raise PipelineConfigError(
                f"num_batches must be in [1, {total}], got {num_batches}"
            )
        yield from self._stream_cycles(num_batches, losses)

    def _stream_cycles(
        self, num_batches: int, losses: Optional[List[float]] = None
    ) -> Iterator[BatchCacheStats]:
        """The cycle loop.

        Each cycle's [Plan] shards the tables (``REPRO_EXECUTOR_WORKERS``
        shards; by default one per core, less the Train thread's when the
        stages overlap) over a thread pool that this stream owns; one
        shard runs without a pool.

        Each cycle runs [Train] ``N-5``, [Insert] ``N-4``, [Collect]
        ``N-2`` and [Plan] ``N-1``.  In a training run, [Train] goes to a
        pool thread at cycle start while the calling thread runs the
        other three, and is joined before the cycle ends.  No stage of
        the cycle touches a slot Train reads or writes:

        * batch ``N-5``'s slots stay held through Plans ``N-4`` to
          ``N-2`` (past window 3), so neither Insert ``N-4``'s fill slots
          nor Collect ``N-2``'s victim slots can be among them;
        * Plan ``N-1`` touches metadata only (Hit-Map, hold mask,
          replacement stamps), never Storage;
        * Train touches no CPU table; Insert and Collect, which do, stay
          on the calling thread in their sequential order.

        The overlap is confined to runs where no hazard can exist: past
        window >= 3, future window >= 2 (:data:`OVERLAP_PAST_WINDOW`,
        :data:`OVERLAP_FUTURE_WINDOW`) and no hazard-monitor violation
        recorded so far.  A violation flagged at Plan concerns that
        plan's later Collect and Insert, so from the next cycle on the
        run keeps the sequential order.  It also needs OpenBLAS held at
        one thread (:mod:`repro.core.blas`), whose own threads would
        otherwise take the core Train runs on.  Failing any of these,
        Train runs first on the calling thread, in the sequential order.
        Batch fetches, fault points, losses, stats, ``monitor.record``
        and error re-raise stay on the calling thread in that order; if
        Train and a later stage both fail in one cycle, Train's error is
        raised, as the sequential order would.  The pool is shut down
        and BLAS's thread count restored on every exit path, generator
        close included.
        """
        with ExitStack() as owned:
            overlap = self._stages_may_overlap() and blas.hold_single_thread()
            if overlap:
                owned.callback(blas.release)
            shards = _shard_tables(
                self.config.num_tables,
                _worker_count(self.config.num_tables, busy_cores=int(overlap)),
            )
            threads = len(shards) - 1 + int(overlap)
            pool: Optional[ThreadPoolExecutor] = None
            if threads:
                pool = ThreadPoolExecutor(threads, thread_name_prefix="repro-stage")
                owned.callback(pool.shutdown, wait=True, cancel_futures=True)

            def keep(loss: float) -> None:
                if losses is not None:
                    losses.append(loss)

            in_flight: Dict[int, _InFlight] = {}
            last_cycle = num_batches - 1 + len(STAGES) - 1
            for cycle in range(last_cycle + 1):
                train_idx = cycle - 5
                retired: Optional[BatchCacheStats] = None
                training: Optional[Future] = None
                if 0 <= train_idx < num_batches:
                    # Train first: handed to the pool when the stages may
                    # overlap, else run here before the other stages.
                    record = in_flight.pop(train_idx)
                    fault_point("pipeline.stage", detail=f"train:{train_idx}")
                    if self.trainer is not None:
                        batch = self._get_batch(train_idx)
                        hazard_seen = (
                            self.monitor is not None and bool(self.monitor.violations)
                        )
                        if overlap and not hazard_seen:
                            training = pool.submit(self._do_train, record, batch)
                        else:
                            keep(self._do_train(record, batch))
                    retired = BatchCacheStats.from_plans(
                        train_idx, self.config.lookups_per_batch, record.plans
                    )
                try:
                    insert_idx = cycle - 4
                    if 0 <= insert_idx < num_batches:
                        self._do_insert(in_flight[insert_idx])
                    # Exchange (cycle - 3) moves data over PCIe; functionally
                    # the staged buffers are already host-side copies, so it
                    # is a no-op here and a priced stage in the timing layer.
                    collect_idx = cycle - 2
                    if 0 <= collect_idx < num_batches:
                        self._do_collect(in_flight[collect_idx])
                    plan_idx = cycle - 1
                    if 0 <= plan_idx < num_batches:
                        self._do_plan(in_flight[plan_idx], cycle, shards, pool)
                finally:
                    if training is not None:
                        keep(training.result())
                if cycle < num_batches:
                    in_flight[cycle] = _InFlight(index=cycle)
                oldest = min(in_flight) if in_flight else num_batches
                self._evict_batches_before(oldest)
                if self.monitor is not None:
                    self.monitor.on_cycle_end(cycle)
                if retired is not None:
                    yield retired

    def run(self, num_batches: Optional[int] = None) -> PipelineResult:
        """Run the pipeline over ``num_batches`` (default: whole trace)."""
        losses: List[float] = []
        cache_stats = list(self.stream(num_batches, losses=losses))
        return PipelineResult(
            cache_stats=cache_stats,
            losses=losses,
            # Every Train-stage gather is served by a planned slot, so the
            # Train-stage hit rate is 1.0 by construction; reported so that
            # tests assert the guarantee rather than assume it.
            train_hit_rate=1.0 if cache_stats else 0.0,
        )
