"""The GPU scratchpad: Storage array + Hit-Map + Hold mask (Section IV-D).

One :class:`GpuScratchpad` manages the cache of a single embedding table —
ScratchPipe instantiates one cache-manager per table (Section VI-G).  The
scratchpad can run in two modes:

* **functional** (``with_storage=True``): a real numpy Storage array holds
  embedding rows, enabling bit-exact training through the cache;
* **metadata-only** (``with_storage=False``): only the index structures are
  simulated — sufficient for hit/miss/victim statistics at the paper's full
  10-million-row scale, where materialising 40 GB of weights is pointless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import (
    PlanCoverageError,
    ScratchpadConfigError,
    ScratchpadStateError,
)
from repro.core.hitmap import EMPTY, HitMap
from repro.core.holdmask import HoldMask
from repro.core.replacement import (
    CachePressureError,
    ReplacementPolicy,
    make_policy,
)
from repro.model.config import ModelConfig


@dataclass(frozen=True)
class TablePlan:
    """The [Plan] stage's decisions for one table of one mini-batch.

    Attributes:
        unique_ids: Sorted unique sparse IDs the batch gathers.
        slots: Scratchpad slot of each unique ID (parallel to
            ``unique_ids``); every ID has a slot after planning — that is the
            always-hit guarantee.
        hit_mask: True where the ID was already cached before this plan.
        miss_ids: IDs that must be fetched from the CPU table ([Collect]).
        fill_slots: Slot assigned to each missed ID (parallel to
            ``miss_ids``); filled at [Insert].
        evicted_ids: Sparse ID displaced from each fill slot (``EMPTY`` where
            the slot was vacant); written back to the CPU table at [Insert].
    """

    unique_ids: np.ndarray
    slots: np.ndarray
    hit_mask: np.ndarray
    miss_ids: np.ndarray
    fill_slots: np.ndarray
    evicted_ids: np.ndarray

    @property
    def num_unique(self) -> int:
        """Unique IDs gathered by the batch for this table."""
        return int(self.unique_ids.size)

    @property
    def num_hits(self) -> int:
        """Unique IDs already cached at plan time.

        Every unique ID is either a hit or a miss, so this is derived in
        O(1) rather than re-reducing ``hit_mask`` per consumer.
        """
        return int(self.unique_ids.size - self.miss_ids.size)

    @property
    def num_misses(self) -> int:
        """Unique IDs that must be prefetched from CPU memory."""
        return int(self.miss_ids.size)

    @property
    def num_writebacks(self) -> int:
        """Dirty victims that must be written back to the CPU table."""
        return int(np.count_nonzero(self.evicted_ids != EMPTY))

    def slots_for(self, ids: np.ndarray) -> np.ndarray:
        """Map arbitrary (possibly repeated) batch IDs to their slots.

        Every ID must appear in ``unique_ids`` — guaranteed for the batch
        this plan was built from.
        """
        flat = np.asarray(ids, dtype=np.int64).reshape(-1)
        positions = np.searchsorted(self.unique_ids, flat)
        if positions.max(initial=-1) >= self.unique_ids.size or not np.array_equal(
            self.unique_ids[positions], flat
        ):
            raise PlanCoverageError("plan does not cover all requested IDs")
        return self.slots[positions].reshape(np.asarray(ids).shape)


@dataclass
class GpuScratchpad:
    """Always-hit software cache for one embedding table.

    Attributes:
        num_slots: Storage capacity in rows.
        num_rows: Row count of the table being cached (the sparse-ID
            universe of the Hit-Map).
        dim: Embedding dimension (used only when storage is materialised).
        past_window: Hold-mask past window (3 in the paper's pipeline).
        policy_name: Replacement policy (``"lru"``/``"lfu"``/``"random"``).
        with_storage: Materialise a numpy Storage array.
        table_index: Which table this scratchpad caches, threaded into
            cache-pressure diagnostics (``None`` for standalone use).
    """

    num_slots: int
    num_rows: int
    dim: int = 0
    past_window: int = 3
    policy_name: str = "lru"
    with_storage: bool = False
    table_index: Optional[int] = None
    hit_map: HitMap = field(init=False)
    hold_mask: HoldMask = field(init=False)
    policy: ReplacementPolicy = field(init=False)
    storage: Optional[np.ndarray] = field(init=False, default=None)
    _plan_cycle: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.with_storage and self.dim < 1:
            raise ScratchpadConfigError("dim must be >= 1 when storage is materialised")
        self.hit_map = HitMap(self.num_slots, self.num_rows)
        self.hold_mask = HoldMask(self.num_slots, past_window=self.past_window)
        self.policy = make_policy(self.policy_name, self.num_slots)
        self.policy.bind_hold_mask(self.hold_mask)
        if self.with_storage:
            self.storage = np.zeros((self.num_slots, self.dim), dtype=np.float32)

    def reset(self) -> None:
        """Return to the freshly constructed state without reallocating.

        The Hit-Map's dense ID-indexed index is the scratchpad's dominant
        allocation (``num_rows`` entries per table — hundreds of MB at paper
        scale), so sweep runners reuse one scratchpad per (system, scale)
        grid instead of rebuilding it per point.
        """
        self.hit_map.reset()
        self.hold_mask.reset()
        self.policy.reset()
        if self.storage is not None:
            self.storage.fill(0.0)
        self._plan_cycle = 0

    # ------------------------------------------------------------------
    # [Plan] stage logic (Algorithm 1, vectorised, with future window)
    # ------------------------------------------------------------------
    def plan_batch(
        self,
        batch_ids: np.ndarray,
        future_ids: Optional[np.ndarray] = None,
        *,
        presorted_unique: bool = False,
    ) -> TablePlan:
        """Run the Plan stage for one table of one mini-batch.

        Args:
            batch_ids: The batch's lookup IDs for this table (any shape;
                duplicates allowed).
            future_ids: Lookup IDs of the next ``future_window`` batches
                (the lookahead that removes RAW-4); ``None`` or empty
                disables future protection.  With ``presorted_unique`` this
                may be a *list* of per-batch sorted-unique ID arrays, which
                skips concatenating them.
            presorted_unique: Fast path for the pipelined caller:
                ``batch_ids`` is already the sorted-unique int64 ID set of
                the batch (``MiniBatch.unique_table_ids``) and ``future_ids``
                holds such per-batch sorted-unique sets.
                Skips the per-call ``np.unique`` passes; the resulting plan
                is bit-identical to the slow path's.

        Returns:
            A :class:`TablePlan` that later stages consume.

        The call advances the hold mask (one batch enters [Plan] per
        pipeline cycle), queries the Hit-Map, protects hit slots and
        future-window slots, selects hazard-free victims for the misses and
        eagerly updates the Hit-Map — Storage remains untouched until
        [Insert], per the delayed-update discipline.
        """
        self.hold_mask.advance()
        self._plan_cycle += 1

        if presorted_unique:
            unique_ids = batch_ids
        else:
            unique_ids = np.unique(
                np.asarray(batch_ids, dtype=np.int64).reshape(-1)
            )
        slots, hit_mask = self.hit_map.query(unique_ids, presorted_unique=True)

        # Protect this batch's hits for the whole sliding window.
        hit_slots = slots[hit_mask]
        self.hold_mask.hold_trusted(hit_slots)

        not_hit = ~hit_mask
        miss_ids = unique_ids[not_hit]
        fill_slots = np.empty(0, dtype=np.int64)
        evicted_ids = np.empty(0, dtype=np.int64)
        if miss_ids.size:
            # Transient protection of slots the next future_window batches
            # need (removes RAW-4: never evict what an upcoming batch
            # expects cached).  Computed only when victims are needed — the
            # lookahead has no other effect.  Duplicates across the
            # per-batch unique sets only re-flag slots, so deduplication
            # across batches is pointless.
            try:
                fill_slots = self.policy.select_eligible(
                    miss_ids.size,
                    self._future_raw_slots(future_ids, presorted_unique),
                )
            except CachePressureError as error:
                table = (
                    f"table {self.table_index}"
                    if self.table_index is not None
                    else "table ?"
                )
                raise CachePressureError(
                    f"[Plan] cache pressure at {table}, "
                    f"plan cycle {self._plan_cycle}: {error}"
                ) from None
            evicted_ids = self.hit_map.assign_many(
                miss_ids, fill_slots, validate=False
            )
            self.hold_mask.hold_trusted(fill_slots)
            slots[not_hit] = fill_slots

        used_slots = slots
        self.policy.record_use(used_slots, self._plan_cycle)

        return TablePlan(
            unique_ids=unique_ids,
            slots=slots,
            hit_mask=hit_mask,
            miss_ids=miss_ids,
            fill_slots=fill_slots,
            evicted_ids=evicted_ids,
        )

    def _future_raw_slots(self, future_ids, presorted_unique: bool):
        """Future-window slots as raw per-part lookups (may contain -1).

        The policies arm transient protection straight from these
        (uncached future IDs map to -1, which lands on the exclusion
        stamp's sacrificial element), skipping any hit filtering or
        concatenation.
        """
        if future_ids is None or len(future_ids) == 0:
            return None
        if presorted_unique:
            if isinstance(future_ids, (list, tuple)):
                return [
                    self.hit_map.slots_raw(keys, presorted_unique=True)
                    for keys in future_ids
                ]
            # Back-compat: one pre-concatenated array is not globally
            # sorted, so take the full range validation.
            return [self.hit_map.slots_raw(future_ids)]
        future_keys = np.unique(
            np.asarray(future_ids, dtype=np.int64).reshape(-1)
        )
        return [self.hit_map.slots_raw(future_keys, presorted_unique=True)]

    # ------------------------------------------------------------------
    # Storage access (functional mode only)
    # ------------------------------------------------------------------
    def _require_storage(self) -> np.ndarray:
        if self.storage is None:
            raise ScratchpadStateError(
                "scratchpad was built metadata-only (with_storage=False)"
            )
        return self.storage

    def read_slots(self, slots: np.ndarray) -> np.ndarray:
        """Read embedding rows out of Storage ([Collect] victim reads,
        [Train] gathers)."""
        return self._require_storage()[slots]

    def read_slots_into(self, slots: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Gather embedding rows into a caller-provided buffer.

        Lets the pipeline stage victim rows into its preallocated ring
        buffers instead of allocating a fresh copy per cycle.
        """
        np.take(self._require_storage(), slots, axis=0, out=out)
        return out

    def write_slots(self, slots: np.ndarray, values: np.ndarray) -> None:
        """Write embedding rows into Storage ([Insert] fills,
        [Parameter Update] writes)."""
        self._require_storage()[slots] = values

    def occupancy(self) -> float:
        """Fraction of slots holding a cached embedding."""
        return self.hit_map.occupancy()


def per_table(value, num_tables: int, what: str) -> tuple:
    """Broadcast a scalar (or validate a per-table sequence) to a tuple.

    The per-table sizing hook every scratchpad builder shares: a scalar
    (slot count, policy name, ``None``) applies uniformly; a sequence must
    name exactly one value per table — the heterogeneous-cache path sizes
    each table's Hit-Map/Hold-mask/policy independently.
    """
    if isinstance(value, (str, int, np.integer)) or value is None:
        return (value,) * num_tables
    values = tuple(value)
    if len(values) != num_tables:
        raise ScratchpadConfigError(
            f"per-table {what} needs one value per table "
            f"({num_tables}), got {len(values)}"
        )
    return values


def required_slots(config: ModelConfig, window_batches: int = 6) -> int:
    """Worst-case Storage rows per table for a hazard-free window.

    Section VI-D: the Storage array must hold the embeddings of all
    mini-batches inside the sliding window even if none of their IDs
    overlap — ``lookups_per_table * batch_size * window_batches`` rows per
    table (the paper's 960 MB figure is this bound times row bytes summed
    over tables).
    """
    if window_batches < 1:
        raise ScratchpadConfigError(f"window_batches must be >= 1, got {window_batches}")
    per_batch = config.lookups_per_table * config.batch_size
    return min(per_batch * window_batches, config.rows_per_table)


def hazard_floor_slots(config: ModelConfig, past_window: int = 3) -> int:
    """Hard per-table cache floor of the hold-mask hazard window.

    At [Plan] time the hold mask keeps the slots of the ``past_window``
    in-flight batches ineligible while the current batch claims victims
    for its misses — so a cache smaller than ``past_window + 1`` batches
    of worst-case unique IDs can deadlock with ``CachePressureError`` on
    any trace whose consecutive batches do not overlap.  ``build_system``
    rejects such specs up front with a named error (the ROADMAP's
    "hazard-window floor"; ≈1.6 % of the table at the paper's default
    geometry, which is why 2 % is the smallest fraction the figures
    sweep).  Sizes between this floor and the full 6-batch
    :func:`required_slots` bound are workload-dependent: they run out of
    eligible victims only if the trace's future-window protection also
    fills the cache.
    """
    if past_window < 0:
        raise ScratchpadConfigError(f"past_window must be >= 0, got {past_window}")
    return required_slots(config, window_batches=past_window + 1)


def worst_case_storage_bytes(config: ModelConfig, window_batches: int = 6) -> int:
    """Worst-case Storage bytes across all tables (the paper's 960 MB)."""
    per_table = config.lookups_per_table * config.batch_size * window_batches
    return config.num_tables * per_table * config.row_bytes
