"""The Hit-Map: ScratchPipe's (key, value) cache index (Section IV-D).

The Hit-Map maps an embedding's original sparse feature ID (key) to the
index of its cached copy inside the scratchpad's Storage array (value).
A defining property of ScratchPipe's design is that the Hit-Map is updated
*eagerly at [Plan] time* while the Storage array is updated lazily when the
batch reaches [Insert] — the Hit-Map therefore always reflects the Storage
state several pipeline cycles in the future (Figure 11's "delayed and
asynchronous" update discipline).  This class implements only the index;
the delay semantics live in the pipeline, which simply refrains from
touching Storage until the right stage.

Implementation note: the paper implements the map as a GPU hash table; here
it is a dense ID-indexed array (the ID universe — the table's row count —
is known), which makes the query/assign paths fully vectorised.  At the
paper's scale this costs 4 bytes per table row (40 MB per 10M-row table),
comparable to the "<1 GB" the paper budgets for its Hit-Map (Section VI-D).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
from repro.errors import HitMapConfigError, UncachedKeyError

#: Sentinel meaning "no key cached in this slot" / "key not cached".
EMPTY = -1


@dataclass
class HitMap:
    """Bidirectional ID<->slot index for one embedding table's cache.

    Attributes:
        num_slots: Capacity of the Storage array this map indexes.
        num_rows: Size of the sparse-ID universe (the table's row count).
    """

    num_slots: int
    num_rows: int
    _slot_of_key: np.ndarray = field(init=False, repr=False)
    _key_of_slot: np.ndarray = field(init=False, repr=False)
    _size: int = field(init=False, default=0, repr=False)

    def __post_init__(self) -> None:
        if self.num_slots < 1:
            raise HitMapConfigError(f"num_slots must be >= 1, got {self.num_slots}")
        if self.num_rows < 1:
            raise HitMapConfigError(f"num_rows must be >= 1, got {self.num_rows}")
        # Both directions are int32: caches beyond 2**31 rows are far past
        # GPU capacity, and halving the element width halves the
        # random-access traffic of the assign/displace hot path.  A larger
        # ID universe is refused before its (> 8 GB) index is allocated.
        if self.num_rows > np.iinfo(np.int32).max:
            raise HitMapConfigError(
                f"num_rows must be <= {np.iinfo(np.int32).max} (int32 keys), "
                f"got {self.num_rows}"
            )
        self._slot_of_key = np.full(self.num_rows, EMPTY, dtype=np.int32)
        self._key_of_slot = np.full(self.num_slots, EMPTY, dtype=np.int32)

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: int) -> bool:
        return self._slot_of_key[int(key)] != EMPTY

    def slot_of(self, key: int) -> Optional[int]:
        """Slot caching ``key``, or ``None`` on a miss."""
        slot = int(self._slot_of_key[int(key)])
        return None if slot == EMPTY else slot

    def key_of(self, slot: int) -> int:
        """Key cached in ``slot`` (``EMPTY`` if vacant)."""
        return int(self._key_of_slot[slot])

    def query(
        self, keys: np.ndarray, *, presorted_unique: bool = False
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Probe many keys at once.

        Args:
            keys: Integer array of (typically unique) sparse feature IDs.
                Out-of-range IDs raise :class:`ValueError` — numpy would
                otherwise silently wrap negative indices and fault on large
                ones, turning a corrupt trace into wrong hit statistics.
            presorted_unique: The caller vouches that ``keys`` is a sorted
                unique ``intp`` array, as
                :meth:`~repro.data.trace.MiniBatch.unique_table_ids`
                returns.  Skips the dtype conversion and reduces the range
                validation to an O(1) first/last check — the [Plan] hot
                path uses this.

        Returns:
            ``(slots, hit_mask)`` — ``slots[i]`` is the cached slot of
            ``keys[i]`` or ``EMPTY``; ``hit_mask[i]`` is True on a hit.
        """
        if presorted_unique:
            self._check_sorted_range(keys)
        else:
            keys = np.asarray(keys, dtype=np.int64)
            if keys.size and (
                int(keys.min()) < 0 or int(keys.max()) >= self.num_rows
            ):
                raise HitMapConfigError(
                    f"key out of range [0, {self.num_rows}): "
                    f"min {int(keys.min())}, max {int(keys.max())}"
                )
        slots = self._slot_of_key[keys].astype(np.int64)
        return slots, slots != EMPTY

    def slots_raw(self, keys: np.ndarray) -> np.ndarray:
        """Bare slot lookup of a sorted-unique ID set: ``EMPTY`` (-1) where
        a key is uncached.

        Skips the int64 cast and hit-mask computation of :meth:`query` —
        the Plan stage's future-window lookahead only needs raw slot
        indices to arm transient protection (``-1`` entries are inert
        there).  ``keys`` must be sorted, as :meth:`query`'s
        ``presorted_unique`` path requires, so the range check is the same
        O(1) first/last test.  The result is a fresh array.
        """
        self._check_sorted_range(keys)
        return self._slot_of_key[keys]

    def _check_sorted_range(self, keys: np.ndarray) -> None:
        """O(1) range check of a sorted key array: its ends bound it."""
        if keys.size and (keys[0] < 0 or keys[-1] >= self.num_rows):
            raise HitMapConfigError(
                f"key out of range [0, {self.num_rows}): "
                f"[{int(keys[0])}, {int(keys[-1])}]"
            )

    def assign_many(
        self, keys: np.ndarray, slots: np.ndarray, *, validate: bool = True
    ) -> np.ndarray:
        """Install ``keys[i]`` in ``slots[i]``, returning the displaced keys.

        Displaced keys (``EMPTY`` where the slot was vacant) are removed
        from the map — mirroring [Plan] scheduling evictions whose
        write-backs complete later, at [Insert].

        Args:
            keys: Unique, currently-uncached sparse IDs.
            slots: Distinct target slots (same length as ``keys``).
            validate: Check the not-already-cached / slot-range invariants.
                The [Plan] hot path passes ``False`` — its keys are the miss
                subset of the query it just ran and its slots come straight
                from the replacement policy, so the O(len(keys)) re-checks
                are pure overhead there.

        Raises:
            ValueError: On already-cached keys or out-of-range slots
                (only with ``validate=True``).
        """
        keys = np.asarray(keys, dtype=np.int64)
        slots = np.asarray(slots, dtype=np.int64)
        if keys.shape != slots.shape:
            raise HitMapConfigError(
                f"keys {keys.shape} and slots {slots.shape} length mismatch"
            )
        if keys.size == 0:
            return np.empty(0, dtype=np.int64)
        if validate:
            if (self._slot_of_key[keys] != EMPTY).any():
                raise HitMapConfigError(
                    "some keys are already cached; query before assign"
                )
            if slots.min() < 0 or slots.max() >= self.num_slots:
                raise HitMapConfigError(f"slot index out of range [0, {self.num_slots})")
        # Fancy indexing already yields a fresh array — safe to hand out.
        displaced = self._key_of_slot[slots]
        valid = displaced != EMPTY
        self._slot_of_key[displaced[valid]] = EMPTY
        # Pre-cast once: scattering int64 values into the int32 index would
        # otherwise convert element by element.
        slots32 = slots.astype(np.int32)
        self._slot_of_key[keys] = slots32
        self._key_of_slot[slots] = keys
        self._size += int(keys.size - valid.sum())
        return displaced

    def assign(self, key: int, slot: int) -> int:
        """Scalar convenience wrapper around :meth:`assign_many`."""
        displaced = self.assign_many(
            np.array([key], dtype=np.int64), np.array([slot], dtype=np.int64)
        )
        return int(displaced[0])

    def reset(self) -> None:
        """Empty the map without reallocating its dense index.

        Clearing only the occupied entries keeps the cost O(num_slots)
        rather than O(num_rows) — the whole point of reusing the map is
        that the ``num_rows``-sized index (the dominant allocation at paper
        scale) survives across runs.
        """
        occupied = self._key_of_slot != EMPTY
        self._slot_of_key[self._key_of_slot[occupied]] = EMPTY
        self._key_of_slot.fill(EMPTY)
        self._size = 0

    def export_state(self) -> np.ndarray:
        """Snapshot the slot->key index for cross-process adoption.

        The slot->key array alone determines the whole map (the dense
        key->slot index is its inverse), so it is the entire payload the
        overlapped executor's planner workers ship home.
        """
        return self._key_of_slot.copy()

    def adopt_state(self, key_of_slot: np.ndarray) -> None:
        """Replace this map's contents with an exported snapshot.

        Used by the overlapped executor: the parent's Hit-Maps are stale
        after a run (planning happened in worker processes), so each
        worker's final :meth:`export_state` is adopted to keep post-run
        observations identical to a serial run's.
        """
        key_of_slot = np.asarray(key_of_slot, dtype=np.int64)
        if key_of_slot.shape != (self.num_slots,):
            raise HitMapConfigError(
                f"adopted state must have shape ({self.num_slots},), "
                f"got {key_of_slot.shape}"
            )
        self.reset()
        occupied = key_of_slot != EMPTY
        self._key_of_slot[:] = key_of_slot
        self._slot_of_key[key_of_slot[occupied]] = np.flatnonzero(
            occupied
        ).astype(np.int32)
        self._size = int(np.count_nonzero(occupied))

    def free_slot_mask(self) -> np.ndarray:
        """Boolean mask of vacant slots."""
        return self._key_of_slot == EMPTY

    def occupancy(self) -> float:
        """Fraction of slots currently holding a key."""
        return self._size / self.num_slots

    def keys(self) -> np.ndarray:
        """All cached keys (unsorted beyond slot order)."""
        cached = self._key_of_slot[self._key_of_slot != EMPTY]
        return cached.copy()

    def slots_of_keys(self, keys: np.ndarray) -> np.ndarray:
        """Slots of keys that are known to be cached (raises otherwise)."""
        slots, hits = self.query(keys)
        if not hits.all():
            raise UncachedKeyError("some keys are not cached")
        return slots
