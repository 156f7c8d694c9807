"""Victim-selection (replacement) policies for the GPU scratchpad.

The Plan stage needs ``k`` victims per miss burst, chosen from the slots the
Hold mask leaves eligible.  The paper's default policy is LRU, with random
and LFU evaluated in the Section VI-E sensitivity study.

Selection semantics
-------------------
``LruPolicy``/``LfuPolicy`` return the ``count`` eligible slots that are
smallest under the lexicographic order ``(score, slot index)``, in ascending
order — score is the last-use cycle for LRU and the use count for LFU.
Never-used slots carry the smallest scores, so vacancies fill eagerly and
deterministically.  ``RandomPolicy`` fills sorted vacant slots first (so the
cache warms deterministically) and only then draws uniformly random victims
among the used eligible slots.

The tie-break *by slot index* is deliberate: the seed implementation used
``np.argpartition``, whose choice among equal scores is an introselect
implementation detail — impossible to reproduce with any structure that does
not rescan every slot, and not stable across numpy versions.  Pinning the
order makes victim choice a well-defined cache semantic that the
incremental implementation below and the full-scan oracle realise
bit-identically.

Incremental selection
---------------------
An incrementally maintained score-bucketed candidate queue
(:class:`_CandidateBuckets`) realises that order: ``record_use`` appends
the touched slots to the bucket of their new score, and
``select_eligible`` pops victims from the lowest buckets, checking
eligibility per candidate with O(1) hold-stamp compares.  Stale entries
(slots whose score moved on) are dropped lazily when encountered, so the
per-cycle cost tracks the slots actually touched — O(misses) — instead of
``num_slots``.  A full scan (rebuild the candidate list from a boolean
eligibility mask and sort, O(num_slots) per call) is the equivalence-test
oracle in :mod:`repro.testing.oracles`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Type

import numpy as np
from repro.errors import ReplacementConfigError, ReplacementStateError

#: Chunk floor for the bucket walk: candidates are validated in slices of at
#: least this many entries so the amortised numpy call overhead stays small.
_MIN_CHUNK = 64

_EMPTY_SLOTS = np.empty(0, dtype=np.int64)


class CachePressureError(RuntimeError):
    """Raised when fewer eligible slots exist than victims are needed.

    ScratchPipe requires the Storage array to be provisioned for the
    worst-case working set of the sliding window (Section VI-D); hitting
    this error means the cache is undersized for the workload — compute the
    bound with :func:`repro.core.scratchpad.required_slots`.
    """


class _SlotExclusion:
    """Versioned transient-slot marking (no per-call clearing pass).

    The stamp array carries one sacrificial trailing element so callers can
    arm raw Hit-Map lookups directly: ``EMPTY`` (-1) slots — future IDs
    that are not cached and so protect nothing — land on the extra element
    instead of a real slot.
    """

    __slots__ = ("_stamp", "_version")

    def __init__(self, num_slots: int) -> None:
        self._stamp = np.zeros(num_slots + 1, dtype=np.int32)
        self._version = 0

    def arm(self, parts) -> None:
        """Mark the slots of ``parts`` (a list of index arrays, -1 allowed)
        as transiently protected for this selection."""
        self._version += 1
        for slots in parts:
            self._stamp[slots] = self._version

    def mask(self, slots: np.ndarray) -> np.ndarray:
        """Boolean mask: True where the slot was armed this version."""
        return self._stamp[slots] == self._version


class _CandidateBuckets:
    """Incremental (score -> sorted candidate slots) queue.

    Entries live in the bucket of the score they were pushed with; a slot
    whose score has since changed is *stale* and is discarded the first time
    a pop walk encounters it (its live entry sits in a later-pushed bucket).
    Selection is a pure query: popped candidates stay in their bucket until
    their score changes, so repeated pops with unchanged state return the
    same victims — exactly like a stateless full scan.

    Buckets store lists of sorted, ascending-disjoint array parts so that
    consuming the head of a large bucket (the initial all-vacant free list)
    never copies its tail.  Total work is amortised O(1) per pushed entry:
    stale and consumed entries are touched at most twice, and periodic
    rebuilds (triggered by push volume) bound the memory of long runs.
    """

    def __init__(self, scores: np.ndarray, num_slots: int) -> None:
        self._scores = scores
        self._num_slots = num_slots
        self._rebuild_threshold = max(8 * num_slots, 1 << 19)
        self.rebuild()

    def rebuild(self) -> None:
        """Drop all entries and re-derive one live entry per slot."""
        scores = self._scores
        order = np.argsort(scores, kind="stable")
        ordered = scores[order]
        boundaries = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
        chunks = np.split(order, boundaries)
        keys = ordered[np.concatenate(([0], boundaries))]
        self._parts: Dict[int, List[np.ndarray]] = {
            int(key): [chunk] for key, chunk in zip(keys, chunks)
        }
        self._pending: Dict[int, List[np.ndarray]] = {}
        self._min_key = int(keys[0])
        self._max_key = int(keys[-1])
        self._pushed = 0

    def push(self, key: int, slots: np.ndarray) -> None:
        """Record that ``slots`` now score ``key`` (their prior entries go
        stale).  ``slots`` must not contain duplicates."""
        self._pending.setdefault(key, []).append(slots)
        if key < self._min_key:
            self._min_key = key
        if key > self._max_key:
            self._max_key = key
        self._pushed += slots.size
        if self._pushed >= self._rebuild_threshold:
            self.rebuild()

    def pop(
        self,
        count: int,
        release_stamps: np.ndarray,
        clock: int,
        exclude,
        stop_key: Optional[int] = None,
    ) -> Tuple[np.ndarray, int]:
        """Collect up to ``count`` eligible slots in (score, slot) order.

        A candidate is eligible when its hold stamp has expired
        (``release_stamps[slot] <= clock``) and ``exclude`` (``None`` or an
        object with a ``mask(slots)`` method, e.g. :class:`_SlotExclusion`)
        does not veto it.  ``stop_key`` bounds the walk (inclusive);
        ``None`` walks every bucket.  Returns ``(victims, found)`` where
        ``found < count`` means the walked buckets hold only ``found``
        eligible slots in total.
        """
        taken: List[np.ndarray] = []
        got = 0
        scores = self._scores
        key = self._min_key
        last_key = self._max_key if stop_key is None else min(stop_key, self._max_key)
        advance_min = True
        while got < count and key <= last_key:
            parts = self._parts.get(key)
            pending = self._pending.pop(key, None)
            if pending is not None:
                flat = (parts or []) + pending
                parts = [np.sort(np.concatenate(flat)) if len(flat) > 1
                         else np.sort(flat[0])]
            if not parts:
                if advance_min:
                    self._min_key = key + 1
                key += 1
                continue
            new_parts: List[np.ndarray] = []
            need = count - got
            for index, part in enumerate(parts):
                if need == 0:
                    new_parts.extend(parts[index:])
                    break
                position = 0
                while position < part.size and need > 0:
                    chunk = part[position:position + max(_MIN_CHUNK, 2 * need)]
                    position += chunk.size
                    fresh = chunk[scores[chunk] == key]
                    if not fresh.size:
                        continue
                    new_parts.append(fresh)
                    # Validate eligibility in need-sized slices: the first
                    # slice usually satisfies the walk (stale entries are
                    # gone, holds rarely bite), so the stamp/exclusion
                    # gathers touch ~need elements instead of the whole
                    # chunk.
                    fresh_pos = 0
                    while fresh_pos < fresh.size and need > 0:
                        sub = fresh[fresh_pos:fresh_pos + need]
                        fresh_pos += sub.size
                        eligible = sub[release_stamps[sub] <= clock]
                        if exclude is not None and eligible.size:
                            eligible = eligible[~exclude.mask(eligible)]
                        if eligible.size:
                            grab = eligible[:need]
                            taken.append(grab)
                            got += grab.size
                            need -= grab.size
                if position < part.size:
                    new_parts.append(part[position:])
            if new_parts:
                self._parts[key] = new_parts
                advance_min = False
            else:
                self._parts.pop(key, None)
                if advance_min:
                    self._min_key = key + 1
            key += 1
        if not taken:
            return _EMPTY_SLOTS, got
        if len(taken) == 1:
            return taken[0], got
        return np.concatenate(taken), got


@dataclass
class ReplacementPolicy:
    """Base class holding per-slot usage metadata.

    Attributes:
        num_slots: Number of Storage slots managed.
    """

    num_slots: int
    _last_use: np.ndarray = field(init=False, repr=False)
    _buckets: Optional[_CandidateBuckets] = field(
        init=False, default=None, repr=False
    )
    _slot_exclusion: Optional[_SlotExclusion] = field(
        init=False, default=None, repr=False
    )
    _hold_mask: Optional[object] = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        if self.num_slots < 1:
            raise ReplacementConfigError(f"num_slots must be >= 1, got {self.num_slots}")
        # Never-used slots sort first so vacancies fill eagerly.
        # int32 scores: plan cycles and use counts stay far below 2**31,
        # and the score gathers are the candidate walk's hottest traffic.
        self._last_use = np.full(self.num_slots, -1, dtype=np.int32)

    # ------------------------------------------------------------------
    # Shared plumbing
    # ------------------------------------------------------------------
    def _scores(self) -> np.ndarray:
        """Per-slot victim score (smaller = evicted first)."""
        raise NotImplementedError

    def bind_hold_mask(self, hold_mask) -> None:
        """Attach the :class:`~repro.core.holdmask.HoldMask` whose stamps
        victim selection consults for per-candidate eligibility."""
        self._hold_mask = hold_mask

    def record_use(self, slots: np.ndarray, cycle: int) -> None:
        """Note that ``slots`` (unique indices) were referenced by the batch
        planned at ``cycle``."""
        slots = np.asarray(slots, dtype=np.int64)
        if slots.size == 0:
            return
        self._last_use[slots] = cycle
        if self._buckets is not None:
            self._push_used(slots, cycle)

    def _push_used(self, slots: np.ndarray, cycle: int) -> None:
        self._buckets.push(cycle, slots)

    def reset(self) -> None:
        """Forget all usage state, returning to the as-constructed state."""
        self._last_use.fill(-1)
        if self._buckets is not None:
            self._buckets.rebuild()

    def _pressure(self, available: int, count: int) -> CachePressureError:
        return CachePressureError(
            f"need {count} victims but only {available} of "
            f"{self.num_slots} slots are eligible; enlarge the scratchpad "
            "(see repro.core.scratchpad.required_slots)"
        )

    # ------------------------------------------------------------------
    # Victim selection
    # ------------------------------------------------------------------
    def _ensure_incremental(self) -> _CandidateBuckets:
        if self._hold_mask is None:
            raise ReplacementStateError(
                "select_eligible() needs a bound HoldMask; call "
                "bind_hold_mask() first"
            )
        if self._buckets is None:
            self._buckets = _CandidateBuckets(self._scores(), self.num_slots)
        return self._buckets

    def _exclusion_for(self, transient):
        """Normalise the transient argument into an exclusion object.

        Accepts ``None``, an array of transient slot indices (duplicates
        allowed), or a list of such arrays (``-1`` entries are ignored —
        they mark uncached future IDs).
        """
        if transient is None:
            return None
        if isinstance(transient, (list, tuple)):
            parts = [part for part in transient if part.size]
        else:
            slots = np.asarray(transient, dtype=np.int64)
            parts = [slots] if slots.size else []
        if not parts:
            return None
        if self._slot_exclusion is None:
            self._slot_exclusion = _SlotExclusion(self.num_slots)
        self._slot_exclusion.arm(parts)
        return self._slot_exclusion

    def select_eligible(self, count: int, transient=None) -> np.ndarray:
        """Choose ``count`` victims without scanning ``num_slots``.

        Eligibility is "hold stamp expired and not transiently protected"
        (the Plan stage's future-window lookahead); ``transient`` is an
        array, or a list of arrays, of protected slots (see
        :meth:`_exclusion_for`).  Bit-identical to a full scan over the
        eligibility mask the bound hold mask and the transient set describe.

        Raises:
            CachePressureError: If fewer than ``count`` slots are eligible.
        """
        if count == 0:
            return _EMPTY_SLOTS
        buckets = self._ensure_incremental()
        hold = self._hold_mask
        exclude = self._exclusion_for(transient)
        victims, got = buckets.pop(
            count, hold.release_stamps, hold.clock, exclude
        )
        if got < count:
            # The store may simply have drained: policies that skip
            # per-use pushes (LRU's used-after-rebuild slots always rank
            # after every still-valid entry) recover the missing candidates
            # by rebuilding from the score arrays.  Pops are pure, so the
            # retry is clean; a dry walk after a rebuild is real pressure.
            buckets.rebuild()
            victims, got = buckets.pop(
                count, hold.release_stamps, hold.clock, exclude
            )
        if got < count:
            raise self._pressure(got, count)
        return victims


@dataclass
class LruPolicy(ReplacementPolicy):
    """Evict the least-recently-used eligible slots (the paper's default)."""

    def _scores(self) -> np.ndarray:
        return self._last_use


@dataclass
class LfuPolicy(ReplacementPolicy):
    """Evict the least-frequently-used eligible slots."""

    _use_count: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        self._use_count = np.zeros(self.num_slots, dtype=np.int32)

    def _scores(self) -> np.ndarray:
        return self._use_count

    def record_use(self, slots: np.ndarray, cycle: int) -> None:
        slots = np.asarray(slots, dtype=np.int64)
        if slots.size == 0:
            return
        self._last_use[slots] = cycle
        self._use_count[slots] += 1
        if self._buckets is not None:
            self._push_used(slots, cycle)

    def _push_used(self, slots: np.ndarray, cycle: int) -> None:
        # Unlike LRU, one batch lands in several buckets: group the touched
        # slots by their incremented use count.
        counts = self._use_count[slots]
        order = np.argsort(counts, kind="stable")
        ordered_counts = counts[order]
        ordered_slots = slots[order]
        boundaries = np.flatnonzero(ordered_counts[1:] != ordered_counts[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [ordered_slots.size]))
        for start, end in zip(starts, ends):
            self._buckets.push(int(ordered_counts[start]), ordered_slots[start:end])

    def reset(self) -> None:
        self._use_count.fill(0)
        super().reset()


@dataclass
class RandomPolicy(ReplacementPolicy):
    """Evict uniformly random eligible slots (sensitivity study baseline).

    Vacant (never-used) slots are consumed first, in ascending slot order —
    an explicit contract so the cache warm-up is deterministic; randomness
    applies only to true evictions.  The incremental path serves the vacant
    phase from the candidate free list in O(count); the random-eviction tail
    falls back to a full scan, because drawing without replacement from the
    eligible-used population with ``Generator.choice`` consumes the RNG as a
    function of the whole population — any shortcut would change every
    sensitivity-figure draw.
    """

    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        self._rng = np.random.default_rng(self.seed)

    def _scores(self) -> np.ndarray:
        return self._last_use

    def _push_used(self, slots: np.ndarray, cycle: int) -> None:
        # The incremental path only ever consumes the vacant free list
        # (bucket -1); used slots never return to it, so pushing their new
        # scores would only feed buckets nobody pops.
        pass

    def reset(self) -> None:
        super().reset()
        self._rng = np.random.default_rng(self.seed)

    def select_eligible(self, count: int, transient=None) -> np.ndarray:
        if count == 0:
            return _EMPTY_SLOTS
        buckets = self._ensure_incremental()
        hold = self._hold_mask
        exclude = self._exclusion_for(transient)
        vacant, got = buckets.pop(
            count, hold.release_stamps, hold.clock, exclude, stop_key=-1
        )
        if got >= count:
            return vacant
        # Random-eviction tail: materialise the sorted eligible-used
        # population a full scan would draw from (see class docs).
        eligible_used = (hold.release_stamps <= hold.clock) & (
            self._last_use >= 0
        )
        used = np.flatnonzero(eligible_used)
        if exclude is not None and used.size:
            used = used[~exclude.mask(used)]
        if got + used.size < count:
            raise self._pressure(got + used.size, count)
        extra = self._rng.choice(used, size=count - got, replace=False)
        return np.concatenate([vacant, extra])


#: Name -> class registry the ``repro.api`` plugin surface extends via
#: :func:`register_policy`; the builtins below seed it at import time.
# repro-lint: disable=worker-capture -- import-time registry: the
# builtin @register_policy decorators below repopulate it identically in
# every process on module import.
_POLICIES: Dict[str, Type[ReplacementPolicy]] = {}


def register_policy(name: str):
    """Class decorator registering a :class:`ReplacementPolicy` by name.

    The registered name becomes valid everywhere a policy name is consumed:
    :func:`make_policy`, ``GpuScratchpad(policy_name=...)`` and the
    ``repro.api`` spec layer (``CacheSpec.policy``).  Registration is
    first-wins-forbidden: re-registering an existing name raises, so a
    plugin cannot silently shadow a builtin.
    """
    key = name.lower()

    def decorate(cls: Type[ReplacementPolicy]) -> Type[ReplacementPolicy]:
        existing = _POLICIES.get(key)
        if existing is not None and existing is not cls:
            raise ReplacementConfigError(
                f"policy {key!r} is already registered to "
                f"{existing.__name__}"
            )
        _POLICIES[key] = cls
        return cls

    return decorate


def registered_policies() -> Tuple[str, ...]:
    """Sorted names of every registered replacement policy."""
    return tuple(sorted(_POLICIES))


def policy_class(name: str) -> Type[ReplacementPolicy]:
    """Resolve a registered policy class by (case-insensitive) name."""
    try:
        return _POLICIES[name.lower()]
    except KeyError:
        raise ReplacementConfigError(
            f"unknown policy {name!r}; expected one of {sorted(_POLICIES)}"
        ) from None


register_policy("lru")(LruPolicy)
register_policy("lfu")(LfuPolicy)
register_policy("random")(RandomPolicy)


def make_policy(name: str, num_slots: int) -> ReplacementPolicy:
    """Build a replacement policy by registered name (``"lru"``/``"lfu"``/
    ``"random"`` plus anything added via :func:`register_policy`)."""
    return policy_class(name)(num_slots=num_slots)
