"""Seed-style reference implementations the equivalence tests compare to.

Each production structure has exactly one implementation.  The slower,
obviously-correct versions the fast paths were derived from live here,
as drop-in objects a test injects in place of the production one:

* :class:`ScanHazardMonitor` — the per-element dict bookkeeping of the
  RAW-hazard monitor, pruned eagerly at every cycle end;
* :class:`ScanLruPolicy` / :class:`ScanLfuPolicy` / :class:`ScanRandomPolicy`
  — full-scan victim selection over a boolean eligibility mask
  (:func:`use_scan_policies` swaps them into built scratchpads);
* :class:`PerCycleUniquePipeline` — Plan from the raw lookup arrays,
  ``np.unique``-ing them again at every cycle instead of reusing each
  batch's cached sorted-unique ID sets;
* :class:`PerTokenTsvTraceSource` — the per-token TSV hashing loop;
* :func:`unique_add_at_coalesce` — gradient coalescing keyed by row ID:
  ``np.unique`` and a 2-D ``np.add.at``.

Production modules never import this one (the ``oracle-isolation`` lint
rule enforces it); only tests and benchmarks do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Type

import numpy as np

from repro.core.hitmap import EMPTY
from repro.core.pipeline import (
    PLAN_TO_COLLECT,
    PLAN_TO_INSERT,
    PLAN_TO_TRAIN,
    HazardMonitor,
    ScratchPipePipeline,
)
from repro.core.replacement import (
    LfuPolicy,
    LruPolicy,
    RandomPolicy,
    ReplacementPolicy,
    policy_class,
)
from repro.core.scratchpad import GpuScratchpad, TablePlan
from repro.data.trace import MiniBatch
from repro.data.tsv import TsvTraceSource, hash_token
from repro.errors import TsvFormatError

__all__ = [
    "PerCycleUniquePipeline",
    "PerTokenTsvTraceSource",
    "ScanHazardMonitor",
    "ScanLfuPolicy",
    "ScanLruPolicy",
    "ScanRandomPolicy",
    "make_scan_policy",
    "unique_add_at_coalesce",
    "use_scan_policies",
]


# ----------------------------------------------------------------------
# Hazard monitor
# ----------------------------------------------------------------------
@dataclass
class ScanHazardMonitor(HazardMonitor):
    """The original dict-based hazard bookkeeping.

    ``(table, slot)`` maps to the cycle of the last scheduled write not
    yet retired, and ``(table, row_id)`` to the cycle its write-back
    lands; :meth:`on_cycle_end` drops every entry that has happened.
    Flags the same violations, in the same order, as
    :class:`~repro.core.pipeline.HazardMonitor`.
    """

    _pending_slot_writes: Dict[Tuple[int, int], int] = field(default_factory=dict)
    _pending_writebacks: Dict[Tuple[int, int], int] = field(default_factory=dict)

    def check(self, cycle: int, table: int, plan: TablePlan) -> List[str]:
        collect_cycle = cycle + PLAN_TO_COLLECT
        insert_cycle = cycle + PLAN_TO_INSERT
        train_cycle = cycle + PLAN_TO_TRAIN

        messages: List[str] = []
        for slot in plan.fill_slots:
            pending = self._pending_slot_writes.get((table, int(slot)))
            if pending is not None and pending >= collect_cycle:
                messages.append(
                    f"RAW-2/3: slot {int(slot)} of table {table} chosen as "
                    f"victim (read at cycle {collect_cycle}) while an "
                    f"in-flight batch writes it at cycle {pending}"
                )

        for row in plan.miss_ids:
            pending = self._pending_writebacks.get((table, int(row)))
            if pending is not None and pending >= collect_cycle:
                messages.append(
                    f"RAW-4: row {int(row)} of table {table} read from the "
                    f"CPU table at cycle {collect_cycle} while its "
                    f"write-back lands at cycle {pending}"
                )

        for slot in plan.fill_slots:
            self._pending_slot_writes[(table, int(slot))] = insert_cycle
        for slot in plan.slots:
            existing = self._pending_slot_writes.get((table, int(slot)), -1)
            self._pending_slot_writes[(table, int(slot))] = max(
                existing, train_cycle
            )
        for _, evicted in zip(plan.fill_slots, plan.evicted_ids):
            if int(evicted) != EMPTY:
                self._pending_writebacks[(table, int(evicted))] = insert_cycle
        return messages

    def on_cycle_end(self, cycle: int) -> None:
        self._pending_slot_writes = {
            k: v for k, v in self._pending_slot_writes.items() if v > cycle
        }
        self._pending_writebacks = {
            k: v for k, v in self._pending_writebacks.items() if v > cycle
        }


# ----------------------------------------------------------------------
# Victim selection
# ----------------------------------------------------------------------
class _ScanSelection:
    """Full-scan selection: rebuild the candidates from an eligibility
    mask and sort them, O(num_slots) per call."""

    def select(self, eligible: np.ndarray, count: int) -> np.ndarray:
        """Choose ``count`` victim slots among ``eligible`` (boolean mask),
        in selection order.

        Raises:
            CachePressureError: If fewer than ``count`` slots are eligible.
        """
        candidates = self._candidates(eligible, count)
        if count == 0:
            return candidates[:0]
        # ``candidates`` ascends (``flatnonzero``), so a stable argsort on
        # the scores realises the (score, slot index) order.
        order = np.argsort(self._scores()[candidates], kind="stable")
        return candidates[order[:count]]

    def select_eligible(self, count: int, transient=None) -> np.ndarray:
        """:meth:`select` over the mask the bound hold mask and the
        transient slots describe (``-1`` entries mark uncached IDs)."""
        eligible = self._hold_mask.eligible_mask()
        if transient is not None:
            parts = transient if isinstance(transient, (list, tuple)) else [transient]
            for part in parts:
                slots = np.asarray(part, dtype=np.int64)
                eligible[slots[slots >= 0]] = False
        return self.select(eligible, count)

    def _candidates(self, eligible: np.ndarray, count: int) -> np.ndarray:
        candidates = np.flatnonzero(eligible)
        if candidates.size < count:
            raise self._pressure(candidates.size, count)
        return candidates


@dataclass
class ScanLruPolicy(_ScanSelection, LruPolicy):
    """LRU by full scan."""


@dataclass
class ScanLfuPolicy(_ScanSelection, LfuPolicy):
    """LFU by full scan."""


@dataclass
class ScanRandomPolicy(_ScanSelection, RandomPolicy):
    """Random eviction by full scan: sorted vacancies first, then a draw
    over the whole eligible-used population."""

    def select(self, eligible: np.ndarray, count: int) -> np.ndarray:
        candidates = self._candidates(eligible, count)
        if count == 0:
            return candidates[:0]
        vacant = candidates[self._last_use[candidates] < 0]
        if vacant.size >= count:
            return vacant[:count]
        used = candidates[self._last_use[candidates] >= 0]
        extra = self._rng.choice(used, size=count - vacant.size, replace=False)
        return np.concatenate([vacant, extra])


_SCAN_TWINS: Dict[Type[ReplacementPolicy], Type[ReplacementPolicy]] = {
    LruPolicy: ScanLruPolicy,
    LfuPolicy: ScanLfuPolicy,
    RandomPolicy: ScanRandomPolicy,
}


def make_scan_policy(name: str, num_slots: int) -> ReplacementPolicy:
    """The full-scan twin of a builtin policy (``"lru"``/``"lfu"``/
    ``"random"``)."""
    return _SCAN_TWINS[policy_class(name)](num_slots=num_slots)


def use_scan_policies(scratchpads: Sequence[GpuScratchpad]) -> List[GpuScratchpad]:
    """Replace each fresh scratchpad's policy with its full-scan twin,
    bound to the same hold mask; returns the scratchpads."""
    for pad in scratchpads:
        pad.policy = _SCAN_TWINS[type(pad.policy)](num_slots=pad.num_slots)
        pad.policy.bind_hold_mask(pad.hold_mask)
    return list(scratchpads)


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
class PerCycleUniquePipeline(ScratchPipePipeline):
    """Plans from the raw lookup arrays: every table of every cycle
    re-``np.unique``-s the batch and its concatenated future window."""

    def _plan_table(
        self, table: int, batch: MiniBatch, future_batches: List[MiniBatch]
    ) -> TablePlan:
        future_ids = None
        if future_batches:
            future_ids = np.concatenate([b.table_ids(table) for b in future_batches])
        return self.scratchpads[table].plan_batch(batch.sparse_ids[table], future_ids)


# ----------------------------------------------------------------------
# Gradient coalescing
# ----------------------------------------------------------------------
def unique_add_at_coalesce(
    ids: np.ndarray, grads: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(sorted unique IDs, coalesced grads)``: ``np.unique`` the IDs, then
    sum each lookup's gradient into its row with a 2-D ``np.add.at``."""
    ids = np.asarray(ids).reshape(-1)
    unique_ids, inverse = np.unique(ids, return_inverse=True)
    coalesced = np.zeros((unique_ids.shape[0], grads.shape[1]), dtype=grads.dtype)
    np.add.at(coalesced, inverse, grads)
    return unique_ids, coalesced


# ----------------------------------------------------------------------
# TSV ingestion
# ----------------------------------------------------------------------
class PerTokenTsvTraceSource(TsvTraceSource):
    """Hashes every categorical token with :func:`hash_token`, one at a
    time."""

    def _parse_ids(self, lines: List[bytes], first_sample: int) -> np.ndarray:
        cfg = self.config
        num_rows = cfg.rows_per_table
        ids = np.empty(
            (cfg.num_tables, len(lines), cfg.lookups_per_table), dtype=np.int64
        )
        for sample, line in enumerate(lines):
            fields = line.split(b"\t")
            cats = fields[1 + self.num_dense_columns:]
            if len(cats) < self._columns_needed:
                raise TsvFormatError(
                    f"TSV sample {first_sample + sample}"
                    f" has {len(cats)} categorical fields; need >= "
                    f"{self._columns_needed}"
                )
            for column in range(self._columns_needed):
                table, lookup = divmod(column, cfg.lookups_per_table)
                ids[table, sample, lookup] = hash_token(
                    cats[column], table, num_rows
                )
        return ids
