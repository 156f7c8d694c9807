"""Shared-memory trace publication: the ``_PublishedTraces`` manager.

This module is the **only** place in ``src/repro`` allowed to touch
``multiprocessing.shared_memory`` — the ``shm-discipline`` rule in
:mod:`repro.lint` rejects direct use anywhere else.  Concentrating the
raw segment lifecycle (create/attach/close/unlink, the spawn-vs-fork
resource-tracker dance, the BufferError-safe release loop) behind one
seam is what made the PR 7 leak-proofing auditable; the lint rule keeps
it that way.

The flow, shared with :mod:`repro.analysis.sweep` (the sole consumer):

- The parent materialises each unique trace once and calls
  :func:`publish_trace`, which copies the stacked ID array into a fresh
  segment and records ``key -> (segment name, shape)`` in a manifest.
  Segments hold the IDs as :data:`~repro.data.trace.SPARSE_ID_DTYPE`
  (int32), the dtype every trace source stores, so a segment is as large
  as the trace's IDs and an attached trace is the parent's, dtype and all.
- Workers receive the manifest through :func:`install_manifest` (the
  pool initializer) and resolve traces via :func:`attach_shared_trace`,
  mapping zero-copy ``MiniBatch`` views onto the parent's segment.
- :class:`_PublishedTraces` owns segment lifetime in the parent:
  ``release`` gives every segment an independent close+unlink attempt on
  every exit path, so one failure never orphans the rest.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.data.trace import SPARSE_ID_DTYPE, MaterialisedDataset, MiniBatch

#: Trace key -> (segment name, stacked shape).  An opaque-key view of
#: ``repro.analysis.sweep.TraceKey`` (element 0 is the ``ModelConfig``);
#: this module never inspects the rest of the tuple.
Manifest = Dict[Any, Tuple[str, Tuple[int, ...]]]

#: Worker-global registry of shared-memory traces: key -> (name, shape).
# repro-lint: disable=worker-capture -- parent installs the manifest via
# install_manifest() in the pool initializer before any point runs, so
# every process sees the same mapping; never mutated mid-grid.
_SHM_MANIFEST: Manifest = {}
#: Attached segments, pinned so the zero-copy batch views stay valid.
# repro-lint: disable=worker-capture -- process-local attach cache keyed
# by segment name; each process fills its own entries on first attach.
_SHM_ATTACHED: Dict[str, shared_memory.SharedMemory] = {}


def install_manifest(manifest: Manifest) -> None:
    """Adopt the parent's manifest (worker-pool initializer hook)."""
    _SHM_MANIFEST.update(manifest)


def attach_shared_trace(key: Any) -> Optional[MaterialisedDataset]:
    """Map a parent-published trace segment into zero-copy batches."""
    entry = _SHM_MANIFEST.get(key)
    if entry is None:
        return None
    name, shape = entry
    if name in _SHM_ATTACHED:
        segment = _SHM_ATTACHED[name]
    else:
        segment = shared_memory.SharedMemory(name=name)
        # The parent owns the segment's lifetime.  Under the spawn start
        # method each worker has its own resource tracker which would
        # tear the segment down (or warn) at worker exit, so the attach is
        # unregistered there (fixed upstream in 3.13 via track=False).
        # Under fork the tracker process is shared with the parent and its
        # registrations form a set — the worker's duplicate register is a
        # no-op and unregistering would cancel the parent's entry.
        try:  # pragma: no cover - depends on interpreter internals
            import multiprocessing

            if multiprocessing.get_start_method(allow_none=True) != "fork":
                from multiprocessing import resource_tracker

                resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:
            pass
        _SHM_ATTACHED[name] = segment
    stacked = np.ndarray(shape, dtype=SPARSE_ID_DTYPE, buffer=segment.buf)
    config = key[0]
    batches = [
        MiniBatch(index=i, sparse_ids=stacked[i]) for i in range(shape[0])
    ]
    return MaterialisedDataset.from_batches(config, batches)


def publish_trace(
    key: Any,
    trace: MaterialisedDataset,
    manifest: Manifest,
    segments: List[shared_memory.SharedMemory],
) -> None:
    """Publish one materialised trace into a fresh shared segment.

    Appends the created segment to the caller-owned ``segments`` *before*
    filling it, so a mid-fill failure still releases it.  Dense-bearing
    traces are skipped (sweep traces are ID-only today): workers fall
    back to per-key regeneration rather than silently receiving a
    sparse-only copy.
    """
    first = trace.batch(0)
    if first.dense is not None:
        return
    # Fill the segment batch-by-batch: stacking first would briefly
    # hold a second full copy of the trace in the parent.
    shape = (len(trace),) + first.sparse_ids.shape
    nbytes = int(np.prod(shape)) * np.dtype(SPARSE_ID_DTYPE).itemsize
    segment = shared_memory.SharedMemory(create=True, size=nbytes)
    segments.append(segment)
    view = np.ndarray(shape, dtype=SPARSE_ID_DTYPE, buffer=segment.buf)
    for i in range(len(trace)):
        view[i] = trace.batch(i).sparse_ids
    # Drop the numpy view before the segment can be closed: a live
    # export of ``segment.buf`` turns ``close()`` into a BufferError.
    del view
    manifest[key] = (segment.name, shape)


class _PublishedTraces:
    """Exception-safe owner of one grid run's shared-memory segments.

    The pre-PR-7 lifecycle was a ``try/finally`` whose per-segment
    ``except OSError`` aborted the loop on any *other* exception (e.g. the
    ``BufferError`` a still-exported memoryview raises from ``close()``),
    orphaning every later segment.  Here release is unconditional:
    each segment gets an independent close and unlink attempt on every
    exit path — mid-publish failures, worker crashes, quarantined grids —
    and one failure never skips the rest.
    """

    def __init__(self) -> None:
        self.manifest: Manifest = {}
        self.segments: List[shared_memory.SharedMemory] = []

    def release(self) -> None:
        """Close and unlink every published segment; never raises."""
        segments, self.segments = self.segments, []
        self.manifest.clear()
        for segment in segments:
            try:
                segment.close()
            except Exception:  # pragma: no cover - close is best-effort
                pass
            try:
                segment.unlink()
            except Exception:  # pragma: no cover - already unlinked
                pass

    def __enter__(self) -> "_PublishedTraces":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()
