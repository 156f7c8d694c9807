"""Synthetic training-trace generation and the streaming trace protocol.

A *trace* is the sequence of sparse-feature ID mini-batches a RecSys training
job consumes.  The paper's central observation is that this sequence is
recorded in the training dataset ahead of time, which is what lets
ScratchPipe "look forward".  We therefore generate traces that are *randomly
accessible by batch index*: any batch can be materialised deterministically
from ``(seed, batch_index)``, which is exactly the property a dataset file
on disk has.

Every batch source in the repo implements the :class:`TraceSource`
protocol: random access by index (``batch(i)``/``__len__``) plus chunk-wise
streaming (``iter_chunks``) and ``reset()``.  Streaming is what keeps
million-batch scenario runs at constant memory — consumers hold one chunk
(or, for the pipeline, one sliding window) at a time instead of the whole
trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.errors import TraceSourceError
from repro.data.datasets import locality_distribution
from repro.data.distributions import AccessDistribution
from repro.model.config import ModelConfig

#: Default batches per streamed chunk: large enough to amortise per-chunk
#: overhead, small enough that a chunk of paper-scale batches stays far
#: below the materialised-trace footprint it replaces.
DEFAULT_CHUNK_BATCHES = 256

#: The one dtype sparse IDs are stored in, by every trace source, the
#: compiled format and the shared-memory hand-off.  Every ID universe is
#: capped at int32 (:class:`~repro.model.config.ModelConfig` refuses more
#: than ``2**31 - 1`` rows per table), and a materialised trace is the
#: largest allocation of a metadata run, so a wider dtype only doubles it.
SPARSE_ID_DTYPE = np.int32


# ----------------------------------------------------------------------
# Deterministic integer mixing — the O(1)-random-access workhorse shared
# by the scenario engine (churn re-homing) and the TSV token hasher.
# Process-stable by construction (pure integer arithmetic, no interpreter
# hash salting), which is what keeps file-backed traces deterministic.
# ----------------------------------------------------------------------
_MIX_MULT_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_MULT_2 = np.uint64(0x94D049BB133111EB)
_U64 = 0xFFFFFFFFFFFFFFFF


def mix64_scalar(value: int, *salts: int) -> int:
    """Scalar twin of :func:`mix64` for per-token hashing.

    Pure-int arithmetic: the reference TSV parser calls this once per
    categorical token, where a 1-element numpy round-trip would dominate
    ingest time.
    """
    x = value & _U64
    for salt in salts:
        x ^= salt & _U64
        x = (x + 0x9E3779B97F4A7C15) & _U64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _U64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _U64
        x ^= x >> 31
    return x


def mix64(values: np.ndarray, *salts: int) -> np.ndarray:
    """SplitMix64-style avalanche over int64 values, vectorised.

    Gives every (value, salts) combination an independent pseudo-random
    64-bit output without constructing a ``Generator`` per element — the
    churn process calls this once per sampled lookup array and the bulk
    TSV hasher once per categorical column chunk.
    """
    x = values.astype(np.uint64, copy=True)
    for salt in salts:
        x ^= np.uint64(salt & 0xFFFFFFFFFFFFFFFF)
        x = (x + np.uint64(0x9E3779B97F4A7C15))
        x = (x ^ (x >> np.uint64(30))) * _MIX_MULT_1
        x = (x ^ (x >> np.uint64(27))) * _MIX_MULT_2
        x ^= x >> np.uint64(31)
    return x


def _sorted_unique(ids: np.ndarray) -> np.ndarray:
    """Sorted unique values of a 1-D int array, as ``intp``.

    Value-identical to ``np.unique`` but several times faster on the
    lookup-ID arrays this module feeds it (numpy's hash-based unique costs
    far more than a sort at these sizes, and the sort is what the Plan
    stage needs anyway).  The sort runs at the stored width; only the
    (smaller) unique set is widened to ``intp``, because it indexes the
    Hit-Map and numpy casts any narrower index to ``intp`` per gather.
    """
    if ids.size <= 1:
        return ids.astype(np.intp)
    ordered = np.sort(ids)
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep].astype(np.intp, copy=False)


@dataclass(frozen=True)
class MiniBatch:
    """One training mini-batch.

    Attributes:
        index: Position of the batch within the trace.
        sparse_ids: Integer array of shape
            ``(num_tables, batch_size, lookups_per_table)`` — the embedding
            rows each sample gathers from each table (Figure 2(a)).  Every
            trace source stores it as :data:`SPARSE_ID_DTYPE` (int32);
            any integer dtype is accepted, so hand-built batches may use
            int64.
        dense: float32 array ``(batch_size, num_dense_features)`` of
            continuous inputs, or ``None`` for ID-only (timing) traces.
        labels: float32 array ``(batch_size,)`` of click labels, or ``None``.
    """

    index: int
    sparse_ids: np.ndarray
    dense: Optional[np.ndarray] = None
    labels: Optional[np.ndarray] = None
    # Lazily filled per-table sorted-unique ID cache.  One batch's uniques
    # are consumed up to three times per pipeline run (its own [Plan] plus
    # the future windows of the two preceding [Plan]s) and again by every
    # system replaying the same materialised trace — computing them once per
    # batch instead of per consumer is one of the pipeline's biggest wins.
    # The list itself is allocated up front: Plan threads fill distinct
    # entries concurrently, and a lazily created list could be replaced
    # under one of them, dropping its entry.
    _unique_cache: List[Optional[np.ndarray]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "_unique_cache", [None] * self.num_tables)

    @property
    def num_tables(self) -> int:
        """Number of embedding tables addressed by this batch."""
        return self.sparse_ids.shape[0]

    def table_ids(self, table: int) -> np.ndarray:
        """Flattened lookup IDs for one table (``batch * lookups`` IDs)."""
        return self.sparse_ids[table].reshape(-1)

    def unique_table_ids(self, table: int) -> np.ndarray:
        """Sorted unique lookup IDs for one table, as ``intp`` (cached after
        first use).

        Callers must treat the returned array as immutable — it is shared
        by every consumer of this batch.
        """
        cache = self._unique_cache
        ids = cache[table]
        if ids is None:
            ids = cache[table] = _sorted_unique(self.table_ids(table))
        return ids


class TraceSource:
    """Protocol every batch source implements: random access + streaming.

    Required: ``__len__`` and :meth:`batch`.  The streaming surface
    (:meth:`iter_chunks`, :meth:`reset`, ``__iter__``) has default
    implementations in terms of random access, so deterministic sources
    (synthetic datasets, scenario engines, compiled traces) get chunk-wise
    emission for free; stateful sources (file readers) override
    :meth:`reset` to rewind.

    The contract streaming consumers rely on — and the equivalence tests
    pin — is that ``iter_chunks`` emits exactly the batches ``batch(0..n)``
    would return, bit-identically, including after ``reset()`` and across
    re-iteration.
    """

    config: ModelConfig

    def __len__(self) -> int:
        raise NotImplementedError

    def batch(self, index: int) -> MiniBatch:
        """Materialise batch ``index``."""
        raise NotImplementedError

    def reset(self) -> None:
        """Rewind any internal cursor; a no-op for random-access sources."""

    def iter_chunks(
        self, chunk_batches: int = DEFAULT_CHUNK_BATCHES
    ) -> Iterator[List[MiniBatch]]:
        """Yield the trace as consecutive lists of ``chunk_batches`` batches.

        Constant-memory by construction: each chunk is materialised only
        when requested and nothing is retained between chunks.
        """
        if chunk_batches < 1:
            raise TraceSourceError(
                f"chunk_batches must be >= 1, got {chunk_batches}"
            )
        total = len(self)
        for start in range(0, total, chunk_batches):
            yield [
                self.batch(i) for i in range(start, min(start + chunk_batches, total))
            ]

    def __getitem__(self, index: int) -> MiniBatch:
        return self.batch(index)

    def __iter__(self) -> Iterator[MiniBatch]:
        for chunk in self.iter_chunks():
            yield from chunk


@dataclass(frozen=True)
class SyntheticDataset(TraceSource):
    """Deterministic, randomly-accessible synthetic training dataset.

    Args:
        config: Model/workload geometry (tables, batch, lookups, rows).
        distributions: Per-table access distribution.  A single distribution
            may be shared across tables.
        seed: Base seed; batch ``i`` is generated from ``(seed, i)`` so that
            future batches can be inspected without consuming the stream.
        num_batches: Trace length.
        with_dense: Also generate dense features and labels (needed for
            functional training; timing experiments skip them).
    """

    config: ModelConfig
    distributions: Sequence[AccessDistribution]
    seed: int = 0
    num_batches: int = 64
    with_dense: bool = False

    def __post_init__(self) -> None:
        if len(self.distributions) not in (1, self.config.num_tables):
            raise TraceSourceError(
                "distributions must have length 1 or num_tables "
                f"({self.config.num_tables}), got {len(self.distributions)}"
            )
        if self.num_batches < 1:
            raise TraceSourceError(f"num_batches must be >= 1, got {self.num_batches}")
        for dist in self.distributions:
            if dist.num_rows != self.config.rows_per_table:
                raise TraceSourceError(
                    "distribution row count "
                    f"({dist.num_rows}) must match rows_per_table "
                    f"({self.config.rows_per_table})"
                )

    def __len__(self) -> int:
        return self.num_batches

    def _distribution_for(self, table: int) -> AccessDistribution:
        if len(self.distributions) == 1:
            return self.distributions[0]
        return self.distributions[table]

    def batch(self, index: int) -> MiniBatch:
        """Materialise batch ``index`` deterministically."""
        if not 0 <= index < self.num_batches:
            raise IndexError(
                f"batch index {index} out of range [0, {self.num_batches})"
            )
        cfg = self.config
        rng = np.random.default_rng((self.seed, index))
        per_table = cfg.batch_size * cfg.lookups_per_table
        ids = np.empty(
            (cfg.num_tables, cfg.batch_size, cfg.lookups_per_table),
            dtype=SPARSE_ID_DTYPE,
        )
        for table in range(cfg.num_tables):
            ids[table] = self._distribution_for(table).sample(per_table, rng).reshape(
                cfg.batch_size, cfg.lookups_per_table
            )
        dense = None
        labels = None
        if self.with_dense:
            dense = rng.standard_normal(
                (cfg.batch_size, cfg.num_dense_features)
            ).astype(np.float32)
            labels = (rng.random(cfg.batch_size) < 0.5).astype(np.float32)
        return MiniBatch(index=index, sparse_ids=ids, dense=dense, labels=labels)


class MaterialisedDataset(TraceSource):
    """A trace prefix held in memory.

    Experiments run several systems over the *same* batches; materialising
    the prefix once avoids regenerating synthetic batches per system, and —
    because :meth:`MiniBatch.unique_table_ids` caches on the batch object —
    the per-table sorted-unique ID sets are likewise computed once and
    shared by every system that replays the trace.

    Sits on top of any :class:`TraceSource` — the batches are drawn through
    the source's chunked streaming interface (one-shot materialisation is
    just "keep every chunk"), so anything that can stream can also be
    pinned in memory when an experiment replays it many times.
    """

    def __init__(self, dataset: TraceSource, num_batches: Optional[int] = None):
        total = len(dataset)
        num_batches = total if num_batches is None else num_batches
        if not 0 < num_batches <= total:
            raise TraceSourceError(
                f"num_batches must be in [1, {total}], got {num_batches}"
            )
        self.config = dataset.config
        dataset.reset()
        batches: List[MiniBatch] = []
        # Capping the chunk size at the requested prefix keeps short
        # materialisations from generating (and discarding) a full
        # default-sized chunk.
        chunk_batches = min(DEFAULT_CHUNK_BATCHES, num_batches)
        for chunk in dataset.iter_chunks(chunk_batches=chunk_batches):
            remaining = num_batches - len(batches)
            batches.extend(chunk[:remaining])
            if len(batches) >= num_batches:
                break
        self._batches = batches
        self._precompute_uniques()

    def _precompute_uniques(self) -> None:
        # The trace is known ahead of time — the paper's core premise — so
        # the per-table sorted-unique ID sets are dataset *preprocessing*:
        # computing them here keeps them out of every consumer's steady
        # state (the pipeline reads each set up to three times per run and
        # every system replaying the trace reads them again).
        for batch in self._batches:
            for table in range(batch.num_tables):
                batch.unique_table_ids(table)

    @classmethod
    def from_batches(
        cls, config: ModelConfig, batches: Sequence[MiniBatch]
    ) -> "MaterialisedDataset":
        """Wrap already-materialised batches (e.g. views of a shared segment)."""
        self = cls.__new__(cls)
        self.config = config
        self._batches = list(batches)
        if not self._batches:
            raise TraceSourceError("cannot materialise an empty batch list")
        self._precompute_uniques()
        return self

    def __len__(self) -> int:
        return len(self._batches)

    def batch(self, index: int) -> MiniBatch:
        """Return the materialised batch at ``index``."""
        return self._batches[index]

    def __getitem__(self, index: int) -> MiniBatch:
        return self._batches[index]

    def __iter__(self) -> Iterator[MiniBatch]:
        return iter(self._batches)


def make_dataset(
    config: ModelConfig,
    locality: str,
    seed: int = 0,
    num_batches: int = 64,
    with_dense: bool = False,
) -> SyntheticDataset:
    """Build a benchmark dataset for one of the paper's locality classes.

    Args:
        config: Model/workload geometry.
        locality: ``"random"`` / ``"low"`` / ``"medium"`` / ``"high"``.
        seed: Deterministic base seed.
        num_batches: Trace length.
        with_dense: Include dense features and labels.
    """
    distribution = locality_distribution(locality, config.rows_per_table)
    return SyntheticDataset(
        config=config,
        distributions=(distribution,),
        seed=seed,
        num_batches=num_batches,
        with_dense=with_dense,
    )
