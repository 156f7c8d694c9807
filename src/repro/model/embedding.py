"""Embedding tables and the paper's four embedding-layer primitives.

Figure 2 of the paper decomposes embedding-layer training into:

* forward:  embedding **gather** (sparse row reads) + **reduction** (sum
  pooling of the gathered rows per sample), and
* backward: gradient **duplication** (each pooled gradient fans out to every
  row its sample gathered), **coalescing** (gradients of rows gathered
  multiple times are summed) and **scatter** (the coalesced gradients update
  the table rows in place).

Coalescing is keyed by position: each lookup names the index of its row in
the batch's sorted unique IDs, not the row ID.  Finding the unique IDs and
those positions is the unique step of Figure 2(b), and in ScratchPipe it
belongs to the [Plan] stage, which has done it before [Train] runs
(:meth:`repro.core.scratchpad.TablePlan.positions_for`).  Callers that hold
only IDs take the step themselves with ``np.unique(ids,
return_inverse=True)``.

This module implements each primitive as a standalone, testable function and
wraps table state in :class:`EmbeddingTable`.  Every system design in
``repro.systems`` routes its functional math through these primitives so that
the correctness-equivalence tests compare like with like.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ModelConfigError, ModelShapeError
from repro.model.config import ModelConfig


def gather_rows(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Gather rows ``ids`` from ``table`` (Figure 2(a), left).

    Args:
        table: float32 array ``(rows, dim)``.
        ids: int array of any shape; values index rows of ``table``.

    Returns:
        Array of shape ``ids.shape + (dim,)``.
    """
    return table[ids]


def sum_pool(gathered: np.ndarray) -> np.ndarray:
    """Reduce gathered rows per sample (Figure 2(a), right).

    Args:
        gathered: ``(batch, lookups, dim)`` gathered embeddings.

    Returns:
        ``(batch, dim)`` pooled embeddings.
    """
    if gathered.ndim != 3:
        raise ModelShapeError(
            f"expected (batch, lookups, dim) input, got shape {gathered.shape}"
        )
    return gathered.sum(axis=1)


def duplicate_gradients(pooled_grad: np.ndarray, lookups: int) -> np.ndarray:
    """Fan a pooled gradient out to each gathered row (Figure 2(b), left).

    With sum pooling, every row a sample gathered receives the sample's
    pooled gradient unchanged.

    Args:
        pooled_grad: ``(batch, dim)`` gradient of the pooled output.
        lookups: Number of rows each sample gathered.

    Returns:
        ``(batch, lookups, dim)`` duplicated per-lookup gradients.
    """
    if pooled_grad.ndim != 2:
        raise ModelConfigError(
            f"expected (batch, dim) pooled gradient, got shape {pooled_grad.shape}"
        )
    if lookups < 1:
        raise ModelConfigError(f"lookups must be >= 1, got {lookups}")
    return np.broadcast_to(
        pooled_grad[:, None, :],
        (pooled_grad.shape[0], lookups, pooled_grad.shape[1]),
    )


def coalesce_gradients(
    positions: np.ndarray, grads: np.ndarray, num_unique: int
) -> np.ndarray:
    """Sum the gradients of lookups that share a row (Figure 2(b), middle).

    Coalescing is keyed by position: ``positions[i]`` is the index of
    lookup ``i``'s row in the batch's sorted unique IDs.  Finding those
    positions is the unique step, and it belongs to Plan.

    Row ``p`` of the result is ``0 + g[i0] + g[i1] + ...`` over the lookups
    at ``p`` in lookup order.  That is bit for bit what zeros plus
    ``np.add.at(out, positions, grads)`` gives, signed zeros included.
    Most rows have one lookup: those are one row gather plus ``0``.  Only
    the lookups of repeated rows go through an ``np.add.at``, on the
    flattened output, where numpy's 1-D fast path applies.

    Args:
        positions: int array ``(n,)`` of positions in ``[0, num_unique)``.
        grads: float array ``(n, dim)`` of per-lookup gradients.
        num_unique: Rows in the result.

    Returns:
        ``(num_unique, dim)`` coalesced gradients, ``grads.dtype``.
    """
    positions = np.asarray(positions, dtype=np.intp).reshape(-1)
    if grads.shape[0] != positions.shape[0]:
        raise ModelShapeError(
            f"positions ({positions.shape[0]}) and grads ({grads.shape[0]}) "
            "length mismatch"
        )
    counts = np.bincount(positions, minlength=num_unique)
    if counts.shape != (num_unique,):
        raise ModelShapeError(f"positions must lie in [0, {num_unique})")
    dim = grads.shape[1]
    if positions.size == 0:
        return np.zeros((num_unique, dim), dtype=grads.dtype)
    # Every row first gathers the gradient of one of its lookups: for a
    # row looked up once, its only one.  ``+= 0`` turns -0.0 into +0.0, as
    # ``0 + g`` does.  Other rows restart from zero below.
    source = np.zeros(num_unique, dtype=np.intp)
    source[positions] = np.arange(positions.size)
    coalesced = np.take(grads, source, axis=0)
    coalesced += 0
    single = counts == 1
    if not single.all():
        coalesced[~single] = 0
        repeated = ~single[positions]
        flat = positions[repeated][:, None] * dim + np.arange(dim)
        np.add.at(
            coalesced.reshape(-1), flat.reshape(-1), grads[repeated].reshape(-1)
        )
    return coalesced


def sgd_scatter(
    table: np.ndarray, ids: np.ndarray, grads: np.ndarray, lr: float
) -> None:
    """Apply coalesced gradients to table rows in place (Figure 2(b), right).

    Args:
        table: float32 array ``(rows, dim)``; updated in place.
        ids: ``(k,)`` unique row IDs.
        grads: ``(k, dim)`` coalesced gradients.
        lr: SGD learning rate.
    """
    ids = np.asarray(ids).reshape(-1)
    if np.unique(ids).shape[0] != ids.shape[0]:
        raise ModelShapeError("sgd_scatter requires unique IDs; coalesce first")
    table[ids] -= lr * grads


@dataclass
class EmbeddingTable:
    """One embedding table with in-place SGD training.

    Attributes:
        weights: float32 array ``(rows, dim)``.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.weights.ndim != 2:
            raise ModelShapeError(
                f"weights must be 2-D (rows, dim), got shape {self.weights.shape}"
            )

    @classmethod
    def initialise(
        cls, rows: int, dim: int, rng: np.random.Generator, scale: float = 0.01
    ) -> "EmbeddingTable":
        """Create a table with small random normal weights."""
        weights = (scale * rng.standard_normal((rows, dim))).astype(np.float32)
        return cls(weights=weights)

    @property
    def num_rows(self) -> int:
        """Number of rows in the table."""
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        """Embedding dimension."""
        return self.weights.shape[1]

    def forward(self, ids: np.ndarray) -> np.ndarray:
        """Gather + sum-pool: ``(batch, lookups)`` IDs -> ``(batch, dim)``."""
        if ids.ndim != 2:
            raise ModelShapeError(
                f"expected (batch, lookups) ids, got shape {ids.shape}"
            )
        return sum_pool(gather_rows(self.weights, ids))

    def backward(
        self, ids: np.ndarray, pooled_grad: np.ndarray, lr: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Duplicate + coalesce + scatter for one batch.

        Args:
            ids: ``(batch, lookups)`` IDs used in :meth:`forward`.
            pooled_grad: ``(batch, dim)`` gradient of the pooled output.
            lr: SGD learning rate.

        Returns:
            ``(unique_ids, coalesced_grads)`` — useful to callers that track
            which rows were touched (e.g. cache writeback bookkeeping).
        """
        duplicated = duplicate_gradients(pooled_grad, ids.shape[1])
        unique_ids, positions = np.unique(ids.reshape(-1), return_inverse=True)
        coalesced = coalesce_gradients(
            positions, duplicated.reshape(-1, pooled_grad.shape[1]), unique_ids.size
        )
        sgd_scatter(self.weights, unique_ids, coalesced, lr)
        return unique_ids, coalesced


def initialise_tables(
    config: ModelConfig, rng: np.random.Generator, scale: float = 0.01
) -> List[EmbeddingTable]:
    """Create all of a model's embedding tables."""
    return [
        EmbeddingTable.initialise(
            config.rows_per_table, config.embedding_dim, rng, scale
        )
        for _ in range(config.num_tables)
    ]


def tables_allclose(
    left: Sequence[EmbeddingTable],
    right: Sequence[EmbeddingTable],
    atol: float = 0.0,
) -> bool:
    """True when two sets of tables hold (near-)identical weights."""
    if len(left) != len(right):
        return False
    return all(
        np.allclose(a.weights, b.weights, atol=atol, rtol=0.0)
        for a, b in zip(left, right)
    )
