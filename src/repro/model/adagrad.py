"""Adagrad optimiser with row-wise sparse state for embedding tables.

Production DLRM training commonly pairs SGD on the dense parameters with
(row-wise) Adagrad on the embeddings.  The paper evaluates plain SGD; this
module is the natural extension for production-style runs.

On the reference (single-memory-space) model, :class:`SparseAdagrad` keeps
each table's accumulators in their own array.  Under a cached system the
per-row accumulator must migrate together with the row between the CPU
table and the GPU scratchpad, or post-eviction updates would restart it.
:func:`augment_tables` therefore co-locates it: every row gains one
float32 accumulator column, which Collect, Insert and write-back carry like
any other column, and :meth:`AdagradOptimizer.update_rows` updates both
halves in the [Train] stage.  :func:`rowwise_adagrad` is the one copy of
the arithmetic both paths run, so a cached run with
``AdagradOptimizer(state_dtype=np.float32)`` is bit-identical to the
sequential reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ModelShapeError, ModelStateError, OptimizerConfigError
from repro.model.embedding import EmbeddingTable
from repro.model.mlp import MLP


def rowwise_adagrad(
    weights: np.ndarray,
    accumulator: np.ndarray,
    grads: np.ndarray,
    lr: float,
    eps: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """One row-wise Adagrad step: ``(new_weights, new_accumulator)``.

    Each row's accumulator grows by the mean squared gradient of the row,
    and the row moves by ``lr / (sqrt(accumulator) + eps)`` times its
    gradient.  The accumulator's dtype is the state precision.

    Args:
        weights: ``(n, dim)`` rows to update.
        accumulator: ``(n,)`` state of those rows.
        grads: ``(n, dim)`` coalesced gradients of those rows.
        lr: Learning rate.
        eps: Denominator guard.
    """
    dtype = accumulator.dtype
    accumulator = accumulator + (grads.astype(dtype) ** 2).mean(axis=1)
    scale = np.array(lr, dtype=dtype) / (np.sqrt(accumulator) + eps)
    return weights - (scale[:, None] * grads).astype(weights.dtype), accumulator


def augment_tables(tables: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Append a zeroed float32 accumulator column to each weight table."""
    out = []
    for table in tables:
        if table.ndim != 2:
            raise ModelShapeError(f"expected (rows, dim) table, got {table.shape}")
        aux = np.zeros((table.shape[0], 1), dtype=np.float32)
        out.append(np.concatenate([table.astype(np.float32), aux], axis=1))
    return out


def split_tables(
    augmented: Sequence[np.ndarray],
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Split augmented tables back into ``(weights, accumulators)``."""
    weights = [t[:, :-1].copy() for t in augmented]
    accumulators = [t[:, -1].copy() for t in augmented]
    return weights, accumulators


@dataclass
class SparseAdagrad:
    """Row-wise Adagrad for one embedding table.

    Maintains one accumulator per row (the mean squared gradient of the
    row), as in the DLRM reference's ``RowWiseAdagrad``.

    Attributes:
        state_dtype: Accumulator precision.  Defaults to float64; the
            scratchpad-resident variant stores the accumulator as a float32
            column alongside the row (:func:`augment_tables`), so
            equivalence tests pass ``np.float32`` to make the reference
            compute in the identical precision.
    """

    num_rows: int
    lr: float = 0.01
    eps: float = 1e-10
    state_dtype: type = np.float64
    _state: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.lr <= 0:
            raise OptimizerConfigError(f"lr must be positive, got {self.lr}")
        if self.num_rows < 1:
            raise OptimizerConfigError(f"num_rows must be >= 1, got {self.num_rows}")
        self._state = np.zeros(self.num_rows, dtype=self.state_dtype)

    def update(
        self, weights: np.ndarray, unique_ids: np.ndarray, grads: np.ndarray
    ) -> None:
        """Apply coalesced gradients to ``weights`` rows in place."""
        unique_ids = np.asarray(unique_ids).reshape(-1)
        if grads.shape[0] != unique_ids.shape[0]:
            raise ModelShapeError("ids/grads length mismatch")
        if unique_ids.size == 0:
            return
        weights[unique_ids], self._state[unique_ids] = rowwise_adagrad(
            weights[unique_ids], self._state[unique_ids], grads,
            self.lr, self.eps,
        )

    def accumulator(self, ids: np.ndarray) -> np.ndarray:
        """Read the per-row accumulators (for tests/inspection)."""
        return self._state[np.asarray(ids).reshape(-1)].copy()


@dataclass
class DenseAdagrad:
    """Full (element-wise) Adagrad for the MLP parameters."""

    lr: float = 0.01
    eps: float = 1e-10
    _state: Dict[int, List[np.ndarray]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.lr <= 0:
            raise OptimizerConfigError(f"lr must be positive, got {self.lr}")

    def step(self, mlp: MLP) -> None:
        """Apply the cached gradients of every layer with Adagrad scaling."""
        key = id(mlp)
        if key not in self._state:
            self._state[key] = [
                np.zeros_like(layer.weight, dtype=np.float64)
                for layer in mlp.layers
            ] + [
                np.zeros_like(layer.bias, dtype=np.float64)
                for layer in mlp.layers
            ]
        state = self._state[key]
        n = len(mlp.layers)
        for i, layer in enumerate(mlp.layers):
            if layer.grad_weight is None or layer.grad_bias is None:
                raise ModelStateError("step called before backward")
            state[i] += layer.grad_weight.astype(np.float64) ** 2
            state[n + i] += layer.grad_bias.astype(np.float64) ** 2
            layer.weight -= (
                self.lr * layer.grad_weight / (np.sqrt(state[i]) + self.eps)
            ).astype(layer.weight.dtype)
            layer.bias -= (
                self.lr * layer.grad_bias / (np.sqrt(state[n + i]) + self.eps)
            ).astype(layer.bias.dtype)
            layer.grad_weight = None
            layer.grad_bias = None


@dataclass
class AdagradOptimizer:
    """Drop-in optimiser bundle: row-wise Adagrad (sparse) + Adagrad (dense).

    Mirrors the :class:`repro.model.optimizer.SGD` interface used by
    :class:`repro.model.dlrm.DLRMModel`.
    """

    lr: float = 0.01
    eps: float = 1e-10
    state_dtype: type = np.float64
    _sparse: Dict[int, SparseAdagrad] = field(default_factory=dict, repr=False)
    _dense: DenseAdagrad = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._dense = DenseAdagrad(lr=self.lr, eps=self.eps)

    def step_dense(self, mlp: MLP) -> None:
        """Adagrad update of an MLP's cached gradients."""
        self._dense.step(mlp)

    def step_sparse(
        self, table: EmbeddingTable, ids: np.ndarray, pooled_grad: np.ndarray
    ) -> np.ndarray:
        """Row-wise Adagrad update of one table for one batch."""
        from repro.model.embedding import coalesce_gradients, duplicate_gradients

        key = id(table)
        if key not in self._sparse:
            self._sparse[key] = SparseAdagrad(
                num_rows=table.num_rows, lr=self.lr, eps=self.eps,
                state_dtype=self.state_dtype,
            )
        duplicated = duplicate_gradients(pooled_grad, ids.shape[1])
        unique_ids, positions = np.unique(ids.reshape(-1), return_inverse=True)
        grads = coalesce_gradients(
            positions, duplicated.reshape(-1, pooled_grad.shape[1]), unique_ids.size
        )
        self._sparse[key].update(table.weights, unique_ids, grads)
        return unique_ids

    def update_rows(self, rows: np.ndarray, grads: np.ndarray) -> np.ndarray:
        """Row-wise Adagrad of scratchpad rows that carry their accumulator.

        ``rows`` is ``(n, dim + 1)``, laid out by :func:`augment_tables`:
        the embedding, then its accumulator column.  Updates ``rows`` in
        place and returns it.  The column's float32 is the state precision,
        whatever :attr:`state_dtype` says.
        """
        dim = grads.shape[1]
        if rows.shape[1] != dim + 1:
            raise ModelShapeError(
                f"row-wise Adagrad needs {dim + 1}-wide rows (embedding + "
                f"accumulator, see augment_tables), got {rows.shape[1]}"
            )
        rows[:, :dim], rows[:, dim] = rowwise_adagrad(
            rows[:, :dim], rows[:, dim], grads, self.lr, self.eps
        )
        return rows
