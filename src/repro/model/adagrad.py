"""Adagrad optimiser with row-wise sparse state for embedding tables.

Production DLRM training commonly pairs SGD on the dense parameters with
(row-wise) Adagrad on the embeddings.  The paper evaluates plain SGD; this
module is provided as the natural extension for users reproducing
production-style runs on the *reference* (single-memory-space) model.

Caveat for cached systems: Adagrad keeps a per-row accumulator that must
migrate together with the row between CPU table and GPU scratchpad.  The
functional cached trainers in this repository implement SGD only (as the
paper does); co-locating optimiser state in the scratchpad is listed as
follow-up work in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.errors import ModelShapeError, ModelStateError, OptimizerConfigError
from repro.model.embedding import EmbeddingTable
from repro.model.mlp import MLP


@dataclass
class SparseAdagrad:
    """Row-wise Adagrad for one embedding table.

    Maintains one accumulator per row (the mean squared gradient of the
    row), as in the DLRM reference's ``RowWiseAdagrad``.

    Attributes:
        state_dtype: Accumulator precision.  Defaults to float64; the
            scratchpad-resident variant stores the accumulator as a float32
            column alongside the row (``systems.adagrad_scratchpipe``), so
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
        row_norm_sq = (grads.astype(self.state_dtype) ** 2).mean(axis=1)
        self._state[unique_ids] += row_norm_sq
        scale = (
            np.array(self.lr, dtype=self.state_dtype)
            / (np.sqrt(self._state[unique_ids]) + self.eps)
        )
        weights[unique_ids] -= (scale[:, None] * grads).astype(weights.dtype)

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
