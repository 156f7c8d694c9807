"""Stochastic gradient descent for dense and sparse parameters.

The paper trains with plain SGD (Section VI: "ScratchPipe does not change
the algorithmic properties of stochastic gradient descent").  Dense
parameters (MLPs) receive full-gradient updates; embedding tables receive
sparse row-wise updates through the gradient-scatter primitive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import OptimizerConfigError
from repro.model.embedding import EmbeddingTable
from repro.model.mlp import MLP


@dataclass(frozen=True)
class SGD:
    """Plain SGD with a single global learning rate.

    Attributes:
        lr: Learning rate applied to both dense and sparse updates.
    """

    lr: float = 0.01

    def __post_init__(self) -> None:
        if self.lr <= 0:
            raise OptimizerConfigError(f"lr must be positive, got {self.lr}")

    def step_dense(self, mlp: MLP) -> None:
        """Apply cached gradients to every layer of an MLP."""
        mlp.step(self.lr)

    def step_sparse(
        self, table: EmbeddingTable, ids: np.ndarray, pooled_grad: np.ndarray
    ) -> np.ndarray:
        """Sparse update of one embedding table for one batch.

        Args:
            table: Table to update in place.
            ids: ``(batch, lookups)`` IDs gathered during forward.
            pooled_grad: ``(batch, dim)`` gradient of the pooled output.

        Returns:
            The unique row IDs that were updated.
        """
        unique_ids, _ = table.backward(ids, pooled_grad, self.lr)
        return unique_ids

    def scatter(
        self, weights: np.ndarray, unique_ids: np.ndarray, grads: np.ndarray
    ) -> None:
        """Apply already-coalesced gradients to a raw weight array in place."""
        weights[unique_ids] -= self.lr * grads

    def update_rows(self, rows: np.ndarray, grads: np.ndarray) -> np.ndarray:
        """Updated copies of scratchpad rows, given their coalesced gradients."""
        return rows - self.lr * grads
