"""Numpy DLRM substrate: embeddings, MLPs, interaction, loss, optimiser."""

from repro.model.adagrad import (
    AdagradOptimizer,
    DenseAdagrad,
    SparseAdagrad,
    augment_tables,
    split_tables,
)
from repro.model.checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint
from repro.model.config import ELEMENT_BYTES, ModelConfig, mlp_flops, tiny_config
from repro.model.dlrm import DLRMModel, DenseNetwork
from repro.model.embedding import (
    EmbeddingTable,
    coalesce_gradients,
    duplicate_gradients,
    gather_rows,
    initialise_tables,
    sgd_scatter,
    sum_pool,
    tables_allclose,
)
from repro.model.interaction import DotInteraction, interaction_output_features
from repro.model.loss import bce_with_logits, bce_with_logits_grad, sigmoid
from repro.model.mlp import MLP, LinearLayer
from repro.model.optimizer import SGD

__all__ = [
    "AdagradOptimizer",
    "DenseAdagrad",
    "SparseAdagrad",
    "augment_tables",
    "split_tables",
    "checkpoint_bytes",
    "load_checkpoint",
    "save_checkpoint",
    "ELEMENT_BYTES",
    "ModelConfig",
    "mlp_flops",
    "tiny_config",
    "DLRMModel",
    "DenseNetwork",
    "EmbeddingTable",
    "coalesce_gradients",
    "duplicate_gradients",
    "gather_rows",
    "initialise_tables",
    "sgd_scatter",
    "sum_pool",
    "tables_allclose",
    "DotInteraction",
    "interaction_output_features",
    "bce_with_logits",
    "bce_with_logits_grad",
    "sigmoid",
    "MLP",
    "LinearLayer",
    "SGD",
]
