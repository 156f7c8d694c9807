"""Model configuration for the DLRM-style RecSys used throughout the repo.

The default configuration reproduces the paper's baseline model
(Section V, Benchmarks): eight embedding tables, ten million 128-dimensional
entries each (40 GB total), 20 gathers per table, batch size 2048, with MLP
shapes taken from the MLPerf DLRM reference the paper cites.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple
from repro.errors import ModelConfigError

#: Bytes per embedding element (FP32, as in the paper's 4-byte math).
ELEMENT_BYTES = 4

#: Largest table a config may describe: sparse IDs are stored as int32
#: (``repro.data.trace.SPARSE_ID_DTYPE``), so a larger row universe would
#: wrap silently in every trace source.
MAX_ROWS_PER_TABLE = 2**31 - 1


@dataclass(frozen=True)
class ModelConfig:
    """Shape of the RecSys model and its per-iteration workload.

    Attributes:
        num_tables: Number of embedding tables.
        rows_per_table: Entries per embedding table.
        embedding_dim: Embedding vector dimension.
        lookups_per_table: Sparse IDs gathered per table per sample
            ("number of embedding gathers" in the paper).
        batch_size: Mini-batch size.
        num_dense_features: Continuous input features fed to the bottom MLP.
        bottom_mlp: Hidden sizes of the bottom MLP; the final size must equal
            ``embedding_dim`` so its output can join the feature interaction.
        top_mlp: Hidden sizes of the top MLP; the final size must be 1
            (CTR logit).
    """

    num_tables: int = 8
    rows_per_table: int = 10_000_000
    embedding_dim: int = 128
    lookups_per_table: int = 20
    batch_size: int = 2048
    num_dense_features: int = 13
    bottom_mlp: Tuple[int, ...] = (512, 256, 128)
    top_mlp: Tuple[int, ...] = (1024, 1024, 512, 256, 1)

    def __post_init__(self) -> None:
        if self.num_tables < 1:
            raise ModelConfigError(f"num_tables must be >= 1, got {self.num_tables}")
        if not 1 <= self.rows_per_table <= MAX_ROWS_PER_TABLE:
            raise ModelConfigError(
                f"rows_per_table must be in [1, {MAX_ROWS_PER_TABLE}] "
                f"(int32 sparse IDs), got {self.rows_per_table}"
            )
        if self.embedding_dim < 1:
            raise ModelConfigError(
                f"embedding_dim must be >= 1, got {self.embedding_dim}"
            )
        if self.lookups_per_table < 1:
            raise ModelConfigError(
                f"lookups_per_table must be >= 1, got {self.lookups_per_table}"
            )
        if self.batch_size < 1:
            raise ModelConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.bottom_mlp:
            raise ModelConfigError("bottom_mlp must have at least one layer")
        if not self.top_mlp:
            raise ModelConfigError("top_mlp must have at least one layer")
        if self.bottom_mlp[-1] != self.embedding_dim:
            raise ModelConfigError(
                "bottom_mlp must end with embedding_dim "
                f"({self.embedding_dim}), got {self.bottom_mlp[-1]}"
            )
        if self.top_mlp[-1] != 1:
            raise ModelConfigError(
                f"top_mlp must end with a single logit, got {self.top_mlp[-1]}"
            )

    # ------------------------------------------------------------------
    # Derived sizes
    # ------------------------------------------------------------------
    @property
    def row_bytes(self) -> int:
        """Bytes of one embedding row."""
        return self.embedding_dim * ELEMENT_BYTES

    @property
    def table_bytes(self) -> int:
        """Bytes of one embedding table."""
        return self.rows_per_table * self.row_bytes

    @property
    def model_bytes(self) -> int:
        """Bytes of all embedding tables (the paper's "model size")."""
        return self.num_tables * self.table_bytes

    @property
    def lookups_per_batch(self) -> int:
        """Total embedding gathers issued per iteration across all tables."""
        return self.num_tables * self.lookups_per_table * self.batch_size

    @property
    def reduced_bytes_per_batch(self) -> int:
        """Bytes of the per-table reduced embedding output per iteration."""
        return self.num_tables * self.batch_size * self.row_bytes

    @property
    def interaction_inputs(self) -> int:
        """Vectors entering the feature interaction (tables + bottom MLP)."""
        return self.num_tables + 1

    @property
    def interaction_features(self) -> int:
        """Width of the feature-interaction output fed to the top MLP.

        DLRM's dot interaction emits the strictly-lower-triangular pairwise
        dot products concatenated with the bottom-MLP output.
        """
        n = self.interaction_inputs
        return n * (n - 1) // 2 + self.embedding_dim

    def top_mlp_input_features(self) -> int:
        """Input width of the first top-MLP layer."""
        return self.interaction_features

    def scaled(self, **overrides) -> "ModelConfig":
        """Return a copy with the given fields replaced.

        Convenience used by sensitivity sweeps (Fig. 15) and by tests that
        need laptop-scale tables.
        """
        return replace(self, **overrides)


def mlp_flops(input_features: int, hidden: Tuple[int, ...], batch: int) -> int:
    """Multiply-accumulate FLOPs of one forward pass through an MLP."""
    flops = 0
    fan_in = input_features
    for fan_out in hidden:
        flops += 2 * batch * fan_in * fan_out
        fan_in = fan_out
    return flops


def mlp_params(input_features: int, hidden: Tuple[int, ...]) -> int:
    """Parameter count (weights + biases) of an MLP."""
    params = 0
    fan_in = input_features
    for fan_out in hidden:
        params += fan_in * fan_out + fan_out
        fan_in = fan_out
    return params


def dense_parameter_bytes(config: "ModelConfig") -> int:
    """Bytes of all dense (MLP) parameters — the all-reduce payload of a
    data-parallel multi-GPU system (Table I's 8-GPU baseline)."""
    params = mlp_params(config.num_dense_features, config.bottom_mlp)
    params += mlp_params(config.top_mlp_input_features(), config.top_mlp)
    return params * ELEMENT_BYTES


@dataclass(frozen=True)
class TinyConfigFactory:
    """Factory for laptop-scale configs used by functional tests."""

    rows_per_table: int = 1000
    embedding_dim: int = 8
    batch_size: int = 16
    lookups_per_table: int = 4
    num_tables: int = 2

    def build(self) -> ModelConfig:
        """Build a small but structurally complete :class:`ModelConfig`."""
        return ModelConfig(
            num_tables=self.num_tables,
            rows_per_table=self.rows_per_table,
            embedding_dim=self.embedding_dim,
            lookups_per_table=self.lookups_per_table,
            batch_size=self.batch_size,
            num_dense_features=4,
            bottom_mlp=(16, self.embedding_dim),
            top_mlp=(32, 16, 1),
        )


def tiny_config(**overrides) -> ModelConfig:
    """Shortcut returning a small functional-test config."""
    factory_fields = {
        k: overrides.pop(k)
        for k in list(overrides)
        if k in TinyConfigFactory.__dataclass_fields__
    }
    config = TinyConfigFactory(**factory_fields).build()
    if overrides:
        config = config.scaled(**overrides)
    return config
