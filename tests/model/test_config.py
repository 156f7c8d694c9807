"""Tests for model configuration (repro.model.config)."""

import pytest

from repro.errors import ModelConfigError
from repro.model.config import (
    ELEMENT_BYTES,
    MAX_ROWS_PER_TABLE,
    ModelConfig,
    dense_parameter_bytes,
    mlp_flops,
    mlp_params,
    tiny_config,
)


class TestDefaults:
    def test_paper_model_size(self):
        # Section V: 8 tables x 10M entries x 128-dim = ~40 GB.
        cfg = ModelConfig()
        assert cfg.model_bytes == 8 * 10_000_000 * 128 * 4
        assert 40e9 < cfg.model_bytes < 42e9

    def test_paper_lookup_volume(self):
        cfg = ModelConfig()
        assert cfg.lookups_per_batch == 8 * 20 * 2048

    def test_row_bytes(self):
        cfg = ModelConfig()
        assert cfg.row_bytes == 128 * ELEMENT_BYTES

    def test_interaction_features(self):
        cfg = ModelConfig()
        n = cfg.num_tables + 1
        assert cfg.interaction_features == n * (n - 1) // 2 + cfg.embedding_dim

    def test_reduced_bytes(self):
        cfg = ModelConfig()
        assert cfg.reduced_bytes_per_batch == 8 * 2048 * 128 * 4


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_tables", 0),
            ("rows_per_table", 0),
            ("embedding_dim", 0),
            ("lookups_per_table", 0),
            ("batch_size", 0),
        ],
    )
    def test_positive_fields(self, field, value):
        with pytest.raises(ValueError):
            ModelConfig(**{field: value})

    def test_row_universe_beyond_int32_rejected(self):
        # Sparse IDs are stored as int32, so a 2**31-row table would wrap
        # silently in every trace source: the config refuses it at
        # construction, before any trace is generated.
        assert MAX_ROWS_PER_TABLE == 2**31 - 1
        with pytest.raises(ModelConfigError, match="int32"):
            ModelConfig(rows_per_table=2**31)
        with pytest.raises(ModelConfigError, match="int32"):
            tiny_config().scaled(rows_per_table=2**31)
        assert ModelConfig(rows_per_table=2**31 - 1).rows_per_table == 2**31 - 1

    def test_bottom_mlp_must_end_at_dim(self):
        with pytest.raises(ValueError, match="bottom_mlp must end"):
            ModelConfig(bottom_mlp=(512, 64))

    def test_top_mlp_must_end_at_one(self):
        with pytest.raises(ValueError, match="single logit"):
            ModelConfig(top_mlp=(64, 2))

    def test_empty_mlps_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(bottom_mlp=())


class TestScaled:
    def test_scaled_override(self):
        cfg = ModelConfig().scaled(batch_size=512)
        assert cfg.batch_size == 512
        assert cfg.num_tables == 8

    def test_scaled_revalidates(self):
        with pytest.raises(ValueError):
            ModelConfig().scaled(batch_size=-1)


class TestTinyConfig:
    def test_structurally_valid(self):
        cfg = tiny_config()
        assert cfg.bottom_mlp[-1] == cfg.embedding_dim
        assert cfg.top_mlp[-1] == 1

    def test_factory_overrides(self):
        cfg = tiny_config(rows_per_table=50, batch_size=2)
        assert cfg.rows_per_table == 50
        assert cfg.batch_size == 2

    def test_model_config_overrides(self):
        cfg = tiny_config(num_dense_features=7)
        assert cfg.num_dense_features == 7


class TestMlpHelpers:
    def test_mlp_flops_single_layer(self):
        assert mlp_flops(10, (5,), 2) == 2 * 2 * 10 * 5

    def test_mlp_flops_stacked(self):
        assert mlp_flops(4, (3, 2), 1) == 2 * (4 * 3) + 2 * (3 * 2)

    def test_mlp_params(self):
        assert mlp_params(4, (3, 2)) == (4 * 3 + 3) + (3 * 2 + 2)

    def test_dense_parameter_bytes_positive(self):
        assert dense_parameter_bytes(ModelConfig()) > 1_000_000
