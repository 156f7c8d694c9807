"""Round-trip tests for trace persistence (repro.data.io).

A trace written with :func:`compile_trace` and read back through
:class:`CompiledTraceSource` must reproduce the batches, the dense
features and the geometry it was written with.
"""

import numpy as np
import pytest

from repro.data.io import CompiledTraceSource, compile_trace
from repro.data.trace import make_dataset
from repro.model.config import tiny_config


@pytest.fixture
def cfg():
    return tiny_config(rows_per_table=100, batch_size=4, lookups_per_table=2,
                       num_tables=2)


class TestRoundTrip:
    def test_id_only_round_trip(self, cfg, tmp_path):
        dataset = make_dataset(cfg, "medium", seed=3, num_batches=5)
        batches = [dataset.batch(i) for i in range(5)]
        path = compile_trace(dataset, tmp_path / "trace.rtrc")
        loaded = CompiledTraceSource(path)
        assert len(loaded) == 5
        for i in range(5):
            assert np.array_equal(loaded.batch(i).sparse_ids,
                                  batches[i].sparse_ids)
            assert loaded.batch(i).dense is None

    def test_dense_round_trip(self, cfg, tmp_path):
        dataset = make_dataset(cfg, "medium", seed=3, num_batches=3,
                               with_dense=True)
        batches = [dataset.batch(i) for i in range(3)]
        path = compile_trace(dataset, tmp_path / "trace.rtrc")
        loaded = CompiledTraceSource(path)
        for i in range(3):
            assert np.array_equal(loaded.batch(i).dense, batches[i].dense)
            assert np.array_equal(loaded.batch(i).labels, batches[i].labels)

    def test_geometry_metadata(self, cfg, tmp_path):
        dataset = make_dataset(cfg, "low", seed=1, num_batches=2)
        path = compile_trace(dataset, tmp_path / "trace.rtrc")
        loaded = CompiledTraceSource(path)
        assert loaded.num_tables == cfg.num_tables
        assert loaded.batch_size == cfg.batch_size
        loaded.validate_against(cfg)  # must not raise

    def test_validate_against_mismatch(self, cfg, tmp_path):
        dataset = make_dataset(cfg, "low", seed=1, num_batches=1)
        path = compile_trace(dataset, tmp_path / "trace.rtrc")
        loaded = CompiledTraceSource(path)
        other = cfg.scaled(batch_size=cfg.batch_size * 2)
        with pytest.raises(ValueError, match="batch_size"):
            loaded.validate_against(other)
