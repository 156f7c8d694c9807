"""Tests for trace persistence (repro.data.io)."""

import numpy as np
import pytest

from repro.data.io import TraceFile, save_trace
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
        path = tmp_path / "trace.npz"
        save_trace(path, batches, cfg)
        loaded = TraceFile(path)
        assert len(loaded) == 5
        for i in range(5):
            assert np.array_equal(loaded.batch(i).sparse_ids,
                                  batches[i].sparse_ids)
            assert loaded.batch(i).dense is None

    def test_dense_round_trip(self, cfg, tmp_path):
        dataset = make_dataset(cfg, "medium", seed=3, num_batches=3,
                               with_dense=True)
        batches = [dataset.batch(i) for i in range(3)]
        path = tmp_path / "trace.npz"
        save_trace(path, batches, cfg)
        loaded = TraceFile(path)
        for i in range(3):
            assert np.array_equal(loaded.batch(i).dense, batches[i].dense)
            assert np.array_equal(loaded.batch(i).labels, batches[i].labels)

    def test_geometry_metadata(self, cfg, tmp_path):
        dataset = make_dataset(cfg, "low", seed=1, num_batches=2)
        path = tmp_path / "trace.npz"
        save_trace(path, [dataset.batch(0), dataset.batch(1)], cfg)
        loaded = TraceFile(path)
        assert loaded.num_tables == cfg.num_tables
        assert loaded.batch_size == cfg.batch_size
        loaded.validate_against(cfg)  # must not raise

    def test_validate_against_mismatch(self, cfg, tmp_path):
        dataset = make_dataset(cfg, "low", seed=1, num_batches=1)
        path = tmp_path / "trace.npz"
        save_trace(path, [dataset.batch(0)], cfg)
        loaded = TraceFile(path)
        other = cfg.scaled(batch_size=cfg.batch_size * 2)
        with pytest.raises(ValueError, match="batch_size"):
            loaded.validate_against(other)


class TestValidation:
    def test_empty_trace_rejected(self, cfg, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            save_trace(tmp_path / "t.npz", [], cfg)

    def test_mixed_dense_rejected(self, cfg, tmp_path):
        with_dense = make_dataset(cfg, "low", seed=1, num_batches=1,
                                  with_dense=True)
        without = make_dataset(cfg, "low", seed=1, num_batches=1)
        with pytest.raises(ValueError, match="dense"):
            save_trace(tmp_path / "t.npz",
                       [with_dense.batch(0), without.batch(0)], cfg)

    def test_out_of_range_batch(self, cfg, tmp_path):
        dataset = make_dataset(cfg, "low", seed=1, num_batches=1)
        path = tmp_path / "t.npz"
        save_trace(path, [dataset.batch(0)], cfg)
        loaded = TraceFile(path)
        with pytest.raises(IndexError):
            loaded.batch(1)


class TestPipelineCompatibility:
    def test_trace_file_drives_pipeline(self, cfg, tmp_path):
        """A saved trace is a drop-in dataset for the ScratchPipe pipeline."""
        from repro.core.pipeline import ScratchPipePipeline
        from repro.core.scratchpad import make_scratchpads

        dataset = make_dataset(cfg, "medium", seed=9, num_batches=8)
        path = tmp_path / "t.npz"
        save_trace(path, [dataset.batch(i) for i in range(8)], cfg)
        loaded = TraceFile(path)
        pipeline = ScratchPipePipeline(
            config=cfg,
            scratchpads=make_scratchpads(cfg, 64),
            dataset_batches=loaded,
        )
        result = pipeline.run()
        assert len(result.cache_stats) == 8
