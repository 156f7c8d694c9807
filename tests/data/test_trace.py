"""Tests for trace generation (repro.data.trace)."""

import sys
import threading

import numpy as np
import pytest

from repro.data.distributions import UniformDistribution
from repro.data.trace import MaterialisedDataset, MiniBatch, SyntheticDataset, make_dataset
from repro.model.config import tiny_config


@pytest.fixture
def cfg():
    return tiny_config(rows_per_table=200, batch_size=4, lookups_per_table=3,
                       num_tables=2)


@pytest.fixture
def dataset(cfg):
    return make_dataset(cfg, "medium", seed=3, num_batches=8)


class TestMiniBatch:
    def test_sparse_shape(self, dataset, cfg):
        batch = dataset.batch(0)
        assert batch.sparse_ids.shape == (
            cfg.num_tables, cfg.batch_size, cfg.lookups_per_table
        )

    def test_table_ids_flattening(self, dataset, cfg):
        batch = dataset.batch(0)
        flat = batch.table_ids(1)
        assert flat.shape == (cfg.batch_size * cfg.lookups_per_table,)
        assert np.array_equal(flat, batch.sparse_ids[1].reshape(-1))

    def test_unique_ids_sorted(self, dataset):
        unique = dataset.batch(0).unique_table_ids(0)
        assert np.all(np.diff(unique) > 0)

    def test_id_only_batch_has_no_dense(self, dataset):
        batch = dataset.batch(0)
        assert batch.dense is None and batch.labels is None

    def test_concurrent_first_calls_keep_every_table_cached(self):
        # Plan threads ask one fresh batch for distinct tables at once; the
        # array each thread gets must be the one the batch keeps, or the
        # next use of that table's IDs re-runs np.unique.
        num_tables = 8
        rng = np.random.default_rng(5)
        batches = [
            MiniBatch(index=i, sparse_ids=rng.integers(0, 50, (num_tables, 4, 2)))
            for i in range(300)
        ]
        barrier = threading.Barrier(num_tables, timeout=30)
        got = [[None] * num_tables for _ in batches]

        def first_calls(table):
            for index, batch in enumerate(batches):
                barrier.wait()
                got[index][table] = batch.unique_table_ids(table)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=first_calls, args=(table,))
                for table in range(num_tables)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for index, batch in enumerate(batches):
            for table in range(num_tables):
                assert got[index][table] is not None
                assert batch.unique_table_ids(table) is got[index][table], (
                    f"batch {index} table {table}"
                )


class TestSyntheticDataset:
    def test_deterministic_random_access(self, dataset):
        a = dataset.batch(5)
        b = dataset.batch(5)
        assert np.array_equal(a.sparse_ids, b.sparse_ids)

    def test_different_batches_differ(self, dataset):
        a = dataset.batch(0)
        b = dataset.batch(1)
        assert not np.array_equal(a.sparse_ids, b.sparse_ids)

    def test_different_seeds_differ(self, cfg):
        d1 = make_dataset(cfg, "medium", seed=1, num_batches=2)
        d2 = make_dataset(cfg, "medium", seed=2, num_batches=2)
        assert not np.array_equal(d1.batch(0).sparse_ids, d2.batch(0).sparse_ids)

    def test_out_of_range_index(self, dataset):
        with pytest.raises(IndexError):
            dataset.batch(len(dataset))
        with pytest.raises(IndexError):
            dataset.batch(-1)

    def test_iteration_order(self, dataset):
        indices = [b.index for b in dataset]
        assert indices == list(range(len(dataset)))

    def test_with_dense_generates_features(self, cfg):
        ds = make_dataset(cfg, "low", num_batches=2, with_dense=True)
        batch = ds.batch(0)
        assert batch.dense.shape == (cfg.batch_size, cfg.num_dense_features)
        assert batch.labels.shape == (cfg.batch_size,)
        assert set(np.unique(batch.labels)).issubset({0.0, 1.0})

    def test_ids_within_table(self, dataset, cfg):
        for batch in dataset:
            assert batch.sparse_ids.min() >= 0
            assert batch.sparse_ids.max() < cfg.rows_per_table

    def test_distribution_row_mismatch_rejected(self, cfg):
        wrong = UniformDistribution(num_rows=cfg.rows_per_table + 1)
        with pytest.raises(ValueError, match="rows_per_table"):
            SyntheticDataset(config=cfg, distributions=(wrong,), num_batches=2)

    def test_distribution_count_validated(self, cfg):
        dists = tuple(
            UniformDistribution(num_rows=cfg.rows_per_table) for _ in range(3)
        )
        with pytest.raises(ValueError, match="length 1 or num_tables"):
            SyntheticDataset(config=cfg, distributions=dists, num_batches=2)

    def test_per_table_distributions(self, cfg):
        dists = tuple(
            UniformDistribution(num_rows=cfg.rows_per_table)
            for _ in range(cfg.num_tables)
        )
        ds = SyntheticDataset(config=cfg, distributions=dists, num_batches=2)
        assert ds.batch(0).sparse_ids.shape[0] == cfg.num_tables


class TestMaterialisedDataset:
    def test_matches_source(self, dataset):
        mat = MaterialisedDataset(dataset, num_batches=4)
        assert len(mat) == 4
        for i in range(4):
            assert np.array_equal(mat.batch(i).sparse_ids,
                                  dataset.batch(i).sparse_ids)

    def test_default_full_length(self, dataset):
        assert len(MaterialisedDataset(dataset)) == len(dataset)

    def test_invalid_length_rejected(self, dataset):
        with pytest.raises(ValueError):
            MaterialisedDataset(dataset, num_batches=0)
        with pytest.raises(ValueError):
            MaterialisedDataset(dataset, num_batches=len(dataset) + 1)

    def test_iteration(self, dataset):
        mat = MaterialisedDataset(dataset, num_batches=3)
        assert [b.index for b in mat] == [0, 1, 2]
