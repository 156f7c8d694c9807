"""Tests for embedding primitives (repro.model.embedding)."""

import numpy as np
import pytest

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
from repro.model.config import tiny_config


@pytest.fixture
def rng():
    return np.random.default_rng(5)


class TestGatherAndPool:
    def test_gather_shape(self, rng):
        table = rng.standard_normal((10, 4)).astype(np.float32)
        ids = np.array([[0, 1], [2, 2]])
        assert gather_rows(table, ids).shape == (2, 2, 4)

    def test_gather_values(self, rng):
        table = rng.standard_normal((10, 4)).astype(np.float32)
        out = gather_rows(table, np.array([3, 7]))
        assert np.array_equal(out[0], table[3])
        assert np.array_equal(out[1], table[7])

    def test_sum_pool(self):
        gathered = np.arange(12, dtype=np.float32).reshape(2, 3, 2)
        pooled = sum_pool(gathered)
        assert pooled.shape == (2, 2)
        assert np.array_equal(pooled[0], gathered[0].sum(axis=0))

    def test_sum_pool_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            sum_pool(np.zeros((2, 3)))

    def test_figure2_example(self):
        # Figure 2(a): batch 0 gathers rows {0, 4}, batch 1 rows {0, 2, 5}.
        table = np.arange(12, dtype=np.float32).reshape(6, 2)
        first = gather_rows(table, np.array([0, 4])).sum(axis=0)
        second = gather_rows(table, np.array([0, 2, 5])).sum(axis=0)
        assert np.array_equal(first, table[0] + table[4])
        assert np.array_equal(second, table[0] + table[2] + table[5])


class TestDuplicate:
    def test_shape_and_values(self):
        pooled = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        dup = duplicate_gradients(pooled, lookups=3)
        assert dup.shape == (2, 3, 2)
        assert np.array_equal(dup[0, 0], pooled[0])
        assert np.array_equal(dup[1, 2], pooled[1])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            duplicate_gradients(np.zeros((2, 2)), lookups=0)
        with pytest.raises(ValueError):
            duplicate_gradients(np.zeros(3), lookups=2)


class TestCoalesce:
    def test_unique_ids_sorted(self, rng):
        ids = np.array([5, 1, 5, 3])
        grads = rng.standard_normal((4, 2)).astype(np.float32)
        unique, positions = np.unique(ids, return_inverse=True)
        out = coalesce_gradients(positions, grads, unique.size)
        assert np.array_equal(unique, [1, 3, 5])
        assert out.shape == (3, 2)

    def test_repeated_ids_summed(self):
        # Figure 2(b): E[0] looked up by both samples -> G[0]+G[1].
        ids = np.array([0, 4, 0, 2, 5])
        grads = np.ones((5, 2), dtype=np.float32)
        grads[2:] *= 2.0  # second sample's gradient
        unique, positions = np.unique(ids, return_inverse=True)
        out = coalesce_gradients(positions, grads, unique.size)
        assert np.array_equal(unique, [0, 2, 4, 5])
        assert np.array_equal(out[0], [3.0, 3.0])  # 1 + 2
        assert np.array_equal(out[2], [1.0, 1.0])

    def test_mass_conserved(self, rng):
        ids = rng.integers(0, 10, size=50)
        grads = rng.standard_normal((50, 3)).astype(np.float32)
        unique, positions = np.unique(ids, return_inverse=True)
        out = coalesce_gradients(positions, grads, unique.size)
        assert np.allclose(out.sum(axis=0), grads.sum(axis=0), atol=1e-5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            coalesce_gradients(np.array([1, 2]), np.zeros((3, 2), np.float32), 3)


class TestScatter:
    def test_updates_rows_in_place(self):
        table = np.ones((5, 2), dtype=np.float32)
        sgd_scatter(table, np.array([1, 3]), np.ones((2, 2), np.float32), lr=0.5)
        assert np.array_equal(table[1], [0.5, 0.5])
        assert np.array_equal(table[0], [1.0, 1.0])

    def test_duplicate_ids_rejected(self):
        table = np.ones((5, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="unique"):
            sgd_scatter(table, np.array([1, 1]), np.ones((2, 2), np.float32), 0.1)


class TestEmbeddingTable:
    def test_initialise_shape(self, rng):
        table = EmbeddingTable.initialise(20, 4, rng)
        assert table.num_rows == 20 and table.dim == 4
        assert table.weights.dtype == np.float32

    def test_forward_pools(self, rng):
        table = EmbeddingTable.initialise(20, 4, rng)
        ids = np.array([[0, 1], [2, 3]])
        pooled = table.forward(ids)
        expected = table.weights[ids].sum(axis=1)
        assert np.allclose(pooled, expected)

    def test_forward_rejects_flat_ids(self, rng):
        table = EmbeddingTable.initialise(20, 4, rng)
        with pytest.raises(ValueError):
            table.forward(np.array([1, 2, 3]))

    def test_backward_applies_sgd(self, rng):
        table = EmbeddingTable.initialise(20, 4, rng)
        before = table.weights.copy()
        ids = np.array([[0, 1], [1, 2]])
        grad = np.ones((2, 4), dtype=np.float32)
        unique, coalesced = table.backward(ids, grad, lr=0.1)
        assert np.array_equal(unique, [0, 1, 2])
        # Row 1 appears twice -> gradient 2.0 per element.
        assert np.allclose(table.weights[1], before[1] - 0.1 * 2.0)
        assert np.allclose(table.weights[0], before[0] - 0.1 * 1.0)
        assert np.allclose(coalesced[1], 2.0)

    def test_backward_matches_autodiff_semantics(self, rng):
        # Loss = sum(pooled * g): d(loss)/d(row r) = g * count(r in sample).
        table = EmbeddingTable.initialise(10, 3, rng)
        before = table.weights.copy()
        ids = np.array([[4, 4, 4]])
        grad = np.full((1, 3), 2.0, dtype=np.float32)
        table.backward(ids, grad, lr=1.0)
        assert np.allclose(table.weights[4], before[4] - 3 * 2.0)


class TestHelpers:
    def test_initialise_tables(self, rng):
        cfg = tiny_config(rows_per_table=10)
        tables = initialise_tables(cfg, rng)
        assert len(tables) == cfg.num_tables
        assert all(t.num_rows == 10 for t in tables)

    def test_tables_allclose(self, rng):
        cfg = tiny_config(rows_per_table=10)
        a = initialise_tables(cfg, np.random.default_rng(0))
        b = initialise_tables(cfg, np.random.default_rng(0))
        c = initialise_tables(cfg, np.random.default_rng(1))
        assert tables_allclose(a, b)
        assert not tables_allclose(a, c)
        assert not tables_allclose(a, a[:1])
