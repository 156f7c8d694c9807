"""Position-keyed gradient coalescing against its ID-keyed oracle.

``coalesce_gradients`` must equal :func:`repro.testing.oracles.
unique_add_at_coalesce` (``np.unique`` + a 2-D ``np.add.at`` into zeros) bit
for bit, so the comparisons below are on the integer views of the floats:
``-0.0`` and ``+0.0`` count as different.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ModelShapeError
from repro.model.embedding import coalesce_gradients
from repro.testing.oracles import unique_add_at_coalesce

BITS = {np.dtype(np.float32): np.int32, np.dtype(np.float64): np.int64}


def assert_bits_equal(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    bits = BITS[actual.dtype]
    assert np.array_equal(actual.view(bits), expected.view(bits))


def coalesce_by_position(ids, grads):
    unique_ids, positions = np.unique(np.asarray(ids).reshape(-1),
                                      return_inverse=True)
    return unique_ids, coalesce_gradients(positions, grads, unique_ids.size)


@st.composite
def lookups(draw):
    """``(ids, grads)`` with a drawn repeat pattern, dtype and size."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n = draw(st.integers(0, 48))
    dim = draw(st.integers(1, 5))
    pattern = draw(st.sampled_from(["heavy", "singletons", "one_id", "mixed"]))
    if pattern == "heavy":
        ids = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 3)))
    elif pattern == "singletons":
        ids = draw(st.permutations(range(0, 3 * n, 3)))
        ids = np.asarray(ids, dtype=np.int64)
    elif pattern == "one_id":
        ids = np.full(n, draw(st.integers(0, 1000)), dtype=np.int64)
    else:
        ids = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 2 * n + 1)))
    width = 32 if dtype is np.float32 else 64
    values = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0]),
        st.floats(-1e6, 1e6, width=width),
    )
    grads = draw(hnp.arrays(dtype, (n, dim), elements=values))
    return ids, grads


class TestMatchesOracle:
    @given(case=lookups())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical(self, case):
        ids, grads = case
        unique_ids, coalesced = coalesce_by_position(ids, grads)
        expected_ids, expected = unique_add_at_coalesce(ids, grads)
        assert np.array_equal(unique_ids, expected_ids)
        assert_bits_equal(coalesced, expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_signed_zeros(self, dtype):
        # A lone -0.0 becomes 0 + -0.0 = +0.0; so does a repeated one.
        ids = np.array([5, 1, 1, 7, 7])
        grads = np.array(
            [[-0.0, 2.0], [-0.0, -0.0], [-0.0, 0.0], [-0.0, -1.0], [1.0, 1.0]],
            dtype=dtype,
        )
        _, coalesced = coalesce_by_position(ids, grads)
        _, expected = unique_add_at_coalesce(ids, grads)
        assert_bits_equal(coalesced, expected)
        assert not np.signbit(coalesced[:, 0]).any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_empty(self, dtype):
        grads = np.zeros((0, 3), dtype=dtype)
        coalesced = coalesce_gradients(np.zeros(0, dtype=np.int64), grads, 0)
        _, expected = unique_add_at_coalesce(np.zeros(0, dtype=np.int64), grads)
        assert_bits_equal(coalesced, expected)

    def test_rows_nobody_looks_up_are_zero(self):
        grads = np.array([[-1.0, 2.0], [3.0, -0.0], [1.0, 1.0]], np.float32)
        coalesced = coalesce_gradients(np.array([3, 0, 3]), grads, 5)
        expected = np.array(
            [[3.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 3.0], [0.0, 0.0]],
            np.float32,
        )
        assert_bits_equal(coalesced, expected)

    def test_position_beyond_num_unique_rejected(self):
        with pytest.raises(ModelShapeError):
            coalesce_gradients(np.array([0, 3]), np.zeros((2, 2), np.float32), 3)
