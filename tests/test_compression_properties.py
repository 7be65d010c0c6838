"""Property-based tests for the compression formats."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    decode_hierarchical_cp,
    decode_operand_b,
    encode_hierarchical_cp,
    encode_operand_b,
)
from repro.sparsity import HSSPattern, sparsify


@st.composite
def sparse_vectors(draw, max_len=96):
    length = draw(st.integers(min_value=1, max_value=max_len))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    sparsity = draw(st.floats(min_value=0.0, max_value=0.95))
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.5, 1.5, size=length) * rng.choice(
        [-1.0, 1.0], size=length
    )
    values[rng.random(length) < sparsity] = 0.0
    return values


@settings(max_examples=60, deadline=None)
@given(
    sparse_vectors(),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
)
def test_operand_b_round_trip(vector, rank0, rank1, set_size):
    encoded = encode_operand_b(vector, rank0, rank1, set_size)
    np.testing.assert_allclose(decode_operand_b(encoded), vector)


@st.composite
def two_rank_patterns(draw):
    h0 = draw(st.integers(min_value=2, max_value=6))
    g0 = draw(st.integers(min_value=1, max_value=h0))
    h1 = draw(st.integers(min_value=2, max_value=6))
    g1 = draw(st.integers(min_value=1, max_value=h1))
    return HSSPattern.from_ratios((g0, h0), (g1, h1))


@settings(max_examples=60, deadline=None)
@given(sparse_vectors(), two_rank_patterns())
def test_hierarchical_cp_round_trip_after_sparsify(vector, pattern):
    """Any sparsified row survives the encode/decode round trip."""
    row = sparsify(vector, pattern)
    encoded = encode_hierarchical_cp(row, pattern)
    np.testing.assert_allclose(decode_hierarchical_cp(encoded), row)


@settings(max_examples=60, deadline=None)
@given(sparse_vectors(), two_rank_patterns())
def test_hierarchical_cp_offsets_in_range(vector, pattern):
    row = sparsify(vector, pattern)
    encoded = encode_hierarchical_cp(row, pattern)
    assert all(0 <= o < pattern.rank(0).h for o in encoded.rank0_offsets)
    assert all(
        0 <= position < pattern.rank(1).h
        for _, position in encoded.rank1_offsets
    )
