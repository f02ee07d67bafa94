"""Unit and property-based tests for the semi-tensor product."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stp import (
    bool_to_vector,
    kron_chain,
    left_semi_tensor_power,
    semi_tensor_product,
    stp_chain,
)


def _random_matrix(draw, max_dim=4):
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    values = draw(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=rows * cols, max_size=rows * cols)
    )
    return np.array(values).reshape(rows, cols)


@st.composite
def small_matrices(draw):
    return _random_matrix(draw)


class TestBasicProduct:
    def test_matches_ordinary_product_when_dimensions_agree(self):
        a = np.array([[1, 2], [3, 4]])
        b = np.array([[5, 6], [7, 8]])
        assert np.array_equal(semi_tensor_product(a, b), a @ b)

    def test_vector_and_scalar_coercion(self):
        vector = np.array([1, 2])
        result = semi_tensor_product(np.array([[1, 0], [0, 1]]), vector)
        assert result.shape == (2, 1)
        scalar = semi_tensor_product(np.array(3), np.array(4))
        assert scalar.item() == 12

    def test_dimension_mismatch_uses_kronecker_lift(self):
        a = np.array([[1, 2, 3, 4]])          # 1 x 4
        b = np.array([[1], [2]])              # 2 x 1
        # t = lcm(4, 2) = 4: A (1x4) . (B kron I2) (4x2)
        expected = a @ np.kron(b, np.eye(2, dtype=int))
        assert np.array_equal(semi_tensor_product(a, b), expected)

    def test_rejects_three_dimensional_input(self):
        with pytest.raises(ValueError):
            semi_tensor_product(np.zeros((2, 2, 2)), np.zeros((2, 2)))

    def test_chain_requires_at_least_one_factor(self):
        with pytest.raises(ValueError):
            stp_chain([])
        with pytest.raises(ValueError):
            kron_chain([])

    def test_left_power(self):
        x = bool_to_vector(True)
        powered = left_semi_tensor_power(x, 3)
        assert powered.shape == (8, 1)
        assert powered.ravel().tolist() == [1, 0, 0, 0, 0, 0, 0, 0]
        with pytest.raises(ValueError):
            left_semi_tensor_power(x, 0)


class TestAlgebraicProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_matrices(), small_matrices(), small_matrices())
    def test_associativity(self, a, b, c):
        left = semi_tensor_product(semi_tensor_product(a, b), c)
        right = semi_tensor_product(a, semi_tensor_product(b, c))
        assert left.shape == right.shape
        assert np.array_equal(left, right)

    @settings(max_examples=60, deadline=None)
    @given(small_matrices(), small_matrices())
    def test_distributes_over_addition_same_shape(self, a, b):
        c = np.ones_like(b)
        left = semi_tensor_product(a, b + c)
        right = semi_tensor_product(a, b) + semi_tensor_product(a, c)
        assert np.array_equal(left, right)

    @settings(max_examples=60, deadline=None)
    @given(small_matrices())
    def test_identity_is_neutral(self, a):
        assert np.array_equal(semi_tensor_product(a, np.eye(a.shape[1], dtype=a.dtype)), a)
        assert np.array_equal(semi_tensor_product(np.eye(a.shape[0], dtype=a.dtype), a), a)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=6))
    def test_stp_of_logic_vectors_is_one_hot(self, bits):
        vectors = [bool_to_vector(bit) for bit in bits]
        result = stp_chain(vectors)
        assert result.shape == (1 << len(bits), 1)
        assert result.sum() == 1
        # The hot position encodes the bits with the first factor as MSB,
        # True mapping to 0 and False to 1.
        index = int(np.argmax(result.ravel()))
        expected = 0
        for bit in bits:
            expected = (expected << 1) | (0 if bit else 1)
        assert index == expected

    def test_chain_equals_kron_for_column_vectors(self):
        vectors = [bool_to_vector(b) for b in (True, False, True)]
        assert np.array_equal(stp_chain(vectors), kron_chain(vectors))


def test_structural_matrix_chain_reads_the_truth_table():
    """Six STPs of a 6-input LUT's structural matrix with logic vectors
    select its value: the first factor is the top input."""
    from repro.truthtable import TruthTable, truth_table_to_structural_matrix

    table = TruthTable(6, 0x123456789ABCDEF0)
    matrix = truth_table_to_structural_matrix(table)
    for assignment in range(64):
        result = matrix
        for variable in reversed(range(6)):
            result = semi_tensor_product(result, bool_to_vector(bool(assignment >> variable & 1)))
        assert np.array_equal(result, bool_to_vector(table.value_at(assignment))), assignment
