"""Tests for GF(2^8) matrices and Gaussian elimination."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.coding.gf256 import gf_inv, gf_mul
from repro.coding.matrix import GFMatrix
from repro.coding.rs import _generator_matrix


def random_matrix(rng: random.Random, n: int) -> GFMatrix:
    return GFMatrix([[rng.randrange(256) for _ in range(n)] for _ in range(n)])


def textbook_inverse(rows):
    """Gauss–Jordan on lists of ints, one ``gf_mul`` per element.

    Same pivot order as :meth:`GFMatrix.inverse` (first nonzero entry
    at or below the diagonal), kept here as the reference for it.
    """
    n = len(rows)
    work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col]), None)
        if pivot_row is None:
            raise ValueError("matrix is singular")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        inv_pivot = gf_inv(work[col][col])
        work[col] = [gf_mul(inv_pivot, value) for value in work[col]]
        for r in range(n):
            factor = work[r][col]
            if r != col and factor:
                work[r] = [
                    value ^ gf_mul(factor, pivot_value)
                    for value, pivot_value in zip(work[r], work[col])
                ]
    return [row[n:] for row in work]


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GFMatrix([])
        with pytest.raises(ValueError):
            GFMatrix([[]])

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            GFMatrix([[1, 2], [3]])

    def test_rejects_out_of_field(self):
        with pytest.raises(ValueError):
            GFMatrix([[256]])
        with pytest.raises(ValueError):
            GFMatrix([[-1]])

    def test_identity(self):
        identity = GFMatrix.identity(3)
        assert identity.is_identity()
        assert identity.nrows == identity.ncols == 3


class TestVandermonde:
    def test_shape_and_entries(self):
        v = GFMatrix.vandermonde(4, 3)
        assert (v.nrows, v.ncols) == (4, 3)
        # Row i is [1, x_i, x_i^2] with x_i = i+1.
        assert v.row(0) == [1, 1, 1]
        assert v.row(1) == [1, 2, 4]

    def test_too_many_rows_rejected(self):
        with pytest.raises(ValueError):
            GFMatrix.vandermonde(256, 3)

    def test_any_square_submatrix_invertible(self):
        """The property the erasure code rests on."""
        v = GFMatrix.vandermonde(12, 5)
        rng = random.Random(0)
        for _ in range(20):
            rows = sorted(rng.sample(range(12), 5))
            sub = v.submatrix(rows)
            assert sub.rank() == 5
            sub.inverse()  # must not raise


class TestMultiply:
    def test_identity_neutral(self):
        rng = random.Random(1)
        m = random_matrix(rng, 4)
        assert m.multiply(GFMatrix.identity(4)) == m
        assert GFMatrix.identity(4).multiply(m) == m

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            GFMatrix.identity(2).multiply(GFMatrix.identity(3))

    def test_multiply_vector_matches_matrix(self):
        rng = random.Random(2)
        m = random_matrix(rng, 3)
        vector = [rng.randrange(256) for _ in range(3)]
        column = GFMatrix([[v] for v in vector])
        product = m.multiply(column)
        assert [product[i, 0] for i in range(3)] == m.multiply_vector(vector)

    def test_vector_length_check(self):
        with pytest.raises(ValueError):
            GFMatrix.identity(3).multiply_vector([1, 2])


class TestInverse:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=6))
    def test_inverse_roundtrip(self, seed, n):
        rng = random.Random(seed)
        while True:
            m = random_matrix(rng, n)
            if m.rank() == n:
                break
        assert m.multiply(m.inverse()).is_identity()
        assert m.inverse().multiply(m).is_identity()

    def test_singular_raises(self):
        singular = GFMatrix([[1, 2], [1, 2]])
        with pytest.raises(ValueError, match="singular"):
            singular.inverse()

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            GFMatrix([[1, 2, 3], [4, 5, 6]]).inverse()


class TestInverseAgainstTextbook:
    """The byte-row elimination returns exactly the textbook inverse."""

    @pytest.mark.parametrize("m", [1, 2, 7, 33, 64, 130])
    def test_generator_submatrices(self, m):
        rng = random.Random(m)
        generator = _generator_matrix(m, min(255, 2 * m), True)
        for _ in range(3):
            chosen = sorted(rng.sample(range(generator.nrows), m))
            sub = generator.submatrix(chosen)
            assert sub.inverse().rows() == textbook_inverse(sub.rows())

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=12))
    def test_random_matrices(self, seed, n):
        rng = random.Random(seed)
        rows = random_matrix(rng, n).rows()
        try:
            expected = textbook_inverse(rows)
        except ValueError:
            with pytest.raises(ValueError, match="singular"):
                GFMatrix(rows).inverse()
        else:
            assert GFMatrix(rows).inverse().rows() == expected

    @pytest.mark.parametrize("n", [3, 5, 17])
    def test_dependent_last_row_raises(self, n):
        """Singularity that only shows at the last pivot column."""
        rng = random.Random(n)
        rows = _generator_matrix(n, 2 * n, True).submatrix(
            sorted(rng.sample(range(2 * n), n))
        ).rows()
        a, b = rng.randrange(1, 256), rng.randrange(1, 256)
        rows[-1] = [gf_mul(a, x) ^ gf_mul(b, y) for x, y in zip(rows[0], rows[1])]
        with pytest.raises(ValueError, match="singular"):
            textbook_inverse(rows)
        with pytest.raises(ValueError, match="singular"):
            GFMatrix(rows).inverse()

    def test_zero_column_raises(self):
        with pytest.raises(ValueError, match="singular"):
            GFMatrix([[0, 1, 2], [0, 3, 4], [0, 5, 6]]).inverse()


class TestRank:
    def test_full_rank_identity(self):
        assert GFMatrix.identity(5).rank() == 5

    def test_duplicate_rows(self):
        assert GFMatrix([[1, 2], [1, 2], [2, 4]]).rank() == 1

    def test_zero_matrix(self):
        assert GFMatrix([[0, 0], [0, 0]]).rank() == 0

    def test_wide_matrix(self):
        assert GFMatrix([[1, 0, 0], [0, 1, 0]]).rank() == 2
