"""Tests for sparse and filtered min-plus products."""

import numpy as np
import pytest

from repro.cliquesim import RoundLedger
from repro.kernels import filter_rows, minplus
from repro.matmul import (
    filtered_product,
    filtered_product_with_cost,
    minplus_product,
    sparse_minplus_with_cost,
)


def random_sparse(rng, rows, cols, keep=0.2):
    m = rng.integers(0, 20, (rows, cols)).astype(float)
    m[rng.random((rows, cols)) > keep] = np.inf
    return m


class TestRowSparseMinplus:
    """Theorem 36's row-sparse min-plus product (`kernels.minplus`)
    against the dense product."""

    def test_matches_dense_on_sparse_input(self, rng):
        s = random_sparse(rng, 15, 12)
        t = random_sparse(rng, 12, 10)
        assert np.array_equal(minplus(s, t), minplus_product(s, t))

    def test_matches_dense_on_dense_input(self, rng):
        s = rng.integers(0, 9, (10, 10)).astype(float)
        assert np.array_equal(minplus(s, s), minplus_product(s, s))

    def test_all_inf_rows(self):
        s = np.full((3, 3), np.inf)
        out = minplus(s, s)
        assert np.isinf(out).all()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            minplus(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_rectangular(self, rng):
        s = random_sparse(rng, 4, 8)
        t = random_sparse(rng, 8, 5)
        assert minplus(s, t).shape == (4, 5)


class TestFilterRows:
    def test_keeps_rho_smallest(self):
        m = np.array([[5.0, 1.0, 3.0, 2.0]])
        f = filter_rows(m, 2)
        assert np.isfinite(f[0]).sum() == 2
        assert f[0, 1] == 1.0
        assert f[0, 3] == 2.0

    def test_ties_broken_by_column(self):
        m = np.array([[2.0, 2.0, 2.0]])
        f = filter_rows(m, 2)
        assert np.isfinite(f[0, 0]) and np.isfinite(f[0, 1]) and np.isinf(f[0, 2])

    def test_rho_zero(self):
        m = np.ones((2, 3))
        assert np.isinf(filter_rows(m, 0)).all()

    def test_rho_geq_cols_is_copy(self):
        m = np.ones((2, 3))
        f = filter_rows(m, 5)
        assert np.array_equal(f, m)
        assert f is not m

    def test_negative_rho(self):
        with pytest.raises(ValueError):
            filter_rows(np.ones((1, 1)), -1)

    def test_rows_independent(self, rng):
        m = random_sparse(rng, 6, 9, keep=0.8)
        f = filter_rows(m, 3)
        for i in range(6):
            row_alone = filter_rows(m[i : i + 1], 3)
            assert np.array_equal(f[i], row_alone[0])


class TestFilteredProduct:
    def test_is_filter_of_product(self, rng):
        s = random_sparse(rng, 8, 8, keep=0.4)
        expected = filter_rows(minplus_product(s, s), 3)
        assert np.array_equal(filtered_product(s, s, 3), expected)

    def test_cost_wrapper_charges(self, rng):
        s = random_sparse(rng, 8, 8, keep=0.4)
        ledger = RoundLedger()
        out, rounds = filtered_product_with_cost(
            s, s, rho=3, n=8, num_values=16, ledger=ledger
        )
        assert rounds > 0
        assert ledger.total == rounds
        assert np.array_equal(out, filtered_product(s, s, 3))

    def test_sparse_cost_wrapper(self, rng):
        s = random_sparse(rng, 8, 8, keep=0.4)
        ledger = RoundLedger()
        out, rounds = sparse_minplus_with_cost(s, s, n=8, ledger=ledger)
        assert np.array_equal(out, minplus_product(s, s))
        assert ledger.total == rounds >= 1.0
