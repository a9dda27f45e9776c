"""NMF fixtures with known optima plus objective-level properties.

Factor identity is never asserted (the factorization is not unique); only
objectives, reconstructions, and the rank-1 case where the leading singular
pair of a nonnegative matrix is itself nonnegative, forcing the optimum.
"""

import numpy as np
import pytest

from craftkit import nnls
from craftkit.errors import DataError
from craftkit.nmf import NmfParams, fit_nmf, init_factors, transform
from craftkit.nnls import nnls_objective


@pytest.fixture(autouse=True)
def tight(monkeypatch):
    """Flag NNLS solves converged only at a KKT residual of 1e-10 max |A W|."""
    monkeypatch.setattr(nnls, "_KKT_TOL", 1e-10)


class TestInitFactors:
    def test_diagonal_matrix_reconstructs_exactly(self):
        A = np.diag([1.0, 2.0])
        U0, W0 = init_factors(A, 2)
        np.testing.assert_allclose(U0 @ W0.T, A, atol=1e-12)

    def test_zero_matrix_gives_zero_factors(self):
        U0, W0 = init_factors(np.zeros((3, 2)), 2)
        assert not U0.any() and not W0.any()

    def test_nonnegativity(self):
        rng = np.random.default_rng(0)
        A = rng.uniform(size=(6, 5))
        U0, W0 = init_factors(A, 3)
        assert U0.min() >= 0 and W0.min() >= 0

    def test_rank_one_positive_product_recovered_exactly(self):
        # the leading singular pair of a positive rank-1 matrix is positive,
        # so the initializer alone reconstructs it
        rng = np.random.default_rng(8)
        A = np.outer(rng.uniform(0.5, 2.0, size=5), rng.uniform(0.5, 2.0, size=4))
        U0, W0 = init_factors(A, 1)
        np.testing.assert_allclose(U0 @ W0.T, A, rtol=1e-10)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            init_factors(np.ones((2, 3)), 3)
        with pytest.raises(ValueError):
            init_factors(np.ones((2, 3)), 0)

    def test_negative_entries_rejected(self):
        with pytest.raises(DataError):
            init_factors(np.array([[1.0, -0.1]]), 1)


class TestFitNmf:
    def test_exact_factorization_is_found(self):
        U_true = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        W_true = np.array([[1.0, 0.0], [0.0, 2.0]])
        A = U_true @ W_true.T
        state = fit_nmf(A, NmfParams(rank=2))
        assert state.objective_trace[-1] < 1e-6

    def test_rank_one_equals_truncated_svd(self):
        # symmetric nonnegative matrix: Perron pair is nonnegative, so the
        # rank-1 NMF optimum equals the rank-1 SVD; the residual is the
        # second singular value (sqrt(5)-1)/2
        A = np.array([[1.0, 1.0], [1.0, 0.0]])
        state = fit_nmf(A, NmfParams(rank=1))
        expected = 0.5 * ((np.sqrt(5.0) - 1.0) / 2.0) ** 2
        assert state.objective_trace[-1] == pytest.approx(expected, abs=1e-3)

    def test_zero_matrix(self):
        state = fit_nmf(np.zeros((3, 3)), NmfParams(rank=2))
        assert not state.U.any() and not state.W.any()
        assert state.objective_trace[-1] == 0.0

    def test_trace_starts_at_init_objective_and_never_exceeds_it(self):
        rng = np.random.default_rng(1)
        A = rng.uniform(size=(8, 5))
        state = fit_nmf(A, NmfParams(rank=3))
        trace = np.array(state.objective_trace)
        assert np.all(trace <= trace[0] + 1e-12)

    def test_trace_monotone_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            A = rng.uniform(size=(6, 4))
            state = fit_nmf(A, NmfParams(rank=2, outer_iters=60))
            trace = np.array(state.objective_trace)
            slack = 1e-9 * np.maximum(trace[:-1], 1.0)
            assert np.all(np.diff(trace) <= slack)

    def test_unit_norm_columns_and_absorbed_scale(self):
        rng = np.random.default_rng(3)
        A = rng.uniform(size=(7, 4))
        state = fit_nmf(A, NmfParams(rank=2))
        norms = np.linalg.norm(state.W, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)
        # normalization must not change the reconstruction
        assert nnls_objective(A, state.W, state.U) == pytest.approx(
            state.objective_trace[-1], rel=1e-9, abs=1e-12)

    def test_scaling_invariance_of_objective(self):
        rng = np.random.default_rng(4)
        A = rng.uniform(size=(6, 4))
        alpha = 3.7
        obj1 = fit_nmf(A, NmfParams(rank=2)).objective_trace[-1]
        obj2 = fit_nmf(alpha * A, NmfParams(rank=2)).objective_trace[-1]
        assert obj2 == pytest.approx(alpha**2 * obj1, rel=1e-5, abs=1e-10)

    def test_nonnegativity_is_exact(self):
        rng = np.random.default_rng(5)
        A = rng.uniform(size=(6, 4))
        state = fit_nmf(A, NmfParams(rank=3))
        assert state.U.min() >= 0.0 and state.W.min() >= 0.0
        assert state.dual_U.min() >= 0.0 and state.dual_W.min() >= 0.0

    def test_joint_kkt_residual_small_at_convergence(self):
        rng = np.random.default_rng(6)
        A = rng.uniform(size=(6, 4))
        state = fit_nmf(A, NmfParams(rank=2, outer_iters=500,
                                     objective_tol=1e-13))
        assert state.converged
        assert state.kkt_residual < 1e-6


class TestTransform:
    def test_transform_reproduces_training_rows(self):
        U_true = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
        W_true = np.array([[1.0, 0.0], [0.0, 2.0], [0.5, 0.5]])
        A = U_true @ W_true.T
        state = fit_nmf(A, NmfParams(rank=2, outer_iters=500,
                                     objective_tol=1e-13))
        U_again = transform(A, state.W)
        np.testing.assert_allclose(U_again @ state.W.T, state.U @ state.W.T, atol=1e-6)

    def test_zero_row_maps_to_zero(self):
        W = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]) / np.sqrt(2)
        np.testing.assert_array_equal(transform(np.zeros((1, 3)), W), np.zeros((1, 2)))

    def test_active_set_hand_case(self):
        W = np.array([[1.0, 1.0], [0.0, 1.0]])
        U = transform(np.array([[0.0, 1.0]]), W)
        np.testing.assert_allclose(U, [[0.0, 0.5]], atol=1e-8)

    def test_no_rows_give_empty_coefficients(self):
        W = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        np.testing.assert_array_equal(transform(np.zeros((0, 3)), W), np.zeros((0, 2)))

    def test_column_mismatch(self):
        with pytest.raises(ValueError):
            transform(np.ones((1, 3)), np.ones((2, 2)))
