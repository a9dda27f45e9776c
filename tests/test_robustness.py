"""Seeded robustness properties of solve_nnls, fit_nmf, transform and the
concept Jacobian.

Every case either meets the KKT gate or raises a specific CraftError;
nothing may come back unflagged and wrong, and nothing may raise anything
else. The cases cover data scales from 1e-150 to 1e150, zero rows of A,
zero and duplicate columns of the bank, a single row, the largest rank
min(n, p), nearly collinear banks, and float32 input read through
load_npy.
"""

import numpy as np
import pytest

from craftkit import nnls
from craftkit.errors import DataError
from craftkit.implicit import jacobian_u_wrt_a
from craftkit.nmf import NmfParams, fit_nmf, transform
from craftkit.nnls import kkt_residual, solve_nnls
from craftkit.npyio import load_npy

from oracles import nnls_dual, nnls_enumerate

SCALES = (1e-150, 1e-100, 1e-50, 1e-8, 1.0, 1e8, 1e50, 1e100, 1e150)
# a tight fit, so that the factorization's own KKT residual is meaningful
FIT = NmfParams(rank=2, outer_iters=500, objective_tol=1e-12)
FIT_GATE = 1e-5


def gradient_scale(A, W):
    return max(float(np.abs(A @ W).max(initial=0.0)), 1e-300)


def assert_nnls_gate(A, W, sol):
    """The solver's own flag and residual, and an independent recomputation
    of the residual from the n x p reconstruction."""
    target = nnls._KKT_TOL * gradient_scale(A, W)
    assert sol.converged
    assert sol.kkt_residual <= target
    assert np.all(np.isfinite(sol.U)) and sol.U.min(initial=0.0) >= 0.0
    assert kkt_residual(A, W, sol.U, sol.dual_U) <= 2 * target


def assert_transform_gate(A, W, U):
    """transform returns U alone; its multipliers are the clipped gradient
    off the support, as solve_nnls reports them."""
    assert np.all(np.isfinite(U)) and U.min(initial=0.0) >= 0.0
    dual = np.where(U > 0.0, 0.0, nnls_dual(A, W, U))
    assert kkt_residual(A, W, U, dual) <= 2 * nnls._KKT_TOL * gradient_scale(A, W)


def assert_fit_gate(A, state):
    """Converged, exactly nonnegative, monotone, and each block's KKT
    residual small against that block's gradient scale."""
    assert state.converged
    for factor in (state.U, state.W, state.dual_U, state.dual_W):
        assert np.all(np.isfinite(factor)) and factor.min(initial=0.0) >= 0.0
    # objectives are resolved no finer than rounding of the data's norm
    trace = np.array(state.objective_trace)
    assert np.all(np.diff(trace) <= 1e-9 * trace[0] + 1e-14 * np.sum(A * A))
    ku = kkt_residual(A, state.W, state.U, state.dual_U)
    kw = kkt_residual(A.T, state.U, state.W, state.dual_W)
    assert ku <= FIT_GATE * gradient_scale(A, state.W)
    assert kw <= FIT_GATE * gradient_scale(A.T, state.U)


def planted(seed, n, p, r, noise=0.05):
    rng = np.random.default_rng(seed)
    W = rng.uniform(size=(p, r))
    A = rng.uniform(size=(n, r)) @ W.T + noise * rng.uniform(size=(n, p))
    return A, W


class TestScales:
    @pytest.mark.parametrize("scale", SCALES)
    def test_solve_nnls_is_scale_covariant(self, scale):
        # solutions move as U(sA A, sW W) = (sA / sW) U(A, W), so every
        # scaling of the pair meets the gate with the same coefficients
        A, W = planted(101, 30, 7, 3)
        A -= 0.3  # some coefficients clamp
        base = solve_nnls(A, W)
        for sA, sW in ((scale, 1.0), (1.0, scale), (scale, scale)):
            sol = solve_nnls(sA * A, sW * W)
            assert_nnls_gate(sA * A, sW * W, sol)
            np.testing.assert_allclose(sol.U, (sA / sW) * base.U, rtol=1e-9,
                                       atol=1e-12 * (sA / sW) * np.abs(base.U).max())

    @pytest.mark.parametrize("scale", SCALES)
    def test_transform_is_scale_covariant(self, scale):
        A, W = planted(102, 12, 9, 4)
        base = transform(A, W)
        U = transform(scale * A, W)
        assert_transform_gate(scale * A, W, U)
        np.testing.assert_allclose(U, scale * base, rtol=1e-9,
                                   atol=1e-12 * scale * np.abs(base).max())

    @pytest.mark.parametrize("scale", SCALES)
    def test_fit_nmf_is_scale_covariant(self, scale):
        A, _ = planted(103, 10, 6, 2)
        base = fit_nmf(A, FIT)
        state = fit_nmf(scale * A, FIT)
        assert_fit_gate(scale * A, state)
        np.testing.assert_allclose(state.W, base.W, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(state.U, scale * base.U, rtol=1e-6,
                                   atol=1e-9 * scale * np.abs(base.U).max())


class TestJacobianScales:
    @pytest.mark.parametrize("scale", [1e-150, 1e-50, 1e-6, 1.0, 1e8, 1e12, 1e50, 1e150])
    def test_jacobian_accepts_exact_solves_at_every_scale(self, scale):
        # the Jacobian accepts what the solver flags converged, a residual
        # relative to max |A W|, and its degeneracy margin is relative to
        # the same scale, so an exact solve stays differentiable at any
        # data scale; its vjp reads only the bank and the support
        A, W = planted(115, 12, 7, 3)
        A -= 0.3  # some coefficients clamp
        W /= np.linalg.norm(W, axis=0)
        cotangent = np.random.default_rng(116).normal(size=(12, 3))
        base = jacobian_u_wrt_a(solve_nnls(A, W)).vjp(cotangent)
        jac = jacobian_u_wrt_a(solve_nnls(scale * A, W))
        np.testing.assert_array_equal(jac.vjp(cotangent), base)


class TestDegenerateShapes:
    def test_zero_rows_of_a(self):
        A, W = planted(104, 9, 6, 3)
        A[[0, 4, 8]] = 0.0
        sol = solve_nnls(A, W)
        assert_nnls_gate(A, W, sol)
        assert not sol.U[[0, 4, 8]].any()
        np.testing.assert_array_equal(transform(A, W), sol.U)
        state = fit_nmf(A, FIT)
        assert_fit_gate(A, state)
        assert not state.U[[0, 4, 8]].any()

    def test_all_rows_zero(self):
        A = np.zeros((4, 5))
        W = np.random.default_rng(105).uniform(size=(5, 2))
        sol = solve_nnls(A, W)
        assert_nnls_gate(A, W, sol)
        assert not sol.U.any()

    @pytest.mark.parametrize("column", ["zero", "duplicate", "both"])
    def test_dependent_bank_columns(self, column):
        # W^T W is singular; the reconstruction is still unique and optimal
        A, W = planted(106, 20, 6, 3)
        A -= 0.2
        if column in ("zero", "both"):
            W = np.column_stack([W, np.zeros(6)])
        if column in ("duplicate", "both"):
            W = np.column_stack([W, W[:, 0]])
        sol = solve_nnls(A, W)
        assert_nnls_gate(A, W, sol)
        U_ref, _ = nnls_enumerate(A, W)
        np.testing.assert_allclose(sol.U @ W.T, U_ref @ W.T, rtol=0, atol=1e-8)
        assert_transform_gate(A, W, transform(A, W))

    def test_zero_and_duplicate_columns_of_a(self):
        A, _ = planted(107, 12, 5, 2)
        A = np.column_stack([A, np.zeros(12), A[:, 1]])
        state = fit_nmf(A, FIT)
        assert_fit_gate(A, state)
        # a zero feature gets no weight in any concept, and a duplicated one
        # the same weight as its copy
        assert not state.W[5].any()
        np.testing.assert_allclose(state.W[6], state.W[1], rtol=1e-9, atol=1e-12)

    def test_single_row(self):
        A, W = planted(108, 1, 6, 3)
        A -= 0.4
        sol = solve_nnls(A, W)
        assert_nnls_gate(A, W, sol)
        np.testing.assert_allclose(sol.U, nnls_enumerate(A, W)[0], rtol=0, atol=1e-10)
        state = fit_nmf(A, NmfParams(rank=1, objective_tol=1e-12))
        assert_fit_gate(A, state)

    @pytest.mark.parametrize("n, p", [(3, 6), (6, 3), (4, 4)])
    def test_largest_rank(self, n, p):
        rng = np.random.default_rng(109 + n)
        A = rng.uniform(size=(n, p))
        state = fit_nmf(A, NmfParams(rank=min(n, p), outer_iters=500,
                                     objective_tol=1e-12))
        assert_fit_gate(A, state)

    @pytest.mark.parametrize("p, r", [(4, 4), (2, 5)])
    def test_square_and_wide_banks(self, p, r):
        rng = np.random.default_rng(110 + p)
        A = rng.normal(size=(15, p))
        W = rng.normal(size=(p, r))
        sol = solve_nnls(A, W)
        assert_nnls_gate(A, W, sol)
        _, obj_ref = nnls_enumerate(A, W)
        assert 0.5 * np.sum((A - sol.U @ W.T) ** 2) <= obj_ref + 1e-9


class TestCollinearBanks:
    @pytest.mark.parametrize("gap", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10])
    def test_nearly_collinear_columns(self, gap):
        # cond(W^T W) runs from about 1e4 to past 1/eps, where the Gram
        # matrix counts as singular and the pivoting is ridged
        rng = np.random.default_rng(111)
        w, v = rng.uniform(size=8), rng.normal(size=8)
        W = np.column_stack([w, w + gap * v, rng.uniform(size=8)])
        A = rng.uniform(size=(25, 3)) @ W.T + 0.01 * rng.uniform(size=(25, 8))
        sol = solve_nnls(A, W)
        assert_nnls_gate(A, W, sol)
        _, obj_ref = nnls_enumerate(A, W)
        assert 0.5 * np.sum((A - sol.U @ W.T) ** 2) <= obj_ref * (1 + 1e-8) + 1e-12


class TestFloat32Input:
    def test_f4_npy_through_fit_and_transform(self, tmp_path):
        A, _ = planted(112, 40, 8, 3)
        np.save(tmp_path / "acts.npy", A.astype("<f4"))
        loaded = load_npy(tmp_path / "acts.npy")
        assert loaded.dtype == np.float64
        state = fit_nmf(loaded, NmfParams(rank=3, outer_iters=500, objective_tol=1e-12))
        assert_fit_gate(loaded, state)
        U = transform(loaded, state.W)
        assert_transform_gate(loaded, state.W, U)
        assert_nnls_gate(loaded, state.W, solve_nnls(loaded, state.W))


class TestSpecificErrors:
    def test_non_finite_inputs_are_data_errors(self):
        W = np.ones((3, 2))
        with pytest.raises(DataError):
            solve_nnls(np.array([[1.0, np.inf, 0.0]]), W)
        with pytest.raises(DataError):
            solve_nnls(np.ones((1, 3)), np.array([[1.0, 0.0], [np.nan, 1.0], [0.0, 1.0]]))
        with pytest.raises(DataError):
            fit_nmf(np.array([[1.0, np.nan], [0.5, 1.0]]), NmfParams(rank=1))

    def test_overflow_past_the_range_is_a_data_error(self):
        # squares of 1e160 overflow; no warning may escape instead
        A, W = planted(113, 5, 4, 2)
        with pytest.raises(DataError, match="overflows"):
            solve_nnls(1e160 * A, 1e160 * W)
        with pytest.raises(DataError, match="overflows"):
            fit_nmf(1e160 * A, FIT)

    def test_underflow_past_the_range_is_a_data_error(self):
        # squares of 1e-160 are subnormal and those of 1e-170 are zero, so
        # W^T W keeps too few bits to solve with; neither may come back as
        # a converged solution or a mere convergence flag
        rng = np.random.default_rng(114)
        A, W = rng.uniform(size=(5, 4)), rng.uniform(size=(4, 3))
        with pytest.raises(DataError, match="underflows"):
            solve_nnls(1e-160 * A, 1e-160 * W)
        with pytest.raises(DataError, match="underflows"):
            solve_nnls(A, 1e-170 * W)
