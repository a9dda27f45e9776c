"""Implicit Jacobians against closed forms and finite differences.

The finite-difference oracle re-solves each perturbed problem with the
exact enumeration solver from oracles.py, so it shares nothing with either
the ADMM path or the implicit linear algebra it checks.
"""

import numpy as np
import pytest

from craftkit.errors import DegeneracyError, NumericalError
from craftkit.implicit import (ConceptJacobian, FitJacobian, jacobian_u_wrt_a,
                               optimality_fn)
from craftkit.nmf import FactorizationState, NmfParams, fit_nmf
from craftkit.nnls import AdmmParams, solve_nnls

from oracles import nnls_enumerate, nnls_enumerate_row

TIGHT = AdmmParams(tol_primal=1e-11, tol_dual=1e-11)


def fd_jacobian(A, W, step=1e-5):
    """Central differences of the exact NNLS solution, entry by entry."""
    n, p = A.shape
    r = W.shape[1]
    J = np.zeros((n * r, n * p))
    for i in range(n):
        for q in range(p):
            Ap, Am = A.copy(), A.copy()
            Ap[i, q] += step
            Am[i, q] -= step
            up, _ = nnls_enumerate_row(Ap[i], W)
            um, _ = nnls_enumerate_row(Am[i], W)
            J[i * r:(i + 1) * r, i * p + q] = (up - um) / (2 * step)
    return J


def random_nondegenerate_instance(rng, margin=1e-3):
    """Rejection-sample an instance whose solution is strictly complementary."""
    while True:
        n = int(rng.integers(1, 5))
        p = int(rng.integers(2, 7))
        r = int(rng.integers(1, min(p, 4)))
        A = rng.normal(size=(n, p))
        W = rng.normal(size=(p, r))
        U, _ = nnls_enumerate(A, W)
        dual = np.maximum((U @ W.T - A) @ W, 0.0)
        if np.all(np.maximum(np.abs(U), np.abs(dual)) > margin):
            return A, W


class TestOptimalityFn:
    def test_zero_at_exact_interior_solution(self):
        W = np.array([[1.0, 0.0], [0.0, 1.0], [0.3, 0.4]])
        U = np.array([[1.0, 2.0]])
        A = U @ W.T
        res = optimality_fn(U, W, np.zeros_like(U), np.zeros_like(W), A)
        assert res.max_abs() < 1e-10

    def test_slack_block_sees_perturbation(self):
        W = np.array([[1.0, 1.0], [0.0, 1.0]])
        A = np.array([[0.0, 1.0]])
        U = np.array([[0.0, 0.5]])
        dual_U = np.array([[0.5, 0.0]])
        eps = 1e-3
        res = optimality_fn(U + np.array([[eps, 0.0]]), W, dual_U,
                            np.zeros_like(W), A)
        assert res.slack_U[0, 0] == pytest.approx(eps * 0.5, rel=1e-9)

    def test_hand_active_set_case(self):
        W = np.array([[1.0, 1.0], [0.0, 1.0]])
        A = np.array([[0.0, 1.0]])
        sol = solve_nnls(A, W, TIGHT)
        res = optimality_fn(sol.U, W, sol.dual_U, np.zeros_like(W), A)
        assert max(np.abs(res.stat_U).max(), np.abs(res.slack_U).max()) < 1e-8


class TestTransformJacobian:
    def test_interior_rank_one_closed_form(self):
        # interior NNLS reduces to least squares: du/da = w / (w^T w)
        W = np.array([[1.0], [2.0]])
        A = np.array([[1.0, 1.0]])
        sol = solve_nnls(A, W, TIGHT)
        jac = jacobian_u_wrt_a(sol, A, W)
        np.testing.assert_allclose(jac.dense_form, [[0.2, 0.4]], atol=1e-9)
        # the adjoint of the same map, probed with a unit cotangent
        np.testing.assert_allclose(jac.vjp(np.array([[1.0]])),
                                   [[0.2, 0.4]], atol=1e-9)

    def test_standard_basis_column_projects(self):
        W = np.array([[1.0], [0.0], [0.0]])
        A = np.array([[0.7, 0.3, -0.1]])
        sol = solve_nnls(A, W, TIGHT)
        jac = jacobian_u_wrt_a(sol, A, W)
        np.testing.assert_allclose(jac.dense_form, [[1.0, 0.0, 0.0]], atol=1e-9)

    def test_active_constraint_matches_finite_differences(self):
        W = np.array([[1.0, 1.0], [0.0, 1.0], [0.2, -0.3]])
        A = np.array([[-0.1, 1.0, 0.05]])
        sol = solve_nnls(A, W, TIGHT)
        jac = jacobian_u_wrt_a(sol, A, W)
        ref = fd_jacobian(A, W)
        np.testing.assert_allclose(jac.dense_form, ref, rtol=1e-4, atol=1e-7)

    def test_random_instances_match_finite_differences(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            A, W = random_nondegenerate_instance(rng)
            sol = solve_nnls(A, W, TIGHT)
            jac = jacobian_u_wrt_a(sol, A, W)
            ref = fd_jacobian(A, W)
            err = np.abs(jac.dense_form - ref)
            tol = np.maximum(1e-4 * np.abs(ref), 1e-7)
            assert np.all(err <= tol)

    def test_active_rows_are_exactly_zero(self):
        W = np.array([[1.0, 1.0], [0.0, 1.0]])
        A = np.array([[0.0, 1.0]])
        sol = solve_nnls(A, W, TIGHT)
        jac = jacobian_u_wrt_a(sol, A, W)
        np.testing.assert_array_equal(jac.dense_form[0], 0.0)  # u1 is clamped

    def test_adjoint_consistency(self):
        rng = np.random.default_rng(21)
        A, W = random_nondegenerate_instance(rng)
        sol = solve_nnls(A, W, TIGHT)
        jac = jacobian_u_wrt_a(sol, A, W)
        for _ in range(5):
            dA = rng.normal(size=A.shape)
            Y = rng.normal(size=sol.U.shape)
            lhs = float(np.sum(jac.jvp(dA) * Y))
            rhs = float(np.sum(dA * jac.vjp(Y)))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_vjp_row_locality(self):
        rng = np.random.default_rng(31)
        W = rng.normal(size=(4, 2))
        A = rng.normal(size=(3, 4)) + 2.0
        sol = solve_nnls(A, W, TIGHT)
        jac = jacobian_u_wrt_a(sol, A, W)
        Y = np.zeros((3, 2))
        Y[1] = rng.normal(size=2)
        dA = jac.vjp(Y)
        np.testing.assert_array_equal(dA[0], 0.0)
        np.testing.assert_array_equal(dA[2], 0.0)

    def test_vjp_linearity(self):
        rng = np.random.default_rng(41)
        A, W = random_nondegenerate_instance(rng)
        sol = solve_nnls(A, W, TIGHT)
        jac = jacobian_u_wrt_a(sol, A, W)
        y1 = rng.normal(size=sol.U.shape)
        y2 = rng.normal(size=sol.U.shape)
        np.testing.assert_allclose(jac.vjp(y1 + y2), jac.vjp(y1) + jac.vjp(y2),
                                   atol=1e-12)
        np.testing.assert_array_equal(jac.vjp(np.zeros_like(y1)), 0.0)

    def test_grouped_solves_match_per_row_reference(self):
        # rows share free sets in several patterns; every row must agree with
        # its own solve of G_II dU_I = W_I^T dA_i
        rng = np.random.default_rng(51)
        W = rng.normal(size=(6, 3))
        inactive = rng.uniform(size=(9, 3)) < 0.6
        inactive[0] = False
        jac = ConceptJacobian(W, inactive)
        dA = rng.normal(size=(9, 6))
        Y = rng.normal(size=(9, 3))
        dU_ref = np.zeros((9, 3))
        dA_ref = np.zeros((9, 6))
        J_ref = np.zeros((9 * 3, 9 * 6))
        for i in range(9):
            free = np.flatnonzero(inactive[i])
            if free.size == 0:
                continue
            M = W[:, free].T @ W[:, free]
            dU_ref[i, free] = np.linalg.solve(M, W[:, free].T @ dA[i])
            dA_ref[i] = W[:, free] @ np.linalg.solve(M, Y[i, free])
            J_ref[i * 3 + free, i * 6:(i + 1) * 6] = np.linalg.solve(M, W[:, free].T)
        np.testing.assert_allclose(jac.jvp(dA), dU_ref, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(jac.vjp(Y), dA_ref, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(jac.dense_form, J_ref, rtol=1e-10, atol=1e-12)


class TestGuards:
    def test_degenerate_point_raises_with_coordinates(self):
        # a = col span boundary: u = 0 with zero multiplier
        W = np.array([[1.0], [0.0]])
        A = np.array([[0.0, 0.5]])  # residual orthogonal to w -> dual exactly 0
        sol = solve_nnls(A, W, TIGHT)
        with pytest.raises(DegeneracyError) as err:
            jacobian_u_wrt_a(sol, A, W)
        assert (0, 0) in [(int(i), int(j)) for i, j in err.value.coordinates]

    def test_sloppy_solution_rejected(self):
        from craftkit.nnls import NnlsSolution
        A = np.array([[0.3, 0.9]])
        W = np.array([[1.0], [1.0]])
        sloppy = NnlsSolution(U=np.array([[0.1]]), dual_U=np.zeros((1, 1)),
                              iterations=1, kkt_residual=0.5, converged=False)
        with pytest.raises(NumericalError):
            jacobian_u_wrt_a(sloppy, A, W)

    @pytest.mark.parametrize("W", [
        np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]),   # duplicate unit columns
        np.array([[1.0, 0.0], [0.0, 0.0], [0.3, 0.0]]),   # zero column
    ], ids=["duplicate_columns", "zero_column"])
    def test_singular_gram_block_raises_with_row_and_concepts(self, W):
        # row 0 frees only concept 0 and is well posed; row 1 frees both
        inactive = np.array([[True, False], [True, True]])
        with pytest.raises(NumericalError, match=r"row 1 on concepts \[0, 1\]"):
            ConceptJacobian(W, inactive)

    def test_dense_form_gated_on_allocated_entries(self):
        # (n r) x (n p) = 100 x 20000 entries: n r p = 10^5 is under the
        # limit, but the dense form would hold 2 * 10^6 entries
        W = np.random.default_rng(61).uniform(0.1, 1.0, size=(1000, 5))
        jac = ConceptJacobian(W, np.ones((20, 5), dtype=bool))
        assert jac.dense_form is None

    def test_fit_jacobian_gated_on_system_size(self):
        # n r p = 18000, but the free-coordinate system is 1200 x 1200
        rng = np.random.default_rng(62)
        U = rng.uniform(0.5, 1.5, size=(30, 20))
        W = rng.uniform(0.5, 1.5, size=(30, 20))
        state = FactorizationState(U=U, W=W, dual_U=np.zeros_like(U),
                                   dual_W=np.zeros_like(W), objective_trace=(0.0,),
                                   converged=True, kkt_residual=0.0,
                                   column_norms=np.ones(20))
        with pytest.raises(NumericalError, match=r"\(n\*r \+ p\*r\)\^2"):
            FitJacobian(state, U @ W.T)

    def test_jvp_shape_check(self):
        jac = ConceptJacobian(np.eye(2), np.ones((1, 2), dtype=bool))
        with pytest.raises(ValueError):
            jac.jvp(np.ones((2, 2)))


class TestFitMode:
    def test_directional_solution_satisfies_the_system(self):
        rng = np.random.default_rng(8)
        # exact positive product so the optimum is interior (duals vanish,
        # factors stay strictly positive -> strict complementarity holds)
        U_true = rng.uniform(0.5, 1.5, size=(5, 2))
        W_true = rng.uniform(0.5, 1.5, size=(3, 2))
        A = U_true @ W_true.T
        state = fit_nmf(A, NmfParams(rank=2, admm=TIGHT, outer_iters=800,
                                     objective_tol=1e-14, init=("random", 0)))
        if state.kkt_residual >= 1e-6 or min(state.U.min(), state.W.min()) <= 1e-6:
            pytest.skip("fit did not land on a strictly interior factorization")
        jac = jacobian_u_wrt_a(state, A)
        dA = rng.normal(size=A.shape)
        dU, dW = jac.jvp(dA)
        # differentiated stationarity blocks must vanish on free coordinates
        R = state.U @ state.W.T - A
        f1 = (dU @ state.W.T + state.U @ dW.T - dA) @ state.W + R @ dW
        f2 = (dW @ state.U.T + state.W @ dU.T - dA.T) @ state.U + R.T @ dU
        free_u = state.dual_U < np.abs(state.U)
        free_w = state.dual_W < np.abs(state.W)
        assert np.abs(f1[free_u]).max() < 1e-6
        assert np.abs(f2[free_w]).max() < 1e-6

        # adjoint consistency through the dU output block
        Y = rng.normal(size=state.U.shape)
        lhs = float(np.sum(dU * Y))
        rhs_ip = float(np.sum(dA * jac.vjp(Y)))
        assert lhs == pytest.approx(rhs_ip, rel=1e-8, abs=1e-10)
