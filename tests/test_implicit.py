"""Implicit Jacobians against closed forms and finite differences.

The finite-difference oracle re-solves each perturbed problem with the
exact enumeration solver from oracles.py, so it shares nothing with either
the NNLS solver or the implicit linear algebra it checks.
"""

import numpy as np
import pytest

from craftkit import nnls
from craftkit.errors import DegeneracyError, NumericalError
from craftkit.implicit import ConceptJacobian, jacobian_u_wrt_a
from craftkit.nnls import Gram, solve_nnls

from oracles import nnls_enumerate, nnls_enumerate_row


@pytest.fixture(autouse=True)
def tight(monkeypatch):
    """Flag NNLS solves converged, and so differentiable, only at a KKT
    residual of 1e-11 max |A W|."""
    monkeypatch.setattr(nnls, "_KKT_TOL", 1e-11)


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


class TestTransformJacobian:
    def test_interior_rank_one_closed_form(self):
        # interior NNLS reduces to least squares: du/da = w / (w^T w)
        W = np.array([[1.0], [2.0]])
        A = np.array([[1.0, 1.0]])
        sol = solve_nnls(A, W)
        jac = jacobian_u_wrt_a(sol)
        np.testing.assert_allclose(jac.dense_form, [[0.2, 0.4]], atol=1e-9)
        # the adjoint of the same map, probed with a unit cotangent
        np.testing.assert_allclose(jac.vjp(np.array([[1.0]])),
                                   [[0.2, 0.4]], atol=1e-9)

    def test_standard_basis_column_projects(self):
        W = np.array([[1.0], [0.0], [0.0]])
        A = np.array([[0.7, 0.3, -0.1]])
        sol = solve_nnls(A, W)
        jac = jacobian_u_wrt_a(sol)
        np.testing.assert_allclose(jac.dense_form, [[1.0, 0.0, 0.0]], atol=1e-9)

    def test_active_constraint_matches_finite_differences(self):
        W = np.array([[1.0, 1.0], [0.0, 1.0], [0.2, -0.3]])
        A = np.array([[-0.1, 1.0, 0.05]])
        sol = solve_nnls(A, W)
        jac = jacobian_u_wrt_a(sol)
        ref = fd_jacobian(A, W)
        np.testing.assert_allclose(jac.dense_form, ref, rtol=1e-4, atol=1e-7)

    def test_random_instances_match_finite_differences(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            A, W = random_nondegenerate_instance(rng)
            sol = solve_nnls(A, W)
            jac = jacobian_u_wrt_a(sol)
            ref = fd_jacobian(A, W)
            err = np.abs(jac.dense_form - ref)
            tol = np.maximum(1e-4 * np.abs(ref), 1e-7)
            assert np.all(err <= tol)

    def test_active_rows_are_exactly_zero(self):
        W = np.array([[1.0, 1.0], [0.0, 1.0]])
        A = np.array([[0.0, 1.0]])
        sol = solve_nnls(A, W)
        jac = jacobian_u_wrt_a(sol)
        np.testing.assert_array_equal(jac.dense_form[0], 0.0)  # u1 is clamped

    def test_vjp_row_locality(self):
        rng = np.random.default_rng(31)
        W = rng.normal(size=(4, 2))
        A = rng.normal(size=(3, 4)) + 2.0
        sol = solve_nnls(A, W)
        jac = jacobian_u_wrt_a(sol)
        Y = np.zeros((3, 2))
        Y[1] = rng.normal(size=2)
        dA = jac.vjp(Y)
        np.testing.assert_array_equal(dA[0], 0.0)
        np.testing.assert_array_equal(dA[2], 0.0)

    def test_vjp_linearity(self):
        rng = np.random.default_rng(41)
        A, W = random_nondegenerate_instance(rng)
        sol = solve_nnls(A, W)
        jac = jacobian_u_wrt_a(sol)
        y1 = rng.normal(size=sol.U.shape)
        y2 = rng.normal(size=sol.U.shape)
        np.testing.assert_allclose(jac.vjp(y1 + y2), jac.vjp(y1) + jac.vjp(y2),
                                   atol=1e-12)
        np.testing.assert_array_equal(jac.vjp(np.zeros_like(y1)), 0.0)

    def test_grouped_solves_match_per_row_reference(self):
        # rows share free sets in several patterns; every row must agree with
        # its own solve of G_II x_I = Y_I
        rng = np.random.default_rng(51)
        W = rng.normal(size=(6, 3))
        inactive = rng.uniform(size=(9, 3)) < 0.6
        inactive[0] = False
        jac = ConceptJacobian(W, inactive)
        Y = rng.normal(size=(9, 3))
        dA_ref = np.zeros((9, 6))
        J_ref = np.zeros((9 * 3, 9 * 6))
        for i in range(9):
            free = np.flatnonzero(inactive[i])
            if free.size == 0:
                continue
            M = W[:, free].T @ W[:, free]
            dA_ref[i] = W[:, free] @ np.linalg.solve(M, Y[i, free])
            J_ref[i * 3 + free, i * 6:(i + 1) * 6] = np.linalg.solve(M, W[:, free].T)
        np.testing.assert_allclose(jac.vjp(Y), dA_ref, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(jac.dense_form, J_ref, rtol=1e-10, atol=1e-12)

    def test_dense_form_built_on_first_read(self):
        # the same instance as the per-row reference above; construction
        # must not materialize the (n r) x (n p) matrix
        rng = np.random.default_rng(51)
        W = rng.normal(size=(6, 3))
        inactive = rng.uniform(size=(9, 3)) < 0.6
        inactive[0] = False
        jac = ConceptJacobian(W, inactive)
        assert "dense_form" not in jac.__dict__
        J_ref = np.zeros((9 * 3, 9 * 6))
        for i in range(9):
            free = np.flatnonzero(inactive[i])
            if free.size:
                M = W[:, free].T @ W[:, free]
                J_ref[i * 3 + free, i * 6:(i + 1) * 6] = np.linalg.solve(M, W[:, free].T)
        np.testing.assert_allclose(jac.dense_form, J_ref, rtol=1e-10, atol=1e-12)
        assert jac.dense_form is jac.dense_form


def per_row_reference(W, inactive, Y):
    """vjp and each row's r x p diagonal block of the dense form, from one
    np.linalg.solve of G_II per row."""
    (n, r), p = inactive.shape, W.shape[0]
    dA_back, blocks = np.zeros((n, p)), np.zeros((n, r, p))
    for i in range(n):
        free = np.flatnonzero(inactive[i])
        if free.size == 0:
            continue
        M = W[:, free].T @ W[:, free]
        dA_back[i] = W[:, free] @ np.linalg.solve(M, Y[i, free])
        blocks[i, free] = np.linalg.solve(M, W[:, free].T)
    return dA_back, blocks


class TestBatchedSolves:
    # with nnls._SOLVE_FLOATS at 9 a solve block holds 9 rows at k = 1 free
    # concepts, 2 at k = 2 and one from k = 3 on, so in both instances
    # every free count spans several blocks: 700 rows for vjp, and 180
    # rows once per concept for the dense form, which is built from vjp
    # of one-hot cotangents (700 rows would exceed its 10^6-entry gate at
    # any p)
    @pytest.mark.parametrize("n, p", [(700, 8), (180, 6)])
    def test_mixed_supports_match_per_row_reference(self, n, p, monkeypatch):
        monkeypatch.setattr(nnls, "_SOLVE_FLOATS", 9)
        rng = np.random.default_rng(71)
        W = rng.normal(size=(p, 5))
        inactive = rng.uniform(size=(n, 5)) < 0.6
        inactive[::50] = False  # all-clamped rows
        jac = ConceptJacobian(W, inactive)
        Y = rng.normal(size=(n, 5))
        dA_ref, blocks = per_row_reference(W, inactive, Y)
        np.testing.assert_allclose(jac.vjp(Y), dA_ref, rtol=1e-10, atol=1e-12)
        if n**2 * 5 * p > 10**6:
            assert jac.dense_form is None
            return
        J_ref = np.zeros((n * 5, n * p))
        for i in range(n):
            J_ref[i * 5:(i + 1) * 5, i * p:(i + 1) * p] = blocks[i]
        np.testing.assert_allclose(jac.dense_form, J_ref, rtol=1e-10, atol=1e-12)

    def test_singular_block_named_by_first_row(self):
        # concepts 0 and 1 are duplicates; rows 0-2 repeat well-posed
        # patterns, row 3 is the first singular one, and row 5's singular
        # pattern sorts before row 3's
        W = np.random.default_rng(72).normal(size=(8, 5))
        W[:, 1] = W[:, 0]
        inactive = np.array([[1, 0, 1, 0, 0], [0, 1, 1, 0, 0], [1, 0, 1, 0, 0],
                             [1, 1, 1, 0, 0], [0, 0, 1, 1, 1], [1, 1, 0, 0, 0]],
                            dtype=bool)
        with pytest.raises(NumericalError, match=r"row 3 on concepts \[0, 1, 2\]"):
            ConceptJacobian(W, inactive)

    def test_singular_block_named_by_first_row_across_pattern_bytes(self):
        # at r = 10 concepts 8 and 9, past the first eight, are duplicates.
        # Row 3 frees the same concepts 0-7 as the well-posed rows 0 and 2
        # and is the first singular row; row 4's singular pattern sorts
        # before it
        W = np.random.default_rng(73).normal(size=(12, 10))
        W[:, 9] = W[:, 8]
        free_sets = ([0, 8], [1, 2, 8], [0, 8], [0, 8, 9], [8, 9], [0, 8, 9])
        inactive = np.zeros((len(free_sets), 10), dtype=bool)
        for i, free in enumerate(free_sets):
            inactive[i, free] = True
        with pytest.raises(NumericalError, match=r"row 3 on concepts \[0, 8, 9\]"):
            ConceptJacobian(W, inactive)
        ConceptJacobian(W, inactive[:3])  # the well-posed rows alone pass


def per_pattern_check(gram, free):
    """The reduced-block check with no shortcut: every distinct free
    pattern's masked Gram matrix through eigvalsh and the rank test.
    Returns the NumericalError message of the first singular row, or None."""
    r = gram.shape[0]
    patterns, first = np.unique(free, axis=0, return_index=True)
    k = patterns.sum(axis=1)
    patterns, first, k = patterns[k > 0], first[k > 0], k[k > 0]
    eigvals = np.linalg.eigvalsh(np.where(patterns[:, :, None] & patterns[:, None, :],
                                          gram, 0.0))
    lowest = eigvals[np.arange(len(k)), r - k]
    singular = np.flatnonzero(lowest <= k * np.finfo(np.float64).eps * eigvals[:, -1])
    if not singular.size:
        return None
    j = singular[np.argmin(first[singular])]
    return (f"singular reduced Gram block at row {int(first[j])} on concepts "
            f"{np.flatnonzero(patterns[j]).tolist()}: the bank's columns there are "
            f"linearly dependent (eigenvalues {lowest[j]:.2e} to {eigvals[j, -1]:.2e})")


def conditioned_bank(seed, cond, p=9, r=6):
    """A p x r bank whose Gram matrix has condition number cond, with
    log-spaced singular values between random orthonormal bases."""
    rng = np.random.default_rng(seed)
    left = np.linalg.qr(rng.normal(size=(p, r)))[0]
    right = np.linalg.qr(rng.normal(size=(r, r)))[0]
    return left * np.logspace(0.0, -0.5 * np.log10(cond), r) @ right.T


def all_free_patterns(r):
    """One row per nonempty free set of r concepts, and one with none."""
    return (np.arange(2**r)[:, None] >> np.arange(r) & 1).astype(bool)


def check_message(W, free):
    try:
        ConceptJacobian(W, free)
    except NumericalError as err:
        return str(err)
    return None


class TestInterlacingShortcut:
    """A Gram matrix that passes the rank test lets every block pass."""

    @pytest.mark.parametrize("cond", [1e2, 1e6, 1e10, 1e12, 1e13, 1e14, 3e14, 1e15])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_decisions_as_the_per_pattern_check(self, seed, cond):
        W = conditioned_bank(seed, cond)
        free = all_free_patterns(W.shape[1])
        assert check_message(W, free) == per_pattern_check(W.T @ W, free)

    def test_equal_columns_raise_naming_row_and_concepts(self):
        # row 3 is the first to free both copies of column 0
        W = np.random.default_rng(74).uniform(size=(7, 4))
        W[:, 2] = W[:, 0]
        free = np.array([[1, 1, 0, 1], [0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 1, 0],
                         [1, 1, 1, 1]], dtype=bool)
        message = check_message(W, free)
        assert message is not None and "row 3 on concepts [0, 2]" in message
        assert message == per_pattern_check(W.T @ W, free)
        assert check_message(W, free[:3]) is None  # no row frees both copies


class TestGuards:
    def test_degenerate_point_raises_with_coordinates(self):
        # a = col span boundary: u = 0 with zero multiplier
        W = np.array([[1.0], [0.0]])
        A = np.array([[0.0, 0.5]])  # residual orthogonal to w -> dual exactly 0
        sol = solve_nnls(A, W)
        with pytest.raises(DegeneracyError) as err:
            jacobian_u_wrt_a(sol)
        assert (0, 0) in [(int(i), int(j)) for i, j in err.value.coordinates]

    def test_sloppy_solution_rejected(self):
        from craftkit.nnls import NnlsSolution
        W = np.array([[1.0], [1.0]])
        sloppy = NnlsSolution(U=np.array([[0.1]]), dual_U=np.zeros((1, 1)),
                              iterations=1, kkt_residual=0.5, converged=False,
                              scale=1.0, bank=Gram.of(W))
        with pytest.raises(NumericalError):
            jacobian_u_wrt_a(sloppy)

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

    @pytest.mark.parametrize("shape", [(2, 2), (1, 3)], ids=["rows", "width"])
    def test_vjp_shape_check(self, shape):
        # the Jacobian of one row over two concepts takes 1 x 2 cotangents
        jac = ConceptJacobian(np.eye(2), np.ones((1, 2), dtype=bool))
        with pytest.raises(ValueError, match=r"cotangent must be \(1, 2\)"):
            jac.vjp(np.ones(shape))


class TestGramInput:
    """A ConceptJacobian built from a bank's Gram is the one built from W."""

    def test_same_products_and_no_rank_test(self, monkeypatch):
        rng = np.random.default_rng(81)
        W = rng.uniform(size=(7, 4))
        inactive = rng.uniform(size=(12, 4)) < 0.6
        Y = rng.normal(size=(12, 4))
        gram = Gram.of(W)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a, *args: calls.append(1) or eigvalsh(a, *args))
        jac = ConceptJacobian(gram, inactive)
        assert not calls  # the Gram's rank test covers every block
        ref = ConceptJacobian(W, inactive)
        assert len(calls) == 1
        assert jac.vjp(Y).tobytes() == ref.vjp(Y).tobytes()
        assert jac.dense_form.tobytes() == ref.dense_form.tobytes()

    def test_a_solve_carries_its_bank_to_its_jacobian(self):
        # the Jacobian of a solve is the one built from that solve's Gram:
        # a solve against one bank cannot be differentiated against another
        rng = np.random.default_rng(83)
        W = rng.uniform(size=(6, 3))
        A = rng.uniform(size=(9, 6))
        Y = rng.normal(size=(9, 3))
        sol = solve_nnls(A, W)
        assert isinstance(sol.bank, Gram) and sol.bank.W.tobytes() == W.tobytes()
        free = sol.U > sol.dual_U
        want = ConceptJacobian(Gram.of(W), free).vjp(Y)
        assert jacobian_u_wrt_a(sol).vjp(Y).tobytes() == want.tobytes()
        assert ConceptJacobian(W, free).vjp(Y).tobytes() == want.tobytes()
        gram = Gram.of(W)
        assert solve_nnls(A, gram).bank is gram

    def test_a_plain_w_solve_and_its_jacobian_make_one_rank_test(self, monkeypatch):
        rng = np.random.default_rng(84)
        W, A = rng.uniform(size=(6, 3)), rng.uniform(size=(9, 6))
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a, *args: calls.append(1) or eigvalsh(a, *args))
        jacobian_u_wrt_a(solve_nnls(A, W))
        assert len(calls) == 1

    def test_a_solve_of_no_rows_keeps_the_checked_w(self):
        # no rows return before W's constants are derived; the Jacobian of
        # that solve derives them, and has no rows either
        sol = solve_nnls(np.zeros((0, 2)), [[1.0, 0.0], [0.0, 1.0]])
        assert isinstance(sol.bank, np.ndarray) and sol.bank.dtype == np.float64
        jac = jacobian_u_wrt_a(sol)
        assert jac.vjp(np.zeros((0, 2))).shape == (0, 2)

    def test_rank_deficient_gram_still_checks_each_block(self):
        W = np.random.default_rng(82).normal(size=(8, 3))
        W[:, 2] = W[:, 0]
        inactive = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=bool)
        gram = Gram.of(W)
        assert not gram.full_rank
        with pytest.raises(NumericalError, match=r"row 1 on concepts \[0, 2\]"):
            ConceptJacobian(gram, inactive)
        ConceptJacobian(gram, inactive[:1])
