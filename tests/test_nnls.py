"""Block principal pivoting NNLS against hand-derived cases and the
enumeration oracle."""

import json

import numpy as np
import pytest

from craftkit import nmf, nnls
from craftkit.errors import DataError, NumericalError
from craftkit.nmf import NmfParams, fit_nmf
from craftkit.nnls import (Gram, NnlsSolution, kkt_residual, nnls_objective,
                           solve_nnls, _reduced_solve)

from oracles import nnls_dual, nnls_enumerate


@pytest.fixture(autouse=True)
def tight(monkeypatch):
    """Flag solves converged only at a KKT residual of 1e-10 max |A W|."""
    monkeypatch.setattr(nnls, "_KKT_TOL", 1e-10)


class TestHandCases:
    def test_identity_fit_is_exact_interior(self):
        sol = solve_nnls(np.eye(2), np.eye(2))
        np.testing.assert_allclose(sol.U, np.eye(2), atol=1e-9)
        np.testing.assert_allclose(sol.dual_U, 0.0, atol=1e-9)
        assert sol.kkt_residual < 1e-8
        assert sol.converged

    def test_scalar_least_squares(self):
        # (1 - u)^2 + u^2 is minimized at u = 0.5 with objective 0.25
        A = np.array([[1.0, 0.0]])
        W = np.array([[1.0], [1.0]])
        sol = solve_nnls(A, W)
        np.testing.assert_allclose(sol.U, [[0.5]], atol=1e-9)
        assert nnls_objective(A, W, sol.U) == pytest.approx(0.25, abs=1e-9)

    def test_active_constraint_case(self):
        # unconstrained optimum (-1, 1) violates u1 >= 0; clamping u1 gives
        # u = (0, 0.5) with multiplier 0.5 on the clamped coordinate
        A = np.array([[0.0, 1.0]])
        W = np.array([[1.0, 1.0], [0.0, 1.0]])
        sol = solve_nnls(A, W)
        np.testing.assert_allclose(sol.U, [[0.0, 0.5]], atol=1e-8)
        np.testing.assert_allclose(sol.dual_U, [[0.5, 0.0]], atol=1e-8)
        assert sol.kkt_residual < 1e-8


class TestKktResidual:
    def test_exact_solution_scores_zero(self):
        assert kkt_residual(np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2))) < 1e-12

    def test_negative_entry_is_flagged(self):
        U = np.array([[-0.3, 1.0]])
        res = kkt_residual(np.zeros((1, 2)), np.eye(2), U, np.zeros((1, 2)))
        assert res >= 0.3

    def test_no_rows_score_zero(self):
        assert kkt_residual(np.zeros((0, 3)), np.ones((3, 2)),
                            np.zeros((0, 2)), np.zeros((0, 2))) == 0.0

    def test_hand_case_after_convergence(self):
        A = np.array([[0.0, 1.0]])
        W = np.array([[1.0, 1.0], [0.0, 1.0]])
        sol = solve_nnls(A, W)
        assert kkt_residual(A, W, sol.U, sol.dual_U) < 1e-8


class TestAgainstEnumeration:
    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n, p, r = rng.integers(1, 4), rng.integers(1, 5), rng.integers(1, 4)
            A = rng.normal(size=(n, p))
            W = rng.normal(size=(p, r))
            sol = solve_nnls(A, W)
            _, obj_ref = nnls_enumerate(A, W)
            assert nnls_objective(A, W, sol.U) <= obj_ref + 1e-6
            assert sol.kkt_residual < 1e-8
            # the solver scores candidates in Gram form (U G - A W); the
            # public residual rebuilds U W^T - A and must agree to rounding
            public = kkt_residual(A, W, sol.U, sol.dual_U)
            assert abs(sol.kkt_residual - public) <= 1e-12 * np.abs(A @ W).max()

    def test_duals_match_stationarity_form(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            A = rng.normal(size=(3, 4))
            W = rng.normal(size=(4, 2))
            sol = solve_nnls(A, W)
            np.testing.assert_allclose(sol.dual_U, nnls_dual(A, W, sol.U), atol=1e-7)


class TestReducedSolve:
    def test_batched_solve_matches_per_group_solves(self):
        # 300 rows with random supports cover most of the 2^6 patterns; the
        # reference solves each support group's reduced Gram system apart
        rng = np.random.default_rng(29)
        n, p, r = 300, 20, 6
        W = rng.uniform(size=(p, r))
        A = rng.uniform(size=(n, p)) * rng.uniform(0.1, 10.0, size=(n, 1))
        free_sets = rng.uniform(size=(n, r)) < 0.6
        G, AW = W.T @ W, A @ W
        assert len({row.tobytes() for row in free_sets}) > 40
        U_ref = np.zeros((n, r))
        for key in {row.tobytes() for row in free_sets}:
            rows = np.flatnonzero([row.tobytes() == key for row in free_sets])
            free = np.flatnonzero(free_sets[rows[0]])
            if free.size:
                U_ref[np.ix_(rows, free)] = np.linalg.solve(
                    G[np.ix_(free, free)], AW[np.ix_(rows, free)].T).T
        U_red = _reduced_solve(AW, G, free_sets, np.arange(n))
        # backward-stable solves: error within a small multiple of
        # cond(G) * eps * |u| per row (cond(G_FF) <= cond(G) by interlacing)
        tol = 100 * np.linalg.cond(G) * np.finfo(np.float64).eps
        row_scale = np.abs(U_ref).max(axis=1, keepdims=True)
        assert np.all(np.abs(U_red - U_ref) <= tol * row_scale)
        # clamped coordinates are exactly zero, not merely small
        assert not U_red[~free_sets].any()

    def test_singular_block_raises_naming_rows(self):
        # a singular G never reaches the step inside solve_nnls (it pivots
        # on a ridged copy), so a failed reduced solve is a hard error
        W = np.array([[1.0, 1.0], [1.0, 1.0]])
        A = np.array([[1.0, 1.0], [2.0, 0.5], [0.0, 3.0]])
        free = np.array([[True, True], [True, False], [True, True]])
        with pytest.raises(NumericalError, match=r"rows \[4, 6\]"):
            _reduced_solve(A @ W, W.T @ W, free, np.array([4, 5, 6]))
        # a row with nothing free between them is skipped, not named
        free[1] = False
        with pytest.raises(NumericalError, match=r"rows \[4, 6\]"):
            _reduced_solve(A @ W, W.T @ W, free, np.array([4, 5, 6]))

    @pytest.mark.parametrize("r", [1, 2])
    def test_compact_systems_give_the_padded_bytes_at_r_up_to_2(self, r):
        # a 1 x 1 free block inside a padded 2 x 2 system is eliminated by
        # the same operations as on its own, so at r <= 2 the compact
        # systems reproduce the padded ones bit for bit
        rng = np.random.default_rng(37 + r)
        n, p = 300, 12
        W = rng.uniform(size=(p, r))
        AW = (rng.uniform(size=(n, p)) * rng.uniform(0.1, 10.0, size=(n, 1))) @ W
        free = rng.uniform(size=(n, r)) < 0.6
        free[::7] = False
        assert len(set(free.sum(axis=1))) == r + 1
        x = _reduced_solve(AW, W.T @ W, free, np.arange(n))
        assert x.tobytes() == padded_reference(AW, W.T @ W, free).tobytes()

    def test_every_free_count_at_r_25_matches_per_row_solves(self):
        # free counts 0 to 25, three rows each, plus 40 rows with every
        # coordinate free, which cross a 26-row block at k = 25
        rng = np.random.default_rng(43)
        r, p = 25, 60
        W = rng.uniform(size=(p, r))
        G = W.T @ W
        counts = np.r_[np.repeat(np.arange(r + 1), 3), np.full(40, r)]
        free = np.zeros((counts.size, r), dtype=bool)
        for row, k in enumerate(rng.permutation(counts)):
            free[row, rng.choice(r, size=k, replace=False)] = True
        n = len(free)
        assert set(free.sum(axis=1)) == set(range(r + 1))
        AW = rng.uniform(size=(n, p)) @ W
        U_ref = np.zeros((n, r))
        for row in range(n):
            F = np.flatnonzero(free[row])
            if F.size:
                U_ref[row, F] = np.linalg.solve(G[np.ix_(F, F)], AW[row, F])
        U_red = _reduced_solve(AW, G, free, np.arange(n))
        tol = 100 * np.linalg.cond(G) * np.finfo(np.float64).eps
        row_scale = np.abs(U_ref).max(axis=1, keepdims=True)
        assert np.all(np.abs(U_red - U_ref) <= tol * row_scale)
        assert not U_red[~free].any()

    @pytest.mark.parametrize("density", [0.5, 1.0])
    def test_block_size_does_not_change_the_bytes(self, monkeypatch, density):
        # 16 floats per block: 16 rows at k = 1, 4 at k = 2, one row beyond
        rng = np.random.default_rng(47)
        n, p, r = 200, 10, 6
        W = rng.uniform(size=(p, r))
        AW = rng.uniform(size=(n, p)) @ W
        free = rng.uniform(size=(n, r)) < density
        x = _reduced_solve(AW, W.T @ W, free, np.arange(n))
        monkeypatch.setattr(nnls, "_SOLVE_FLOATS", 16)
        assert _reduced_solve(AW, W.T @ W, free, np.arange(n)).tobytes() == x.tobytes()

    def test_singular_blocks_in_two_free_counts_are_named_in_row_order(self):
        # columns 0 and 1 are equal: the 3 x 3 block of row 0 and the 2 x 2
        # block of row 3 are singular; rows 1, 2 and 4 are solvable or empty
        W = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0], [0.5, 0.5, 3.0]])
        A = np.random.default_rng(53).uniform(size=(5, 3))
        free = np.array([[True, True, True], [False, False, False], [False, False, True],
                         [True, True, False], [True, False, True]])
        with pytest.raises(NumericalError, match=r"rows \[10, 13\] "):
            _reduced_solve(A @ W, W.T @ W, free, np.arange(10, 15))

    def test_empty_free_sets_are_exact_zeros_without_lapack(self, monkeypatch):
        W = np.random.default_rng(1).uniform(size=(5, 3))
        AW = np.random.default_rng(2).uniform(size=(4, 5)) @ W

        def no_lapack(*args):
            raise AssertionError("LAPACK called for rows with nothing free")

        monkeypatch.setattr(np.linalg, "solve", no_lapack)
        x = _reduced_solve(AW, W.T @ W, np.zeros((4, 3), dtype=bool), np.arange(4))
        assert x.tobytes() == np.zeros((4, 3)).tobytes()


def padded_reference(AW, G, free):
    """Every row's reduced system padded to r x r: G_FF on the free block,
    an identity row and column with a zero right-hand side on each clamped
    coordinate, all rows in one batched LAPACK call."""
    systems = np.where(free[:, :, None] & free[:, None, :], G, np.eye(free.shape[1]))
    return np.linalg.solve(systems, np.where(free, AW, 0.0)[:, :, None])[:, :, 0]


def every_pass_pivoting(A, W, warm=None):
    """solve_nnls's block principal pivoting with no pass left out: the
    backup-rule pass, the compaction of the unfinished rows and the
    per-row solve of every row's compact free block, each with its own
    np.linalg.solve, run on every step. The passive set starts at
    warm > 0, or empty on a cold start, whose first step is then taken
    like any other. Shares only the ridge and the residual with the
    solver. Returns (U, dual_U, iterations, kkt_residual)."""
    G, AW = W.T @ W, A @ W
    G_pivot = nnls._pivot_gram(G)
    n, r = AW.shape
    passive = np.zeros((n, r), dtype=bool) if warm is None else np.asarray(warm) > 0.0
    U, support = np.zeros((n, r)), passive.copy()
    todo, fewest, tries = np.arange(n), np.full(n, r + 1), np.full(n, nnls._BACKUP_TRIES)
    iterations = 0
    while todo.size and iterations < nnls._MAX_PIVOTS:
        iterations += 1
        free = passive[todo]
        x = np.zeros((todo.size, r))
        for i, row in enumerate(todo):
            F = np.flatnonzero(free[i])
            if F.size:
                x[i, F] = np.linalg.solve(G_pivot[np.ix_(F, F)], AW[row, F])
        y = x @ G_pivot - AW[todo]
        U[todo], support[todo] = x, free
        infeasible = np.where(free, x < 0.0, y < 0.0)
        count = infeasible.sum(axis=1)
        improved = count < fewest
        full = improved | (tries > 0)
        fewest = np.minimum(fewest, count)
        tries = np.where(improved, nnls._BACKUP_TRIES, np.maximum(tries - 1, 0))
        single = np.flatnonzero(~full)
        last = r - 1 - np.argmax(infeasible[single, ::-1], axis=1)
        infeasible[single] = False
        infeasible[single, last] = True
        passive[todo] = free ^ infeasible
        keep = count > 0
        todo, fewest, tries = todo[keep], fewest[keep], tries[keep]
    U = np.maximum(U, 0.0)
    grad = U @ G - AW
    dual_U = np.where(support, 0.0, np.maximum(grad, 0.0))
    return U, dual_U, iterations, nnls._kkt_max(grad - dual_U, U, dual_U)


def pivoting_problem(name):
    """cold_start: 50 rows at r = 5; single_exchange: four rows on badly
    scaled columns (cond(W^T W) about 8e9), one of which runs out of full
    exchanges at step 6."""
    if name == "cold_start":
        rng = np.random.default_rng(0)
        W = rng.uniform(size=(20, 5))
        return rng.uniform(size=(50, 20)), W
    rng = np.random.default_rng(84)
    W = rng.normal(size=(6, 6)) * 10.0 ** rng.uniform(-3, 3, size=6)
    return rng.normal(size=(4, 6)), W


def warm_started_solves(monkeypatch):
    """(A, W, warm, solution) of every warm-started solve of one rank-6
    fit_nmf on planted sparse factors; they take one to four steps, and
    nearly all of them move the support they start from."""
    g = np.random.default_rng(6)
    factor = lambda n: g.uniform(size=(n, 6)) * (g.uniform(size=(n, 6)) < 0.4)
    A = factor(40) @ factor(30).T + g.uniform(0.0, 1e-3, size=(40, 30))
    calls = []

    def recorded(data, W, warm=None):
        sol = solve_nnls(data, W, warm=warm)
        if warm is not None:
            calls.append((np.array(data), np.array(W), np.array(warm), sol))
        return sol

    with monkeypatch.context() as patch:
        patch.setattr(nmf, "solve_nnls", recorded)
        fit_nmf(A, NmfParams(rank=6, outer_iters=40))
    assert len(calls) > 20 and max(sol.iterations for *_, sol in calls) == 4
    assert sum(((warm > 0) != (sol.U > 0)).any() for _, _, warm, sol in calls) > 20
    return calls


class TestLeanPivoting:
    """The pivot loop skips the passes that do nothing on a step, bit for bit."""

    @pytest.mark.parametrize("name", ["cold_start", "single_exchange"])
    def test_equals_the_every_pass_loop(self, name):
        A, W = pivoting_problem(name)
        sol = solve_nnls(A, W)
        U, dual_U, iterations, residual = every_pass_pivoting(A, W)
        assert sol.U.tobytes() == U.tobytes()
        assert sol.dual_U.tobytes() == dual_U.tobytes()
        assert sol.iterations == iterations
        assert sol.kkt_residual == residual
        assert sol.converged

    @pytest.mark.parametrize("budget", [None, 1, 2, 4])
    def test_warm_starts_of_a_factorization_equal_the_every_pass_loop(self, monkeypatch,
                                                                      budget):
        # fit_nmf warm-starts every solve from the previous iterate; its
        # solves, replayed at a step budget, against the loop started from
        # the same passive sets
        calls = warm_started_solves(monkeypatch)
        if budget is not None:
            monkeypatch.setattr(nnls, "_MAX_PIVOTS", budget)
        for A, W, warm, sol in calls:
            if budget is not None:
                sol = solve_nnls(A, W, warm=warm)
            U, dual_U, iterations, residual = every_pass_pivoting(A, W, warm)
            assert sol.U.tobytes() == U.tobytes()
            assert sol.dual_U.tobytes() == dual_U.tobytes()
            assert sol.iterations == iterations
            assert sol.kkt_residual == residual
        if budget is not None:
            # some of the solves reach the budget
            assert any(sol.iterations >= budget for *_, sol in calls)

    def test_warm_start_that_needs_the_backup_rule(self, monkeypatch):
        # started from the complement of the cold start's first passive
        # sets, a row of the single-exchange problem again runs out of
        # full exchanges
        A, W = pivoting_problem("single_exchange")
        warm = (A @ W < 0.0).astype(float)
        sol = solve_nnls(A, W, warm=warm)
        U, dual_U, iterations, residual = every_pass_pivoting(A, W, warm)
        assert (sol.U.tobytes(), sol.dual_U.tobytes()) == (U.tobytes(), dual_U.tobytes())
        assert sol.iterations == iterations and sol.kkt_residual == residual
        assert sol.converged
        monkeypatch.setattr(nnls, "_BACKUP_TRIES", nnls._MAX_PIVOTS)
        assert not solve_nnls(A, W, warm=warm).converged

    def test_single_exchange_problem_needs_the_backup_rule(self, monkeypatch):
        # with the backup rule out of reach the full exchanges cycle
        A, W = pivoting_problem("single_exchange")
        monkeypatch.setattr(nnls, "_BACKUP_TRIES", nnls._MAX_PIVOTS)
        assert not solve_nnls(A, W).converged


def cold_start_problem(name):
    """random_<seed>: 40 rows of normal data at r = 5, so some coordinates
    start with A W <= 0; rank_deficient: a repeated column, so the solve
    pivots on the ridged Gram matrix; nonpositive_rows: rows whose A W is
    zero or negative everywhere, which finish at the first step."""
    if name.startswith("random_"):
        rng = np.random.default_rng(int(name.split("_")[1]))
        return rng.normal(size=(40, 12)), rng.uniform(size=(12, 5))
    rng = np.random.default_rng(41)
    W = rng.uniform(size=(10, 4))
    if name == "rank_deficient":
        W[:, 3] = W[:, 1]
        return rng.normal(size=(30, 10)), W
    A = rng.normal(size=(30, 10))
    A[::3] = -rng.uniform(size=(10, 10))
    A[1] = 0.0
    return A, W


def assert_same_solution(a, b):
    assert a.U.tobytes() == b.U.tobytes()
    assert a.dual_U.tobytes() == b.dual_U.tobytes()
    assert (a.iterations, a.kkt_residual, a.converged, a.scale) == \
        (b.iterations, b.kkt_residual, b.converged, b.scale)


class TestColdStart:
    """A cold start's closed-form first step is the pivoting step it replaces."""

    @pytest.mark.parametrize("name", ["random_0", "random_1", "random_2", "random_3",
                                      "rank_deficient", "nonpositive_rows"])
    def test_equals_a_warm_start_from_zeros(self, name):
        A, W = cold_start_problem(name)
        if name == "rank_deficient":
            assert not np.array_equal(nnls._pivot_gram(W.T @ W), W.T @ W)
        cold = solve_nnls(A, W)
        assert_same_solution(cold, solve_nnls(A, W, warm=np.zeros((len(A), W.shape[1]))))
        assert cold.converged

    @pytest.mark.parametrize("budget", [1, 2, 4])
    def test_equals_a_warm_start_from_zeros_at_the_step_budget(self, monkeypatch, budget):
        # the single-exchange problem needs more than four steps; at the
        # budget every unfinished row keeps its last iterate, as in the
        # every-pass loop
        A, W = pivoting_problem("single_exchange")
        monkeypatch.setattr(nnls, "_MAX_PIVOTS", budget)
        cold = solve_nnls(A, W)
        assert_same_solution(cold, solve_nnls(A, W, warm=np.zeros_like(A)))
        U, dual_U, iterations, residual = every_pass_pivoting(A, W)
        assert (cold.U.tobytes(), cold.dual_U.tobytes()) == (U.tobytes(), dual_U.tobytes())
        assert cold.iterations == iterations == budget and cold.kkt_residual == residual
        assert not cold.converged

    def test_rows_with_nothing_positive_finish_at_zero(self):
        A, W = cold_start_problem("nonpositive_rows")
        zero_rows = np.r_[1, 0:len(A):3]
        assert not (A[zero_rows] @ W > 0.0).any()
        sol = solve_nnls(A, W)
        assert sol.U[zero_rows].tobytes() == np.zeros((len(zero_rows), 4)).tobytes()
        assert sol.U[2].any()
        # with every row finished by the closed-form step, it is the only one
        assert solve_nnls(A[zero_rows], W).iterations == 1


class TestProperties:
    def test_interior_solution_equals_unconstrained(self):
        rng = np.random.default_rng(3)
        hits = 0
        for _ in range(40):
            W, _ = np.linalg.qr(rng.normal(size=(4, 2)))  # well-conditioned columns
            U_true = rng.uniform(0.5, 2.0, size=(3, 2))
            A = U_true @ W.T
            sol = solve_nnls(A, W)
            if sol.U.min() > 1e-3:
                hits += 1
                U_ls = A @ W @ np.linalg.inv(W.T @ W)
                np.testing.assert_allclose(sol.U, U_ls, rtol=1e-8, atol=1e-10)
        assert hits >= 30  # construction makes interior the common case

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(5)
        A = rng.uniform(size=(5, 3))
        W = rng.uniform(size=(3, 2))
        perm = np.array([3, 0, 4, 1, 2])
        sol = solve_nnls(A, W)
        sol_p = solve_nnls(A[perm], W)
        np.testing.assert_allclose(sol_p.U, sol.U[perm], atol=1e-10)

    def test_batch_rows_match_individual_solves(self):
        # row separability: batched solves must agree with per-row solves,
        # which is what lets attribution maps stack their images into one
        # solve; rows differ in scale and in active set
        rng = np.random.default_rng(23)
        A = rng.uniform(size=(50, 4)) * rng.uniform(0.1, 10.0, size=(50, 1))
        W = rng.uniform(size=(4, 3))
        batch = solve_nnls(A, W)
        assert batch.converged
        target = nnls._KKT_TOL * np.abs(A @ W).max()
        assert batch.kkt_residual <= target
        assert len({row.tobytes() for row in batch.U > 0.0}) > 1
        for i in range(len(A)):
            single = solve_nnls(A[i:i + 1], W)
            np.testing.assert_allclose(batch.U[i], single.U[0], rtol=0, atol=1e-10)

    def test_extreme_data_scales(self):
        rng = np.random.default_rng(17)
        A = rng.uniform(size=(4, 3))
        W = rng.uniform(size=(3, 2))
        base = solve_nnls(A, W)
        for scale in (1e-8, 1e8):
            sol = solve_nnls(scale * A, scale * W)
            assert sol.converged
            # coefficients of the doubly-scaled problem are unchanged
            np.testing.assert_allclose(sol.U, base.U, rtol=1e-6, atol=1e-9)

    def test_rank_deficient_dictionary(self):
        A = np.array([[1.0, 1.0]])
        # identical columns make W^T W singular, so the pivoting runs on a
        # ridged copy; a zero column must be just as harmless
        for W in (np.array([[1.0, 1.0], [1.0, 1.0]]),
                  np.array([[1.0, 0.0], [1.0, 0.0]])):
            sol = solve_nnls(A, W)
            # reconstruction is what matters; the split between columns is not unique
            np.testing.assert_allclose(sol.U @ W.T, A, atol=1e-7)
            assert sol.kkt_residual < 1e-8 and sol.converged

    def test_warm_start_from_solution_takes_one_step(self):
        rng = np.random.default_rng(9)
        A = rng.uniform(size=(6, 4))
        W = rng.uniform(size=(4, 3))
        cold = solve_nnls(A, W)
        assert cold.iterations > 1
        # the converged support is feasible at once: one reduced solve on
        # the same support reproduces the solution bit for bit
        warm = solve_nnls(A, W, warm=cold.U)
        assert warm.iterations == 1 and warm.converged
        np.testing.assert_array_equal(warm.U, cold.U)
        np.testing.assert_array_equal(warm.dual_U, cold.dual_U)

    def test_objective_nonincreasing_along_iterations(self, monkeypatch):
        # objective at growing iteration caps, cold-started each time so the
        # sequence tracks the solver trajectory
        monkeypatch.setattr(nnls, "_KKT_TOL", 1e-14)
        rng = np.random.default_rng(13)
        for _ in range(5):
            A = rng.normal(size=(3, 4))
            W = rng.normal(size=(4, 2))
            objs = []
            for cap in (1, 2, 4, 8, 16, 32, 64, 128):
                monkeypatch.setattr(nnls, "_MAX_PIVOTS", cap)
                sol = solve_nnls(A, W)
                objs.append(nnls_objective(A, W, sol.U))
            diffs = np.diff(objs)
            assert np.all(diffs <= 1e-8 + 1e-12)

    def test_nonconvergence_is_flagged_not_raised(self, monkeypatch):
        monkeypatch.setattr(nnls, "_MAX_PIVOTS", 2)
        monkeypatch.setattr(nnls, "_KKT_TOL", 1e-14)
        rng = np.random.default_rng(1)
        sol = solve_nnls(rng.uniform(size=(3, 3)), rng.uniform(size=(3, 2)))
        assert isinstance(sol, NnlsSolution)
        assert not sol.converged

    def test_flags_are_plain_python_scalars(self, monkeypatch):
        # traces and sidecars serialize these with json, which rejects NumPy
        # scalars such as np.bool_
        rng = np.random.default_rng(2)
        for kkt_tol, max_pivots in ((1e-10, 200), (1e-8, 1)):
            monkeypatch.setattr(nnls, "_KKT_TOL", kkt_tol)
            monkeypatch.setattr(nnls, "_MAX_PIVOTS", max_pivots)
            sol = solve_nnls(rng.uniform(size=(4, 3)), rng.uniform(size=(3, 2)))
            assert type(sol.converged) is bool and type(sol.iterations) is int
            assert type(sol.kkt_residual) is float
            json.dumps({"converged": sol.converged, "iterations": sol.iterations,
                        "kkt": sol.kkt_residual})


class TestValidation:
    def test_no_rows_give_empty_converged_solution(self):
        sol = solve_nnls(np.zeros((0, 3)), np.ones((3, 2)))
        assert sol.U.shape == sol.dual_U.shape == (0, 2)
        assert sol.converged and sol.kkt_residual == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_nnls(np.ones((2, 3)), np.ones((4, 2)))

    @pytest.mark.parametrize("call, message", [
        (lambda: Gram.of(np.ones(3)), "W must be 2-D"),
        (lambda: solve_nnls(np.ones(2), np.ones((2, 1))), "A and W must be 2-D"),
        (lambda: solve_nnls(np.ones((3, 2)), np.ones((2, 1)), warm=np.ones((2, 1))),
         "warm start shape mismatch"),
    ], ids=["one_d_bank", "one_d_targets", "warm_of_other_rows"])
    def test_shapes_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_non_finite_input(self):
        with pytest.raises(DataError):
            solve_nnls(np.array([[np.nan, 1.0]]), np.ones((2, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("bank", ["full", "zero_column", "zero", "zero_single_column"])
    def test_non_finite_a_is_named_through_a_w(self, bad, bank):
        # A is scanned only once A W is non-finite; a zero column of W, or
        # W = 0, must not hide the bad entry (NaN * 0 and Inf * 0 are NaN)
        rng = np.random.default_rng(30)
        A = rng.uniform(size=(5, 4))
        A[2, 1] = bad
        W = {"full": rng.uniform(size=(4, 3)),
             "zero_column": np.column_stack([rng.uniform(size=(4, 2)), np.zeros(4)]),
             "zero": np.zeros((4, 3)),
             "zero_single_column": np.zeros((4, 1))}[bank]
        with pytest.raises(DataError, match="A contains NaN or Inf"):
            solve_nnls(A, W)
        with pytest.raises(DataError, match="A contains NaN or Inf"):
            solve_nnls(A[2:3], W, warm=np.ones((1, W.shape[1])))


def gram_problem(name):
    """(A, W) with a full-rank, duplicate-column or zero-column bank."""
    rng = np.random.default_rng(40)
    A, W = rng.normal(size=(30, 6)), rng.uniform(size=(6, 3))
    if name == "duplicate_columns":
        W[:, 2] = W[:, 0]
    elif name == "zero_column":
        W[:, 1] = 0.0
    return A, W


def counted_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a, *args: calls.append(1) or eigvalsh(a, *args))
    return calls


class TestGram:
    """A Gram built once stands in for its W, byte for byte."""

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("name", ["full_rank", "duplicate_columns", "zero_column"])
    def test_prebuilt_gram_gives_the_same_bytes(self, name, warm):
        A, W = gram_problem(name)
        start = np.ones((len(A), W.shape[1])) if warm else None
        gram = Gram.of(W)
        assert gram.full_rank == (name == "full_rank")
        assert (gram.pivot is gram.G) == gram.full_rank
        assert_same_solution(solve_nnls(A, gram, warm=start), solve_nnls(A, W, warm=start))

    def test_one_rank_test_for_many_solves(self, monkeypatch):
        calls = counted_eigvalsh(monkeypatch)
        A, W = gram_problem("full_rank")
        gram = Gram.of(W)
        for rows in (A[:1], A[1:5], A):
            solve_nnls(rows, gram)
        assert len(calls) == 1
        solve_nnls(A, W)
        assert len(calls) == 2

    @pytest.mark.parametrize("W, error, message", [
        (np.array([[1.0, np.nan], [1.0, 1.0]]), DataError, "W contains NaN or Inf"),
        (np.array([[np.inf, 1.0], [1.0, 1.0]]), DataError, "W contains NaN or Inf"),
        (np.zeros((2, 0)), ValueError, "W must have at least one column"),
        (np.full((2, 2), 1e160), DataError, "W^T W or A W overflows; rescale A and W"),
        (np.full((2, 2), 1e-170), DataError, "W^T W underflows"),
    ], ids=["nan", "inf", "no_columns", "overflow", "underflow"])
    def test_raises_what_solve_nnls_raises(self, W, error, message):
        with pytest.raises(error) as direct:
            solve_nnls(np.ones((1, 2)), W)
        with pytest.raises(error) as built:
            Gram.of(W)
        assert str(built.value) == str(direct.value)
        assert str(built.value).startswith(message)

    def test_array_path_keeps_its_error_order(self):
        # solve_nnls derives W's constants only after the rows' own checks:
        # no rows return before them, and a bad A is named first
        W = np.full((2, 2), 1e160)
        assert solve_nnls(np.zeros((0, 2)), W).U.shape == (0, 2)
        with pytest.raises(DataError, match="A contains NaN or Inf"):
            solve_nnls(np.array([[np.nan, 1.0]]), W)
