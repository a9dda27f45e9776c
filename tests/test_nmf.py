"""NMF fixtures with known optima plus objective-level properties.

Fitted factor identity is never asserted (the factorization is not
unique); only objectives, reconstructions, and the rank-1 case where the
leading singular pair of a nonnegative matrix is itself nonnegative, forcing
the optimum. The deterministic NNDSVD start is compared with an SVD oracle.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import craftkit
from craftkit import nmf, nnls
from craftkit.errors import DataError
from craftkit.nmf import NmfParams, fit_nmf, init_factors, transform
from craftkit.nnls import kkt_residual, nnls_objective
from craftkit.npyio import load_npy

from oracles import nndsvd_svd


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


def _rank_deficient_data(n, p, rank, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(size=(n, rank)) @ rng.uniform(size=(rank, p))


# (A, r, leading): `leading` singular pairs are above the Gram matrix's rank
# threshold; the SVD keeps the rest as noise pairs of relative size 1e-8
INIT_CASES = {
    "tall": (np.random.default_rng(20).uniform(size=(40, 12)), 4, 4),
    "wide": (np.random.default_rng(21).uniform(size=(12, 40)), 4, 4),
    "square": (np.random.default_rng(22).uniform(size=(15, 15)), 5, 5),
    "rank_deficient_wide": (_rank_deficient_data(30, 20, 3, 23), 5, 3),
    "rank_deficient_tall": (_rank_deficient_data(50, 8, 2, 24), 4, 2),
    "zero": (np.zeros((6, 4)), 3, 0),
}
INIT_SCALES = (1.0, 1e-70, 1e70, 1e-160, 1e-300)


class TestInitFactorsMatchesSvdOracle:
    # the Gram route and the thin SVD agree to 4.4e-14 of each factor's
    # largest entry on these cases; the pin leaves a margin of 20
    RTOL = 1e-12

    @pytest.mark.parametrize("scale", INIT_SCALES, ids=lambda s: f"{s:g}")
    @pytest.mark.parametrize("case", sorted(INIT_CASES))
    def test_leading_pairs_match_and_the_rest_stay_zero(self, case, scale):
        A, r, leading = INIT_CASES[case]
        A = scale * A
        U0, W0 = init_factors(A, r)
        U_ref, W_ref = nndsvd_svd(A, r)
        for got, ref in ((U0, U_ref), (W0, W_ref)):
            atol = self.RTOL * np.abs(ref).max(initial=0.0)
            np.testing.assert_allclose(got[:, :leading], ref[:, :leading], rtol=0, atol=atol)
            # below the rank threshold sigma counts as 0: the SVD's noise
            # pairs, at most 1e-7 of the factor, become exact zeros
            assert not got[:, leading:].any()
            assert np.abs(ref[:, leading:]).max(initial=0.0) <= 1e-7 * np.abs(ref).max()
        np.testing.assert_allclose(U0 @ W0.T, U_ref @ W_ref.T, rtol=0,
                                   atol=self.RTOL * np.abs(A).max(initial=0.0))

    def test_overflowing_square_norm_is_a_data_error_before_any_gram(self):
        # A A^T would overflow with a RuntimeWarning, which pytest turns
        # into an error; the squared norm is checked first
        with pytest.raises(DataError, match="overflows"):
            init_factors(1e160 * INIT_CASES["wide"][0], 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_is_named(self, bad):
        A = INIT_CASES["tall"][0].copy()
        A[3, 2] = bad
        with pytest.raises(DataError, match="NaN or Inf"):
            init_factors(A, 2)
        with pytest.raises(DataError, match="NaN or Inf"):
            fit_nmf(A, NmfParams(rank=2))


class TestFitNmf:
    @pytest.mark.parametrize("make, message", [
        (lambda: NmfParams(rank=2, outer_iters=0), "outer_iters must be at least 1"),
        (lambda: NmfParams(rank=2, objective_tol=0.0), "objective_tol must be positive"),
        (lambda: fit_nmf(np.ones((2, 3, 4)), NmfParams(rank=1)), "A must be 2-D"),
    ], ids=["no_outer_iters", "zero_tolerance", "three_d_matrix"])
    def test_rejects_bad_parameters_and_matrices(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_trace_and_steps_are_those_of_the_iterates(self, monkeypatch):
        # each outer iteration solves for U, then W, from an extrapolated W;
        # a trial that raises the objective is redone as the plain step from
        # the accepted pair. The trace holds the accepted pairs' objectives,
        # bit for bit those of nnls_objective, and nnls_steps sums the
        # pivoting steps of every solve, rejected trials included
        A = np.random.default_rng(25).uniform(size=(9, 6))
        calls = []

        def recorded(data, W, warm=None):
            calls.append((W, nnls.solve_nnls(data, W, warm=warm)))
            return calls[-1][1]

        monkeypatch.setattr(nmf, "solve_nnls", recorded)
        state = fit_nmf(A, NmfParams(rank=3, outer_iters=20))
        U0, W0 = init_factors(A, 3)
        expected = [nnls_objective(A, W0, U0)]
        W_accepted = W0
        pairs = iter(zip(calls[::2], calls[1::2]))
        rejected = 0
        for (_, sol_u), (_, sol_w) in pairs:
            obj = nnls_objective(A, sol_w.U, sol_u.U)
            if obj > expected[-1]:
                (W_redo, sol_u), (_, sol_w) = next(pairs)
                np.testing.assert_array_equal(W_redo, W_accepted)
                obj = nnls_objective(A, sol_w.U, sol_u.U)
                rejected += 1
            expected.append(obj)
            W_accepted = sol_w.U
        assert rejected >= 1
        assert list(state.objective_trace) == expected
        assert state.nnls_steps == sum(sol.iterations for _, sol in calls)
        assert type(state.nnls_steps) is int and state.nnls_steps >= len(calls)

    def test_kkt_residual_is_that_of_both_solves(self):
        A = np.random.default_rng(26).uniform(size=(9, 6))
        state = fit_nmf(A, NmfParams(rank=3, outer_iters=20))
        expected = max(kkt_residual(A, state.W, state.U, state.dual_U),
                       kkt_residual(A.T, state.U, state.W, state.dual_W))
        assert state.kkt_residual == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_multipliers_are_those_of_the_returned_pair(self, monkeypatch):
        # the last kept step solved for U against an extrapolated W, yet the
        # multipliers are the returned pair's gradients, zero on the support
        # and clipped at zero off it
        A = np.random.default_rng(29).uniform(size=(30, 20))
        calls = []

        def recorded(data, W, warm=None):
            calls.append((W, nnls.solve_nnls(data, W, warm=warm)))
            return calls[-1][1]

        monkeypatch.setattr(nmf, "solve_nnls", recorded)
        state = fit_nmf(A, NmfParams(rank=5, outer_iters=60))
        last_u_against = calls[-2][0]
        assert not any(np.array_equal(last_u_against, sol.U) for _, sol in calls[1::2])
        residual = state.U @ state.W.T - A
        for factor, grad, dual in ((state.U, residual @ state.W, state.dual_U),
                                   (state.W, residual.T @ state.U, state.dual_W)):
            assert (factor > 0).any() and (factor == 0).any()
            expected = np.where(factor > 0, 0.0, np.maximum(grad, 0.0))
            np.testing.assert_allclose(dual, expected, rtol=1e-12,
                                       atol=1e-14 * np.abs(grad).max())

    def test_exact_factorization_is_found(self):
        U_true = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        W_true = np.array([[1.0, 0.0], [0.0, 2.0]])
        A = U_true @ W_true.T
        state = fit_nmf(A, NmfParams(rank=2))
        assert state.objective_trace[-1] < 1e-6

    def test_floor_is_on_the_residual_norm(self):
        # a floor on squares at objective_tol 1e-4 stops these exact rank-2
        # fits mid-descent, at relative errors between 0.57 and 0.98 %
        for seed in range(6):
            g = np.random.default_rng(seed)
            A = g.uniform(size=(400, 2)) @ np.array([[1.0, 0.6], [0.6, 1.0]])
            state = fit_nmf(A, NmfParams(rank=2, objective_tol=1e-4))
            assert state.converged
            assert np.linalg.norm(A - state.U @ state.W.T) < 1e-3 * np.linalg.norm(A)

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

    def test_trace_monotone_where_extrapolation_is_rejected(self, monkeypatch):
        # a rejected trial is redone as the plain step from the accepted
        # pair, so the trace never rises, even by rounding
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return nnls.solve_nnls(*args, **kwargs)

        monkeypatch.setattr(nmf, "solve_nnls", counted)
        rng = np.random.default_rng(27)
        for shape, r in (((6, 4), 2), ((9, 6), 3), ((30, 20), 5)) * 3:
            calls.clear()
            state = fit_nmf(rng.uniform(size=shape), NmfParams(rank=r, outer_iters=60))
            trace = np.array(state.objective_trace)
            # two solves per outer iteration, two more per rejected trial
            assert len(calls) // 2 > len(trace) - 1
            assert np.all(np.diff(trace) <= 0.0)

    def test_repeated_fits_are_byte_identical(self):
        A = np.random.default_rng(28).uniform(size=(40, 30))
        first, second = (fit_nmf(A, NmfParams(rank=5)) for _ in range(2))
        for field in dataclasses.fields(first):
            a, b = getattr(first, field.name), getattr(second, field.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field.name
            else:
                assert a == b, field.name

    def test_dense_planted_factorization_converges(self):
        # dense exact factors: plain alternating solves crawl along a flat
        # valley and run out of 200 outer iterations at objective 23.0
        g = np.random.default_rng(0)
        A = g.uniform(size=(300, 10)) @ g.uniform(size=(10, 512))
        state = fit_nmf(A, NmfParams(rank=10, objective_tol=2e-7))
        assert state.converged
        assert len(state.objective_trace) - 1 < 200
        assert state.objective_trace[-1] < 1e-6 * 0.5 * np.sum(A * A)

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


# a planted 600 x 2048 rank-10 fit at the --activations tolerance, as a
# child process: sparse uniform factors W, then U, from Rng(0, stream=1),
# plus U(0, 1e-2) noise from Rng(3, stream=1). argv: the source directory
# and where to write W.npy and U.npy; prints the outer iterations and steps
_PLANTED_FIT = """
import sys
sys.path.insert(0, sys.argv[1])
from craftkit.cli import _MATRIX_TOL
from craftkit.core import Rng
from craftkit.nmf import NmfParams, fit_nmf
from craftkit.npyio import save_npy
fixed = Rng(0, stream=1).generator()
W = fixed.uniform(size=(2048, 10)) * (fixed.uniform(size=(2048, 10)) < 0.3)
U = fixed.uniform(size=(600, 10)) * (fixed.uniform(size=(600, 10)) < 0.3)
A = U @ W.T + Rng(3, stream=1).generator().uniform(0.0, 1e-2, size=(600, 2048))
state = fit_nmf(A, NmfParams(rank=10, objective_tol=_MATRIX_TOL))
save_npy(state.W, sys.argv[2] + "/W.npy")
save_npy(state.U, sys.argv[2] + "/U.npy")
print(len(state.objective_trace) - 1, state.nnls_steps)
"""


def test_blas_thread_counts_move_a_fit_only_in_its_last_bits(tmp_path):
    # the same fit under one and two OpenBLAS threads: the same outer
    # iterations and NNLS steps, and factors that differ by 1.8e-15 relative
    # to their largest entry (not byte-equal: the threads split reductions)
    src = str(Path(craftkit.__file__).resolve().parents[1])
    runs = []
    for threads in (1, 2):
        out = tmp_path / f"threads_{threads}"
        out.mkdir()
        result = subprocess.run(
            [sys.executable, "-c", _PLANTED_FIT, src, str(out)], capture_output=True,
            check=True, text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS=str(threads)))
        runs.append((result.stdout.split(), [load_npy(out / f"{f}.npy") for f in "WU"]))
    (counts, factors), (counts_2, factors_2) = runs
    assert counts == counts_2
    worst = max(np.abs(a - b).max() / np.abs(a).max() for a, b in zip(factors, factors_2))
    print(f"outer iterations and NNLS steps {counts}; largest relative "
          f"difference in W and U {worst:.2e}")
    assert worst <= 5e-15


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
