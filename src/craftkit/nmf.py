"""Non-negative matrix factorization A ~ U W^T by alternating NNLS solves.

Both factor updates reuse the block principal pivoting NNLS solver (the W
step solves the transposed problem), each warm-started from the support of
the previous outer iteration, so a solve whose support did not move ends
after one reduced solve. Each update is exact to rounding, which makes the
objective non-increasing. The start is always NNDSVD, which is
deterministic, so repeated fits are bit-identical.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .nnls import kkt_residual, nnls_objective, solve_nnls

# below this largest entry, fit_nmf works on A scaled to unit size
_SMALL_DATA = 2.0 ** -256


@dataclass(frozen=True)
class NmfParams:
    """Factorization knobs.

    Every fit starts from the deterministic NNDSVD factors of init_factors.
    The outer loop stops once the per-iteration decrease falls below
    objective_tol relative to the starting objective, or once the residual
    itself is below objective_tol relative to the data's squared norm.
    """

    rank: int
    outer_iters: int = 200
    objective_tol: float = 1e-9

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if self.outer_iters < 1:
            raise ValueError("outer_iters must be at least 1")
        if self.objective_tol <= 0:
            raise ValueError("objective_tol must be positive")


@dataclass(frozen=True)
class FactorizationState:
    """Primal and dual variables of a finished fit.

    W columns are unit Euclidean norm with the original scales recorded in
    column_norms and absorbed into U, so banks compare by cosine directly.
    objective_trace starts at the initialization objective and appends one
    value per outer iteration.
    """

    U: np.ndarray
    W: np.ndarray
    dual_U: np.ndarray
    dual_W: np.ndarray
    objective_trace: tuple
    converged: bool
    kkt_residual: float
    column_norms: np.ndarray


def _nndsvd(A, r):
    """Deterministic SVD-based nonnegative initialization.

    Each singular pair is split into its positive and negative parts and the
    dominant pair is kept, scaled to preserve the singular value's energy.
    The leading pair of a nonnegative matrix is nonnegative up to sign, so
    taking magnitudes there is exact.
    """
    n, p = A.shape
    U0 = np.zeros((n, r))
    W0 = np.zeros((p, r))
    P, sigma, Qt = np.linalg.svd(A, full_matrices=False)
    k = min(r, len(sigma))
    for j in range(k):
        if sigma[j] <= 0:
            break
        x, y = P[:, j], Qt[j, :]
        if j == 0:
            xs, ys = np.abs(x), np.abs(y)
            scale = 1.0
        else:
            xp, xn = np.maximum(x, 0), np.maximum(-x, 0)
            yp, yn = np.maximum(y, 0), np.maximum(-y, 0)
            mp = np.linalg.norm(xp) * np.linalg.norm(yp)
            mn = np.linalg.norm(xn) * np.linalg.norm(yn)
            if max(mp, mn) == 0:
                continue
            if mp >= mn:
                xs, ys, scale = xp / np.linalg.norm(xp), yp / np.linalg.norm(yp), mp
            else:
                xs, ys, scale = xn / np.linalg.norm(xn), yn / np.linalg.norm(yn), mn
        U0[:, j] = np.sqrt(sigma[j] * scale) * xs
        W0[:, j] = np.sqrt(sigma[j] * scale) * ys
    return U0, W0


def init_factors(A, r):
    """NNDSVD starting factors (U0 n x r, W0 p x r) for fit_nmf."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError("A must be 2-D")
    n, p = A.shape
    if not 1 <= r <= min(n, p):
        raise ValueError(f"rank {r} outside 1..min(n, p) = {min(n, p)}")
    if not np.all(np.isfinite(A)):
        raise DataError("A contains NaN or Inf")
    if A.size and A.min() < 0:
        raise DataError("A must be elementwise nonnegative")
    return _nndsvd(A, r)


def _unit_scale_shift(A):
    """The power of two bringing A's largest entry into [0.5, 1) when that
    entry is below _SMALL_DATA; 0 otherwise, and for empty or non-finite A."""
    top = float(np.abs(A).max(initial=0.0))
    return -int(np.frexp(top)[1]) if 0.0 < top < _SMALL_DATA else 0


def fit_nmf(A, params):
    """Alternate NNLS solves for U and W until the objective stalls.

    Data whose largest entry is below 2^-256 (about 1e-77) are fitted
    scaled by the power of two that brings that entry into [0.5, 1), and
    the factors, multipliers and objectives are scaled back by the same
    power. There the stall test would otherwise compare objective
    decreases that are subnormal, and stop at another outer iteration than
    at unit scale. Other data are fitted as given.

    Parameters
    ----------
    A : ndarray, n x p, nonnegative
    params : NmfParams

    Returns
    -------
    FactorizationState
        converged is False when the outer budget ran out before the
        objective stalled; the best iterate is still returned.
    """
    A = np.asarray(A, dtype=np.float64)
    shift = _unit_scale_shift(A)
    scaled = np.ldexp(A, shift) if shift else A
    U, W = init_factors(scaled, params.rank)
    with np.errstate(over="ignore"):
        data_scale = 0.5 * float(np.sum(scaled * scaled))
    if not np.isfinite(data_scale):
        raise DataError("the squared norm of A overflows; rescale A")

    trace = [nnls_objective(scaled, W, U)]

    # two ways to finish early: the decrease stalls relative to the overall
    # objective scale, or the residual itself becomes negligible relative to
    # the data (an essentially exact factorization keeps creeping forever)
    stall = params.objective_tol * max(trace[0], 1e-300)
    floor = params.objective_tol * data_scale
    converged = False
    for _ in range(params.outer_iters):
        sol_u = solve_nnls(scaled, W, warm=U)
        U = sol_u.U
        sol_w = solve_nnls(scaled.T, U, warm=W)
        W = sol_w.U
        obj = nnls_objective(scaled, W, U)
        trace.append(obj)
        if abs(trace[-2] - obj) <= stall or obj <= floor:
            converged = sol_u.converged and sol_w.converged
            break

    dual_U, dual_W = sol_u.dual_U, sol_w.dual_U
    norms = np.linalg.norm(W, axis=0)
    safe = np.where(norms > 0, norms, 1.0)
    W = W / safe
    U = U * safe
    dual_U = dual_U / safe
    dual_W = dual_W * safe

    # back to the scale of A: U and its multipliers scale with A,
    # W's multipliers and the objectives with its square
    U, dual_U = np.ldexp(U, -shift), np.ldexp(dual_U, -shift)
    dual_W = np.ldexp(dual_W, -2 * shift)
    trace = [math.ldexp(obj, -2 * shift) for obj in trace]

    residual = max(kkt_residual(A, W, U, dual_U), kkt_residual(A.T, U, W, dual_W))
    return FactorizationState(U=U, W=W, dual_U=dual_U, dual_W=dual_W,
                              objective_trace=tuple(trace), converged=converged,
                              kkt_residual=residual, column_norms=norms)


def transform(A_new, W):
    """Express new rows in a fixed bank: argmin_{u>=0} 0.5*||A_new - u W^T||^2.

    Returns the m x r coefficient matrix (row-separable NNLS). A_new and W
    must be 2-D with matching inner sizes, else ValueError.
    """
    return solve_nnls(A_new, W).U
