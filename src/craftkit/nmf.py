"""Non-negative matrix factorization A ~ U W^T by alternating NNLS solves.

Both factor updates reuse the block principal pivoting NNLS solver (the W
step solves the transposed problem), each warm-started from the support of
the previous outer iteration, so a solve whose support did not move ends
after one reduced solve. Plain alternation crawls along flat valleys of the
objective, so each outer iteration first solves for U against an
extrapolated W, max(0, W + beta (W - W_prev)) (Ang and Gillis,
"Accelerating nonnegative matrix factorization algorithms using
extrapolation", Neural Computation 31(2), 2019), then for W against that U.
The pair is kept when it does not raise the objective, and beta grows;
otherwise beta shrinks and the iteration takes the plain step from the last
kept pair instead, whose exact updates cannot raise it, so the objective
trace is non-increasing. The start is always NNDSVD, which is
deterministic, so repeated fits are bit-identical; it reads the leading
singular triplets off the smaller Gram matrix of the data, A A^T or A^T A,
instead of a full SVD. Outside the solves, a fit touches the n x p data
only through one n x p buffer, reused for every objective evaluation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .nnls import _kkt_max, _rank_deficient, solve_nnls

# below this largest entry, fit_nmf works on A scaled to unit size
_SMALL_DATA = 2.0 ** -256

# extrapolation of the outer step (Ang and Gillis, Neural Computation
# 31(2), 2019): the starting weight beta; its growth after a kept step;
# the growth of its cap, which never exceeds 1; and its shrink after a
# rejected step, when the cap falls to the rejected weight
_BETA = 0.5
_GROW = 1.05
_GROW_MAX = 1.01
_SHRINK = 1.5


@dataclass(frozen=True)
class NmfParams:
    """Factorization knobs.

    Every fit starts from the deterministic NNDSVD factors of init_factors.
    The outer loop stops once the per-iteration decrease falls below
    objective_tol relative to the starting objective, or once the residual's
    norm is below objective_tol relative to the data's norm.
    outer_iters bounds the kept steps; an iteration whose extrapolated step
    is rejected runs four NNLS solves instead of two.
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
    dual_U and dual_W are the multipliers of the returned pair: the
    gradients (U W^T - A) W and (U W^T - A)^T U, zero where the factor is
    positive and clipped at zero elsewhere. kkt_residual is scored from
    the same arrays.
    objective_trace starts at the initialization objective and appends the
    objective of the pair each outer iteration keeps; nnls_steps sums the
    pivoting steps of every NNLS solve of the fit, rejected extrapolated
    steps included.
    """

    U: np.ndarray
    W: np.ndarray
    dual_U: np.ndarray
    dual_W: np.ndarray
    objective_trace: tuple
    converged: bool
    kkt_residual: float
    column_norms: np.ndarray
    nnls_steps: int


def _nndsvd(A, r):
    """Deterministic NNDSVD start (Boutsidis and Gallopoulos, Pattern
    Recognition 41, 2008) from the r leading singular triplets of A.

    The triplets come from the eigenvectors of the smaller of A A^T and
    A^T A; the other singular vectors are A v / sigma. An eigenvalue at or
    below that Gram matrix's rank threshold counts as sigma = 0, and its
    columns stay zero. Each singular pair is split into its positive and
    negative parts and the dominant pair is kept, scaled to preserve the
    singular value's energy. The leading pair of a nonnegative matrix is
    nonnegative up to sign, so taking magnitudes there is exact.
    """
    n, p = A.shape
    wide = n <= p
    eigvals, vectors = np.linalg.eigh(A @ A.T if wide else A.T @ A)
    leading = eigvals[::-1][:r]
    k = int(np.count_nonzero(~_rank_deficient(leading, eigvals[-1], len(eigvals))))
    sigma = np.sqrt(leading[:k])
    V = vectors[:, ::-1][:, :k]
    other = (A.T @ V if wide else A @ V) / sigma
    P, Q = (V, other) if wide else (other, V)
    U0 = np.zeros((n, r))
    W0 = np.zeros((p, r))
    for j in range(k):
        x, y = P[:, j], Q[:, j]
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


def _checked_squared_norm(A, r, out=None):
    """Check A for a rank-r fit and return ||A||_F^2, its squares formed
    in out.

    The squared norm is taken first: it is finite only when every entry
    of A is, so A is scanned for NaN or Inf only when it is not. It is
    also checked before any Gram matrix of A is formed, so that an
    overflow raises DataError instead of a warning.
    """
    if A.ndim != 2:
        raise ValueError("A must be 2-D")
    n, p = A.shape
    if not 1 <= r <= min(n, p):
        raise ValueError(f"rank {r} outside 1..min(n, p) = {min(n, p)}")
    with np.errstate(over="ignore"):
        total = float(np.sum(np.square(A, out=out)))
    if not np.isfinite(total) and not np.all(np.isfinite(A)):
        raise DataError("A contains NaN or Inf")
    if A.min() < 0:
        raise DataError("A must be elementwise nonnegative")
    if not np.isfinite(total):
        raise DataError("the squared norm of A overflows; rescale A")
    return total


def init_factors(A, r):
    """NNDSVD starting factors (U0 n x r, W0 p x r) for fit_nmf.

    Data whose largest entry is below 2^-256 are started at unit scale,
    as fit_nmf fits them, and both factors are scaled back by the square
    root of that power of two.
    """
    A = np.asarray(A, dtype=np.float64)
    shift = _unit_scale_shift(A)
    scaled = np.ldexp(A, shift) if shift else A
    _checked_squared_norm(scaled, r)
    U0, W0 = _nndsvd(scaled, r)
    back = 2.0 ** (-shift / 2)
    return U0 * back, W0 * back


def _unit_scale_shift(A):
    """The power of two bringing A's largest magnitude into [0.5, 1) when
    it is below _SMALL_DATA; 0 otherwise, and for empty or non-finite A."""
    top = max(float(np.max(A, initial=0.0)), -float(np.min(A, initial=0.0)))
    return -int(np.frexp(top)[1]) if 0.0 < top < _SMALL_DATA else 0


def _objective(A, W, U, out):
    """nnls_objective(A, W, U), bit for bit, formed in the n x p buffer out."""
    np.matmul(U, W.T, out=out)
    np.subtract(A, out, out=out)
    np.square(out, out=out)
    return 0.5 * float(np.sum(out))


def fit_nmf(A, params):
    """Alternate NNLS solves for U and W until the objective stalls.

    Each outer iteration solves for U against the extrapolated W of the
    module docstring, warm-started from the kept U, then for W, warm-started
    from the kept W. When that pair raises the objective above the last
    kept one, the two solves are redone from the kept pair without
    extrapolation. The first iteration has no previous W, so its step is
    plain. The stall and floor tests compare kept objectives, and the
    convergence flag is that of the returned pair's solves. The multipliers
    and the KKT residual are those of the returned pair itself, read off its
    residual; after an extrapolated step, the U solve's own multipliers
    belong to the extrapolated W instead.

    Besides the solves, each outer iteration touches the n x p data only to
    score the objective, in one buffer allocated per fit, which also holds
    the squares of the data norm and the final residual for the KKT check.

    Data whose largest entry is below 2^-256 (about 1e-77) are fitted
    scaled by the power of two that brings that entry into [0.5, 1), and
    the factors and objectives are scaled back by the same power. There
    the stall test would otherwise compare objective decreases that are
    subnormal, and stop at another outer iteration than at unit scale.
    Other data are fitted as given.

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
    buffer = np.empty(A.shape)
    data_scale = 0.5 * _checked_squared_norm(scaled, params.rank, buffer)
    U, W = _nndsvd(scaled, params.rank)

    trace = [_objective(scaled, W, U, buffer)]

    # two ways to finish early: the decrease stalls relative to the overall
    # objective scale, or the residual's norm becomes negligible relative to
    # the data's (an essentially exact factorization keeps creeping). It
    # compares norms: a floor on squares at objective_tol (a 1 % error at
    # 1e-4) stops an extrapolated fit of an exactly factorizable matrix
    # mid-descent, anywhere between 0.7 and 1 %, a few iterations before it
    # reaches rounding level
    stall = params.objective_tol * max(trace[0], 1e-300)
    floor = params.objective_tol ** 2 * data_scale
    converged = False
    steps = 0
    W_prev = W
    beta, beta_max = _BETA, 1.0
    for _ in range(params.outer_iters):
        W_hat = np.maximum(W + beta * (W - W_prev), 0.0)
        sol_u = solve_nnls(scaled, W_hat, warm=U)
        sol_w = solve_nnls(scaled.T, sol_u.U, warm=W)
        steps += sol_u.iterations + sol_w.iterations
        obj = _objective(scaled, sol_w.U, sol_u.U, buffer)
        if obj <= trace[-1]:
            beta, beta_max = min(beta_max, _GROW * beta), min(1.0, _GROW_MAX * beta_max)
        else:
            # the extrapolated step raised the objective: take the plain
            # step from the kept pair, and extrapolate less from now on
            beta, beta_max = beta / _SHRINK, beta
            sol_u = solve_nnls(scaled, W, warm=U)
            sol_w = solve_nnls(scaled.T, sol_u.U, warm=W)
            steps += sol_u.iterations + sol_w.iterations
            obj = _objective(scaled, sol_w.U, sol_u.U, buffer)
        W_prev, U, W = W, sol_u.U, sol_w.U
        trace.append(obj)
        if abs(trace[-2] - obj) <= stall or obj <= floor:
            converged = sol_u.converged and sol_w.converged
            break

    norms = np.linalg.norm(W, axis=0)
    safe = np.where(norms > 0, norms, 1.0)
    W = W / safe
    U = U * safe

    # back to the scale of A: U scales with A, the objectives with its square
    U = np.ldexp(U, -shift)
    trace = [math.ldexp(obj, -2 * shift) for obj in trace]

    # both blocks' multipliers and KKT residual from the one residual U W^T - A
    residual = np.subtract(np.matmul(U, W.T, out=buffer), A, out=buffer)
    grad_U, grad_W = residual @ W, residual.T @ U
    dual_U = np.where(U > 0, 0.0, np.maximum(grad_U, 0.0))
    dual_W = np.where(W > 0, 0.0, np.maximum(grad_W, 0.0))
    kkt = max(_kkt_max(grad_U - dual_U, U, dual_U),
              _kkt_max(grad_W - dual_W, W, dual_W))
    return FactorizationState(U=U, W=W, dual_U=dual_U, dual_W=dual_W,
                              objective_trace=tuple(trace), converged=converged,
                              kkt_residual=kkt, column_norms=norms,
                              nnls_steps=steps)


def transform(A_new, W):
    """Express new rows in a fixed bank: argmin_{u>=0} 0.5*||A_new - u W^T||^2.

    Returns the m x r coefficient matrix (row-separable NNLS). A_new and W
    must be 2-D with matching inner sizes, else ValueError.
    """
    return solve_nnls(A_new, W).U
