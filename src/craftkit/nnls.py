"""Non-negative least squares min_{U>=0} 0.5 * ||A - U W^T||_F^2 by ADMM.

The problem is separable over the rows of A, and every row shares the same
r x r Gram system, so all rows are iterated together. The splitting keeps a
smooth iterate, a projected iterate that is exactly nonnegative, and a
scaled dual whose limit recovers the multipliers of the nonnegativity
constraints, which downstream implicit differentiation requires. The smooth
update is one factored r x r solve per system: the regularized Gram matrix
W^T W + rho*I is fixed for the whole solve, so it is inverted once and every
iteration is a single matrix product (the factorization caching of Boyd et
al., "Distributed Optimization and Statistical Learning via ADMM", 2011,
section 4.2.3). Convergence checks work in Gram form, from W^T W and A W,
so they never rebuild the n x p residual; the active-set polish solves
every row's reduced system in one batched call.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError

# fixed over-relaxation factor; any value in (0, 2) converges and ~1.7 is
# the usual sweet spot, roughly halving the iteration count
_RELAX = 1.7

# matrix entries per batched polish solve: the n x r x r stack of padded
# systems goes through in row blocks of this many floats (128 KiB)
_POLISH_FLOATS = 1 << 14

# quadratic penalty coupling the smooth and projected iterates, in units of
# the mean Gram diagonal (see _effective_rho)
_RHO = 1.0


@dataclass(frozen=True)
class AdmmParams:
    """Solver knobs: an iteration budget and one stopping tolerance.

    tol is the infinity-norm threshold of both the primal and the dual
    residual, relative to iterate scale, and of the worst KKT violation,
    relative to gradient scale. The penalty is fixed, _RHO times the mean
    Gram diagonal. The linear algebra needs no knobs: the smooth subproblem
    is one factored r x r solve per system and the polish one batched solve
    of every row's reduced system, both exact to rounding.
    """

    max_iters: int = 20000
    tol: float = 1e-8

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


def _effective_rho(W):
    """Penalty actually applied: _RHO times the mean Gram diagonal.

    Anchoring the penalty to trace(W^T W)/r makes the contraction rate
    independent of the data scale and of the row count of the coupled
    factor; it is fixed per solve, never adapted between iterations.
    """
    scale = float(np.einsum("ij,ij->", W, W)) / W.shape[1]
    return _RHO * max(scale, 1e-12)


@dataclass(frozen=True)
class NnlsSolution:
    """Primal/dual output of one NNLS solve.

    U is exactly nonnegative (post-projection); dual_U holds the multipliers
    of U >= 0. At convergence the two have complementary supports up to the
    solver tolerance, which kkt_residual reports as a single number.
    """

    U: np.ndarray
    dual_U: np.ndarray
    iterations: int
    kkt_residual: float
    converged: bool


def solve_nnls(A, W, params=None, warm=None):
    """Solve min_{U>=0} 0.5 * ||A - U W^T||_F^2 for U (n x r).

    Parameters
    ----------
    A : ndarray, n x p
        Targets, one problem per row. Must be finite.
    W : ndarray, p x r
        Fixed dictionary; full column rank is not required because the
        regularized Gram matrix W^T W + rho*I is always positive definite.
    params : AdmmParams, optional
    warm : NnlsSolution, optional
        Feasible starting pair (U, dual_U), e.g. the previous outer iterate
        of an alternating factorization.

    Returns
    -------
    NnlsSolution
        Non-convergence is reported through the ``converged`` flag on the
        best iterate, not as an exception.
    """
    params = params or AdmmParams()
    A = np.asarray(A, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if A.ndim != 2 or W.ndim != 2:
        raise ValueError("A and W must be 2-D")
    if A.shape[1] != W.shape[0]:
        raise ValueError(f"A has {A.shape[1]} columns but W has {W.shape[0]} rows")
    if not np.all(np.isfinite(A)):
        raise DataError("A contains NaN or Inf")
    n, _ = A.shape
    r = W.shape[1]
    if r < 1:
        raise ValueError("W must have at least one column")

    rho = _effective_rho(W)
    G = W.T @ W
    # eigenvalues of S lie in [rho, rho + trace(G)], so at _RHO = 1 its
    # condition number is at most r + 1 and the explicit inverse is accurate
    S_inv = np.linalg.inv(G + rho * np.eye(r))
    AW = A @ W

    if warm is not None:
        if warm.U.shape != (n, r) or warm.dual_U.shape != (n, r):
            raise ValueError("warm start shape mismatch")
        U = np.maximum(warm.U, 0.0)
        V = -warm.dual_U / rho
    else:
        U = np.zeros((n, r))
        V = np.zeros((n, r))
    if n == 0:
        return NnlsSolution(U=U, dual_U=np.zeros((0, r)), iterations=0,
                            kkt_residual=0.0, converged=True)

    # solutions count as converged once the worst KKT violation falls below
    # the stopping tolerance at gradient scale; no unit floor here, or
    # tiny-scale problems would accept arbitrary iterates
    kkt_target = params.tol * max(np.abs(AW).max(), 1e-300)
    check_every = 25
    best = None

    converged = False
    iterations = 0
    for iterations in range(1, params.max_iters + 1):
        U_smooth = (AW + rho * (U - V)) @ S_inv
        U_mix = _RELAX * U_smooth + (1.0 - _RELAX) * U
        U_next = np.maximum(U_mix + V, 0.0)
        r_primal = np.abs(U_smooth - U_next).max()
        r_dual = rho * np.abs(U_next - U).max()
        V += U_mix - U_next
        U = U_next
        # standard ADMM stopping: the tolerance relative to iterate scale,
        # floored at its absolute value for unit-scale problems
        scale_primal = max(1.0, np.abs(U_smooth).max(), np.abs(U).max())
        scale_dual = max(1.0, rho * np.abs(V).max())
        admm_converged = (r_primal <= params.tol * scale_primal
                          and r_dual <= params.tol * scale_dual)
        if admm_converged or iterations % check_every == 0:
            # ADMM pins the active set long before its iterates are sharp;
            # an exact solve on that support usually finishes the job early
            candidate = min(_admm_candidate(AW, G, U, V, rho),
                            _polish_active_set(AW, G, U), key=lambda c: c[2])
            if best is None or candidate[2] < best[2]:
                best = candidate
            if admm_converged or best[2] <= kkt_target:
                converged = True
                break

    if best is None:
        best = min(_admm_candidate(AW, G, U, V, rho),
                   _polish_active_set(AW, G, U), key=lambda c: c[2])
    U, dual_U, residual = best
    return NnlsSolution(U=U, dual_U=dual_U, iterations=iterations,
                        kkt_residual=residual, converged=converged)


def _admm_candidate(AW, G, U, V, rho):
    """The projected ADMM iterate with the multipliers its scaled dual implies."""
    dual = np.maximum(-rho * V, 0.0)
    return U, dual, _kkt_max(U @ G - AW - dual, U, dual)


def _polish_active_set(AW, G, U):
    """Re-solve the reduced least squares on the support ADMM identified.

    ADMM pins the active set long before its iterates are accurate, so one
    exact solve of each row's reduced Gram system G_FF u_F = (A W)_F reaches
    machine precision cheaply. All rows are solved by one batched LAPACK
    call over r x r systems: the free block of a row's system is G_FF, and
    each clamped coordinate gets an identity row and column with a zero
    right-hand side. Rows go through in blocks of _POLISH_FLOATS matrix
    entries (at least one row), so the stack of systems stays small. The
    caller keeps the polish only when its KKT residual actually improves,
    so a misidentified support is harmless; a singular block (a bank with
    dependent columns) yields an infinite residual for the same reason.
    """
    n, r = U.shape
    inactive = U > 0.0
    U_pol = np.zeros_like(U)
    diag = np.arange(r)
    step = max(1, _POLISH_FLOATS // (r * r))
    for start in range(0, n, step):
        free = inactive[start:start + step]
        systems = np.where(free[:, :, None] & free[:, None, :], G, 0.0)
        systems[:, diag, diag] = np.where(free, np.diag(G), 1.0)
        rhs = np.where(free, AW[start:start + step], 0.0)
        try:
            sol = np.linalg.solve(systems, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            return U_pol, np.zeros_like(U), np.inf
        U_pol[start:start + step] = np.maximum(sol, 0.0)
    grad = U_pol @ G - AW
    dual_pol = np.where(inactive, 0.0, np.maximum(grad, 0.0))
    return U_pol, dual_pol, _kkt_max(grad - dual_pol, U_pol, dual_pol)


def _kkt_max(stationarity, U, dual_U):
    """kkt_residual given its stationarity block (U W^T - A) W - dual_U.

    Inside a solve G = W^T W and A W are at hand, so the block is formed as
    U G - A W - dual_U, an n x r x r product, instead of rebuilding the
    n x p residual U W^T - A at every convergence check.
    """
    primal = max(0.0, -U.min(initial=0.0))
    dual = max(0.0, -dual_U.min(initial=0.0))
    slack = np.abs(dual_U * U).max(initial=0.0)
    return float(max(np.abs(stationarity).max(initial=0.0), primal, dual, slack))


def kkt_residual(A, W, U, dual_U):
    """Worst violation of the four first-order blocks, in infinity norm.

    The blocks are stationarity (U W^T - A) W - dual_U, primal feasibility
    U >= 0, dual feasibility dual_U >= 0, and complementary slackness
    dual_U * U = 0. An exact solution returns 0.
    """
    A = np.asarray(A, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    U = np.asarray(U, dtype=np.float64)
    dual_U = np.asarray(dual_U, dtype=np.float64)
    return _kkt_max((U @ W.T - A) @ W - dual_U, U, dual_U)


def nnls_objective(A, W, U):
    """0.5 * ||A - U W^T||_F^2."""
    R = np.asarray(A) - np.asarray(U) @ np.asarray(W).T
    return 0.5 * float(np.sum(R * R))
