"""Differentiating NNLS solutions with respect to their input.

At a solution with strict complementarity the active coordinates are locally
constant, so the solution map is differentiable and its Jacobian follows
from the first-order conditions restricted to the free coordinates: for each
row, dU restricted to the free set I solves G_II dU_I = W_I^T dA, with
G = W^T W. Rows of dU on clamped coordinates are identically zero.

Transform mode (fixed bank W) is the workhorse used for attribution maps.
Fit mode differentiates the full coupled factorization; the factorization
has a column-rescaling gauge freedom, so that system is singular and the
minimum-norm solution is returned.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, NumericalError
from .nmf import FactorizationState
from .nnls import NnlsSolution

_DENSE_LIMIT = 10**6
_DEGENERACY_MARGIN = 1e-7
_KKT_GATE = 1e-6


@dataclass(frozen=True)
class OptimalityResidual:
    """The four stacked first-order blocks; all vanish at an exact solution."""

    stat_U: np.ndarray
    stat_W: np.ndarray
    slack_U: np.ndarray
    slack_W: np.ndarray

    def max_abs(self):
        return float(max(np.abs(self.stat_U).max(), np.abs(self.stat_W).max(),
                         np.abs(self.slack_U).max(), np.abs(self.slack_W).max()))


def optimality_fn(U, W, dual_U, dual_W, A):
    """Stationarity and complementary-slackness blocks of the factorization.

    Returns (U W^T - A) W - dual_U, (W U^T - A^T) U - dual_W, dual_U * U,
    and dual_W * W as an OptimalityResidual.
    """
    U, W, A = np.asarray(U), np.asarray(W), np.asarray(A)
    dual_U, dual_W = np.asarray(dual_U), np.asarray(dual_W)
    R = U @ W.T - A
    return OptimalityResidual(stat_U=R @ W - dual_U,
                              stat_W=R.T @ U - dual_W,
                              slack_U=dual_U * U,
                              slack_W=dual_W * W)


def _check_strict_complementarity(U, dual_U, margin):
    bad = np.argwhere((np.abs(U) < margin) & (np.abs(dual_U) < margin))
    if len(bad):
        raise DegeneracyError([tuple(ij) for ij in bad], margin)


class ConceptJacobian:
    """Linear operator mapping perturbations dA (n x p) to dU (n x r).

    Row-local: perturbing one row of A only moves the same row of U. Rows
    are grouped by their free set, and each group's reduced Gram block
    G_II is factored once at construction, so jvp, vjp and the dense form
    are one factored solve per group, batched over its rows (the
    optimality-condition Jacobian of Blondel et al., "Efficient and Modular
    Implicit Differentiation", arXiv 2105.15183). A numerically singular
    block (linearly dependent or zero columns among the free concepts)
    raises NumericalError naming the row and the concepts. ``dense_form``
    holds the full (n r) x (n p) matrix whenever its n^2 r p entries number
    at most 10^6, otherwise None.
    """

    def __init__(self, W, inactive):
        self.W = np.asarray(W, dtype=np.float64)
        self.inactive = np.asarray(inactive, dtype=bool)
        self.n, self.r = self.inactive.shape
        self.p = self.W.shape[0]
        gram = self.W.T @ self.W
        # one (rows, free, G_II^-1) triple per distinct free set
        self._groups = [(rows, free, _inverse_gram_block(gram, rows, free))
                        for rows, free in support_groups(self.inactive)]
        self.dense_form = None
        if self.n**2 * self.r * self.p <= _DENSE_LIMIT:
            self.dense_form = self._materialize()

    def jvp(self, dA):
        """dU for a perturbation dA of the input rows."""
        dA = np.asarray(dA, dtype=np.float64)
        if dA.shape != (self.n, self.p):
            raise ValueError(f"dA must be {(self.n, self.p)}, got {dA.shape}")
        dU = np.zeros((self.n, self.r))
        for rows, free, inv in self._groups:
            dU[np.ix_(rows, free)] = dA[rows] @ self.W[:, free] @ inv
        return dU

    def vjp(self, cotangent):
        """Adjoint map: cotangent on U (n x r) back to the input (n x p)."""
        Y = np.asarray(cotangent, dtype=np.float64)
        if Y.shape != (self.n, self.r):
            raise ValueError(f"cotangent must be {(self.n, self.r)}, got {Y.shape}")
        dA = np.zeros((self.n, self.p))
        for rows, free, inv in self._groups:
            dA[rows] = Y[np.ix_(rows, free)] @ inv @ self.W[:, free].T
        return dA

    def _materialize(self):
        J = np.zeros((self.n, self.r, self.n, self.p))
        for rows, free, inv in self._groups:
            # every row of a group shares the block G_II^-1 W_I^T
            J[rows[:, None], free[None, :], rows[:, None], :] = inv @ self.W[:, free].T
        return J.reshape(self.n * self.r, self.n * self.p)


def support_groups(mask):
    """Group the rows of a boolean n x r mask by their pattern.

    Returns one (rows, cols) pair of index arrays per distinct pattern with
    at least one True entry, in order of first appearance; rows whose
    pattern is all False are left out.
    """
    groups = {}
    for i, row in enumerate(mask):
        groups.setdefault(row.tobytes(), []).append(i)
    out = []
    for rows in groups.values():
        cols = np.flatnonzero(mask[rows[0]])
        if cols.size:
            out.append((np.array(rows), cols))
    return out


def _inverse_gram_block(gram, rows, free):
    """G_II^-1 for the free set ``free`` shared by ``rows``.

    The k x k block is symmetric positive semidefinite; it counts as
    singular when its smallest eigenvalue is at most k * eps times its
    largest (the rank test of numpy.linalg.matrix_rank), because an inverse
    past that point is rounding noise.
    """
    block = gram[np.ix_(free, free)]
    eigvals, eigvecs = np.linalg.eigh(block)
    if eigvals[0] <= eigvals[-1] * free.size * np.finfo(np.float64).eps:
        raise NumericalError(
            f"singular reduced Gram block at row {int(rows[0])} on concepts "
            f"{free.tolist()}: the bank's columns there are linearly dependent "
            f"(eigenvalues {eigvals[0]:.2e} to {eigvals[-1]:.2e})")
    return (eigvecs / eigvals) @ eigvecs.T


class FitJacobian:
    """Jacobian of the coupled fit (U, W) with respect to A, desk scale only.

    The coupled first-order system is singular along the column-rescaling
    gauge, so the operator returns the minimum-norm directional solution.
    The system over the free coordinates is materialized densely, at most
    (n r + p r)^2 entries; above 10^6 entries construction raises
    NumericalError.
    """

    def __init__(self, state, A):
        U, W = state.U, state.W
        self.n, self.r = U.shape
        self.p = W.shape[0]
        free_u = state.dual_U < np.abs(U)      # inactive: u > 0, dual = 0
        free_w = state.dual_W < np.abs(W)
        if (self.n * self.r + self.p * self.r) ** 2 > _DENSE_LIMIT:
            raise NumericalError(
                "fit-mode Jacobian limited to (n*r + p*r)^2 <= 1e6 entries")
        self._assemble(A, U, W, free_u, free_w)

    def _assemble(self, A, U, W, free_u, free_w):
        iu = np.argwhere(free_u)
        iw = np.argwhere(free_w)
        nu, nw = len(iu), len(iw)
        R = U @ W.T - A

        def apply(dU, dW):
            # stationarity blocks differentiated in (U, W), duals eliminated
            f1 = (dU @ W.T + U @ dW.T) @ W + R @ dW
            f2 = (dW @ U.T + W @ dU.T) @ U + R.T @ dU
            return f1, f2

        L = np.zeros((nu + nw, nu + nw))
        for k, (i, j) in enumerate(iu):
            dU = np.zeros_like(U)
            dU[i, j] = 1.0
            f1, f2 = apply(dU, np.zeros_like(W))
            L[:nu, k] = f1[free_u]
            L[nu:, k] = f2[free_w]
        for k, (i, j) in enumerate(iw):
            dW = np.zeros_like(W)
            dW[i, j] = 1.0
            f1, f2 = apply(np.zeros_like(U), dW)
            L[:nu, nu + k] = f1[free_u]
            L[nu:, nu + k] = f2[free_w]

        self._L = L
        self._free_u, self._free_w = free_u, free_w
        self._U, self._W = U, W

    def jvp(self, dA):
        """(dU, dW) for a perturbation dA, minimum-norm across the gauge."""
        dA = np.asarray(dA, dtype=np.float64)
        rhs = np.concatenate([(dA @ self._W)[self._free_u],
                              (dA.T @ self._U)[self._free_w]])
        z, *_ = np.linalg.lstsq(self._L, rhs, rcond=None)
        nu = int(self._free_u.sum())
        dU = np.zeros_like(self._U)
        dW = np.zeros_like(self._W)
        dU[self._free_u] = z[:nu]
        dW[self._free_w] = z[nu:]
        return dU, dW

    def vjp(self, cotangent):
        """Adjoint of the dU output: pulls a cotangent on U back to A."""
        Y = np.asarray(cotangent, dtype=np.float64)
        if Y.shape != self._U.shape:
            raise ValueError(f"cotangent must be {self._U.shape}, got {Y.shape}")
        nu = int(self._free_u.sum())
        nw = int(self._free_w.sum())
        y_hat = np.concatenate([Y[self._free_u], np.zeros(nw)])
        z, *_ = np.linalg.lstsq(self._L.T, y_hat, rcond=None)
        Z_u = np.zeros_like(self._U)
        Z_w = np.zeros_like(self._W)
        Z_u[self._free_u] = z[:nu]
        Z_w[self._free_w] = z[nu:]
        return Z_u @ self._W.T + self._U @ Z_w.T


def jacobian_u_wrt_a(solution, A, W=None, *,
                     degeneracy_margin=_DEGENERACY_MARGIN, kkt_gate=_KKT_GATE):
    """Differentiate a solved problem with respect to its input A.

    Pass an NnlsSolution together with its fixed bank W for transform mode
    (the mode used by attribution maps); pass a FactorizationState for fit
    mode. Requires the solution to be converged (KKT residual below
    kkt_gate) and strictly complementary: any coordinate with both primal
    and dual below degeneracy_margin raises DegeneracyError, because the
    solution map is not differentiable there. In transform mode each
    reduced Gram block is one factored r x r solve per system, computed
    once; a singular block raises NumericalError.
    """
    if isinstance(solution, NnlsSolution):
        if W is None:
            raise ValueError("transform mode needs the bank W")
        if solution.kkt_residual >= kkt_gate:
            raise NumericalError(
                f"KKT residual {solution.kkt_residual:.2e} exceeds gate {kkt_gate:g}; "
                "re-solve tighter before differentiating")
        _check_strict_complementarity(solution.U, solution.dual_U, degeneracy_margin)
        inactive = solution.U > solution.dual_U
        return ConceptJacobian(W, inactive)
    if isinstance(solution, FactorizationState):
        if solution.kkt_residual >= kkt_gate:
            raise NumericalError(
                f"KKT residual {solution.kkt_residual:.2e} exceeds gate {kkt_gate:g}")
        _check_strict_complementarity(solution.U, solution.dual_U, degeneracy_margin)
        _check_strict_complementarity(solution.W, solution.dual_W, degeneracy_margin)
        return FitJacobian(solution, A)
    raise TypeError(f"cannot differentiate {type(solution).__name__}")
