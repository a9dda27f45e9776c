"""Differentiating NNLS coefficients with respect to their input rows.

At a solution with strict complementarity the active coordinates are locally
constant, so the solution map is differentiable and its Jacobian follows
from the first-order conditions restricted to the free coordinates: for each
row, dU restricted to the free set I solves G_II dU_I = W_I^T dA, with
G = W^T W. Rows of dU on clamped coordinates are identically zero.

Only transform mode is implemented: the bank W stays fixed and only the
coefficients move. That is the map CRAFT's concept attribution maps chain
with the model's input gradient. Nothing in CRAFT differentiates the coupled
fit of U and W, whose first-order system is singular along the
column-rescaling gauge.
"""

from functools import cached_property

import numpy as np

from .errors import DegeneracyError, NumericalError

_DENSE_LIMIT = 10**6
_DEGENERACY_MARGIN = 1e-7
_KKT_GATE = 1e-6


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
    raises NumericalError naming the row and the concepts. The dense
    matrix is not built at construction; ``dense_form`` builds it on first
    read.
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

    @cached_property
    def dense_form(self):
        """The full (n r) x (n p) matrix, built on first read and then kept.

        None when its n^2 r p entries would number more than 10^6.
        """
        if self.n**2 * self.r * self.p > _DENSE_LIMIT:
            return None
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


def jacobian_u_wrt_a(solution, W, *, degeneracy_margin=_DEGENERACY_MARGIN,
                     kkt_gate=_KKT_GATE):
    """ConceptJacobian of an NNLS solution against the fixed bank W.

    ``solution`` is the NnlsSolution of some input rows A; the Jacobian
    does not read A itself. The solution must be converged (KKT residual
    below kkt_gate, else NumericalError) and strictly complementary: any
    coordinate with both primal and dual below degeneracy_margin raises
    DegeneracyError, because the solution map is not differentiable there.
    A coordinate is free where its coefficient exceeds its dual. Each
    reduced Gram block is factored once; a singular block raises
    NumericalError. The dense matrix is built only if ``dense_form`` is
    read.
    """
    if solution.kkt_residual >= kkt_gate:
        raise NumericalError(
            f"KKT residual {solution.kkt_residual:.2e} exceeds gate {kkt_gate:g}; "
            "re-solve tighter before differentiating")
    _check_strict_complementarity(solution.U, solution.dual_U, degeneracy_margin)
    return ConceptJacobian(W, solution.U > solution.dual_U)
