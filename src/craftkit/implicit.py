"""Differentiating NNLS coefficients with respect to their input rows.

At a solution with strict complementarity the active coordinates are locally
constant, so the solution map is differentiable and its Jacobian follows
from the first-order conditions restricted to the free coordinates: for each
row, dU restricted to the free set I solves G_II dU_I = W_I^T dA, with
G = W^T W. Rows of dU on clamped coordinates are identically zero. These
are the reduced systems the NNLS solver itself solves at every pivoting
step, so the Jacobian's one product, its VJP, reuses that solve (one
compact k x k system per row, batched by k), and the Jacobian checks once,
at construction, that every block G_II is nonsingular. That check is the
rank test of G itself, which the solver's Gram object has already made:
by Cauchy interlacing a principal block has its eigenvalues between G's
extreme ones, so when G passes the rank test every block does too. Only a
rank-deficient G is checked block by block. Given the Gram object of a
bank (ConceptBank keeps one), a Jacobian computes nothing from W alone.

Only transform mode is implemented: the bank W stays fixed and only the
coefficients move. That is the map CRAFT's concept attribution maps chain
with the model's input gradient. Nothing in CRAFT differentiates the coupled
fit of U and W, whose first-order system is singular along the
column-rescaling gauge.
"""

from functools import cached_property

import numpy as np

from .errors import DegeneracyError, NumericalError
from .nnls import Gram, _rank_deficient, _reduced_solve

_DENSE_LIMIT = 10**6

# a coordinate is degenerate when its coefficient and its multiplier are
# both below this times max |A W|, the scale of the solver's convergence
# test (a hundred times its tolerance), so the margin follows the data
_DEGENERACY_MARGIN = 1e-6


class ConceptJacobian:
    """Linear operator mapping perturbations dA (n x p) to dU (n x r).

    Row-local: perturbing one row of A only moves the same row of U, on
    that row's free set I, through the reduced Gram system G_II (the
    optimality-condition Jacobian of Blondel et al., "Efficient and Modular
    Implicit Differentiation", arXiv 2105.15183). Its one product is the
    adjoint, vjp, which goes through the NNLS solver's own batched reduced
    solve, one compact system G_II per row, batched by the size of I. A
    numerically singular block (linearly dependent or zero columns among
    the free concepts) raises NumericalError at construction, naming the
    first such row and its concepts. W is the bank, as an array (checked
    as solve_nnls checks it) or as the nnls.Gram already built from it.
    The dense matrix is not built at construction; ``dense_form`` builds it
    from vjp on first read.
    """

    def __init__(self, W, inactive):
        bank = W if isinstance(W, Gram) else Gram.of(W)
        self.W, self.gram = bank.W, bank.G
        self.inactive = np.asarray(inactive, dtype=bool)
        self.n, self.r = self.inactive.shape
        self.p = self.W.shape[0]
        if not bank.full_rank:
            _check_reduced_blocks(self.gram, self.inactive)

    def vjp(self, cotangent):
        """Adjoint map: cotangent on U (n x r) back to the input (n x p)."""
        Y = np.asarray(cotangent, dtype=np.float64)
        if Y.shape != (self.n, self.r):
            raise ValueError(f"cotangent must be {(self.n, self.r)}, got {Y.shape}")
        return _reduced_solve(Y, self.gram, self.inactive, np.arange(self.n)) @ self.W.T

    @cached_property
    def dense_form(self):
        """The full (n r) x (n p) matrix, built on first read and then kept.

        None when its n^2 r p entries would number more than 10^6. Row c
        of row i's diagonal block G_II^-1 W_I^T is row i of the vjp of
        concept c's one-hot cotangent, zero where c is clamped.
        """
        n, r, p = self.n, self.r, self.p
        if n**2 * r * p > _DENSE_LIMIT:
            return None
        J = np.zeros((n, r, n, p))
        for c, onehot in enumerate(np.eye(r)):
            J[np.arange(n), c, np.arange(n)] = self.vjp(np.tile(onehot, (n, 1)))
        return J.reshape(n * r, n * p)


def _check_reduced_blocks(gram, free):
    """Raise NumericalError at the first row whose block G_II is singular.

    Called only when G itself fails the rank test. By Cauchy interlacing a
    principal k x k block G_II of the r x r matrix G has
    lambda_min(G_II) >= lambda_min(G) and lambda_max(G_II) <= lambda_max(G),
    and k <= r, so when G passes the rank test (lambda_min > r * eps *
    lambda_max) every block passes it too, and no row needs checking.

    One eigvalsh call covers every distinct free pattern: G masked to a
    pattern with k free concepts has the eigenvalues of G_II plus r - k
    zeros, so entry r - k of its sorted eigenvalues is the smallest of
    G_II. Rows with nothing free have no block.
    """
    patterns, first = np.unique(free, axis=0, return_index=True)
    k = patterns.sum(axis=1)
    patterns, first, k = patterns[k > 0], first[k > 0], k[k > 0]
    masked = np.where(patterns[:, :, None] & patterns[:, None, :], gram, 0.0)
    eigvals = np.linalg.eigvalsh(masked)
    lowest = eigvals[np.arange(len(k)), gram.shape[0] - k]
    singular = np.flatnonzero(_rank_deficient(lowest, eigvals[:, -1], k))
    if singular.size:
        j = singular[np.argmin(first[singular])]
        raise NumericalError(
            f"singular reduced Gram block at row {int(first[j])} on concepts "
            f"{np.flatnonzero(patterns[j]).tolist()}: the bank's columns there are "
            f"linearly dependent (eigenvalues {lowest[j]:.2e} to {eigvals[j, -1]:.2e})")


def jacobian_u_wrt_a(solution, W):
    """ConceptJacobian of an NNLS solution against the fixed bank W (an
    array, or its nnls.Gram).

    ``solution`` is the NnlsSolution of some input rows A; the Jacobian
    does not read A itself. It accepts exactly the solutions solve_nnls
    flags converged (else NumericalError), and they must be strictly
    complementary: any coordinate with both primal and dual below 1e-6
    times the solution's scale, max |A W|, raises DegeneracyError,
    because the solution map is not differentiable there. A coordinate is
    free where its coefficient exceeds its dual. A singular reduced Gram
    block raises NumericalError.
    The dense matrix is built only if ``dense_form`` is read.
    """
    if not solution.converged:
        raise NumericalError(
            f"cannot differentiate an unconverged NNLS solution "
            f"(KKT residual {solution.kkt_residual:.2e})")
    margin = _DEGENERACY_MARGIN * max(solution.scale, 1e-300)
    degenerate = (np.abs(solution.U) < margin) & (np.abs(solution.dual_U) < margin)
    if degenerate.any():
        raise DegeneracyError([tuple(ij) for ij in np.argwhere(degenerate)], margin)
    return ConceptJacobian(W, solution.U > solution.dual_U)
