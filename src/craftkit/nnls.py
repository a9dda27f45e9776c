"""Non-negative least squares min_{U>=0} 0.5 * ||A - U W^T||_F^2 by block
principal pivoting.

The problem is separable over the rows of A and every row shares the Gram
matrix G = W^T W, so the solver works in Gram form, from G and A W, and
never rebuilds the n x p residual. Each row keeps a passive set F: one
step solves the reduced system G_FF u_F = (A W)_F with u = 0 off F, and
the gradient y = u G - A W then marks the infeasible coordinates, passive
ones with u < 0 and clamped ones with y < 0, which swap sides. A row is
finished when none is left, and its solution is then exact to rounding.
Each unfinished row with a nonempty passive set of k coordinates solves
its own compact k x k system, and the rows are batched by k: one LAPACK
call per k and per block of rows on each step. A cold start takes its
first step in closed form: at u = 0 the gradient is -A W, so the passive
sets become A W > 0, and a row with no such coordinate finishes at
u = 0; the step is counted like any other. The loop then carries only
the unfinished rows, their passive sets, A W rows and exchange counters
in compact arrays. Each step writes every unfinished row's iterate and
support into the output once, so a row keeps its last iterate when it
finishes or when the step budget runs out; then it compacts, by integer
index, only the rows still infeasible, and nothing on a step where no
row finished. The exchange rule is
Kim and Park's ("Fast nonnegative matrix factorization: an active-set-like
method and comparisons", SIAM J. Sci. Comput. 33(6), 2011): a row swaps
all of its infeasible coordinates while their count falls, three more
times when it does not, and after that only its last infeasible index,
which bounds cycling. Warm starts reuse the previous support U > 0, so
an alternating factorization re-pivots only the rows whose support
moved. The multipliers of U >= 0 are the clipped gradient on the clamped
set, which downstream implicit differentiation requires.
A itself enters only through A W: a NaN or infinity in A makes A W
non-finite, so A is scanned for one only when A W is not finite.

What depends on W alone, its checks, G, the one eigvalsh rank test and the
pivoting matrix, is a Gram object. solve_nnls builds one per call from a
plain array, and a caller that solves many problems against one bank (the
attribution maps of a ConceptBank) builds it once and passes it instead.
"""

from dataclasses import dataclass

import numpy as np

from .core import row_blocks
from .errors import DataError, NumericalError

# matrix entries per batched reduced solve: the rows with k free
# coordinates go through in blocks of this many floats of k x k systems
# (128 KiB)
_SOLVE_FLOATS = 1 << 14

# full exchanges a row may make without reducing its infeasible count
# before it falls back to single exchanges (Kim and Park's backup rule)
_BACKUP_TRIES = 3

# ridge added to a numerically singular Gram matrix, relative to its
# largest eigenvalue, so that every reduced system has a unique solution
_RIDGE = 1e-12

# pivoting steps a solve may take before it returns its last iterate
_MAX_PIVOTS = 200

# a solve is converged when its worst KKT violation is at most this times
# max |A W|; the pivoting stops on feasibility alone, without a tolerance
_KKT_TOL = 1e-8


@dataclass(frozen=True)
class NnlsSolution:
    """Primal/dual output of one NNLS solve.

    U is exactly nonnegative; dual_U holds the multipliers of U >= 0. At
    convergence the two have complementary supports up to the solver
    tolerance, which kkt_residual reports as a single number. scale is
    max |A W|, the size the convergence test measures kkt_residual against.
    bank is the Gram the solve ran against, which jacobian_u_wrt_a reads;
    a solve of no rows on a plain W derives none and keeps the checked W.
    """

    U: np.ndarray
    dual_U: np.ndarray
    iterations: int
    kkt_residual: float
    converged: bool
    scale: float
    bank: "Gram | np.ndarray"


@dataclass(frozen=True)
class Gram:
    """What solve_nnls derives from the dictionary W alone.

    W is the checked float64 dictionary: finite, with at least one column,
    and W^T W neither overflows nor, on a nonzero column, underflows. G is
    W^T W, pivot the matrix the pivoting runs on (G, or G plus a ridge when
    G is numerically singular), and full_rank the result of the one
    eigvalsh rank test that chose it. Build one with Gram.of(W).
    """

    W: np.ndarray
    G: np.ndarray
    pivot: np.ndarray
    full_rank: bool

    @classmethod
    def of(cls, W):
        """Check W and derive its constants; raises the errors solve_nnls
        raises for the same W."""
        W = np.asarray(W, dtype=np.float64)
        if W.ndim != 2:
            raise ValueError("W must be 2-D")
        if not np.isfinite(W).all():
            raise DataError("W contains NaN or Inf")
        if W.shape[1] < 1:
            raise ValueError("W must have at least one column")
        return cls._of_finite(W)

    @classmethod
    def _of_finite(cls, W):
        """Gram.of for a float64 W already known to be finite, 2-D and at
        least one column wide."""
        with np.errstate(over="ignore", invalid="ignore"):
            G = W.T @ W
        if not np.isfinite(G).all():
            raise DataError("W^T W or A W overflows; rescale A and W")
        low = G.diagonal() < np.finfo(np.float64).tiny
        if low.any() and (low & (W != 0.0).any(axis=0)).any():
            raise DataError("W^T W underflows to subnormals or zero on a nonzero column "
                            "of W; rescale A and W")
        pivot = _pivot_gram(G)
        # _pivot_gram returns G itself exactly when G passes the rank test
        return cls(W=W, G=G, pivot=pivot, full_rank=pivot is G)


def solve_nnls(A, W, warm=None):
    """Solve min_{U>=0} 0.5 * ||A - U W^T||_F^2 for U (n x r).

    Parameters
    ----------
    A : ndarray, n x p
        Targets, one problem per row. Must be finite (checked through A W).
    W : ndarray, p x r, or Gram
        Fixed dictionary. Full column rank is not required: when W^T W is
        numerically singular, the pivoting runs on W^T W plus a ridge of
        1e-12 times its largest eigenvalue, and the KKT residual is still
        scored against W^T W itself. W^T W must neither overflow nor, on
        a nonzero column of W, underflow below the smallest normal float;
        either raises DataError. A Gram built by Gram.of(W) gives the same
        solution without deriving W's constants again.
    warm : ndarray, n x r, optional
        Coefficients whose support warm > 0 is the first passive set, e.g.
        the previous iterate of an alternating factorization.

    Returns
    -------
    NnlsSolution
        ``converged`` is True when the KKT residual is at most 1e-8 times
        max |A W|. After 200 pivoting steps the last iterate is returned
        with the flag cleared, not an exception. A reduced system that
        LAPACK cannot solve raises NumericalError naming its rows.
    """
    A = np.asarray(A, dtype=np.float64)
    gram = W if isinstance(W, Gram) else None
    W = np.asarray(W, dtype=np.float64) if gram is None else gram.W
    if A.ndim != 2 or W.ndim != 2:
        raise ValueError("A and W must be 2-D")
    if A.shape[1] != W.shape[0]:
        raise ValueError(f"A has {A.shape[1]} columns but W has {W.shape[0]} rows")
    if gram is None and not np.isfinite(W).all():
        raise DataError("W contains NaN or Inf")
    n, _ = A.shape
    r = W.shape[1]
    if r < 1:
        raise ValueError("W must have at least one column")
    if warm is not None and np.shape(warm) != (n, r):
        raise ValueError("warm start shape mismatch")
    if n == 0:
        return NnlsSolution(U=np.zeros((0, r)), dual_U=np.zeros((0, r)), iterations=0,
                            kkt_residual=0.0, converged=True, scale=0.0,
                            bank=W if gram is None else gram)

    with np.errstate(over="ignore", invalid="ignore"):
        AW = A @ W
    if not np.isfinite(AW).all():
        # a NaN or infinity in A reaches A W, so A is scanned only here
        if not np.all(np.isfinite(A)):
            raise DataError("A contains NaN or Inf")
        raise DataError("W^T W or A W overflows; rescale A and W")
    if gram is None:
        gram = Gram._of_finite(W)
    G, G_pivot = gram.G, gram.pivot

    U = np.zeros((n, r))
    support = np.zeros((n, r), dtype=bool)
    if warm is None:
        # the first pivoting step in closed form: at u = 0 the gradient is
        # -A W, so every coordinate with A W > 0 turns passive, and a row
        # with none finishes at U = 0
        passive = AW > 0.0
        fewest = passive.sum(axis=1)
        rows = fewest.nonzero()[0]
        if rows.size < n:
            passive, fewest = passive[rows], fewest[rows]
        iterations = 1
    else:
        passive = np.asarray(warm) > 0.0
        fewest = np.full(n, r + 1)
        rows = np.arange(n)
        iterations = 0
    AW_rows = AW[rows] if rows.size < n else AW
    tries = np.full(rows.size, _BACKUP_TRIES)
    while rows.size and iterations < _MAX_PIVOTS:
        iterations += 1
        x = _reduced_solve(AW_rows, G_pivot, passive, rows)
        # every unfinished row holds its latest iterate: a row that
        # finishes now, or is cut off by the budget, keeps it
        U[rows], support[rows] = x, passive
        infeasible = np.where(passive, x < 0.0, x @ G_pivot - AW_rows < 0.0)
        count = infeasible.sum(axis=1)
        going = count.nonzero()[0]
        if not going.size:
            break
        if going.size < rows.size:
            rows, passive, infeasible = rows[going], passive[going], infeasible[going]
            count, fewest, tries, AW_rows = count[going], fewest[going], tries[going], AW_rows[going]
        improved = count < fewest
        full = improved | (tries > 0)
        fewest = np.minimum(fewest, count)
        tries = np.where(improved, _BACKUP_TRIES, np.maximum(tries - 1, 0))
        if not full.all():
            single = np.flatnonzero(~full)
            last = r - 1 - np.argmax(infeasible[single, ::-1], axis=1)
            infeasible[single] = False
            infeasible[single, last] = True
        passive = passive ^ infeasible

    U = np.maximum(U, 0.0)
    grad = U @ G - AW
    dual_U = np.where(support, 0.0, np.maximum(grad, 0.0))
    # U >= 0 and dual_U >= 0 by construction, and off its support a row of U
    # is exactly zero, so of the four KKT blocks only stationarity can be
    # nonzero: _kkt_max's other three would read 0
    residual = float(np.abs(grad - dual_U).max())
    # no unit floor on the gradient scale, or tiny-scale problems would
    # accept arbitrary iterates
    scale = float(np.abs(AW).max())
    converged = residual <= _KKT_TOL * max(scale, 1e-300)
    return NnlsSolution(U=U, dual_U=dual_U, iterations=iterations, kkt_residual=residual,
                        converged=bool(converged), scale=scale, bank=gram)


def _pivot_gram(G):
    """G itself, or G plus a small ridge when G is numerically singular.

    G counts as singular when its smallest eigenvalue is at most r * eps
    times its largest, which covers p < r and zero or duplicate columns of
    W. Without the ridge, block principal pivoting can cycle there, since
    the reduced solution on a dependent support is not unique.
    """
    eigvals = np.linalg.eigvalsh(G)
    r = G.shape[0]
    if not _rank_deficient(eigvals[0], eigvals[-1], r):
        return G
    ridge = _RIDGE * eigvals[-1] if eigvals[-1] > 0 else 1.0
    return G + ridge * np.eye(r)


def _rank_deficient(lowest, highest, k):
    """The rank test of numpy.linalg.matrix_rank for a symmetric positive
    semidefinite k x k matrix with extreme eigenvalues lowest and highest:
    numerically singular when lowest <= k * eps * highest. Broadcasts.
    """
    return lowest <= k * np.finfo(np.float64).eps * highest


def _reduced_solve(AW, G, free, rows):
    """Solve every row's reduced Gram system G_FF u_F = (A W)_F, u = 0 off F.

    A row with k free coordinates gets its own compact k x k system G_FF,
    and its clamped coordinates are exact zeros. One count of the rows by
    k forms the groups, each in row order, and each group goes to LAPACK
    in core.row_blocks of _SOLVE_FLOATS matrix entries, one system per
    row: no factorization is shared. A row whose free set is empty has
    u = 0 exactly and gets no system at all, and a row with every
    coordinate free solves G itself. A singular system or a non-finite
    solution raises NumericalError naming the rows, in row order, by their
    indices in ``rows``.
    """
    n, r = free.shape
    x = np.zeros((n, r))
    size = free.sum(axis=1)
    counts = np.bincount(size, minlength=r + 1).tolist()
    for k in range(1, r + 1):
        if not counts[k]:
            continue
        group = np.arange(n) if counts[k] == n else (size == k).nonzero()[0]
        for block in row_blocks(counts[k], k * k, _SOLVE_FLOATS):
            at = group[block]
            if k == r:
                x[at] = _solve_stack(G, AW.take(at, axis=0))
            else:
                # each row's free entries, k per row, as flat indices
                i, cols = free.take(at, axis=0).nonzero()
                flat = at[i] * r + cols
                cols = cols.reshape(-1, k)
                systems = G[cols[:, :, None], cols[:, None, :]]
                x.put(flat, _solve_stack(systems, AW.take(flat).reshape(-1, k)))
    if not np.isfinite(x).all():
        failed = np.flatnonzero(~np.isfinite(x).all(axis=1))
        raise NumericalError(
            f"reduced Gram systems at rows {rows[failed][:8].tolist()} have no "
            f"finite solution: the bank's columns on their supports are linearly "
            f"dependent, or the data overflow")
    return x


def _solve_stack(systems, rhs):
    """Row i of rhs (m x k) solved against systems[i], or against systems
    itself when it is one k x k matrix, by one batched LAPACK call. LAPACK
    only reports that some system is singular, so then the rank-deficient
    systems' rows are NaN, or every row when none looks it.
    """
    try:
        return np.linalg.solve(systems, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        m, k = rhs.shape
        singular = np.linalg.matrix_rank(np.broadcast_to(systems, (m, k, k))) < k
        return np.where((singular | ~singular.any())[:, None], np.nan, np.zeros((m, k)))


def _kkt_max(stationarity, U, dual_U):
    """kkt_residual given its stationarity block (U W^T - A) W - dual_U.

    Inside a solve G = W^T W and A W are at hand, so the block is formed as
    U G - A W - dual_U, an n x r x r product, instead of rebuilding the
    n x p residual U W^T - A.
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
