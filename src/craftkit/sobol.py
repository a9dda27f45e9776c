"""Total Sobol' indices for concept importance.

Concepts are perturbed with continuous masks drawn from a low-discrepancy
sequence, pushed through the model head via the inpainting operator
tau(u, m) = u * m + (1 - m) * mu, and scored with the Jansen pick-freeze
estimator of the total index: the share of output variance a concept is
responsible for, interactions included.

The pick-freeze A and B blocks are the two halves of one (2r)-dimensional
Sobol' stream, so the design is deterministic. The masks are evaluated in
two batches: f(A) and f(B) together, then all r AB_i blocks together,
skipped when f(A) and f(B) are equal up to rounding (spread within 64 eps
of their largest magnitude, a cut as free of the head's scale as the
estimator's ratio). Within a batch, the (mask, row) pairs stream through
the head in mask-major core.row_blocks of p-float activation rows, each
block a new array that fits a 2 MiB L2 cache with W^T.

The Sobol' sequence uses the Joe-Kuo direction numbers (new-joe-kuo-6),
embedded below for dimensions up to 64, with the zero point skipped.
"""

from dataclasses import dataclass

import numpy as np

from .core import row_blocks
from .errors import DataError, UnsupportedError

_DIRECTIONS = (
    (1, 0, (1,)),
    (2, 1, (1, 3)),
    (3, 1, (1, 3, 1)),
    (3, 2, (1, 1, 1)),
    (4, 1, (1, 1, 3, 3)),
    (4, 4, (1, 3, 5, 13)),
    (5, 2, (1, 1, 5, 5, 17)),
    (5, 4, (1, 1, 5, 5, 5)),
    (5, 7, (1, 1, 7, 11, 19)),
    (5, 11, (1, 1, 5, 1, 1)),
    (5, 13, (1, 1, 1, 3, 11)),
    (5, 14, (1, 3, 5, 5, 31)),
    (6, 1, (1, 3, 3, 9, 7, 49)),
    (6, 13, (1, 1, 1, 15, 21, 21)),
    (6, 16, (1, 3, 1, 13, 27, 49)),
    (6, 19, (1, 1, 1, 15, 7, 5)),
    (6, 22, (1, 3, 1, 15, 13, 25)),
    (6, 25, (1, 1, 5, 5, 19, 61)),
    (7, 1, (1, 3, 7, 11, 23, 15, 103)),
    (7, 4, (1, 3, 7, 13, 13, 15, 69)),
    (7, 7, (1, 1, 3, 13, 7, 35, 63)),
    (7, 8, (1, 3, 5, 9, 1, 25, 53)),
    (7, 14, (1, 3, 1, 13, 9, 35, 107)),
    (7, 19, (1, 3, 1, 5, 27, 61, 31)),
    (7, 21, (1, 1, 5, 11, 19, 41, 61)),
    (7, 28, (1, 3, 5, 3, 3, 13, 69)),
    (7, 31, (1, 1, 7, 13, 1, 19, 1)),
    (7, 32, (1, 3, 7, 5, 13, 19, 59)),
    (7, 37, (1, 1, 3, 9, 25, 29, 41)),
    (7, 41, (1, 3, 5, 13, 23, 1, 55)),
    (7, 42, (1, 3, 7, 3, 13, 59, 17)),
    (7, 50, (1, 3, 1, 3, 5, 53, 69)),
    (7, 55, (1, 1, 5, 5, 23, 33, 13)),
    (7, 56, (1, 1, 7, 7, 1, 61, 123)),
    (7, 59, (1, 1, 7, 9, 13, 61, 49)),
    (7, 62, (1, 3, 3, 5, 3, 55, 33)),
    (8, 14, (1, 3, 1, 15, 31, 13, 49, 245)),
    (8, 21, (1, 3, 5, 15, 31, 59, 63, 97)),
    (8, 22, (1, 3, 1, 11, 11, 11, 77, 249)),
    (8, 38, (1, 3, 1, 11, 27, 43, 71, 9)),
    (8, 47, (1, 1, 7, 15, 21, 11, 81, 45)),
    (8, 49, (1, 3, 7, 3, 25, 31, 65, 79)),
    (8, 50, (1, 3, 1, 1, 19, 11, 3, 205)),
    (8, 52, (1, 1, 5, 9, 19, 21, 29, 157)),
    (8, 56, (1, 3, 7, 11, 1, 33, 89, 185)),
    (8, 67, (1, 3, 3, 3, 15, 9, 79, 71)),
    (8, 70, (1, 3, 7, 11, 15, 39, 119, 27)),
    (8, 84, (1, 1, 3, 1, 11, 31, 97, 225)),
    (8, 97, (1, 1, 1, 3, 23, 43, 57, 177)),
    (8, 103, (1, 3, 7, 7, 17, 17, 37, 71)),
    (8, 115, (1, 3, 1, 5, 27, 63, 123, 213)),
    (8, 122, (1, 1, 3, 5, 11, 43, 53, 133)),
    (9, 8, (1, 3, 5, 5, 29, 17, 47, 173, 479)),
    (9, 13, (1, 3, 3, 11, 3, 1, 109, 9, 69)),
    (9, 16, (1, 1, 1, 5, 17, 39, 23, 5, 343)),
    (9, 22, (1, 3, 1, 5, 25, 15, 31, 103, 499)),
    (9, 25, (1, 1, 1, 11, 11, 17, 63, 105, 183)),
    (9, 44, (1, 1, 5, 11, 9, 29, 97, 231, 363)),
    (9, 47, (1, 1, 5, 15, 19, 45, 41, 7, 383)),
    (9, 52, (1, 3, 7, 7, 31, 19, 83, 137, 221)),
    (9, 55, (1, 1, 1, 3, 23, 15, 111, 223, 83)),
    (9, 59, (1, 1, 5, 13, 31, 15, 55, 25, 161)),
    (9, 62, (1, 1, 3, 13, 25, 47, 39, 87, 257)),
)

_MAX_DIM = len(_DIRECTIONS) + 1
_BITS = 32
_SCALE = float(2**_BITS)


def _direction_integers(dim, n_bits):
    """Direction integers V[d, k], most significant bit first."""
    V = np.zeros((dim, n_bits), dtype=np.uint64)
    V[0] = [np.uint64(1) << np.uint64(n_bits - 1 - k) for k in range(n_bits)]
    for d in range(1, dim):
        s, a, m = _DIRECTIONS[d - 1]
        for k in range(min(s, n_bits)):
            V[d, k] = np.uint64(m[k]) << np.uint64(n_bits - 1 - k)
        for k in range(s, n_bits):
            v = V[d, k - s] ^ (V[d, k - s] >> np.uint64(s))
            for t in range(1, s):
                if (a >> (s - 1 - t)) & 1:
                    v ^= V[d, k - t]
            V[d, k] = v
    return V


def sobol_sequence(dim, n):
    """First n points of the Sobol' sequence in dim dimensions.

    The zero point is skipped, so every coordinate is strictly inside
    (0, 1). Gray-code ordering; dimensions above 64 are not in the
    embedded table and are rejected.
    """
    if not 1 <= dim <= _MAX_DIM:
        raise UnsupportedError(f"dimension {dim} outside supported range 1..{_MAX_DIM}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n >= 2**_BITS:
        raise UnsupportedError(f"at most {2**_BITS - 1} points are supported")
    V = _direction_integers(dim, _BITS)
    # point i is the XOR of the direction integers over the set bits of its
    # Gray code i ^ (i >> 1), the closed form of the one-bit-flip recurrence
    i = np.arange(1, n + 1, dtype=np.uint64)
    gray = i ^ (i >> np.uint64(1))
    state = np.zeros((n, dim), dtype=np.uint64)
    for k in range(int(n).bit_length()):
        state ^= ((gray >> np.uint64(k)) & np.uint64(1))[:, None] * V[:, k]
    return state / _SCALE


def mask_designs(r, n):
    """Sobol' A and B mask blocks (n x r each) from one (2r)-dimensional stream.

    The embedded table covers 2r <= 64 Sobol' dimensions, so at most 32
    concepts are supported. n and r are checked before any mask is built.
    """
    if not 2 <= n < 2**_BITS:
        raise ValueError(f"need at least 2 samples and at most {2**_BITS - 1}")
    if r < 1:
        raise ValueError("need at least one concept")
    if 2 * r > _MAX_DIM:
        raise ValueError(
            f"rank {r} exceeds the {_MAX_DIM // 2}-concept limit of the "
            f"Sobol' design (2r <= {_MAX_DIM} Sobol' dimensions)")
    block = sobol_sequence(2 * r, n)
    return block[:, :r], block[:, r:]


def perturb(u, m, mu=0.0):
    """Inpainting perturbation u * m + (1 - m) * mu, elementwise."""
    u = np.asarray(u, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    return u * m + (1.0 - m) * mu


@dataclass(frozen=True)
class SobolEstimate:
    """Estimated total indices with the variance they were normalized by.

    degenerate means f(A) and f(B) were equal up to rounding, in which case
    all indices are reported as zero; the block size n is the caller's.
    """

    total_indices: np.ndarray
    variance_Y: float
    degenerate: bool


def _evaluate(eval_batch, masks, what):
    y = eval_batch(masks)
    if not np.all(np.isfinite(y)):
        raise DataError(f"{what}: output contains NaN or Inf")
    return y


def _jansen_total(eval_batch, a, b):
    """Pick-freeze Jansen estimator on the n x r blocks A and B.

    f(A) and f(B) go to eval_batch in one call. Unless they are equal up to
    rounding, a second call evaluates all r blocks AB_i (A with column i
    taken from B), stacked in order.
    """
    n, r = a.shape
    y = _evaluate(eval_batch, np.concatenate([a, b]), "f(A), f(B)")
    variance = float(np.var(y))
    if np.ptp(y) <= 64 * np.finfo(np.float64).eps * np.max(np.abs(y)):
        return SobolEstimate(np.zeros(r), variance, True)
    ab = np.repeat(a[None], r, axis=0)
    ab[np.arange(r), :, np.arange(r)] = b.T
    y_ab = _evaluate(eval_batch, ab.reshape(r * n, r), "f(AB)").reshape(r, n)
    totals = np.sum((y[:n] - y_ab) ** 2, axis=1) / (2.0 * n * variance)
    return SobolEstimate(totals, variance, False)


def total_sobol_jansen(f, r, n):
    """Total Sobol' index of each of the r inputs of f over [0, 1]^r.

    Parameters
    ----------
    f : callable
        Maps one mask vector of length r to a finite scalar.
    r, n : int
        Number of inputs and pick-freeze block size; f is evaluated
        n * (r + 2) times.
    """
    return _jansen_total(lambda masks: np.array([float(f(row)) for row in masks]),
                         *mask_designs(r, n))


@dataclass(frozen=True)
class AffineHead:
    """The head a @ weights + bias, one scalar per activation row.

    Sobol' scoring and fidelity curves recognise this type: the row mean
    commutes with an affine map, so they push the row-mean coefficient
    vector through it instead of every row.
    """

    weights: np.ndarray
    bias: float

    def __call__(self, a):
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[1] != len(self.weights):
            raise ValueError(f"activations must be (batch, {len(self.weights)})")
        return a @ self.weights + self.bias


def _coefficients(U, W):
    """U (n x r, n >= 1) and W (p x r) as float64, else ValueError: the
    input check of concept_importance and pipeline.fidelity_curves."""
    U = np.asarray(U, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if U.ndim != 2 or W.ndim != 2 or U.shape[1] != W.shape[1]:
        raise ValueError("U must be n x r and W must be p x r")
    if U.shape[0] == 0:
        raise ValueError("U has no coefficient rows to score")
    return U, W


def concept_importance(U, W, head, n, mu=0.0):
    """Class-level concept importance for coefficients U under bank W.

    Each mask perturbs every row of U through the inpainting operator; the
    perturbed coefficients are re-projected to activation space through W^T
    and pushed through ``head`` (a callable mapping a batch of activation
    rows to a vector of outputs). The estimated index of a concept is the
    share of the variance of the row-averaged head output it controls. An
    ``AffineHead`` sees only the row-mean coefficients, one row per mask,
    which gives the same outputs up to rounding. U not n x r (n >= 1) for
    W p x r raises ValueError, a non-finite mu DataError, before any head call.
    """
    U, W = _coefficients(U, W)
    return _jansen_total(lambda masks: _mean_head_outputs(U, W, head, masks, mu),
                         *mask_designs(U.shape[1], n))


def _mean_head_outputs(U, W, head, masks, mu, chunk=None):
    """Row-averaged head output for every mask, streamed in cache-sized blocks.

    The (mask, row) pairs are walked in mask-major order, in the
    core.row_blocks of a budget of ``chunk`` floats (default: the
    package's block budget, which keeps a block and W^T in a 2 MiB L2
    cache). Each outer block perturbs whole masks, each counted at the
    coefficients and perturb's temporary, 2 * n_rows * r floats. Its pairs
    then go to ``head`` in blocks of rows of p activations; a block may
    span masks. Each block's activations are a new array, its rows times
    W^T made contiguous once. Besides W^T and the head's own temporaries,
    memory stays within about two budgets, or twice U's size when one mask
    alone exceeds it. Each mask's mean is taken over all its rows at once,
    and a one-row block is multiplied out as two copies of its row (BLAS
    rounds a matrix-vector product differently in the last bit), so the
    result does not depend on the blocking. An ``AffineHead`` commutes
    with the row mean, so it gets the mean coefficient row alone. A head
    that returns other than one output per row raises ValueError.
    """
    if not np.all(np.isfinite(mu)):
        raise DataError(f"baseline mu must be finite, got {mu!r}")
    if isinstance(head, AffineHead):
        U = U.mean(axis=0, keepdims=True)
    n_rows, r = U.shape
    W_T = np.ascontiguousarray(W.T)
    out = np.empty(masks.shape[0])
    for group in row_blocks(masks.shape[0], 2 * n_rows * r, chunk):
        coeffs = perturb(U[None, :, :], masks[group, None, :], mu).reshape(-1, r)
        y = np.empty(len(coeffs))
        for rows in row_blocks(len(coeffs), W.shape[0], chunk):
            # BLAS rounds a one-row (matrix-vector) product differently
            # in the last bit, so the lone row is multiplied out twice
            part = coeffs[rows]
            acts = ((part if len(part) > 1 else part[[0, 0]]) @ W_T)[:len(part)]
            outputs = np.asarray(head(acts), dtype=np.float64)
            if outputs.size != len(acts):
                raise ValueError(f"the head must return one output per activation row: "
                                 f"expected {len(acts)}, got shape {outputs.shape}")
            y[rows] = outputs.reshape(len(acts))
        out[group] = y.reshape(-1, n_rows).mean(axis=1)
    return out


def tcav_importance(grads_A, W):
    """Directional-derivative score per concept.

    The fraction of gradient rows whose projection on the concept vector is
    strictly positive; a sign-only baseline for comparison with the
    variance-based indices. Shapes that do not match, or no gradient rows,
    raise ValueError; NaN or infinity in grads_A or W raises DataError.
    """
    grads_A = np.asarray(grads_A, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if grads_A.ndim != 2 or grads_A.shape[1] != W.shape[0]:
        raise ValueError("grads_A must be n x p matching W's row count")
    if grads_A.shape[0] == 0:
        raise ValueError("grads_A has no gradient rows to score")
    for name, value in (("grads_A", grads_A), ("W", W)):
        if not np.all(np.isfinite(value)):
            raise DataError(f"{name} contains NaN or Inf")
    return np.mean((grads_A @ W) > 0.0, axis=0)
