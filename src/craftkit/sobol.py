"""Total Sobol' indices for concept importance.

Concepts are perturbed with continuous masks drawn from a low-discrepancy
sequence, pushed through the model head via the inpainting operator
tau(u, m) = u * m + (1 - m) * mu, and scored with the Jansen pick-freeze
estimator of the total index: the share of output variance a concept is
responsible for, interactions included.

The Sobol' sequence uses the Joe-Kuo direction numbers (new-joe-kuo-6),
embedded below for dimensions up to 64, with the zero point skipped.
"""

from dataclasses import dataclass

import numpy as np

from .core import Rng
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
_DEGENERATE_VARIANCE = 1e-12


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


@dataclass(frozen=True)
class MaskBatch:
    """One block of perturbation masks plus its role in the pick-freeze design.

    design is "A" or "B" for the two independent blocks, or "AB" with
    ``column`` naming the coordinate imported from B into A.
    """

    masks: np.ndarray
    design: str
    sequence: str
    column: int | None = None

    def __post_init__(self):
        if self.masks.size and (self.masks.min() < 0 or self.masks.max() > 1):
            raise ValueError("mask entries must lie in [0, 1]")


def mask_designs(r, n, sequence="sobol_joe_kuo", seed=None):
    """A and B mask blocks (n x r each) from one (2r)-dimensional stream.

    sequence "sobol_joe_kuo" is deterministic; "uniform" draws pseudo-random
    masks from the counter-based generator keyed by seed. The embedded
    Sobol' table covers 2r <= 64 dimensions, so "sobol_joe_kuo" supports at
    most 32 concepts.
    """
    if sequence == "sobol_joe_kuo":
        if 2 * r > _MAX_DIM:
            raise ValueError(
                f"rank {r} exceeds the {_MAX_DIM // 2}-concept limit of the "
                f"sobol_joe_kuo design (2r <= {_MAX_DIM} Sobol' dimensions)")
        block = sobol_sequence(2 * r, n)
    elif sequence == "uniform":
        gen = Rng(0 if seed is None else seed).generator()
        block = gen.uniform(size=(n, 2 * r))
    else:
        raise ValueError(f"unknown sequence {sequence!r}")
    a = MaskBatch(block[:, :r], "A", sequence)
    b = MaskBatch(block[:, r:], "B", sequence)
    return a, b


def ab_design(a, b, i):
    """A with column i replaced by B's column i."""
    masks = a.masks.copy()
    masks[:, i] = b.masks[:, i]
    return MaskBatch(masks, "AB", a.sequence, column=i)


def perturb(u, m, mu=0.0):
    """Inpainting perturbation u * m + (1 - m) * mu, elementwise."""
    u = np.asarray(u, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    return u * m + (1.0 - m) * mu


@dataclass(frozen=True)
class SobolEstimate:
    """Estimated total indices with the variance they were normalized by.

    degenerate means the output variance fell below the noise floor, in
    which case all indices are reported as zero.
    """

    total_indices: np.ndarray
    variance_Y: float
    n_samples: int
    degenerate: bool


def _evaluate(eval_batch, masks, what):
    y = np.asarray(eval_batch(masks), dtype=np.float64).reshape(-1)
    if y.shape[0] != masks.shape[0]:
        raise ValueError(f"{what}: expected {masks.shape[0]} outputs, got {y.shape[0]}")
    if not np.all(np.isfinite(y)):
        raise DataError(f"{what}: output contains NaN or Inf")
    return y


def _jansen_total(eval_batch, r, n, sequence, seed):
    """Pick-freeze Jansen estimator over a batched evaluation function."""
    if n < 2:
        raise ValueError("need at least 2 samples")
    if r < 1:
        raise ValueError("need at least one concept")
    a, b = mask_designs(r, n, sequence, seed)
    y_a = _evaluate(eval_batch, a.masks, "f(A)")
    y_b = _evaluate(eval_batch, b.masks, "f(B)")
    variance = float(np.var(np.concatenate([y_a, y_b])))
    if variance < _DEGENERATE_VARIANCE:
        return SobolEstimate(np.zeros(r), variance, n, True), None
    totals = np.empty(r)
    y_abs = []
    for i in range(r):
        y_ab = _evaluate(eval_batch, ab_design(a, b, i).masks, f"f(AB({i}))")
        totals[i] = np.sum((y_a - y_ab) ** 2) / (2.0 * n * variance)
        y_abs.append(y_ab)
    return SobolEstimate(totals, variance, n, False), (y_a, y_b, y_abs)


def _first_order_saltelli(y_a, y_b, y_abs, variance):
    """First-order indices from the same design; test cross-check only."""
    return np.array([float(np.mean(y_b * (y_ab - y_a))) / variance for y_ab in y_abs])


def total_sobol_jansen(f, r, n, sequence="sobol_joe_kuo", seed=None):
    """Total Sobol' index of each of the r inputs of f over [0, 1]^r.

    Parameters
    ----------
    f : callable
        Maps one mask vector of length r to a finite scalar.
    r, n : int
        Number of inputs and pick-freeze block size; f is evaluated
        n * (r + 2) times.
    sequence : "sobol_joe_kuo" or "uniform"
    seed : int, optional
        Only used by the "uniform" sequence.
    """
    estimate, _ = _jansen_total(lambda masks: np.array([float(f(row)) for row in masks]),
                                r, n, sequence, seed)
    return estimate


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


def concept_importance(U, W, head, n, mu=0.0, sequence="sobol_joe_kuo", seed=None):
    """Class-level concept importance for coefficients U under bank W.

    Each mask perturbs every row of U through the inpainting operator; the
    perturbed coefficients are re-projected to activation space through W^T
    and pushed through ``head`` (a callable mapping a batch of activation
    rows to a vector of outputs). The estimated index of a concept is the
    share of the variance of the row-averaged head output it controls. An
    ``AffineHead`` sees only the row-mean coefficients, one row per mask,
    which gives the same outputs up to rounding. A non-finite baseline mu
    raises DataError before any head call.
    """
    U = np.asarray(U, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if U.ndim != 2 or W.ndim != 2 or U.shape[1] != W.shape[1]:
        raise ValueError("U must be n x r and W must be p x r")
    if U.shape[0] == 0:
        raise ValueError("U has no coefficient rows to score")
    estimate, _ = _jansen_total(lambda masks: _mean_head_outputs(U, W, head, masks, mu),
                                U.shape[1], n, sequence, seed)
    return estimate


def _mean_head_outputs(U, W, head, masks, mu, chunk=1 << 18):
    """Row-averaged head output for every mask, evaluated in chunks.

    A chunk of m masks on k rows builds m * k * max(r, p) floats (perturbed
    coefficients, then activations). Whole masks are batched while that
    stays near ``chunk``; once a single mask's n_rows * max(r, p) exceeds
    it, each mask goes through in row blocks, so the bound holds per row
    block. At least one mask and one row go per chunk. Each mask's mean is
    taken over all its rows at once, so the result does not depend on the
    chunking. An ``AffineHead`` commutes with the row mean, so it gets the
    mean coefficient row alone.
    """
    if not np.all(np.isfinite(mu)):
        raise DataError(f"baseline mu must be finite, got {mu!r}")
    if isinstance(head, AffineHead):
        U = U.mean(axis=0, keepdims=True)
    n_rows, r = U.shape
    width = max(r, W.shape[0])
    out = np.empty(masks.shape[0])
    step = max(1, chunk // max(n_rows * width, 1))
    row_step = max(1, chunk // width)
    for start in range(0, masks.shape[0], step):
        m = masks[start:start + step]
        y = np.empty((len(m), n_rows))
        for lo in range(0, n_rows, row_step):
            rows = U[lo:lo + row_step]
            perturbed = perturb(rows[None, :, :], m[:, None, :], mu)
            acts = perturbed.reshape(-1, r) @ W.T
            y[:, lo:lo + row_step] = np.asarray(head(acts), dtype=np.float64).reshape(
                len(m), len(rows))
        out[start:start + step] = y.mean(axis=1)
    return out


def tcav_importance(grads_A, W):
    """Directional-derivative score per concept.

    The fraction of gradient rows whose projection on the concept vector is
    strictly positive; a sign-only baseline for comparison with the
    variance-based indices.
    """
    grads_A = np.asarray(grads_A, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if grads_A.ndim != 2 or grads_A.shape[1] != W.shape[0]:
        raise ValueError("grads_A must be n x p matching W's row count")
    if grads_A.shape[0] == 0:
        raise ValueError("grads_A has no gradient rows to score")
    return np.mean((grads_A @ W) > 0.0, axis=0)
