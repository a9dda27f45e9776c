"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately naive: exhaustive active-set enumeration,
dense least squares per support, closed-form variance formulas. None of it
shares code with the solvers under test.
"""

import itertools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def nnls_enumerate_row(a, W):
    """Exact NNLS for one row by enumerating all 2^r supports.

    For each candidate support the unconstrained least-squares solution on
    those columns is computed; candidates with negative entries are
    discarded and the feasible one with the smallest objective wins. The
    global optimum is always among them because its own support qualifies.
    """
    p, r = W.shape
    best_u, best_obj = np.zeros(r), 0.5 * float(a @ a)
    for size in range(1, r + 1):
        for support in itertools.combinations(range(r), size):
            cols = W[:, support]
            sol, *_ = np.linalg.lstsq(cols, a, rcond=None)
            if np.any(sol < 0):
                continue
            u = np.zeros(r)
            u[list(support)] = sol
            res = a - cols @ sol
            obj = 0.5 * float(res @ res)
            if obj < best_obj - 1e-15:
                best_u, best_obj = u, obj
    return best_u, best_obj


def nnls_enumerate(A, W):
    """Row-wise exact NNLS; returns (U, total objective)."""
    U = np.zeros((A.shape[0], W.shape[1]))
    total = 0.0
    for i, row in enumerate(A):
        U[i], obj = nnls_enumerate_row(row, W)
        total += obj
    return U, total


def nnls_dual(A, W, U):
    """Multipliers implied by stationarity: (U W^T - A) W, clipped at zero."""
    return np.maximum((U @ W.T - A) @ W, 0.0)


def nndsvd_svd(A, r):
    """NNDSVD start (Boutsidis and Gallopoulos, 2008) from a full thin SVD.

    Each of the r leading singular pairs with sigma > 0 is split into its
    positive and negative parts and the pair with the larger product of
    norms is kept, normalized, and scaled by sqrt(sigma * that product);
    the leading pair is taken in magnitude with weight sigma. Pairs whose
    parts are both zero, and those past the last positive sigma, stay zero.
    """
    n, p = A.shape
    U0, W0 = np.zeros((n, r)), np.zeros((p, r))
    P, sigma, Qt = np.linalg.svd(A, full_matrices=False)
    for j in range(min(r, len(sigma))):
        if sigma[j] <= 0:
            break
        x, y = P[:, j], Qt[j]
        if j == 0:
            U0[:, j] = np.sqrt(sigma[j]) * np.abs(x)
            W0[:, j] = np.sqrt(sigma[j]) * np.abs(y)
            continue
        parts = [(np.maximum(x, 0), np.maximum(y, 0)), (np.maximum(-x, 0), np.maximum(-y, 0))]
        mass = [np.linalg.norm(a) * np.linalg.norm(b) for a, b in parts]
        if max(mass) == 0:
            continue
        a, b = parts[int(mass[1] > mass[0])]
        weight = np.sqrt(sigma[j] * max(mass))
        U0[:, j] = weight * a / np.linalg.norm(a)
        W0[:, j] = weight * b / np.linalg.norm(b)
    return U0, W0


def ishigami_total_indices(a, b):
    """Closed-form total Sobol indices of the Ishigami function.

    f(x) = sin x1 + a sin^2 x2 + b x3^4 sin x1 with x_i uniform on
    [-pi, pi]. Derived from the classical variance decomposition:
    V1 = 0.5 (1 + b pi^4 / 5)^2, V2 = a^2 / 8, V13 = 8 b^2 pi^8 / 225,
    all other terms zero.
    """
    pi4 = np.pi**4
    pi8 = np.pi**8
    v1 = 0.5 * (1.0 + b * pi4 / 5.0) ** 2
    v2 = a**2 / 8.0
    v13 = b**2 * pi8 * 8.0 / 225.0
    total = v1 + v2 + v13
    return np.array([(v1 + v13) / total, v2 / total, v13 / total])


def affine_total_indices(U, W, weights, mu=0.0):
    """Closed-form total Sobol' indices of concept masks under an affine head.

    The head's output on the row-mean perturbed coefficients,
    sum_i (mu + m_i (ubar_i - mu)) (W^T w)_i + bias, is additive in the
    independent uniform masks m_i with slopes c_i = (ubar_i - mu) (W^T w)_i,
    so each total index is c_i^2 / sum_j c_j^2.
    """
    c = (np.mean(U, axis=0) - mu) * (np.asarray(W).T @ np.asarray(weights))
    return c**2 / np.sum(c**2)


def ishigami(x, a, b):
    """Ishigami on the unit cube (inputs rescaled to [-pi, pi])."""
    z = -np.pi + 2.0 * np.pi * np.asarray(x)
    return float(np.sin(z[0]) + a * np.sin(z[1]) ** 2 + b * z[2] ** 4 * np.sin(z[0]))


def first_order_saltelli(eval_batch, a, b):
    """First-order Sobol' indices from the pick-freeze blocks A and B.

    Saltelli's estimator mean(f(B) (f(AB_i) - f(A))) / Var(f), with AB_i
    the block A whose column i comes from B, built and evaluated one
    column at a time; Var(f) is taken over f(A) and f(B) together.
    """
    y_a, y_b = eval_batch(a), eval_batch(b)
    variance = np.var(np.concatenate([y_a, y_b]))
    first = []
    for i in range(a.shape[1]):
        ab = a.copy()
        ab[:, i] = b[:, i]
        first.append(np.mean(y_b * (eval_batch(ab) - y_a)) / variance)
    return np.array(first)


def correlate_windows(x, templates):
    """Valid correlation of (b, H, W, c) images with (k, th, tw, c)
    templates: one einsum over every window, (b, H', W', k)."""
    th, tw = templates.shape[1:3]
    windows = sliding_window_view(x, (th, tw), axis=(1, 2))
    return np.einsum("bhwcij,kijc->bhwk", windows, templates)


def bilinear_resize_taps(t, out_h, out_w):
    """Corner-aligned bilinear resize, one crop and one output pixel at a
    time, from the four neighbouring source pixels."""
    b, h, w, c = t.shape
    ys = np.linspace(0.0, h - 1.0, out_h) if out_h > 1 else np.zeros(1)
    xs = np.linspace(0.0, w - 1.0, out_w) if out_w > 1 else np.zeros(1)
    out = np.empty((b, out_h, out_w, c))
    for n in range(b):
        for oy, y in enumerate(ys):
            y0 = int(y)
            y1 = min(y0 + 1, h - 1)
            wy = y - y0
            for ox, x in enumerate(xs):
                x0 = int(x)
                x1 = min(x0 + 1, w - 1)
                wx = x - x0
                top = t[n, y0, x0] * (1 - wx) + t[n, y0, x1] * wx
                bot = t[n, y1, x0] * (1 - wx) + t[n, y1, x1] * wx
                out[n, oy, ox] = top * (1 - wy) + bot * wy
    return out


def template_bands(templates, width):
    """(th, W c, W' k) band matrices of every template row, all-zero rows
    included, filled one output column at a time:
    band[i][(w + j) c + ch, w k + t] = templates[t, i, j, ch]."""
    k, th, tw, c = templates.shape
    wp = width - tw + 1
    bands = np.zeros((th, width, c, wp, k))
    for i in range(th):
        for j in range(tw):
            for w in range(wp):
                bands[i, w + j, :, w, :] = templates[:, i, j, :].T
    return bands.reshape(th, width * c, wp * k)


def correlate_all_bands(x, templates):
    """Banded valid correlation of (b, H, W, c) images, one matrix product
    per template row and zero rows included, (b, H', W', k)."""
    b, h, w, c = x.shape
    k, th, tw, _ = templates.shape
    hp = h - th + 1
    bands = template_bands(templates, w)
    rows = x.reshape(b, h, w * c)
    z = rows[:, :hp] @ bands[0]
    for i in range(1, th):
        z += rows[:, i:i + hp] @ bands[i]
    return z.reshape(b, hp, w - tw + 1, k)


def scatter_all_bands(weights, templates, shape):
    """Transpose of correlate_all_bands: (b, H', W' k) weights on the
    correlation maps scattered back to images of shape (b, H, W, c), one
    matrix product per template row and zero rows included."""
    b, h, w, c = shape
    hp = weights.shape[1]
    dx = np.zeros((b, h, w * c))
    for i, band in enumerate(template_bands(templates, w)):
        dx[:, i:i + hp] += weights @ band.T
    return dx.reshape(shape)


def reference_synthetic_dataset(model, n, noise, gen, max_stamps, pool):
    """make_synthetic_dataset's draws one image at a time: its noise, then
    its stamp count, templates and positions, each stamp added in place as
    it is placed. gen is the generator positioned at the start of the
    dataset's stream, max_stamps is already clamped to len(pool). Returns
    (images, labels, stamps)."""
    h, w, c = model.input_shape
    th, tw = model.templates.shape[1:3]
    images = np.zeros((n, h, w, c))
    labels = np.zeros(n, dtype=np.int64)
    stamps = []
    for i in range(n):
        if noise > 0:
            images[i] = gen.uniform(0.0, noise, size=(h, w, c))
        count = int(gen.integers(1, max_stamps + 1))
        chosen = gen.choice(pool, size=count, replace=False)
        placed = []
        for t_idx in chosen:
            for _ in range(1000):
                y0 = int(gen.integers(0, h - th + 1))
                x0 = int(gen.integers(0, w - tw + 1))
                if all(abs(y0 - py) >= th or abs(x0 - px) >= tw for _, py, px in placed):
                    break
            else:
                raise RuntimeError("could not place stamps without overlap")
            images[i, y0:y0 + th, x0:x0 + tw, :] += model.templates[t_idx]
            placed.append((int(t_idx), y0, x0))
        labels[i] = int(any(t == 0 for t, _, _ in placed))
        stamps.append(tuple(placed))
    return images, labels, tuple(stamps)
