"""Analytically constructed differentiable feature extractor and head.

The model is correlation -> ReLU -> global average pooling over a small set
of orthonormal edge-like stencils, optionally followed by a nonnegative
mixing layer, and an affine head. Everything is built from closed-form
stencils and probe calibration (no training), so ground-truth concept
directions, template locations, and exact vector-Jacobian products are all
available to tests.

Stencils live in the central 3x3 of a 5x5 frame: their correlation gates
open only within one pixel of a stamp, which keeps gradients local. The
ReLU subgradient at exactly zero is taken to be zero, so a clean zero
background contributes nothing; additive noise opens gates everywhere and
deliberately degrades gradient locality.

The correlation and its exact VJP are dense matrix products, one per
live template row i, a row some template is nonzero on: the image rows
h + i, flattened to W c columns, times a banded (W c) x (W' k) matrix that
holds row i of every template at each of the W' output columns. A row no
template touches has an all-zero band, whose product adds exactly +0.0,
so it is skipped; the standard stencils fill 2 or 3 of their 5 frame
rows. The band is mostly zeros, so the products do W / tw times the
useful multiply-adds, but they need no copy per window and run at BLAS
speed. features runs them per block of images, about
2^15 correlation floats (256 KiB) at a time, and writes each block's
pooled rows into one output array, so its memory stays near one block
at any batch size; every image is computed on its own, so the result
does not depend on the blocking. features_vjp makes the same pass and
keeps each block's ReLU gates, one byte per correlation output, so its
pullback, the VJP, runs the blocks again from the gates alone, with no
second correlation, however many cotangents it is given; vjp_features
is that pullback applied once.

The pool lays the maps out positions-major, (H' W', b, k), rectifies
them in place, and adds them with np.add.reduce over the positions: one
vector add of b k numbers per position, in the order mean(axis=(1, 2))
adds them, so the result is bit for bit the same and faster for k >= 2,
where mean adds only k numbers per step. The transpose moves each
position's k channels as one record of k * 8 bytes, one copy per
(image, position) pair instead of an inner loop of k floats: 113 maps
of 12 x 12 x 2 pool in 34 us instead of 103 us, 226 such maps in 81 us
instead of 199 us, and 56 maps of 12 x 12 x 4 in 47 us instead of 62 us
(best of 9, one thread of a 2-CPU x86-64 host). A single map pays about
1.8 us more for the record views. At k = 1 mean sums each image's
contiguous positions pairwise, so the pool keeps that layout there. The
positions-major copy is a second buffer the size of a block, which is
why a block holds half the 2^16 floats of the rest of the image route:
the two stay within 512 KiB together.

make_synthetic_dataset draws image by image, in a fixed order: the
noise, the stamp count, the templates, then each stamp's position. The
noise goes straight into the image stack as uniform [0, 1) draws, and
the stack is scaled by the noise level once (uniform(0, noise) draws
0.0 + noise u, the same float); every stamp is then added in one
scatter, since stamps never overlap within an image. Each pixel still
holds noise u + t, so the bytes are those of adding each stamp as it
is placed: 400 images of 16 x 16 take 8.4 ms instead of 11.5 ms (best
of 9, one thread of a 2-CPU x86-64 host).
"""

from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .core import _BLOCK_FLOATS, Rng, as_tensor4
from .errors import DataError
from .npyio import load_npy, load_record, save_json, save_npy
from .sobol import AffineHead

# 2x2 Haar-style stencils in the central 3x3 of a 5x5 frame: vertical edge,
# horizontal edge, checkerboard; the fourth is a center-surround pattern
# orthogonalized against the first three below.
_VERT = np.array([[1.0, -1.0], [1.0, -1.0]])
_HORIZ = np.array([[1.0, 1.0], [-1.0, -1.0]])
_CHECKER = np.array([[1.0, -1.0], [-1.0, 1.0]])
_SURROUND = np.array([[-1.0, -1.0, -1.0], [-1.0, 8.0, -1.0], [-1.0, -1.0, -1.0]])
_FRAME = 5


def _frame(block):
    t = np.zeros((_FRAME, _FRAME))
    y0 = (_FRAME - block.shape[0]) // 2
    x0 = (_FRAME - block.shape[1]) // 2
    t[y0:y0 + block.shape[0], x0:x0 + block.shape[1]] = block
    return t / np.linalg.norm(t)


def _standard_stencils(k):
    base = [_frame(_VERT), _frame(_HORIZ), _frame(_CHECKER), _frame(_SURROUND)]
    if not 1 <= k <= len(base):
        raise ValueError(f"k must be 1..{len(base)}")
    stencils = []
    for t in base[:k]:
        for prev in stencils:  # Gram-Schmidt; the first three are already orthogonal
            t = t - float(np.sum(t * prev)) * prev
        stencils.append(t / np.linalg.norm(t))
    return np.stack(stencils)


@dataclass(frozen=True)
class ToyBackbone:
    """Correlation/ReLU/pool feature extractor with an affine head.

    templates has shape (k, th, tw, c_in). When mixing (k x k2, nonnegative)
    is present the model has two feature layers: layer 1 is the pooled
    template response, layer 2 is ReLU(layer1 @ mixing), and the head reads
    the final layer. Feature outputs are nonnegative by construction.
    Construction raises ValueError, naming the field, when the templates,
    input shape, mixing and head do not fit together, or when one of them
    holds NaN or infinity. features, feature_maps, features_vjp and
    vjp_features raise DataError, naming the images, on an image stack
    holding NaN or infinity.
    """

    templates: np.ndarray
    head_weights: np.ndarray
    head_bias: float
    input_shape: tuple
    mixing: np.ndarray | None = None

    def __post_init__(self):
        if np.ndim(self.templates) != 4:
            raise ValueError("templates must be 4-D (k, th, tw, c), "
                             f"got shape {np.shape(self.templates)}")
        if len(self.input_shape) != 3 or not all(
                isinstance(n, (int, np.integer)) and n > 0 for n in self.input_shape):
            raise ValueError("input_shape must be three positive integers "
                             f"(height, width, channels), got {tuple(self.input_shape)}")
        k, th, tw, c = self.templates.shape
        h, w, c_in = self.input_shape
        if c != c_in:
            raise ValueError(f"templates read {c} input channels but input_shape "
                             f"has {c_in}")
        if th > h or tw > w:
            raise ValueError(f"templates ({th}x{tw}) are larger than "
                             f"input_shape ({h}x{w})")
        if self.mixing is not None:
            if np.ndim(self.mixing) != 2 or self.mixing.shape[0] != k:
                raise ValueError(f"mixing must be ({k}, k2), "
                                 f"got shape {np.shape(self.mixing)}")
            if np.any(self.mixing < 0):
                raise ValueError("mixing has negative entries")
        if np.shape(self.head_weights) != (self.n_features,):
            raise ValueError(f"head_weights must have shape ({self.n_features},), "
                             f"got {np.shape(self.head_weights)}")
        for name in ("templates", "head_weights", "head_bias", "mixing"):
            value = getattr(self, name)
            if value is not None and not np.all(np.isfinite(value)):
                raise ValueError(f"{name} has NaN or infinite entries")

    @property
    def n_templates(self):
        return self.templates.shape[0]

    @property
    def n_features(self):
        return self.mixing.shape[1] if self.mixing is not None else self.n_templates

    @cached_property
    def _live_bands(self):
        """(i, band i) for every template row i some template is nonzero on,
        in row order; the other rows' bands are all zero. Band i is the
        (W c, W' k) matrix that maps a flattened image row to template row
        i's contribution at every output column,
        band[(w + j, c), (w, k)] = templates[k, i, j, c]."""
        k, th, tw, c = self.templates.shape
        w = self.input_shape[1]
        wp = w - tw + 1
        bands = np.zeros((th, w, c, wp, k))
        cols = np.arange(wp)
        for j in range(tw):
            bands[:, cols + j, :, cols, :] = self.templates[:, :, j, :].transpose(1, 2, 0)
        bands = bands.reshape(th, w * c, wp * k)
        return [(int(i), bands[i]) for i in np.flatnonzero(self.templates.any(axis=(0, 2, 3)))]

    def _correlate(self, x):
        """Valid correlation with every template, (b, H', W', k)."""
        b, h, w, c = x.shape
        k, th, tw, _ = self.templates.shape
        hp, wp = h - th + 1, w - tw + 1
        if not self._live_bands:
            return np.zeros((b, hp, wp, k))
        rows = x.reshape(b, h, w * c)
        (first, band), *rest = self._live_bands
        z = rows[:, first:first + hp] @ band
        for i, band in rest:
            z += rows[:, i:i + hp] @ band
        return z.reshape(b, hp, wp, k)

    def feature_maps(self, x):
        """Pre-pooling ReLU correlation maps, (b, H', W', k)."""
        x = self._check_input(x)
        return np.maximum(self._correlate(x), 0.0)

    def features(self, x, layer=None):
        """Pooled nonnegative activations at the requested layer.

        layer 1 is the template layer; layer 2 (or None for the final
        layer) adds the mixing stage when present. Images go through in
        blocks (see the module docstring); the result does not depend on
        the blocking.
        """
        return self._forward(x, layer)[2]

    def features_vjp(self, x, layer=None):
        """(features(x, layer), pullback), from one correlation per block.

        pullback(cotangent) is the exact gradient of <features(x, layer),
        cotangent> w.r.t. x for a (b, width) cotangent, the width of the
        layer. The pass keeps each block's ReLU gates (and the layer-2
        gates of its pooled features), so pullback, which may be called
        any number of times, correlates nothing; it runs the images in
        the same blocks.
        """
        x, layer, out, gates, blocks = self._forward(x, layer, keep_gates=True)
        b, h, w, c = x.shape
        _, hp, wp, k = gates.shape
        gate2 = out > 0.0 if layer == 2 else None

        def pullback(cotangent):
            cot = np.asarray(cotangent, dtype=np.float64)
            if gate2 is not None:
                cot = (cot * gate2) @ self.mixing.T
            if cot.shape != (b, k):
                raise ValueError(f"cotangent must be (batch, {k}) at layer 1")
            dx = np.zeros((b, h, w * c))
            for rows in blocks:
                weights = (gates[rows].astype(np.float64)
                           * (cot[rows, None, None, :] / (hp * wp))).reshape(-1, hp, wp * k)
                for i, band in self._live_bands:
                    dx[rows, i:i + hp] += weights @ band.T
            return dx.reshape(x.shape)

        return out, pullback

    def _forward(self, x, layer, keep_gates=False):
        """The one pass behind features and features_vjp: returns (x checked,
        layer resolved, features, the ReLU gates of the correlation maps
        (b, H', W', k) if keep_gates else None, the blocks as row slices)."""
        x = self._check_input(x)
        layer = self._resolve_layer(layer)
        k, th, tw, _ = self.templates.shape
        hp, wp = x.shape[1] - th + 1, x.shape[2] - tw + 1
        step = max(1, _BLOCK_FLOATS // max(2 * hp * wp * k, 1))
        blocks = [slice(start, start + step) for start in range(0, len(x), step)]
        z1 = np.empty((len(x), k))
        gates = np.empty((len(x), hp, wp, k), dtype=bool) if keep_gates else None
        for rows in blocks:
            z = self._correlate(x[rows])
            z1[rows] = _pool(z)
            if keep_gates:
                np.greater(z, 0.0, out=gates[rows])
            del z  # freed before the next block's maps are allocated
        out = z1 if layer == 1 else np.maximum(z1 @ self.mixing, 0.0)
        return x, layer, out, gates, blocks

    @property
    def affine_head(self):
        """The head as an ``AffineHead``, which Sobol' scoring and fidelity
        curves evaluate on the row-mean coefficients."""
        return AffineHead(self.head_weights, self.head_bias)

    def head(self, a):
        """Affine readout of final-layer activations, one scalar per row;
        ``affine_head`` checks their shape."""
        return self.affine_head(a)

    def predict(self, x):
        """Binary class: 1 where the head output is positive."""
        return (self.head(self.features(x)) > 0.0).astype(np.int64)

    def vjp_features(self, x, cotangent, layer=None):
        """Exact gradient of <features(x, layer), cotangent> w.r.t. x:
        features_vjp's pullback, applied once."""
        return self.features_vjp(x, layer)[1](cotangent)

    def randomize_weights(self, seed):
        """Replace the stencils with unit-norm noise; head and mixing kept."""
        gen = Rng(seed, stream=901).generator()
        noise = gen.normal(size=self.templates.shape)
        noise /= np.sqrt((noise**2).sum(axis=(1, 2, 3), keepdims=True))
        return replace(self, templates=noise)

    def _check_input(self, x):
        x = as_tensor4(x, "images")
        if x.shape[1:] != tuple(self.input_shape):
            raise ValueError(f"input shape {x.shape[1:]} does not match "
                             f"model input {tuple(self.input_shape)}")
        # a contiguous stack takes one BLAS pass: its sum of squares is
        # finite unless an entry is NaN or infinite, or it overflows. min and
        # max (they propagate NaN) decide the rest; unlike vdot, they copy
        # no strided view
        if not (x.flags.c_contiguous and np.isfinite(np.vdot(x, x))) and not (
                np.isfinite(x.min()) and np.isfinite(x.max())):
            raise DataError("images contain NaN or Inf")
        return x

    def _resolve_layer(self, layer):
        if layer in (None, "final"):
            return 2 if self.mixing is not None else 1
        if layer in (1, "layer1"):
            return 1
        if layer in (2, "layer2") and self.mixing is not None:
            return 2
        raise ValueError(f"model has no layer {layer!r}")

    def template_directions(self):
        """Unit layer-1 feature vectors of clean single-stamp probe images.

        These are the ground-truth concept directions tests compare banks
        against.
        """
        acts = self.features(_centred_probes(self), layer=1)
        norms = np.linalg.norm(acts, axis=1, keepdims=True)
        return acts / np.where(norms > 0, norms, 1.0)


def _pool(z):
    """Global average pool of ReLU(z) over the positions of (b, H', W', k)
    correlation maps, (b, k); z is not modified.

    Bit for bit np.maximum(z, 0).mean(axis=(1, 2)), at the speed of the
    positions-major layout (see the module docstring).
    """
    b, hp, wp, k = z.shape
    positions = hp * wp
    if k == 1:
        rect = np.maximum(z, 0.0).reshape(b, positions, 1)
        return np.add.reduce(rect, axis=1) / positions
    # each position's k channels as one record: the transpose copies
    # (b, positions) records, not b * positions runs of k floats
    record = np.dtype((np.void, k * z.itemsize))
    rect = np.empty((positions, b, k))
    rect.view(record)[..., 0] = z.reshape(b, positions, k).view(record)[..., 0].T
    np.maximum(rect, 0.0, out=rect)
    return np.add.reduce(rect, axis=0) / positions


def _centred_probes(model):
    """One clean image per template, with that template stamped once at the centre."""
    h, w, c = model.input_shape
    th, tw = model.templates.shape[1:3]
    y0, x0 = (h - th) // 2, (w - tw) // 2
    probes = np.zeros((model.n_templates, h, w, c))
    for k in range(model.n_templates):
        probes[k, y0:y0 + th, x0:x0 + tw, :] = model.templates[k]
    return probes


def _calibrated(k, target, bias, input_shape=(16, 16, 1), mixing=None):
    """A model on the first k standard stencils, its head fitted to target.

    target[j] is the desired head response (before bias) to a clean image
    stamped with template j. Ridge regularization keeps the weights sane
    when probe activations are nearly collinear (the template responses
    overlap substantially).
    """
    model = ToyBackbone(templates=_standard_stencils(k)[..., None],
                        head_weights=np.zeros(k if mixing is None else mixing.shape[1]),
                        head_bias=bias, input_shape=tuple(input_shape), mixing=mixing)
    acts = model.features(_centred_probes(model))
    gram = acts.T @ acts
    ridge = 1e-3 * np.trace(gram) / gram.shape[0]
    return replace(model, head_weights=np.linalg.solve(
        gram + ridge * np.eye(len(gram)), acts.T @ np.asarray(target, dtype=np.float64)))


def standard_backbone(k=4, input_shape=(16, 16, 1)):
    """The default single-layer model: k orthonormal 5x5 stencils, affine
    head calibrated so the head is positive exactly when template 0 is
    present in a clean image.
    """
    return _calibrated(k, [1.0] + [0.0] * (k - 1), -0.5, input_shape)


def pair_backbone():
    """Two-template model whose class contains BOTH template types.

    Head responses to clean single stamps are calibrated to ~(1.0, 0.45)
    with bias -0.25, so any stamped image lands in the positive class while
    the head still clearly favors template 0. This is the construction the
    end-to-end concept-recovery checks use: one class, two concepts of
    unequal importance.
    """
    return _calibrated(2, [1.0, 0.45], -0.25)


def two_layer_backbone():
    """Four primitives mixed pairwise into two composite features.

    Composite 0 blends primitives 0 and 1, composite 1 blends primitives 2
    and 3, reproducing the situation where a single later-layer concept
    merges two earlier-layer directions. Head calibration mirrors
    pair_backbone: both composites positive, composite 0 favored.
    """
    mixing = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    return _calibrated(4, [1.0, 1.0, 0.45, 0.45], -0.25, mixing=mixing)


@dataclass(frozen=True)
class SyntheticDataset:
    """Images with labels and exact stamp provenance.

    stamps[i] lists (template index, y0, x0) for every stamp in image i;
    labels flag the presence of template 0, the one standard_backbone's
    head detects.
    """

    images: np.ndarray
    labels: np.ndarray
    stamps: tuple


def make_synthetic_dataset(model, n, noise, seed, max_stamps=3, template_pool=None):
    """Compose n images by stamping templates at non-overlapping positions.

    Each image places between 1 and max_stamps distinct templates drawn
    from template_pool (default: all of them) uniformly at random, then
    adds uniform noise in [0, noise). Identical seeds give bit-identical
    datasets, and the draws are made image by image, so the first m
    images of a dataset are those of the m-image dataset on the same seed.
    The noise is drawn into the stack and scaled once, and the stamps are
    added after all the draws, in one scatter (see the module docstring).
    A max_stamps below 1, a negative, NaN or infinite noise, or a
    template_pool that is empty, repeats an index or holds one outside
    0..k-1 for the model's k templates, raises ValueError before the first
    draw.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if max_stamps < 1:
        raise ValueError(f"max_stamps must be at least 1, got {max_stamps}")
    if not 0 <= noise < np.inf:
        raise ValueError(f"noise must be finite and non-negative, got {noise!r}")
    h, w, c = model.input_shape
    th, tw = model.templates.shape[1:3]
    pool = list(range(model.n_templates)) if template_pool is None else list(template_pool)
    indices = all(isinstance(t, (int, np.integer)) and not isinstance(t, bool)
                  and 0 <= t < model.n_templates for t in pool)
    if not pool or not indices or len(set(pool)) != len(pool):
        raise ValueError("template_pool must hold distinct template indices in "
                         f"0..{model.n_templates - 1}, got {template_pool!r}")
    max_stamps = min(max_stamps, len(pool))
    pool = np.array(pool)
    gen = Rng(seed).generator()

    images = np.zeros((n, h, w, c))
    stamps = []
    for i in range(n):
        if noise > 0:
            gen.random(out=images[i])
        count = int(gen.integers(1, max_stamps + 1))
        placed = []
        for t_idx in gen.choice(pool, size=count, replace=False).tolist():
            for _ in range(1000):
                y0 = int(gen.integers(0, h - th + 1))
                x0 = int(gen.integers(0, w - tw + 1))
                for _, py, px in placed:
                    if abs(y0 - py) < th and abs(x0 - px) < tw:
                        break
                else:
                    break
            else:
                raise RuntimeError("could not place stamps without overlap")
            placed.append((t_idx, y0, x0))
        stamps.append(tuple(placed))
    images *= noise
    # stamps never overlap within an image, so one scatter adds each
    # stamped pixel's template value once, onto its noise
    image, t_idx, y0, x0 = np.array(
        [(i, *stamp) for i, placed in enumerate(stamps) for stamp in placed]).T
    rows = y0[:, None, None] + np.arange(th)[:, None]
    cols = x0[:, None, None] + np.arange(tw)
    images[image[:, None, None], rows, cols] += model.templates[t_idx]
    labels = np.zeros(n, dtype=np.int64)
    labels[image[t_idx == 0]] = 1
    return SyntheticDataset(images=images, labels=labels, stamps=tuple(stamps))


def save_backbone(model, directory):
    """Persist templates, head, and optional mixing as an NPY bundle."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_npy(model.templates, directory / "templates.npy")
    save_npy(model.head_weights.reshape(1, -1), directory / "head_weights.npy")
    manifest = {
        "input_shape": list(model.input_shape),
        "head_bias": model.head_bias,
        "has_mixing": model.mixing is not None,
    }
    if model.mixing is not None:
        save_npy(model.mixing, directory / "mixing.npy")
    save_json(manifest, directory / "manifest.json")


def load_backbone(directory):
    """Read a bundle written by save_backbone.

    A manifest.json without one of the keys save_backbone writes, or with
    a value of another JSON type, raises DataError naming the file and the
    key.
    """
    directory = Path(directory)
    manifest = load_record(directory / "manifest.json",
                           {"input_shape": (list,), "head_bias": (int, float),
                            "has_mixing": (bool,)})
    templates = load_npy(directory / "templates.npy")
    head_weights = load_npy(directory / "head_weights.npy").ravel()
    mixing = load_npy(directory / "mixing.npy") if manifest["has_mixing"] else None
    return ToyBackbone(templates=templates, head_weights=head_weights,
                       head_bias=float(manifest["head_bias"]),
                       input_shape=tuple(manifest["input_shape"]), mixing=mixing)
