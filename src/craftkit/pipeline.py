"""End-to-end concept extraction: crops, banks, refinement, attribution,
and fidelity curves.

A "model" here is anything with features(x, layer=None), predict(x) and
features_vjp(x, layer=None), which returns (features(x, layer), pullback)
with pullback(cotangent) the gradient of <features, cotangent> w.r.t. x,
as jax.vjp does; a head is passed to fidelity_curves on its own, never
read from the model. A bank stores unit-norm nonnegative concept vectors
and the layer value they were fit at, which goes back to the model
unchanged; coefficients live in the rows of U.

Crops are cut and resized in blocks of about 2^16 floats by one private
loop, which extract_crops runs into one stack. build_concept_bank runs
the model on each block as soon as it is cut and keeps the crops in one
stack, or, given a path, appends each block's windows as cut to an NPY
file, which CropWindows reads back row by row, resized, for
recursive_decompose.

concept_attribution_maps takes one image or a stack. Gradient maps take
one features_vjp pass over a group of images and one pullback per
concept; occlusion copies each image into its rows and zeroes each
patch through flat pixel indices computed once per image size. Every
image is solved on its own, so a stack's maps are those of its images'
own calls.
"""

import functools
import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import _BLOCK_FLOATS, Rng, as_tensor4
from .errors import CraftError, DataError, EmptySetError, InsufficientDataError
from .implicit import jacobian_u_wrt_a
from .nmf import NmfParams, fit_nmf
from .nnls import Gram, solve_nnls
from .npyio import (NpyBlockWriter, load_npy, load_npy_rows, load_record, npy_shape,
                    save_json, save_npy)
from .sobol import _coefficients, _evaluate, _mean_head_outputs

# fewest crops above the refinement threshold that recursive_decompose fits
_MIN_CROPS = 10
# the share of crops, by coefficient, that recursive_decompose refines
_TOP_FRACTION = 0.1
# smoothgrad's noise deviation, relative to the image's value range
_NOISE_SCALE = 0.1
# one extract_crops provenance row: the source image and the window
_PROVENANCE = np.dtype([(name, np.int64) for name in ("image", "y0", "x0", "h", "w")])


@dataclass(frozen=True)
class CropSpec:
    """How sub-regions are cut before feature extraction.

    grid mode tiles corner-anchored, uniformly spaced windows (deterministic);
    random mode samples positions from the seeded counter-based generator.
    Crops are bilinearly resized to resize_to, which defaults to the source
    image size so the model can consume them unchanged.
    """

    mode: str = "grid"
    crop_fraction: float = 0.5
    crops_per_image: int = 8
    resize_to: tuple | None = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("grid", "random"):
            raise ValueError(f"unknown crop mode {self.mode!r}")
        if not 0.0 < self.crop_fraction <= 1.0:
            raise ValueError("crop_fraction must be in (0, 1]")
        if self.crops_per_image < 1:
            raise ValueError("crops_per_image must be at least 1")
        size = self.resize_to
        if size is not None and not (
                isinstance(size, (tuple, list)) and len(size) == 2 and all(
                    isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n > 0
                    for n in size)):
            raise ValueError("resize_to must be two positive integers (height, width), "
                             f"got {size!r}")


@dataclass(frozen=True)
class ConceptBank:
    """Unit-norm nonnegative concept vectors (columns of W) for one layer.

    layer_tag is the layer value the bank was fit at (a string, an int or
    None), as the model's features take it. The rank r is W's column count.
    converged, kkt_residual, outer_iters and nnls_steps (the pivoting steps
    of all its NNLS solves) are the diagnostics of the fit that produced the
    bank (see fit_bank); they are None for a bank built by hand.

    The bank keeps a read-only copy of W, so writing into bank.W raises
    ValueError. What the NNLS solver derives from W alone (its checks,
    W^T W and the rank test) is computed once, on first use, as ``gram``,
    and every attribution map of the bank reuses it.
    """

    W: np.ndarray
    layer_tag: str | int | None
    fit_objective: float
    column_norms: np.ndarray
    bank_id: str = "bank"
    parent: tuple | None = None  # (parent bank id, concept index)
    converged: bool | None = None
    kkt_residual: float | None = None
    outer_iters: int | None = None
    nnls_steps: int | None = None

    def __post_init__(self):
        W = np.array(self.W)
        W.flags.writeable = False
        object.__setattr__(self, "W", W)

    @property
    def r(self):
        return self.W.shape[1]

    @cached_property
    def gram(self):
        """The nnls.Gram of W, built on first read and then kept."""
        return Gram.of(self.W)


_DIAGNOSTICS = ("converged", "kkt_residual", "outer_iters", "nnls_steps")

# JSON types of meta.json values (rank and column_norms also against W.npy)
_META_REQUIRED = {"rank": (object,), "layer_tag": (str, int, type(None)),
                  "objective": (int, float), "column_norms": (list,)}
_META_OPTIONAL = {"bank_id": (str,), "parent": (list, type(None)), "converged": (bool,),
                  "kkt_residual": (int, float), "outer_iters": (int,),
                  "nnls_steps": (int,)}


@dataclass(frozen=True)
class Heatmap:
    values: np.ndarray
    concept_index: int
    method: str

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("heatmap contains non-finite values")


@dataclass(frozen=True)
class FidelityCurve:
    """Mean model output as concepts are progressively removed or added."""

    xs: np.ndarray
    ys: np.ndarray
    auc: float

    def __post_init__(self):
        if self.xs[0] != 0.0 or self.xs[-1] != 1.0 or np.any(np.diff(self.xs) <= 0):
            raise ValueError("xs must increase strictly from 0 to 1")


def bilinear_resize(t, out_h, out_w):
    """Resize a (b, h, w, c) stack with corner-aligned bilinear sampling.

    Equal input and output sizes reproduce the input exactly. An output
    size below 1 raises ValueError naming out_h or out_w.
    """
    t = as_tensor4(t)
    for name, size in (("out_h", out_h), ("out_w", out_w)):
        if size < 1:
            raise ValueError(f"{name} must be at least 1, got {size}")
    out = np.empty((len(t), out_h, out_w, t.shape[3]))
    _resize_into(t, out)
    return out


def _resize_into(t, out):
    """Write the (b, h, w, c) stack t, bilinearly resized to out's height
    and width, into out, which holds b images of c channels."""
    _, h, w, _ = t.shape
    out_h, out_w = out.shape[1:3]
    if (h, w) == (out_h, out_w):
        out[...] = t
        return
    ys = np.linspace(0.0, h - 1.0, out_h) if out_h > 1 else np.zeros(1)
    xs = np.linspace(0.0, w - 1.0, out_w) if out_w > 1 else np.zeros(1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[None, :, None, None]
    wx = (xs - x0)[None, None, :, None]
    # along x on the h source rows once, then along y on the output rows;
    # take (unlike a[:, idx]) returns C order, which the model reads faster.
    # The second term of each pass is scaled in place, the same numbers as
    # a product, so besides out only the rows and one output-sized
    # temporary are held at a time
    rows = t.take(x0, axis=2)
    rows *= 1 - wx
    term = t.take(x1, axis=2)
    term *= wx
    rows += term
    del term
    np.multiply(rows.take(y0, axis=1), 1 - wy, out=out)
    term = rows.take(y1, axis=1)
    term *= wy
    out += term


def _grid_positions(extent, side, count):
    if count == 1:
        return [0]
    span = extent - side
    return sorted({int(round(p)) for p in np.linspace(0.0, span, count)})


def extract_crops(images, spec):
    """Cut windows out of every image and resize them for the model.

    Returns (crops, provenance); provenance is a structured array, one row
    per crop, of int64 fields image (the source image index), y0, x0, h and
    w, exact enough to re-cut the crop bit-for-bit. Grid mode dedupes
    coincident windows (e.g. fraction 1.0 yields a single full-image crop).
    The windows are read through a view of the images and resized in blocks
    of about 2^16 output floats straight into the returned array, so
    besides it memory stays near one block; each crop is resized on its
    own, so the bytes do not depend on the blocking.
    """
    provenance, shape, blocks = _crop_blocks(images, spec)
    crops = np.empty(shape)
    for _ in blocks(crops):
        pass
    return crops, provenance


def _crop_blocks(images, spec, sources=None):
    """Place the crops of the images at the indices sources (default: every
    image, in order), and cut them block by block.

    Returns (provenance, shape, blocks): provenance as extract_crops returns
    it, with the sources' own indices in its image field, the crop stack's
    shape, and blocks(out=None), a generator over consecutive blocks of
    about 2^16 crop floats. It gathers each block's windows, as cut, from
    a view of the images, resizes them into out's rows of the block when
    out is given, else into a new array, and yields (rows, cut, crops): the
    slice of the stack, the windows and the crops resized from them.
    """
    images = as_tensor4(images, "images")
    n, h, w, c = images.shape
    sources = np.arange(n) if sources is None else sources
    side_y = int(round(spec.crop_fraction * h))
    side_x = int(round(spec.crop_fraction * w))
    if side_y < 1 or side_x < 1:
        raise ValueError("crop_fraction rounds to an empty window")
    if side_y > h or side_x > w:
        raise ValueError("crop larger than image")
    out_h, out_w = spec.resize_to if spec.resize_to is not None else (h, w)

    if spec.mode == "grid":
        per_axis = math.ceil(math.sqrt(spec.crops_per_image))
        ys = _grid_positions(h, side_y, per_axis)
        xs = _grid_positions(w, side_x, per_axis)
        grid = np.array([(y, x) for y in ys for x in xs][:spec.crops_per_image])
        per_image, corners = len(grid), np.tile(grid, (len(sources), 1))
    else:
        # row by row, y then x: the draws of one scalar integers call each
        gen = Rng(spec.seed, stream=11).generator()
        per_image = spec.crops_per_image
        corners = gen.integers(0, (h - side_y + 1, w - side_x + 1),
                               size=(len(sources) * per_image, 2))
    idx = np.repeat(sources, per_image)
    top, left = corners.T
    provenance = np.empty(len(idx), _PROVENANCE)
    provenance["image"], provenance["y0"], provenance["x0"] = idx, top, left
    provenance["h"], provenance["w"] = side_y, side_x
    shape = (len(idx), out_h, out_w, c)
    # (n, positions y, positions x, side_y, side_x, c), a view of the images
    windows = np.moveaxis(sliding_window_view(images, (side_y, side_x), axis=(1, 2)), 3, -1)
    step = max(1, _BLOCK_FLOATS // max(out_h * out_w * c, 1))

    def blocks(out=None):
        for start in range(0, len(idx), step):
            rows = slice(start, start + step)
            cut = windows[idx[rows], top[rows], left[rows]]
            crops = np.empty((len(cut),) + shape[1:]) if out is None else out[rows]
            _resize_into(cut, crops)
            yield rows, cut, crops

    return provenance, shape, blocks


def select_class_set(predictions, target_class):
    """Indices whose model prediction equals the target class."""
    predictions = np.asarray(predictions).reshape(-1)
    idx = np.flatnonzero(predictions == target_class)
    if idx.size == 0:
        raise EmptySetError(f"no samples predicted as class {target_class!r}")
    return idx


def fit_bank(activations, nmf_params, layer, bank_id="bank", parent=None):
    """Factorize an activation matrix (n x p) into a concept bank.

    The entry point for activations computed elsewhere; build_concept_bank
    and recursive_decompose call it after encoding their crops. The bank
    keeps layer as its layer_tag and carries the fit's diagnostics
    (bank.converged among them), so save_bank records them. Returns
    (bank, U) with one coefficient row per activation row.
    """
    state = fit_nmf(activations, nmf_params)
    bank = ConceptBank(W=state.W, layer_tag=layer,
                       fit_objective=float(state.objective_trace[-1]),
                       column_norms=state.column_norms, bank_id=bank_id,
                       parent=parent, converged=bool(state.converged),
                       kkt_residual=float(state.kkt_residual),
                       outer_iters=len(state.objective_trace) - 1,
                       nnls_steps=state.nnls_steps)
    return bank, state.U


def build_concept_bank(images, model, target_class, r, spec=None, nmf_params=None,
                       layer=None, crops_path=None):
    """Fit a concept bank on crops of the images the model assigns to a class.

    Returns (bank, U, context); the bank's layer_tag is layer, unchanged, and
    context carries the provenance and activations for later stages. The
    crops are cut, as extract_crops cuts them, in blocks of about 2^16
    floats, and model.features encodes each block as soon as it is cut.
    With crops_path None, the blocks are resized straight into one stack,
    context["crops"]. Given a path, each block's windows, as cut and before
    the resize, are appended to an NPY file there instead (NpyBlockWriter),
    a (crops, h, w, channels) stack with h and w as the provenance gives
    them, complete before the fit starts, and context has no "crops": memory
    holds one block of crops besides the activations and the provenance.
    CropWindows reads the file back, resized to the same bytes.
    """
    spec = spec or CropSpec()
    params = nmf_params or NmfParams(rank=r)
    if params.rank != r:
        raise ValueError("nmf_params.rank disagrees with r")
    idx = select_class_set(model.predict(images), target_class)
    provenance, shape, blocks = _crop_blocks(images, spec, idx)
    if crops_path is None:
        stack, writer = np.empty(shape), nullcontext()
    else:
        stack = None
        writer = NpyBlockWriter(crops_path, (len(provenance), int(provenance["h"][0]),
                                             int(provenance["w"][0]), shape[3]))
    activations = None
    with writer as file:
        for rows, cut, crops in blocks(stack):
            features = model.features(crops, layer=layer)
            if activations is None:
                activations = np.empty((len(provenance),) + np.shape(features)[1:])
            activations[rows] = features
            if file is not None:
                file.write(cut)
    bank, U = fit_bank(activations, params, layer)
    context = {"provenance": provenance, "activations": activations}
    if stack is not None:
        context["crops"] = stack
    return bank, U, context


class CropWindows:
    """The crop windows of an NPY file, read on demand and resized.

    The file holds each crop's window as cut, as build_concept_bank writes
    it given crops_path (fit --model's crops.npy), a 4-D stack. len() is
    the window count, read from the header, and indexing with an integer
    array reads only those windows (npyio.load_npy_rows) and bilinearly
    resizes them to size, (height, width), in blocks of about 2^16 output
    floats: the crops the model encoded, byte for byte, when size is the
    CropSpec's resize_to. recursive_decompose takes it in place of a crop
    stack. A file of another rank is a DataError.
    """

    def __init__(self, path, size):
        self.path, self.size = path, tuple(size)
        self.shape = npy_shape(path)
        if len(self.shape) != 4:
            raise DataError(f"{path}: crop windows must be a 4-D stack, "
                            f"got shape {self.shape}")

    def __len__(self):
        return self.shape[0]

    def __getitem__(self, rows):
        rows = np.asarray(rows)
        out = np.empty((len(rows),) + self.size + self.shape[3:])
        step = max(1, _BLOCK_FLOATS // math.prod(out.shape[1:]))
        for start in range(0, len(rows), step):
            block = slice(start, start + step)
            _resize_into(load_npy_rows(self.path, rows[block]), out[block])
        return out


def concept_percentile_threshold(values):
    """Largest value NOT in the top decile, the top ceil(0.1 * n); strict >
    selects exactly ceil(0.1 * n) entries when values are distinct. No
    values at all raise ValueError."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    n = values.size
    if n == 0:
        raise ValueError("no values to threshold: the top decile of nothing is undefined")
    keep = math.ceil(_TOP_FRACTION * n)
    order = np.sort(values)
    return float(order[n - keep - 1]) if keep < n else float(order[0]) - 1.0


def recursive_decompose(bank, U, concept_index, crops, model, layer, nmf_params):
    """Refine one concept into sub-concepts at an earlier layer.

    Crops whose coefficient on the concept strictly exceeds the top-decile
    threshold are re-encoded with model.features(crops, layer=layer) and
    factorized again. The sub-bank keeps layer as its layer_tag, as
    build_concept_bank's bank does, so it can drive attribution maps.
    crops is a stack of n crops or anything with len() and integer-array
    indexing, such as CropWindows, and only the selected crops are read
    from it. U must be n x bank.r, one row per crop; no crops at all raise
    InsufficientDataError. Returns (sub_bank, U_sub, selected_indices).
    """
    U = np.asarray(U)
    if U.ndim != 2 or U.shape[1] != bank.r:
        raise ValueError(f"U must be n x {bank.r}, one column per concept; got {U.shape}")
    if len(U) != len(crops):
        raise ValueError(f"U has {len(U)} rows but there are {len(crops)} crops; "
                         "one coefficient row per crop is needed")
    if not 0 <= concept_index < bank.r:
        raise ValueError(f"concept index {concept_index} out of range")
    if len(U) == 0:
        raise InsufficientDataError(f"there are no crops to refine (need {_MIN_CROPS})")
    coeffs = U[:, concept_index]
    threshold = concept_percentile_threshold(coeffs)
    selected = np.flatnonzero(coeffs > threshold)
    if selected.size < _MIN_CROPS:
        raise InsufficientDataError(
            f"only {selected.size} crops exceed the refinement threshold "
            f"(need {_MIN_CROPS})")
    activations = model.features(crops[selected], layer=layer)
    sub_bank, U_sub = fit_bank(activations, nmf_params, layer,
                               bank_id=f"{bank.bank_id}/concept{concept_index}",
                               parent=(bank.bank_id, concept_index))
    return sub_bank, U_sub, selected


def concept_attribution_maps(x, bank, model, concepts, method="gradient",
                             seed=0, n_noise=16):
    """Locate each of the given concepts in an image, or in each image of a
    (b, H, W, C) stack, in one pass.

    gradient: implicit differentiation of the coefficient chained with the
    model's input gradient, channel-reduced by summed absolute values.
    smoothgrad: mean of gradient maps over n_noise copies jittered by
    Gaussian noise of deviation 0.1 times the image's value range; a
    degenerate solution on any copy raises DegeneracyError for the pass.
    occlusion: coefficient drop from zeroing a sliding patch (forward only).

    All concepts and images share the model passes: one features_vjp
    call per group of images, or features calls on blocks of the clean
    images and one copy per occluded patch, each group or block about
    core._BLOCK_FLOATS floats of images. The occlusion geometry and one
    normal draw from Rng(seed, stream=17), scaled by each image's own
    deviation, serve every image. Each image's rows get their own NNLS
    solve and Jacobian, so its maps and its errors are those of a call on
    that image alone; on a stack of several images, the message of an
    error raised for one image starts with that image's position.

    Returns one Heatmap per entry of concepts, in order, for an image
    (H, W, C); for a stack, one such list per image.
    """
    stack = np.ndim(x) == 4
    x = as_tensor4(x if stack else np.asarray(x)[None], "image")
    if not len(x):
        raise ValueError("no images to explain")
    concepts = list(concepts)
    if not concepts:
        raise ValueError("no concepts requested")
    for c in concepts:
        if not 0 <= c < bank.r:
            raise ValueError(f"concept index {c} out of range")

    several = len(x) > 1
    if method == "gradient":
        values = _gradient_heatmaps(x[:, None], bank, model, concepts, several)
    elif method == "smoothgrad":
        if n_noise < 1:
            raise ValueError(f"n_noise must be at least 1, got {n_noise}")
        sigma = _NOISE_SCALE * (x.max(axis=(1, 2, 3)) - x.min(axis=(1, 2, 3)))
        noise = Rng(seed, stream=17).generator().standard_normal((n_noise,) + x.shape[1:])
        values = _gradient_heatmaps(x[:, None], bank, model, concepts, several,
                                    jitter=(sigma, noise))
    elif method == "occlusion":
        values = _occlusion_heatmaps(x, bank, model, concepts, several)
    else:
        raise ValueError(f"unknown method {method!r}")
    maps = [[Heatmap(v, c, method) for c, v in zip(concepts, image)] for image in values]
    return maps if stack else maps[0]


def concept_attribution_map(x, bank, model, concept_index, method="gradient",
                            seed=0, n_noise=16):
    """Locate one concept in one image (concept_attribution_maps of one)."""
    return concept_attribution_maps(x, bank, model, [concept_index], method,
                                    seed, n_noise)[0]


def _solve_image(acts, bank, i, several, jacobian=False):
    """solve_nnls of image i's rows of activations, or with jacobian their
    ConceptJacobian; among several images, an error's message starts with
    the image's position."""
    try:
        solution = solve_nnls(acts, bank.gram)
        return jacobian_u_wrt_a(solution, bank.gram) if jacobian else solution
    except (CraftError, ValueError) as exc:
        if several:
            exc.args = (f"image {i} of the stack: {exc}",)
        raise


def _gradient_heatmaps(x, bank, model, concepts, several, jitter=None):
    """Mean over the rows of each image of |d u_c / d pixel|, channel-summed,
    per image and concept c: (b, len(concepts), H, W) maps of x, (b, 1, H,
    W, C). jitter, (sigma, noise), replaces each image's row by n copies
    x + sigma_i noise. Per group of images, one features_vjp call; then
    per image one NNLS solve (rows are separable) and one Jacobian, and
    per concept one pullback.
    """
    b, _, h, w, c = x.shape
    n = 1 if jitter is None else len(jitter[1])
    maps = np.empty((b, len(concepts), h, w))
    one_hots = np.eye(bank.r)[concepts]
    step = max(1, _BLOCK_FLOATS // (n * h * w * c))
    for start in range(0, b, step):
        group = x[start:start + step]
        if jitter is not None:
            sigma, noise = jitter
            group = group + sigma[start:start + step, None, None, None, None] * noise
        size = len(group)
        acts, pullback = model.features_vjp(group.reshape(size * n, h, w, c),
                                            layer=bank.layer_tag)
        cot = np.empty((len(concepts), size * n, np.shape(acts)[1]))
        for i in range(size):
            rows = slice(i * n, (i + 1) * n)
            jac = _solve_image(acts[rows], bank, start + i, several, jacobian=True)
            for j, one_hot in enumerate(one_hots):
                cot[j, rows] = jac.vjp(np.tile(one_hot, (n, 1)))
        for j in range(len(concepts)):
            dx = np.abs(pullback(cot[j])).sum(axis=-1)
            maps[start:start + size, j] = dx.reshape(size, n, h, w).mean(axis=1)
    return maps


def _occlusion_heatmaps(x, bank, model, concepts, several):
    """Each image's coefficient drops from zeroing a sliding patch, spread
    back over the pixels each patch covers: (b, len(concepts), H, W).

    Image i's rows are its clean copy and then one copy per patch, with
    that patch zeroed (see _occlusion_geometry). The rows of all images
    are built and encoded in blocks of about _BLOCK_FLOATS floats: each
    row is copied from its image, and its patch's pixels are zeroed
    through the flat indices. Each image's rows are solved together.
    """
    b, h, w, c = x.shape
    per_image, area, zeroed, cover_y, cover_x, count = _occlusion_geometry(h, w)
    pixels = h * w
    step = max(1, _BLOCK_FLOATS // (pixels * c))
    acts = []
    for start in range(0, b * per_image, step):
        stop = min(start + step, b * per_image)
        block = np.empty((stop - start, h, w, c))
        for i in range(start // per_image, (stop - 1) // per_image + 1):
            # image i's rows first to last - 1 are this block's rows
            # offset + first to offset + last - 1
            offset = i * per_image - start
            first, last = max(-offset, 0), min(stop - start - offset, per_image)
            part = block[offset + first:offset + last]
            part[...] = x[i]
            part.reshape(-1, c)[zeroed[max(first - 1, 0) * area:(last - 1) * area]
                                - first * pixels] = 0.0
        acts.append(model.features(block, layer=bank.layer_tag))
    acts = np.concatenate(acts)
    maps = np.empty((b, len(concepts), h, w))
    for i in range(b):
        u = _solve_image(acts[i * per_image:(i + 1) * per_image], bank, i, several).U
        drop = (u[0] - u[1:])[:, concepts].T.reshape(len(concepts), cover_y.shape[1],
                                                      cover_x.shape[0])
        maps[i] = cover_y @ drop @ cover_x / count
    return maps


@functools.lru_cache(maxsize=8)
def _occlusion_geometry(h, w):
    """The patches of an h x w occlusion map, read-only, computed once per
    size: (per_image, area, zeroed, cover_y, cover_x, count).

    per_image counts an image's rows, its clean copy and one copy per
    patch, the corners row-major; the patches are squares of area pixels.
    zeroed[(k - 1) * area:k * area] are the pixels row k zeroes, as flat
    indices into an image's rows of h * w pixels. cover_y (h, patch rows)
    and cover_x (patch columns, w) are the 0/1 cover matrices, so
    cover_y @ drop @ cover_x sums each pixel's patch drops, and count is
    the number of patches over each pixel, at least 1.
    """
    patch = max(1, round(min(h, w) / 8))
    stride = max(1, patch // 2)
    ys, xs = np.arange(0, h - patch + 1, stride), np.arange(0, w - patch + 1, stride)
    # in_y[j, i] (in_x[j, i]): pixel row (column) i lies in the j-th patch row (column)
    in_y, in_x = np.arange(h) - ys[:, None], np.arange(w) - xs[:, None]
    in_y, in_x = (in_y >= 0) & (in_y < patch), (in_x >= 0) & (in_x < patch)
    per_image = len(ys) * len(xs) + 1
    corners = (ys[:, None] * w + xs).ravel()
    span = np.arange(patch)
    zeroed = ((np.arange(1, per_image) * (h * w) + corners)[:, None]
              + (span[:, None] * w + span).ravel()).ravel()
    cover_y, cover_x = in_y.T.astype(np.float64), in_x.astype(np.float64)
    count = np.maximum(np.outer(in_y.sum(axis=0), in_x.sum(axis=0)).astype(np.float64), 1.0)
    for a in (zeroed, cover_y, cover_x, count):
        a.flags.writeable = False
    return per_image, patch * patch, zeroed, cover_y, cover_x, count


def fidelity_curves(U, W, head, importance, direction="deletion", mu=0.0):
    """Deletion or insertion curve over concepts ranked by importance.

    Deletion replaces the top-k concepts' coefficients with the baseline;
    insertion keeps only the top-k. The y value at step k is the mean head
    output over the reconstructed activations. They are evaluated as the
    Sobol' masks are: the (step, row) pairs reach ``head`` in step-major
    blocks of activation rows; an ``AffineHead`` sees the row-mean
    coefficients alone. U not n x r (n >= 1) for W p x r, or a
    non-finite importance score, raises ValueError; a non-finite baseline
    mu or head output raises DataError. auc integrates y over the fraction
    of concepts touched.
    """
    U, W = _coefficients(U, W)
    importance = np.asarray(importance, dtype=np.float64).reshape(-1)
    r = U.shape[1]
    if importance.size != r:
        raise ValueError("importance length must equal the concept count")
    if not np.all(np.isfinite(importance)):
        raise ValueError(f"importance must be finite to rank concepts, got {importance}")
    if direction not in ("deletion", "insertion"):
        raise ValueError(f"unknown direction {direction!r}")
    # top[k, j]: concept j is among the k most important; mask row k is step k
    rank = np.argsort(np.argsort(-importance, kind="stable"))
    top = rank[None, :] < np.arange(r + 1)[:, None]
    masks = (~top if direction == "deletion" else top).astype(np.float64)
    ys = _evaluate(lambda m: _mean_head_outputs(U, W, head, m, mu), masks,
                   f"{direction} curve")
    xs = np.arange(r + 1) / r
    return FidelityCurve(xs=xs, ys=ys, auc=float(np.trapezoid(ys, xs)))


# one provenance row as json.dumps lays out its dict at indent 2, keys sorted
_SORTED_FIELDS = ["h", "image", "w", "x0", "y0"]
_PROVENANCE_ROW = ('  {\n    "h": %d,\n    "image": %d,\n    "w": %d,\n'
                   '    "x0": %d,\n    "y0": %d\n  }')


def save_provenance(rows, path):
    """Write extract_crops' provenance as save_json would one dict per row.

    With indent set, json runs its pure-Python encoder, which on a few
    thousand rows costs more than the bank's NMF fit. The row template,
    repeated once per row and filled by one % from the fields interleaved
    row by row, writes the same text over ten times faster, file write
    included: 3200 rows take 1.6 ms, against about 20 ms through json and
    2.2 ms with one % per row.
    """
    values = np.stack([rows[field] for field in _SORTED_FIELDS], axis=1).ravel().tolist()
    body = ",\n".join([_PROVENANCE_ROW] * len(rows)) % tuple(values)
    with open(path, "w") as fh:
        fh.write(f"[\n{body}\n]\n" if len(rows) else "[]\n")


def save_bank(bank, directory):
    """Persist a bank as W.npy plus a JSON sidecar (meta.json).

    The sidecar records the fit diagnostics (converged, kkt_residual,
    outer_iters, nnls_steps) whenever the bank carries them. A NumPy integer
    layer_tag is written as the equal int; a tag load_bank would reject (not
    a str, a non-bool int or None) raises ValueError before anything is written.
    """
    tag = int(bank.layer_tag) if isinstance(bank.layer_tag, np.integer) else bank.layer_tag
    if tag is not None and (isinstance(tag, bool) or not isinstance(tag, (str, int))):
        raise ValueError(f"layer_tag must be a str, an int or None, got {tag!r}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_npy(bank.W, directory / "W.npy")
    meta = {
        "rank": bank.r,
        "layer_tag": tag,
        "objective": bank.fit_objective,
        "column_norms": [float(v) for v in bank.column_norms],
        "created_by": "craftkit 0.1.0",
        "bank_id": bank.bank_id,
        "parent": list(bank.parent) if bank.parent else None,
    }
    meta.update({key: getattr(bank, key) for key in _DIAGNOSTICS
                 if getattr(bank, key) is not None})
    save_json(meta, directory / "meta.json")


def load_bank(directory):
    """Read a bank written by save_bank.

    A meta.json that lacks a key save_bank always writes, holds a value of
    another JSON type, or whose rank or column_norms disagree with W.npy's
    column count raises DataError naming the file.
    """
    directory = Path(directory)
    path = directory / "meta.json"
    meta = load_record(path, _META_REQUIRED, _META_OPTIONAL)
    W = load_npy(directory / "W.npy")
    rank = meta["rank"]
    if not isinstance(rank, int) or W.ndim != 2 or W.shape[1] != rank:
        raise DataError(f"{path} gives rank {rank!r} but W.npy has shape {W.shape}")
    norms = meta["column_norms"]
    if len(norms) != rank or not all(type(v) in (int, float) for v in norms):
        raise DataError(f"{path}: the key 'column_norms' holds {norms!r}, "
                        f"expected {rank} numbers")
    parent = tuple(meta["parent"]) if meta.get("parent") else None
    return ConceptBank(W=W, layer_tag=meta["layer_tag"],
                       fit_objective=float(meta["objective"]),
                       column_norms=np.asarray(norms, dtype=np.float64),
                       bank_id=meta.get("bank_id", "bank"), parent=parent,
                       **{key: meta[key] for key in _DIAGNOSTICS if key in meta})
