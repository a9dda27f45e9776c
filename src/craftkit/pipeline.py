"""End-to-end concept extraction: crops, banks, refinement, attribution,
and fidelity curves.

A "model" here is anything with the toy backbone's surface: features(x,
layer=None), head(a), predict(x), vjp_features(x, cotangent, layer=None),
and an input_shape. Banks store unit-norm nonnegative concept vectors for
one layer; coefficients live in the rows of U.
"""

import itertools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import Rng, as_tensor4
from .errors import EmptySetError, InsufficientDataError
from .implicit import jacobian_u_wrt_a
from .nmf import NmfParams, fit_nmf
from .nnls import AdmmParams, solve_nnls
from .npyio import load_npy, save_npy
from .sobol import _evaluate, _mean_head_outputs

_ATTRIBUTION_ADMM = AdmmParams(tol_primal=1e-11, tol_dual=1e-11)


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


@dataclass(frozen=True)
class ConceptBank:
    """Unit-norm nonnegative concept vectors (columns of W) for one layer.

    converged, kkt_residual and outer_iters are the diagnostics of the fit
    that produced the bank (see fit_bank); they are None for a bank built
    by hand.
    """

    W: np.ndarray
    layer_tag: str
    r: int
    fit_objective: float
    column_norms: np.ndarray
    bank_id: str = "bank"
    parent: tuple | None = None  # (parent bank id, concept index)
    converged: bool | None = None
    kkt_residual: float | None = None
    outer_iters: int | None = None


_DIAGNOSTICS = ("converged", "kkt_residual", "outer_iters")


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
    ranking_source: str
    direction: str

    def __post_init__(self):
        if self.xs[0] != 0.0 or self.xs[-1] != 1.0 or np.any(np.diff(self.xs) <= 0):
            raise ValueError("xs must increase strictly from 0 to 1")


def bilinear_resize(t, out_h, out_w):
    """Resize a (b, h, w, c) stack with corner-aligned bilinear sampling.

    Equal input and output sizes reproduce the input exactly.
    """
    t = as_tensor4(t)
    b, h, w, c = t.shape
    if (h, w) == (out_h, out_w):
        return t.copy()
    ys = np.linspace(0.0, h - 1.0, out_h) if out_h > 1 else np.zeros(1)
    xs = np.linspace(0.0, w - 1.0, out_w) if out_w > 1 else np.zeros(1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[None, :, None, None]
    wx = (xs - x0)[None, None, :, None]
    top = t[:, y0][:, :, x0] * (1 - wx) + t[:, y0][:, :, x1] * wx
    bot = t[:, y1][:, :, x0] * (1 - wx) + t[:, y1][:, :, x1] * wx
    return top * (1 - wy) + bot * wy


def _grid_positions(extent, side, count):
    if count == 1:
        return [0]
    span = extent - side
    return sorted({int(round(p)) for p in np.linspace(0.0, span, count)})


def extract_crops(images, spec):
    """Cut windows out of every image and resize them for the model.

    Returns (crops, provenance); provenance rows are dicts with the source
    image index and the window geometry, exact enough to re-cut the crop
    bit-for-bit. Grid mode dedupes coincident windows (e.g. fraction 1.0
    yields a single full-image crop).
    """
    images = as_tensor4(images, "images")
    n, h, w, c = images.shape
    side_y = int(round(spec.crop_fraction * h))
    side_x = int(round(spec.crop_fraction * w))
    if side_y < 1 or side_x < 1:
        raise ValueError("crop_fraction rounds to an empty window")
    if side_y > h or side_x > w:
        raise ValueError("crop larger than image")
    out_h, out_w = spec.resize_to if spec.resize_to is not None else (h, w)

    windows = []
    if spec.mode == "grid":
        per_axis = math.ceil(math.sqrt(spec.crops_per_image))
        ys = _grid_positions(h, side_y, per_axis)
        xs = _grid_positions(w, side_x, per_axis)
        grid = [(y, x) for y in ys for x in xs][:spec.crops_per_image]
        for i in range(n):
            for y0, x0 in grid:
                windows.append((i, y0, x0))
    else:
        gen = Rng(spec.seed, stream=11).generator()
        for i in range(n):
            for _ in range(spec.crops_per_image):
                y0 = int(gen.integers(0, h - side_y + 1))
                x0 = int(gen.integers(0, w - side_x + 1))
                windows.append((i, y0, x0))

    crops = np.empty((len(windows), side_y, side_x, c))
    provenance = []
    for row, (i, y0, x0) in enumerate(windows):
        crops[row] = images[i, y0:y0 + side_y, x0:x0 + side_x, :]
        provenance.append({"image": i, "y0": y0, "x0": x0,
                           "h": side_y, "w": side_x})
    return bilinear_resize(crops, out_h, out_w), provenance


def select_class_set(predictions, target_class):
    """Indices whose model prediction equals the target class."""
    predictions = np.asarray(predictions).reshape(-1)
    idx = np.flatnonzero(predictions == target_class)
    if idx.size == 0:
        raise EmptySetError(f"no samples predicted as class {target_class!r}")
    return idx


def fit_bank(activations, nmf_params, layer_tag, bank_id="bank", parent=None):
    """Factorize an activation matrix (n x p) into a concept bank.

    The entry point for activations computed elsewhere; build_concept_bank
    and recursive_decompose call it after encoding their crops. The bank
    carries the fit's diagnostics, so save_bank records them. Returns
    (bank, state) with the coefficients in state.U.
    """
    state = fit_nmf(activations, nmf_params)
    bank = ConceptBank(W=state.W, layer_tag=layer_tag, r=nmf_params.rank,
                       fit_objective=float(state.objective_trace[-1]),
                       column_norms=state.column_norms, bank_id=bank_id,
                       parent=parent, converged=bool(state.converged),
                       kkt_residual=float(state.kkt_residual),
                       outer_iters=len(state.objective_trace) - 1)
    return bank, state


def build_concept_bank(images, model, target_class, r, spec=None, nmf_params=None,
                       layer=None, bank_id="bank"):
    """Fit a concept bank on crops of the images the model assigns to a class.

    Returns (bank, U, context) where context carries the crops, provenance,
    and activations for persistence and downstream stages.
    """
    spec = spec or CropSpec()
    if spec.resize_to is None:
        spec = replace(spec, resize_to=tuple(model.input_shape[:2]))
    idx = select_class_set(model.predict(images), target_class)
    crops, provenance = extract_crops(np.asarray(images)[idx], spec)
    for row in provenance:
        row["image"] = int(idx[row["image"]])
    activations = model.features(crops, layer=layer)
    params = nmf_params or NmfParams(rank=r)
    if params.rank != r:
        raise ValueError("nmf_params.rank disagrees with r")
    tag = layer if isinstance(layer, str) else ("final" if layer is None else f"layer{layer}")
    bank, state = fit_bank(activations, params, tag, bank_id=bank_id)
    context = {"crops": crops, "provenance": provenance,
               "activations": activations, "state": state}
    return bank, state.U, context


def concept_percentile_threshold(values, fraction=0.1):
    """Largest value NOT in the top ceil(fraction * n); strict > selects
    exactly ceil(fraction * n) entries when values are distinct."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    n = values.size
    keep = math.ceil(fraction * n)
    order = np.sort(values)
    return float(order[n - keep - 1]) if keep < n else float(order[0]) - 1.0


def recursive_decompose(bank, U, concept_index, crops, earlier_features, r_sub,
                        nmf_params=None, min_crops=10, layer_tag=None):
    """Refine one concept into sub-concepts at an earlier layer.

    Crops whose coefficient on the concept strictly exceeds the top-decile
    threshold are re-encoded with earlier_features and factorized again.
    layer_tag names the layer earlier_features reads, so the sub-bank can
    drive attribution maps; it defaults to a descriptive placeholder.
    Returns (sub_bank, U_sub, selected_indices).
    """
    U = np.asarray(U)
    if not 0 <= concept_index < bank.r:
        raise ValueError(f"concept index {concept_index} out of range")
    coeffs = U[:, concept_index]
    threshold = concept_percentile_threshold(coeffs)
    selected = np.flatnonzero(coeffs > threshold)
    if selected.size < min_crops:
        raise InsufficientDataError(
            f"only {selected.size} crops exceed the refinement threshold "
            f"(need {min_crops})")
    activations = earlier_features(np.asarray(crops)[selected])
    params = nmf_params or NmfParams(rank=r_sub)
    if params.rank != r_sub:
        raise ValueError("nmf_params.rank disagrees with r_sub")
    sub_bank, state = fit_bank(activations, params,
                               layer_tag or f"{bank.layer_tag}.earlier",
                               bank_id=f"{bank.bank_id}/concept{concept_index}",
                               parent=(bank.bank_id, concept_index))
    return sub_bank, state.U, selected


def _gradient_heatmaps(x, bank, model, concepts, admm):
    """Mean over the images of x of |d u_c / d pixel|, channel-summed, per
    concept c: one features call, one NNLS solve (rows are separable), one
    Jacobian, and one vjp_features call on the stack repeated per concept.
    """
    acts = model.features(x, layer=bank.layer_tag)
    jac = jacobian_u_wrt_a(solve_nnls(acts, bank.W, admm), bank.W)
    d_acts = [jac.vjp(np.tile(one_hot, (len(x), 1)))
              for one_hot in np.eye(bank.r)[concepts]]
    dx = model.vjp_features(np.concatenate([x] * len(concepts)),
                            np.concatenate(d_acts), layer=bank.layer_tag)
    return np.abs(dx).sum(axis=-1).reshape(len(concepts), *x.shape[:3]).mean(axis=1)


def concept_attribution_maps(x, bank, model, concepts, method="gradient",
                             admm=None, seed=0, n_noise=16, noise_scale=0.1):
    """Locate each of the given concepts in one image, in one pass.

    gradient: implicit differentiation of the coefficient chained with the
    model's input gradient, channel-reduced by summed absolute values.
    smoothgrad: mean of gradient maps over n_noise Gaussian-jittered copies;
    a degenerate solution on any copy raises DegeneracyError for the pass.
    occlusion: coefficient drop from zeroing a sliding patch (forward only).

    All concepts share one stack (the image, its jittered copies, or the
    clean image and one copy per occluded patch), one features call and
    one NNLS solve. Returns one Heatmap per entry of concepts, in order.
    """
    x = as_tensor4(np.asarray(x)[None] if np.asarray(x).ndim == 3 else x, "image")
    if x.shape[0] != 1:
        raise ValueError("one image at a time")
    concepts = list(concepts)
    if not concepts:
        raise ValueError("no concepts requested")
    for c in concepts:
        if not 0 <= c < bank.r:
            raise ValueError(f"concept index {c} out of range")
    admm = admm or _ATTRIBUTION_ADMM

    if method == "gradient":
        values = _gradient_heatmaps(x, bank, model, concepts, admm)
    elif method == "smoothgrad":
        if n_noise < 1:
            raise ValueError(f"n_noise must be at least 1, got {n_noise}")
        sigma = noise_scale * float(x.max() - x.min())
        gen = Rng(seed, stream=17).generator()
        jittered = x + sigma * gen.normal(size=(n_noise,) + x.shape[1:])
        values = _gradient_heatmaps(jittered, bank, model, concepts, admm)
    elif method == "occlusion":
        values = _occlusion_heatmaps(x, bank, model, concepts, admm)
    else:
        raise ValueError(f"unknown method {method!r}")
    return [Heatmap(v, c, method) for c, v in zip(concepts, values)]


def concept_attribution_map(x, bank, model, concept_index, method="gradient",
                            admm=None, seed=0, n_noise=16, noise_scale=0.1):
    """Locate one concept in one image (concept_attribution_maps of one)."""
    return concept_attribution_maps(x, bank, model, [concept_index], method, admm,
                                    seed, n_noise, noise_scale)[0]


def _occlusion_heatmaps(x, bank, model, concepts, admm):
    h, w = x.shape[1:3]
    patch = max(1, round(min(h, w) / 8))
    stride = max(1, patch // 2)
    ys, xs = range(0, h - patch + 1, stride), range(0, w - patch + 1, stride)
    # row 0 is the clean image, row k the copy with patch k - 1 zeroed
    stack = np.repeat(x, len(ys) * len(xs) + 1, axis=0)
    for k, (y0, x0) in enumerate(itertools.product(ys, xs), start=1):
        stack[k, y0:y0 + patch, x0:x0 + patch, :] = 0.0
    u = solve_nnls(model.features(stack, layer=bank.layer_tag), bank.W, admm).U
    drop = (u[0] - u[1:])[:, concepts].T.reshape(len(concepts), len(ys), len(xs))
    heat = np.zeros((len(concepts), h, w))
    count = np.zeros((h, w))
    # descending offsets within the patch add each pixel's patches in corner order
    for dy, dx in itertools.product(reversed(range(patch)), repeat=2):
        window = np.s_[dy:dy + ys[-1] + 1:stride, dx:dx + xs[-1] + 1:stride]
        heat[:, window[0], window[1]] += drop
        count[window] += 1.0
    return heat / np.maximum(count, 1.0)


def fidelity_curves(U, W, head, importance, direction="deletion", mu=0.0,
                    ranking_source="sobol"):
    """Deletion or insertion curve over concepts ranked by importance.

    Deletion replaces the top-k concepts' coefficients with the baseline;
    insertion keeps only the top-k. The y value at step k is the mean head
    output over the reconstructed activations, evaluated in chunks as the
    Sobol' masks are, and on the row-mean coefficients alone when ``head``
    is an ``AffineHead``. A non-finite baseline mu or head output raises
    DataError. auc integrates y over the fraction of concepts touched.
    """
    U = np.asarray(U, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    importance = np.asarray(importance, dtype=np.float64).reshape(-1)
    if U.shape[0] == 0:
        raise ValueError("U has no coefficient rows to draw a curve from")
    r = U.shape[1]
    if importance.size != r:
        raise ValueError("importance length must equal the concept count")
    if direction not in ("deletion", "insertion"):
        raise ValueError(f"unknown direction {direction!r}")
    # top[k, j]: concept j is among the k most important; mask row k is step k
    rank = np.argsort(np.argsort(-importance, kind="stable"))
    top = rank[None, :] < np.arange(r + 1)[:, None]
    masks = (~top if direction == "deletion" else top).astype(np.float64)
    ys = _evaluate(lambda m: _mean_head_outputs(U, W, head, m, mu), masks,
                   f"{direction} curve")
    xs = np.arange(r + 1) / r
    return FidelityCurve(xs=xs, ys=ys, auc=float(np.trapezoid(ys, xs)),
                         ranking_source=ranking_source, direction=direction)


def save_bank(bank, directory):
    """Persist a bank as W.npy plus a JSON sidecar (meta.json).

    The sidecar records the fit diagnostics (converged, kkt_residual,
    outer_iters) whenever the bank carries them.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_npy(bank.W, directory / "W.npy")
    meta = {
        "rank": bank.r,
        "layer_tag": bank.layer_tag,
        "objective": bank.fit_objective,
        "column_norms": [float(v) for v in bank.column_norms],
        "created_by": "craftkit 0.1.0",
        "bank_id": bank.bank_id,
        "parent": list(bank.parent) if bank.parent else None,
    }
    meta.update({key: getattr(bank, key) for key in _DIAGNOSTICS
                 if getattr(bank, key) is not None})
    (directory / "meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n")


def load_bank(directory):
    directory = Path(directory)
    meta = json.loads((directory / "meta.json").read_text())
    W = load_npy(directory / "W.npy")
    parent = tuple(meta["parent"]) if meta.get("parent") else None
    return ConceptBank(W=W, layer_tag=meta["layer_tag"], r=int(meta["rank"]),
                       fit_objective=float(meta["objective"]),
                       column_norms=np.asarray(meta["column_norms"]),
                       bank_id=meta.get("bank_id", "bank"), parent=parent,
                       **{key: meta[key] for key in _DIAGNOSTICS if key in meta})
