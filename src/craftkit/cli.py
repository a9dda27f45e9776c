"""Command-line interface over the run-directory file contract.

A thin layer over ``pipeline``: each command parses its arguments, calls
the library, and reads or writes the run-directory files the README's CLI
section lists. ``fit`` writes the bank and its coefficients, and on
``--model`` also the crop windows as cut, their provenance and their
activations (``build_concept_bank``), the windows streamed into a
temporary directory and moved into the run once the fit is accepted; on
``--activations`` it runs ``fit_bank`` and writes no copy of its input.
``importance`` adds importance.json, ``explain`` fills heatmaps/ in one
attribution pass over all requested images and concepts, ``fidelity``
writes curve CSVs, ``recurse`` reads only the top-decile crop windows of
crops.npy and adds a sub-bank with its coefficients, and ``sanity``
compares banks from trained and weight-randomized models.

A bank and its coefficients, the run's bank view, are named, read and
written by ``_bank_view`` alone; ``importance`` and ``fidelity`` take
their head from ``_head``, which builds it from ``--model`` as an
``AffineHead`` and checks it with ``ConceptBank.check_width``.

Exit codes: 0 success, 2 usage or argument error, 3 data error, 4
numerical failure (``fit``, ``recurse`` and ``sanity`` exit 4 after writing
their artifacts when a fit did not converge, flagged ``"converged":
false``). Each command takes the flags it reads and the run flags
``--model --seed --images --n-images --noise --out``, shared so that one
base argv drives the whole chain, and ignores the run flags it does not
read; ``fit --activations`` exits 2 on ``--images``, ``--class`` or a crop
flag. Any other flag, a missing required flag or a bad choice exits 2
through argparse before any file is read; ``fit``, ``explain`` and
``sanity`` write only once their input is accepted, so a rejected run
writes nothing.

``main`` builds its parser once per process (``build_parser`` still
returns a new one), which spares a caller running several commands through
it about 2.3 ms per command after the first; ``--model`` is built, or read
from its directory, on every call.
"""

import argparse
import functools
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .core import Rng
from .errors import CraftError, DataError, NumericalError
from .nmf import NmfParams, fit_nmf
from .npyio import load_json, load_npy, save_json, save_npy
# concept_attribution_map is unused here but wrapped by perfbench/spans.py
from .pipeline import (CropSpec, CropWindows, build_concept_bank,
                       concept_attribution_map, concept_attribution_maps,
                       extract_crops, fidelity_curves, fit_bank, load_bank,
                       recursive_decompose, save_bank, save_provenance)
from .sobol import concept_importance, tcav_importance
from .toy import (load_backbone, make_synthetic_dataset, standard_backbone,
                  two_layer_backbone)

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_DATA = 3
_EXIT_NUMERICAL = 4

# how main reports a failure: its label and exit code, by exception class
_FAILURES = ((OSError, "error", _EXIT_DATA), (ValueError, "error", _EXIT_USAGE),
             (NumericalError, "numerical error", _EXIT_NUMERICAL),
             (DataError, "data error", _EXIT_DATA), (CraftError, "error", _EXIT_DATA))

# outer-loop objective tolerances: image-mode banks are statistical, while
# external activation matrices are commonly exact fixtures, fit much tighter
_IMAGE_TOL = 1e-4
_MATRIX_TOL = 2e-7

# fit's image-route flags by argparse dest; --activations rejects them
_IMAGE_ROUTE = {"images": "--images", "target_class": "--class",
                "crop_mode": "--crop-mode", "crop_fraction": "--crop-fraction",
                "crops_per_image": "--crops-per-image"}


def _load_model(spec_str, seed_override=None):
    """Resolve --model: 'toy:<seed>' (single layer), 'toy2:<seed>' (two
    layer), or a directory produced by save_backbone. Returns (model,
    seed): --seed when given, else the toy model's seed, else 0."""
    seed = 0 if seed_override is None else seed_override
    if spec_str.startswith("toy:") or spec_str.startswith("toy2:"):
        scheme, _, seed_text = spec_str.partition(":")
        try:
            toy_seed = int(seed_text)
        except ValueError:
            raise ValueError(f"bad toy model seed in {spec_str!r}")
        model = two_layer_backbone() if scheme == "toy2" else standard_backbone()
        return model, toy_seed if seed_override is None else seed_override
    path = Path(spec_str)
    if not path.is_dir():
        raise ValueError(f"model directory {spec_str!r} does not exist")
    return load_backbone(path), seed


def _input_images(args, model, seed, count=None):
    """--images, or the first ``count`` (default all) of the --n-images
    synthetic images; generation is prefix-stable, so they equal the
    start of the full set."""
    if args.images is not None:
        return load_npy(Path(args.images))
    return make_synthetic_dataset(model, args.n_images if count is None else count,
                                  noise=args.noise, seed=seed).images


def _crop_spec(args, model, seed):
    """CropSpec from the crop flags given; its own defaults fill the rest."""
    given = {"mode": args.crop_mode, "crop_fraction": args.crop_fraction,
             "crops_per_image": args.crops_per_image}
    return CropSpec(resize_to=tuple(model.input_shape[:2]), seed=seed,
                    **{field: v for field, v in given.items() if v is not None})


def _bank_view(out, concept=None, save=None, coeffs=True):
    """The run's bank view, the one place that names its files: bank/ with
    coeffs.npy or, for concept c, recurse's bank_concept<c>/ with
    coeffs_concept<c>.npy. Writes save, a (bank, coefficients) pair, there;
    else returns (bank, coefficients), the coefficients read only if coeffs.
    A missing file is a DataError naming it and the command that writes it."""
    suffix = "" if concept is None else f"_concept{concept}"
    if save is not None:
        save_bank(save[0], out / f"bank{suffix}")
        return save_npy(save[1], out / f"coeffs{suffix}.npy")
    try:
        return (load_bank(out / f"bank{suffix}"),
                load_npy(out / f"coeffs{suffix}.npy") if coeffs else None)
    except FileNotFoundError as exc:
        writer = "fit" if concept is None else f"recurse --concept {concept}"
        raise DataError(f"{exc.filename} is missing: the {writer} command writes it") from exc


def _head(model, bank):
    """--model's head as an AffineHead; a ValueError unless it reads the bank's width."""
    head = model.affine_head
    bank.check_width(len(head.weights), "the head reads {}")
    return head


def _fit_exit(command, converged):
    """0, or 4 with a note when a fit whose artifacts are written did not converge."""
    if converged:
        return _EXIT_OK
    print(f"{command}: not converged within the outer budget; artifacts flagged",
          file=sys.stderr)
    return _EXIT_NUMERICAL


def cmd_fit(args):
    out = Path(args.out)
    tol = _IMAGE_TOL if args.activations is None else _MATRIX_TOL
    nmf_params = NmfParams(rank=args.rank, outer_iters=args.outer_iters,
                           objective_tol=tol)

    # the run directory is created only once the input is accepted, so a
    # rejected fit writes nothing
    if args.activations is not None:
        given = [name for dest, name in _IMAGE_ROUTE.items()
                 if getattr(args, dest) is not None]
        if given:
            raise ValueError(f"--activations replaces the image route; drop {' '.join(given)}")
        activations = load_npy(Path(args.activations))
        if activations.ndim != 2:
            raise ValueError(f"{args.activations} has shape {activations.shape}, but "
                             "--activations needs an (n, p) matrix: one row of p "
                             "features per crop")
        bank, U = fit_bank(activations, nmf_params, args.layer or "external")
        out.mkdir(parents=True, exist_ok=True)
    else:
        model, seed = _load_model(args.model, args.seed)
        images = _input_images(args, model, seed)
        target_class = 1 if args.target_class is None else args.target_class
        # the crops stream into a temporary directory in the deepest existing
        # directory on the way to the run directory, the same file system,
        # and move in once the fit is accepted; the directory goes either way
        nearest = next(d for d in (out, *out.parents) if d.is_dir())
        with tempfile.TemporaryDirectory(prefix=".craftkit-fit-", dir=nearest) as scratch:
            crops = Path(scratch) / "crops.npy"
            bank, U, ctx = build_concept_bank(images, model, target_class, args.rank,
                                              _crop_spec(args, model, seed), nmf_params,
                                              layer=args.layer or "final", crops_path=crops)
            out.mkdir(parents=True, exist_ok=True)
            os.replace(crops, out / "crops.npy")
        save_provenance(ctx["provenance"], out / "provenance.json")
        save_npy(ctx["activations"], out / "activations.npy")

    _bank_view(out, save=(bank, U))
    return _fit_exit("fit", bank.converged)


def cmd_importance(args):
    out = Path(args.out)
    bank, coeffs = _bank_view(out)
    head = _head(_load_model(args.model)[0], bank)
    estimate = concept_importance(coeffs, bank.W, head, args.n_samples, mu=args.mu)

    # an affine head's gradient is its weight row, the same for every crop
    grads = (head.weights[None] if args.gradients is None
             else load_npy(Path(args.gradients)))
    tcav = tcav_importance(grads, bank.W)

    save_json([{"concept_id": i, "total_sobol": float(estimate.total_indices[i]),
                "tcav": float(tcav[i]), "n_samples": args.n_samples,
                "degenerate": bool(estimate.degenerate)} for i in range(bank.r)],
              out / "importance.json")
    return _EXIT_OK


def cmd_explain(args):
    out = Path(args.out)
    bank, _ = _bank_view(out, coeffs=False)
    model, seed = _load_model(args.model, args.seed)
    indices = args.image_index
    if len(set(indices)) < len(indices):
        raise ValueError(f"--image-index repeats an index: {' '.join(map(str, indices))}")

    def check(n):
        for index in indices:
            if not 0 <= index < n:
                raise ValueError(f"--image-index {index} out of range")

    # checked before generating, since only the first max(index) + 1 are built
    if args.images is None:
        check(args.n_images)
    images = _input_images(args, model, seed, count=max(indices) + 1)
    check(len(images))
    concepts = [args.concept] if args.concept is not None else range(bank.r)
    heatmaps = concept_attribution_maps(images[indices], bank, model, concepts,
                                        method=args.method, seed=seed)
    # created only once the maps exist, so a rejected explain writes nothing
    (out / "heatmaps").mkdir(exist_ok=True)
    for index, maps in zip(indices, heatmaps):
        for hm in maps:
            save_npy(hm.values, out / "heatmaps" / f"{index}_{hm.concept_index}.npy")
    return _EXIT_OK


def cmd_fidelity(args):
    out = Path(args.out)
    bank, coeffs = _bank_view(out)
    model, seed = _load_model(args.model, args.seed)
    head = _head(model, bank)

    if args.ranking in ("sobol", "tcav"):
        importance_path = out / "importance.json"
        if not importance_path.exists():
            raise DataError(f"{importance_path} is missing: the importance command writes it")
        records = load_json(importance_path, list)
        ids = [rec.get("concept_id") if isinstance(rec, dict) else None for rec in records]
        if not all(type(i) is int for i in ids) or sorted(ids) != list(range(bank.r)):
            raise DataError(f"{importance_path} must hold one record per concept "
                            f"with concept_id 0..{bank.r - 1}, got ids {ids}")
        key = "total_sobol" if args.ranking == "sobol" else "tcav"
        values = [rec.get(key) for rec in sorted(records, key=lambda r: r["concept_id"])]
        # json.loads accepts NaN and Infinity, which rank no better than a gap
        if not all(type(v) in (int, float) and math.isfinite(v) for v in values):
            raise DataError(f"importance.json lacks finite {key} scores")
        importance = np.asarray(values, dtype=np.float64)
    else:
        gen = Rng(seed, stream=23).generator()
        importance = gen.permutation(bank.r).astype(np.float64)

    curve = fidelity_curves(coeffs, bank.W, head, importance,
                            direction=args.direction, mu=args.mu)
    parts = ["curves"]
    if args.ranking != "sobol":
        parts.append(args.ranking)
    if args.direction != "deletion":
        parts.append(args.direction)
    rows = "".join(f"{x:.17g},{y:.17g}\n" for x, y in zip(curve.xs, curve.ys))
    (out / ("_".join(parts) + ".csv")).write_text("fraction,mean_output\n" + rows)
    return _EXIT_OK


def cmd_recurse(args):
    out = Path(args.out)
    bank, coeffs = _bank_view(out)
    model, _ = _load_model(args.model)
    path = out / "crops.npy"
    if not path.exists():
        raise DataError(f"{path} is missing: recurse re-encodes the crops of a "
                        f"fit --model run, and fit --activations writes no crops")
    # the crop windows as fit cut them; only the selected ones are read,
    # resized to the model input as fit resized them
    crops = CropWindows(path, model.input_shape[:2])
    sub_bank, u_sub, selected = recursive_decompose(
        bank, coeffs, args.concept, crops, model, "layer1",
        NmfParams(rank=args.rank_sub, outer_iters=args.outer_iters,
                  objective_tol=_IMAGE_TOL))
    _bank_view(out, args.concept, save=(sub_bank, u_sub))
    save_json([int(i) for i in selected], out / f"selected_concept{args.concept}.json")
    return _fit_exit("recurse", sub_bank.converged)


def _principal_angles(W1, W2):
    q1, _ = np.linalg.qr(W1)
    q2, _ = np.linalg.qr(W2)
    sigma = np.linalg.svd(q1.T @ q2, compute_uv=False)
    return np.arccos(np.clip(sigma, -1.0, 1.0))


def cmd_sanity(args):
    out = Path(args.out)
    model, seed = _load_model(args.model, args.seed)
    images = _input_images(args, model, seed)
    nmf_params = NmfParams(rank=args.rank, outer_iters=args.outer_iters,
                           objective_tol=_IMAGE_TOL)
    # the comparison covers every image, not only the class set
    crops, _ = extract_crops(images, _crop_spec(args, model, seed))
    trained, randomized = [fit_nmf(m.features(crops, layer=args.layer), nmf_params)
                           for m in (model, model.randomize_weights(seed))]
    angles = _principal_angles(trained.W, randomized.W)
    converged = bool(trained.converged and randomized.converged)
    out.mkdir(parents=True, exist_ok=True)
    save_json({
        "seed": seed,
        "rank": args.rank,
        "principal_angles_rad": [float(a) for a in angles],
        "max_angle_rad": float(angles.max()),
        "converged": converged,
    }, out / "sanity.json")
    return _fit_exit("sanity", converged)


def build_parser():
    """A new parser on every call; main parses with one kept per process."""
    parser = argparse.ArgumentParser(
        prog="craftkit",
        description="Concept extraction, importance, attribution, and fidelity "
                    "over a run-directory file contract.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, fn, about in (
            ("fit", cmd_fit, "fit a concept bank on class crops or a matrix"),
            ("importance", cmd_importance, "score concepts with total Sobol' indices"),
            ("explain", cmd_explain, "write concept attribution heatmaps"),
            ("fidelity", cmd_fidelity, "deletion/insertion curve for a ranking"),
            ("recurse", cmd_recurse, "refine one concept at an earlier layer"),
            ("sanity", cmd_sanity, "compare banks from trained vs randomized weights")):
        commands[name] = sub.add_parser(name, help=about, description=about)
        commands[name].set_defaults(func=fn)

    def flag(names, *option, **kwargs):
        for name in names.split():
            commands[name].add_argument(*option, **kwargs)

    run = " ".join(commands)
    model_help = "toy:<seed>, toy2:<seed>, or a model directory"
    source = commands["fit"].add_mutually_exclusive_group(required=True)
    source.add_argument("--model", help=model_help)
    source.add_argument("--activations", help="precomputed activations NPY (n x p)")
    flag("importance explain fidelity recurse sanity", "--model", required=True,
         help=model_help)
    flag(run, "--seed", type=int, help="seed for data generation and masks")
    flag(run, "--images", help="image stack NPY (n, H, W, C)")
    flag(run, "--n-images", type=int, default=200,
         help="synthetic dataset size when generating data")
    flag(run, "--noise", type=float, default=0.02,
         help="synthetic dataset noise amplitude")
    flag(run, "--out", required=True, help="run directory")

    flag("fit", "--class", dest="target_class", type=int,
         help="model-predicted class that defines the fit set (default: 1)")
    flag("fit", "--rank", type=int, required=True, help="number of concepts")
    flag("sanity", "--rank", type=int, default=2, help="number of concepts")
    flag("fit sanity", "--crop-fraction", type=float)
    flag("fit sanity", "--crops-per-image", type=int)
    flag("fit sanity", "--crop-mode", choices=("grid", "random"))
    flag("fit sanity", "--layer", help="feature layer tag (default: final)")
    flag("fit sanity recurse", "--outer-iters", type=int, default=200)
    flag("recurse", "--concept", type=int, required=True, help="concept index")
    flag("recurse", "--rank-sub", type=int, default=2, help="sub-bank rank")
    flag("importance", "--n-samples", type=int, default=1024,
         help="pick-freeze block size")
    flag("importance", "--gradients", help="head-gradient NPY (n x p) for TCAV")
    flag("importance fidelity", "--mu", type=float, default=0.0,
         help="baseline value for concept removal")
    flag("fidelity", "--ranking", choices=("sobol", "tcav", "random"),
         default="sobol")
    flag("fidelity", "--direction", choices=("deletion", "insertion"),
         default="deletion")
    flag("explain", "--image-index", type=int, nargs="+", default=[0],
         help="indices of the images to explain, distinct (default: 0)")
    flag("explain", "--method", choices=("gradient", "smoothgrad", "occlusion"),
         default="gradient")
    flag("explain", "--concept", type=int, help="concept index (default: all)")
    flag("explain", "--threads", type=int, help="no effect")
    return parser


@functools.cache
def _main_parser():
    """build_parser(), built once per process for main: argparse keeps no
    state between parse_args calls, and each call starts a new namespace."""
    return build_parser()


def main(argv=None):
    args = _main_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, CraftError) as exc:
        # the first class in _FAILURES that exc is an instance of
        label, code = next((label, code) for kind, label, code in _FAILURES
                           if isinstance(exc, kind))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
