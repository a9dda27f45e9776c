"""Command-line interface over the run-directory file contract.

A thin layer over ``pipeline``: each command parses its arguments, calls
the library, and reads or writes run-directory files. Commands populate an
output directory incrementally: ``fit`` writes crops, activations, the
bank, and coefficients (``build_concept_bank`` on images, ``fit_bank`` on
``--activations``); ``importance`` adds importance.json; ``explain`` fills
heatmaps/ in one attribution pass over all requested concepts; ``fidelity``
writes curve CSVs; ``recurse`` adds a sub-bank directory; ``sanity``
compares banks from trained and weight-randomized models. Every bank
directory is written by ``save_bank``, fit diagnostics included. Exit
codes: 0 success, 2 usage or argument error, 3 data error, 4 numerical
failure (non-convergence still writes the flagged artifact). Each command
takes the flags it reads and the run flags ``--model --seed --images
--n-images --noise --threads --out``, shared so that one base argv drives
the whole chain; ``importance``, ``fidelity`` and ``recurse`` ignore the
image flags ``--images --n-images --noise``, and ``importance`` and
``recurse`` ignore ``--seed``. Any other flag, a missing required flag
(``--model`` on every command but ``fit``) or a bad choice exits 2
through argparse before any file is read. ``--threads`` (fallback
CRAFT_KIT_THREADS) is validated but has no effect.
"""

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from .core import Rng
from .errors import CraftError, DataError, NumericalError
from .nmf import NmfParams, fit_nmf
from .npyio import load_json, load_npy, save_json, save_npy
# concept_attribution_map is unused here but wrapped by perfbench/spans.py
from .pipeline import (CropSpec, build_concept_bank, concept_attribution_map,
                       concept_attribution_maps, extract_crops, fidelity_curves,
                       fit_bank, load_bank, recursive_decompose, save_bank)
from .sobol import concept_importance, tcav_importance
from .toy import (load_backbone, make_synthetic_dataset, standard_backbone,
                  two_layer_backbone)

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_DATA = 3
_EXIT_NUMERICAL = 4


def _resolve_threads(value):
    if value is None:
        value = os.environ.get("CRAFT_KIT_THREADS", "1")
    try:
        threads = int(value)
    except (TypeError, ValueError):
        raise ValueError(f"--threads must be an integer, got {value!r}")
    if threads < 1:
        raise ValueError("--threads must be at least 1")
    return threads


def _load_model(spec_str, seed_override=None):
    """Resolve --model: 'toy:<seed>' (single layer), 'toy2:<seed>' (two
    layer), or a directory produced by save_backbone. Returns (model,
    seed): --seed when given, else the toy model's seed, else 0."""
    seed = 0 if seed_override is None else seed_override
    if spec_str is None:
        return None, seed
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
    return CropSpec(mode=args.crop_mode, crop_fraction=args.crop_fraction,
                    crops_per_image=args.crops_per_image,
                    resize_to=tuple(model.input_shape[:2]), seed=seed)


def cmd_fit(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model, seed = _load_model(args.model, args.seed)
    rank = args.rank
    if rank is None:
        raise ValueError("--rank is required for fit")
    # externally supplied activation matrices are commonly exact fixtures,
    # so they are fit much tighter than statistical image-mode banks
    tol = 2e-7 if args.activations is not None else 1e-4
    nmf_params = NmfParams(rank=rank, outer_iters=args.outer_iters,
                           objective_tol=tol)

    if args.activations is not None:
        activations = load_npy(Path(args.activations))
        bank, state = fit_bank(activations, nmf_params, args.layer or "external")
    else:
        if model is None:
            raise ValueError("fit needs --activations or --model")
        images = _input_images(args, model, seed)
        bank, _, ctx = build_concept_bank(images, model, args.target_class, rank,
                                          spec=_crop_spec(args, model, seed),
                                          nmf_params=nmf_params, layer=args.layer)
        state, activations = ctx["state"], ctx["activations"]
        save_npy(ctx["crops"], out / "crops.npy")
        save_json(ctx["provenance"], out / "provenance.json")
    save_npy(activations, out / "activations.npy")

    save_bank(bank, out / "bank")
    save_npy(state.U, out / "coeffs.npy")
    if not state.converged:
        print("fit: not converged within the outer budget; artifacts flagged",
              file=sys.stderr)
        return _EXIT_NUMERICAL
    return _EXIT_OK


def cmd_importance(args):
    out = Path(args.out)
    bank = load_bank(out / "bank")
    coeffs = load_npy(out / "coeffs.npy")
    model, _ = _load_model(args.model)
    estimate = concept_importance(coeffs, bank.W, model.affine_head, args.n_samples,
                                  mu=args.mu)

    if args.gradients is not None:
        grads = load_npy(Path(args.gradients))
    else:
        grads = model.head_gradients(n=coeffs.shape[0])
    tcav = tcav_importance(grads, bank.W)

    records = []
    for i in range(bank.r):
        records.append({
            "concept_id": i,
            "total_sobol": float(estimate.total_indices[i]),
            "tcav": float(tcav[i]),
            "n_samples": estimate.n_samples,
            "degenerate": bool(estimate.degenerate),
        })
    save_json(records, out / "importance.json")
    return _EXIT_OK


def cmd_explain(args):
    out = Path(args.out)
    bank = load_bank(out / "bank")
    model, seed = _load_model(args.model, args.seed)
    index = args.image_index
    # checked before generating, since only the first index + 1 are built
    if args.images is None and not 0 <= index < args.n_images:
        raise ValueError(f"--image-index {index} out of range")
    images = _input_images(args, model, seed, count=index + 1)
    if not 0 <= index < len(images):
        raise ValueError(f"--image-index {index} out of range")
    concepts = [args.concept] if args.concept is not None else range(bank.r)
    (out / "heatmaps").mkdir(exist_ok=True)
    for hm in concept_attribution_maps(images[index], bank, model, concepts,
                                       method=args.method, seed=seed):
        save_npy(hm.values, out / "heatmaps" / f"{index}_{hm.concept_index}.npy")
    return _EXIT_OK


def cmd_fidelity(args):
    out = Path(args.out)
    bank = load_bank(out / "bank")
    coeffs = load_npy(out / "coeffs.npy")
    model, seed = _load_model(args.model, args.seed)

    if args.ranking in ("sobol", "tcav"):
        importance_path = out / "importance.json"
        if not importance_path.exists():
            raise DataError("importance.json missing; run the importance command first")
        records = load_json(importance_path, list)
        ids = [rec.get("concept_id") if isinstance(rec, dict) else None for rec in records]
        if not all(type(i) is int for i in ids) or sorted(ids) != list(range(bank.r)):
            raise DataError(f"{importance_path} must hold one record per concept "
                            f"with concept_id 0..{bank.r - 1}, got ids {ids}")
        key = "total_sobol" if args.ranking == "sobol" else "tcav"
        values = [rec.get(key) for rec in sorted(records, key=lambda r: r["concept_id"])]
        # json.loads accepts NaN and Infinity, which rank no better than a gap
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
            raise DataError(f"importance.json lacks finite {key} scores")
        importance = np.asarray(values, dtype=np.float64)
    else:
        gen = Rng(seed, stream=23).generator()
        importance = gen.permutation(bank.r).astype(np.float64)

    curve = fidelity_curves(coeffs, bank.W, model.affine_head, importance,
                            direction=args.direction, mu=args.mu,
                            ranking_source=args.ranking)
    parts = ["curves"]
    if args.ranking != "sobol":
        parts.append(args.ranking)
    if args.direction != "deletion":
        parts.append(args.direction)
    lines = ["fraction,mean_output"]
    for x, y in zip(curve.xs, curve.ys):
        lines.append(f"{x:.17g},{y:.17g}")
    (out / ("_".join(parts) + ".csv")).write_text("\n".join(lines) + "\n")
    return _EXIT_OK


def cmd_recurse(args):
    out = Path(args.out)
    bank = load_bank(out / "bank")
    coeffs = load_npy(out / "coeffs.npy")
    crops = load_npy(out / "crops.npy")
    model, _ = _load_model(args.model)
    sub_bank, u_sub, selected = recursive_decompose(
        bank, coeffs, args.concept, crops,
        lambda batch: model.features(batch, layer=1), args.rank_sub,
        nmf_params=NmfParams(rank=args.rank_sub, outer_iters=args.outer_iters,
                             objective_tol=1e-4),
        layer_tag="layer1")
    sub_dir = out / f"bank_concept{args.concept}"
    save_bank(sub_bank, sub_dir)
    save_npy(u_sub, out / f"coeffs_concept{args.concept}.npy")
    save_json([int(i) for i in selected], out / f"selected_concept{args.concept}.json")
    return _EXIT_OK


def _principal_angles(W1, W2):
    q1, _ = np.linalg.qr(W1)
    q2, _ = np.linalg.qr(W2)
    sigma = np.linalg.svd(q1.T @ q2, compute_uv=False)
    return np.arccos(np.clip(sigma, -1.0, 1.0))


def cmd_sanity(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model, seed = _load_model(args.model, args.seed)
    images = _input_images(args, model, seed)
    nmf_params = NmfParams(rank=args.rank, outer_iters=args.outer_iters,
                           objective_tol=1e-4)
    # the comparison covers every image, not only the class set
    crops, _ = extract_crops(images, _crop_spec(args, model, seed))

    def fit_bank_for(m):
        state = fit_nmf(m.features(crops, layer=args.layer), nmf_params)
        return state.W

    trained = fit_bank_for(model)
    randomized = fit_bank_for(model.randomize_weights(seed))
    angles = _principal_angles(trained, randomized)
    save_json({
        "seed": seed,
        "rank": args.rank,
        "principal_angles_rad": [float(a) for a in angles],
        "max_angle_rad": float(angles.max()),
    }, out / "sanity.json")
    return _EXIT_OK


def build_parser():
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
    flag("fit", "--model", help=model_help)
    flag("importance explain fidelity recurse sanity", "--model", required=True,
         help=model_help)
    flag(run, "--seed", type=int, help="seed for data generation and masks")
    flag(run, "--images", help="image stack NPY (n, H, W, C)")
    flag(run, "--n-images", type=int, default=200,
         help="synthetic dataset size when generating data")
    flag(run, "--noise", type=float, default=0.02,
         help="synthetic dataset noise amplitude")
    flag(run, "--threads", default=None,
         help="validated, no effect (default: CRAFT_KIT_THREADS or 1)")
    flag(run, "--out", required=True, help="run directory")

    flag("fit", "--activations", help="precomputed activations NPY (n x p)")
    flag("fit", "--class", dest="target_class", type=int, default=1,
         help="model-predicted class that defines the fit set")
    flag("fit", "--rank", type=int, help="number of concepts")
    flag("sanity", "--rank", type=int, default=2, help="number of concepts")
    flag("fit sanity", "--crop-fraction", type=float, default=0.5)
    flag("fit sanity", "--crops-per-image", type=int, default=8)
    flag("fit sanity", "--crop-mode", choices=("grid", "random"), default="grid")
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
    flag("explain", "--image-index", type=int, default=0)
    flag("explain", "--method", choices=("gradient", "smoothgrad", "occlusion"),
         default="gradient")
    flag("explain", "--concept", type=int, help="concept index (default: all)")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.threads = _resolve_threads(args.threads)
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return _EXIT_DATA
    except CraftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
