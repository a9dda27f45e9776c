"""Command-line interface over the run-directory file contract.

A thin layer over ``pipeline``: each command parses its arguments, calls
the library, and reads or writes run-directory files. Commands populate an
output directory incrementally: ``fit`` writes the bank and coefficients,
and on ``--model`` also the crops, their provenance and their activations
(``build_concept_bank``); on ``--activations`` it runs ``fit_bank`` and
writes no copy of its input; ``importance`` adds importance.json; ``explain``
fills heatmaps/ in one attribution pass over all requested concepts;
``fidelity`` writes curve CSVs; ``recurse`` adds a sub-bank directory;
``sanity`` compares banks from trained and weight-randomized models. Every
bank directory is written by ``save_bank``, fit diagnostics included. Exit
codes: 0 success, 2 usage or argument error, 3 data error, 4 numerical
failure (``fit``, ``recurse`` and ``sanity`` exit 4 after writing their
artifacts when a fit did not converge, flagged ``"converged": false``).
Each command takes the flags it reads and the run flags ``--model --seed
--images --n-images --noise --out``, shared so that one base argv drives
the whole chain; ``importance``, ``fidelity`` and ``recurse`` ignore the
image flags ``--images --n-images --noise``, and ``importance`` and
``recurse`` ignore ``--seed``. ``fit`` takes exactly one of ``--model`` and
``--activations``, which replaces the image route: it ignores ``--seed
--n-images --noise`` and exits 2 on ``--images``, ``--class`` or a crop
flag. ``explain --threads`` has no effect. Any other flag, a missing
required flag or a bad choice exits 2 through argparse before any file is
read; ``fit``, ``explain`` and ``sanity`` write only once their input is
accepted, so a rejected run writes nothing.

``main`` builds its parser once per process, on its first call
(``build_parser`` still returns a new one). The ``--model`` is built, or
read from its directory, on every call. Only callers that run several
commands through ``main`` in one process gain from this: the test suite,
the benchmark's chain and scripts. Each command after the first skips
building the argparse tree and collecting the cycles it leaves, about
2.3 ms. ``python -m craftkit`` runs one command per process and gains
nothing.
"""

import argparse
import functools
import math
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
                       fit_bank, load_bank, recursive_decompose, save_bank,
                       save_provenance)
from .sobol import concept_importance, tcav_importance
from .toy import (load_backbone, make_synthetic_dataset, standard_backbone,
                  two_layer_backbone)

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_DATA = 3
_EXIT_NUMERICAL = 4

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

    ctx = None
    if args.activations is not None:
        given = [name for dest, name in _IMAGE_ROUTE.items()
                 if getattr(args, dest) is not None]
        if given:
            raise ValueError(f"--activations replaces the image route; drop {' '.join(given)}")
        bank, U = fit_bank(load_npy(Path(args.activations)), nmf_params,
                           args.layer or "external")
    else:
        model, seed = _load_model(args.model, args.seed)
        images = _input_images(args, model, seed)
        target_class = 1 if args.target_class is None else args.target_class
        bank, U, ctx = build_concept_bank(images, model, target_class, args.rank,
                                          _crop_spec(args, model, seed), nmf_params,
                                          layer=args.layer or "final")
    # created only once the input is accepted, so a rejected fit writes nothing
    out.mkdir(parents=True, exist_ok=True)
    if ctx is not None:
        save_npy(ctx["crops"], out / "crops.npy")
        save_provenance(ctx["provenance"], out / "provenance.json")
        save_npy(ctx["activations"], out / "activations.npy")

    save_bank(bank, out / "bank")
    save_npy(U, out / "coeffs.npy")
    return _fit_exit("fit", bank.converged)


def cmd_importance(args):
    out = Path(args.out)
    bank = load_bank(out / "bank")
    coeffs = load_npy(out / "coeffs.npy")
    model, _ = _load_model(args.model)
    estimate = concept_importance(coeffs, bank.W, model.affine_head, args.n_samples,
                                  mu=args.mu)

    # an affine head's gradient is its weight row, the same for every crop
    grads = (model.head_weights[None] if args.gradients is None
             else load_npy(Path(args.gradients)))
    tcav = tcav_importance(grads, bank.W)

    records = []
    for i in range(bank.r):
        records.append({
            "concept_id": i,
            "total_sobol": float(estimate.total_indices[i]),
            "tcav": float(tcav[i]),
            "n_samples": args.n_samples,
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
    heatmaps = concept_attribution_maps(images[index], bank, model, concepts,
                                        method=args.method, seed=seed)
    # created only once the maps exist, so a rejected explain writes nothing
    (out / "heatmaps").mkdir(exist_ok=True)
    for hm in heatmaps:
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
        if not all(type(v) in (int, float) and math.isfinite(v) for v in values):
            raise DataError(f"importance.json lacks finite {key} scores")
        importance = np.asarray(values, dtype=np.float64)
    else:
        gen = Rng(seed, stream=23).generator()
        importance = gen.permutation(bank.r).astype(np.float64)

    curve = fidelity_curves(coeffs, bank.W, model.affine_head, importance,
                            direction=args.direction, mu=args.mu)
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
        bank, coeffs, args.concept, crops, model, "layer1",
        NmfParams(rank=args.rank_sub, outer_iters=args.outer_iters,
                  objective_tol=_IMAGE_TOL))
    save_bank(sub_bank, out / f"bank_concept{args.concept}")
    save_npy(u_sub, out / f"coeffs_concept{args.concept}.npy")
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
    flag("explain", "--image-index", type=int, default=0)
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
