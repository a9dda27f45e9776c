"""The benchmark's workloads.

Each workload calls the library the way a user does, through module
attributes (``cli.main``, ``sobol.concept_importance``, ...), so that the
traced run's wrappers see every call. A workload has three parts:

- ``setup()``: build the inputs from the seed (and any fixture);
- ``iterate(tally, span)``: the timed work of one iteration, cut into
  steps of about a second or less by ``with span(name):`` blocks (the
  runner calibrates each step's time against the host's speed, and the
  traced run records the steps as spans);
- ``check(tally)``: untimed correctness gates on that iteration's outputs,
  including byte identity with the first iteration of the run.

Why these three: each layer that later changes will optimise does most of
its work in one workload and little or none in another.

- ``toy2_cli_chain``: the end-to-end CLI chain (crops, narrow-p NMF, many
  Sobol' masks on two features, many small NPY files). No ``--activations``
  matrix and no occlusion.
- ``wide_activations``: an external matrix at ResNet-50 pooled width
  (p = 2048). Large batched NNLS solves inside ``fit_nmf`` and a Sobol'
  mask batch whose memory grows with p. No toy model, crops or Jacobians.
- ``attribution_maps``: gradient, smoothgrad and occlusion maps of a fixed
  bank. Hundreds of single-row NNLS solves, single-image ``features`` calls
  and implicit Jacobians; no NMF in the timed loop.
"""

import hashlib
import json
import shutil
from itertools import permutations

import numpy as np

from craftkit import cli, nmf, npyio, pipeline, sobol
from craftkit.core import Rng
from craftkit.errors import DegeneracyError
from craftkit.nmf import NmfParams
from craftkit.nnls import kkt_residual
from craftkit.toy import make_synthetic_dataset, pair_backbone, two_layer_backbone

# transform-mode KKT residual the implicit layer requires before it will
# differentiate a solution (craftkit.implicit's gate)
_KKT_GATE = 1e-6


class Tally:
    """Operations attempted and failed; a failed correctness check counts
    as a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def run(self, what, fn, *args, ok=None, **kwargs):
        """Call fn; an exception, or a result that ok() rejects, fails."""
        self.attempted += 1
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
            return None
        if ok is not None and not ok(result):
            self.failed += 1
            self.errors.append(f"{what}: returned {result!r}")
        return result


def _digest_dir(directory):
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _rel_err(A, U, W):
    return float(np.linalg.norm(A - U @ W.T) / np.linalg.norm(A))


class _Workload:
    # the kinds of work it leans on, as parts of clock.REFERENCE; the
    # runner calibrates its times against them
    speed_reference = ()
    items = None          # work units per iteration, known after the first check
    fit_rel_err = None    # ||A - U W^T||_F / ||A||_F of the bank in use
    localized_frac = 0.0  # attribution only

    def __init__(self, seed, tiny, work, threads):
        self.seed = seed
        self.tiny = tiny
        self.work = work
        self.threads = threads
        self.reference = None

    def _same_as_first(self, tally, digest):
        if self.reference is None:
            self.reference = digest
        tally.check(digest == self.reference,
                    f"{self.name}: outputs differ from the first iteration")


class ToyChain(_Workload):
    """fit -> importance -> fidelity (sobol, random) -> explain -> recurse
    through ``craftkit.cli.main`` on ``toy2:<seed>``, in a fresh run
    directory every iteration. Items are crops."""

    name = "toy2_cli_chain"
    speed_reference = ("loop", "matmul", "small")  # all three, about evenly

    def setup(self):
        n_images, n_samples = (60, 128) if self.tiny else (400, 1024)
        self.out = self.work / "run"
        shutil.rmtree(self.out, ignore_errors=True)
        base = ["--model", f"toy2:{self.seed}", "--n-images", str(n_images),
                "--out", str(self.out)]
        self.steps = [
            ("fit", ["fit", "--rank", "2"] + base),
            ("importance", ["importance", "--n-samples", str(n_samples)] + base),
            ("fidelity", ["fidelity", "--ranking", "sobol"] + base),
            ("fidelity", ["fidelity", "--ranking", "random"] + base),
            ("explain", ["explain", "--threads", str(self.threads)] + base),
            ("recurse", ["recurse", "--concept", "0", "--rank-sub", "2"] + base),
        ]
        self.primitives = two_layer_backbone().template_directions()[:2]

    def iterate(self, tally, span):
        for command, argv in self.steps:
            with span("cli." + command):
                tally.run(command, cli.main, argv, ok=lambda code: code == 0)

    def check(self, tally):
        tally.run("check", self._check, tally)
        shutil.rmtree(self.out, ignore_errors=True)

    def _check(self, tally):
        self._same_as_first(tally, _digest_dir(self.out))
        A = npyio.load_npy(self.out / "activations.npy")
        U = npyio.load_npy(self.out / "coeffs.npy")
        W = npyio.load_npy(self.out / "bank" / "W.npy")
        self.items = len(A)
        self.fit_rel_err = _rel_err(A, U, W)
        # feature 0 is the composite the head favours; its concept must
        # carry the largest total Sobol' index
        records = json.loads((self.out / "importance.json").read_text())
        top = max(records, key=lambda rec: rec["total_sobol"])["concept_id"]
        tally.check(top == int(np.argmax(W[0])),
                    "chain: Sobol' top concept is not the head-favoured composite")
        # acceptance criterion 8: the sub-bank separates the layer-1
        # primitives that the composite mixes
        cos = self.primitives @ npyio.load_npy(self.out / "bank_concept0" / "W.npy")
        best = max(min(cos[0, p[0]], cos[1, p[1]]) for p in permutations(range(2)))
        tally.check(best > 0.9, f"chain: recurse sub-bank cosine {best:.3f} <= 0.9")


class WideActivations(_Workload):
    """``craftkit fit --activations`` on a planted nonnegative matrix at
    p = 2048, then Sobol' importance under an affine head, ``transform`` of
    held-out rows and a deletion curve. Items are activation rows."""

    name = "wide_activations"
    speed_reference = ("loop", "matmul")  # BLAS-bound solves and Sobol' batches

    def setup(self):
        if self.tiny:
            rows, held, p, rank, n_sobol = 24, 8, 256, 4, 8
        else:
            # 200 rows keep an iteration near 3 s; Sobol' evaluates each
            # block of 64 masks on all rows at once, 64 x 200 x 2048 floats
            # (210 MB)
            rows, held, p, rank, n_sobol = 200, 50, 2048, 10, 64
        # The planted factors and the head are fixed, like a dataset and a
        # model; the seed draws the additive noise. Between random planted
        # matrices the outer iteration count swings from 15 to 20, which
        # would drown a regression of that size. Sparse factors make
        # the factorization identifiable, so the fit converges in about 20
        # outer iterations.
        fixed = Rng(0, stream=1).generator()
        W = fixed.uniform(size=(p, rank)) * (fixed.uniform(size=(p, rank)) < 0.3)
        U = fixed.uniform(size=(rows + held, rank)) * (fixed.uniform(size=(rows + held, rank)) < 0.3)
        self.head_w = fixed.normal(size=p) / np.sqrt(p)
        noise = Rng(self.seed, stream=1).generator()
        A = U @ W.T + noise.uniform(0.0, 1e-2, size=(rows + held, p))
        self.fit_rows, self.held_out = A[:rows], A[rows:]
        self.head_b = 0.1
        self.rank, self.n_sobol = rank, n_sobol
        self.items = rows + held
        self.out = self.work / "run"
        shutil.rmtree(self.out, ignore_errors=True)
        self.work.mkdir(parents=True, exist_ok=True)
        self.matrix = self.work / "A.npy"
        npyio.save_npy(self.fit_rows, self.matrix)

    def head(self, a):
        """ResNet-style affine readout of pooled activations."""
        return a @ self.head_w + self.head_b

    def iterate(self, tally, span):
        with span("cli.fit"):
            tally.run("fit", cli.main,
                      ["fit", "--activations", str(self.matrix), "--rank",
                       str(self.rank), "--out", str(self.out)],
                      ok=lambda code: code == 0)
        with span("wide.analyse"):
            U = tally.run("load coeffs", npyio.load_npy, self.out / "coeffs.npy")
            W = tally.run("load bank", npyio.load_npy, self.out / "bank" / "W.npy")
            self.U, self.W = U, W
            self.estimate = tally.run("importance", lambda: sobol.concept_importance(
                U, W, self.head, self.n_sobol))
            self.U_new = tally.run("transform", lambda: nmf.transform(self.held_out, W))
            self.curve = tally.run("fidelity", lambda: pipeline.fidelity_curves(
                U, W, self.head, self.estimate.total_indices))

    def check(self, tally):
        tally.run("check", self._check, tally)
        shutil.rmtree(self.out, ignore_errors=True)

    def _check(self, tally):
        U, W, U_new = self.U, self.W, self.U_new
        indices = self.estimate.total_indices
        dual = np.maximum((U_new @ W.T - self.held_out) @ W, 0.0)
        kkt = kkt_residual(self.held_out, W, U_new, dual)
        tally.check(kkt < _KKT_GATE, f"wide: held-out KKT residual {kkt:.2e}")
        tally.check(bool(np.all(np.isfinite(indices))), "wide: non-finite indices")
        h = hashlib.sha256(_digest_dir(self.out).encode())
        for arr in (indices, U_new, self.curve.ys):
            h.update(np.ascontiguousarray(arr).tobytes())
        self._same_as_first(tally, h.hexdigest())
        self.fit_rel_err = _rel_err(self.fit_rows, U, W)


class AttributionMaps(_Workload):
    """Gradient, smoothgrad and occlusion maps for both concepts of a fixed
    ``pair_backbone`` bank on clean single-stamp probes. Items are maps.

    The bank is fitted in set-up exactly as acceptance criterion 7 does
    (dataset seed 0), so it is the same model for every workload seed; the
    probes come from the workload seed.
    """

    name = "attribution_maps"
    speed_reference = ("loop", "small")  # single-row solves, per-call overhead
    methods = ("gradient", "smoothgrad", "occlusion")

    def setup(self):
        n_probes, self.n_noise = (1, 2) if self.tiny else (8, 16)
        self.model = pair_backbone()
        data = make_synthetic_dataset(self.model, 200, noise=0.02, seed=0,
                                      max_stamps=1, template_pool=(0, 1))
        self.bank, U, ctx = pipeline.build_concept_bank(
            data.images, self.model, target_class=1, r=2,
            nmf_params=NmfParams(rank=2, outer_iters=150, objective_tol=1e-6))
        self.fit_rel_err = _rel_err(ctx["activations"], U, self.bank.W)
        dirs = self.model.template_directions()
        self.concept_of = np.argmax(dirs @ self.bank.W, axis=1)
        self.probes = make_synthetic_dataset(self.model, n_probes, noise=0.0,
                                             seed=7000 + self.seed, max_stamps=1,
                                             template_pool=(0, 1))
        self.items = n_probes * self.bank.r * len(self.methods)

    def _map(self, image, concept, method):
        try:
            return pipeline.concept_attribution_map(
                image, self.bank, self.model, concept, method=method,
                seed=self.seed, n_noise=self.n_noise).values
        except DegeneracyError:
            # the library's specified answer at a non-differentiable point;
            # it counts as a localization miss, not as a failed operation
            return None

    def iterate(self, tally, span):
        self.maps = {}
        for k, image in enumerate(self.probes.images):
            for concept in range(self.bank.r):
                with span("attribution.probe_concept"):
                    for method in self.methods:
                        self.maps[k, concept, method] = tally.run(
                            f"{method} map", self._map, image, concept, method)

    def check(self, tally):
        tally.run("check", self._check, tally)

    def _check(self, tally):
        h = hashlib.sha256()
        finite = True
        for key in sorted(self.maps):
            values = self.maps[key]
            h.update(repr(key).encode())
            if values is not None:
                finite = finite and bool(np.all(np.isfinite(values)))
                h.update(np.ascontiguousarray(values).tobytes())
        tally.check(finite, "attribution: non-finite map")
        self._same_as_first(tally, h.hexdigest())
        # share of stamped-concept gradient maps with more than half their
        # mass inside the 5x5 stamp window (acceptance criterion 7)
        hits = 0
        for k, stamps in enumerate(self.probes.stamps):
            (template, y0, x0), = stamps
            values = self.maps[k, int(self.concept_of[template]), "gradient"]
            if values is None:
                continue
            mass = np.abs(values)
            hits += mass[y0:y0 + 5, x0:x0 + 5].sum() > 0.5 * mass.sum()
        self.localized_frac = hits / len(self.probes.stamps)


WORKLOADS = {w.name: w for w in (ToyChain, WideActivations, AttributionMaps)}
