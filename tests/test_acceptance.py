"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with pytest -s or in captured output on failure),
and the scores of criterion 7's maps at the noise the bank was fit on.

Tolerances and runtime budgets are fixed constants of each test. The
oracles are the independent implementations in oracles.py (exhaustive
enumeration, finite differences of exact re-solves, closed-form variance
decompositions).
"""

import time
from contextlib import contextmanager
from itertools import permutations

import numpy as np
import pytest

from craftkit import nnls
from craftkit.cli import main as cli_main
from craftkit.core import Rng
from craftkit.errors import DegeneracyError
from craftkit.implicit import jacobian_u_wrt_a
from craftkit.nmf import NmfParams, fit_nmf
from craftkit.nnls import nnls_objective, solve_nnls
from craftkit.pipeline import (build_concept_bank, concept_attribution_map,
                               concept_percentile_threshold, fidelity_curves,
                               recursive_decompose)
from craftkit.sobol import concept_importance, tcav_importance, total_sobol_jansen
from craftkit.toy import make_synthetic_dataset, pair_backbone, two_layer_backbone

from oracles import (ishigami, ishigami_total_indices, map_scores, nnls_enumerate,
                     nnls_enumerate_row)

# NNLS solves in criteria 1, 2, 3 and 7 are flagged converged only at a
# KKT residual of this times max |A W|
TIGHT_KKT_TOL = 1e-10
FIT = NmfParams(rank=2, outer_iters=150, objective_tol=1e-6)
# ranking checks only need the argmax of the importance estimate, so the
# repeated per-seed fits run at a looser (still deterministic) tolerance
FIT_LIGHT = NmfParams(rank=2, outer_iters=100, objective_tol=1e-4)


@contextmanager
def criterion(number, description, budget_s):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"runtime {elapsed:.1f}s over budget {budget_s}s"
    except Exception:
        print(f"[criterion {number}] FAIL "
              f"({time.perf_counter() - start:.1f}s) {description}")
        raise
    print(f"[criterion {number}] PASS ({elapsed:.1f}s) {description}")


def pair_fit(seed, n_images=200, params=None):
    model = pair_backbone()
    data = make_synthetic_dataset(model, n_images, noise=0.02, seed=seed,
                                  max_stamps=1, template_pool=(0, 1))
    bank, U, ctx = build_concept_bank(data.images, model, target_class=1, r=2,
                                      nmf_params=params or FIT)
    return model, data, bank, U, ctx


def test_criterion_1_nnls_oracle_equivalence(monkeypatch):
    monkeypatch.setattr(nnls, "_KKT_TOL", TIGHT_KKT_TOL)
    with criterion(1, "NNLS matches exhaustive active-set enumeration", 10):
        rng = np.random.default_rng(1001)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            p = int(rng.integers(1, 5))
            r = int(rng.integers(1, 4))
            A = rng.normal(size=(n, p))
            W = rng.normal(size=(p, r))
            sol = solve_nnls(A, W)
            _, obj_ref = nnls_enumerate(A, W)
            assert abs(nnls_objective(A, W, sol.U) - obj_ref) <= 1e-6
            assert sol.kkt_residual < 1e-8


def test_criterion_2_nmf_fixtures(monkeypatch):
    monkeypatch.setattr(nnls, "_KKT_TOL", TIGHT_KKT_TOL)
    with criterion(2, "NMF fixtures and monotone objective traces", 30):
        # exact nonnegative factorization is found
        U_true = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        W_true = np.array([[1.0, 0.0], [0.0, 2.0]])
        state = fit_nmf(U_true @ W_true.T,
                        NmfParams(rank=2, objective_tol=1e-9))
        assert state.objective_trace[-1] < 1e-6

        # rank-1 optimum forced by the nonnegative leading singular pair
        state = fit_nmf(np.array([[1.0, 1.0], [1.0, 0.0]]),
                        NmfParams(rank=1, objective_tol=1e-12))
        target = 0.5 * ((np.sqrt(5.0) - 1.0) / 2.0) ** 2
        assert abs(state.objective_trace[-1] - target) < 1e-3

        # objective trace never increases beyond the slack
        rng = np.random.default_rng(1002)
        for _ in range(50):
            n = int(rng.integers(5, 9))
            p = int(rng.integers(4, 7))
            r = int(rng.integers(2, 4))
            A = rng.uniform(size=(n, p))
            state = fit_nmf(A, NmfParams(rank=r, outer_iters=60,
                                         objective_tol=1e-9))
            trace = np.array(state.objective_trace)
            assert np.all(np.diff(trace) <= 1e-9)


def test_criterion_3_implicit_vs_finite_differences(monkeypatch):
    monkeypatch.setattr(nnls, "_KKT_TOL", TIGHT_KKT_TOL)
    with criterion(3, "implicit Jacobians match central differences", 60):
        rng = np.random.default_rng(1003)
        checked = 0
        while checked < 100:
            n = int(rng.integers(1, 5))
            p = int(rng.integers(2, 7))
            r = int(rng.integers(1, min(p, 4)))
            A = rng.normal(size=(n, p))
            W = rng.normal(size=(p, r))
            U_ref, _ = nnls_enumerate(A, W)
            dual_ref = np.maximum((U_ref @ W.T - A) @ W, 0.0)
            if np.any(np.maximum(np.abs(U_ref), np.abs(dual_ref)) <= 1e-3):
                continue  # too close to degenerate for clean differences
            checked += 1
            sol = solve_nnls(A, W)
            jac = jacobian_u_wrt_a(sol)
            step = 1e-5
            for i in range(n):
                active_rows = np.flatnonzero(~jac.inactive[i])
                for q in range(p):
                    up, _ = nnls_enumerate_row(A[i] + step * np.eye(p)[q], W)
                    um, _ = nnls_enumerate_row(A[i] - step * np.eye(p)[q], W)
                    fd = (up - um) / (2 * step)
                    col = jac.dense_form[i * r:(i + 1) * r, i * p + q]
                    assert np.all(np.abs(col - fd)
                                  <= np.maximum(1e-4 * np.abs(fd), 1e-7))
                # clamped coordinates are locally constant
                block = jac.dense_form[i * r:(i + 1) * r, i * p:(i + 1) * p]
                assert not block[active_rows].any()


def test_criterion_4_sobol_estimator_oracles():
    with criterion(4, "Jansen estimator hits analytic Sobol' indices", 20):
        est = total_sobol_jansen(lambda m: 3.0 * m[0] + m[1], 2, 2048)
        assert np.all(np.abs(est.total_indices - [0.9, 0.1]) <= 0.02)

        a, b = 7.0, 0.1
        est = total_sobol_jansen(lambda m: ishigami(m, a, b), 3, 8192)
        assert np.all(np.abs(est.total_indices
                             - ishigami_total_indices(a, b)) <= 0.02)

        est = total_sobol_jansen(lambda m: 1.25, 2, 256)
        assert est.degenerate
        assert not est.total_indices.any()


def test_criterion_5_end_to_end_concept_recovery():
    with criterion(5, "fitted bank recovers directions; Sobol ranks the "
                      "head-favored concept first", 120):
        model, data, bank, U, ctx = pair_fit(seed=0)
        dirs = model.template_directions()
        cosines = dirs @ bank.W
        # optimal one-to-one matching of concepts to templates
        best = max(min(cosines[0, p[0]], cosines[1, p[1]])
                   for p in permutations(range(2)))
        assert best > 0.9

        hits = 0
        for seed in range(100):
            model_s, data_s, bank_s, U_s, _ = (
                pair_fit(seed, n_images=200, params=FIT_LIGHT)
                if seed else (model, data, bank, U, ctx))
            dirs_s = model_s.template_directions()
            favored_concept = int(np.argmax(dirs_s @ bank_s.W, axis=1)[0])
            est = concept_importance(U_s, bank_s.W, model_s.head, 256)
            hits += int(np.argmax(est.total_indices)) == favored_concept
        assert hits >= 95


def test_criterion_6_fidelity_ordering():
    with criterion(6, "Sobol-ranked deletion beats TCAV and random rankings", 120):
        interaction_c = 0.8
        W = np.eye(3)

        def head(acts):
            return acts[:, 1] * (acts[:, 0] + interaction_c)

        sobol_aucs, tcav_aucs, beat_random = [], [], 0
        for seed in range(100):
            gen = Rng(seed, stream=61).generator()
            U = gen.uniform(0.3, 1.2, size=(48, 3))
            est = concept_importance(U, W, head, 256)
            grads = np.column_stack([U[:, 1], U[:, 0] + interaction_c,
                                     np.zeros(len(U))])
            tcav = tcav_importance(grads, W)
            assert tcav[0] == tcav[1] == 1.0  # sign-only score is uninformative

            del_sobol = fidelity_curves(U, W, head, est.total_indices)
            del_tcav = fidelity_curves(U, W, head, tcav)
            random_rank = gen.permutation(3).astype(float)
            del_rand = fidelity_curves(U, W, head, random_rank)
            sobol_aucs.append(del_sobol.auc)
            tcav_aucs.append(del_tcav.auc)
            beat_random += del_sobol.auc <= del_rand.auc + 1e-12
        assert np.mean(sobol_aucs) <= np.mean(tcav_aucs)
        assert beat_random >= 95


def test_criterion_7_attribution_localization(monkeypatch):
    monkeypatch.setattr(nnls, "_KKT_TOL", TIGHT_KKT_TOL)
    with criterion(7, "gradient maps localize stamps; inactive concepts "
                      "give zero maps", 120):
        model, _, bank, _, _ = pair_fit(seed=0)
        dirs = model.template_directions()
        concept_of = np.argmax(dirs @ bank.W, axis=1)

        localized = 0
        for seed in range(100):
            probe = make_synthetic_dataset(model, 1, noise=0.0, seed=7000 + seed,
                                           max_stamps=1, template_pool=(0, 1))
            (t_idx, y0, x0), = probe.stamps[0]
            concept = int(concept_of[t_idx])
            try:
                hm = concept_attribution_map(probe.images[0], bank, model, concept)
            except DegeneracyError:
                continue
            mass = np.abs(hm.values)
            localized += mass[y0:y0 + 5, x0:x0 + 5].sum() > 0.5 * mass.sum()
        assert localized >= 90

        # the zero-map branch is exercised on the first five strictly
        # inactive cases of the probe seeds, extended past the 100 above
        # up to a cap; about one probe in 130 is one
        strict_zero_checked = 0
        for seed in range(1000):
            probe = make_synthetic_dataset(model, 1, noise=0.0, seed=7000 + seed,
                                           max_stamps=1, template_pool=(0, 1))
            (t_idx, _, _), = probe.stamps[0]
            absent = 1 - int(concept_of[t_idx])
            sol = solve_nnls(model.features(probe.images), bank.W)
            if sol.U[0, absent] < 1e-7 and sol.dual_U[0, absent] > 1e-7:
                hm0 = concept_attribution_map(probe.images[0], bank, model, absent)
                assert not hm0.values.any()
                strict_zero_checked += 1
                if strict_zero_checked == 5:
                    break
        assert strict_zero_checked >= 5


def _fails_at_noise(reading):
    return pytest.mark.xfail(strict=True, reason=f"at noise 0.02 {reading}; criterion 7 "
                             "passes only on clean probes")


@pytest.mark.parametrize("method", [
    "occlusion",
    pytest.param("gradient", marks=_fails_at_noise(
        "0 of 40 maps localize (median share 0.147, deletion AUC 0.185)")),
    pytest.param("smoothgrad", marks=_fails_at_noise(
        "0 of 40 maps localize (median share 0.157, deletion AUC 0.114)")),
])
def test_maps_localize_at_the_fit_noise(monkeypatch, method):
    # criterion 7's bank and rule, on probes with the noise the bank was
    # fit on (0.02, also explain's default) instead of clean ones
    monkeypatch.setattr(nnls, "_KKT_TOL", TIGHT_KKT_TOL)
    model, _, bank, _, _ = pair_fit(seed=0)
    concept_of = np.argmax(model.template_directions() @ bank.W, axis=1)
    side_y, side_x = model.templates.shape[1:3]
    shares, aucs = [], []
    for seed in range(40):
        probe = make_synthetic_dataset(model, 1, 0.02, 7000 + seed, max_stamps=1,
                                       template_pool=(0, 1))
        (t_idx, y0, x0), = probe.stamps[0]
        concept = int(concept_of[t_idx])
        hm = concept_attribution_map(probe.images[0], bank, model, concept, method=method)
        share, auc = map_scores(hm.values, (y0, x0, side_y, side_x), probe.images[0],
                                lambda x: model.features(x, layer=bank.layer_tag),
                                bank.W, concept)
        shares.append(share)
        aucs.append(auc)
    localized = sum(share > 0.5 for share in shares)
    print(f"[noise 0.02] {method}: {localized} of 40 maps localize, share median "
          f"{np.median(shares):.3f} (min {min(shares):.3f}), deletion AUC median "
          f"{np.median(aucs):.3f}")
    assert localized >= 36  # criterion 7's 90 %
    # pinned from occlusion's readings: share min 0.835, deletion AUC median
    # 0.146, where deleting pixels in a random order reads 0.516
    assert min(shares) > 0.8 and np.median(aucs) < 0.2


def test_criterion_8_recursive_refinement():
    with criterion(8, "sub-bank separates mixed earlier-layer directions; "
                      "top-decile selection is exact", 60):
        model = two_layer_backbone()
        data = make_synthetic_dataset(model, 240, noise=0.02, seed=0, max_stamps=1)
        bank, U, ctx = build_concept_bank(data.images, model, target_class=1,
                                          r=2, nmf_params=FIT)
        comp0_concept = int(np.argmax(bank.W[0]))
        sub_bank, _, _ = recursive_decompose(
            bank, U, comp0_concept, ctx["crops"], model, 1, FIT)
        dirs = model.template_directions()[:2]
        cosines = dirs @ sub_bank.W
        best = max(min(cosines[0, p[0]], cosines[1, p[1]])
                   for p in permutations(range(2)))
        assert best > 0.9

        rng = np.random.default_rng(1008)
        for n in (10, 15, 20, 23, 97, 200):
            values = rng.permutation(np.arange(n, dtype=float))
            threshold = concept_percentile_threshold(values)
            assert np.count_nonzero(values > threshold) == int(np.ceil(0.1 * n))


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "identical seeds give byte-identical run artifacts", 120):
        runs = []
        for tag in ("first", "second"):
            out = tmp_path / tag
            base = ["--model", "toy2:9", "--seed", "4", "--n-images", "60",
                    "--out", str(out)]
            assert cli_main(["fit", "--rank", "2"] + base) == 0
            assert cli_main(["importance", "--n-samples", "128"] + base) == 0
            assert cli_main(["fidelity", "--ranking", "sobol"] + base) == 0
            assert cli_main(["fidelity", "--ranking", "random"] + base) == 0
            assert cli_main(["explain"] + base) == 0
            assert cli_main(["recurse", "--concept", "0", "--rank-sub", "2"]
                            + base) == 0
            assert cli_main(["sanity", "--rank", "2", "--layer", "layer1"]
                            + base) == 0
            runs.append(out)
        first, second = runs
        rel_files = sorted(p.relative_to(first).as_posix()
                           for p in first.rglob("*") if p.is_file())
        assert rel_files
        assert rel_files == sorted(p.relative_to(second).as_posix()
                                   for p in second.rglob("*") if p.is_file())
        for rel in rel_files:
            assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel
