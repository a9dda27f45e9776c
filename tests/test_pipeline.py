"""Crop geometry, bank building, refinement, attribution, and fidelity."""

import json
from collections import Counter

import numpy as np
import pytest

from craftkit.core import Rng
from craftkit.errors import DegeneracyError, EmptySetError, InsufficientDataError
from craftkit.implicit import jacobian_u_wrt_a
from craftkit.nmf import NmfParams
from craftkit.nnls import AdmmParams, solve_nnls
from craftkit.pipeline import (ConceptBank, CropSpec, bilinear_resize,
                               build_concept_bank,
                               concept_attribution_map, concept_attribution_maps,
                               concept_percentile_threshold, extract_crops,
                               fidelity_curves, load_bank, recursive_decompose,
                               save_bank, select_class_set)
from craftkit.sobol import AffineHead, concept_importance
from craftkit.toy import (make_synthetic_dataset, pair_backbone, standard_backbone,
                          two_layer_backbone)

FIT_PARAMS = NmfParams(rank=2, outer_iters=80, objective_tol=1e-8)
ATTRIBUTION_ADMM = AdmmParams(tol_primal=1e-11, tol_dual=1e-11)


@pytest.fixture(scope="module")
def fitted_pair():
    """Bank fit on the two-template construction, shared across tests."""
    model = pair_backbone()
    data = make_synthetic_dataset(model, 200, noise=0.02, seed=0,
                                  max_stamps=1, template_pool=(0, 1))
    bank, U, ctx = build_concept_bank(data.images, model, target_class=1, r=2,
                                      nmf_params=FIT_PARAMS)
    dirs = model.template_directions()
    concept_of_template = np.argmax(dirs @ bank.W, axis=1)
    return model, data, bank, U, ctx, concept_of_template


class TestExtractCrops:
    def test_grid_corners_on_4x4(self):
        images = np.arange(16.0).reshape(1, 4, 4, 1)
        spec = CropSpec(mode="grid", crop_fraction=0.5, crops_per_image=4,
                        resize_to=(2, 2))
        crops, prov = extract_crops(images, spec)
        corners = [(p["y0"], p["x0"]) for p in prov]
        assert corners == [(0, 0), (0, 2), (2, 0), (2, 2)]
        np.testing.assert_array_equal(crops[0, :, :, 0], images[0, 0:2, 0:2, 0])

    def test_fraction_one_single_crop(self):
        images = np.arange(32.0).reshape(2, 4, 4, 1)
        spec = CropSpec(mode="grid", crop_fraction=1.0, crops_per_image=8,
                        resize_to=(4, 4))
        crops, prov = extract_crops(images, spec)
        assert len(crops) == 2  # duplicates collapse to one window per image
        np.testing.assert_array_equal(crops, images)

    def test_random_mode_is_seeded(self):
        images = np.arange(64.0).reshape(1, 8, 8, 1)
        spec = CropSpec(mode="random", crop_fraction=0.5, crops_per_image=6,
                        resize_to=(4, 4), seed=3)
        _, prov1 = extract_crops(images, spec)
        _, prov2 = extract_crops(images, spec)
        assert prov1 == prov2

    def test_provenance_recuts_bit_exactly(self):
        rng = np.random.default_rng(0)
        images = rng.normal(size=(3, 10, 10, 2))
        # resize_to equals the window size, so returned crops are pre-resize
        spec = CropSpec(mode="random", crop_fraction=0.4, crops_per_image=5,
                        resize_to=(4, 4), seed=1)
        crops, prov = extract_crops(images, spec)
        for crop, p in zip(crops, prov):
            window = images[p["image"], p["y0"]:p["y0"] + p["h"],
                            p["x0"]:p["x0"] + p["w"], :]
            assert crop.tobytes() == window.tobytes()

    def test_oversized_fraction_rejected(self):
        with pytest.raises(ValueError):
            extract_crops(np.zeros((1, 2, 2, 1)),
                          CropSpec(crop_fraction=0.1, resize_to=(1, 1)))

    def test_rectangular_images_record_both_sides(self):
        rng = np.random.default_rng(5)
        images = rng.normal(size=(1, 8, 12, 1))
        spec = CropSpec(mode="grid", crop_fraction=0.5, crops_per_image=4,
                        resize_to=(4, 6))
        crops, prov = extract_crops(images, spec)
        assert all(p["h"] == 4 and p["w"] == 6 for p in prov)
        window = images[0, prov[0]["y0"]:prov[0]["y0"] + 4,
                        prov[0]["x0"]:prov[0]["x0"] + 6, :]
        assert crops[0].tobytes() == window.tobytes()  # identity resize

    def test_resize_identity_when_same_size(self):
        rng = np.random.default_rng(1)
        t = rng.normal(size=(2, 5, 5, 1))
        np.testing.assert_array_equal(bilinear_resize(t, 5, 5), t)

    def test_resize_preserves_constants(self):
        t = np.full((1, 3, 4, 2), 2.75)
        out = bilinear_resize(t, 9, 6)
        np.testing.assert_allclose(out, 2.75, rtol=1e-15)
        assert out.shape == (1, 9, 6, 2)

    def test_resize_is_linear(self):
        rng = np.random.default_rng(2)
        t1 = rng.normal(size=(1, 4, 4, 1))
        t2 = rng.normal(size=(1, 4, 4, 1))
        lhs = bilinear_resize(3.0 * t1 + t2, 7, 7)
        rhs = 3.0 * bilinear_resize(t1, 7, 7) + bilinear_resize(t2, 7, 7)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_resize_corners_align(self):
        rng = np.random.default_rng(3)
        t = rng.normal(size=(1, 4, 5, 1))
        out = bilinear_resize(t, 9, 11)
        for (yy, xx), (oy, ox) in [((0, 0), (0, 0)), ((0, -1), (0, -1)),
                                   ((-1, 0), (-1, 0)), ((-1, -1), (-1, -1))]:
            assert out[0, oy, ox, 0] == pytest.approx(t[0, yy, xx, 0])


class TestSelectClassSet:
    def test_filters_matching_predictions(self):
        np.testing.assert_array_equal(
            select_class_set([0, 1, 1, 0], 1), [1, 2])

    def test_empty_selection_raises(self):
        with pytest.raises(EmptySetError):
            select_class_set([0, 0], 1)

    def test_all_match(self):
        np.testing.assert_array_equal(select_class_set([2, 2], 2), [0, 1])


class TestBuildConceptBank:
    def test_recovers_ground_truth_directions(self, fitted_pair):
        model, _, bank, _, _, _ = fitted_pair
        dirs = model.template_directions()
        cosines = dirs @ bank.W
        # optimal matching: each template direction has a bank column > 0.9
        assert sorted(np.argmax(cosines, axis=1).tolist()) == [0, 1]
        assert cosines.max(axis=1).min() > 0.9

    def test_unit_norm_columns(self, fitted_pair):
        _, _, bank, _, _, _ = fitted_pair
        np.testing.assert_allclose(np.linalg.norm(bank.W, axis=0), 1.0, atol=1e-10)

    def test_zero_crops_have_zero_coefficients(self, fitted_pair):
        model, _, bank, U, ctx, _ = fitted_pair
        zero_rows = np.flatnonzero(np.abs(ctx["activations"]).max(axis=1) < 1e-12)
        if zero_rows.size:
            np.testing.assert_allclose(U[zero_rows], 0.0, atol=1e-9)

    def test_rank_one_bank_on_single_template_data(self):
        model = pair_backbone()
        data = make_synthetic_dataset(model, 120, noise=0.02, seed=4,
                                      max_stamps=1, template_pool=(0,))
        bank, _, _ = build_concept_bank(data.images, model, target_class=1, r=1,
                                        nmf_params=NmfParams(rank=1, outer_iters=80,
                                                             objective_tol=1e-8))
        direction = model.template_directions()[0]
        assert float(direction @ bank.W[:, 0]) > 0.95


class TestPercentileSelection:
    def test_nearest_rank_example(self):
        values = np.arange(1.0, 21.0)
        threshold = concept_percentile_threshold(values)
        assert threshold == 18.0
        assert np.flatnonzero(values > threshold).tolist() == [18, 19]

    def test_cardinality_is_ceil_tenth_for_distinct_values(self):
        rng = np.random.default_rng(2)
        for n in (10, 15, 20, 23, 97, 100):
            values = rng.permutation(np.arange(n, dtype=float))
            threshold = concept_percentile_threshold(values)
            selected = np.count_nonzero(values > threshold)
            assert selected == int(np.ceil(0.1 * n))

    def test_all_equal_selects_nothing(self):
        model = two_layer_backbone()
        bank_W = np.eye(2)
        from craftkit.pipeline import ConceptBank
        bank = ConceptBank(W=bank_W, layer_tag="final", r=2, fit_objective=0.0,
                           column_norms=np.ones(2))
        U = np.ones((40, 2))
        crops = np.zeros((40, 16, 16, 1))
        with pytest.raises(InsufficientDataError):
            recursive_decompose(bank, U, 0, crops,
                                lambda c: model.features(c, layer=1), 2)


class TestRecursiveDecompose:
    def test_subconcepts_separate_mixed_directions(self):
        model = two_layer_backbone()
        data = make_synthetic_dataset(model, 240, noise=0.02, seed=0, max_stamps=1)
        bank, U, ctx = build_concept_bank(data.images, model, target_class=1,
                                          r=2, nmf_params=FIT_PARAMS)
        comp0_concept = int(np.argmax(bank.W[0]))
        sub_bank, U_sub, selected = recursive_decompose(
            bank, U, comp0_concept, ctx["crops"],
            lambda crops: model.features(crops, layer=1), 2,
            nmf_params=FIT_PARAMS, layer_tag="layer1")
        assert selected.size >= 10
        assert sub_bank.parent == (bank.bank_id, comp0_concept)
        dirs = model.template_directions()[:2]  # primitives 0 and 1
        cosines = dirs @ sub_bank.W
        assert sorted(np.argmax(cosines, axis=1).tolist()) == [0, 1]
        assert cosines.max(axis=1).min() > 0.9

        # a sub-bank with a resolvable layer tag drives attribution maps
        probe = make_synthetic_dataset(model, 1, noise=0.0, seed=8123,
                                       max_stamps=1, template_pool=(0, 1))
        sub_concept = int(np.argmax(cosines[probe.stamps[0][0][0]]))
        hm = concept_attribution_map(probe.images[0], sub_bank, model, sub_concept)
        assert hm.values.shape == (16, 16)


class TestAttributionMaps:
    def test_gradient_mass_concentrates_on_stamp(self, fitted_pair):
        model, _, bank, _, _, concept_of = fitted_pair
        hits = 0
        total = 20
        for seed in range(total):
            probe = make_synthetic_dataset(model, 1, noise=0.0, seed=2000 + seed,
                                           max_stamps=1, template_pool=(0, 1))
            (t_idx, y0, x0), = probe.stamps[0]
            try:
                hm = concept_attribution_map(probe.images[0], bank, model,
                                             int(concept_of[t_idx]))
            except DegeneracyError:
                continue
            m = np.abs(hm.values)
            hits += m[y0:y0 + 5, x0:x0 + 5].sum() / m.sum() > 0.5
        assert hits >= int(0.9 * total)

    def test_strictly_inactive_concept_gives_zero_map(self, fitted_pair):
        model, _, bank, _, _, concept_of = fitted_pair
        checked = 0
        for seed in range(40):
            probe = make_synthetic_dataset(model, 1, noise=0.0, seed=3000 + seed,
                                           max_stamps=1, template_pool=(0, 1))
            (t_idx, _, _), = probe.stamps[0]
            absent = 1 - int(concept_of[t_idx])
            acts = model.features(probe.images)
            sol = solve_nnls(acts, bank.W, AdmmParams(tol_primal=1e-11,
                                                      tol_dual=1e-11))
            if sol.U[0, absent] < 1e-7 and sol.dual_U[0, absent] > 1e-7:
                hm = concept_attribution_map(probe.images[0], bank, model, absent)
                assert not hm.values.any()
                checked += 1
        assert checked >= 3

    def test_translation_covariance(self, fitted_pair):
        model, _, bank, _, _, concept_of = fitted_pair
        h, w, c = model.input_shape
        base = np.zeros((h, w, c))
        base[4:9, 4:9, :] = model.templates[0]
        shifted = np.zeros((h, w, c))
        shifted[6:11, 7:12, :] = model.templates[0]
        concept = int(concept_of[0])
        hm1 = concept_attribution_map(base, bank, model, concept)
        hm2 = concept_attribution_map(shifted, bank, model, concept)
        p1 = np.unravel_index(np.argmax(hm1.values), hm1.values.shape)
        p2 = np.unravel_index(np.argmax(hm2.values), hm2.values.shape)
        assert abs((p2[0] - p1[0]) - 2) <= 1
        assert abs((p2[1] - p1[1]) - 3) <= 1

    def test_occlusion_argmax_overlaps_stamp(self, fitted_pair):
        model, _, bank, _, _, concept_of = fitted_pair
        probe = make_synthetic_dataset(model, 1, noise=0.0, seed=2104,
                                       max_stamps=1, template_pool=(0, 1))
        (t_idx, y0, x0), = probe.stamps[0]
        hm = concept_attribution_map(probe.images[0], bank, model,
                                     int(concept_of[t_idx]), method="occlusion")
        py, px = np.unravel_index(np.argmax(hm.values), hm.values.shape)
        assert y0 <= py < y0 + 5 and x0 <= px < x0 + 5

    def test_smoothgrad_is_seeded(self, fitted_pair):
        model, _, bank, _, _, concept_of = fitted_pair
        probe = make_synthetic_dataset(model, 1, noise=0.05, seed=2050,
                                       max_stamps=1, template_pool=(0, 1))
        (t_idx, _, _), = probe.stamps[0]
        concept = int(concept_of[t_idx])
        hm1 = concept_attribution_map(probe.images[0], bank, model, concept,
                                      method="smoothgrad", seed=5, n_noise=4)
        hm2 = concept_attribution_map(probe.images[0], bank, model, concept,
                                      method="smoothgrad", seed=5, n_noise=4)
        np.testing.assert_array_equal(hm1.values, hm2.values)

    def test_occlusion_matches_per_patch_solves(self, fitted_pair):
        # reference: one features call and one single-row solve per patch
        model, _, bank, _, _, concept_of = fitted_pair
        probe = make_synthetic_dataset(model, 1, noise=0.0, seed=2104,
                                       max_stamps=1, template_pool=(0, 1))
        x = probe.images
        concept = int(concept_of[probe.stamps[0][0][0]])
        h, w = x.shape[1:3]
        patch = max(1, round(min(h, w) / 8))
        stride = max(1, patch // 2)

        def coefficient(image):
            return solve_nnls(model.features(image), bank.W,
                              ATTRIBUTION_ADMM).U[0, concept]

        u0 = coefficient(x)
        heat = np.zeros((h, w))
        count = np.zeros((h, w))
        for y0 in range(0, h - patch + 1, stride):
            for x0 in range(0, w - patch + 1, stride):
                occluded = x.copy()
                occluded[0, y0:y0 + patch, x0:x0 + patch, :] = 0.0
                heat[y0:y0 + patch, x0:x0 + patch] += u0 - coefficient(occluded)
                count[y0:y0 + patch, x0:x0 + patch] += 1.0
        expected = heat / np.maximum(count, 1.0)

        hm = concept_attribution_map(x[0], bank, model, concept, method="occlusion",
                                     admm=ATTRIBUTION_ADMM)
        np.testing.assert_allclose(hm.values, expected, rtol=1e-12)

    def test_smoothgrad_matches_per_jitter_gradients(self, fitted_pair):
        # reference: draw each jitter in turn from the same stream and
        # differentiate it on its own
        model, _, bank, _, _, concept_of = fitted_pair
        probe = make_synthetic_dataset(model, 1, noise=0.05, seed=2050,
                                       max_stamps=1, template_pool=(0, 1))
        x = probe.images
        concept = int(concept_of[probe.stamps[0][0][0]])
        seed, n_noise, noise_scale = 5, 6, 0.1
        sigma = noise_scale * float(x.max() - x.min())
        gen = Rng(seed, stream=17).generator()
        acc = np.zeros(x.shape[1:3])
        for _ in range(n_noise):
            jittered = x + sigma * gen.normal(size=x.shape)
            acts = model.features(jittered)
            sol = solve_nnls(acts, bank.W, ATTRIBUTION_ADMM)
            cot = np.zeros((1, bank.r))
            cot[0, concept] = 1.0
            d_act = jacobian_u_wrt_a(sol, bank.W).vjp(cot)
            acc += np.abs(model.vjp_features(jittered, d_act)[0]).sum(axis=-1)
        expected = acc / n_noise

        hm = concept_attribution_map(x[0], bank, model, concept, method="smoothgrad",
                                     admm=ATTRIBUTION_ADMM, seed=seed,
                                     n_noise=n_noise, noise_scale=noise_scale)
        np.testing.assert_allclose(hm.values, expected, rtol=1e-12)

    @pytest.mark.parametrize("n_noise", [0, -3])
    def test_smoothgrad_rejects_empty_noise_count(self, fitted_pair, n_noise):
        model, _, bank, _, _, _ = fitted_pair
        with pytest.raises(ValueError, match="n_noise"):
            concept_attribution_map(np.zeros(model.input_shape), bank, model, 0,
                                    method="smoothgrad", n_noise=n_noise)

    def test_concept_out_of_range(self, fitted_pair):
        model, _, bank, _, _, _ = fitted_pair
        with pytest.raises(ValueError):
            concept_attribution_map(np.zeros(model.input_shape), bank, model, 5)

    def test_full_chain_gradient_matches_pixel_finite_differences(self, fitted_pair):
        # end-to-end: d coefficient / d pixel through features, the NNLS
        # solve, and the implicit Jacobian, against finite differences of
        # the exact enumeration re-solve on the perturbed image
        from oracles import nnls_enumerate_row

        model, _, bank, _, _, concept_of = fitted_pair
        probe = make_synthetic_dataset(model, 1, noise=0.3, seed=4321,
                                       max_stamps=1, template_pool=(0, 1))
        x = probe.images
        concept = int(concept_of[probe.stamps[0][0][0]])

        acts = model.features(x)
        sol = solve_nnls(acts, bank.W, AdmmParams(tol_primal=1e-12,
                                                  tol_dual=1e-12))
        jac = jacobian_u_wrt_a(sol, bank.W)
        cot = np.zeros((1, 2))
        cot[0, concept] = 1.0
        dx = model.vjp_features(x, jac.vjp(cot))[0]

        rng = np.random.default_rng(0)
        step = 1e-6
        for _ in range(12):
            i, j = rng.integers(0, 16, size=2)
            xp, xm = x.copy(), x.copy()
            xp[0, i, j, 0] += step
            xm[0, i, j, 0] -= step
            up, _ = nnls_enumerate_row(model.features(xp)[0], bank.W)
            um, _ = nnls_enumerate_row(model.features(xm)[0], bank.W)
            fd = (up[concept] - um[concept]) / (2 * step)
            assert dx[i, j, 0] == pytest.approx(fd, rel=1e-4, abs=1e-8)


@pytest.fixture(scope="module")
def three_concepts():
    """A hand-built rank-3 bank over standard_backbone's four features and
    noisy probes; concept 0 is clamped at zero on probe 3."""
    model = standard_backbone()
    W = np.random.default_rng(3).uniform(0.1, 1.0, size=(4, 3))
    W /= np.linalg.norm(W, axis=0)
    bank = ConceptBank(W=W, layer_tag="final", r=3, fit_objective=0.0,
                       column_norms=np.ones(3))
    probes = make_synthetic_dataset(model, 4, noise=0.05, seed=11).images
    return model, bank, probes


class CountingModel:
    """Delegates to a model and counts its features and vjp_features calls."""

    def __init__(self, model):
        self.model = model
        self.calls = Counter()

    def __getattr__(self, name):
        return getattr(self.model, name)

    def features(self, x, layer=None):
        self.calls["features"] += 1
        return self.model.features(x, layer=layer)

    def vjp_features(self, x, cotangent, layer=None):
        self.calls["vjp_features"] += 1
        return self.model.vjp_features(x, cotangent, layer=layer)


class TestAttributionMapsOnePass:
    @pytest.mark.parametrize("method", ["gradient", "smoothgrad", "occlusion"])
    def test_matches_per_concept_maps(self, three_concepts, method):
        # exact: each concept's map comes from the same rows, solve and
        # Jacobian as its own pass, and the toy model treats every image of
        # a stack independently
        model, bank, probes = three_concepts
        concepts = [2, 0, 1, 2]
        for image in probes[[0, 3]]:
            hms = concept_attribution_maps(image, bank, model, concepts,
                                           method=method, seed=4, n_noise=5)
            assert [hm.concept_index for hm in hms] == concepts
            for c, hm in zip(concepts, hms):
                ref = concept_attribution_map(image, bank, model, c,
                                              method=method, seed=4, n_noise=5)
                assert hm.method == method
                np.testing.assert_array_equal(hm.values, ref.values)

    @pytest.mark.parametrize("method", ["gradient", "smoothgrad", "occlusion"])
    def test_one_forward_and_one_solve_per_pass(self, three_concepts, monkeypatch,
                                                 method):
        import craftkit.pipeline as pipeline_module
        model, bank, probes = three_concepts
        counting = CountingModel(model)
        solves = []
        solve = pipeline_module.solve_nnls
        monkeypatch.setattr(pipeline_module, "solve_nnls",
                            lambda *args: solves.append(1) or solve(*args))
        hms = concept_attribution_maps(probes[0], bank, counting, range(bank.r),
                                       method=method, n_noise=5)
        assert len(hms) == bank.r
        assert counting.calls["features"] == 1
        assert len(solves) == 1
        expected_vjp = 0 if method == "occlusion" else 1
        assert counting.calls["vjp_features"] == expected_vjp

    def test_occlusion_matches_per_patch_loop_on_strided_rectangle(self, three_concepts):
        # a 36 x 28 image gives 4-pixel patches at stride 2, so each pixel is
        # covered by up to four overlapping patches; reference: one
        # single-row solve per patch, accumulated corner by corner. Single-row
        # and batched solves agree to rounding in u, and a drop is a
        # difference of nearly equal coefficients, so the tolerance is
        # absolute, on the scale of u
        _, bank, _ = three_concepts
        model = standard_backbone(input_shape=(36, 28, 1))
        x = make_synthetic_dataset(model, 1, noise=0.05, seed=12).images
        patch, stride = 4, 2

        def coefficients(image):
            return solve_nnls(model.features(image), bank.W, ATTRIBUTION_ADMM).U[0]

        u0 = coefficients(x)
        heat = np.zeros((bank.r, 36, 28))
        count = np.zeros((36, 28))
        for y0 in range(0, 36 - patch + 1, stride):
            for x0 in range(0, 28 - patch + 1, stride):
                occluded = x.copy()
                occluded[0, y0:y0 + patch, x0:x0 + patch, :] = 0.0
                drop = u0 - coefficients(occluded)
                heat[:, y0:y0 + patch, x0:x0 + patch] += drop[:, None, None]
                count[y0:y0 + patch, x0:x0 + patch] += 1.0
        expected = heat / np.maximum(count, 1.0)

        hms = concept_attribution_maps(x[0], bank, model, range(bank.r),
                                       method="occlusion", admm=ATTRIBUTION_ADMM)
        for c, hm in enumerate(hms):
            np.testing.assert_allclose(hm.values, expected[c], rtol=0,
                                       atol=1e-14 * np.abs(u0).max())

    @pytest.mark.parametrize("concepts, message", [
        ([], "no concepts requested"),
        ([0, 3], "concept index 3 out of range"),
        ([-1], "concept index -1 out of range"),
    ])
    def test_rejects_bad_concept_lists(self, three_concepts, concepts, message):
        model, bank, probes = three_concepts
        with pytest.raises(ValueError, match=message):
            concept_attribution_maps(probes[0], bank, model, concepts)


class TestFidelityCurves:
    @pytest.mark.parametrize("direction", ["deletion", "insertion"])
    @pytest.mark.parametrize("mu", [0.0, 0.3])
    def test_matches_per_step_loop(self, direction, mu):
        # reference: copy U per step and set the touched columns to mu; the
        # curve's batched products may regroup BLAS sums, hence rtol 1e-12
        rng = np.random.default_rng(8)
        U = rng.uniform(size=(57, 4))
        W = rng.uniform(size=(6, 4))
        head = lambda acts: np.tanh(acts).sum(axis=1)
        importance = [0.2, 0.9, 0.2, 0.5]
        order = np.argsort(-np.asarray(importance), kind="stable")
        expected = []
        for k in range(5):
            mod = U.copy()
            mod[:, order[:k] if direction == "deletion" else order[k:]] = mu
            expected.append(np.mean(head(mod @ W.T)))
        curve = fidelity_curves(U, W, head, importance, direction=direction, mu=mu)
        np.testing.assert_allclose(curve.ys, expected, rtol=1e-12)

    def test_hand_case_order_one_two(self):
        U = np.array([[2.0, 5.0]])
        W = np.eye(2)
        head = lambda acts: acts[:, 0]
        curve = fidelity_curves(U, W, head, importance=[1.0, 0.5])
        np.testing.assert_allclose(curve.ys, [2.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(curve.xs, [0.0, 0.5, 1.0])

    def test_hand_case_reversed_order_has_larger_auc(self):
        U = np.array([[2.0, 5.0]])
        W = np.eye(2)
        head = lambda acts: acts[:, 0]
        steep = fidelity_curves(U, W, head, importance=[1.0, 0.5])
        shallow = fidelity_curves(U, W, head, importance=[0.5, 1.0])
        np.testing.assert_allclose(shallow.ys, [2.0, 2.0, 0.0], atol=1e-12)
        assert shallow.auc > steep.auc

    def test_insertion_ends_at_full_reconstruction(self):
        rng = np.random.default_rng(3)
        U = rng.uniform(size=(6, 3))
        W = rng.uniform(size=(4, 3))
        head = lambda acts: acts.sum(axis=1)
        curve = fidelity_curves(U, W, head, importance=[3.0, 2.0, 1.0],
                                direction="insertion")
        assert curve.ys[-1] == pytest.approx(float(np.mean(head(U @ W.T))))

    def test_auc_is_trapezoid_of_curve(self):
        U = np.array([[1.0, 2.0, 3.0]])
        W = np.eye(3)
        head = lambda acts: acts.sum(axis=1)
        curve = fidelity_curves(U, W, head, importance=[1.0, 2.0, 3.0])
        assert curve.auc == pytest.approx(float(np.trapezoid(curve.ys, curve.xs)))

    def test_nonzero_baseline_deletion_endpoint(self):
        U = np.array([[2.0, 5.0]])
        W = np.eye(2)
        head = lambda acts: acts.sum(axis=1)
        curve = fidelity_curves(U, W, head, importance=[1.0, 0.5], mu=0.25)
        # deleting everything leaves the baseline reconstruction
        assert curve.ys[-1] == pytest.approx(0.5)

    def test_optimal_ranking_beats_random_usually(self):
        # linear head: the optimal deletion order is by weighted coefficient
        rng = np.random.default_rng(11)
        wins = 0
        trials = 100
        for _ in range(trials):
            U = rng.uniform(0.2, 1.0, size=(8, 3))
            W = np.eye(3)
            weights = rng.uniform(0.2, 1.0, size=3)
            head = lambda acts: acts @ weights
            truth = U.mean(axis=0) * weights
            optimal = fidelity_curves(U, W, head, importance=truth)
            random_rank = fidelity_curves(U, W, head,
                                          importance=rng.permutation(3).astype(float))
            wins += optimal.auc <= random_rank.auc + 1e-12
        assert wins >= 95


class TestAffineHeadPath:
    """An AffineHead is evaluated on the row-mean coefficients; a closure
    computing the same map goes through every row."""

    @staticmethod
    def closure(model):
        return lambda a: a @ model.head_weights + model.head_bias

    def test_importance_matches_general_head(self, fitted_pair):
        model, _, bank, U, _, _ = fitted_pair
        for mu in (0.0, 0.3):
            general = concept_importance(U, bank.W, self.closure(model), 256, mu=mu)
            affine = concept_importance(U, bank.W, model.affine_head, 256, mu=mu)
            np.testing.assert_allclose(affine.total_indices, general.total_indices,
                                       rtol=1e-12)
            assert affine.degenerate == general.degenerate

    @pytest.mark.parametrize("direction", ["deletion", "insertion"])
    @pytest.mark.parametrize("mu", [0.0, 0.3])
    def test_curves_match_general_head(self, fitted_pair, direction, mu):
        model, _, bank, U, _, _ = fitted_pair
        importance = [0.3, 0.7]
        general = fidelity_curves(U, bank.W, self.closure(model), importance,
                                  direction=direction, mu=mu)
        affine = fidelity_curves(U, bank.W, model.affine_head, importance,
                                 direction=direction, mu=mu)
        np.testing.assert_allclose(affine.ys, general.ys, rtol=1e-12)
        np.testing.assert_allclose(affine.auc, general.auc, rtol=1e-12)

    def test_curve_head_sees_one_row_per_step(self):
        rows = []

        class Counting(AffineHead):
            def __call__(self, a):
                rows.append(len(a))
                return super().__call__(a)

        rng = np.random.default_rng(5)
        U = rng.uniform(size=(41, 4))
        W = rng.uniform(size=(6, 4))
        for direction in ("deletion", "insertion"):
            rows.clear()
            fidelity_curves(U, W, Counting(rng.normal(size=6), 0.2),
                            [0.1, 0.4, 0.3, 0.2], direction=direction)
            assert sum(rows) == 4 + 1


class TestBankPersistence:
    def test_round_trip(self, tmp_path, fitted_pair):
        _, _, bank, _, _, _ = fitted_pair
        save_bank(bank, tmp_path / "bank")
        loaded = load_bank(tmp_path / "bank")
        np.testing.assert_array_equal(loaded.W, bank.W)
        assert loaded.r == bank.r
        assert loaded.layer_tag == bank.layer_tag
        assert loaded.fit_objective == pytest.approx(bank.fit_objective)
        np.testing.assert_allclose(loaded.column_norms, bank.column_norms)
        assert bank.converged is not None and bank.outer_iters >= 1
        assert (loaded.converged, loaded.kkt_residual, loaded.outer_iters) == (
            bank.converged, bank.kkt_residual, bank.outer_iters)

    def test_hand_built_bank_saves_without_diagnostics(self, tmp_path):
        bank = ConceptBank(W=np.eye(2), layer_tag="final", r=2, fit_objective=0.0,
                           column_norms=np.ones(2))
        save_bank(bank, tmp_path / "bank")
        meta = json.loads((tmp_path / "bank" / "meta.json").read_text())
        assert not {"converged", "kkt_residual", "outer_iters"} & set(meta)
        assert load_bank(tmp_path / "bank").converged is None
