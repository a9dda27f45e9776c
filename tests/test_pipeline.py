"""Crop geometry, bank building, refinement, attribution, and fidelity."""

import itertools
import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from craftkit.core import _BLOCK_FLOATS, Rng
from craftkit.errors import (DataError, DegeneracyError, EmptySetError,
                             InsufficientDataError)
from craftkit.implicit import jacobian_u_wrt_a
from craftkit.nmf import NmfParams
from craftkit import nnls
from craftkit.nnls import solve_nnls
from craftkit.pipeline import (ConceptBank, CropSpec, CropWindows, bilinear_resize,
                               build_concept_bank,
                               concept_attribution_map, concept_attribution_maps,
                               concept_percentile_threshold, extract_crops,
                               fidelity_curves, load_bank, recursive_decompose,
                               save_bank, save_provenance, select_class_set)
from craftkit.npyio import load_npy, save_npy
from craftkit.sobol import AffineHead, concept_importance
from craftkit.toy import (make_synthetic_dataset, pair_backbone, standard_backbone,
                          two_layer_backbone)
from oracles import bilinear_resize_taps

FIT_PARAMS = NmfParams(rank=2, outer_iters=80, objective_tol=1e-8)
# attribution tests flag their NNLS solves converged, and so differentiable,
# only at a KKT residual of this times max |A W|
ATTRIBUTION_KKT_TOL = 1e-11


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
        assert prov1.tobytes() == prov2.tobytes()

    @pytest.mark.parametrize("shape, fraction", [((3, 10, 10, 2), 0.4),
                                                 ((2, 8, 12, 1), 0.5),
                                                 ((2, 4, 12, 1), 0.9)])
    def test_random_windows_follow_sequential_draws(self, shape, fraction):
        # reference: crop by crop, one scalar draw for y and then one for x;
        # at fraction 0.9 the 4-pixel axis leaves a single position
        images = np.random.default_rng(2).normal(size=shape)
        spec = CropSpec(mode="random", crop_fraction=fraction, crops_per_image=7,
                        seed=4)
        _, prov = extract_crops(images, spec)
        n, h, w, _ = shape
        side_y, side_x = round(fraction * h), round(fraction * w)
        gen = Rng(4, stream=11).generator()
        expected = [(i, int(gen.integers(0, h - side_y + 1)),
                     int(gen.integers(0, w - side_x + 1)))
                    for i in range(n) for _ in range(7)]
        assert prov[["image", "y0", "x0"]].tolist() == expected
        assert prov.dtype.names == ("image", "y0", "x0", "h", "w")
        assert all(prov.dtype[name] == np.int64 for name in prov.dtype.names)
        assert (prov["h"] == side_y).all() and (prov["w"] == side_x).all()

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

    @pytest.mark.parametrize("shape, out", [
        ((40, 8, 8, 1), (16, 16)),
        ((5, 7, 9, 3), (16, 16)),
        ((4, 16, 12, 2), (5, 7)),
        ((3, 1, 1, 1), (4, 3)),
        ((2, 1, 6, 2), (3, 1)),
    ])
    def test_resize_is_byte_equal_to_four_tap_reference(self, shape, out):
        t = np.random.default_rng(4).normal(size=shape)
        assert bilinear_resize(t, *out).tobytes() == bilinear_resize_taps(t, *out).tobytes()

    @pytest.mark.parametrize("out, name", [((0, 16), "out_h"), ((16, 0), "out_w"),
                                           ((-3, 4), "out_h"), ((4, -1), "out_w")])
    def test_resize_rejects_sizes_below_one(self, out, name):
        with pytest.raises(ValueError, match=name):
            bilinear_resize(np.ones((2, 4, 4, 1)), *out)

    def test_resize_corners_align(self):
        rng = np.random.default_rng(3)
        t = rng.normal(size=(1, 4, 5, 1))
        out = bilinear_resize(t, 9, 11)
        for (yy, xx), (oy, ox) in [((0, 0), (0, 0)), ((0, -1), (0, -1)),
                                   ((-1, 0), (-1, 0)), ((-1, -1), (-1, -1))]:
            assert out[0, oy, ox, 0] == pytest.approx(t[0, yy, xx, 0])


def _cut_and_resize(images, provenance, out_h, out_w):
    """The crops of the provenance rows, cut one by one from the images and
    resized by the four-tap reference."""
    windows = np.stack([images[p["image"], p["y0"]:p["y0"] + p["h"],
                               p["x0"]:p["x0"] + p["w"]] for p in provenance])
    return bilinear_resize_taps(windows, out_h, out_w)


class TestStreamedCrops:
    """extract_crops resizes crop blocks of about 2^16 floats straight into
    its output, byte for byte as cutting and resizing every crop alone."""

    @pytest.mark.parametrize("shape, spec", [
        # 48 crops of 40 x 40: a block of 40 and a partial one of 8
        ((6, 16, 16, 1), dict(mode="grid", crops_per_image=8, resize_to=(40, 40))),
        ((6, 16, 16, 1), dict(mode="random", crops_per_image=13, seed=2)),
        ((4, 12, 10, 1), dict(mode="grid", crop_fraction=1.0)),
        ((4, 12, 10, 1), dict(mode="grid", crop_fraction=1.0, resize_to=(20, 15))),
        # 50 crops of 32 x 32 x 3: two blocks of 21 and a partial one of 8
        ((5, 16, 16, 3), dict(mode="random", crops_per_image=10, crop_fraction=0.4,
                              resize_to=(32, 32), seed=7)),
        ((3, 9, 14, 3), dict(mode="grid", crops_per_image=9, resize_to=(7, 5))),
    ], ids=["grid", "random", "fraction_one", "fraction_one_resized",
            "rgb_partial_last_block", "rgb_shrunk"])
    def test_byte_equal_to_cutting_and_resizing_each_crop(self, shape, spec):
        images = np.random.default_rng(6).normal(size=shape)
        spec = CropSpec(**spec)
        crops, prov = extract_crops(images, spec)
        out_h, out_w = spec.resize_to or shape[1:3]
        assert crops.shape == (len(prov), out_h, out_w, shape[3])
        assert crops.tobytes() == _cut_and_resize(images, prov, out_h, out_w).tobytes()

    def test_peak_memory_bounded_by_block_on_3200_crops(self):
        # the whole-stack gather and resize held six crop-sized temporaries:
        # about 25 MB besides the 6.6 MB of crops
        import tracemalloc
        model = two_layer_backbone()
        images = make_synthetic_dataset(model, 400, noise=0.02, seed=1).images
        spec = CropSpec(resize_to=model.input_shape[:2], seed=1)
        tracemalloc.start()
        try:
            crops, prov = extract_crops(images, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert crops.shape == (3200, 16, 16, 1)
        assert peak < crops.nbytes + 4 * 8 * _BLOCK_FLOATS, peak

    @pytest.mark.parametrize("size", [(0, 16), (16, -3), (16,), (16, 16, 1),
                                      (16.0, 16), 16, (True, 16), "ab"],
                             ids=["zero_height", "negative_width", "one_value",
                                  "three_values", "float", "scalar", "bool", "string"])
    def test_bad_resize_to_rejected(self, size):
        with pytest.raises(ValueError, match="resize_to"):
            CropSpec(resize_to=size)

    @pytest.mark.parametrize("size", [(16, 16), [4, 6], (np.int64(3), 1)])
    def test_positive_integer_sizes_accepted(self, size):
        crops, _ = extract_crops(np.ones((1, 8, 8, 1)), CropSpec(resize_to=size))
        assert crops.shape[1:3] == tuple(size)


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

    @pytest.mark.parametrize("mode", ["grid", "random"])
    def test_provenance_indexes_the_full_image_stack(self, mode):
        # about half the images are class 1, so each row's image must be
        # mapped from the class set back to the full stack
        model = standard_backbone()
        images = make_synthetic_dataset(model, 40, noise=0.02, seed=5).images
        predictions = model.predict(images)
        assert 0 < (predictions == 1).sum() < len(predictions)
        _, _, ctx = build_concept_bank(images, model, 1, 2, nmf_params=FIT_PARAMS,
                                       spec=CropSpec(mode=mode, crops_per_image=5, seed=3))
        prov = ctx["provenance"]
        np.testing.assert_array_equal(predictions[prov["image"]], 1)
        assert set(prov["image"].tolist()) == set(np.flatnonzero(predictions == 1).tolist())
        out_h, out_w = ctx["crops"].shape[1:3]
        recut = _cut_and_resize(images, prov, out_h, out_w)
        assert ctx["crops"].tobytes() == recut.tobytes()

    def test_rank_one_bank_on_single_template_data(self):
        model = pair_backbone()
        data = make_synthetic_dataset(model, 120, noise=0.02, seed=4,
                                      max_stamps=1, template_pool=(0,))
        bank, _, _ = build_concept_bank(data.images, model, target_class=1, r=1,
                                        nmf_params=NmfParams(rank=1, outer_iters=80,
                                                             objective_tol=1e-8))
        direction = model.template_directions()[0]
        assert float(direction @ bank.W[:, 0]) > 0.95


class TestStreamedConceptBank:
    """build_concept_bank with a crops path writes the crops block by block
    to an NPY file and returns what it returns without one."""

    @pytest.fixture(scope="class")
    def toy2_images(self):
        return make_synthetic_dataset(two_layer_backbone(), 80, noise=0.02, seed=3).images

    @pytest.mark.parametrize("spec", [
        CropSpec(resize_to=(16, 16), seed=3),
        CropSpec(mode="random", crops_per_image=13, resize_to=(16, 16), seed=3),
    ], ids=["grid", "random_13"])
    def test_same_bank_and_crops_as_the_stack(self, tmp_path, toy2_images, spec):
        model = two_layer_backbone()
        params = NmfParams(rank=2, objective_tol=1e-4)
        bank, U, ctx = build_concept_bank(toy2_images, model, 1, 2, spec, params, "final")
        path = tmp_path / "crops.npy"
        s_bank, s_U, s_ctx = build_concept_bank(toy2_images, model, 1, 2, spec, params,
                                                "final", crops_path=path)
        # two or more blocks of 256 crops, the last one partial
        assert len(U) > 256 and len(U) % 256
        assert "crops" not in s_ctx
        assert (s_bank.fit_objective, s_bank.outer_iters, s_bank.nnls_steps) == (
            bank.fit_objective, bank.outer_iters, bank.nnls_steps)
        for a, b in [(s_bank.W, bank.W), (s_U, U), (s_ctx["activations"], ctx["activations"]),
                     (s_ctx["provenance"], ctx["provenance"])]:
            assert a.tobytes() == b.tobytes()
        # the file holds the windows as cut, and resized they are the stack
        assert bilinear_resize(load_npy(path), 16, 16).tobytes() == ctx["crops"].tobytes()

    @pytest.mark.parametrize("spec", [
        CropSpec(resize_to=(16, 16), seed=3),
        CropSpec(mode="random", crop_fraction=0.4, crops_per_image=13, resize_to=(21, 9),
                 seed=3),
    ], ids=["grid", "random_13_to_21x9"])
    def test_crop_windows_read_back_the_stack(self, tmp_path, toy2_images, spec):
        stack, prov = extract_crops(toy2_images, spec)
        # resized to their own size, the crops are the windows as cut
        side = (int(prov["h"][0]), int(prov["w"][0]))
        save_npy(extract_crops(toy2_images, replace(spec, resize_to=side))[0],
                 tmp_path / "windows.npy")
        windows = CropWindows(tmp_path / "windows.npy", spec.resize_to)
        assert len(windows) == len(stack)
        # every row (blocks of 256 crops at 16 x 16) and a few out of order
        for rows in (np.arange(len(stack)), np.array([len(stack) - 1, 0, 5, 6, 7])):
            assert windows[rows].tobytes() == stack[rows].tobytes()

    def test_crop_windows_refine_as_the_stack(self, tmp_path, toy2_images):
        model = two_layer_backbone()
        spec, params = CropSpec(resize_to=(16, 16), seed=3), NmfParams(rank=2)
        bank, U, ctx = build_concept_bank(toy2_images, model, 1, 2, spec, params, "final")
        path = tmp_path / "crops.npy"
        build_concept_bank(toy2_images, model, 1, 2, spec, params, "final", crops_path=path)
        stacked = recursive_decompose(bank, U, 0, ctx["crops"], model, 1, params)
        read = recursive_decompose(bank, U, 0, CropWindows(path, (16, 16)), model, 1, params)
        for a, b in [(read[0].W, stacked[0].W), (read[1], stacked[1]), (read[2], stacked[2])]:
            assert a.tobytes() == b.tobytes()

    def test_crop_windows_of_another_rank_are_data_error(self, tmp_path):
        save_npy(np.ones((4, 3)), tmp_path / "flat.npy")
        with pytest.raises(DataError, match="4-D"):
            CropWindows(tmp_path / "flat.npy", (16, 16))

    def test_streamed_peak_is_below_the_crop_stack(self, tmp_path):
        # 3200 toy2 crops of 6.6 MB; only a block of them is held at a time
        import tracemalloc
        model = two_layer_backbone()
        images = make_synthetic_dataset(model, 400, noise=0.02, seed=1).images
        spec = CropSpec(resize_to=(16, 16), seed=1)
        tracemalloc.start()
        try:
            _, _, ctx = build_concept_bank(images, model, 1, 2, spec, layer="final",
                                           crops_path=tmp_path / "crops.npy")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stack_bytes = len(ctx["provenance"]) * 16 * 16 * 8
        assert stack_bytes > 6e6
        assert peak < stack_bytes, peak


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

    @pytest.mark.parametrize("values", [[], np.empty((0, 3))], ids=["list", "no_rows"])
    def test_no_values_rejected(self, values):
        with pytest.raises(ValueError, match="no values to threshold"):
            concept_percentile_threshold(values)

    def test_no_crops_is_insufficient_data(self):
        bank = ConceptBank(W=np.eye(2), layer_tag="final", fit_objective=0.0,
                           column_norms=np.ones(2))
        with pytest.raises(InsufficientDataError, match="no crops to refine"):
            recursive_decompose(bank, np.empty((0, 2)), 0, np.empty((0, 16, 16, 1)),
                                two_layer_backbone(), 1, NmfParams(rank=2))

    def test_all_equal_selects_nothing(self):
        model = two_layer_backbone()
        bank_W = np.eye(2)
        from craftkit.pipeline import ConceptBank
        bank = ConceptBank(W=bank_W, layer_tag="final", fit_objective=0.0,
                           column_norms=np.ones(2))
        U = np.ones((40, 2))
        crops = np.zeros((40, 16, 16, 1))
        with pytest.raises(InsufficientDataError):
            recursive_decompose(bank, U, 0, crops, model, 1, NmfParams(rank=2))


class TestRecursiveDecompose:
    def test_subconcepts_separate_mixed_directions(self):
        model = two_layer_backbone()
        data = make_synthetic_dataset(model, 240, noise=0.02, seed=0, max_stamps=1)
        bank, U, ctx = build_concept_bank(data.images, model, target_class=1,
                                          r=2, nmf_params=FIT_PARAMS)
        comp0_concept = int(np.argmax(bank.W[0]))
        sub_bank, U_sub, selected = recursive_decompose(
            bank, U, comp0_concept, ctx["crops"], model, 1, FIT_PARAMS)
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

    @pytest.mark.parametrize("layer", [1, "layer1", 2, None])
    def test_sub_bank_is_tagged_from_the_layer_it_encodes(self, layer):
        model = two_layer_backbone()
        data = make_synthetic_dataset(model, 60, noise=0.02, seed=0, max_stamps=1)
        bank, U, ctx = build_concept_bank(data.images, model, target_class=1,
                                          r=2, nmf_params=FIT_PARAMS)
        sub_bank, _, selected = recursive_decompose(
            bank, U, 0, ctx["crops"], model, layer, FIT_PARAMS)
        # the layer value itself, of its own type
        assert type(sub_bank.layer_tag) is type(layer) and sub_bank.layer_tag == layer
        width = model.features(ctx["crops"][:1], layer=layer).shape[1]
        assert sub_bank.W.shape == (width, 2)
        # the tag alone resolves the layer again, through features and VJP
        hm = concept_attribution_map(ctx["crops"][selected[0]], sub_bank, model, 0)
        assert hm.values.shape == (16, 16) and np.abs(hm.values).sum() > 0.0

    @pytest.mark.parametrize("rows", [100, 300], ids=["fewer", "more"])
    def test_coefficient_rows_must_match_the_crops(self, rows):
        # unchecked, fewer rows refine the wrong crops and more rows index
        # past the last crop
        model = CountingModel(two_layer_backbone())
        bank = ConceptBank(W=np.eye(2), layer_tag="final", fit_objective=0.0,
                           column_norms=np.ones(2))
        U = np.random.default_rng(0).uniform(size=(rows, 2))
        with pytest.raises(ValueError, match=f"U has {rows} rows but there are 200 crops"):
            recursive_decompose(bank, U, 0, np.zeros((200, 16, 16, 1)), model, 1,
                                NmfParams(rank=2))
        assert model.calls["features"] == 0


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

    def test_strictly_inactive_concept_gives_zero_map(self, fitted_pair, monkeypatch):
        monkeypatch.setattr(nnls, "_KKT_TOL", ATTRIBUTION_KKT_TOL)
        model, _, bank, _, _, concept_of = fitted_pair
        # the first three strictly inactive cases among the probe seeds, up
        # to a cap; about one probe in 130 is one
        checked = 0
        for seed in range(1000):
            probe = make_synthetic_dataset(model, 1, noise=0.0, seed=3000 + seed,
                                           max_stamps=1, template_pool=(0, 1))
            (t_idx, _, _), = probe.stamps[0]
            absent = 1 - int(concept_of[t_idx])
            acts = model.features(probe.images)
            sol = solve_nnls(acts, bank.W)
            if sol.U[0, absent] < 1e-7 and sol.dual_U[0, absent] > 1e-7:
                hm = concept_attribution_map(probe.images[0], bank, model, absent)
                assert not hm.values.any()
                checked += 1
                if checked == 3:
                    break
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

    def test_occlusion_matches_per_patch_solves(self, fitted_pair, monkeypatch):
        monkeypatch.setattr(nnls, "_KKT_TOL", ATTRIBUTION_KKT_TOL)
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
            return solve_nnls(model.features(image), bank.W).U[0, concept]

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

        hm = concept_attribution_map(x[0], bank, model, concept, method="occlusion")
        np.testing.assert_allclose(hm.values, expected, rtol=1e-12)

    def test_smoothgrad_matches_per_jitter_gradients(self, fitted_pair, monkeypatch):
        # reference: draw each jitter in turn from the same stream and
        # differentiate it on its own
        monkeypatch.setattr(nnls, "_KKT_TOL", ATTRIBUTION_KKT_TOL)
        model, _, bank, _, _, concept_of = fitted_pair
        probe = make_synthetic_dataset(model, 1, noise=0.05, seed=2050,
                                       max_stamps=1, template_pool=(0, 1))
        x = probe.images
        concept = int(concept_of[probe.stamps[0][0][0]])
        seed, n_noise = 5, 6
        sigma = 0.1 * float(x.max() - x.min())
        gen = Rng(seed, stream=17).generator()
        acc = np.zeros(x.shape[1:3])
        for _ in range(n_noise):
            jittered = x + sigma * gen.normal(size=x.shape)
            acts = model.features(jittered)
            sol = solve_nnls(acts, bank.W)
            cot = np.zeros((1, bank.r))
            cot[0, concept] = 1.0
            d_act = jacobian_u_wrt_a(sol, bank.W).vjp(cot)
            acc += np.abs(model.vjp_features(jittered, d_act)[0]).sum(axis=-1)
        expected = acc / n_noise

        hm = concept_attribution_map(x[0], bank, model, concept, method="smoothgrad",
                                     seed=seed, n_noise=n_noise)
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

    def test_full_chain_gradient_matches_pixel_finite_differences(self, fitted_pair,
                                                                  monkeypatch):
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
        monkeypatch.setattr(nnls, "_KKT_TOL", 1e-12)
        sol = solve_nnls(acts, bank.W)
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
    bank = ConceptBank(W=W, layer_tag="final", fit_objective=0.0,
                       column_norms=np.ones(3))
    probes = make_synthetic_dataset(model, 4, noise=0.05, seed=11).images
    return model, bank, probes


class CountingModel:
    """Delegates to a model and counts the calls of its features and
    features_vjp, and every read of any other attribute (vjp_features
    among them)."""

    def __init__(self, model):
        self.model = model
        self.calls = Counter()

    def __getattr__(self, name):
        self.calls[name] += 1
        return getattr(self.model, name)

    def features(self, x, layer=None):
        self.calls["features"] += 1
        return self.model.features(x, layer=layer)

    def features_vjp(self, x, layer=None):
        self.calls["features_vjp"] += 1
        out, pullback = self.model.features_vjp(x, layer=layer)

        def counted(cotangent):
            self.calls["pullback"] += 1
            return pullback(cotangent)

        return out, counted


class IntLayerModel:
    """two_layer_backbone behind the README's model contract alone: features,
    features_vjp and predict, no input_shape and no head. Its layers are
    None (the final one) and the int 1; any other value is rejected."""

    def __init__(self):
        self.toy = two_layer_backbone()

    @staticmethod
    def _layer(layer):
        if layer is not None and type(layer) is not int:
            raise ValueError(f"unknown layer {layer!r}")
        return layer

    def features(self, x, layer=None):
        return self.toy.features(x, layer=self._layer(layer))

    def features_vjp(self, x, layer=None):
        return self.toy.features_vjp(x, layer=self._layer(layer))

    def predict(self, x):
        return self.toy.predict(x)


def test_a_model_on_the_readme_contract_runs_every_stage(tmp_path):
    # each bank hands the model back the layer value it was fit at, so a
    # model that names its layers None and 1 needs no other spelling
    model = IntLayerModel()
    head = model.toy.affine_head
    data = make_synthetic_dataset(model.toy, 240, noise=0.02, seed=0, max_stamps=1)
    bank, U, ctx = build_concept_bank(data.images, model, target_class=1, r=2,
                                      nmf_params=FIT_PARAMS)
    importance = concept_importance(U, bank.W, head, 256).total_indices
    for method in ("gradient", "smoothgrad", "occlusion"):
        hms = concept_attribution_maps(ctx["crops"][0], bank, model, range(bank.r),
                                       method=method)
        assert [hm.values.shape for hm in hms] == [(16, 16)] * bank.r
    assert bank.layer_tag is None
    sub_bank, _, selected = recursive_decompose(
        bank, U, int(np.argmax(bank.W[0])), ctx["crops"], model, 1, FIT_PARAMS)
    save_bank(sub_bank, tmp_path / "sub")
    loaded = load_bank(tmp_path / "sub")
    assert type(loaded.layer_tag) is int and loaded.layer_tag == 1
    for method in ("gradient", "smoothgrad", "occlusion"):
        hms = concept_attribution_maps(ctx["crops"][selected[0]], loaded, model,
                                       range(loaded.r), method=method)
        assert all(np.abs(hm.values).sum() > 0.0 for hm in hms)
    curve = fidelity_curves(U, bank.W, head, importance)
    assert curve.ys[0] > curve.ys[-1]


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
        # one model pass and nothing else read from the model: no
        # vjp_features, and no features call before a gradient's pass,
        # whose stack is not repeated per concept but pulled back once each
        expected = (Counter(features=1) if method == "occlusion"
                    else Counter(features_vjp=1, pullback=bank.r))
        assert counting.calls == expected
        assert len(solves) == 1

    @pytest.mark.parametrize("h, w", [(36, 28), (37, 29)])
    def test_occlusion_matches_per_patch_loop_on_strided_rectangle(self, three_concepts,
                                                                   monkeypatch, h, w):
        # a 36 x 28 image gives 4-pixel patches at stride 2, so each pixel is
        # covered by up to four overlapping patches; at 37 x 29 no patch
        # covers the last row and column, whose maps stay zero. Reference:
        # one single-row solve per patch, accumulated corner by corner.
        # Single-row and batched solves agree to rounding in u, and a drop
        # is a difference of nearly equal coefficients, so the tolerance is
        # absolute, on the scale of u
        monkeypatch.setattr(nnls, "_KKT_TOL", ATTRIBUTION_KKT_TOL)
        _, bank, _ = three_concepts
        model = standard_backbone(input_shape=(h, w, 1))
        x = make_synthetic_dataset(model, 1, noise=0.05, seed=12).images
        patch, stride = 4, 2

        def coefficients(image):
            return solve_nnls(model.features(image), bank.W).U[0]

        u0 = coefficients(x)
        heat = np.zeros((bank.r, h, w))
        count = np.zeros((h, w))
        for y0 in range(0, h - patch + 1, stride):
            for x0 in range(0, w - patch + 1, stride):
                occluded = x.copy()
                occluded[0, y0:y0 + patch, x0:x0 + patch, :] = 0.0
                drop = u0 - coefficients(occluded)
                heat[:, y0:y0 + patch, x0:x0 + patch] += drop[:, None, None]
                count[y0:y0 + patch, x0:x0 + patch] += 1.0
        expected = heat / np.maximum(count, 1.0)

        hms = concept_attribution_maps(x[0], bank, model, range(bank.r),
                                       method="occlusion")
        for c, hm in enumerate(hms):
            np.testing.assert_allclose(hm.values, expected[c], rtol=0,
                                       atol=1e-14 * np.abs(u0).max())
            np.testing.assert_array_equal(hm.values[count == 0], 0.0)

    @pytest.mark.parametrize("input_shape", [(16, 16, 1), (36, 28, 1), (16, 16, 3)])
    def test_occlusion_equals_the_per_patch_loop_stack(self, three_concepts, input_shape):
        # the maps of the stack built by zeroing each patch of a copy in
        # turn, the same features call and NNLS solve, byte for byte
        _, bank, _ = three_concepts
        base = standard_backbone(input_shape=input_shape[:2] + (1,))
        model = replace(base, templates=np.repeat(base.templates, input_shape[2], axis=-1),
                        input_shape=input_shape)
        x = make_synthetic_dataset(model, 1, noise=0.05, seed=12).images
        h, w = input_shape[:2]
        patch = max(1, round(min(h, w) / 8))
        stride = max(1, patch // 2)
        corners = list(itertools.product(range(0, h - patch + 1, stride),
                                         range(0, w - patch + 1, stride)))
        reference = np.repeat(x, len(corners) + 1, axis=0)
        for k, (y0, x0) in enumerate(corners, start=1):
            reference[k, y0:y0 + patch, x0:x0 + patch, :] = 0.0

        class ReferenceStack:
            """The model, fed the loop's stack block by block after checking
            that each block holds the next rows of it."""

            row = 0

            def features(self, block, layer=None):
                rows = reference[self.row:self.row + len(block)]
                assert block.tobytes() == rows.tobytes()
                self.row += len(block)
                return model.features(rows, layer=layer)

        maps = concept_attribution_maps(x[0], bank, model, range(bank.r), method="occlusion")
        fed = ReferenceStack()
        expected = concept_attribution_maps(x[0], bank, fed, range(bank.r),
                                            method="occlusion")
        assert fed.row == len(reference)
        for hm, ref in zip(maps, expected):
            assert hm.values.tobytes() == ref.values.tobytes()

    @pytest.mark.parametrize("concepts, message", [
        ([], "no concepts requested"),
        ([0, 3], "concept index 3 out of range"),
        ([-1], "concept index -1 out of range"),
    ])
    def test_rejects_bad_concept_lists(self, three_concepts, concepts, message):
        model, bank, probes = three_concepts
        with pytest.raises(ValueError, match=message):
            concept_attribution_maps(probes[0], bank, model, concepts)


@pytest.fixture(scope="module")
def toy2_banks():
    """two_layer_backbone with a rank-2 bank at its final layer and one at
    layer 1, and five noisy images."""
    model = two_layer_backbone()
    data = make_synthetic_dataset(model, 200, noise=0.02, seed=7)
    banks = {layer: build_concept_bank(data.images, model, 1, 2, layer=layer,
                                       nmf_params=NmfParams(rank=2))[0]
             for layer in ("final", "layer1")}
    images = make_synthetic_dataset(model, 5, noise=0.05, seed=17).images
    return model, banks, images


class TestAttributionMapsOfAStack:
    """A (b, H, W, C) stack gives each image the maps of its own call."""

    @pytest.mark.parametrize("block", [None, 256, 3 * 256])
    @pytest.mark.parametrize("method", ["gradient", "smoothgrad", "occlusion"])
    @pytest.mark.parametrize("layer", ["final", "layer1"])
    def test_equals_per_image_calls(self, toy2_banks, monkeypatch, layer, method, block):
        # a block of 256 floats holds one 16 x 16 row, so every occlusion
        # block holds one patch; 3 x 256 gives gradient groups of 3 and 2
        # images and occlusion blocks of 3 rows that straddle images, the
        # last one partial
        import craftkit.pipeline as pipeline_module
        model, banks, images = toy2_banks
        bank, concepts = banks[layer], [1, 0, 1]
        expected = [concept_attribution_maps(image, bank, model, concepts, method=method,
                                             seed=3, n_noise=2) for image in images]
        if block is not None:
            monkeypatch.setattr(pipeline_module, "_BLOCK_FLOATS", block)
        maps = concept_attribution_maps(images, bank, model, concepts, method=method,
                                        seed=3, n_noise=2)
        assert len(maps) == len(images)
        for got, want in zip(maps, expected):
            assert [hm.concept_index for hm in got] == concepts
            assert [hm.method for hm in got] == [method] * len(concepts)
            for hm, ref in zip(got, want):
                assert hm.values.tobytes() == ref.values.tobytes()

    def test_a_stack_of_one_returns_one_list(self, toy2_banks):
        model, banks, images = toy2_banks
        single = concept_attribution_maps(images[2], banks["final"], model, [0, 1])
        (maps,) = concept_attribution_maps(images[2:3], banks["final"], model, [0, 1])
        assert [hm.values.tobytes() for hm in maps] == [hm.values.tobytes() for hm in single]

    @pytest.mark.parametrize("method", ["gradient", "smoothgrad"])
    def test_a_degenerate_image_raises_its_own_error_with_its_position(self, toy2_banks,
                                                                       method):
        # an all-zero image has zero features, so every coefficient and
        # every multiplier is zero: no coordinate is strictly complementary
        model, banks, images = toy2_banks
        stack = images[:3].copy()
        stack[1] = 0.0
        with pytest.raises(DegeneracyError) as own:
            concept_attribution_maps(stack[1], banks["final"], model, [0], method=method)
        with pytest.raises(DegeneracyError) as raised:
            concept_attribution_maps(stack, banks["final"], model, [0], method=method)
        assert str(raised.value) == f"image 1 of the stack: {own.value}"
        assert raised.value.coordinates == own.value.coordinates

    def test_an_empty_stack_is_rejected(self, toy2_banks):
        model, banks, images = toy2_banks
        with pytest.raises(ValueError, match="no images to explain"):
            concept_attribution_maps(images[:0], banks["final"], model, [0])


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_importance_rejected(self, bad):
        # argsort would rank a NaN last and draw a curve from it
        head = lambda acts: acts.sum(axis=1)
        with pytest.raises(ValueError, match="importance must be finite"):
            fidelity_curves(np.ones((4, 3)), np.eye(3), head, [bad, 1.0, 0.5])

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
        assert bank.nnls_steps >= 2 * bank.outer_iters
        assert (loaded.converged, loaded.kkt_residual, loaded.outer_iters,
                loaded.nnls_steps) == (bank.converged, bank.kkt_residual,
                                       bank.outer_iters, bank.nnls_steps)

    def test_numpy_integer_layer_tag_saves_as_int(self, tmp_path):
        # the loaded tag is the int 1, which IntLayerModel alone accepts
        toy = two_layer_backbone()
        images = make_synthetic_dataset(toy, 80, noise=0.02, seed=5).images
        bank, _, _ = build_concept_bank(images, toy, 1, 2, nmf_params=NmfParams(rank=2),
                                        layer=np.int64(1))
        save_bank(bank, tmp_path / "bank")
        loaded = load_bank(tmp_path / "bank")
        assert type(loaded.layer_tag) is int and loaded.layer_tag == 1
        np.testing.assert_array_equal(loaded.W, bank.W)
        hms = concept_attribution_maps(images[0], loaded, IntLayerModel(), [0, 1])
        assert [hm.concept_index for hm in hms] == [0, 1]

    @pytest.mark.parametrize("tag", [True, np.bool_(False), 1.0, ("layer1",)])
    def test_unloadable_layer_tag_rejected_before_writing(self, tmp_path, tag):
        bank = ConceptBank(W=np.eye(2), layer_tag=tag, fit_objective=0.0,
                           column_norms=np.ones(2))
        with pytest.raises(ValueError, match="layer_tag"):
            save_bank(bank, tmp_path / "bank")
        assert not (tmp_path / "bank").exists()

    def test_hand_built_bank_saves_without_diagnostics(self, tmp_path):
        bank = ConceptBank(W=np.eye(2), layer_tag="final", fit_objective=0.0,
                           column_norms=np.ones(2))
        save_bank(bank, tmp_path / "bank")
        meta = json.loads((tmp_path / "bank" / "meta.json").read_text())
        assert not {"converged", "kkt_residual", "outer_iters", "nnls_steps"} & set(meta)
        assert load_bank(tmp_path / "bank").converged is None


    def test_round_trip_keeps_the_bytes(self, tmp_path, fitted_pair):
        _, _, bank, _, _, _ = fitted_pair
        save_bank(bank, tmp_path / "first")
        save_bank(load_bank(tmp_path / "first"), tmp_path / "second")
        for name in ("W.npy", "meta.json"):
            assert ((tmp_path / "first" / name).read_bytes()
                    == (tmp_path / "second" / name).read_bytes())


METHODS = ("gradient", "smoothgrad", "occlusion")


class TestBankConstants:
    """A bank derives its NNLS constants once, and they cannot go stale."""

    @pytest.fixture(scope="class")
    def probes(self, fitted_pair):
        model = fitted_pair[0]
        return make_synthetic_dataset(model, 2, noise=0.02, seed=7001, max_stamps=1,
                                      template_pool=(0, 1)).images

    def test_one_eigvalsh_over_the_six_maps_of_a_probe(self, fitted_pair, probes,
                                                       monkeypatch):
        model, _, fitted, _, _, _ = fitted_pair
        bank = replace(fitted)  # a fresh bank, with no constants yet
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a, *args: calls.append(1) or eigvalsh(a, *args))
        for concept in range(bank.r):
            for method in METHODS:
                concept_attribution_map(probes[0], bank, model, concept, method=method,
                                        n_noise=4)
        assert len(calls) == 1

    def test_maps_equal_those_of_a_fresh_bank_per_map(self, fitted_pair, probes):
        model, _, bank, _, _, _ = fitted_pair
        for image in probes:
            for method in METHODS:
                for concept in range(bank.r):
                    shared = concept_attribution_map(image, bank, model, concept,
                                                     method=method, seed=3, n_noise=4)
                    fresh = concept_attribution_map(image, replace(bank), model, concept,
                                                    method=method, seed=3, n_noise=4)
                    assert shared.values.tobytes() == fresh.values.tobytes()

    def test_W_is_a_read_only_copy(self):
        W = np.array([[1.0, 0.0], [0.0, 1.0]])
        bank = ConceptBank(W=W, layer_tag="final", fit_objective=0.0,
                           column_norms=np.ones(2))
        gram = bank.gram
        with pytest.raises(ValueError, match="read-only"):
            bank.W[0, 1] = 1.0
        W[0, 1] = 1.0  # the caller's array is not the bank's
        assert bank.W[0, 1] == 0.0
        assert bank.gram is gram and gram.G.tobytes() == np.eye(2).tobytes()


def _provenance(shape, images=None, **spec):
    rows = extract_crops(np.zeros(shape), CropSpec(**spec))[1]
    if images is not None:
        rows["image"] = images
    return rows


class TestSaveProvenance:
    @pytest.mark.parametrize("rows", [
        _provenance((3, 16, 16, 1)),
        _provenance((3, 16, 16, 1), mode="random", seed=4),
        _provenance((2, 8, 12, 1), crops_per_image=4),
        _provenance((1, 4, 4, 1), crop_fraction=1.0),
        _provenance((3, 16, 16, 1), images=(10_000, 123_456, 9_876_543), crops_per_image=1),
        _provenance((3, 16, 16, 1))[:0],
    ], ids=["grid", "random", "rectangular", "one_crop", "wide_image_indices", "empty"])
    def test_bytes_are_those_of_sorted_indented_json(self, tmp_path, rows):
        # the oracle: one dict of Python ints per row, through json itself
        dicts = [{name: int(row[name]) for name in rows.dtype.names} for row in rows]
        path = tmp_path / "provenance.json"
        save_provenance(rows, path)
        assert path.read_bytes() == (json.dumps(dicts, indent=2, sort_keys=True)
                                     + "\n").encode()
        assert json.loads(path.read_text()) == dicts
