"""Toy backbone: exact correlations, VJPs, and dataset construction."""

import json
from dataclasses import replace

import numpy as np
import pytest

from craftkit.core import _BLOCK_FLOATS, Rng
from craftkit.errors import DataError
from craftkit.sobol import AffineHead
from craftkit.toy import (ToyBackbone, _pool, load_backbone, make_synthetic_dataset,
                          pair_backbone, save_backbone, standard_backbone,
                          two_layer_backbone)
from oracles import (correlate_all_bands, correlate_windows, reference_synthetic_dataset,
                     scatter_all_bands)

BUILT_IN = {
    "standard": standard_backbone,
    "standard_k1": lambda: standard_backbone(k=1),
    "pair": pair_backbone,
    "two_layer": two_layer_backbone,
}


def rgb_backbone(mixing=True):
    """A 36x28x3 model with 3x4 templates: rectangular, multi-channel."""
    rng = np.random.default_rng(11)
    return ToyBackbone(templates=rng.normal(size=(3, 3, 4, 3)),
                       head_weights=rng.normal(size=2 if mixing else 3),
                       head_bias=0.1, input_shape=(36, 28, 3),
                       mixing=rng.uniform(size=(3, 2)) if mixing else None)


def stamp_image(model, k, y0=5, x0=6):
    h, w, c = model.input_shape
    th, tw = model.templates.shape[1:3]
    img = np.zeros((1, h, w, c))
    img[0, y0:y0 + th, x0:x0 + tw, :] = model.templates[k]
    return img


class TestConstruction:
    def test_stencils_orthonormal(self):
        model = standard_backbone()
        flat = model.templates.reshape(4, -1)
        np.testing.assert_allclose(flat @ flat.T, np.eye(4), atol=1e-12)

    def test_feature_nonnegativity_and_homogeneity(self):
        model = standard_backbone()
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 16, 16, 1))
        a = model.features(x)
        assert a.min() >= 0.0
        np.testing.assert_allclose(model.features(2.5 * x), 2.5 * a, rtol=1e-12)

    def test_zero_input_zero_features(self):
        model = standard_backbone()
        np.testing.assert_array_equal(model.features(np.zeros((1, 16, 16, 1))), 0.0)

    def test_two_layer_homogeneity(self):
        model = two_layer_backbone()
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 16, 16, 1))
        np.testing.assert_allclose(model.features(1.8 * x),
                                   1.8 * model.features(x), rtol=1e-12)

    def test_own_template_dominates(self):
        model = standard_backbone()
        for k in range(4):
            a = model.features(stamp_image(model, k))[0]
            assert np.argmax(a) == k
            others = np.delete(a, k)
            assert a[k] > 1.25 * others.max()

    def test_pair_model_dominance_is_strong(self):
        model = standard_backbone(k=2)
        for k in range(2):
            a = model.features(stamp_image(model, k))[0]
            assert a[k] > 2.5 * np.delete(a, k).max()

    def test_direction_separation(self):
        # the edge pair used by the end-to-end constructions is well
        # separated; the full quadruple is looser but still distinct
        pair_dirs = standard_backbone(k=2).template_directions()
        assert abs(float(pair_dirs[0] @ pair_dirs[1])) < 0.5
        dirs = standard_backbone().template_directions()
        cosines = dirs @ dirs.T - np.eye(4)
        assert np.abs(cosines).max() < 0.95


class TestHead:
    def test_affine_map(self):
        model = standard_backbone()
        zero = np.zeros((1, 4))
        assert model.head(zero)[0] == pytest.approx(model.head_bias)
        e1 = np.eye(4)[:1]
        assert model.head(e1)[0] == pytest.approx(
            model.head_weights[0] + model.head_bias)

    def test_linearity_probe(self):
        model = standard_backbone()
        rng = np.random.default_rng(1)
        a1, a2 = rng.uniform(size=(2, 1, 4))
        lhs = model.head(a1 + a2)[0]
        rhs = model.head(a1)[0] + model.head(a2)[0] - model.head_bias
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("build", [standard_backbone, pair_backbone,
                                       two_layer_backbone])
    def test_head_is_its_affine_head(self, build):
        # one formula: head, affine_head and predict agree bit for bit with
        # the affine readout written out
        model = build()
        assert isinstance(model.affine_head, AffineHead)
        images = make_synthetic_dataset(model, 16, noise=0.02, seed=5).images
        a = model.features(images)
        expected = a @ model.head_weights + model.head_bias
        np.testing.assert_array_equal(model.head(a), expected)
        np.testing.assert_array_equal(model.affine_head(a), expected)
        np.testing.assert_array_equal(model.predict(images),
                                      (expected > 0.0).astype(np.int64))
        with pytest.raises(ValueError, match="activations must be"):
            model.head(np.ones((2, model.n_features + 1)))

    def test_prediction_tracks_favored_template(self):
        model = standard_backbone()
        data = make_synthetic_dataset(model, 64, noise=0.02, seed=3)
        preds = model.predict(data.images)
        assert np.mean(preds == data.labels) > 0.9


class TestVjp:
    def test_zero_cotangent(self):
        model = standard_backbone()
        x = stamp_image(model, 0)
        np.testing.assert_array_equal(
            model.vjp_features(x, np.zeros((1, 4))), 0.0)

    def test_matches_finite_differences(self):
        model = standard_backbone()
        rng = np.random.default_rng(2)
        # mild offset keeps correlations away from ReLU kinks
        x = rng.uniform(0.1, 1.0, size=(1, 16, 16, 1))
        cot = rng.normal(size=(1, 4))
        dx = model.vjp_features(x, cot)
        step = 1e-6
        for _ in range(20):
            i, j = rng.integers(0, 16, size=2)
            xp, xm = x.copy(), x.copy()
            xp[0, i, j, 0] += step
            xm[0, i, j, 0] -= step
            fd = (np.sum(model.features(xp) * cot) -
                  np.sum(model.features(xm) * cot)) / (2 * step)
            assert dx[0, i, j, 0] == pytest.approx(fd, rel=1e-5, abs=1e-10)

    def test_two_layer_vjp_matches_finite_differences(self):
        model = two_layer_backbone()
        rng = np.random.default_rng(3)
        x = rng.uniform(0.1, 1.0, size=(1, 16, 16, 1))
        cot = rng.normal(size=(1, 2))
        dx = model.vjp_features(x, cot)
        step = 1e-6
        for _ in range(12):
            i, j = rng.integers(0, 16, size=2)
            xp, xm = x.copy(), x.copy()
            xp[0, i, j, 0] += step
            xm[0, i, j, 0] -= step
            fd = (np.sum(model.features(xp) * cot) -
                  np.sum(model.features(xm) * cot)) / (2 * step)
            assert dx[0, i, j, 0] == pytest.approx(fd, rel=1e-5, abs=1e-10)

    def test_constant_image_has_zero_gradient(self):
        # constant input correlates to exactly zero with mean-free stencils,
        # and the ReLU subgradient at zero is zero by convention
        model = standard_backbone(k=1)
        x = np.full((1, 16, 16, 1), 10.0)
        dx = model.vjp_features(x, np.ones((1, 1)))
        np.testing.assert_array_equal(dx, 0.0)

    def test_gradient_is_sum_of_stencils_over_open_gates(self):
        # a single clean stamp opens gates only where the autocorrelation is
        # positive; the gradient is the stencil scattered from those gates,
        # each weighted by cotangent / (H' * W')
        model = standard_backbone(k=1)
        x = stamp_image(model, 0, y0=6, x0=6)
        maps = model.feature_maps(x)[0, :, :, 0]
        cot = 2.0
        expected = np.zeros((16, 16, 1))
        hp = wp = 12
        for (h, w) in np.argwhere(maps > 0):
            expected[h:h + 5, w:w + 5, :] += cot / (hp * wp) * model.templates[0]
        dx = model.vjp_features(x, np.array([[cot]]))
        np.testing.assert_allclose(dx[0], expected, atol=1e-14)


def assert_close_relative(actual, reference, rel=1e-13):
    """Equal within rel times the reference's largest magnitude."""
    scale = np.abs(reference).max(initial=0.0) or 1.0
    assert actual.shape == reference.shape
    np.testing.assert_allclose(actual, reference, rtol=0, atol=rel * scale)


class TestBandedCorrelation:
    """The banded-GEMM correlation against the one-einsum reference."""

    MODELS = {**BUILT_IN, "rgb": rgb_backbone, "rgb_one_layer": lambda: rgb_backbone(False)}

    @pytest.mark.parametrize("batch", [0, 1, 7])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_matches_einsum_reference(self, name, batch):
        model = self.MODELS[name]()
        x = np.random.default_rng(batch).normal(size=(batch,) + model.input_shape)
        ref = correlate_windows(x, model.templates)
        assert_close_relative(model._correlate(x), ref)
        assert_close_relative(model.feature_maps(x), np.maximum(ref, 0.0))
        z1 = np.maximum(ref, 0.0).mean(axis=(1, 2))
        assert_close_relative(model.features(x, layer=1), z1)
        if model.mixing is not None:
            assert_close_relative(model.features(x, layer=2),
                                  np.maximum(z1 @ model.mixing, 0.0))

    @pytest.mark.parametrize("name", sorted(BUILT_IN))
    def test_open_gates_match_reference_at_every_stamp_position(self, name):
        # attribution maps scatter the stencils from the open gates z > 0, so
        # a rounding residue that opened or closed one would move a map
        model = BUILT_IN[name]()
        h, w, _ = model.input_shape
        th, tw = model.templates.shape[1:3]
        probes = np.concatenate([stamp_image(model, k, y0, x0)
                                 for k in range(model.n_templates)
                                 for y0 in range(h - th + 1)
                                 for x0 in range(w - tw + 1)])
        np.testing.assert_array_equal(model._correlate(probes) > 0.0,
                                      correlate_windows(probes, model.templates) > 0.0)

    @pytest.mark.parametrize("mixing", [False, True])
    def test_vjp_matches_finite_differences_rgb(self, mixing):
        model = rgb_backbone(mixing)
        rng = np.random.default_rng(5)
        x = rng.uniform(0.1, 1.0, size=(2,) + model.input_shape)
        cot = rng.normal(size=(2, model.n_features))
        dx = model.vjp_features(x, cot)
        assert dx.shape == x.shape
        step = 1e-6
        for _ in range(12):
            b = int(rng.integers(0, 2))
            i, j, c = (int(rng.integers(0, n)) for n in model.input_shape)
            xp, xm = x.copy(), x.copy()
            xp[b, i, j, c] += step
            xm[b, i, j, c] -= step
            fd = (np.sum(model.features(xp) * cot) -
                  np.sum(model.features(xm) * cot)) / (2 * step)
            assert dx[b, i, j, c] == pytest.approx(fd, rel=1e-5, abs=1e-10)

    def test_randomized_model_builds_its_own_bands(self):
        model = standard_backbone()
        x = np.random.default_rng(3).normal(size=(2, 16, 16, 1))
        model.features(x)  # builds and keeps the parent's bands
        rand = model.randomize_weights(7)
        assert_close_relative(rand._correlate(x), correlate_windows(x, rand.templates))


def block_size(model):
    """Images per block of features: 2^16 // (2 H' W' k)."""
    h, w, _ = model.input_shape
    k, th, tw, _ = model.templates.shape
    return _BLOCK_FLOATS // (2 * (h - th + 1) * (w - tw + 1) * k)


def mean_pool(model, x):
    """Layer-1 features as the two-axis mean of the rectified maps."""
    return np.maximum(model._correlate(x), 0).mean(axis=(1, 2))


class TestBlockedFeatures:
    """features pools per image block, bit for bit as the whole stack would."""

    @pytest.mark.parametrize("size", ["0", "1", "block-1", "block", "block+1",
                                      "3block+7"])
    @pytest.mark.parametrize("make", [pair_backbone, two_layer_backbone,
                                      lambda: standard_backbone(k=1), rgb_backbone],
                             ids=["pair", "two_layer", "standard_k1", "rgb"])
    def test_equals_pooling_the_whole_stack(self, make, size):
        # k = 1 pools along the contiguous positions, k >= 2 positions-major
        model = make()
        block = block_size(model)
        batch = {"0": 0, "1": 1, "block-1": block - 1, "block": block,
                 "block+1": block + 1, "3block+7": 3 * block + 7}[size]
        x = np.random.default_rng(batch).uniform(size=(batch,) + model.input_shape)
        z1 = mean_pool(model, x)
        assert model.features(x, layer=1).tobytes() == z1.tobytes()
        final = z1 if model.mixing is None else np.maximum(z1 @ model.mixing, 0.0)
        out = model.features(x)
        assert out.shape == (batch, model.n_features)
        assert out.tobytes() == final.tobytes()

    @pytest.mark.parametrize("batch", [1, 7])
    @pytest.mark.parametrize("make", [two_layer_backbone, rgb_backbone],
                             ids=["two_layer", "rgb"])
    def test_layer2_vjp_gates_on_the_mean_pool(self, make, batch):
        # the pooled z1 only sets the layer-2 gate, which turns a layer-2
        # cotangent into the layer-1 one below
        model = make()
        rng = np.random.default_rng(batch)
        x = rng.uniform(size=(batch,) + model.input_shape)
        cot = rng.normal(size=(batch, model.n_features))
        gate = (mean_pool(model, x) @ model.mixing) > 0.0
        expected = model.vjp_features(x, (cot * gate) @ model.mixing.T, layer=1)
        assert model.vjp_features(x, cot, layer=2).tobytes() == expected.tobytes()

    def test_peak_memory_bounded_by_block_on_3200_crops(self):
        # pooling the whole stack held its (3200, 12, 12, 4) maps, their
        # BLAS temporaries and a ReLU copy: about 29 MB
        import tracemalloc
        model = two_layer_backbone()
        x = np.random.default_rng(0).uniform(size=(3200,) + model.input_shape)
        # a transposed stack: a strided view that the non-finite check must
        # not copy whole (vdot would copy it twice, about 13 MB)
        strided = np.random.default_rng(1).uniform(size=x.shape).transpose(0, 2, 1, 3)
        assert not strided.flags.c_contiguous
        model.features(x[:1])  # builds the cached bands outside the trace
        for stack in (x, strided):
            for layer in (1, 2):
                tracemalloc.start()
                try:
                    out = model.features(stack, layer=layer)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 3200 * 4 * 8 + 4 * 8 * _BLOCK_FLOATS, (layer, peak)
                assert out.shape == (3200, 4 if layer == 1 else 2)



class TestPool:
    """The pool is the two-axis mean of the rectified maps, byte for byte."""

    @pytest.mark.parametrize("fill", ["signed", "signed_zeros", "negative"])
    @pytest.mark.parametrize("b", [0, 1, 7])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_equals_the_mean_of_the_rectified_maps(self, k, b, fill):
        rng = np.random.default_rng(10 * k + b)
        z = rng.normal(size=(b, 12, 11, k))
        if fill == "signed_zeros":
            # +0.0 and -0.0 among the values, and one map of zeros alone
            z[rng.uniform(size=z.shape) < 0.4] = 0.0
            z = np.where(rng.uniform(size=z.shape) < 0.5, -np.abs(z), z)
            z[:1] = np.copysign(0.0, rng.normal(size=z[:1].shape))
        elif fill == "negative":
            z = -np.abs(z) - 0.5
        before = z.copy()
        pooled = _pool(z)
        assert pooled.shape == (b, k)
        assert pooled.tobytes() == np.maximum(z, 0).mean(axis=(1, 2)).tobytes()
        assert z.tobytes() == before.tobytes()


def rows_0_and_2_backbone():
    """two_layer_backbone's head and mixing on noise templates that are
    nonzero on frame rows 0 and 2 only, so the live rows are not contiguous."""
    model = two_layer_backbone().randomize_weights(5)
    templates = model.templates.copy()
    templates[:, [1, 3, 4]] = 0.0
    return replace(model, templates=templates)


def every_row_features(model, x, layer):
    """features with every template row multiplied, zero rows included."""
    z1 = np.maximum(correlate_all_bands(x, model.templates), 0.0).mean(axis=(1, 2))
    return z1 if layer == 1 else np.maximum(z1 @ model.mixing, 0.0)


def every_row_vjp(model, x, cot, layer):
    """vjp_features with every template row multiplied, zero rows included."""
    z = correlate_all_bands(x, model.templates)
    b, hp, wp, k = z.shape
    if layer == 2:
        gate = (np.maximum(z, 0.0).mean(axis=(1, 2)) @ model.mixing) > 0.0
        cot = (cot * gate) @ model.mixing.T
    gates = (z > 0.0).astype(np.float64)
    weights = (gates * (cot[:, None, None, :] / (hp * wp))).reshape(b, hp, wp * k)
    return scatter_all_bands(weights, model.templates, x.shape)


class TestLiveBands:
    """Only the template rows some template is nonzero on are multiplied,
    bit for bit as the products over every row."""

    MODELS = {**BUILT_IN, "rgb": rgb_backbone, "rgb_one_layer": lambda: rgb_backbone(False),
              "randomized": lambda: standard_backbone().randomize_weights(3),
              "rows_0_and_2": rows_0_and_2_backbone,
              "zero": lambda: replace(two_layer_backbone(), templates=np.zeros((4, 5, 5, 1)))}

    @pytest.mark.parametrize("name, rows", [
        ("pair", [1, 2]), ("two_layer", [1, 2, 3]), ("standard_k1", [1, 2]),
        ("rgb", [0, 1, 2]), ("randomized", [0, 1, 2, 3, 4]), ("rows_0_and_2", [0, 2]),
        ("zero", []),
    ])
    def test_live_rows(self, name, rows):
        assert [i for i, _ in self.MODELS[name]()._live_bands] == rows

    @pytest.mark.parametrize("size", ["0", "1", "block-1", "block", "block+1"])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_equals_every_row_reference(self, name, size):
        model = self.MODELS[name]()
        block = block_size(model)
        batch = {"0": 0, "1": 1, "block-1": block - 1, "block": block,
                 "block+1": block + 1}[size]
        rng = np.random.default_rng(batch)
        x = rng.normal(size=(batch,) + model.input_shape)
        maps = np.maximum(correlate_all_bands(x, model.templates), 0.0)
        assert model.feature_maps(x).tobytes() == maps.tobytes()
        for layer in (1, 2) if model.mixing is not None else (1,):
            assert (model.features(x, layer=layer).tobytes()
                    == every_row_features(model, x, layer).tobytes())
            cot = rng.normal(size=(batch, model.n_templates if layer == 1
                                   else model.n_features))
            assert (model.vjp_features(x, cot, layer=layer).tobytes()
                    == every_row_vjp(model, x, cot, layer).tobytes())

    def test_zero_templates_give_exact_zeros(self):
        model = self.MODELS["zero"]()
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3,) + model.input_shape)
        assert model.feature_maps(x).tobytes() == np.zeros((3, 12, 12, 4)).tobytes()
        for layer, width in ((1, 4), (2, 2)):
            assert model.features(x, layer=layer).tobytes() == np.zeros((3, width)).tobytes()
            dx = model.vjp_features(x, rng.normal(size=(3, width)), layer=layer)
            assert dx.tobytes() == np.zeros(x.shape).tobytes()


class TestFeaturesVjp:
    """features_vjp correlates each block once: its features are those of
    features, and its pullback, called once or again, gives the bytes of
    vjp_features and of the every-row reference."""

    MODELS = {**{f"standard_k{k}": (lambda k=k: standard_backbone(k=k)) for k in (1, 2, 3, 4)},
              "pair": pair_backbone, "two_layer": two_layer_backbone, "rgb": rgb_backbone,
              "randomized": lambda: standard_backbone().randomize_weights(3)}

    @pytest.mark.parametrize("size", ["1", "7", "block+1"])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_equals_features_and_vjp_features(self, name, size):
        model = self.MODELS[name]()
        batch = {"1": 1, "7": 7, "block+1": block_size(model) + 1}[size]
        rng = np.random.default_rng(batch)
        x = rng.normal(size=(batch,) + model.input_shape)
        for layer in (1, 2) if model.mixing is not None else (1,):
            out, pullback = model.features_vjp(x, layer=layer)
            assert out.tobytes() == model.features(x, layer=layer).tobytes()
            for _ in range(2):
                cot = rng.normal(size=out.shape)
                dx = pullback(cot)
                assert dx.tobytes() == model.vjp_features(x, cot, layer=layer).tobytes()
                assert dx.tobytes() == every_row_vjp(model, x, cot, layer).tobytes()

    def test_the_randomized_templates_have_five_live_rows(self):
        assert len(self.MODELS["randomized"]()._live_bands) == 5

    @pytest.mark.parametrize("name", ["pair", "two_layer"])
    def test_one_correlation_per_block_for_any_number_of_pullbacks(self, name,
                                                                    monkeypatch):
        model = self.MODELS[name]()
        calls = []
        correlate = ToyBackbone._correlate
        monkeypatch.setattr(ToyBackbone, "_correlate",
                            lambda self, x: calls.append(len(x)) or correlate(self, x))
        batch = 2 * block_size(model) + 3
        x = np.random.default_rng(0).normal(size=(batch,) + model.input_shape)
        out, pullback = model.features_vjp(x)
        for _ in range(3):
            pullback(np.ones(out.shape))
        assert calls == [block_size(model)] * 2 + [3]

    @pytest.mark.parametrize("layer, width", [(1, 5), (2, 3)])
    def test_pullback_rejects_a_cotangent_as_vjp_features_does(self, layer, width):
        model = two_layer_backbone()
        x = np.random.default_rng(0).normal(size=(2,) + model.input_shape)
        cot = np.ones((2, width))
        with pytest.raises(ValueError) as expected:
            model.vjp_features(x, cot, layer=layer)
        with pytest.raises(ValueError) as raised:
            model.features_vjp(x, layer=layer)[1](cot)
        assert str(raised.value) == str(expected.value)


class TestValidation:
    @pytest.mark.parametrize("change, field", [
        (dict(templates=np.zeros((4, 5, 5))), "templates"),
        (dict(input_shape=(16, 16, 3)), "channels"),
        (dict(input_shape=(4, 4, 1)), "larger than input_shape"),
        (dict(input_shape=(16, 16)), "input_shape"),
        (dict(input_shape=(16.0, 16, 1)), "input_shape"),
        (dict(head_weights=np.zeros(4)), "head_weights"),  # k, not the mixed width
        (dict(head_weights=np.zeros((1, 2))), "head_weights"),
        (dict(mixing=np.ones((3, 2))), "mixing"),
        (dict(mixing=-np.eye(4, 2)), "mixing has negative"),
    ])
    def test_inconsistent_model_rejected(self, change, field):
        with pytest.raises(ValueError, match=field):
            replace(two_layer_backbone(), **change)

    @pytest.mark.parametrize("change, field", [
        (dict(templates=two_layer_backbone().templates * np.nan), "templates"),
        (dict(head_weights=np.array([1.0, np.inf])), "head_weights"),
        (dict(head_bias=np.nan), "head_bias"),
        (dict(head_bias=-np.inf), "head_bias"),
        (dict(mixing=np.array([[np.inf, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])),
         "mixing"),
    ], ids=["templates_nan", "head_weights_inf", "head_bias_nan", "head_bias_minus_inf",
            "mixing_inf"])
    def test_non_finite_model_rejected(self, change, field):
        with pytest.raises(ValueError, match=f"{field} has NaN or infinite entries"):
            replace(two_layer_backbone(), **change)

    @pytest.mark.parametrize("method", ["features", "feature_maps", "features_vjp",
                                        "vjp_features"])
    @pytest.mark.parametrize("position, value", [((0, 3), np.nan), ((5, 5), np.inf)],
                             ids=["nan_at_0_3", "inf_at_5_5"])
    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    def test_non_finite_images_are_data_error(self, method, position, value, layout):
        # a NaN in image row 0, which no pair_backbone template row reads,
        # gave finite features [[0, 0]] before the check
        model = pair_backbone()
        x = np.zeros((1, 16, 16, 1))
        x[0, position[0], position[1], 0] = value
        if layout == "strided":  # the same image, stored transposed
            x = np.ascontiguousarray(x.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)
        args = (x, np.ones((1, 2))) if method == "vjp_features" else (x,)
        with pytest.raises(DataError, match="images contain NaN or Inf"):
            getattr(model, method)(*args)

    def test_huge_finite_images_pass_the_check(self):
        # their sum of squares overflows; min and max show every entry
        # finite. Scaling by a power of two commutes with every rounding.
        model = pair_backbone()
        x = make_synthetic_dataset(model, 2, noise=0.02, seed=0).images
        np.testing.assert_array_equal(model.features(x * 2.0**600),
                                      model.features(x) * 2.0**600)

    def test_empty_image_stack_passes_the_check(self):
        assert pair_backbone().features(np.zeros((0, 16, 16, 1))).shape == (0, 2)


def reference_dataset(model, n, noise, seed, max_stamps=3, template_pool=None):
    """The per-image reference on make_synthetic_dataset's stream and
    defaults: (images, labels, stamps)."""
    pool = list(range(model.n_templates)) if template_pool is None else list(template_pool)
    return reference_synthetic_dataset(model, n, noise, Rng(seed).generator(),
                                       min(max_stamps, len(pool)), pool)


def assert_equals_reference(model, n, noise, seed, **options):
    data = make_synthetic_dataset(model, n, noise=noise, seed=seed, **options)
    images, labels, stamps = reference_dataset(model, n, noise, seed, **options)
    assert data.images.tobytes() == images.tobytes()
    assert data.labels.dtype == labels.dtype and data.labels.tobytes() == labels.tobytes()
    assert data.stamps == stamps
    assert all(type(v) is int for placed in data.stamps for stamp in placed for v in stamp)


class TestSyntheticDataset:
    @pytest.fixture(params=["standard", "pair", "two_layer", "saved_two_layer", "rgb"])
    def generator_model(self, request, tmp_path):
        if request.param == "saved_two_layer":
            save_backbone(two_layer_backbone(), tmp_path / "model")
            return load_backbone(tmp_path / "model")
        return rgb_backbone() if request.param == "rgb" else BUILT_IN[request.param]()

    @pytest.mark.parametrize("noise", [0.0, 0.02, 0.3])
    @pytest.mark.parametrize("n, seeds", [(1, range(6)), (400, (0, 11))], ids=["n1", "n400"])
    def test_equals_the_per_image_reference(self, generator_model, noise, n, seeds):
        for seed in seeds:
            assert_equals_reference(generator_model, n, noise, seed)

    @pytest.mark.parametrize("options", [
        {"max_stamps": 1}, {"max_stamps": 10}, {"template_pool": (3, 0, 2)},
        {"template_pool": np.array([2, 1]), "max_stamps": 5}],
        ids=["one_stamp", "clamped", "reordered_pool", "array_pool_clamped"])
    def test_stamp_options_equal_the_per_image_reference(self, options):
        for seed in (0, 4):
            assert_equals_reference(standard_backbone(), 400, 0.02, seed, **options)

    def test_stamps_that_cannot_fit_raise(self):
        # two 5x5 stamps on a 5x5 input always overlap
        model = ToyBackbone(templates=standard_backbone(k=2).templates,
                            head_weights=np.zeros(2), head_bias=0.0, input_shape=(5, 5, 1))
        for draw in (lambda: make_synthetic_dataset(model, 8, noise=0.02, seed=0),
                     lambda: reference_dataset(model, 8, 0.02, 0)):
            with pytest.raises(RuntimeError, match="could not place stamps without overlap"):
                draw()

    def test_deterministic(self):
        model = standard_backbone()
        d1 = make_synthetic_dataset(model, 16, noise=0.05, seed=9)
        d2 = make_synthetic_dataset(model, 16, noise=0.05, seed=9)
        assert d1.images.tobytes() == d2.images.tobytes()
        np.testing.assert_array_equal(d1.labels, d2.labels)
        assert d1.stamps == d2.stamps

    def test_label_balance(self):
        model = standard_backbone()
        data = make_synthetic_dataset(model, 400, noise=0.05, seed=1)
        assert 0.3 <= data.labels.mean() <= 0.7

    def test_single_stamp_feature_direction(self):
        model = standard_backbone()
        data = make_synthetic_dataset(model, 24, noise=0.0, seed=5, max_stamps=1)
        acts = model.features(data.images)
        for i, placed in enumerate(data.stamps):
            (t_idx, _, _), = placed
            assert np.argmax(acts[i]) == t_idx

    def test_stamps_do_not_overlap(self):
        model = standard_backbone()
        data = make_synthetic_dataset(model, 64, noise=0.0, seed=7)
        for placed in data.stamps:
            boxes = [(y, x) for _, y, x in placed]
            for a in range(len(boxes)):
                for b in range(a + 1, len(boxes)):
                    dy = abs(boxes[a][0] - boxes[b][0])
                    dx = abs(boxes[a][1] - boxes[b][1])
                    assert dy >= 5 or dx >= 5

    def test_template_pool_restriction(self):
        model = standard_backbone()
        data = make_synthetic_dataset(model, 32, noise=0.0, seed=2,
                                      max_stamps=1, template_pool=(0, 1))
        used = {t for placed in data.stamps for t, _, _ in placed}
        assert used <= {0, 1}

    @pytest.mark.parametrize("pool", [(-1,), (0, 5), [], (0, 1, 0), (0.0,), (True,)],
                             ids=["negative", "past_the_templates", "empty",
                                  "duplicate", "float", "bool"])
    def test_bad_template_pool_rejected(self, pool):
        with pytest.raises(ValueError, match="template_pool"):
            make_synthetic_dataset(pair_backbone(), 4, noise=0.0, seed=0,
                                   template_pool=pool)

    def test_full_pool_keeps_the_default_draws(self):
        model = standard_backbone()
        default = make_synthetic_dataset(model, 16, noise=0.05, seed=9)
        for pool in (range(4), [0, 1, 2, 3], np.arange(4)):
            given = make_synthetic_dataset(model, 16, noise=0.05, seed=9,
                                           template_pool=pool)
            assert given.images.tobytes() == default.images.tobytes()
            assert given.stamps == default.stamps

    @pytest.mark.parametrize("max_stamps", [0, -2])
    def test_max_stamps_below_one_rejected(self, max_stamps):
        with pytest.raises(ValueError, match="max_stamps"):
            make_synthetic_dataset(standard_backbone(), 4, noise=0.0, seed=0,
                                   max_stamps=max_stamps)

    def test_max_stamps_past_the_pool_draws_as_the_pool_size(self):
        model = standard_backbone()
        given = make_synthetic_dataset(model, 16, noise=0.05, seed=9, max_stamps=10)
        clamped = make_synthetic_dataset(model, 16, noise=0.05, seed=9, max_stamps=4)
        assert given.images.tobytes() == clamped.images.tobytes()
        assert given.stamps == clamped.stamps

    @pytest.mark.parametrize("noise", [-0.5, np.nan, np.inf])
    def test_bad_noise_rejected(self, noise):
        with pytest.raises(ValueError, match="noise"):
            make_synthetic_dataset(standard_backbone(), 4, noise=noise, seed=0)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        model = two_layer_backbone()
        save_backbone(model, tmp_path / "model")
        loaded = load_backbone(tmp_path / "model")
        np.testing.assert_array_equal(loaded.templates, model.templates)
        np.testing.assert_array_equal(loaded.head_weights, model.head_weights)
        np.testing.assert_array_equal(loaded.mixing, model.mixing)
        assert loaded.input_shape == model.input_shape
        x = stamp_image(model, 1)
        np.testing.assert_array_equal(loaded.features(x), model.features(x))

    def test_non_finite_head_bias_rejected_on_load(self, tmp_path):
        # load_npy already rejects a non-finite array; the manifest's bias
        # reaches the model's own check
        save_backbone(two_layer_backbone(), tmp_path / "model")
        manifest = tmp_path / "model" / "manifest.json"
        record = json.loads(manifest.read_text())
        record["head_bias"] = float("nan")
        manifest.write_text(json.dumps(record))  # writes the bias as NaN
        with pytest.raises(ValueError, match="head_bias has NaN or infinite entries"):
            load_backbone(tmp_path / "model")

    def test_randomize_weights_changes_features(self):
        model = standard_backbone()
        rand = model.randomize_weights(7)
        x = stamp_image(model, 0)
        assert not np.allclose(rand.features(x), model.features(x))
        # deterministic given the seed
        np.testing.assert_array_equal(rand.templates,
                                      model.randomize_weights(7).templates)
