"""Sobol' sequence, perturbation operator, and Jansen estimator oracles.

Reference sequence values were frozen from an independent generator built
on the same published direction-number table; estimator targets come from
closed-form variance decompositions in oracles.py.
"""

import numpy as np
import pytest

from craftkit.errors import DataError, UnsupportedError
from craftkit.pipeline import fidelity_curves
from craftkit.sobol import (AffineHead, MaskBatch, ab_design, concept_importance,
                            mask_designs, perturb, sobol_sequence, tcav_importance,
                            total_sobol_jansen,
                            _first_order_saltelli, _jansen_total)

from oracles import ishigami, ishigami_total_indices


class TestSobolSequence:
    def test_first_points_dim2(self):
        np.testing.assert_array_equal(
            sobol_sequence(2, 3),
            [[0.5, 0.5], [0.75, 0.25], [0.25, 0.75]])

    def test_first_points_dim1(self):
        np.testing.assert_array_equal(
            sobol_sequence(1, 4).ravel(), [0.5, 0.75, 0.25, 0.375])

    def test_frozen_reference_point_dim8(self):
        # 100th point (zero skipped), frozen from an independent generator
        ref = [0.4140625, 0.2578125, 0.7734375, 0.7265625,
               0.8828125, 0.7421875, 0.0234375, 0.4765625]
        np.testing.assert_array_equal(sobol_sequence(8, 100)[99], ref)

    def test_frozen_reference_point_dim64(self):
        ref_tail = [0.734375, 0.671875, 0.203125, 0.015625, 0.265625, 0.953125]
        np.testing.assert_array_equal(sobol_sequence(64, 33)[32][-6:], ref_tail)

    def test_strictly_inside_unit_cube(self):
        pts = sobol_sequence(11, 513)
        assert pts.min() > 0.0 and pts.max() < 1.0

    def test_dimension_cap(self):
        with pytest.raises(UnsupportedError):
            sobol_sequence(65, 4)

    def test_equidistribution_coarse(self):
        pts = sobol_sequence(3, 1024)
        np.testing.assert_allclose(pts.mean(axis=0), 0.5, atol=1e-3)

    @pytest.mark.parametrize("dim", [1, 2, 20, 64])
    def test_matches_per_point_gray_code_loop(self, dim):
        # the loop flips one direction integer per point, at the lowest set
        # bit of i; the vectorized form must give the same bits
        from craftkit.sobol import _BITS, _direction_integers
        V = _direction_integers(dim, _BITS)
        for n in (0, 1, 1000, 4096):
            expected = np.empty((n, dim))
            state = np.zeros(dim, dtype=np.uint64)
            for i in range(1, n + 1):
                state ^= V[:, (i & -i).bit_length() - 1]
                expected[i - 1] = state / 2.0**_BITS
            np.testing.assert_array_equal(sobol_sequence(dim, n), expected)

    def test_leading_dimensions_project_consistently(self):
        # each dimension has its own direction numbers, so a lower-dim
        # sequence is exactly the prefix of a higher-dim one
        wide = sobol_sequence(16, 200)
        np.testing.assert_array_equal(sobol_sequence(1, 200), wide[:, :1])
        np.testing.assert_array_equal(sobol_sequence(5, 200), wide[:, :5])


class TestMaskDesigns:
    def test_ab_differs_exactly_in_one_column(self):
        a, b = mask_designs(4, 64)
        for i in range(4):
            ab = ab_design(a, b, i)
            diff = ab.masks != a.masks
            assert diff[:, i].any()
            other = np.delete(diff, i, axis=1)
            assert not other.any()

    def test_uniform_sequence_is_seeded(self):
        a1, b1 = mask_designs(3, 32, sequence="uniform", seed=5)
        a2, b2 = mask_designs(3, 32, sequence="uniform", seed=5)
        np.testing.assert_array_equal(a1.masks, a2.masks)
        np.testing.assert_array_equal(b1.masks, b2.masks)

    def test_rank_beyond_sobol_table_rejected_up_front(self):
        a, _ = mask_designs(32, 4)
        assert a.masks.shape == (4, 32)
        with pytest.raises(ValueError, match="32-concept limit"):
            mask_designs(33, 4)
        a, _ = mask_designs(33, 4, sequence="uniform", seed=1)
        assert a.masks.shape == (4, 33)

    def test_masks_validated(self):
        with pytest.raises(ValueError):
            MaskBatch(np.array([[1.5]]), "A", "uniform")


class TestPerturb:
    def test_binary_mask(self):
        np.testing.assert_array_equal(perturb([1.0, 2.0], [1.0, 0.0], 0.0), [1.0, 0.0])

    def test_half_mask(self):
        np.testing.assert_array_equal(perturb([1.0, 2.0], [0.5, 0.5], 0.0), [0.5, 1.0])

    def test_nonzero_baseline(self):
        np.testing.assert_array_equal(perturb([1.0, 2.0], [0.0, 1.0], 3.0), [3.0, 2.0])


class TestJansenEstimator:
    def test_linear_function_analytic_indices(self):
        est = total_sobol_jansen(lambda m: 3.0 * m[0] + m[1], 2, 2048)
        np.testing.assert_allclose(est.total_indices, [0.9, 0.1], atol=0.02)
        assert not est.degenerate
        assert est.n_samples == 2048

    def test_constant_function_is_degenerate(self):
        est = total_sobol_jansen(lambda m: 4.25, 3, 256)
        assert est.degenerate
        np.testing.assert_array_equal(est.total_indices, 0.0)

    def test_ishigami_closed_form(self):
        a, b = 7.0, 0.1
        est = total_sobol_jansen(lambda m: ishigami(m, a, b), 3, 8192)
        np.testing.assert_allclose(est.total_indices,
                                   ishigami_total_indices(a, b), atol=0.02)

    def test_ishigami_oracle_against_quadrature(self):
        # the closed-form oracle itself, checked by dense midpoint-rule
        # quadrature of the defining conditional-variance ratio
        a, b = 7.0, 0.1
        m = 101
        x = -np.pi + 2 * np.pi * (np.arange(m) + 0.5) / m
        X1, X2, X3 = np.meshgrid(x, x, x, indexing="ij")
        F = np.sin(X1) + a * np.sin(X2) ** 2 + b * X3 ** 4 * np.sin(X1)
        totals = [F.var(axis=axis).mean() / F.var() for axis in range(3)]
        np.testing.assert_allclose(totals, ishigami_total_indices(a, b),
                                   atol=1e-3)

    def test_non_finite_output_raises(self):
        with pytest.raises(DataError):
            total_sobol_jansen(lambda m: float("nan"), 2, 16)

    def test_additive_totals_match_first_order(self):
        n = 1024

        def eval_batch(masks):
            return 2.0 * masks[:, 0] + 0.5 * masks[:, 1] + masks[:, 2]

        est, ys = _jansen_total(eval_batch, 3, n, "sobol_joe_kuo", None)
        first = _first_order_saltelli(*ys, est.variance_Y)
        np.testing.assert_allclose(est.total_indices, first, atol=2.0 / np.sqrt(n))

    def test_total_indices_sum_at_least_one(self):
        n = 1024

        def f(m):
            return m[0] * m[1] + 0.3 * m[2] ** 2

        est = total_sobol_jansen(f, 3, n)
        assert est.total_indices.sum() >= 1.0 - 3.0 / np.sqrt(n)

    def test_affine_invariance(self):
        f = lambda m: m[0] ** 2 + 0.5 * m[1]
        g = lambda m: -2.5 * f(m) + 7.0
        est_f = total_sobol_jansen(f, 2, 512)
        est_g = total_sobol_jansen(g, 2, 512)
        np.testing.assert_allclose(est_f.total_indices, est_g.total_indices,
                                   atol=1e-10)

    def test_estimates_respect_index_range(self):
        # the estimator is a ratio of nonnegative sums, so indices are never
        # negative; at this sample size they also stay within noise of 1
        functions = [
            lambda m: 3.0 * m[0] + m[1],
            lambda m: m[0] * m[1],
            lambda m: np.sin(6.0 * m[0]) + m[1] ** 3,
        ]
        for f in functions:
            est = total_sobol_jansen(f, 2, 2048)
            assert est.total_indices.min() >= 0.0
            assert est.total_indices.max() <= 1.0 + 1e-3

    def test_qmc_beats_mean_mc_on_linear(self):
        truth = np.array([0.9, 0.1])
        f = lambda m: 3.0 * m[0] + m[1]
        qmc_err = np.abs(total_sobol_jansen(f, 2, 2048).total_indices - truth).max()
        mc_errs = []
        for seed in range(20):
            est = total_sobol_jansen(f, 2, 2048, sequence="uniform", seed=seed)
            mc_errs.append(np.abs(est.total_indices - truth).max())
        assert qmc_err <= np.mean(mc_errs)


class TestConceptImportance:
    def test_single_active_concept(self):
        rng = np.random.default_rng(0)
        U = np.column_stack([rng.uniform(0.5, 2.0, size=32), rng.uniform(size=32)])
        W = np.eye(2)
        est = concept_importance(U, W, lambda acts: acts[:, 0], 2048)
        np.testing.assert_allclose(est.total_indices, [1.0, 0.0], atol=0.02)

    def test_constant_head_degenerate(self):
        U = np.ones((8, 2))
        est = concept_importance(U, np.eye(2), lambda acts: np.full(len(acts), 2.0), 64)
        assert est.degenerate

    def test_symmetric_product_head(self):
        U = np.ones((16, 2))
        est = concept_importance(U, np.eye(2), lambda acts: acts[:, 0] * acts[:, 1],
                                 2048)
        assert abs(est.total_indices[0] - est.total_indices[1]) < 0.03

    def test_nonzero_baseline_exposes_absent_concepts(self):
        # with a zero baseline a zero-coefficient concept is invisible; a
        # nonzero baseline swings it between 0 and mu, so it gains variance
        U = np.array([[1.0, 0.0]] * 16)
        head = lambda acts: acts.sum(axis=1)
        zero_mu = concept_importance(U, np.eye(2), head, 512, mu=0.0)
        with_mu = concept_importance(U, np.eye(2), head, 512, mu=1.0)
        assert zero_mu.total_indices[1] < 0.01
        assert with_mu.total_indices[1] > 0.2

    @pytest.mark.parametrize("score", [
        lambda U, W, head: concept_importance(U, W, head, 16),
        lambda U, W, head: fidelity_curves(U, W, head, importance=[1.0, 0.5]),
    ], ids=["concept_importance", "fidelity_curves"])
    def test_zero_rows_rejected_up_front(self, score):
        # without the check the empty row mean warns and then yields NaN
        with pytest.raises(ValueError, match="no coefficient rows"):
            score(np.zeros((0, 2)), np.eye(2), lambda acts: acts[:, 0])

    def test_single_concept_gets_full_index(self):
        est = total_sobol_jansen(lambda m: 2.0 * m[0] + 1.0, 1, 512)
        np.testing.assert_allclose(est.total_indices, [1.0], atol=0.02)

    def test_estimate_independent_of_evaluation_chunking(self):
        from craftkit.sobol import _mean_head_outputs
        rng = np.random.default_rng(9)
        U = rng.uniform(size=(37, 3))
        W = rng.uniform(size=(5, 3))
        masks = rng.uniform(size=(64, 3))
        head = lambda acts: np.tanh(acts).sum(axis=1)
        full = _mean_head_outputs(U, W, head, masks, 0.0)
        for chunk in (1, 7, 64, 10_000):
            tiny = _mean_head_outputs(U, W, head, masks, 0.0, chunk=chunk * 37)
            np.testing.assert_array_equal(tiny, full)


    def test_peak_memory_bounded_by_chunk_at_wide_features(self):
        # a chunk holds masks x rows x max(r, p) floats; sizing it by the row
        # count alone put all 64 masks' 200 x 512 activations (52 MB) in one,
        # and at 1000 x 2048 a single mask is 8 chunks, so rows must split
        import tracemalloc
        from craftkit.sobol import _mean_head_outputs
        rng = np.random.default_rng(4)
        chunk = 1 << 18
        for n_rows, p in ((200, 512), (1000, 2048)):
            U = rng.uniform(size=(n_rows, 10))
            W = rng.uniform(size=(p, 10))
            w = rng.normal(size=p)
            masks = rng.uniform(size=(64, 10))
            tracemalloc.start()
            try:
                out = _mean_head_outputs(U, W, lambda acts: acts @ w, masks, 0.0,
                                         chunk=chunk)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 8 * chunk
            expected = [np.mean(perturb(U, m) @ W.T @ w) for m in masks]
            np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("score", [
        lambda U, W, head, mu: concept_importance(U, W, head, 16, mu=mu),
        lambda U, W, head, mu: fidelity_curves(U, W, head, [1.0, 0.5], mu=mu),
    ], ids=["concept_importance", "fidelity_curves"])
    @pytest.mark.parametrize("mu", [np.inf, -np.inf, np.nan])
    def test_non_finite_baseline_rejected_before_any_head_call(self, score, mu):
        calls = []
        head = lambda acts: calls.append(1) or acts[:, 0]
        with pytest.raises(DataError, match="baseline mu"):
            score(np.ones((4, 2)), np.eye(2), head, mu)
        assert not calls


class TestAffineHead:
    def test_matches_closure_at_wide_features(self):
        # 200 crops at ResNet-50 pooled width; the general path pushes every
        # row, the affine one only their mean, which agrees up to rounding
        rng = np.random.default_rng(12)
        U = rng.uniform(size=(200, 10))
        W = rng.uniform(size=(2048, 10))
        w, b = rng.normal(size=2048), 0.4
        for mu in (0.0, 0.3):
            general = concept_importance(U, W, lambda a: a @ w + b, 64, mu=mu)
            affine = concept_importance(U, W, AffineHead(w, b), 64, mu=mu)
            assert not affine.degenerate
            np.testing.assert_allclose(affine.total_indices, general.total_indices,
                                       rtol=1e-12)
            np.testing.assert_allclose(affine.variance_Y, general.variance_Y,
                                       rtol=1e-12)

    def test_head_sees_one_row_per_mask(self):
        rows = []

        class Counting(AffineHead):
            def __call__(self, a):
                rows.append(len(a))
                return super().__call__(a)

        rng = np.random.default_rng(13)
        U = rng.uniform(size=(37, 3))
        W = rng.uniform(size=(5, 3))
        concept_importance(U, W, Counting(rng.normal(size=5), 0.1), 64)
        assert sum(rows) == 64 * (3 + 2)

    def test_outputs_are_the_affine_map(self):
        w = np.array([0.5, -1.0, 2.0])
        a = np.arange(12.0).reshape(4, 3)
        np.testing.assert_array_equal(AffineHead(w, -0.25)(a), a @ w - 0.25)

    @pytest.mark.parametrize("shape", [(4, 2), (4, 4), (3,), (2, 3, 1)])
    def test_rejects_activations_of_the_wrong_shape(self, shape):
        with pytest.raises(ValueError, match=r"activations must be \(batch, 3\)"):
            AffineHead(np.ones(3), 0.0)(np.ones(shape))


class TestTcav:
    def test_positive_alignment_scores_one(self):
        grads = np.tile([1.0, 0.5], (10, 1))
        W = np.array([[1.0], [1.0]])
        np.testing.assert_array_equal(tcav_importance(grads, W), [1.0])

    def test_negative_alignment_scores_zero(self):
        grads = np.tile([1.0, 0.5], (10, 1))
        W = np.array([[-1.0], [0.0]])
        np.testing.assert_array_equal(tcav_importance(grads, W), [0.0])

    def test_zero_rows_rejected(self):
        # without the check the empty mean warns and returns NaN scores
        with pytest.raises(ValueError, match="no gradient rows"):
            tcav_importance(np.zeros((0, 3)), np.eye(3))

    def test_orthogonal_ties_break_to_zero(self):
        grads = np.tile([1.0, 0.0], (4, 1))
        W = np.array([[0.0], [1.0]])  # derivative exactly zero
        np.testing.assert_array_equal(tcav_importance(grads, W), [0.0])
