"""Sobol' sequence, perturbation operator, and Jansen estimator oracles.

Reference sequence values were frozen from an independent generator built
on the same published direction-number table; estimator targets come from
closed-form variance decompositions in oracles.py.
"""

import itertools

import numpy as np
import pytest

from craftkit import sobol
from craftkit.core import Rng
from craftkit.errors import DataError, UnsupportedError
from craftkit.pipeline import fidelity_curves
from craftkit.sobol import (AffineHead, concept_importance, mask_designs, perturb,
                            sobol_sequence, tcav_importance, total_sobol_jansen,
                            _jansen_total)

from oracles import (affine_total_indices, first_order_saltelli, ishigami,
                     ishigami_total_indices)


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

    @pytest.mark.parametrize("n, error, message", [
        (-1, ValueError, "n must be nonnegative"),
        (2**32, UnsupportedError, "at most 4294967295 points"),
    ])
    def test_point_count_checked_before_anything_is_built(self, monkeypatch, n, error,
                                                          message):
        calls = []
        monkeypatch.setattr(sobol, "_direction_integers", lambda *args: calls.append(args))
        with pytest.raises(error, match=message):
            sobol_sequence(2, n)
        assert not calls

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
        # the second batch the estimator evaluates stacks AB_0 .. AB_{r-1}
        r, n = 4, 64
        a, b = mask_designs(r, n)
        batches = []

        def eval_batch(masks):
            batches.append(masks.copy())
            return masks @ np.arange(1.0, r + 1)

        _jansen_total(eval_batch, a, b)
        assert len(batches) == 2
        np.testing.assert_array_equal(batches[0], np.concatenate([a, b]))
        blocks = batches[1].reshape(r, n, r)
        for i in range(r):
            diff = blocks[i] != a
            assert diff[:, i].any()
            np.testing.assert_array_equal(blocks[i][:, i], b[:, i])
            other = np.delete(diff, i, axis=1)
            assert not other.any()

    def test_rank_beyond_sobol_table_rejected_up_front(self):
        a, _ = mask_designs(32, 4)
        assert a.shape == (4, 32)
        with pytest.raises(ValueError, match="32-concept limit"):
            mask_designs(33, 4)

    @pytest.mark.parametrize("r, n, message", [
        (2, 1, "at least 2 samples"),
        (0, 8, "at least one concept"),
        (2, 2**32, "at most 4294967295"),
    ])
    def test_sizes_checked_before_any_mask_is_built(self, monkeypatch, r, n, message):
        calls = []
        monkeypatch.setattr(sobol, "sobol_sequence", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=message):
            mask_designs(r, n)
        assert not calls


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

        a, b = mask_designs(3, n)
        est = _jansen_total(eval_batch, a, b)
        first = first_order_saltelli(eval_batch, a, b)
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
            # pseudo-random A and B blocks, drawn as one n x 2r block
            block = Rng(seed).generator().uniform(size=(2048, 4))
            est = _jansen_total(lambda masks: np.array([f(row) for row in masks]),
                                block[:, :2], block[:, 2:])
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

    @pytest.mark.parametrize("score, U, message", [
        (score, U, message)
        for U, message in [(np.zeros((0, 2)), "no coefficient rows"),
                           (np.ones(2), "U must be n x r"),
                           (np.ones((3, 1)), "U must be n x r"),
                           (np.ones((3, 3)), "U must be n x r")]
        for score in (lambda U, W, head: concept_importance(U, W, head, 16),
                      lambda U, W, head: fidelity_curves(U, W, head,
                                                         importance=[1.0, 0.5]))
    ], ids=[name + case for case in ("", "_1d", "_narrow", "_wide")
            for name in ("concept_importance", "fidelity_curves")])
    def test_zero_rows_rejected_up_front(self, score, U, message):
        # both scorers share one check; without it an empty row mean warns
        # and yields NaN, and a 1-D U fails on its missing column axis
        calls = []
        with pytest.raises(ValueError, match=message):
            score(U, np.eye(2), lambda acts: calls.append(acts) or acts[:, 0])
        assert not calls

    @pytest.mark.parametrize("score", [
        lambda U, W, head: concept_importance(U, W, head, 16),
        lambda U, W, head: fidelity_curves(U, W, head, [1.0, 0.5]),
    ], ids=["concept_importance", "fidelity_curves"])
    @pytest.mark.parametrize("outputs", [
        lambda acts: np.ones((len(acts), 2)),
        lambda acts: np.ones(len(acts) + 1),
        lambda acts: 1.0,
    ], ids=["two_per_row", "one_extra", "scalar"])
    def test_a_head_with_another_output_count_is_named(self, score, outputs):
        # the count was only checked by a reshape, whose NumPy error named
        # neither the head nor the count it expected
        calls = []

        def head(acts):
            calls.append((len(acts), np.shape(outputs(acts))))
            return outputs(acts)

        with pytest.raises(ValueError) as raised:
            score(np.ones((4, 2)), np.eye(2), head)
        (rows, shape), = calls  # the first block raises
        assert str(raised.value) == ("the head must return one output per activation "
                                     f"row: expected {rows}, got shape {shape}")

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


class TestBlockedEvaluator:
    """_mean_head_outputs streams (mask, row) pairs through the head in
    blocks of at most max(1, chunk // p) rows, in mask-major order, each
    block's activations a new array."""

    # p = 20, 5 rows and 12 masks. Chunk 40 gives 2-row blocks, 60 gives
    # 3-row blocks over 3 masks an outer step, 140 gives 7-row blocks over 7
    # masks, so blocks start mid-mask and straddle masks; 10_000 puts all 60
    # pairs in one call
    CHUNKS = (40, 60, 140, 10_000)

    @staticmethod
    def counting(head, calls):
        def counted(acts):
            calls.append(np.array(acts))
            return head(acts)
        return counted

    @staticmethod
    def problem(seed):
        rng = np.random.default_rng(seed)
        return rng.uniform(size=(5, 2)), rng.uniform(size=(20, 2)), rng.uniform(size=(12, 2))

    @pytest.mark.parametrize("chunk", (1,) + CHUNKS)
    def test_blocks_cover_every_pair_once_in_mask_major_order(self, chunk):
        from craftkit.sobol import _mean_head_outputs
        # small integers, 0/1 weights and dyadic masks keep every product
        # exact, so an activation row identifies its (mask, row) pair
        rng = np.random.default_rng(21)
        U = rng.integers(0, 8, size=(5, 2)).astype(float)
        W = rng.integers(0, 2, size=(20, 2)).astype(float)
        masks = rng.integers(0, 9, size=(12, 2)) / 8.0
        calls = []
        _mean_head_outputs(U, W, self.counting(lambda a: a[:, 0], calls), masks, 0.25,
                           chunk=chunk)
        assert max(len(acts) for acts in calls) <= max(1, chunk // 20)
        expected = np.concatenate([perturb(U, m, 0.25) @ W.T for m in masks])
        np.testing.assert_array_equal(np.concatenate(calls), expected)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_nonlinear_head_matches_per_mask_reference_bit_for_bit(self, chunk):
        from craftkit.sobol import _mean_head_outputs
        U, W, masks = self.problem(22)
        head = lambda acts: np.tanh(acts).sum(axis=1) + acts[:, 0] * acts[:, 1]
        calls = []
        out = _mean_head_outputs(U, W, self.counting(head, calls), masks, 0.3,
                                 chunk=chunk)
        expected = [np.mean(head(perturb(U, m, 0.3) @ W.T)) for m in masks]
        np.testing.assert_array_equal(out, expected)
        assert max(len(acts) for acts in calls) <= chunk // 20

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_head_may_return_a_view_of_its_input(self, chunk):
        from craftkit.sobol import _mean_head_outputs
        U, W, masks = self.problem(23)
        out = _mean_head_outputs(U, W, lambda a: a[:, 0], masks, 0.3, chunk=chunk)
        expected = [np.mean((perturb(U, m, 0.3) @ W.T)[:, 0]) for m in masks]
        np.testing.assert_array_equal(out, expected)

    def test_one_row_blocks_round_like_the_others(self):
        # BLAS sends a one-row product to its matrix-vector routine, which
        # rounds about half the activations differently in the last bit.
        # Chunk p gives only one-row blocks, and 2p and 4p leave a one-row
        # remainder of the 45 (mask, row) pairs
        from craftkit.sobol import _mean_head_outputs
        rng = np.random.default_rng(25)
        U, W = rng.uniform(size=(5, 10)), rng.uniform(size=(2048, 10))
        masks = rng.uniform(size=(9, 10))
        head = lambda acts: np.tanh(acts).sum(axis=1)
        seen = {}
        for chunk in (1 << 20, 2048, 2 * 2048, 4 * 2048):
            calls = []
            out = _mean_head_outputs(U, W, self.counting(head, calls), masks, 0.3,
                                     chunk=chunk)
            seen[chunk] = out, np.concatenate(calls)
        (full, acts), *blocked = seen.values()
        for out, blocked_acts in blocked:
            np.testing.assert_array_equal(blocked_acts, acts)
            np.testing.assert_array_equal(out, full)

    @pytest.mark.parametrize("chunk", (1,) + CHUNKS)
    def test_a_head_that_keeps_its_inputs_holds_each_blocks_activations(self, chunk):
        from craftkit.sobol import _mean_head_outputs
        U, W, masks = self.problem(24)
        seen = []

        def head(acts):
            seen.append(acts)
            return acts[:, 0]

        _mean_head_outputs(U, W, head, masks, 0.3, chunk=chunk)
        # no block is written over by a later one: the kept arrays still
        # hold every (mask, row) pair's activations, in order
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(seen, 2))
        expected = np.concatenate([perturb(U, m, 0.3) @ W.T for m in masks])
        np.testing.assert_array_equal(np.concatenate(seen), expected)


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

    @pytest.mark.parametrize("n, atol", [(256, 0.03), (1024, 0.006)])
    @pytest.mark.parametrize("mu", [0.0, 0.25])
    def test_matches_the_closed_form_indices(self, n, atol, mu):
        # an affine head is additive in the masks, so its total indices are
        # c_i^2 / sum_j c_j^2; the largest errors measured on this fixture
        # were 0.0235 at n = 256 and 0.0044 at n = 1024
        rng = np.random.default_rng(41)
        U, W, w = rng.uniform(size=(50, 4)), rng.uniform(size=(9, 4)), rng.normal(size=9)
        estimate = concept_importance(U, W, AffineHead(w, 0.3), n, mu=mu)
        np.testing.assert_allclose(estimate.total_indices,
                                   affine_total_indices(U, W, w, mu), rtol=0, atol=atol)

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
        # two evaluation calls: f(A) with f(B), then every AB_i block
        assert rows == [64 * 2, 64 * 3]
        rows.clear()
        constant = concept_importance(U, W, Counting(np.zeros(5), 0.1), 64)
        assert constant.degenerate
        assert rows == [64 * 2]

    @staticmethod
    def _scaled(c, bias=0.0, u_scale=1.0):
        rng = np.random.default_rng(20)
        U = rng.uniform(size=(40, 3)) * u_scale
        W = rng.uniform(size=(6, 3))
        return concept_importance(U, W, AffineHead(c * rng.normal(size=6), bias), 256)

    @pytest.mark.parametrize("c", [1e-6, 1e6])
    def test_indices_do_not_depend_on_the_head_scale(self, c):
        # at 1e-6 the output variance is about 1e-14, so no fixed variance
        # floor tells it from rounding noise; the outputs' own scale does
        unit, scaled = self._scaled(1.0), self._scaled(c)
        assert not scaled.degenerate
        np.testing.assert_allclose(scaled.total_indices, unit.total_indices,
                                   rtol=0, atol=1e-12)

    def test_power_of_two_scale_is_bit_identical(self):
        unit, scaled = self._scaled(1.0), self._scaled(2.0**-40)
        assert not scaled.degenerate
        np.testing.assert_array_equal(scaled.total_indices, unit.total_indices)

    def test_spread_within_rounding_of_a_large_bias_is_degenerate(self):
        # the outputs differ by a few ulps of 1e12 and carry no signal,
        # though their variance is about 1e-7
        est = self._scaled(1e-4, bias=1e12, u_scale=30.0)
        assert est.degenerate
        np.testing.assert_array_equal(est.total_indices, 0.0)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["grads_A", "W"])
    def test_non_finite_input_rejected(self, name, bad):
        # unchecked, [[nan, 1], [1, inf]] against the identity scored [0, 0.5]
        # with only a RuntimeWarning
        args = {"grads_A": np.ones((3, 2)), "W": np.eye(2)}
        args[name][1, 0] = bad
        with pytest.raises(DataError, match=f"{name} contains NaN or Inf"):
            tcav_importance(**args)

    def test_orthogonal_ties_break_to_zero(self):
        grads = np.tile([1.0, 0.0], (4, 1))
        W = np.array([[0.0], [1.0]])  # derivative exactly zero
        np.testing.assert_array_equal(tcav_importance(grads, W), [0.0])
