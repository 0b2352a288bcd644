import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynshape.doe import DesignMatrix, lhd_sample
from dynshape.errors import DegenerateResponseError
from dynshape.gp import (
    CorrelationSpec,
    FitConfig,
    assemble_gp_model,
    build_correlation,
    corr_gaussian,
    fit_gp,
    gls_beta,
    gp_model_from_dict,
    gp_model_to_dict,
    likelihood_with_gradient,
    loo_metrics,
    mle_sigma2,
    neg_log_likelihood,
    predict,
    predict_many,
    prediction_metrics,
    stack_models,
)


def dense_reference(points, responses, lengths, nugget=0.0):
    """Brute-force kriging quantities through an explicit matrix inverse."""
    points = np.asarray(points, dtype=float)
    y = np.asarray(responses, dtype=float)
    n = points.shape[0]
    spec = CorrelationSpec(lengths=lengths)
    r_mat = np.array([[corr_gaussian(a, b, spec) for b in points] for a in points])
    r_mat += nugget * np.eye(n)
    rinv = np.linalg.inv(r_mat)
    ones = np.ones(n)
    beta = (ones @ rinv @ y) / (ones @ rinv @ ones)
    sigma2 = (y - beta) @ rinv @ (y - beta) / n
    return r_mat, rinv, beta, sigma2


class TestCorrelation:
    def test_same_point_is_one(self):
        spec = CorrelationSpec(lengths=np.array([0.3, 2.0]))
        x = np.array([0.4, -1.2])
        assert corr_gaussian(x, x, spec) == 1.0

    def test_unit_distance_value(self):
        spec = CorrelationSpec(lengths=np.array([1.0]))
        assert corr_gaussian(np.array([0.0]), np.array([1.0]), spec) == pytest.approx(
            math.exp(-1.0), rel=1e-12
        )

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        spec = CorrelationSpec(lengths=rng.uniform(0.1, 5.0, 3))
        x, y = rng.normal(size=3), rng.normal(size=3)
        assert corr_gaussian(x, y, spec) == pytest.approx(corr_gaussian(y, x, spec), rel=1e-14)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError):
            CorrelationSpec(lengths=np.array([1.0, 0.0]))


class TestBuildCorrelation:
    def test_duplicate_rows_escalate(self):
        pts = np.array([[0.2, 0.2], [0.2, 0.2], [0.8, 0.5]])
        spec = CorrelationSpec(lengths=np.array([1.0, 1.0]))
        factor, nugget = build_correlation(pts, spec, nugget=0.0)
        assert nugget > 0
        rebuilt = factor @ factor.T
        assert np.allclose(np.diag(rebuilt), 1.0 + nugget, rtol=1e-8)

    def test_well_separated_tiny_lengths(self):
        pts = np.array([[0.0], [0.5], [1.0]])
        spec = CorrelationSpec(lengths=np.array([1e-4]))
        factor, nugget = build_correlation(pts, spec)
        assert np.allclose(factor, np.eye(3), atol=1e-8)

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(size=(6, 2))
        spec = CorrelationSpec(lengths=np.array([0.5, 0.8]))
        factor, nugget = build_correlation(pts, spec, nugget=1e-10)
        target = np.array([[corr_gaussian(a, b, spec) for b in pts] for a in pts])
        assert np.allclose(factor @ factor.T, target + nugget * np.eye(6), rtol=1e-8)


class TestGlsAndSigma:
    def test_constant_responses(self):
        pts = np.array([[0.0], [0.4], [1.0]])
        spec = CorrelationSpec(lengths=np.array([0.7]))
        factor, _ = build_correlation(pts, spec, nugget=1e-12)
        y = np.full(3, 3.25)
        beta = gls_beta(factor, y)
        assert beta == pytest.approx(3.25, rel=1e-12)
        assert mle_sigma2(factor, y, beta) <= 1e-20  # floor engaged

    def test_identity_correlation_reduces_to_ols(self):
        pts = np.array([[0.0], [10.0], [20.0], [30.0]])
        spec = CorrelationSpec(lengths=np.array([1e-5]))
        factor, _ = build_correlation(pts, spec)
        y = np.array([1.0, 2.0, 4.0, 9.0])
        assert gls_beta(factor, y) == pytest.approx(y.mean(), rel=1e-9)
        beta = gls_beta(factor, y)
        assert mle_sigma2(factor, y, beta) == pytest.approx(y.var(), rel=1e-9)

    def test_matches_dense_inverse(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(size=(4, 2))
        y = rng.normal(size=4)
        lengths = np.array([0.6, 1.1])
        spec = CorrelationSpec(lengths=lengths)
        factor, _ = build_correlation(pts, spec, nugget=0.0)
        _, _, beta_ref, sigma2_ref = dense_reference(pts, y, lengths)
        assert gls_beta(factor, y) == pytest.approx(beta_ref, abs=1e-10)
        assert mle_sigma2(factor, y, gls_beta(factor, y)) == pytest.approx(sigma2_ref, abs=1e-10)


class TestNegLogLikelihood:
    def test_matches_gaussian_density(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(size=(3, 1))
        y = rng.normal(size=3)
        lengths = np.array([0.9])
        nll = neg_log_likelihood(pts, y, CorrelationSpec(lengths=lengths), nugget=0.0)
        r_mat, rinv, beta, sigma2 = dense_reference(pts, y, lengths)
        cov = sigma2 * r_mat
        quad = (y - beta) @ np.linalg.inv(cov) @ (y - beta)
        neg_log_density = 0.5 * (3 * math.log(2 * math.pi) + np.linalg.slogdet(cov)[1] + quad)
        assert nll == pytest.approx(neg_log_density - 1.5 * math.log(2 * math.pi), rel=1e-9)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(size=(5, 2))
        y = rng.normal(size=5)
        spec = CorrelationSpec(lengths=np.array([0.4, 0.9]))
        base = neg_log_likelihood(pts, y, spec, nugget=1e-10)
        perm = rng.permutation(5)
        assert neg_log_likelihood(pts[perm], y[perm], spec, nugget=1e-10) == pytest.approx(
            base, rel=1e-10
        )

    def test_worse_far_from_optimum(self):
        rng = np.random.default_rng(2)
        design = rng.uniform(size=(12, 2))
        y = np.sin(3 * design[:, 0]) + design[:, 1] ** 2
        model = fit_gp(design, y, FitConfig(multistarts=4, seed=0))
        lengths = model.corr.lengths
        pts_norm = model.normalized_design()
        best = neg_log_likelihood(pts_norm, y, CorrelationSpec(lengths=lengths), model.nugget)
        for factor in (200.0, 1.0 / 200.0):
            worse = neg_log_likelihood(
                pts_norm, y, CorrelationSpec(lengths=np.clip(lengths * factor, 1e-3, 1e3)),
                model.nugget,
            )
            assert worse > best


class TestLikelihoodGradient:
    def test_value_is_neg_log_likelihood(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(size=(9, 3))
        y = rng.normal(size=9)
        spec = CorrelationSpec(lengths=np.array([0.3, 0.8, 2.0]))
        assert neg_log_likelihood(pts, y, spec, 1e-10) == likelihood_with_gradient(
            pts, y, spec, 1e-10
        )[0]

    def test_matches_central_differences(self):
        # in the log-lengths, on designs with cond(K) < 1e6: beyond that,
        # roundoff in the solves makes the comparison noisy (3e-2 seen)
        h = 1e-4
        worst, checked = 0.0, 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n, d = int(rng.integers(5, 15)), int(rng.integers(1, 4))
            pts = rng.uniform(size=(n, d))
            y = rng.normal(size=n)
            phi = rng.uniform(math.log(0.02), math.log(2.0), d)
            spec = CorrelationSpec(lengths=np.exp(phi))
            factor, nugget = build_correlation(pts, spec, 1e-10)
            if np.linalg.cond(factor) ** 2 >= 1e6:
                continue
            checked += 1
            _, grad = likelihood_with_gradient(pts, y, spec, nugget)
            for j in range(d):
                step = h * np.eye(d)[j]
                fd = (
                    neg_log_likelihood(pts, y, CorrelationSpec(lengths=np.exp(phi + step)), nugget)
                    - neg_log_likelihood(pts, y, CorrelationSpec(lengths=np.exp(phi - step)), nugget)
                ) / (2 * h)
                worst = max(worst, abs(fd - grad[j]) / max(abs(fd), 1e-12))
        assert checked >= 20
        assert worst <= 1e-6


class TestFit:
    def test_smooth_function_recovery(self):
        design = lhd_sample(10, 2, seed=4)
        y = 2.0 + 3.0 * design.points[:, 0] - 1.5 * design.points[:, 1]
        model = fit_gp(design, y, FitConfig(multistarts=6, seed=0))
        _, q2 = loo_metrics(model)
        assert q2 > 0.99

    def test_lengths_inside_bounds(self):
        design = lhd_sample(8, 2, seed=9)
        y = np.cos(4.0 * design.points[:, 0]) + design.points[:, 1]
        config = FitConfig(length_bounds=(1e-2, 1e2), multistarts=4, seed=1)
        model = fit_gp(design, y, config)
        assert np.all(model.corr.lengths >= 1e-2) and np.all(model.corr.lengths <= 1e2)

    def test_duplicate_rows_succeed(self):
        pts = np.array([[0.1, 0.1], [0.1, 0.1], [0.6, 0.3], [0.9, 0.8]])
        y = np.array([1.0, 1.0, 2.0, 0.5])
        model = fit_gp(pts, y, FitConfig(multistarts=2, seed=0))
        assert model.nugget > 0


class TestPredict:
    @pytest.fixture
    def model(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(size=(8, 2))
        y = np.sin(2.0 * pts[:, 0]) + 0.5 * pts[:, 1]
        return assemble_gp_model(pts, y, lengths=np.array([0.2, 0.4]), nugget=0.0)

    def test_interpolates_training_points(self, model):
        for x0, y0 in zip(model.design, model.responses):
            mean, var = predict(model, x0)
            assert mean == pytest.approx(y0, rel=1e-6, abs=1e-9)
            assert 0.0 <= var <= 1e-8 * model.sigma2

    def test_far_point_reverts_to_prior(self, model):
        mean, var = predict(model, np.array([60.0, -70.0]))
        assert mean == pytest.approx(model.beta, rel=1e-9)
        # estimated-mean correction leaves sigma2 (1 + 1/(1' Rinv 1))
        assert var == pytest.approx(model.sigma2 * (1.0 + 1.0 / model.ones_solve.sum()), rel=1e-6)

    def test_matches_dense_inverse(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(size=(4, 2))
        y = rng.normal(size=4)
        lengths = np.array([0.5, 0.7])
        model = assemble_gp_model(pts, y, lengths=lengths, nugget=0.0, normalize=False)
        _, rinv, beta, sigma2 = dense_reference(pts, y, lengths)
        spec = CorrelationSpec(lengths=lengths)
        ones = np.ones(4)
        for x0 in rng.uniform(size=(5, 2)):
            r = np.array([corr_gaussian(p, x0, spec) for p in pts])
            mean_ref = beta + r @ rinv @ (y - beta)
            var_ref = sigma2 * (
                1.0 - r @ rinv @ r + (1.0 - ones @ rinv @ r) ** 2 / (ones @ rinv @ ones)
            )
            mean, var = predict(model, x0)
            assert mean == pytest.approx(mean_ref, abs=1e-8)
            assert var == pytest.approx(var_ref, abs=1e-8)

    def test_linear_in_responses(self, model):
        a, b = 2.5, -4.0
        scaled = assemble_gp_model(
            model.design, a * model.responses + b, lengths=model.corr.lengths, nugget=0.0
        )
        for x0 in np.random.default_rng(11).uniform(size=(4, 2)):
            assert predict(scaled, x0)[0] == pytest.approx(
                a * predict(model, x0)[0] + b, rel=1e-9, abs=1e-9
            )

    def test_row_permutation_invariance(self, model):
        rng = np.random.default_rng(13)
        perm = rng.permutation(model.n)
        permuted = assemble_gp_model(
            model.design[perm], model.responses[perm], lengths=model.corr.lengths, nugget=0.0
        )
        for x0 in rng.uniform(size=(5, 2)):
            assert predict(permuted, x0)[0] == pytest.approx(predict(model, x0)[0], abs=1e-10)

    def test_dimension_mismatch(self, model):
        with pytest.raises(ValueError):
            predict(model, np.array([0.5]))

    @pytest.mark.parametrize("d", range(1, 13))
    def test_stacked_kernel_keeps_the_bits_of_one_model_at_a_time(self, d):
        # numpy sums a last axis of 8 or more entries pairwise, so the d axis
        # must stay last for the stacked pass to round like one model alone
        def one_model_means(model, points):
            a = (points - model.x_lo) / model.x_span
            diff = np.abs(a[:, None, :] - model.normalized_design()[None, :, :])
            r = np.exp(-((diff ** np.full(d, 2.0)) / model.corr.lengths).sum(axis=2))
            return model.beta + (r * model.resid_solve).sum(axis=1)

        rng = np.random.default_rng(d)
        design = rng.uniform(-1.0, 3.0, size=(12, d))
        models = [assemble_gp_model(design, rng.normal(size=12), rng.uniform(0.2, 2.0, size=d),
                                    nugget=1e-10) for _ in range(3)]
        for m in (1, 7, 1000):
            points = rng.uniform(-1.5, 3.5, size=(m, d))
            expected = [one_model_means(model, points) for model in models]
            for k in (1, 2, 3):
                means = predict_many(stack_models(models[:k]), points)
                assert means.shape == (m, k)
                for col, want in zip(means.T, expected):
                    assert np.array_equal(col, want)
                assert np.array_equal(predict_many(models[k - 1], points), expected[k - 1])


class TestLooMetrics:
    def test_prediction_metrics_perfect(self):
        y = np.array([1.0, 2.0, 3.0])
        rmse, q2 = prediction_metrics(y, y)
        assert rmse == 0.0 and q2 == 1.0

    def test_prediction_metrics_constant_predictor(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        rmse, q2 = prediction_metrics(y, np.full(4, y.mean()))
        assert q2 == pytest.approx(0.0, abs=1e-14)

    def test_virtual_equals_explicit_refit(self):
        rng = np.random.default_rng(21)
        pts = rng.uniform(size=(6, 2))
        y = np.sin(3.0 * pts[:, 0]) + pts[:, 1]
        lengths = np.array([0.3, 0.6])
        nugget = 1e-10
        model = assemble_gp_model(pts, y, lengths=lengths, nugget=nugget, normalize=False)
        loo_pred = np.empty(6)
        for i in range(6):
            keep = np.arange(6) != i
            sub = assemble_gp_model(pts[keep], y[keep], lengths=lengths, nugget=nugget,
                                    normalize=False)
            loo_pred[i] = predict(sub, pts[i])[0]
        rmse_ref, q2_ref = prediction_metrics(y, loo_pred)
        rmse, q2 = loo_metrics(model)
        assert rmse == pytest.approx(rmse_ref, abs=1e-8)
        assert q2 == pytest.approx(q2_ref, abs=1e-8)

    def test_degenerate_responses(self):
        pts = np.array([[0.0], [0.5], [1.0]])
        model = assemble_gp_model(pts, np.zeros(3), lengths=np.array([1.0]), nugget=1e-8)
        with pytest.raises(DegenerateResponseError):
            loo_metrics(model)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        pts = rng.uniform(size=(7, 3)) * [1.0, 10.0, 100.0]
        y = rng.normal(size=7)
        model = fit_gp(pts, y, FitConfig(multistarts=3, seed=2))
        data = json.loads(json.dumps(gp_model_to_dict(model)))
        clone = gp_model_from_dict(data)
        assert clone.beta == pytest.approx(model.beta, rel=1e-12)
        assert clone.sigma2 == pytest.approx(model.sigma2, rel=1e-12)
        for x0 in rng.uniform(size=(4, 3)) * [1.0, 10.0, 100.0]:
            assert predict(clone, x0) == pytest.approx(predict(model, x0), rel=1e-10)


class TestLoadedModel:
    """A model read back from its dictionary predicts with the in-memory model's bits."""

    @staticmethod
    def reload(model):
        return gp_model_from_dict(json.loads(json.dumps(gp_model_to_dict(model))))

    def test_predict_and_loo_equal_in_memory(self):
        rng = np.random.default_rng(23)
        scale = np.array([1.0, 10.0, 100.0])
        pts = rng.uniform(size=(9, 3)) * scale
        y = np.sin(pts @ [3.0, 0.2, 0.01]) + 0.1 * rng.normal(size=9)
        model = fit_gp(pts, y, FitConfig(multistarts=3, seed=2))
        clone = self.reload(model)
        assert clone.factor is None and clone.ones_solve is None
        assert clone.beta == model.beta and clone.sigma2 == model.sigma2
        new = rng.uniform(size=(6, 3)) * scale
        for x0 in new:
            assert predict(clone, x0) == predict(model, x0)
            assert predict(model, x0)[0] == predict_many(model, x0[None, :])[0]
        assert np.array_equal(predict_many(clone, new), predict_many(model, new))
        assert loo_metrics(clone) == loo_metrics(model)

    def test_escalated_nugget_is_stored(self):
        # a repeated design row makes R singular, so the nugget is escalated
        pts = np.array([[0.0, 0.0], [0.5, 1.0], [0.5, 1.0], [1.0, 0.3], [0.2, 0.8]])
        y = np.array([0.1, 0.7, 0.7, -0.4, 0.5])
        model = assemble_gp_model(pts, y, lengths=np.array([0.4, 0.7]), nugget=0.0)
        assert model.nugget > 0.0
        clone = self.reload(model)
        assert clone.nugget == model.nugget
        for x0 in [[0.3, 0.3], [0.9, 0.9], [0.5, 1.0]]:
            assert predict(clone, x0) == predict(model, x0)
        assert loo_metrics(clone) == loo_metrics(model)

    def test_variance_factors_a_loaded_model_once(self, monkeypatch):
        import dynshape.gp as gp_module

        rng = np.random.default_rng(29)
        pts = rng.uniform(size=(8, 2))
        model = fit_gp(pts, np.cos(3.0 * pts[:, 0]) + pts[:, 1], FitConfig(multistarts=2))
        clone = self.reload(model)
        x0 = rng.uniform(size=2)
        first = predict(clone, x0)
        assert clone.factor is not None and clone.ones_solve is not None
        calls = []
        original = gp_module.build_correlation

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(gp_module, "build_correlation", counted)
        assert predict(clone, x0) == first == predict(model, x0)
        assert calls == []

    def test_malformed_dictionary(self):
        data = gp_model_to_dict(assemble_gp_model(np.eye(3), np.arange(3.0), np.ones(3)))
        data["resid_solve"] = data["resid_solve"][:2]
        with pytest.raises(ValueError, match="n responses and weights"):
            gp_model_from_dict(data)
