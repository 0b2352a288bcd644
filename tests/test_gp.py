import dataclasses
import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynshape import fileio, gp as gp_module
from dynshape.doe import lhd_sample, scale_to_box
from dynshape.emulator import TrainConfig, train
from dynshape.errors import DegenerateResponseError, FitFailureError, IllConditionedDesignError
from dynshape.gp import (
    FitConfig,
    GpModel,
    assemble_gp_model,
    _corr,
    _sq_diff,
    build_correlation,
    fit_gp,
    likelihood_with_gradient,
    loo_metrics,
    predict,
    predict_many,
    prediction_metrics,
    stack_models,
)
from dynshape.synth import co2_default_box, co2_style_spec, generate_functional_sim


def saved_fields(model):
    """The model's fields as a surrogate file stores them."""
    data = fileio._family_to_dict(model)
    del data["kind"]
    return data


def from_saved(fields):
    """The model a surrogate file holding ``fields`` loads to."""
    return fileio._family_from_dict({"kind": "gp", **fields})


def sq_diff(points):
    """The design's squared coordinate differences, n x n x d, as fit_gp forms them."""
    return (points[:, None, :] - points[None, :, :]) ** 2


def unit_columns(points):
    """The points with every column rescaled to span exactly [0, 1]: a model's
    bounding-box normalization is then the identity, bit for bit."""
    lo = points.min(axis=0)
    return (points - lo) / (points.max(axis=0) - lo)


def gauss(a, b, lengths):
    """The Gaussian correlation exp(-sum_j (a_j - b_j)^2 / length_j), written out."""
    return math.exp(-(((a - b) ** 2) / lengths).sum())


def dense_reference(points, responses, lengths, nugget=0.0):
    """Brute-force kriging quantities through an explicit matrix inverse."""
    points = np.asarray(points, dtype=float)
    y = np.asarray(responses, dtype=float)
    n = points.shape[0]
    r_mat = np.array([[gauss(a, b, lengths) for b in points] for a in points])
    r_mat += nugget * np.eye(n)
    rinv = np.linalg.inv(r_mat)
    ones = np.ones(n)
    beta = (ones @ rinv @ y) / (ones @ rinv @ ones)
    sigma2 = (y - beta) @ rinv @ (y - beta) / n
    return r_mat, rinv, beta, sigma2


class TestCorrelation:
    # the one kernel, _corr, between the rows of two point sets
    def test_same_point_is_one(self):
        x = np.array([[0.4, -1.2]])
        assert _corr(x, x, np.array([0.3, 2.0]))[0, 0] == 1.0

    def test_unit_distance_value(self):
        assert _corr(np.array([[0.0]]), np.array([[1.0]]), np.array([1.0]))[0, 0] == pytest.approx(
            math.exp(-1.0), rel=1e-12
        )

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        lengths = rng.uniform(0.1, 5.0, 3)
        x, y = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        np.testing.assert_allclose(_corr(x, y, lengths), _corr(y, x, lengths).T, rtol=1e-14)
        for a, row in zip(x, _corr(x, y, lengths)):
            np.testing.assert_allclose(row, [gauss(a, b, lengths) for b in y], rtol=1e-13)

    @pytest.mark.parametrize("d", range(1, 8))
    def test_ordered_sum_keeps_the_bits_of_numpys_sum_up_to_d_7(self, d):
        # fits, their likelihood evaluations and saved surrogates of d <= 7 keep
        # the bits they had when the kernel summed with sum(axis=-1)
        rng = np.random.default_rng(d)
        a, b = rng.uniform(-1.0, 2.0, size=(40, d)), rng.uniform(-1.0, 2.0, size=(9, d))
        lengths = 10.0 ** rng.uniform(-3.0, 3.0, size=(3, 1, 1, d))
        for stacked_or_alone in (lengths, lengths[0, 0, 0]):
            assert np.array_equal(_corr(a, b, stacked_or_alone),
                                  np.exp(-(_sq_diff(a, b) / stacked_or_alone).sum(axis=-1)))

    def test_nonpositive_length_rejected(self):
        # every entry point that takes lengths from outside checks them
        pts, y = np.array([[0.0, 0.0], [0.5, 1.0], [1.0, 0.2]]), np.array([0.0, 1.0, 2.0])
        model = assemble_gp_model(pts, y, np.array([0.5, 0.5]))
        saved = saved_fields(model)
        for bad in ([1.0, 0.0], [1.0, -2.0], [np.inf, 1.0], [1.0, np.nan]):
            with pytest.raises(ValueError, match="positive and finite"):
                assemble_gp_model(pts, y, np.array(bad))
            with pytest.raises(ValueError, match="positive and finite"):
                from_saved({**saved, "lengths": bad})
            with pytest.raises(ValueError, match="positive and finite"):
                dataclasses.replace(model, lengths=np.array(bad))


class TestBuildCorrelation:
    def test_duplicate_rows_escalate(self):
        pts = np.array([[0.2, 0.2], [0.2, 0.2], [0.8, 0.5]])
        factor, nugget = build_correlation(pts, np.array([1.0, 1.0]), nugget=0.0)
        assert nugget > 0
        rebuilt = factor @ factor.T
        assert np.allclose(np.diag(rebuilt), 1.0 + nugget, rtol=1e-8)

    def test_well_separated_tiny_lengths(self):
        pts = np.array([[0.0], [0.5], [1.0]])
        factor, nugget = build_correlation(pts, np.array([1e-4]))
        assert np.allclose(factor, np.eye(3), atol=1e-8)

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(size=(6, 2))
        lengths = np.array([0.5, 0.8])
        factor, nugget = build_correlation(pts, lengths, nugget=1e-10)
        target = np.array([[gauss(a, b, lengths) for b in pts] for a in pts])
        assert np.allclose(factor @ factor.T, target + nugget * np.eye(6), rtol=1e-8)

    def test_indefinite_corr_raises(self):
        # no nugget up to NUGGET_MAX makes an eigenvalue of -1 positive
        with pytest.raises(IllConditionedDesignError, match="not positive definite"):
            build_correlation(np.eye(2), np.ones(2), corr=np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestGlsAndSigma:
    # beta and sigma2 as assemble_gp_model stores them, on designs that span
    # exactly [0, 1], so the lengths are in the design's own coordinates
    def test_constant_responses(self):
        pts = np.array([[0.0], [0.4], [1.0]])
        y = np.full(3, 3.25)
        model = assemble_gp_model(pts, y, np.array([0.7]), nugget=1e-12)
        assert model.beta == pytest.approx(3.25, rel=1e-12)
        assert model.sigma2 <= 1e-20  # floor engaged

    def test_identity_correlation_reduces_to_ols(self):
        pts = np.array([[0.0], [10.0], [20.0], [30.0]]) / 30.0
        y = np.array([1.0, 2.0, 4.0, 9.0])
        model = assemble_gp_model(pts, y, np.array([1e-5]))
        assert model.beta == pytest.approx(y.mean(), rel=1e-9)
        assert model.sigma2 == pytest.approx(y.var(), rel=1e-9)

    def test_matches_dense_inverse(self):
        rng = np.random.default_rng(3)
        pts = unit_columns(rng.uniform(size=(4, 2)))
        y = rng.normal(size=4)
        lengths = np.array([0.6, 1.1])
        model = assemble_gp_model(pts, y, lengths, nugget=0.0)
        _, _, beta_ref, sigma2_ref = dense_reference(pts, y, lengths)
        assert model.beta == pytest.approx(beta_ref, abs=1e-10)
        assert model.sigma2 == pytest.approx(sigma2_ref, abs=1e-10)


class TestNegLogLikelihood:
    def test_matches_gaussian_density(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(size=(3, 1))
        y = rng.normal(size=3)
        lengths = np.array([0.9])
        nll = likelihood_with_gradient(pts, y, lengths, 0.0, sq_diff(pts))[0]
        r_mat, rinv, beta, sigma2 = dense_reference(pts, y, lengths)
        cov = sigma2 * r_mat
        quad = (y - beta) @ np.linalg.inv(cov) @ (y - beta)
        neg_log_density = 0.5 * (3 * math.log(2 * math.pi) + np.linalg.slogdet(cov)[1] + quad)
        assert nll == pytest.approx(neg_log_density - 1.5 * math.log(2 * math.pi), rel=1e-9)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(size=(5, 2))
        y = rng.normal(size=5)
        lengths = np.array([0.4, 0.9])
        base = likelihood_with_gradient(pts, y, lengths, 1e-10, sq_diff(pts))[0]
        perm = rng.permutation(5)
        permuted = likelihood_with_gradient(pts[perm], y[perm], lengths, 1e-10,
                                            sq_diff(pts[perm]))[0]
        assert permuted == pytest.approx(base, rel=1e-10)

    def test_worse_far_from_optimum(self):
        rng = np.random.default_rng(2)
        design = rng.uniform(size=(12, 2))
        y = np.sin(3 * design[:, 0]) + design[:, 1] ** 2
        model = fit_gp(design, y, FitConfig(multistarts=4, seed=0))
        lengths = model.lengths
        pts_norm = model.normalized_design()
        best = likelihood_with_gradient(pts_norm, y, lengths, model.nugget, sq_diff(pts_norm))[0]
        for factor in (200.0, 1.0 / 200.0):
            worse = likelihood_with_gradient(
                pts_norm, y, np.clip(lengths * factor, 1e-3, 1e3),
                model.nugget, sq_diff(pts_norm),
            )[0]
            assert worse > best


class TestLikelihoodGradient:
    def test_value_is_neg_log_likelihood(self):
        # (1/2) [n log sigma2 + log det K + n] at the sigma2 and factor that
        # assemble_gp_model stores: one concentration step serves both
        rng = np.random.default_rng(4)
        pts = unit_columns(rng.uniform(size=(9, 3)))
        y = rng.normal(size=9)
        lengths = np.array([0.3, 0.8, 2.0])
        model = assemble_gp_model(pts, y, lengths, nugget=1e-10)
        logdet = 2.0 * np.log(np.diag(build_correlation(pts, lengths, 1e-10)[0])).sum()
        nll = likelihood_with_gradient(pts, y, lengths, 1e-10, sq_diff(pts))[0]
        assert nll == 0.5 * (9 * math.log(model.sigma2) + logdet + 9)

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
            factor, nugget = build_correlation(pts, np.exp(phi), 1e-10)
            if np.linalg.cond(factor) ** 2 >= 1e6:
                continue
            checked += 1
            _, grad = likelihood_with_gradient(pts, y, np.exp(phi), nugget, sq_diff(pts))
            for j in range(d):
                step = h * np.eye(d)[j]
                up, down = (np.exp(phi + sign * step) for sign in (1, -1))
                fd = (
                    likelihood_with_gradient(pts, y, up, nugget, sq_diff(pts))[0]
                    - likelihood_with_gradient(pts, y, down, nugget, sq_diff(pts))[0]
                ) / (2 * h)
                worst = max(worst, abs(fd - grad[j]) / max(abs(fd), 1e-12))
        assert checked >= 20
        assert worst <= 1e-6


class TestFit:
    def test_smooth_function_recovery(self):
        design = lhd_sample(10, 2, seed=4).points
        y = 2.0 + 3.0 * design[:, 0] - 1.5 * design[:, 1]
        model = fit_gp(design, y, FitConfig(multistarts=6, seed=0))
        _, q2 = loo_metrics(model)
        assert q2 > 0.99

    def test_lengths_inside_bounds(self):
        design = lhd_sample(8, 2, seed=9).points
        y = np.cos(4.0 * design[:, 0]) + design[:, 1]
        config = FitConfig(length_lo=1e-2, length_hi=1e2, multistarts=4, seed=1)
        model = fit_gp(design, y, config)
        assert np.all(model.lengths >= 1e-2) and np.all(model.lengths <= 1e2)

    def test_duplicate_rows_succeed(self):
        pts = np.array([[0.1, 0.1], [0.1, 0.1], [0.6, 0.3], [0.9, 0.8]])
        y = np.array([1.0, 1.0, 2.0, 0.5])
        model = fit_gp(pts, y, FitConfig(multistarts=2, seed=0))
        assert model.nugget > 0

    def test_failed_factorizations_keep_the_search_going(self, monkeypatch):
        # above length 2 every factorization fails: the 1e25 stand-in steers the search
        # away, and the model comes back at lengths that factor, within the bounds
        design = lhd_sample(10, 2, seed=4).points
        y = 2.0 + 3.0 * design[:, 0] - 1.5 * design[:, 1]
        config = FitConfig(multistarts=6, seed=0)
        assert fit_gp(design, y, config).lengths.max() > 2.0
        original, raised = gp_module.build_correlation, []

        def capped(points, lengths, *args, **kwargs):
            if lengths.max() > 2.0:
                raised.append(lengths)
                raise IllConditionedDesignError("capped")
            return original(points, lengths, *args, **kwargs)

        monkeypatch.setattr(gp_module, "build_correlation", capped)
        model = fit_gp(design, y, config)
        assert raised
        assert np.all(model.lengths >= config.length_lo) and np.all(model.lengths <= 2.0)

    def test_every_start_failing_raises(self, monkeypatch):
        def failing(*args, **kwargs):
            raise IllConditionedDesignError("always")

        monkeypatch.setattr(gp_module, "build_correlation", failing)
        design = lhd_sample(8, 2, seed=9).points
        with pytest.raises(FitFailureError, match="all likelihood-search starts failed"):
            fit_gp(design, np.cos(4.0 * design[:, 0]), FitConfig(multistarts=3, seed=0))

    @pytest.mark.parametrize("where", ["response", "design"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected_before_the_search(self, monkeypatch, where, bad):
        design = lhd_sample(8, 2, seed=9).points.copy()
        y = np.cos(4.0 * design[:, 0]) + design[:, 1]
        if where == "response":
            y[3] = bad
        else:
            design[2, 1] = bad

        def no_search(*args, **kwargs):
            raise AssertionError("the likelihood search ran")

        monkeypatch.setattr("dynshape.gp._minimize_box", no_search)
        with pytest.raises(ValueError, match="must be finite"):
            fit_gp(design, y, FitConfig(multistarts=2, seed=0))


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
        assert var == pytest.approx(model.sigma2 * (1.0 + 1.0 / model.kinv.sum()), rel=1e-6)

    def test_matches_dense_inverse(self):
        rng = np.random.default_rng(7)
        pts = unit_columns(rng.uniform(size=(4, 2)))
        y = rng.normal(size=4)
        lengths = np.array([0.5, 0.7])
        model = assemble_gp_model(pts, y, lengths=lengths, nugget=0.0)
        _, rinv, beta, sigma2 = dense_reference(pts, y, lengths)
        ones = np.ones(4)
        for x0 in rng.uniform(size=(5, 2)):
            r = np.array([gauss(p, x0, lengths) for p in pts])
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
            model.design, a * model.responses + b, lengths=model.lengths, nugget=0.0
        )
        for x0 in np.random.default_rng(11).uniform(size=(4, 2)):
            assert predict(scaled, x0)[0] == pytest.approx(
                a * predict(model, x0)[0] + b, rel=1e-9, abs=1e-9
            )

    def test_row_permutation_invariance(self, model):
        rng = np.random.default_rng(13)
        perm = rng.permutation(model.n)
        permuted = assemble_gp_model(
            model.design[perm], model.responses[perm], lengths=model.lengths, nugget=0.0
        )
        for x0 in rng.uniform(size=(5, 2)):
            assert predict(permuted, x0)[0] == pytest.approx(predict(model, x0)[0], abs=1e-10)

    def test_dimension_mismatch(self, model):
        with pytest.raises(ValueError):
            predict(model, np.array([0.5]))

    @pytest.mark.parametrize("d", range(1, 13))
    def test_stacked_kernel_keeps_the_bits_of_one_model_at_a_time(self, d):
        # the oracle: one model, its scaled squared differences summed in
        # dimension order, ((s_0 + s_1) + s_2) + ...; the stacked pass must round
        # the same way for every d, also past d = 7, where numpy's sum over the
        # last axis turns pairwise and would no longer be this order
        def one_model_means(model, points):
            a = (points - model.x_lo) / model.x_span
            diff = np.abs(a[:, None, :] - model.normalized_design()[None, :, :])
            scaled = (diff ** np.full(d, 2.0)) / model.lengths
            exponent = scaled[:, :, 0]
            for col in range(1, d):
                exponent = exponent + scaled[:, :, col]
            r = np.exp(-exponent)
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
                alone = predict_many(stack_models([models[k - 1]]), points)
                assert np.array_equal(alone[:, 0], expected[k - 1])


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
        # the unit square's corners put each column's minimum and maximum on two
        # rows, so every fold keeps the box and the lengths mean the same
        pts[:4] = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        y = np.sin(3.0 * pts[:, 0]) + pts[:, 1]
        lengths = np.array([0.3, 0.6])
        nugget = 1e-10
        model = assemble_gp_model(pts, y, lengths=lengths, nugget=nugget)
        loo_pred = np.empty(6)
        for i in range(6):
            keep = np.arange(6) != i
            sub = assemble_gp_model(pts[keep], y[keep], lengths=lengths, nugget=nugget)
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
        data = json.loads(json.dumps(saved_fields(model)))
        clone = from_saved(data)
        assert clone.beta == pytest.approx(model.beta, rel=1e-12)
        assert clone.sigma2 == pytest.approx(model.sigma2, rel=1e-12)
        for x0 in rng.uniform(size=(4, 3)) * [1.0, 10.0, 100.0]:
            assert predict(clone, x0) == pytest.approx(predict(model, x0), rel=1e-10)

    def test_saved_keys_are_the_init_fields(self):
        # GpModel's init fields, in order: a family is saved as what rebuilds it
        data = saved_fields(GpModel(np.eye(3), np.arange(3.0), np.ones(3)))
        assert list(data) == [f.name for f in dataclasses.fields(GpModel) if f.init]
        assert list(data) == list(inspect.signature(assemble_gp_model).parameters)


class TestLoadedModel:
    """A model read back from its dictionary predicts with the in-memory model's bits."""

    @staticmethod
    def reload(model):
        return from_saved(json.loads(json.dumps(saved_fields(model))))

    def test_predict_and_loo_equal_in_memory(self):
        rng = np.random.default_rng(23)
        scale = np.array([1.0, 10.0, 100.0])
        pts = rng.uniform(size=(9, 3)) * scale
        y = np.sin(pts @ [3.0, 0.2, 0.01]) + 0.1 * rng.normal(size=9)
        model = fit_gp(pts, y, FitConfig(multistarts=3, seed=2))
        clone = self.reload(model)
        assert np.array_equal(clone.kinv, model.kinv)
        assert np.array_equal(clone.resid_solve, model.resid_solve)
        assert clone.beta == model.beta and clone.sigma2 == model.sigma2
        new = rng.uniform(size=(6, 3)) * scale
        for x0 in new:
            assert predict(clone, x0) == predict(model, x0)
            assert predict(model, x0)[0] == predict_many(stack_models([model]), x0[None, :])[0, 0]
        assert np.array_equal(predict_many(stack_models([clone]), new),
                              predict_many(stack_models([model]), new))
        assert loo_metrics(clone) == loo_metrics(model)

    def test_escalated_nugget_is_stored(self):
        # a repeated design row makes R singular, so the nugget is escalated
        pts = np.array([[0.0, 0.0], [0.5, 1.0], [0.5, 1.0], [1.0, 0.3], [0.2, 0.8]])
        y = np.array([0.1, 0.7, 0.7, -0.4, 0.5])
        model = assemble_gp_model(pts, y, lengths=np.array([0.4, 0.7]), nugget=0.0)
        assert model.nugget == 0.0 and model.used_nugget > 0.0
        assert saved_fields(model)["nugget"] == model.used_nugget
        clone = self.reload(model)
        # the clone asks for the nugget K was factored at, and factors there with no escalation
        assert clone.nugget == clone.used_nugget == model.used_nugget
        for x0 in [[0.3, 0.3], [0.9, 0.9], [0.5, 1.0]]:
            assert predict(clone, x0) == predict(model, x0)
        assert loo_metrics(clone) == loo_metrics(model)

    def test_variance_factors_a_loaded_model_once(self, tmp_path, monkeypatch):
        # load_surrogate factors each GP family's K once; the variance and LOO factor nothing more
        rng = np.random.default_rng(29)
        box = co2_default_box()
        design = scale_to_box(lhd_sample(8, 3, seed=1), box)
        surrogate = train(design, generate_functional_sim(co2_style_spec(j=11), design),
                          TrainConfig(gp=FitConfig(multistarts=2)), box=box)
        path = str(tmp_path / "surrogate.json")
        fileio.save_surrogate(path, surrogate)
        calls = []
        original = gp_module.build_correlation

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(gp_module, "build_correlation", counted)
        models = fileio.load_surrogate(path).models
        gps = [name for name, model in models.items() if isinstance(model, GpModel)]
        assert gps and len(calls) == len(gps)
        calls.clear()
        for name in gps:
            x0 = rng.uniform(size=3) * (box.upper - box.lower) + box.lower
            assert predict(models[name], x0) == predict(surrogate.models[name], x0)
            assert loo_metrics(models[name]) == loo_metrics(surrogate.models[name])
        assert calls == []

    def test_malformed_dictionary(self):
        # GpModel checks the saved fields once, however it is built; derived fields are not inputs
        model = assemble_gp_model(np.eye(3), np.arange(3.0), np.ones(3))
        data = saved_fields(model)
        for key, bad in [("responses", [0.0, 1.0]), ("design", [1.0, 2.0, 3.0]),
                         ("design", np.ones((3, 2)).tolist()), ("lengths", [1.0, 1.0])]:
            with pytest.raises(ValueError, match="n responses and d lengths"):
                from_saved({**data, key: bad})
            with pytest.raises(ValueError, match="n responses and d lengths"):
                GpModel(**{**data, key: np.asarray(bad)})
        for key in ("resid_solve", "kinv", "beta", "used_nugget"):
            with pytest.raises(ValueError, match=key):
                dataclasses.replace(model, **{key: getattr(model, key)})

    @pytest.mark.parametrize("change", ["lengths", "nugget", "responses"])
    def test_replaced_model_derives_anew(self, change):
        # replacing a saved field refactors K, so no model holds another model's weights
        rng = np.random.default_rng(31)
        design, y = rng.uniform(size=(7, 2)), rng.normal(size=7)
        model = GpModel(design, y, np.array([0.3, 0.8]), 1e-10)
        new = {"lengths": np.array([0.6, 0.2]), "nugget": 1e-6, "responses": y[::-1].copy()}[change]
        replaced = dataclasses.replace(model, **{change: new})
        fresh = GpModel(**{"design": design, "responses": y, "lengths": model.lengths,
                           "nugget": 1e-10, change: new})
        assert np.array_equal(replaced.kinv, fresh.kinv)
        assert np.array_equal(replaced.resid_solve, fresh.resid_solve)
        assert (replaced.beta, replaced.sigma2) == (fresh.beta, fresh.sigma2)
        assert not np.array_equal(replaced.resid_solve, model.resid_solve)
