import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import TWO_PI, deform, deformed_curves, trig_pattern
from dynshape import registration
from dynshape.registration import (
    CurveSet,
    EstimationConfig,
    Pattern,
    TransformParams,
    _coarse_start,
    align_curves,
    contrast,
    contrast_with_gradient,
    estimate_params,
    estimate_params_blocked,
    extract_pattern,
    inverse_fourier,
    make_weights,
    rephase,
    to_fourier,
    undeform,
    wrap_angle,
)
from dynshape.synth import generate_analytical, pressure_pattern


def identity_params(n):
    """Every curve at (alpha, theta, v) = (1, 0, 0)."""
    return TransformParams(alpha=np.ones(n), theta=np.zeros(n), v=np.zeros(n))


def wrapped_diff(a, b):
    return np.abs(wrap_angle(a - b))


def random_curveset(seed, n=4, j=21, scale=3.0):
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, scale, size=(n, j))
    return CurveSet(values=values, t_grid=TWO_PI * np.arange(j) / j, period=TWO_PI)


class TestFourier:
    def test_constant_curve_dc_only(self):
        curves = CurveSet(values=np.full((2, 7), 4.5), t_grid=TWO_PI * np.arange(7) / 7,
                          period=TWO_PI)
        coeffs = to_fourier(curves)
        assert coeffs[:, 0] == pytest.approx(4.5, abs=1e-12)
        assert np.abs(coeffs[:, 1:]).max() < 1e-12

    def test_cosine_j5(self):
        j = 5
        grid = TWO_PI * np.arange(j) / j
        curves = CurveSet(values=np.cos(grid)[None, :], t_grid=grid, period=TWO_PI)
        coeffs = to_fourier(curves)
        assert coeffs.shape == (1, 3)
        by_ell = dict(enumerate(coeffs[0]))
        assert by_ell[1] == pytest.approx(0.5, abs=1e-12)
        for ell in (0, 2):
            assert abs(by_ell[ell]) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_round_trip(self, seed):
        curves = random_curveset(seed)
        back = inverse_fourier(to_fourier(curves))
        np.testing.assert_allclose(back, curves.values, rtol=0, atol=1e-10 * 3.0)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_hermitian_symmetry(self, seed):
        # the half spectrum is the l >= 0 part of the full spectrum; the rest is its conjugate
        curves = random_curveset(seed, j=15)
        coeffs = to_fourier(curves)
        full = np.fft.fft(curves.values, axis=1) / curves.j
        assert coeffs.shape == (curves.n, 8) and 2 * coeffs.shape[1] - 1 == curves.j
        np.testing.assert_allclose(coeffs, full[:, :8], atol=1e-12)
        np.testing.assert_allclose(full[:, 8:], np.conj(full[:, 7:0:-1]), atol=1e-12)

    def test_even_j_rejected(self):
        with pytest.raises(ValueError):
            CurveSet(values=np.zeros((2, 8)), t_grid=np.arange(8) / 8, period=1.0)


class TestWeights:
    def test_reference_values(self):
        delta = make_weights(11, beta_exponent=1.5)
        assert delta.shape == (6,)
        by_ell = dict(enumerate(delta))
        assert by_ell[0] == 0.0
        assert by_ell[1] == 1.0
        assert by_ell[2] == pytest.approx(2.0 ** -1.5, rel=1e-12)
        assert by_ell[3] == pytest.approx(3.0 ** -1.5, rel=1e-12)

    def test_truncation(self):
        by_ell = dict(enumerate(make_weights(11, beta_exponent=1.5, l_max=2)))
        assert by_ell[3] == 0.0 and by_ell[5] == 0.0 and by_ell[2] > 0

    def test_even_j_rejected(self):
        with pytest.raises(ValueError):
            make_weights(10)


class TestRephase:
    def test_identity_params_is_noop(self, small_deformed):
        curves, _ = small_deformed
        coeffs = to_fourier(curves)
        out = rephase(coeffs, identity_params(curves.n))
        assert np.array_equal(out, coeffs)

    def test_true_params_collapse_rows(self, small_deformed):
        curves, truth = small_deformed
        out = rephase(to_fourier(curves), truth)
        spread = np.abs(out - out[0][None, :]).max()
        assert spread < 1e-10

    def test_pure_scale_cancels(self):
        curves, truth = deformed_curves([1.0, 2.0], [0.0, 0.0], [0.0, 0.0], j=21)
        out = rephase(to_fourier(curves), truth)
        np.testing.assert_allclose(out[1], out[0], atol=1e-12)

    def test_alpha_floor(self, small_deformed):
        curves, _ = small_deformed
        bad = TransformParams(
            alpha=np.array([1.0, 1e-9, 1.0, 1.0, 1.0]),
            theta=np.zeros(5),
            v=np.zeros(5),
        )
        with pytest.raises(ValueError):
            rephase(to_fourier(curves), bad)


class TestDeformPrimitive:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        half=st.integers(1, 60),
        m=st.integers(1, 5),
    )
    def test_undeform_inverts_deform(self, seed, half, m):
        j = 2 * half + 1
        rng = np.random.default_rng(seed)
        coeffs = np.fft.rfft(rng.normal(0.0, 3.0, j)) / j
        alpha = np.exp(rng.uniform(np.log(0.05), np.log(20.0), m))
        theta = rng.uniform(-10.0, 10.0, m)
        v = rng.uniform(-10.0, 10.0, m)
        back = undeform(deform(coeffs, alpha, theta, v), alpha, theta, v)
        scale = max(np.abs(coeffs).max(), (np.abs(v) / alpha).max())
        np.testing.assert_allclose(back, np.tile(coeffs, (m, 1)), rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 25, 28, 201, 401])
    def test_phases_match_extended_precision(self, width):
        # perfect squares and widths whose last table block runs past the width
        theta = np.array([0.0, 1e-3, -1e-3, np.pi, -np.pi, TWO_PI + 1.0, -(TWO_PI + 1.0)])
        got = registration._phases(theta, width)
        ell = np.arange(width)
        angle = theta.astype(np.longdouble)[:, None] * ell
        bound = 4.0 * np.finfo(float).eps * (1.0 + np.abs(theta)[:, None] * ell)
        assert got.shape == (theta.size, width)
        assert np.all(np.abs(got.real - np.cos(angle)) <= bound)
        assert np.all(np.abs(got.imag - np.sin(angle)) <= bound)
        # the reference curve (theta = 0) and the DC column stay exactly 1 + 0j
        assert np.all(got[0] == 1.0) and np.all(got[:, 0] == 1.0)


def full_spectrum(values):
    """Complex FFT table, integer frequencies in FFT order and squared weights (beta 1.5)."""
    j = values.shape[1]
    ell = np.rint(np.fft.fftfreq(j, d=1.0 / j))
    with np.errstate(divide="ignore"):
        delta2 = np.where(ell == 0, 0.0, np.abs(ell) ** -1.5) ** 2
    return np.fft.fft(values, axis=1) / j, ell, delta2


def full_spectrum_contrast(alpha, theta, values):
    """Contrast and gradients summed over every FFT frequency, the reference oracle,
    plus each gradient entry's sum of term magnitudes (alpha, then theta): the scale
    of the roundoff in a sum whose terms cancel."""
    n = values.shape[0]
    coeffs, ell, delta2 = full_spectrum(values)
    ct = coeffs * np.exp(1j * np.outer(theta, ell)) / alpha[:, None]
    u = ct - ct.mean(axis=0)
    uc = np.conj(u) * ct
    value = (delta2 * np.abs(u) ** 2).sum() / n
    g_alpha = -(2.0 / n) * (delta2 * uc.real).sum(axis=1) / alpha
    g_theta = -(2.0 / n) * (delta2 * ell * uc.imag).sum(axis=1)
    m_alpha = (2.0 / n) * np.abs(delta2 * uc.real).sum(axis=1) / alpha
    m_theta = (2.0 / n) * np.abs(delta2 * ell * uc.imag).sum(axis=1)
    return value, g_alpha[1:], g_theta[1:], m_alpha[1:], m_theta[1:]


class TestHalfSpectrum:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 7), half=st.integers(1, 60))
    @example(seed=7699, n=2, half=57)  # theta gradient 1.13e-13 of max|ref|
    @example(seed=40547, n=2, half=45)  # and 1.54e-13: its terms cancel
    def test_contrast_matches_full_spectrum_oracle(self, seed, n, half):
        rng = np.random.default_rng(seed)
        curves = random_curveset(seed, n=n, j=2 * half + 1)
        coeffs = to_fourier(curves)
        alpha = np.concatenate(([1.0], np.exp(rng.uniform(np.log(0.05), np.log(20.0), n - 1))))
        theta = np.concatenate(([0.0], rng.uniform(-np.pi, np.pi, n - 1)))
        delta2 = make_weights(curves.j) ** 2
        value, g_a, g_t = contrast_with_gradient(alpha, theta, coeffs, delta2)
        ref_value, ref_a, ref_t, size_a, size_t = full_spectrum_contrast(alpha, theta,
                                                                         curves.values)
        assert value == pytest.approx(ref_value, rel=1e-13)
        # each entry's roundoff is bounded relative to its own terms' magnitudes
        for got, ref, size in ((g_a, ref_a, size_a), (g_t, ref_t, size_t)):
            assert np.all(np.abs(got - ref) <= 1e-13 * size), (got, ref, size)

    @pytest.mark.parametrize("seed", range(6))
    def test_coarse_start_matches_full_fft_oracle(self, seed):
        rng = np.random.default_rng(seed)
        j = 41
        theta = np.concatenate(([0.0], rng.uniform(-np.pi, np.pi, 5)))
        alpha = np.concatenate(([1.0], rng.uniform(0.3, 2.0, 5)))
        v = np.concatenate(([0.0], rng.normal(size=5)))
        curves, _ = deformed_curves(alpha, theta, v, j=j, noise_var=0.2, seed=seed)
        coeffs = to_fourier(curves)
        delta2 = make_weights(j) ** 2
        alpha0, theta0 = _coarse_start(coeffs, delta2, j, 0.05, 20.0)
        # the full-spectrum scan: one complex FFT of the weighted cross spectrum
        full, _, full_delta2 = full_spectrum(curves.values)
        corr = np.fft.fft(full_delta2 * np.conj(full) * full[0][None, :], axis=1).real
        s_best = corr.argmax(axis=1)
        expected_theta = wrap_angle(TWO_PI * s_best / j)
        expected_theta[0] = 0.0
        assert np.array_equal(theta0, expected_theta)
        denom = (full_delta2 * np.abs(full) ** 2).sum(axis=1)
        expected_alpha = np.clip(denom / corr[np.arange(6), s_best], 0.05, 20.0)
        np.testing.assert_allclose(alpha0[1:], expected_alpha[1:], rtol=1e-12)

    def test_l_max_slices_to_same_estimates(self, monkeypatch):
        curves, _ = deformed_curves([1.0, 1.3, 0.7, 1.8], [0.0, 0.9, -1.7, 2.2],
                                    [0.0, 1.0, -0.5, 0.2], j=61, noise_var=0.05, seed=3)
        sliced, _ = estimate_params(curves, EstimationConfig(l_max=5))
        # the same zero weights above l = 5, but every frequency kept in the arrays
        make = registration.make_weights
        monkeypatch.setattr(registration, "make_weights",
                            lambda j, beta, l_max: make(j, beta, 5))
        unsliced, _ = estimate_params(curves, EstimationConfig())
        for name in ("alpha", "theta", "v"):
            np.testing.assert_allclose(getattr(sliced, name), getattr(unsliced, name),
                                       rtol=0, atol=1e-12)


class TestContrast:
    def test_single_curve_is_zero(self):
        curves = random_curveset(1, n=1)
        coeffs = to_fourier(curves)
        delta = make_weights(curves.j)
        assert contrast(identity_params(1), coeffs, delta) == 0.0

    def test_zero_at_truth_positive_nearby(self, small_deformed):
        curves, truth = small_deformed
        coeffs = to_fourier(curves)
        delta = make_weights(curves.j)
        at_truth = contrast(truth, coeffs, delta)
        assert at_truth < 1e-18
        rng = np.random.default_rng(0)
        for _ in range(25):
            perturbed = TransformParams(
                alpha=truth.alpha * np.concatenate(([1.0], np.exp(rng.uniform(-0.3, 0.3, 4)))),
                theta=np.concatenate(([0.0], truth.theta[1:] + rng.uniform(-0.4, 0.4, 4))),
                v=truth.v,
            )
            assert contrast(perturbed, coeffs, delta) > at_truth

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        curves = random_curveset(seed, n=5, j=15)
        params = TransformParams(
            alpha=np.concatenate(([1.0], rng.uniform(0.2, 3.0, 4))),
            theta=np.concatenate(([0.0], rng.uniform(-np.pi, np.pi, 4))),
            v=np.concatenate(([0.0], rng.normal(size=4))),
        )
        assert contrast(params, to_fourier(curves), make_weights(15)) >= 0.0

    def test_theta_periodicity(self, small_deformed):
        curves, truth = small_deformed
        coeffs = to_fourier(curves)
        delta = make_weights(curves.j)
        params = TransformParams(
            alpha=truth.alpha,
            theta=np.concatenate(([0.0], truth.theta[1:] + 0.37)),
            v=truth.v,
        )
        shifted = TransformParams(
            alpha=truth.alpha,
            theta=np.concatenate(([0.0], truth.theta[1:] + 0.37 + TWO_PI)),
            v=truth.v,
        )
        a, b = contrast(params, coeffs, delta), contrast(shifted, coeffs, delta)
        assert b == pytest.approx(a, rel=1e-12)

    def test_vertical_shift_immunity_exact(self, small_deformed):
        # delta_0 = 0 removes the DC line entirely: changing a non-reference
        # curve's DC coefficient leaves the contrast bit-identical
        curves, truth = small_deformed
        coeffs = to_fourier(curves)
        delta = make_weights(curves.j)
        base = contrast(truth, coeffs, delta)
        bumped = coeffs.copy()
        bumped[2, 0] += 123.456
        assert contrast(truth, bumped, delta) == base

    def test_vertical_shift_immunity_time_domain(self, small_deformed):
        curves, truth = small_deformed
        delta = make_weights(curves.j)
        base = contrast(truth, to_fourier(curves), delta)
        shifted_values = curves.values.copy()
        shifted_values[3] += 7.25
        curves2 = CurveSet(values=shifted_values, t_grid=curves.t_grid, period=curves.period)
        shifted = contrast(truth, to_fourier(curves2), delta)
        assert shifted == pytest.approx(base, rel=1e-11, abs=1e-18)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_equals_gradient_routine_value(self, seed):
        rng = np.random.default_rng(seed)
        curves = random_curveset(seed, n=5)
        coeffs = to_fourier(curves)
        delta = make_weights(curves.j)
        alpha = np.concatenate(([1.0], np.exp(rng.uniform(np.log(0.05), np.log(20.0), 4))))
        theta = np.concatenate(([0.0], rng.uniform(-10.0, 10.0, 4)))
        params = TransformParams(alpha=alpha, theta=theta,
                                 v=np.concatenate(([0.0], rng.normal(0.0, 5.0, 4))))
        wrapped = wrap_angle(theta)
        wrapped[0] = 0.0
        value = contrast_with_gradient(alpha, wrapped, coeffs, delta ** 2)[0]
        assert contrast(params, coeffs, delta) == value


class TestGradient:
    def test_matches_central_differences(self):
        curves, _ = generate_analytical(6, 31, 0.3, seed=3)
        coeffs = to_fourier(curves)
        delta2 = make_weights(31) ** 2
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(10):
            alpha = np.concatenate(([1.0], rng.uniform(0.3, 2.0, 5)))
            theta = np.concatenate(([0.0], rng.uniform(-2.5, 2.5, 5)))
            _, g_a, g_t = contrast_with_gradient(alpha, theta, coeffs, delta2)
            for k in range(1, 6):
                for vec, grad in ((alpha, g_a), (theta, g_t)):
                    plus, minus = vec.copy(), vec.copy()
                    plus[k] += h
                    minus[k] -= h
                    if vec is alpha:
                        f_p = contrast_with_gradient(plus, theta, coeffs, delta2)[0]
                        f_m = contrast_with_gradient(minus, theta, coeffs, delta2)[0]
                    else:
                        f_p = contrast_with_gradient(alpha, plus, coeffs, delta2)[0]
                        f_m = contrast_with_gradient(alpha, minus, coeffs, delta2)[0]
                    fd = (f_p - f_m) / (2 * h)
                    assert abs(fd - grad[k - 1]) <= 1e-5 * max(abs(fd), 1e-10)


    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 12), half=st.integers(2, 100),
           l_max=st.none() | st.integers(1, 20))
    def test_hessian_matches_central_differences_of_the_gradient(self, seed, n, half, l_max):
        rng = np.random.default_rng(seed)
        j = 2 * half + 1
        curves = random_curveset(seed, n=n, j=j)
        keep = slice(None if l_max is None else l_max + 1)
        coeffs, delta2 = to_fourier(curves)[:, keep], make_weights(j, l_max=l_max)[keep] ** 2
        x = np.concatenate((rng.uniform(0.2, 5.0, n - 1), rng.uniform(-1.0, 1.0, n - 1)))

        def evaluate(x, hessian=False):
            alpha, theta = np.concatenate(([1.0], x[: n - 1])), np.concatenate(([0.0], x[n - 1:]))
            return contrast_with_gradient(alpha, theta, coeffs, delta2, hessian)

        *first, hess = evaluate(x, hessian=True)
        # the Hessian rides along without moving a bit of the value or the gradient
        assert [np.asarray(a).tobytes() for a in first] == [
            np.asarray(a).tobytes() for a in evaluate(x)]
        assert np.array_equal(hess, hess.T)
        fd = np.empty_like(hess)
        for i in range(x.size):
            h = 1e-6 * max(1.0, abs(x[i]))
            plus, minus = x.copy(), x.copy()
            plus[i] += h
            minus[i] -= h
            diff = np.concatenate(evaluate(plus)[1:]) - np.concatenate(evaluate(minus)[1:])
            fd[:, i] = diff / (2 * h)
        assert np.abs(hess - fd).max() <= 1e-6 * np.abs(hess).max()


class TestEstimation:
    def test_band_limited_exact_recovery(self, small_deformed):
        curves, truth = small_deformed
        est, diag = estimate_params(curves, EstimationConfig())
        assert np.abs(est.alpha - truth.alpha).max() < 1e-7
        assert wrapped_diff(est.theta, truth.theta).max() < 1e-7
        assert np.abs(est.v - truth.v).max() < 1e-7
        assert diag.contrast < 1e-15

    def test_parabola_noiseless_recovery(self):
        # aliasing of the non-band-limited pattern shrinks with the grid;
        # at J=501 recovery reaches the 1e-4 scale
        curves, truth = generate_analytical(30, 501, 0.0, seed=4)
        est, _ = estimate_params(curves, EstimationConfig(alpha_min=1e-3, alpha_max=20.0))
        assert np.abs(est.alpha - truth.alpha).max() <= 1e-4
        assert wrapped_diff(est.theta, truth.theta).max() <= 1e-4
        assert np.abs(est.v - truth.v).max() <= 1e-4

    def test_one_search_per_call(self, small_deformed):
        curves, _ = small_deformed
        starts = estimate_params(curves)[1].starts
        assert len(starts) == 1
        assert set(starts[0]) == {"start", "fun", "nit", "message"}
        assert np.isfinite(starts[0]["fun"])

    def test_identical_curves_identity(self):
        values = np.tile(trig_pattern(TWO_PI * np.arange(21) / 21), (2, 1))
        curves = CurveSet(values=values, t_grid=TWO_PI * np.arange(21) / 21, period=TWO_PI)
        est, _ = estimate_params(curves, EstimationConfig())
        assert est.alpha[1] == pytest.approx(1.0, abs=1e-9)
        assert est.theta[1] == pytest.approx(0.0, abs=1e-9)
        assert est.v[1] == pytest.approx(0.0, abs=1e-9)

    def test_noisy_crossplot_slopes(self):
        curves, truth = generate_analytical(60, 301, 0.5, seed=1, alpha_range=(0.3, 1.0))
        est, _ = estimate_params(curves, EstimationConfig())
        for name in ("alpha", "theta", "v"):
            t, e = getattr(truth, name)[1:], getattr(est, name)[1:]
            if name == "theta":
                e = t + wrap_angle(e - t)
            slope = np.polyfit(t, e, 1)[0]
            assert 0.9 <= slope <= 1.1, name

    def test_theta_reported_wrapped(self, small_deformed):
        curves, _ = small_deformed
        est, _ = estimate_params(curves)
        assert np.all(est.theta >= -np.pi) and np.all(est.theta < np.pi)

    def test_reference_ordering_invariance(self, small_deformed):
        curves, _ = small_deformed
        cfg = EstimationConfig()
        est, _ = estimate_params(curves, cfg)
        perm = np.array([0, 3, 1, 4, 2])  # keeps the reference first
        permuted = CurveSet(values=curves.values[perm], t_grid=curves.t_grid,
                            period=curves.period)
        est2, _ = estimate_params(permuted, cfg)
        np.testing.assert_allclose(est2.alpha, est.alpha[perm], atol=1e-6)
        np.testing.assert_allclose(wrap_angle(est2.theta - est.theta[perm]), 0.0, atol=1e-6)
        np.testing.assert_allclose(est2.v, est.v[perm], atol=1e-6)

    def test_needs_two_curves(self):
        curves = random_curveset(0, n=1)
        with pytest.raises(ValueError):
            estimate_params(curves)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_curve_rejected_before_the_search(self, bad):
        # a curve set cannot hold a non-finite value, so none reaches the contrast search
        values = random_curveset(0).values
        values[1, 5] = bad
        with pytest.raises(ValueError, match="curve values must be finite"):
            CurveSet(values=values, t_grid=TWO_PI * np.arange(21) / 21, period=TWO_PI)


class TestBlocked:
    def test_single_block_identical(self, small_deformed):
        curves, _ = small_deformed
        cfg = EstimationConfig()
        solo, _ = estimate_params(curves, cfg)
        for block_size in (curves.n - 1, curves.n + 5):  # one block holds every curve
            blocked, diags = estimate_params_blocked(curves, block_size=block_size, config=cfg)
            assert np.array_equal(solo.alpha, blocked.alpha)
            assert np.array_equal(solo.theta, blocked.theta)
            assert np.array_equal(solo.v, blocked.v)
            assert len(diags) == 1

    def test_one_curve_is_rejected(self, small_deformed):
        curves, _ = small_deformed
        one = CurveSet(values=curves.values[:1], t_grid=curves.t_grid, period=curves.period)
        with pytest.raises(ValueError, match="at least 2 curves"):
            estimate_params_blocked(one, block_size=10)

    def test_blocked_recovery_any_k(self, small_deformed):
        curves, truth = small_deformed
        for k in (1, 2, 3):
            est, diags = estimate_params_blocked(curves, k, EstimationConfig())
            assert len(diags) == int(np.ceil((curves.n - 1) / k))
            assert np.abs(est.alpha - truth.alpha).max() < 1e-7
            assert wrapped_diff(est.theta, truth.theta).max() < 1e-7
            assert np.abs(est.v - truth.v).max() < 1e-7


class TestPatternAndAlign:
    def test_pattern_of_identical_curves(self):
        grid = TWO_PI * np.arange(21) / 21
        values = np.tile(trig_pattern(grid), (3, 1))
        curves = CurveSet(values=values, t_grid=grid, period=TWO_PI)
        pattern = extract_pattern(to_fourier(curves), identity_params(3))
        np.testing.assert_allclose(pattern.values, values[0], atol=1e-12)

    @pytest.mark.parametrize("values", [5.0, True, None, np.zeros(20), np.zeros(1),
                                        np.zeros((3, 3))],
                             ids=["number", "bool", "none", "even", "one", "2-d"])
    def test_pattern_values_odd_1d(self, values):
        # the rule a CurveSet's grid keeps; an even J predicted J + 1 columns
        with pytest.raises(ValueError, match="odd length >= 3"):
            Pattern(values=values)

    def test_pattern_matches_truth(self, small_deformed):
        curves, truth = small_deformed
        pattern = extract_pattern(to_fourier(curves), truth)
        np.testing.assert_allclose(pattern.values, trig_pattern(curves.t_grid), atol=1e-8)

    def test_noisy_pattern_beats_raw_mean(self):
        curves, truth = generate_analytical(101, 101, 0.5, seed=5)
        est, _ = estimate_params(curves, EstimationConfig())
        pattern = extract_pattern(to_fourier(curves), est)
        from dynshape.synth import parabola_pattern

        f_true = parabola_pattern(curves.angular_grid)
        rmse_pattern = np.sqrt(np.mean((pattern.values - f_true) ** 2))
        rmse_raw = np.sqrt(np.mean((curves.values.mean(axis=0) - f_true) ** 2))
        assert rmse_pattern < rmse_raw

    def test_align_identity(self, small_deformed):
        curves, _ = small_deformed
        aligned = align_curves(curves, identity_params(curves.n))
        np.testing.assert_allclose(aligned.values, curves.values, atol=1e-10)

    def test_align_recovers_pattern(self, small_deformed):
        curves, truth = small_deformed
        aligned = align_curves(curves, truth)
        expected = trig_pattern(curves.t_grid)
        np.testing.assert_allclose(aligned.values, np.tile(expected, (curves.n, 1)), atol=1e-8)

    def test_align_then_forward_round_trip(self, small_deformed):
        curves, truth = small_deformed
        aligned = align_curves(curves, truth)
        half = to_fourier(aligned)
        for k in range(curves.n):
            one = slice(k, k + 1)
            coeffs = deform(half[k], truth.alpha[one], truth.theta[one], truth.v[one])
            rebuilt = inverse_fourier(coeffs)[0]
            np.testing.assert_allclose(rebuilt, curves.values[k], atol=1e-8)


def sha256_of(*arrays):
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


# sha256 of the estimated (alpha, theta, v), the extracted pattern and the
# aligned curves for generate_analytical(41, 101, 0.01, seed) registered in
# blocks of 10, keyed by (l_max, seed).  They pin where the projected Newton
# search stops under roundoff; LBFGSB_RESULTS below holds it to the answer of
# scipy's L-BFGS-B, which registration used before.
REGISTRATION_SHA256 = {
    (None, 0): ("6842d2b02f02ad7f55d06998dd957d252c5ccfa6b1a9478bf828f208d9cc1ad9",
                "b1dc9865b92ff336b3151cb6d7fb164d1418abff30a7c3a7924a12674d090119",
                "463aaa01666dc13ce66673c0f3c8e3575f5b30ee355b6f8ff1391c088f9820d2"),
    (None, 1): ("aa49108e5161d2770ee3b16386e2f8ea4d6626b97d1fc0e8ce2613c538256109",
                "1c22314dd9be6b594ff12af175fbf185055f253c2a7b55ce6431b916df685d91",
                "f2c63b74bf3b09a0736fee5a1943d55c4a3ca6e7aa59d3018a71c52b5204b2ee"),
    (None, 2): ("39621822b7efd17af8a25c6becb6d71c518f718fccd31d9ea813b07087470eb5",
                "11dfc642d373ee31148c9ccaef5028ccb665ebd657203c27a9390f8794fa14e5",
                "30982cb4f867b4ec402d46058f5ff59b23af5a7d1534d6ecadfe651afbb5dda8"),
    (7, 0): ("3e2f41ca3c44384d6f35dc6cca9dcc53dbd0e2177913935aacd089bdb7650f9f",
             "50346e8974c6dfdb67588ffe60a1dd2a31e646160bfefb943377598d86647d02",
             "fca159ae1295392d047f0a5e8bfe2a2a69904353b7f8ecdce8f4486bf5ed6600"),
    (7, 1): ("80c8e6716ae21096edfb70cbe05a142aec7bdb95d5021282ddc0f505cfceee9b",
             "1bc9dad017fe8195b862398f74be39f9815f30331f0bc0499de78d93e1fe606a",
             "462646b6d064646dbf4d541387e288d1a9200779112eb55179a9db70e3d39130"),
    (7, 2): ("d6cd477a6a77f9be64d515d0dff9e64cd30a6d8d1dc38334d9f6bc8d08dbb515",
             "e2ec0cdff36b5b59b00a7e180d8f8de379ec22e8113687cbeac8de98127eaf6b",
             "1c67d7bd92839d98bed1a02e47e3dac29cebfd99ee87dbc559827ca4cc100f09"),
}

# Where scipy's L-BFGS-B ended on the same cases: the worst block's contrast,
# then alpha, theta and v (8 significant digits).
LBFGSB_RESULTS = {
    (None, 0): (
        0.07717644160390401,
        [1, 0.74845005, 0.98293139, 0.99644048, 0.1869652, 0.08940145, 0.40934715,
         0.27200411, 0.46362178, 0.072646388, 0.18914521, 1.0060172, 0.14257383,
         0.96195575, 0.27077046, 0.82231498, 0.12627429, 0.45268621, 0.70678392,
         0.57659644, 0.97041138, 1.6778522, 0.6236731, 0.66167935, 0.74336706,
         1.1829252, 0.05, 0.05, 0.59105327, 0.65751319, 0.59830119, 0.60788035,
         0.86934244, 0.28500509, 0.48231742, 0.69035022, 0.52498689, 0.10406121,
         0.073113151, 0.6548595, 0.42724947],
        [0, 0.40055807, 0.6592434, 0.60972846, 0.060678484, 0.75083173, 0.36485717,
         0.89035367, 0.18781935, 0.4828646, 0.72401689, 0.1327933, 0.93804987,
         0.67005526, 0.83364376, 0.55479698, 0.26372112, 0.78646193, 0.951103,
         0.58858617, 0.79666954, 0.91577286, 0.4212951, 0.70854969, 0.29984519,
         0.78961237, -0.39827572, 0.45737109, 0.91415789, 0.4006672, 0.079246905,
         0.56924186, 0.046635692, 0.49434218, 0.56647242, 0.38586919, -0.017448984,
         -0.10642354, 0.3854638, 0.2543459, 0.49643243],
        [0, 0.14203869, 0.51233424, 0.23372531, 0.28514165, 0.063843073, 0.82622912,
         0.26267889, 0.030204521, 0.018471223, 0.963488, 0.12138318, 0.035881178,
         0.064065257, 0.86131408, 0.018370127, 0.14946736, 0.18711322, 0.49395621,
         0.77050666, 0.20765242, -2.5852491, -0.24426589, -0.58073797, -0.62801492,
         -1.8229782, 0.80497334, 0.14086215, -0.514251, -0.051532533, -0.6563088,
         1.0055602, 0.23860748, 0.45878045, 0.045573888, 0.9328713, 0.14242075,
         0.96850641, 0.62923464, 0.5414392, 0.047190031],
    ),
    (None, 1): (
        0.02563904095111609,
        [1, 0.056897397, 0.86260835, 0.053429672, 0.67998676, 0.57231157, 0.1649159,
         0.58890593, 0.45479795, 0.98145549, 0.23923387, 0.46702264, 0.66130303,
         0.22155083, 0.68190982, 0.54359649, 0.87060994, 0.59891052, 0.7885408,
         0.74022021, 0.24469858, 1.0186701, 0.71734925, 0.05, 0.05, 0.38366863,
         0.63938957, 1.0296974, 1.1845935, 0.05, 0.68768933, 0.87901386, 0.36181865,
         0.22542554, 0.39352564, 0.081566748, 0.94707842, 0.46863353, 0.54852852,
         0.9240051, 0.3610923],
        [0, 0.4985342, 0.73103139, -0.023737738, 0.47949493, 0.49732177, 0.25826615,
         0.82837916, 0.16335715, 0.32210135, 0.21942705, 0.79256688, 0.18690144,
         0.8284935, 0.92527368, 0.14173176, 0.13708933, 0.1118898, 0.52743631,
         0.71601039, 0.99881933, 0.34521898, 0.27728845, 0.59257532, 0.77665036,
         0.78022174, 0.37196291, 0.20167724, 0.022061208, 1.0892802, 0.51665642,
         0.10442228, 0.61006179, 0.40004797, 0.99087961, 0.29966403, 0.095683674,
         0.1484791, 0.10644883, 0.32731797, 0.73490159],
        [0, 0.74580976, 0.15525222, 0.94705871, 0.20490641, 0.83478347, 0.63383305,
         0.7052107, 0.28969746, 0.79891289, 0.63118133, 0.99307746, 0.77260568,
         0.54141097, 0.95383252, 0.37885278, 0.6271706, 0.27855713, 0.3972864,
         0.56535417, 0.1463667, -0.61256519, -0.49025138, 0.57036631, 0.4247714,
         0.44227529, -0.59796355, -0.24839167, -0.39144659, 0.86828298, 0.067227903,
         0.27139542, 0.35771783, 0.85687103, 0.59259722, 0.57679471, 0.38578448,
         0.55117247, 0.3959425, 0.2169124, 0.28063816],
    ),
    (None, 2): (
        0.0066620751424931405,
        [1, 0.70113172, 0.18821508, 0.91784222, 0.39795451, 0.27784239, 0.81762873,
         0.9522148, 0.72705166, 0.34132101, 0.43341392, 0.98553362, 0.64541226,
         0.37471105, 0.65350345, 0.41787017, 0.05, 0.3697122, 0.71716126, 0.93397753,
         0.75136499, 0.50416825, 0.10745498, 0.21821194, 0.6914154, 0.080670509,
         0.53649086, 0.32029438, 0.89052942, 0.89571107, 0.79783254, 0.11277783,
         0.32963234, 0.15840956, 0.36635839, 0.59169442, 0.49584736, 0.42283076,
         0.1438249, 0.57244632, 0.11040379],
        [0, 0.18119451, 0.45722266, 0.3046067, 0.67174839, 0.46571818, 0.76980833,
         0.90011266, 0.94270446, 0.29152408, 0.54939685, 0.10289019, 0.14998447,
         0.62739939, 0.0080566769, 0.42278818, 0.25670334, 0.5868673, 0.81274512,
         0.82294768, 0.8181584, 0.42361886, 0.95789317, 1.0107952, 0.18263187,
         0.8919955, 0.54562829, 0.51009726, 0.36789614, 0.49369423, 0.048412652,
         0.20688578, 0.45979722, 0.33950893, 0.47595695, 0.024713083, 0.77319137,
         0.31770601, 0.48146158, 0.93351772, 0.68085389],
        [0, 0.20193912, 0.97561733, 0.65845165, 0.99619094, 0.1536608, 0.86144756,
         0.93159809, 0.007110347, 0.54977827, 0.67911891, 0.48721705, 0.34105595,
         0.479902, 0.22848564, 0.81536625, 0.78574153, 0.60539209, 0.20525935,
         0.29856687, 0.052980283, 0.66698275, 0.091318531, 0.066341484, 0.90433032,
         0.78855565, 0.41371622, 0.17256678, 0.95375926, 0.80785258, 0.55805499,
         0.3629781, 0.070545272, 0.11104461, 0.1780482, 0.95765607, -0.018339927,
         0.3175588, 0.89919169, 0.72215259, 0.38746165],
    ),
    (7, 0): (
        0.07707747200951452,
        [1, 0.74830131, 0.98273816, 0.99624403, 0.18692329, 0.089377437, 0.40926501,
         0.27194916, 0.46352918, 0.072627276, 0.18910481, 1.0058876, 0.14254815,
         0.96183168, 0.27073227, 0.82220848, 0.12625066, 0.452627, 0.7066926,
         0.57652149, 0.97028624, 1.6778322, 0.62366022, 0.6616715, 0.74335628,
         1.1829083, 0.05, 0.05, 0.59104624, 0.65750135, 0.59829103, 0.60774497,
         0.86915022, 0.28493924, 0.48220998, 0.69019766, 0.52486856, 0.10403283,
         0.073086945, 0.65471444, 0.42715341],
        [0, 0.40055472, 0.65924205, 0.6097268, 0.060692692, 0.75080892, 0.36484819,
         0.89035609, 0.18782797, 0.48290614, 0.7240046, 0.13279503, 0.93803955,
         0.670059, 0.83365031, 0.5547996, 0.26375307, 0.78645697, 0.95109747,
         0.58858177, 0.79667583, 0.91576263, 0.42129614, 0.7085585, 0.29987165,
         0.78961593, -0.39851908, 0.45749565, 0.91417474, 0.40071479, 0.07923339,
         0.56924439, 0.046635782, 0.4943353, 0.56647544, 0.38587512, -0.017447952,
         -0.10640146, 0.3854618, 0.25434725, 0.49643375],
        [0, 0.14253334, 0.51297684, 0.23437863, 0.28528104, 0.063922933, 0.82650228,
         0.26286165, 0.030512477, 0.018534783, 0.96362237, 0.12181411, 0.035966584,
         0.064477902, 0.86144109, 0.018724308, 0.14954593, 0.18731013, 0.49425992,
         0.77075592, 0.20806857, -2.5851828, -0.24422308, -0.58071188, -0.62797905,
         -1.822922, 0.80497334, 0.14086215, -0.51422764, -0.051493149, -0.65627502,
         1.0060105, 0.23924672, 0.45899945, 0.045931175, 0.93337868, 0.14281428,
         0.96860079, 0.62932179, 0.54192164, 0.047509494],
    ),
    (7, 1): (
        0.025451618834674408,
        [1, 0.056864613, 0.86222598, 0.053391886, 0.67968473, 0.5720555, 0.16483941,
         0.58864499, 0.45459523, 0.98102134, 0.23912513, 0.46699697, 0.661268,
         0.22153523, 0.68187379, 0.54356552, 0.87056415, 0.59887874, 0.78849949,
         0.74018022, 0.24468198, 1.0186632, 0.71734216, 0.05, 0.05, 0.38366067,
         0.63938486, 1.0296875, 1.184584, 0.05, 0.68768103, 0.87889094, 0.3617662,
         0.22538991, 0.39346945, 0.081547221, 0.94694548, 0.46856589, 0.54844984,
         0.92387561, 0.36103955],
        [0, 0.49846155, 0.73103074, -0.023732906, 0.47948833, 0.49733057, 0.25826401,
         0.82837829, 0.16335966, 0.32210101, 0.21942303, 0.7925698, 0.1869006,
         0.82848202, 0.92527494, 0.14173901, 0.13708813, 0.11189116, 0.52743812,
         0.71600759, 0.99882685, 0.34521621, 0.27730448, 0.59243212, 0.7770103,
         0.78023088, 0.37197169, 0.20167896, 0.022043957, 1.0890437, 0.51667638,
         0.10442571, 0.61006407, 0.40004467, 0.99087937, 0.29965254, 0.095688536,
         0.14849281, 0.10646612, 0.32732963, 0.73490747],
        [0, 0.74591871, 0.15652296, 0.94718428, 0.20591015, 0.83563447, 0.63408726,
         0.70607791, 0.29037118, 0.80035574, 0.63154272, 0.99316278, 0.77272209,
         0.54146281, 0.95395229, 0.3789557, 0.62732276, 0.27866276, 0.39742371,
         0.56548705, 0.1464219, -0.61254212, -0.49022782, 0.57036631, 0.4247714,
         0.44230176, -0.5979479, -0.24835874, -0.39141485, 0.86828298, 0.067255467,
         0.2718039, 0.35789214, 0.85698944, 0.59278396, 0.5768596, 0.3862263,
         0.55139728, 0.39620396, 0.21734275, 0.28081347],
    ),
    (7, 2): (
        0.006608148603525255,
        [1, 0.70108766, 0.18819808, 0.91778661, 0.39792933, 0.27782262, 0.81757844,
         0.95215683, 0.72700732, 0.34129852, 0.43338636, 0.98551437, 0.64539836,
         0.37470057, 0.65348966, 0.41786093, 0.05, 0.36970442, 0.71714712, 0.93396037,
         0.7513508, 0.50405483, 0.10742419, 0.21816081, 0.69126019, 0.080642311,
         0.53636986, 0.32022244, 0.89032711, 0.89551076, 0.79765368, 0.11275126,
         0.32957431, 0.1583779, 0.36629367, 0.59159201, 0.49576106, 0.42275682,
         0.14379561, 0.57234597, 0.11038206],
        [0, 0.18120118, 0.45720216, 0.30460498, 0.67174819, 0.4657179, 0.76980866,
         0.90011341, 0.94270295, 0.29151759, 0.54939065, 0.10288195, 0.14997874,
         0.62740988, 0.0080597667, 0.4227961, 0.25674517, 0.58685554, 0.81274935,
         0.82295276, 0.81815487, 0.42360728, 0.95787482, 1.0107901, 0.1826327,
         0.89203088, 0.54563261, 0.51008832, 0.36788611, 0.49369427, 0.048408155,
         0.20687003, 0.4597985, 0.33952716, 0.47595399, 0.024712646, 0.7731887,
         0.31769767, 0.48148258, 0.93350996, 0.68084444],
        [0, 0.20208595, 0.97567399, 0.65863699, 0.99627485, 0.15372669, 0.86161515,
         0.93179127, 0.0072581299, 0.54985321, 0.67921078, 0.48728122, 0.34110227,
         0.47993693, 0.22853157, 0.81539705, 0.78574153, 0.60541801, 0.20530649,
         0.29862407, 0.053027568, 0.66736075, 0.091421134, 0.066511887, 0.90484759,
         0.78864962, 0.41411946, 0.17280652, 0.95443351, 0.80852013, 0.55865107,
         0.36306664, 0.070738671, 0.11115011, 0.17826389, 0.95799738, -0.018052326,
         0.31780522, 0.89928929, 0.72248701, 0.38753407],
    ),
}

class TestPinnedBits:
    @pytest.mark.parametrize("l_max, seed", list(REGISTRATION_SHA256))
    def test_registration_pattern_and_alignment(self, l_max, seed):
        curves, _ = generate_analytical(41, 101, 0.01, seed)
        params, _ = estimate_params_blocked(curves, 10, EstimationConfig(l_max=l_max))
        pattern = extract_pattern(to_fourier(curves), params)
        aligned = align_curves(curves, params)
        got = (sha256_of(params.alpha, params.theta, params.v), sha256_of(pattern.values),
               sha256_of(aligned.values))
        assert got == REGISTRATION_SHA256[(l_max, seed)]

    @pytest.mark.parametrize("l_max, seed", list(REGISTRATION_SHA256))
    def test_newton_search_ends_within_8_evaluations(self, l_max, seed):
        # a count, not a wall time: the Newton steps converge in a handful of evaluations
        curves, _ = generate_analytical(41, 101, 0.01, seed)
        _, diags = estimate_params_blocked(curves, 10, EstimationConfig(l_max=l_max))
        for diag in diags:
            assert diag.starts[0]["message"] in ("projected gradient <= gtol",
                                                 "relative reduction of f <= ftol")
            assert diag.nfev <= 8

    @pytest.mark.parametrize("l_max, seed", list(LBFGSB_RESULTS))
    def test_search_matches_l_bfgs_b(self, l_max, seed):
        curves, _ = generate_analytical(41, 101, 0.01, seed)
        params, diags = estimate_params_blocked(curves, 10, EstimationConfig(l_max=l_max))
        worst, alpha, theta, v = LBFGSB_RESULTS[(l_max, seed)]
        assert max(d.contrast for d in diags) <= worst * (1.0 + 1e-9)
        for got, want in ((params.alpha, alpha), (params.theta, theta), (params.v, v)):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-5)

    def test_deform_and_undeform(self):
        j = 55
        pattern = Pattern(values=pressure_pattern(TWO_PI * np.arange(j) / j))
        alpha, theta = np.linspace(0.5, 2.0, 7), np.linspace(-3.0, 3.0, 7)
        v = np.linspace(-1.0, 1.0, 7)
        coeffs = deform(pattern.coeffs, alpha, theta, v)
        assert sha256_of(inverse_fourier(coeffs)) == (
            "a354603584447ecd1c31820a89551c818d892f317f35661e731cd37a8d103603")
        assert sha256_of(undeform(coeffs, alpha, theta, v)) == (
            "71a63f33a1b72cf754dea630838667773d7a0e9b6aa75fe4b5eb873d240be663")
