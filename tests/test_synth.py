import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynshape.doe import DesignMatrix, lhd_sample, scale_to_box
from dynshape.registration import align_curves, contrast, make_weights, to_fourier
from dynshape.synth import (
    SimSpec,
    co2_default_box,
    co2_style_spec,
    generate_analytical,
    generate_functional_sim,
    parabola_pattern,
    pressure_pattern,
)

TWO_PI = 2.0 * np.pi


class TestParabola:
    def test_endpoints(self):
        assert parabola_pattern(0.0) == 0.0
        assert parabola_pattern(np.pi) == pytest.approx(5.0, rel=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(t=st.floats(1e-6, TWO_PI - 1e-6))
    def test_symmetry(self, t):
        assert parabola_pattern(t) == pytest.approx(parabola_pattern(TWO_PI - t), rel=1e-9)


class TestAnalyticalGenerator:
    def test_reference_shape_settings(self):
        curves, truth = generate_analytical(101, 5, 0.5, seed=0)
        assert curves.values.shape == (101, 5)
        assert truth.alpha[0] == 1.0 and truth.theta[0] == 0.0 and truth.v[0] == 0.0
        assert np.all(truth.alpha > 0.0) and np.all(truth.alpha <= 1.0)
        assert np.all(truth.theta[1:] > 0.0) and np.all(truth.theta[1:] <= 1.0)

    def test_deterministic_per_seed(self):
        a, _ = generate_analytical(10, 11, 0.3, seed=9)
        b, _ = generate_analytical(10, 11, 0.3, seed=9)
        c, _ = generate_analytical(10, 11, 0.3, seed=10)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_identity_parameters_reproduce_pattern(self):
        curves, _ = generate_analytical(
            4, 21, 0.0, seed=1, alpha_range=(1.0, 1.0), theta_range=(0.0, 0.0), v_range=(0.0, 0.0)
        )
        expected = parabola_pattern(curves.angular_grid)
        for row in curves.values:
            np.testing.assert_allclose(row, expected, atol=1e-14)

    def test_noise_variance_empirical(self):
        # n * J > 1e4 samples; empirical noise variance within 5% of the target
        noisy, truth = generate_analytical(101, 101, 0.5, seed=2)
        clean_vals = (
            truth.alpha[:, None]
            * parabola_pattern(np.mod(noisy.angular_grid[None, :] - truth.theta[:, None], TWO_PI))
            + truth.v[:, None]
        )
        resid = noisy.values - clean_vals
        assert abs(resid.var() / 0.5 - 1.0) < 0.05

    def test_align_round_trip_parabola(self):
        # the parabola is not band limited, so the trigonometric inversion
        # carries interpolation error near the boundary kink; it shrinks with J
        curves101, truth101 = generate_analytical(12, 101, 0.0, seed=3)
        err101 = np.abs(
            align_curves(curves101, truth101).values - parabola_pattern(curves101.angular_grid)
        ).max()
        curves501, truth501 = generate_analytical(12, 501, 0.0, seed=3)
        err501 = np.abs(
            align_curves(curves501, truth501).values - parabola_pattern(curves501.angular_grid)
        ).max()
        assert err101 < 0.1
        assert err501 < err101 / 3.0

    def test_contrast_zero_at_truth_band_limited(self):
        # the pressure pattern's harmonics decay below machine precision well
        # inside the J=55 band, so the Fourier deformation model is exact
        curves, truth = generate_analytical(20, 55, 0.0, seed=4, pattern=pressure_pattern)
        value = contrast(truth, to_fourier(curves), make_weights(55))
        assert value <= 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError):
            generate_analytical(1, 11, 0.0, seed=0)
        with pytest.raises(ValueError):
            generate_analytical(5, 10, 0.0, seed=0)
        with pytest.raises(ValueError):
            generate_analytical(5, 11, -0.1, seed=0)


class TestFunctionalSim:
    def make_design(self, n=10, seed=0):
        return scale_to_box(lhd_sample(n, 3, seed=seed), co2_default_box())

    def test_constant_maps_give_identical_rows(self):
        spec = SimSpec(
            pattern=pressure_pattern,
            alpha_fn=lambda pts: np.full(pts.shape[0], 1.1),
            theta_fn=lambda pts: np.full(pts.shape[0], 0.2),
            v_fn=lambda pts: np.full(pts.shape[0], -0.5),
            box=co2_default_box(),
            j=33,
        )
        curves = generate_functional_sim(spec, self.make_design())
        assert np.all(curves.values == curves.values[0][None, :])

    def test_default_co2_shape(self):
        design = scale_to_box(lhd_sample(30, 3, seed=1), co2_default_box())
        curves = generate_functional_sim(co2_style_spec(j=55), design)
        assert curves.values.shape == (30, 55)
        assert curves.period == 55.0

    def test_theta_out_of_range_rejected(self):
        spec = SimSpec(
            pattern=pressure_pattern,
            alpha_fn=lambda pts: np.ones(pts.shape[0]),
            theta_fn=lambda pts: np.full(pts.shape[0], 3.5),
            v_fn=lambda pts: np.zeros(pts.shape[0]),
            box=co2_default_box(),
            j=33,
        )
        with pytest.raises(ValueError):
            generate_functional_sim(spec, self.make_design())

    def test_points_outside_box_rejected(self):
        spec = co2_style_spec(j=33)
        bad = DesignMatrix(points=np.array([[0.5, 50.0, 0.7]]), normalized=False)
        with pytest.raises(ValueError):
            generate_functional_sim(spec, bad)

    def test_map_ranges_documented(self):
        spec = co2_style_spec()
        pts = scale_to_box(lhd_sample(400, 3, seed=3), co2_default_box()).points
        alpha, theta, v = spec.alpha_fn(pts), spec.theta_fn(pts), spec.v_fn(pts)
        assert np.all((alpha >= 0.7) & (alpha <= 1.3))
        assert np.all((theta >= -0.5) & (theta <= 0.5))
        assert np.all((v >= -2.0) & (v <= 2.0))

    def test_noise_deterministic_per_seed(self):
        design = self.make_design(6)
        a = generate_functional_sim(co2_style_spec(j=33, noise_var=0.2, seed=5), design)
        b = generate_functional_sim(co2_style_spec(j=33, noise_var=0.2, seed=5), design)
        c = generate_functional_sim(co2_style_spec(j=33, noise_var=0.2, seed=6), design)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    @pytest.mark.parametrize("pattern", ["pressure", pressure_pattern(TWO_PI * np.arange(33) / 33)])
    def test_non_callable_pattern_rejected(self, pattern):
        spec = co2_style_spec(j=33)
        with pytest.raises(ValueError, match="pattern must be a callable"):
            SimSpec(pattern=pattern, alpha_fn=spec.alpha_fn, theta_fn=spec.theta_fn,
                    v_fn=spec.v_fn, box=spec.box, j=33)
        with pytest.raises(ValueError, match="pattern must be a callable"):
            generate_analytical(5, 33, 0.0, seed=0, pattern=pattern)
