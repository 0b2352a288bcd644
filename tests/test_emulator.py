import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import TWO_PI, deform, rolled_curves
from dynshape import fileio
from dynshape.doe import DesignMatrix, InputBox, lhd_sample, scale_to_box
from dynshape.emulator import (
    FAMILIES,
    SHIFT_TERMS,
    FunctionalSurrogate,
    TrainConfig,
    per_step_gp_predictions,
    per_step_report,
    predict_curve,
    predict_curves,
    train,
    validate,
)
from dynshape.errors import TrainingError
from dynshape.gp import FitConfig, GpModel, loo_metrics, predict_many, stack_models
from dynshape.registration import (
    CurveSet,
    EstimationConfig,
    Pattern,
    contrast,
    inverse_fourier,
    make_weights,
    to_fourier,
)
from dynshape.synth import SimSpec, co2_default_box, co2_style_spec, generate_functional_sim

BOX = co2_default_box()
FAST = TrainConfig(
    block_size=10,
    estimation=EstimationConfig(),
    gp=FitConfig(multistarts=4, seed=0),
)


def harness(n=20, j=33, noise_var=0.0, seed=0, design_seed=1, v_fn=None):
    spec = co2_style_spec(j=j, noise_var=noise_var, seed=seed)
    if v_fn is not None:
        spec = SimSpec(
            pattern=spec.pattern,
            alpha_fn=spec.alpha_fn,
            theta_fn=spec.theta_fn,
            v_fn=v_fn,
            box=spec.box,
            j=spec.j,
            noise_var=spec.noise_var,
            seed=spec.seed,
        )
    design = scale_to_box(lhd_sample(n, 3, seed=design_seed), BOX)
    return design, generate_functional_sim(spec, design), spec


class TestTrain:
    def test_parameter_gps_predictive(self):
        design, curves, _ = harness(n=20)
        surrogate = train(design, curves, FAST, box=BOX)
        for name in FAMILIES:
            model = surrogate.models[name]
            assert isinstance(model, GpModel)
            _, q2 = loo_metrics(model)
            assert q2 > 0.9, name

    def test_identical_curves_all_fixed(self):
        design, curves, _ = harness(n=8)
        common = curves.values[0].copy()
        flat = CurveSet(values=np.tile(common, (8, 1)), t_grid=curves.t_grid,
                        period=curves.period)
        surrogate = train(design, flat, FAST, box=BOX)
        assert surrogate.gp_families == ()
        pred = predict_curve(surrogate, design.points[3])
        np.testing.assert_allclose(pred.values, common, rtol=1e-9, atol=1e-9)

    def test_zero_vertical_shift_fixed(self):
        design, curves, _ = harness(n=12, v_fn=lambda pts: np.zeros(pts.shape[0]))
        surrogate = train(design, curves, FAST, box=BOX)
        model = surrogate.models["v"]
        assert isinstance(model, float)
        assert abs(model) < 1e-6

    def test_record_holds_the_run_facts(self, tmp_path):
        design, curves, _ = harness(n=12, v_fn=lambda pts: np.zeros(pts.shape[0]))
        surrogate = train(design, curves, FAST, box=BOX)
        record = surrogate.record
        seconds = record["seconds"]
        assert seconds["registration"] > 0 and seconds["parameter_models"] > 0
        assert seconds["total"] >= seconds["registration"] + seconds["parameter_models"]
        for name in FAMILIES:
            model = surrogate.models[name]
            if isinstance(model, GpModel):
                assert record["families"][name] == {"model": "gp", "loo_q2": loo_metrics(model)[1]}
            else:
                assert record["families"][name] == {"model": "fixed", "fixed_value": model}
        assert {facts["model"] for facts in record["families"].values()} == {"gp", "fixed"}
        delta = make_weights(curves.j, FAST.estimation.beta_exponent, FAST.estimation.l_max)
        assert record["contrast"] == contrast(surrogate.params, to_fourier(curves), delta)
        path = str(tmp_path / "s.json")
        fileio.save_surrogate(path, surrogate)
        assert fileio.load_surrogate(path).record is None

    def test_wrapping_shifts_rejected(self):
        spec = co2_style_spec(j=33)
        wide = SimSpec(
            pattern=spec.pattern,
            alpha_fn=spec.alpha_fn,
            theta_fn=lambda pts: -2.9 + 5.8 * (pts[:, 1] - 10.0) / 290.0,
            v_fn=spec.v_fn,
            box=spec.box,
            j=33,
        )
        design = scale_to_box(lhd_sample(10, 3, seed=2), BOX)
        curves = generate_functional_sim(wide, design)
        with pytest.raises(TrainingError, match="re-reference"):
            train(design, curves, FAST, box=BOX)

    def test_row_count_mismatch(self):
        design, curves, _ = harness(n=10)
        short = DesignMatrix(points=design.points[:-1], normalized=False)
        with pytest.raises(ValueError):
            train(short, curves, FAST, box=BOX)


class TestPredict:
    def test_training_point_reproduces_reconstruction(self):
        design, curves, _ = harness(n=14)
        config = TrainConfig(
            block_size=10,
            estimation=EstimationConfig(),
            gp=FitConfig(multistarts=4, seed=0, nugget_floor=0.0),
        )
        surrogate = train(design, curves, config, box=BOX)
        params = surrogate.params
        i = 5
        pred = predict_curve(surrogate, design.points[i])
        coeffs = deform(surrogate.pattern.coeffs, params.alpha[i : i + 1],
                        params.theta[i : i + 1], params.v[i : i + 1])
        rebuilt = inverse_fourier(coeffs)[0]
        scale = np.abs(rebuilt).max()
        np.testing.assert_allclose(pred.values, rebuilt, rtol=1e-6, atol=1e-6 * scale)

    def test_all_fixed_identity_returns_pattern(self):
        j = 21
        grid = TWO_PI * np.arange(j) / j
        values = 3.0 + np.sin(grid)
        box = InputBox(lower=np.zeros(2), upper=np.ones(2))
        surrogate = FunctionalSurrogate(box=box, t_grid=grid, period=TWO_PI,
                                        pattern=Pattern(values=values),
                                        models={"alpha": 1.0, "theta": 0.0, "v": 0.0})
        pred = predict_curve(surrogate, np.array([0.4, 0.9]))
        np.testing.assert_allclose(pred.values, values, atol=1e-12)
        assert not pred.extrapolated

    def test_held_out_accuracy(self):
        design, curves, spec = harness(n=20)
        surrogate = train(design, curves, FAST, box=BOX)
        test_design = scale_to_box(lhd_sample(20, 3, seed=77), BOX)
        test_curves = generate_functional_sim(spec, test_design)
        report = validate(surrogate, test_design, test_curves)
        assert report.mean_q2_unflagged > 0.9

    def test_output_length_and_extrapolation_flag(self):
        design, curves, _ = harness(n=10)
        surrogate = train(design, curves, FAST, box=BOX)
        inside = predict_curve(surrogate, design.points[0])
        assert inside.values.shape == (curves.j,)
        assert not inside.extrapolated
        outside = predict_curve(surrogate, np.array([0.5, 400.0, 1.2]))
        assert outside.extrapolated
        assert outside.values.shape == (curves.j,)

    def test_non_finite_coordinate_is_flagged(self):
        design, curves, _ = harness(n=10)
        surrogate = train(design, curves, FAST, box=BOX)
        points = np.array([[np.nan, 100.0, 0.7], [np.inf, 100.0, 0.7], design.points[0]])
        _, flags = predict_curves(surrogate, points)
        assert flags.tolist() == [True, True, False]
        assert predict_curve(surrogate, points[0]).extrapolated

    def test_dimension_mismatch(self):
        design, curves, _ = harness(n=10)
        surrogate = train(design, curves, FAST, box=BOX)
        with pytest.raises(ValueError):
            predict_curve(surrogate, np.array([0.2, 100.0]))

    def test_box_of_other_dimensions_rejected(self):
        design, curves, _ = harness(n=10)
        trained = train(design, curves, FAST, box=BOX)
        narrow = InputBox(lower=BOX.lower[:2], upper=BOX.upper[:2])
        with pytest.raises(ValueError, match="GP family designs must have the box's 2 columns"):
            FunctionalSurrogate(box=narrow, t_grid=trained.t_grid, period=trained.period,
                                pattern=trained.pattern, models=trained.models)

    def test_zero_points(self):
        design, curves, _ = harness(n=10)
        surrogate = train(design, curves, FAST, box=BOX)
        none = np.empty((0, 3))
        values, flags = predict_curves(surrogate, none)
        assert values.shape == (0, curves.j) and flags.shape == (0,)
        assert predict_many(surrogate.kernel, none).shape == (0, len(surrogate.gp_families))

    def test_single_point_equals_batch_bitwise(self):
        design, curves, _ = harness(n=12, j=41)
        config = TrainConfig(
            block_size=10,
            estimation=EstimationConfig(),
            gp=FitConfig(multistarts=3, seed=0),
        )
        trained = train(design, curves, config, box=BOX)
        assert trained.gp_families == FAMILIES
        points = scale_to_box(lhd_sample(4, 3, seed=21), BOX).points
        # one, two and three GP families in the shared kernel pass, the others fixed
        for gps in (("alpha",), ("theta",), ("v",), ("alpha", "v"), ("theta", "v"), FAMILIES):
            models = {name: trained.models[name] if name in gps
                      else float(getattr(trained.params, name).mean()) for name in FAMILIES}
            surrogate = FunctionalSurrogate(box=BOX, t_grid=trained.t_grid,
                                            period=trained.period, pattern=trained.pattern,
                                            models=models)
            batch, flags = predict_curves(surrogate, points)
            params = surrogate.evaluate_params(points)
            for name in gps:
                alone = predict_many(stack_models([models[name]]), points)[:, 0]
                assert np.array_equal(params[name], alone)
            for i, x in enumerate(points):
                single = predict_curve(surrogate, x)
                assert np.array_equal(single.values, batch[i])
                assert single.extrapolated == bool(flags[i])
                assert single.params == {name: float(params[name][i]) for name in FAMILIES}

    def test_single_point_equals_its_row_of_a_large_batch(self):
        design, curves, _ = harness(n=20, j=55)
        surrogate = train(design, curves, FAST, box=BOX)
        points = scale_to_box(lhd_sample(1000, 3, seed=31), BOX).points
        batch, _ = predict_curves(surrogate, points)
        for x, row in zip(points, batch):
            assert np.array_equal(predict_curve(surrogate, x).values, row)

    def test_predict_curves_matches_full_spectrum_oracle(self):
        design, curves, _ = harness(n=12, j=41)
        config = TrainConfig(
            block_size=10,
            estimation=EstimationConfig(),
            gp=FitConfig(multistarts=3, seed=0),
        )
        surrogate = train(design, curves, config, box=BOX)
        points = scale_to_box(lhd_sample(7, 3, seed=21), BOX).points
        values, _ = predict_curves(surrogate, points)
        # deform every FFT frequency of the pattern and invert with a complex FFT
        p = surrogate.evaluate_params(points)
        j = surrogate.j
        ell = np.rint(np.fft.fftfreq(j, d=1.0 / j))
        coeffs = np.fft.fft(surrogate.pattern.values) / j
        full = p["alpha"][:, None] * coeffs * np.exp(-1j * np.outer(p["theta"], ell))
        full[:, 0] += p["v"]
        expected = (np.fft.ifft(full, axis=1) * j).real
        scale = np.abs(expected).max()
        np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12 * scale)


def fixed_surrogate(values, alpha, theta, v):
    """A surrogate of the pattern ``values`` whose three families are fixed."""
    j = values.size
    return FunctionalSurrogate(box=InputBox(lower=np.zeros(1), upper=np.ones(1)),
                               t_grid=TWO_PI * np.arange(j) / j, period=TWO_PI,
                               pattern=Pattern(values=values),
                               models={"alpha": alpha, "theta": theta, "v": v})


def long_double_curves(values, alpha, theta, v):
    """alpha f(t_j - theta) + v for the trigonometric interpolant f of ``values``,
    summed directly in long double from a long-double DFT."""
    j = values.size
    two_pi = 8 * np.arctan(np.longdouble(1))
    ell = np.arange(j // 2 + 1)
    grid = two_pi * (np.outer(ell, np.arange(j)) % j) / j  # l t_k, reduced exactly
    x = np.asarray(values, dtype=np.longdouble)
    re, im = np.cos(grid) @ x / j, -(np.sin(grid) @ x) / j
    turn = np.outer(np.asarray(theta, dtype=np.longdouble), ell)
    a = re * np.cos(turn) + im * np.sin(turn)  # c_l e^{-i l theta}
    b = im * np.cos(turn) - re * np.sin(turn)
    curves = 2 * (a @ np.cos(grid) - b @ np.sin(grid)) - a[:, :1]
    return np.asarray(alpha, dtype=np.longdouble)[:, None] * curves + np.asarray(v)[:, None]


def basis_rows(values):
    return fixed_surrogate(values, 1.0, 0.0, 0.0).shift_basis.shape[0]


class TestShiftBasis:
    @staticmethod
    def assert_as_accurate_as_irfft(values, rng):
        """Each curve through the shift basis is within twice the inverse FFT's error of
        a long-double sum, over theta in [-pi, pi], the ties phi = +-1/2 and |theta| = 50."""
        j = values.size
        ties = TWO_PI * (np.arange(-3, 3) + 0.5) / j  # phi = +-1/2
        theta = np.concatenate((np.linspace(-np.pi, np.pi, 161), ties, [-np.pi, np.pi, 50.0, -50.0]))
        alpha = rng.uniform(0.3, 3.0, theta.size)
        v = rng.normal(0.0, 2.0, theta.size)
        basis = np.array([predict_curve(fixed_surrogate(values, a, t, c), [0.5]).values
                          for a, t, c in zip(alpha, theta, v)])
        irfft = inverse_fourier(deform(Pattern(values=values).coeffs, alpha, theta, v))
        exact = long_double_curves(values, alpha, theta, v)
        scale = (alpha * np.abs(values).max() + np.abs(v))[:, None]  # the terms' size
        err_basis = float((np.abs(basis - exact) / scale).max())
        err_irfft = float((np.abs(irfft - exact) / scale).max())
        assert err_basis <= 2.0 * err_irfft

    @pytest.mark.parametrize("j", [3, 21, 55, 401])
    def test_accuracy_against_long_double_sum(self, j):
        rng = np.random.default_rng(j)
        grid = TWO_PI * np.arange(j) / j
        values = 5.0 + np.exp(np.sin(grid)) + 0.3 * np.cos(3 * grid) + rng.normal(0.0, 0.1, j)
        self.assert_as_accurate_as_irfft(values, rng)

    @pytest.mark.parametrize("j", [55, 401])
    def test_smooth_pattern_needs_fewer_rows_and_keeps_the_accuracy(self, j):
        # the rows follow the pattern's own spectrum, whose coefficients fall
        # fast here, not the worst case l = J / 2 that SHIFT_TERMS is sized for
        grid = TWO_PI * np.arange(j) / j
        values = 5.0 + np.exp(np.sin(grid)) + 0.3 * np.cos(3 * grid)
        assert basis_rows(values) < SHIFT_TERMS
        self.assert_as_accurate_as_irfft(values, np.random.default_rng(j))

    @pytest.mark.parametrize("j", [21, 55, 401])
    def test_slowly_decaying_spectrum_keeps_its_rows(self, j):
        rng = np.random.default_rng(j)
        grid = TWO_PI * np.arange(j) / j
        # all of the spectrum at the top frequency is the worst case: every row
        assert basis_rows(np.cos(j // 2 * grid)) == SHIFT_TERMS
        # white noise and a kink (coefficients ~ 1 / l^2) stay near it
        for values in (rng.normal(0.0, 1.0, j), (grid - np.pi) ** 2):
            assert basis_rows(values) >= SHIFT_TERMS - 4
            self.assert_as_accurate_as_irfft(values, rng)

    @pytest.mark.parametrize("j", [3, 5, 21, 55, 401])
    def test_no_pattern_gets_more_than_shift_terms_rows(self, j):
        rng = np.random.default_rng(j)
        grid = TWO_PI * np.arange(j) / j
        impulse = np.zeros(j)
        impulse[0] = 1.0
        for values in (np.zeros(j), np.full(j, 3.0), impulse, np.cos(j // 2 * grid),
                       rng.normal(0.0, 1e-300, j), rng.normal(0.0, 1e300, j),
                       np.exp(np.sin(grid))):
            assert 1 <= basis_rows(values) <= SHIFT_TERMS

    @pytest.mark.parametrize("j", [3, 55, 401])
    def test_constant_pattern_gives_finite_flat_curves(self, j):
        surrogate = fixed_surrogate(np.full(j, 3.0), 1.5, 0.4, -2.0)
        assert surrogate.shift_basis.shape[0] >= 1
        values = predict_curve(surrogate, [0.5]).values
        assert np.isfinite(values).all()
        np.testing.assert_allclose(values, 2.5, rtol=0.0, atol=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), j=st.sampled_from([3, 21, 55, 401]),
           m=st.sampled_from([1, 2, 7, 1000]),
           shifts=st.sampled_from(["any", "one", "own", "special"]))
    @example(seed=1, j=401, m=1000, shifts="one")
    @example(seed=2, j=401, m=7, shifts="own")
    @example(seed=3, j=3, m=1000, shifts="own")
    @example(seed=4, j=55, m=7, shifts="special")
    @example(seed=5, j=401, m=1000, shifts="special")
    def test_shift_groups_equal_the_per_row_roll_bitwise(self, seed, j, m, shifts):
        # any mix of shifts, every row on one shift, every row on its own (cycling
        # when m > J), or theta = +-pi, +-50 and NaN in the first rows of a mix
        rng = np.random.default_rng(seed)
        grid = TWO_PI * np.arange(j) / j
        surrogate = fixed_surrogate(5.0 + np.exp(np.sin(grid)) + rng.normal(0.0, 0.1, j),
                                    1.0, 0.0, 0.0)
        theta, rest = rng.uniform(-np.pi, np.pi, m), rng.uniform(-0.5, 0.5, m) * TWO_PI / j
        if shifts == "one":
            theta = TWO_PI * rng.integers(j) / j + rest
        elif shifts == "own":
            theta = TWO_PI * (np.arange(m) % j) / j + rest
        elif shifts == "special":
            theta[:5] = np.array([np.pi, -np.pi, 50.0, -50.0, np.nan])[:m]
        alpha, v = rng.uniform(0.3, 3.0, m), rng.normal(0.0, 2.0, m)
        params = {"alpha": alpha, "theta": theta, "v": v}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(FunctionalSurrogate, "evaluate_params", lambda self, points: params)
            values, _ = predict_curves(surrogate, np.full((m, 1), 0.5))
        expected = rolled_curves(surrogate.shift_basis[:, :j], alpha, theta, v)
        assert np.array_equal(values, expected, equal_nan=True)
        nan_rows = np.isnan(theta)
        assert np.isnan(values[nan_rows]).all() and np.isfinite(values[~nan_rows]).all()

    def test_theta_and_theta_plus_two_pi_agree(self):
        j = 401
        grid = TWO_PI * np.arange(j) / j
        values = 5.0 + np.exp(np.sin(grid))
        for theta in np.linspace(-np.pi, np.pi, 41):
            one = predict_curve(fixed_surrogate(values, 1.3, theta, 0.2), [0.5]).values
            turned = predict_curve(fixed_surrogate(values, 1.3, theta + TWO_PI, 0.2), [0.5]).values
            np.testing.assert_allclose(turned, one, rtol=0.0, atol=1e-14 * np.abs(one).max())

    def test_single_point_equals_its_row_at_prime_j(self):
        design, curves, _ = harness(n=12, j=401)
        trained = train(design, curves, FAST, box=BOX)
        assert trained.gp_families == FAMILIES
        points = scale_to_box(lhd_sample(1000, 3, seed=31), BOX).points
        for gps in (("theta",), ("alpha", "theta"), FAMILIES):
            models = {name: trained.models[name] if name in gps
                      else float(getattr(trained.params, name).mean()) for name in FAMILIES}
            surrogate = FunctionalSurrogate(box=BOX, t_grid=trained.t_grid,
                                            period=trained.period, pattern=trained.pattern,
                                            models=models)
            batch, _ = predict_curves(surrogate, points)
            for x, row in zip(points, batch):
                assert np.array_equal(predict_curve(surrogate, x).values, row)


class TestValidate:
    def test_self_consistency(self):
        design, curves, _ = harness(n=12)
        surrogate = train(design, curves, FAST, box=BOX)
        test_design = scale_to_box(lhd_sample(9, 3, seed=5), BOX)
        values, _ = predict_curves(surrogate, test_design.points)
        synthetic = CurveSet(values=values, t_grid=curves.t_grid, period=curves.period)
        report = validate(surrogate, test_design, synthetic)
        ok = ~report.flags
        assert np.allclose(report.per_step_rmse, 0.0, atol=1e-12)
        assert np.allclose(report.per_step_q2[ok], 1.0, atol=1e-12)

    def test_constant_test_data_all_flagged(self):
        design, curves, _ = harness(n=12)
        surrogate = train(design, curves, FAST, box=BOX)
        test_design = scale_to_box(lhd_sample(6, 3, seed=5), BOX)
        constant = CurveSet(values=np.ones((6, curves.j)), t_grid=curves.t_grid,
                            period=curves.period)
        report = validate(surrogate, test_design, constant)
        assert report.flags.all()
        assert np.isnan(report.per_step_q2).all()

    def test_low_variance_steps_dip(self):
        # flat-start pattern, shift-only deformation, observation noise: the
        # early steps carry almost no signal variance, so Q2 dips there while
        # the informative middle steps stay high
        def flat_start(t):
            return 100.0 + 38.0 * np.exp(3.0 * (np.cos(t - np.pi) - 1.0))

        spec = SimSpec(
            pattern=flat_start,
            alpha_fn=lambda pts: np.ones(pts.shape[0]),
            theta_fn=lambda pts: -0.4 + 0.8 * (pts[:, 1] - 10.0) / 290.0,
            v_fn=lambda pts: np.zeros(pts.shape[0]),
            box=BOX,
            j=55,
            noise_var=0.25,
            seed=3,
        )
        design = scale_to_box(lhd_sample(25, 3, seed=8), BOX)
        curves = generate_functional_sim(spec, design)
        surrogate = train(design, curves, FAST, box=BOX)
        test_design = scale_to_box(lhd_sample(30, 3, seed=9), BOX)
        spec_test = SimSpec(
            pattern=flat_start, alpha_fn=spec.alpha_fn, theta_fn=spec.theta_fn,
            v_fn=spec.v_fn, box=BOX, j=55, noise_var=0.25, seed=4,
        )
        test_curves = generate_functional_sim(spec_test, test_design)
        report = validate(surrogate, test_design, test_curves)
        early = np.nanmin(report.per_step_q2[:6])
        middle = np.nanmean(report.per_step_q2[20:35])
        assert early < 0.5
        assert middle > 0.8


class TestEquivariance:
    def test_common_time_rotation(self):
        design, curves, _ = harness(n=14)
        surrogate = train(design, curves, FAST, box=BOX)
        shift = 7
        rotated = CurveSet(values=np.roll(curves.values, shift, axis=1),
                           t_grid=curves.t_grid, period=curves.period)
        surrogate2 = train(design, rotated, FAST, box=BOX)
        test_points = scale_to_box(lhd_sample(6, 3, seed=17), BOX).points
        base, _ = predict_curves(surrogate, test_points)
        moved, _ = predict_curves(surrogate2, test_points)
        np.testing.assert_allclose(moved, np.roll(base, shift, axis=1), rtol=1e-6, atol=1e-6)

    def test_output_scaling(self):
        design, curves, _ = harness(n=14, v_fn=lambda pts: np.zeros(pts.shape[0]))
        factor = 3.7
        scaled = CurveSet(values=factor * curves.values, t_grid=curves.t_grid,
                          period=curves.period)
        surrogate = train(design, curves, FAST, box=BOX)
        surrogate2 = train(design, scaled, FAST, box=BOX)
        test_points = scale_to_box(lhd_sample(6, 3, seed=18), BOX).points
        base, _ = predict_curves(surrogate, test_points)
        big, _ = predict_curves(surrogate2, test_points)
        np.testing.assert_allclose(big, factor * base, rtol=1e-6)


    @settings(max_examples=10, deadline=None)
    @given(design_seed=st.integers(0, 2**16), shift=st.integers(0, 32),
           factor=st.floats(0.25, 4.0))
    @example(design_seed=193, shift=0, factor=2.0)  # once lost to roundoff in registration
    def test_rotation_and_scaling_across_designs(self, design_seed, shift, factor):
        # the c10 invariants on drawn designs, rotations and scales, with the same bound
        design, curves, _ = harness(n=14, design_seed=design_seed,
                                    v_fn=lambda pts: np.zeros(pts.shape[0]))
        moved = CurveSet(values=factor * np.roll(curves.values, shift, axis=1),
                         t_grid=curves.t_grid, period=curves.period)
        test_points = scale_to_box(lhd_sample(6, 3, seed=17), BOX).points
        base, _ = predict_curves(train(design, curves, FAST, box=BOX), test_points)
        got, _ = predict_curves(train(design, moved, FAST, box=BOX), test_points)
        want = factor * np.roll(base, shift, axis=1)
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()


class TestBenchmark:
    def test_reports_and_crossplot(self):
        design, curves, spec = harness(n=16, j=21)
        test_design = scale_to_box(lhd_sample(8, 3, seed=33), BOX)
        test_curves = generate_functional_sim(spec, test_design)
        sim_predicted, _ = predict_curves(train(design, curves, FAST), test_design.points)
        step_predicted = per_step_gp_predictions(design, curves, test_design.points, FAST.gp)
        assert sim_predicted.shape == (8, 21)
        assert step_predicted.shape == (8, 21)
        # both methods' crossplots hug the diagonal
        for pred in (sim_predicted, step_predicted):
            r = np.corrcoef(pred.ravel(), test_curves.values.ravel())[0, 1]
            assert r > 0.99
        sim, step = (per_step_report(pred, test_curves.values)
                     for pred in (sim_predicted, step_predicted))
        assert sim.mean_q2_unflagged == pytest.approx(step.mean_q2_unflagged, abs=0.1)
