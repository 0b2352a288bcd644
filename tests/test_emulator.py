import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import TWO_PI
from dynshape.doe import DesignMatrix, InputBox, lhd_sample, scale_to_box
from dynshape.emulator import (
    FAMILIES,
    FunctionalSurrogate,
    TrainConfig,
    benchmark_against_per_step,
    predict_curve,
    predict_curves,
    train,
    validate,
)
from dynshape.errors import TrainingError
from dynshape.gp import FitConfig, GpModel, loo_metrics, predict_many
from dynshape.registration import (
    CurveSet,
    EstimationConfig,
    Pattern,
    deform,
    inverse_fourier,
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
            horizon=spec.horizon,
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
        assert all(surrogate.fixed_components.values())
        pred = predict_curve(surrogate, design.points[3])
        np.testing.assert_allclose(pred.values, common, rtol=1e-9, atol=1e-9)

    def test_zero_vertical_shift_fixed(self):
        design, curves, _ = harness(n=12, v_fn=lambda pts: np.zeros(pts.shape[0]))
        surrogate = train(design, curves, FAST, box=BOX)
        model = surrogate.models["v"]
        assert isinstance(model, float)
        assert abs(model) < 1e-6

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

    def test_dimension_mismatch(self):
        design, curves, _ = harness(n=10)
        surrogate = train(design, curves, FAST, box=BOX)
        with pytest.raises(ValueError):
            predict_curve(surrogate, np.array([0.2, 100.0]))

    def test_single_point_equals_batch_bitwise(self):
        design, curves, _ = harness(n=12, j=41)
        config = TrainConfig(
            block_size=10,
            estimation=EstimationConfig(),
            gp=FitConfig(multistarts=3, seed=0),
        )
        trained = train(design, curves, config, box=BOX)
        assert not any(trained.fixed_components.values())
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
                assert np.array_equal(params[name], predict_many(models[name], points))
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
        bench = benchmark_against_per_step(design, curves, test_design, test_curves, FAST)
        assert bench.sim_predicted.shape == (8, 21)
        assert bench.step_predicted.shape == (8, 21)
        assert bench.sim_train_seconds > 0 and bench.step_train_seconds > 0
        # both methods' crossplots hug the diagonal
        for pred in (bench.sim_predicted, bench.step_predicted):
            r = np.corrcoef(pred.ravel(), bench.test_values.ravel())[0, 1]
            assert r > 0.99
        assert bench.sim_report.mean_q2_unflagged == pytest.approx(
            bench.step_report.mean_q2_unflagged, abs=0.1
        )
