"""Acceptance suite: one test per acceptance criterion, each printing a
single pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

Criteria 1 and 5b assert the stated 1e-3 recovery tolerance on the exact
parabola benchmark at J=101; the vertical-shift component is expected to
fail there (see the repository notes on sampling aliasing of non-band-limited
patterns).  Every other criterion is expected green.
"""
import time

import numpy as np
import pytest

from conftest import TWO_PI, deformed_curves
from dynshape.doe import lhd_sample, maximin_lhd, min_pairwise_distance, scale_to_box
from dynshape.emulator import (
    TrainConfig,
    predict_curves,
    train,
    validate,
)
from dynshape.gp import (
    FitConfig,
    assemble_gp_model,
    fit_gp,
    loo_metrics,
    predict,
    prediction_metrics,
)
from dynshape.registration import (
    CurveSet,
    EstimationConfig,
    TransformParams,
    contrast,
    contrast_with_gradient,
    estimate_params,
    estimate_params_blocked,
    extract_pattern,
    inverse_fourier,
    make_weights,
    to_fourier,
    wrap_angle,
)
from dynshape.synth import (
    co2_default_box,
    co2_style_spec,
    generate_analytical,
    generate_functional_sim,
    parabola_pattern,
    pressure_pattern,
)

BOX = co2_default_box()


def report(criterion, ok, detail):
    line = f"criterion {criterion} [{'PASS' if ok else 'FAIL'}]: {detail}"
    print(line)
    assert ok, line


def recovery_errors(est, truth):
    return (
        np.abs(est.alpha - truth.alpha).max(),
        np.abs(wrap_angle(est.theta - truth.theta)).max(),
        np.abs(est.v - truth.v).max(),
    )


def test_c01_analytical_noiseless_replication():
    t0 = time.perf_counter()
    curves, truth = generate_analytical(101, 101, 0.0, seed=12)
    config = EstimationConfig(alpha_min=1e-3, alpha_max=20.0)
    est, _ = estimate_params(curves, config)
    elapsed = time.perf_counter() - t0
    e_alpha, e_theta, e_v = recovery_errors(est, truth)
    ok = e_alpha <= 1e-3 and e_theta <= 1e-3 and e_v <= 1e-3 and elapsed <= 60.0
    report(
        "01 analytical noiseless recovery <= 1e-3",
        ok,
        f"max err alpha={e_alpha:.2e} theta={e_theta:.2e} v={e_v:.2e}, "
        f"runtime {elapsed:.1f}s (limit 60s)",
    )


def test_c02_analytical_noisy_crossplot():
    curves, truth = generate_analytical(101, 801, 0.5, seed=2, alpha_range=(0.3, 1.0))
    est, _ = estimate_params(curves)
    stats = {}
    ok = True
    for name in ("alpha", "theta", "v"):
        t, e = getattr(truth, name)[1:], getattr(est, name)[1:]
        if name == "theta":
            e = t + wrap_angle(e - t)
        slope = float(np.polyfit(t, e, 1)[0])
        r = float(np.corrcoef(t, e)[0, 1])
        stats[name] = (slope, r)
        ok = ok and (0.9 <= slope <= 1.1) and (r >= 0.95)
    detail = "; ".join(f"{k}: slope={v[0]:.3f}, r={v[1]:.4f}" for k, v in stats.items())
    report("02 noisy crossplot slope in [0.9,1.1], r >= 0.95", ok, detail)


def test_c03_pattern_beats_raw_mean():
    wins = 0
    for seed in range(10):
        curves, _ = generate_analytical(101, 101, 0.5, seed=seed)
        est, _ = estimate_params(curves, EstimationConfig())
        pattern = extract_pattern(to_fourier(curves), est)
        f_true = parabola_pattern(curves.angular_grid)
        rmse_pattern = np.sqrt(np.mean((pattern.values - f_true) ** 2))
        rmse_raw = np.sqrt(np.mean((curves.values.mean(axis=0) - f_true) ** 2))
        wins += rmse_pattern < rmse_raw
    report("03 pattern beats cross-sectional mean on >= 9/10 seeds", wins >= 9,
           f"{wins}/10 seeds improved")


def test_c04_contrast_oracle():
    curves, truth = generate_analytical(30, 55, 0.0, seed=4, pattern=pressure_pattern)
    coeffs = to_fourier(curves)
    delta = make_weights(curves.j)
    at_truth = contrast(truth, coeffs, delta)
    rng = np.random.default_rng(0)
    larger = 0
    for _ in range(100):
        perturbed = TransformParams(
            alpha=truth.alpha * np.concatenate(([1.0], np.exp(rng.uniform(-0.2, 0.2, 29)))),
            theta=np.concatenate(([0.0], truth.theta[1:] + rng.uniform(-0.3, 0.3, 29))),
            v=truth.v,
        )
        larger += contrast(perturbed, coeffs, delta) > at_truth
    ok = at_truth <= 1e-12 and larger == 100
    report("04 contrast oracle (truth <= 1e-12, 100 perturbations larger)", ok,
           f"contrast at truth = {at_truth:.2e}; {larger}/100 perturbations larger")


def test_c05a_blocked_equals_unblocked_bitwise():
    curves, _ = generate_analytical(41, 101, 0.0, seed=12)
    config = EstimationConfig(alpha_min=1e-3, alpha_max=20.0)
    solo, _ = estimate_params(curves, config)
    blocked, _ = estimate_params_blocked(curves, block_size=curves.n - 1, config=config)
    ok = (
        np.array_equal(solo.alpha, blocked.alpha)
        and np.array_equal(solo.theta, blocked.theta)
        and np.array_equal(solo.v, blocked.v)
    )
    report("05a blocked (K >= n-1) equals unblocked bit-for-bit", ok,
           "identical arrays" if ok else "arrays differ")


def test_c05b_blocked_recovery_tolerance():
    curves, truth = generate_analytical(101, 101, 0.0, seed=12)
    config = EstimationConfig(alpha_min=1e-3, alpha_max=20.0)
    est, diags = estimate_params_blocked(curves, block_size=10, config=config)
    e_alpha, e_theta, e_v = recovery_errors(est, truth)
    ok = len(diags) == 10 and e_alpha <= 1e-3 and e_theta <= 1e-3 and e_v <= 1e-3
    report(
        "05b blocked K=10 keeps criterion-1 tolerance",
        ok,
        f"{len(diags)} blocks; max err alpha={e_alpha:.2e} theta={e_theta:.2e} v={e_v:.2e}",
    )


def test_c06_kriging_unit_suite():
    failures = []

    # interpolation at training points, nugget 0
    rng = np.random.default_rng(1)
    pts = rng.uniform(size=(8, 2))
    y = np.sin(2.0 * pts[:, 0]) + 0.5 * pts[:, 1]
    model = assemble_gp_model(pts, y, lengths=np.array([0.2, 0.4]), nugget=0.0)
    rel = max(
        abs(predict(model, x0)[0] - y0) / max(abs(y0), 1e-12)
        for x0, y0 in zip(pts, y)
    )
    if rel > 1e-6:
        failures.append(f"interpolation rel err {rel:.2e}")

    # n=4 dense-inverse oracle for beta, sigma2 and prediction
    rng = np.random.default_rng(7)
    pts4 = rng.uniform(size=(4, 2))
    pts4 = (pts4 - pts4.min(axis=0)) / np.ptp(pts4, axis=0)  # spans [0, 1]: normalizes to itself
    y4 = rng.normal(size=4)
    lengths = np.array([0.5, 0.7])
    model4 = assemble_gp_model(pts4, y4, lengths=lengths, nugget=0.0)
    # R written out, exp(-sum_j (a_j - b_j)^2 / length_j), not through the library's kernel
    r_mat = np.exp(-(((pts4[:, None, :] - pts4[None, :, :]) ** 2) / lengths).sum(axis=-1))
    rinv = np.linalg.inv(r_mat)
    ones = np.ones(4)
    beta_ref = (ones @ rinv @ y4) / (ones @ rinv @ ones)
    sigma2_ref = (y4 - beta_ref) @ rinv @ (y4 - beta_ref) / 4
    if abs(model4.beta - beta_ref) > 1e-8 or abs(model4.sigma2 - sigma2_ref) > 1e-8:
        failures.append("beta/sigma2 oracle mismatch")
    for x0 in rng.uniform(size=(5, 2)):
        r = np.exp(-(((pts4 - x0) ** 2) / lengths).sum(axis=-1))
        mean_ref = beta_ref + r @ rinv @ (y4 - beta_ref)
        var_ref = sigma2_ref * (
            1.0 - r @ rinv @ r + (1.0 - ones @ rinv @ r) ** 2 / (ones @ rinv @ ones)
        )
        mean, var = predict(model4, x0)
        if abs(mean - mean_ref) > 1e-8 or abs(var - var_ref) > 1e-8:
            failures.append("prediction oracle mismatch")
            break

    # virtual LOO equals explicit refit on n=6
    rng = np.random.default_rng(21)
    pts6 = rng.uniform(size=(6, 2))
    # the unit square's corners put each column's minimum and maximum on two
    # rows, so every fold keeps the box and the lengths mean the same
    pts6[:4] = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
    y6 = np.sin(3.0 * pts6[:, 0]) + pts6[:, 1]
    lengths6 = np.array([0.3, 0.6])
    model6 = assemble_gp_model(pts6, y6, lengths=lengths6, nugget=1e-10)
    loo_pred = np.empty(6)
    for i in range(6):
        keep = np.arange(6) != i
        sub = assemble_gp_model(pts6[keep], y6[keep], lengths=lengths6, nugget=1e-10)
        loo_pred[i] = predict(sub, pts6[i])[0]
    rmse_ref, q2_ref = prediction_metrics(y6, loo_pred)
    rmse, q2 = loo_metrics(model6)
    if abs(rmse - rmse_ref) > 1e-8 or abs(q2 - q2_ref) > 1e-8:
        failures.append(f"LOO identity mismatch ({abs(rmse - rmse_ref):.2e})")

    report("06 kriging unit suite (interpolation, dense oracle, LOO identity)",
           not failures, "; ".join(failures) or "all three checks clean")


def _pipeline_config():
    return TrainConfig(
        block_size=10,
        estimation=EstimationConfig(),
        gp=FitConfig(multistarts=6, seed=0),
    )


def test_c07_co2_desk_scale_predictivity():
    t0 = time.perf_counter()
    spec = co2_style_spec(j=55)
    design = scale_to_box(maximin_lhd(30, 3, seed=101, restarts=20), BOX)
    curves = generate_functional_sim(spec, design)
    surrogate = train(design, curves, _pipeline_config(), box=BOX)
    test_design = scale_to_box(lhd_sample(20, 3, seed=707), BOX)
    test_curves = generate_functional_sim(spec, test_design)
    rep = validate(surrogate, test_design, test_curves)
    elapsed = time.perf_counter() - t0
    mean_q2 = rep.mean_q2_unflagged
    ok = mean_q2 >= 0.9 and elapsed <= 300.0
    report(
        "07 desk-scale pipeline mean per-step Q2 >= 0.9",
        ok,
        f"mean q2 = {mean_q2:.4f} over {int((~rep.flags).sum())} unflagged steps "
        f"({int(rep.flags.sum())} flagged), runtime {elapsed:.1f}s (limit 300s)",
    )


def _co2_values_on_raw_grid(spec, design, j_raw):
    """Simulator stand-in evaluated on a raw (possibly even) J-step grid."""
    pts = design.points
    alpha = spec.alpha_fn(pts)
    theta = spec.theta_fn(pts)
    v = spec.v_fn(pts)
    omega = TWO_PI * np.arange(j_raw) / j_raw
    shifted = np.mod(omega[None, :] - theta[:, None], TWO_PI)
    return alpha[:, None] * pressure_pattern(shifted) + v[:, None]


def test_c08_training_cost_scaling():
    from dynshape.fileio import curves_from_arrays

    spec = co2_style_spec()
    design = scale_to_box(maximin_lhd(30, 3, seed=101, restarts=20), BOX)
    config = _pipeline_config()

    # both sides are timed in process CPU time, which other processes sharing
    # the host do not inflate
    grids = (55, 220)
    curves = {
        j_raw: curves_from_arrays(_co2_values_on_raw_grid(spec, design, j_raw),
                                  times=55.0 / j_raw * np.arange(j_raw))[0]
        for j_raw in grids
    }
    # the SIM side is only a handful of fits: best of 3, alternating the grids
    sim_seconds = {j_raw: np.inf for j_raw in grids}
    for _ in range(3):
        for j_raw in grids:
            t0 = time.process_time()
            train(design, curves[j_raw], config, box=BOX)
            sim_seconds[j_raw] = min(sim_seconds[j_raw], time.process_time() - t0)
    # the per-step fits alternate between the grids in equal shares of their
    # columns, so that a slow phase of the host weighs on both sides alike
    shares = {j_raw: np.array_split(np.arange(curves[j_raw].j), curves[55].j) for j_raw in grids}
    step_seconds = dict.fromkeys(grids, 0.0)
    for share in range(curves[55].j):
        for j_raw in grids:
            t0 = time.process_time()
            for col in shares[j_raw][share]:
                fit_gp(design.points, curves[j_raw].values[:, col], config.gp)
            step_seconds[j_raw] += time.process_time() - t0

    sim_ratio = sim_seconds[220] / sim_seconds[55]
    step_ratio = step_seconds[220] / step_seconds[55]
    faster_at_220 = sim_seconds[220] < step_seconds[220]
    ok = sim_ratio < 2.0 and step_ratio >= 3.0 and faster_at_220
    report(
        "08 training-cost scaling (J=55 vs J=220)",
        ok,
        f"sim ratio = {sim_ratio:.2f} (< 2), per-step ratio = {step_ratio:.2f} (>= 3), "
        f"sim total {sim_seconds[220]:.2f}s vs per-step "
        f"{step_seconds[220]:.2f}s at J=220 (process CPU time)",
    )


def test_c09_contrast_gradient_checks():
    curves, _ = generate_analytical(6, 31, 0.3, seed=3)
    coeffs = to_fourier(curves)
    delta2 = make_weights(31) ** 2
    rng = np.random.default_rng(7)
    h = 1e-6
    worst = 0.0
    for _ in range(10):
        alpha = np.concatenate(([1.0], rng.uniform(0.3, 2.0, 5)))
        theta = np.concatenate(([0.0], rng.uniform(-2.5, 2.5, 5)))
        _, g_a, g_t = contrast_with_gradient(alpha, theta, coeffs, delta2)
        for k in range(1, 6):
            a_p, a_m = alpha.copy(), alpha.copy()
            a_p[k] += h
            a_m[k] -= h
            fd = (
                contrast_with_gradient(a_p, theta, coeffs, delta2)[0]
                - contrast_with_gradient(a_m, theta, coeffs, delta2)[0]
            ) / (2 * h)
            worst = max(worst, abs(fd - g_a[k - 1]) / max(abs(fd), 1e-12))
            t_p, t_m = theta.copy(), theta.copy()
            t_p[k] += h
            t_m[k] -= h
            fd = (
                contrast_with_gradient(alpha, t_p, coeffs, delta2)[0]
                - contrast_with_gradient(alpha, t_m, coeffs, delta2)[0]
            ) / (2 * h)
            worst = max(worst, abs(fd - g_t[k - 1]) / max(abs(fd), 1e-12))
    report(
        "09 analytic contrast gradients match central differences",
        worst <= 1e-5,
        f"worst relative deviation {worst:.2e} over 10 random points "
        "(the likelihood gradient has its own central-difference test in test_gp)",
    )


def test_c10_invariant_suite():
    failures = []

    # Latin hypercube stratification
    for n, d, seed in ((7, 2, 0), (16, 4, 5), (30, 3, 9)):
        pts = lhd_sample(n, d, seed).points
        for col in pts.T:
            if sorted(np.floor(col * n).astype(int)) != list(range(n)):
                failures.append("stratification")

    # maximin dominance over its starting design
    base = min_pairwise_distance(lhd_sample(12, 3, seed=[4, 0]).points)
    champ = min_pairwise_distance(maximin_lhd(12, 3, seed=4, restarts=3).points)
    if champ < base:
        failures.append("maximin dominance")

    # DFT round trip
    rng = np.random.default_rng(11)
    values = rng.normal(0.0, 2.0, size=(5, 29))
    curves = CurveSet(values=values, t_grid=TWO_PI * np.arange(29) / 29, period=TWO_PI)
    if np.abs(inverse_fourier(to_fourier(curves)) - values).max() > 1e-10:
        failures.append("DFT round trip")

    # contrast nonnegativity and periodicity
    coeffs = to_fourier(curves)
    delta = make_weights(29)
    params = TransformParams(
        alpha=np.concatenate(([1.0], rng.uniform(0.3, 2.5, 4))),
        theta=np.concatenate(([0.0], rng.uniform(-np.pi, np.pi, 4))),
        v=np.concatenate(([0.0], rng.normal(size=4))),
    )
    m0 = contrast(params, coeffs, delta)
    if m0 < 0:
        failures.append("contrast nonnegativity")
    shifted = TransformParams(
        alpha=params.alpha,
        theta=np.concatenate(([0.0], params.theta[1:] + TWO_PI)),
        v=params.v,
    )
    if abs(contrast(shifted, coeffs, delta) - m0) > 1e-12 * max(m0, 1e-300):
        failures.append("theta periodicity")

    # vertical-shift immunity: the DC line carries zero weight, exactly
    bumped = coeffs.copy()
    bumped[3, 0] += 42.0
    if contrast(params, bumped, delta) != m0:
        failures.append("vertical-shift immunity")

    # pipeline shift equivariance
    spec = co2_style_spec(j=33)
    design = scale_to_box(lhd_sample(14, 3, seed=1), BOX)
    train_curves = generate_functional_sim(spec, design)
    config = TrainConfig(
        block_size=10,
        estimation=EstimationConfig(),
        gp=FitConfig(multistarts=4, seed=0),
    )
    test_points = scale_to_box(lhd_sample(6, 3, seed=17), BOX).points
    surrogate = train(design, train_curves, config, box=BOX)
    base_pred, _ = predict_curves(surrogate, test_points)
    rolled = CurveSet(values=np.roll(train_curves.values, 7, axis=1),
                      t_grid=train_curves.t_grid, period=train_curves.period)
    moved_pred, _ = predict_curves(train(design, rolled, config, box=BOX), test_points)
    shift_err = np.abs(moved_pred - np.roll(base_pred, 7, axis=1)).max()
    if shift_err > 1e-6 * np.abs(base_pred).max():
        failures.append(f"shift equivariance ({shift_err:.2e})")

    # pipeline scale equivariance (vertical shifts held at zero)
    from dynshape.synth import SimSpec

    flat_v = SimSpec(
        pattern=spec.pattern, alpha_fn=spec.alpha_fn, theta_fn=spec.theta_fn,
        v_fn=lambda pts: np.zeros(pts.shape[0]), box=spec.box, j=33,
    )
    curves_v0 = generate_functional_sim(flat_v, design)
    scaled = CurveSet(values=3.7 * curves_v0.values, t_grid=curves_v0.t_grid,
                      period=curves_v0.period)
    pred_a, _ = predict_curves(train(design, curves_v0, config, box=BOX), test_points)
    pred_b, _ = predict_curves(train(design, scaled, config, box=BOX), test_points)
    scale_err = np.abs(pred_b - 3.7 * pred_a).max() / np.abs(3.7 * pred_a).max()
    if scale_err > 1e-6:
        failures.append(f"scale equivariance ({scale_err:.2e})")

    report("10 invariant suite", not failures, "; ".join(failures) or "all invariants hold")
