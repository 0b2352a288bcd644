"""End-to-end pipeline: registration plus kriging of the deformation maps.

Training registers the curves to a common pattern, then fits one GP per
deformation-parameter family (amplitude scale, time shift, vertical shift)
over the experimental design.  Prediction evaluates the GP families' means at
a new input in one kernel pass over their shared design and applies the
forward deformation to the pattern, so a full output curve costs one kernel
pass and one inverse FFT regardless of the number of time steps.  Families
whose estimated values are numerically constant are held fixed at their mean
instead of being GP-fitted.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .doe import DesignMatrix, InputBox
from .errors import DegenerateResponseError, FitFailureError, EstimationFailureError, TrainingError
from .gp import (FitConfig, GpModel, GpStack, fit_gp, predict_many, prediction_metrics,
                 stack_models)
from .registration import (
    CurveSet,
    EstimationConfig,
    Pattern,
    TransformParams,
    deform,
    estimate_params_blocked,
    extract_pattern,
    inverse_fourier,
    to_fourier,
)

__all__ = [
    "TrainConfig",
    "FunctionalSurrogate",
    "CurvePrediction",
    "ValidationReport",
    "BenchmarkReport",
    "train",
    "predict_curve",
    "predict_curves",
    "validate",
    "benchmark_against_per_step",
]

FAMILIES = ("alpha", "theta", "v")
MIN_TRAINING_CURVES = 4


@dataclass(frozen=True)
class TrainConfig:
    """Pipeline settings: registration block size, GP settings, fixing rules."""

    block_size: int = 10
    var_fix_tol: float = 1e-10  # families with var <= tol * max(1, scale^2) are fixed
    estimation: EstimationConfig = field(default_factory=EstimationConfig)
    gp: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self):
        if self.block_size < 1:
            raise ValueError("block size must be >= 1")


@dataclass(frozen=True)
class FunctionalSurrogate:
    """Trained curve surrogate: the pattern plus one model per deformation family.

    Each family maps to either a fitted GpModel or a fixed float.  The GP
    families must share one design (ValueError otherwise): construction
    stacks them for :func:`dynshape.gp.predict_many` and fixes the
    extrapolation bounds, so prediction rebuilds neither.
    """

    box: InputBox
    t_grid: np.ndarray
    period: float
    pattern: Pattern
    models: dict
    params: TransformParams = field(repr=False, default=None)
    train_seconds: float = 0.0
    registration_seconds: float = 0.0
    gp_seconds: float = 0.0
    gp_families: tuple = field(init=False, repr=False)
    kernel: GpStack | None = field(init=False, repr=False)  # stack of the gp_families
    inside: tuple = field(init=False, repr=False)  # (lower, upper) beyond which points extrapolate

    def __post_init__(self):
        names = tuple(name for name in FAMILIES if isinstance(self.models[name], GpModel))
        object.__setattr__(self, "gp_families", names)
        object.__setattr__(self, "kernel",
                           stack_models([self.models[name] for name in names]) if names else None)
        tol = 1e-12 * np.maximum(self.box.span, 1.0)
        object.__setattr__(self, "inside", (self.box.lower - tol, self.box.upper + tol))

    @property
    def j(self) -> int:
        return self.t_grid.shape[0]

    @property
    def d(self) -> int:
        return self.box.dims

    @property
    def fixed_components(self) -> dict:
        return {name: name not in self.gp_families for name in FAMILIES}

    def evaluate_params(self, points: np.ndarray) -> dict:
        """Each family's values at m points: its GP mean, or its fixed value."""
        means = {} if self.kernel is None else dict(
            zip(self.gp_families, predict_many(self.kernel, points).T))
        return {name: means[name] if name in means
                else np.full(points.shape[0], float(self.models[name])) for name in FAMILIES}


@dataclass(frozen=True)
class CurvePrediction:
    values: np.ndarray
    extrapolated: bool
    params: dict


@dataclass
class ValidationReport:
    per_step_rmse: np.ndarray
    per_step_q2: np.ndarray
    flags: np.ndarray
    overall_rmse: float

    @property
    def mean_q2_unflagged(self) -> float:
        ok = ~self.flags
        return float(np.nanmean(self.per_step_q2[ok])) if ok.any() else float("nan")


@dataclass
class BenchmarkReport:
    sim_report: ValidationReport
    step_report: ValidationReport
    sim_train_seconds: float
    sim_registration_seconds: float
    sim_gp_seconds: float
    step_train_seconds: float
    sim_predicted: np.ndarray
    step_predicted: np.ndarray
    test_values: np.ndarray


def _should_fix(values: np.ndarray, tol: float) -> bool:
    scale = np.abs(values).max()
    return float(np.var(values)) <= tol * max(1.0, scale * scale)


def train(
    design: DesignMatrix,
    curves: CurveSet,
    config: TrainConfig | None = None,
    box: InputBox | None = None,
) -> FunctionalSurrogate:
    """Train a functional surrogate on simulator runs at the design points.

    Stages: blockwise registration of the output curves, pattern extraction,
    then one GP fit per non-fixed parameter family on (design, estimates).
    Raises :class:`TrainingError` when the estimated time shifts span more
    than pi, which would wrap around the period; re-reference the curves (for
    example to the earliest curve) before training in that case.
    """
    if config is None:
        config = TrainConfig()
    pts = design.points
    if pts.shape[0] != curves.n:
        raise ValueError("design and curve set must have the same number of rows")
    if curves.n < MIN_TRAINING_CURVES:
        raise ValueError(f"training needs at least {MIN_TRAINING_CURVES} curves")
    if box is None:
        box = InputBox(lower=pts.min(axis=0), upper=pts.max(axis=0) + np.where(np.ptp(pts, axis=0) > 0, 0.0, 1.0))

    t_start = time.perf_counter()
    try:
        params, _ = estimate_params_blocked(curves, config.block_size, config.estimation)
    except EstimationFailureError as err:
        raise EstimationFailureError(f"registration stage: {err}", starts=err.starts) from err
    reg_seconds = time.perf_counter() - t_start

    theta_span = params.theta.max() - params.theta.min()
    if theta_span > np.pi:
        raise TrainingError(
            f"estimated time shifts span {theta_span:.3f} rad (> pi), so they wrap around "
            "the period; re-reference the curves to a central curve and train again"
        )

    pattern = extract_pattern(to_fourier(curves), params)
    models = {}
    t0 = time.perf_counter()
    for name in FAMILIES:
        values = getattr(params, name)
        if _should_fix(values, config.var_fix_tol):
            models[name] = float(values.mean())
            continue
        try:
            models[name] = fit_gp(design, values, config.gp)
        except (FitFailureError, DegenerateResponseError) as err:
            raise FitFailureError(
                f"parameter-model stage ({name}): {err}",
                starts=getattr(err, "starts", []),
            ) from err
    gp_seconds = time.perf_counter() - t0

    return FunctionalSurrogate(
        box=box,
        t_grid=curves.t_grid,
        period=curves.period,
        pattern=pattern,
        models=models,
        params=params,
        train_seconds=time.perf_counter() - t_start,
        registration_seconds=reg_seconds,
        gp_seconds=gp_seconds,
    )


def _predict(surrogate: FunctionalSurrogate, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """Curves, extrapolation flags and the parameter values at the points."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != surrogate.d:
        raise ValueError(f"points must be m x {surrogate.d}")
    params = surrogate.evaluate_params(points)
    coeffs = deform(surrogate.pattern.coeffs, params["alpha"], params["theta"], params["v"])
    lower, upper = surrogate.inside
    outside = (points < lower) | (points > upper)
    return inverse_fourier(coeffs), outside.any(axis=1), params


def predict_curves(surrogate: FunctionalSurrogate, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predict full output curves at several input points.

    Returns (m x J value matrix, length-m extrapolation flags); points
    outside the surrogate's box are flagged, not rejected.
    """
    values, flags, _ = _predict(surrogate, points)
    return values, flags


def predict_curve(surrogate: FunctionalSurrogate, x0: np.ndarray) -> CurvePrediction:
    """Predict the full output curve at one input configuration."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (surrogate.d,):
        raise ValueError(f"x0 must have {surrogate.d} coordinates")
    values, flags, params = _predict(surrogate, x0[None, :])
    return CurvePrediction(
        values=values[0],
        extrapolated=bool(flags[0]),
        params={name: float(params[name][0]) for name in FAMILIES},
    )


def _report_from_predictions(predicted: np.ndarray, truth: np.ndarray) -> ValidationReport:
    if predicted.shape[0] != truth.shape[0]:
        raise ValueError("test design and test curves must have the same number of rows")
    if predicted.shape[1] != truth.shape[1]:
        raise ValueError("test curves must have the surrogate's number of time steps")
    j = truth.shape[1]
    rmse = np.sqrt(((predicted - truth) ** 2).mean(axis=0))
    step_var = truth.var(axis=0)
    flags = step_var <= 1e-9 * max(float(step_var.max()), 1e-300)
    q2 = np.full(j, np.nan)
    for col in np.nonzero(~flags)[0]:
        _, q2[col] = prediction_metrics(truth[:, col], predicted[:, col])
    overall = float(np.sqrt(((predicted - truth) ** 2).mean()))
    return ValidationReport(per_step_rmse=rmse, per_step_q2=q2, flags=flags, overall_rmse=overall)


def validate(
    surrogate: FunctionalSurrogate, test_design: DesignMatrix, test_curves: CurveSet
) -> ValidationReport:
    """Per-time-step RMSE and Q2 of surrogate predictions on held-out runs.

    Steps whose true values have (near-)zero variance across the test points
    are flagged and get a NaN Q2 instead of failing the run.
    """
    predicted, _ = predict_curves(surrogate, test_design.points)
    return _report_from_predictions(predicted, test_curves.values)


def benchmark_against_per_step(
    design: DesignMatrix,
    curves: CurveSet,
    test_design: DesignMatrix,
    test_curves: CurveSet,
    config: TrainConfig | None = None,
) -> BenchmarkReport:
    """Head-to-head: the curve surrogate versus one GP per time step.

    Both approaches share the GP settings from ``config``; the baseline fits
    an independent kriging model on the raw responses of every time step and
    predicts steps one by one.  Reports per-step metrics, wall times and the
    raw predictions (crossplot data) for both methods.
    """
    if config is None:
        config = TrainConfig()

    surrogate = train(design, curves, config)
    sim_pred, _ = predict_curves(surrogate, test_design.points)
    sim_report = _report_from_predictions(sim_pred, test_curves.values)

    t0 = time.perf_counter()
    step_pred = np.empty((test_curves.n, curves.j))
    for col in range(curves.j):
        model = fit_gp(design, curves.values[:, col], config.gp)
        step_pred[:, col] = predict_many(model, test_design.points)
    step_seconds = time.perf_counter() - t0
    step_report = _report_from_predictions(step_pred, test_curves.values)

    return BenchmarkReport(
        sim_report=sim_report,
        step_report=step_report,
        sim_train_seconds=surrogate.train_seconds,
        sim_registration_seconds=surrogate.registration_seconds,
        sim_gp_seconds=surrogate.gp_seconds,
        step_train_seconds=step_seconds,
        sim_predicted=sim_pred,
        step_predicted=step_pred,
        test_values=test_curves.values,
    )
