"""End-to-end pipeline: registration plus kriging of the deformation maps.

Training registers the curves to a common pattern, then fits one GP per
deformation-parameter family (amplitude scale, time shift, vertical shift)
over the experimental design.  Prediction evaluates the GP families' means at
a new input in one kernel pass over their shared design and deforms the
pattern through its shift basis (see :class:`FunctionalSurrogate`): a full
output curve costs one kernel pass and one small combination of basis rows,
with no Fourier transform per curve.  The basis has as many rows as the
pattern's own spectrum needs for a 2^-53 tail, at most ``SHIFT_TERMS``.
Families whose estimated values are numerically constant are held fixed at
their mean instead of being GP-fitted.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .doe import DesignMatrix, InputBox
from .errors import FitFailureError, EstimationFailureError, TrainingError
from .gp import (FitConfig, GpModel, GpStack, fit_gp, loo_metrics, predict_many,
                 prediction_metrics, stack_models)
from .registration import (
    CurveSet,
    EstimationConfig,
    Pattern,
    TransformParams,
    contrast,
    estimate_params_blocked,
    extract_pattern,
    inverse_fourier,
    make_weights,
    to_fourier,
)

__all__ = [
    "TrainConfig",
    "FunctionalSurrogate",
    "CurvePrediction",
    "ValidationReport",
    "train",
    "predict_curve",
    "predict_curves",
    "per_step_report",
    "validate",
    "per_step_gp_predictions",
]

FAMILIES = ("alpha", "theta", "v")
MIN_TRAINING_CURVES = 4
# the most Taylor terms K of the sub-grid shift: each |l phi 2 pi / J| <= pi/2, so the
# tail is at most (pi/2)^K / K! * 2 sum|c_l|; the least K that puts it below 2^-53 sum|c_l|
# for any pattern (a pattern whose spectrum falls needs fewer; see FunctionalSurrogate)
SHIFT_TERMS = next(k for k in range(1, 99) if 2 * (math.pi / 2) ** k / math.factorial(k) < 2**-53)


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
        if not self.var_fix_tol >= 0:  # NaN fails too
            raise ValueError("var_fix_tol must be nonnegative")


@dataclass(frozen=True)
class FunctionalSurrogate:
    """Trained curve surrogate: the pattern plus one model per deformation family.

    Each family maps to either a fitted GpModel or a fixed float.  The GP
    families must share one design with a column per box dimension, and the
    grid and pattern must form a :class:`~dynshape.registration.CurveSet`
    (ValueError otherwise).
    Construction stacks the GP families for :func:`dynshape.gp.predict_many`,
    fixes the extrapolation bounds and builds the shift basis: with
    s = theta J / 2 pi, q = rint(s) and phi = s - q, a curve is
    alpha sum_i phi^i B_i[(j - q) mod J] + v, and row B_i (highest i first) is
    ``inverse_fourier(c (-i l 2 pi / J)^i / i!)`` for the pattern's half spectrum c.
    The basis keeps K rows, i < K, for the least K <= ``SHIFT_TERMS`` with
    2 sum_l |c_l| (pi l / J)^K / K! < 2^-53 sum_l |c_l|: the bound behind
    ``SHIFT_TERMS``, taken on c rather than on the worst case l = J / 2.
    """

    box: InputBox
    t_grid: np.ndarray
    period: float
    pattern: Pattern
    models: dict
    params: TransformParams = field(repr=False, default=None)
    # train's facts of the run: stage "seconds", "contrast" and per-family "families"
    # (model, and loo_q2 or fixed_value); never saved, so None after load_surrogate
    record: dict | None = field(default=None, repr=False, compare=False)
    gp_families: tuple = field(init=False, repr=False)
    kernel: GpStack | None = field(init=False, repr=False)  # stack of the gp_families
    inside: tuple = field(init=False, repr=False)  # (lower, upper) beyond which points extrapolate
    shift_basis: np.ndarray = field(init=False, repr=False)  # K x J, K <= SHIFT_TERMS

    def __post_init__(self):
        CurveSet(values=self.pattern.values[None, :], t_grid=self.t_grid, period=self.period)
        names = tuple(name for name in FAMILIES if isinstance(self.models[name], GpModel))
        if any(self.models[name].d != self.d for name in names):
            raise ValueError(f"GP family designs must have the box's {self.d} columns")
        object.__setattr__(self, "gp_families", names)
        object.__setattr__(self, "kernel",
                           stack_models([self.models[name] for name in names]) if names else None)
        tol = 1e-12 * np.maximum(self.box.span, 1.0)
        object.__setattr__(self, "inside", (self.box.lower - tol, self.box.upper + tol))
        coeffs = self.pattern.coeffs
        ell = np.arange(coeffs.shape[0])
        steps = (-2j * np.pi / self.j) * ell / np.arange(1, SHIFT_TERMS)[:, None]
        terms = np.cumprod(np.vstack((coeffs, steps)), axis=0)
        # |phi| <= 1/2, so term k is at most 2 sum_l |terms[k, l]| 2^-k: keep the rows
        # before the first k where that falls below 2^-53 sum|c_l|, SHIFT_TERMS at most
        tails = 2.0 * np.abs(terms[1:]).sum(axis=1) * 0.5 ** np.arange(1, SHIFT_TERMS)
        rows = 1 + int(np.argmax(np.append(tails < 2**-53 * np.abs(coeffs).sum(), True)))
        object.__setattr__(self, "shift_basis", inverse_fourier(terms[:rows])[::-1].copy())

    @property
    def j(self) -> int:
        return self.t_grid.shape[0]

    @property
    def d(self) -> int:
        return self.box.dims

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
        raise EstimationFailureError(f"registration stage: {err}") from err
    reg_seconds = time.perf_counter() - t_start

    theta_span = params.theta.max() - params.theta.min()
    if theta_span > np.pi:
        raise TrainingError(
            f"estimated time shifts span {theta_span:.3f} rad (> pi), so they wrap around "
            "the period; re-reference the curves to a central curve and train again"
        )

    coeffs = to_fourier(curves)
    pattern = extract_pattern(coeffs, params)
    models = {}
    t0 = time.perf_counter()
    for name in FAMILIES:
        values = getattr(params, name)
        if _should_fix(values, config.var_fix_tol):
            models[name] = float(values.mean())
            continue
        try:
            models[name] = fit_gp(pts, values, config.gp)
        except FitFailureError as err:
            raise FitFailureError(f"parameter-model stage ({name}): {err}") from err
    t_end = time.perf_counter()
    est = config.estimation
    record = {
        "seconds": {"registration": reg_seconds, "parameter_models": t_end - t0,
                    "total": t_end - t_start},
        "contrast": contrast(params, coeffs, make_weights(curves.j, est.beta_exponent, est.l_max)),
        "families": {name: {"model": "gp", "loo_q2": loo_metrics(model)[1]}
                     if isinstance(model, GpModel) else {"model": "fixed", "fixed_value": model}
                     for name, model in models.items()},
    }
    return FunctionalSurrogate(box=box, t_grid=curves.t_grid, period=curves.period,
                               pattern=pattern, models=models, params=params, record=record)


def _predict(surrogate: FunctionalSurrogate, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """Curves, extrapolation flags and the parameter values at the points."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != surrogate.d:
        raise ValueError(f"points must be m x {surrogate.d}")
    params = surrogate.evaluate_params(points)
    j, theta = surrogate.j, params["theta"]
    # phi = theta J / 2 pi - q from 2 pi / J as a 26-bit head, so that q * head is
    # exact, plus a tail that keeps 2 pi - float(2 pi): |theta| = 50 loses no digits
    head = round(2.0 * np.pi / j * 2**26) / 2**26
    tail = (2.0 * np.pi - head * j + 2.4492935982947064e-16) / j
    q = np.rint(theta * (j / (2.0 * np.pi)))
    phi = (theta - q * head - q * tail) * (j / (2.0 * np.pi))
    # phi^i from the highest i down; einsum, not BLAS, so a point keeps its bits in any batch
    basis = surrogate.shift_basis
    unshifted = np.einsum("mk,kj->mj", np.vander(phi, basis.shape[0]), basis)
    values = np.empty_like(unshifted)
    # roll each row by its q; fmax sends a NaN (theta not finite, row all NaN) to 0
    for row, k in enumerate(np.fmax(q % j, 0.0).astype(int).tolist()):
        values[row, k:] = unshifted[row, : j - k]
        values[row, :k] = unshifted[row, j - k :]
    values *= params["alpha"][:, None]
    values += params["v"][:, None]
    lower, upper = surrogate.inside
    outside = ~((points >= lower) & (points <= upper))
    return values, outside.any(axis=1), params


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


def per_step_report(predicted: np.ndarray, truth: np.ndarray) -> ValidationReport:
    """Per-time-step RMSE and Q2 of m x J predictions against the m x J true values."""
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
    return per_step_report(predicted, test_curves.values)


def per_step_gp_predictions(design: DesignMatrix, curves: CurveSet, points: np.ndarray,
                            config: FitConfig) -> np.ndarray:
    """The single-step baseline: one GP per time step on the raw responses, m x J at the points."""
    predicted = np.empty((points.shape[0], curves.j))
    for col in range(curves.j):
        model = fit_gp(design.points, curves.values[:, col], config)
        predicted[:, col] = predict_many(stack_models([model]), points)[:, 0]
    return predicted
