"""Constant-mean Gaussian-process (kriging) regression.

The response is modeled as beta + Z(x) with Z a centered stationary process
whose correlation is the Gaussian kernel

    R(x, y) = exp(-sum_j (x_j - y_j)^2 / length_j).

Correlation lengths are found by minimizing the concentrated negative log likelihood

    (1/2) [ n log sigma2_hat(theta) + log det(R(theta) + nugget I) + n ]

over log-lengths with a multistart projected L-BFGS search (``lbfgs``) that is
given the likelihood's analytic gradient (see ``likelihood_with_gradient``).
Inputs are normalized to the design's bounding box inside fit and predict, so
the length bounds are scale free.  A loaded model predicts its mean from
stored weights, without factoring a matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .doe import DesignMatrix, lhd_sample
from .errors import DegenerateResponseError, FitFailureError, IllConditionedDesignError
from .lbfgs import _minimize_box

__all__ = [
    "CorrelationSpec",
    "FitConfig",
    "GpModel",
    "GpStack",
    "stack_models",
    "corr_gaussian",
    "build_correlation",
    "gls_beta",
    "mle_sigma2",
    "likelihood_with_gradient",
    "neg_log_likelihood",
    "fit_gp",
    "assemble_gp_model",
    "predict",
    "predict_many",
    "loo_metrics",
    "prediction_metrics",
    "gp_model_to_dict",
    "gp_model_from_dict",
]

NUGGET_BASE = 1e-10
NUGGET_MAX = 1e-4
SIGMA2_FLOOR = 1e-300
# tie-breaker weight for flat likelihood ridges (see fit_gp)
RIDGE_TIE = 1e-6


@dataclass(frozen=True)
class CorrelationSpec:
    """Correlation lengths of the Gaussian kernel, one per dimension."""

    lengths: np.ndarray

    def __post_init__(self):
        lengths = np.atleast_1d(np.asarray(self.lengths, dtype=float))
        object.__setattr__(self, "lengths", lengths)
        if np.any(lengths <= 0) or not np.all(np.isfinite(lengths)):
            raise ValueError("correlation lengths must be positive and finite")


@dataclass(frozen=True)
class FitConfig:
    """Settings for the maximum-likelihood length search."""

    length_bounds: tuple[float, float] = (1e-3, 1e3)  # in normalized input units
    multistarts: int = 8
    max_iters: int = 200
    nugget_floor: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.length_bounds
        if not (0 < lo < hi):
            raise ValueError("length bounds must satisfy 0 < lo < hi")
        if self.multistarts < 1:
            raise ValueError("multistarts must be >= 1")
        if self.nugget_floor < 0:
            raise ValueError("nugget_floor must be nonnegative")


@dataclass(frozen=True)
class GpModel:
    """A fitted kriging model.

    ``design`` and ``responses`` are kept in original (box) coordinates;
    ``corr.lengths`` refer to inputs normalized by (x_lo, x_span).  ``factor``
    is the lower Cholesky factor of R + nugget I on the normalized design, or
    None (with ``ones_solve``) in a loaded model until the first variance or LOO
    sets both; the kriging weights ``resid_solve`` give the mean without it.
    """

    design: np.ndarray
    responses: np.ndarray
    corr: CorrelationSpec
    beta: float
    sigma2: float
    nugget: float
    factor: np.ndarray = field(repr=False, default=None)
    x_lo: np.ndarray = field(repr=False, default=None)
    x_span: np.ndarray = field(repr=False, default=None)
    resid_solve: np.ndarray = field(repr=False, default=None)  # Rinv (Y - beta 1)
    ones_solve: np.ndarray = field(repr=False, default=None)  # Rinv 1

    @property
    def n(self) -> int:
        return self.design.shape[0]

    @property
    def d(self) -> int:
        return self.design.shape[1]

    def normalized_design(self) -> np.ndarray:
        return (self.design - self.x_lo) / self.x_span


@dataclass(frozen=True)
class GpStack:
    """Kriging-mean inputs of k GP models on one design, shaped for one kernel pass:
    lengths k x 1 x 1 x d, weights (each model's ``resid_solve``) k x 1 x n, betas k x 1."""

    x_lo: np.ndarray
    x_span: np.ndarray
    design: np.ndarray  # normalized, n x d
    lengths: np.ndarray
    weights: np.ndarray
    betas: np.ndarray


def stack_models(models: list[GpModel]) -> GpStack:
    """The models' :class:`GpStack`; raises ValueError unless they share one design."""
    first = models[0]
    if any(not np.array_equal(getattr(m, key), getattr(first, key))
           for m in models[1:] for key in ("design", "x_lo", "x_span")):
        raise ValueError("GP models fitted on different designs cannot share a kernel pass")
    return GpStack(first.x_lo, first.x_span, first.normalized_design(),
                   np.array([m.corr.lengths for m in models])[:, None, None, :],
                   np.array([m.resid_solve for m in models])[:, None, :],
                   np.array([m.beta for m in models])[:, None])


def corr_gaussian(x: np.ndarray, y: np.ndarray, spec: CorrelationSpec) -> float:
    """Gaussian correlation between two points; 1 iff x == y."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape or x.size != spec.lengths.size:
        raise ValueError("x and y must both have one coordinate per correlation length")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("inputs must be finite")
    return float(_corr(x[None, :], y[None, :], spec)[0, 0])


def _unit_box(design: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x_lo, x_span) of the design's bounding box; a constant column spans 1."""
    x_lo = design.min(axis=0)
    x_span = design.max(axis=0) - x_lo
    return x_lo, np.where(x_span > 0, x_span, 1.0)


def _inverse(factor: np.ndarray) -> np.ndarray:
    """Kinv from the lower Cholesky factor L of K, as inv(L)' inv(L)."""
    linv = np.linalg.inv(factor)
    return linv.T @ linv


def _sq_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared coordinate differences between the rows of a (m x d) and of b (n x d), m x n x d."""
    diff = np.abs(a[:, None, :] - b[None, :, :])
    # Square with a per-dimension exponent array, never a scalar 2: numpy
    # squares a scalar or broadcast exponent by multiplication, which differs
    # in the last bit for some entries and moves the fitted lengths.
    return diff ** np.full(diff.shape[-1], 2.0)


def _corr(a: np.ndarray, b: np.ndarray, spec: CorrelationSpec) -> np.ndarray:
    """Correlation matrix between the rows of a (m x d) and of b (n x d)."""
    return np.exp(-(_sq_diff(a, b) / spec.lengths).sum(axis=2))


def build_correlation(
    points: np.ndarray, spec: CorrelationSpec, nugget: float = 0.0, corr: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """Cholesky factorization of R + nugget I with geometric nugget escalation.

    Returns (lower factor, nugget actually used).  ``corr`` is R itself when
    the caller has already built it.  If the factorization fails the nugget
    is escalated by factors of 10 up to ``NUGGET_MAX``; failure at the
    maximum raises :class:`IllConditionedDesignError`.
    """
    points = np.asarray(points, dtype=float)
    if points.shape[0] < 2:
        raise ValueError("need at least 2 design points")
    if nugget < 0:
        raise ValueError("nugget must be nonnegative")
    if corr is None:
        corr = _corr(points, points, spec)
    trial = nugget
    while True:
        try:
            factor = np.linalg.cholesky(corr + trial * np.eye(points.shape[0]))
            return factor, trial
        except np.linalg.LinAlgError:
            if trial >= NUGGET_MAX:
                raise IllConditionedDesignError(
                    f"correlation matrix not positive definite even at nugget {trial:g}"
                ) from None
            trial = NUGGET_BASE if trial == 0.0 else trial * 10.0
            trial = min(trial, NUGGET_MAX)


def gls_beta(factor: np.ndarray, responses: np.ndarray) -> float:
    """Generalized least squares estimate of the constant mean.

    beta = (1' Rinv 1)^-1 1' Rinv Y, computed through the stored factorization.
    """
    kinv_1 = _inverse(factor).sum(axis=0)
    return float(kinv_1 @ responses / kinv_1.sum())


def mle_sigma2(factor: np.ndarray, responses: np.ndarray, beta: float) -> float:
    """Maximum-likelihood process variance (1/n) res' Rinv res, floored above zero."""
    resid = responses - beta
    s2 = float(resid @ _inverse(factor) @ resid) / responses.shape[0]
    return max(s2, SIGMA2_FLOOR)


def likelihood_with_gradient(
    points: np.ndarray, responses: np.ndarray, spec: CorrelationSpec, nugget: float = 0.0
) -> tuple[float, np.ndarray]:
    """Concentrated negative log likelihood and its gradient in the log-lengths.

    The value omits the (n/2) log 2 pi constant.  With K = R + nugget I,
    a = Kinv (Y - beta 1) and D_j the squared differences in dimension j,

        d nll / d log length_j = (1/2) tr[(Kinv - a a' / sigma2) (R o D_j)] / length_j,

    where o is the elementwise product; beta and sigma2 are at their
    closed-form optima, so their own variation drops out.
    """
    points = np.asarray(points, dtype=float)
    sq_diff = (points[:, None, :] - points[None, :, :]) ** 2
    return _likelihood(points, np.asarray(responses, dtype=float), spec, nugget, sq_diff)


def _likelihood(
    points: np.ndarray, responses: np.ndarray, spec: CorrelationSpec, nugget: float,
    sq_diff: np.ndarray,
) -> tuple[float, np.ndarray]:
    """:func:`likelihood_with_gradient` given the design's squared differences."""
    corr = _corr(points, points, spec)
    factor, _ = build_correlation(points, spec, nugget, corr)
    n = responses.shape[0]
    kinv = _inverse(factor)
    kinv_1 = kinv.sum(axis=0)
    beta = float(kinv_1 @ responses / kinv_1.sum())
    a = kinv @ (responses - beta)
    s2 = max(float((responses - beta) @ a) / n, SIGMA2_FLOOR)
    logdet = 2.0 * np.log(np.diag(factor)).sum()
    nll = 0.5 * (n * math.log(s2) + logdet + n)

    weights = (kinv - np.outer(a, a) / s2) * corr
    grad = 0.5 * np.einsum("ik,ikj->j", weights, sq_diff) / spec.lengths
    return nll, grad


def neg_log_likelihood(
    points: np.ndarray, responses: np.ndarray, spec: CorrelationSpec, nugget: float = 0.0
) -> float:
    """Concentrated negative log likelihood (up to the (n/2) log 2 pi constant)."""
    return likelihood_with_gradient(points, responses, spec, nugget)[0]


def assemble_gp_model(
    design: np.ndarray,
    responses: np.ndarray,
    lengths: np.ndarray,
    nugget: float = 0.0,
    normalize: bool = True,
) -> GpModel:
    """Build a GpModel at fixed hyperparameters (no likelihood search).

    With ``normalize=False`` the lengths refer to the raw design coordinates,
    which is the convenient form for small hand-built test cases.
    """
    design = np.asarray(design, dtype=float)
    responses = np.asarray(responses, dtype=float)
    if design.ndim != 2 or responses.shape != (design.shape[0],):
        raise ValueError("design must be n x d and responses length n")
    d = design.shape[1]
    x_lo, x_span = _unit_box(design) if normalize else (np.zeros(d), np.ones(d))
    spec = CorrelationSpec(lengths=lengths)
    pts = (design - x_lo) / x_span
    factor, used = build_correlation(pts, spec, nugget)
    beta = gls_beta(factor, responses)
    sigma2 = mle_sigma2(factor, responses, beta)
    kinv = _inverse(factor)
    return GpModel(
        design=design,
        responses=responses,
        corr=spec,
        beta=beta,
        sigma2=sigma2,
        nugget=used,
        factor=factor,
        x_lo=x_lo,
        x_span=x_span,
        resid_solve=kinv @ (responses - beta),
        ones_solve=kinv.sum(axis=1),
    )


def fit_gp(design: DesignMatrix | np.ndarray, responses: np.ndarray, config: FitConfig | None = None) -> GpModel:
    """Fit correlation lengths by concentrated maximum likelihood.

    Runs ``config.multistarts`` projected L-BFGS searches in log-length space
    (:func:`dynshape.lbfgs._minimize_box` at L-BFGS-B's default tolerances,
    gtol 1e-5 and ftol 2.2e-9), one per start of a small Latin hypercube over
    the bounds, each on the analytic gradient of :func:`likelihood_with_gradient`,
    and returns the model assembled at the best lengths found.

    The search objective carries a tiny quadratic tie-breaker in the
    log-lengths (weight ``RIDGE_TIE``), the only guard against flat ridges:
    near-linear responses leave the likelihood flat across decades of length,
    and without a tie-breaker the selected point on such a ridge would depend
    on roundoff-level details of the input data.  The weight is far below any
    practically significant likelihood difference.
    """
    if config is None:
        config = FitConfig()
    pts_raw = design.points if isinstance(design, DesignMatrix) else np.asarray(design, dtype=float)
    responses = np.asarray(responses, dtype=float)
    n, d = pts_raw.shape
    if n < 3:
        raise ValueError("fitting needs at least 3 design points")
    if responses.shape != (n,):
        raise ValueError("responses must have one value per design row")

    x_lo, x_span = _unit_box(pts_raw)
    pts = (pts_raw - x_lo) / x_span

    log_lo, log_hi = np.log(config.length_bounds[0]), np.log(config.length_bounds[1])
    sq_diff = (pts[:, None, :] - pts[None, :, :]) ** 2

    def objective(log_lengths: np.ndarray) -> tuple[float, np.ndarray]:
        spec = CorrelationSpec(lengths=np.exp(log_lengths))
        try:
            nll, grad = _likelihood(pts, responses, spec, config.nugget_floor, sq_diff)
        except IllConditionedDesignError:
            return 1e25, np.zeros(d)  # stands in for +inf, which the line search dislikes
        return (nll + RIDGE_TIE * float(log_lengths @ log_lengths),
                grad + 2.0 * RIDGE_TIE * log_lengths)

    if config.multistarts == 1:
        starts = np.full((1, d), 0.5 * (log_lo + log_hi))
    else:
        unit = lhd_sample(config.multistarts, d, seed=config.seed).points
        starts = log_lo + unit * (log_hi - log_lo)

    attempts = []
    for x0 in starts:
        x, fun, _, _, message, _ = _minimize_box(objective, x0, log_lo, log_hi,
                                                 config.max_iters, gtol=1e-5, ftol=2.2e-9)
        usable = np.isfinite(fun) and fun < 1e24
        attempts.append({"start": x0.copy(), "fun": float(fun), "x": x,
                         "message": message, "usable": bool(usable)})
    usable = [a for a in attempts if a["usable"]]
    if not usable:
        raise FitFailureError("all likelihood-search starts failed", starts=attempts)
    best = min(usable, key=lambda a: a["fun"])

    return assemble_gp_model(pts_raw, responses, np.exp(best["x"]), config.nugget_floor,
                             normalize=True)


def predict(model: GpModel, x0: np.ndarray) -> tuple[float, float]:
    """Kriging mean and variance at a new point.

    mean = beta + r' Rinv (Y - beta 1); the variance includes the correction
    for the estimated constant mean and is clamped at zero.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (model.d,):
        raise ValueError(f"x0 must have {model.d} coordinates")
    x0 = (x0 - model.x_lo) / model.x_span
    r = _corr(x0[None, :], model.normalized_design(), model.corr)[0]
    mean = model.beta + (r * model.resid_solve).sum()
    full = _factored(model)
    w = _inverse(full.factor) @ r
    var = model.sigma2 * (1.0 - r @ w + (1.0 - full.ones_solve @ r) ** 2 / full.ones_solve.sum())
    return float(mean), max(float(var), 0.0)


def predict_many(model: GpModel | GpStack, points: np.ndarray) -> np.ndarray:
    """Kriging means (no variance) at the rows of an m x d points array: a length-m
    vector for one GpModel, an m x k array for a :class:`GpStack` of k models.

    A GpModel is the one-model stack.  One kernel pass squares the normalized
    points' differences to the shared design once for every model.  d stays the
    last axis and each mean is summed over its own kernel row, not by a
    matrix-vector product whose order depends on m, so a mean has the same bits
    alone or stacked, and a point the same bits in any batch.
    """
    stack = stack_models([model]) if isinstance(model, GpModel) else model
    points = np.asarray(points, dtype=float)
    d = stack.design.shape[1]
    if points.ndim != 2 or points.shape[1] != d:
        raise ValueError(f"points must be m x {d}")
    sq = _sq_diff((points - stack.x_lo) / stack.x_span, stack.design)
    means = stack.betas + (np.exp(-(sq / stack.lengths).sum(axis=-1)) * stack.weights).sum(axis=-1)
    return means[0] if stack is not model else means.T


def prediction_metrics(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[float, float]:
    """RMSE and predictivity index Q2 of predictions against true values.

    Q2 = 1 - sum (pred - true)^2 / sum (true - mean true)^2; raises
    :class:`DegenerateResponseError` when the true values have zero variance.
    """
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    err2 = (y_pred - y_true) ** 2
    rmse = math.sqrt(err2.mean())
    denom = ((y_true - y_true.mean()) ** 2).sum()
    if denom == 0.0:
        raise DegenerateResponseError("true values have zero variance, Q2 undefined")
    return rmse, 1.0 - err2.sum() / denom


def loo_metrics(model: GpModel) -> tuple[float, float]:
    """Leave-one-out RMSE and Q2 without refitting.

    Uses the virtual cross-validation identity for a GLS-estimated constant
    mean: with Q = Rinv - Rinv 1 1' Rinv / (1' Rinv 1), the LOO residual at
    point i is (Q Y)_i / Q_ii.  Lengths and nugget stay fixed; the mean is
    implicitly re-estimated on each fold, matching an explicit refit.
    """
    n = model.n
    if n < 3:
        raise ValueError("leave-one-out metrics need at least 3 points")
    y = model.responses
    if np.ptp(y) == 0.0:
        raise DegenerateResponseError("responses have zero variance, Q2 undefined")
    full = _factored(model)
    rinv = _inverse(full.factor)
    rinv_1 = full.ones_solve
    q = rinv - np.outer(rinv_1, rinv_1) / rinv_1.sum()
    resid = (q @ y) / np.diag(q)
    loo_pred = y - resid
    return prediction_metrics(y, loo_pred)


def _factored(model: GpModel) -> GpModel:
    """The model with its Cholesky factor; a loaded model factors once and keeps it."""
    if model.factor is None:  # the stored nugget worked, so the same bits come back
        full = assemble_gp_model(model.design, model.responses, model.corr.lengths, model.nugget)
        object.__setattr__(model, "factor", full.factor)
        object.__setattr__(model, "ones_solve", full.ones_solve)
    return model


def gp_model_to_dict(model: GpModel) -> dict:
    """JSON-ready dictionary with the kriging weights, so loading needs no factorization."""
    return {
        "design": model.design.tolist(),
        "responses": model.responses.tolist(),
        "lengths": model.corr.lengths.tolist(),
        "beta": model.beta,
        "sigma2": model.sigma2,
        "nugget": model.nugget,
        "resid_solve": model.resid_solve.tolist(),
    }


def gp_model_from_dict(data: dict) -> GpModel:
    """Model saved by :func:`gp_model_to_dict`; ``factor`` and ``ones_solve`` stay unset."""
    design, responses, weights = (np.asarray(data[k], dtype=float)
                                  for k in ("design", "responses", "resid_solve"))
    spec = CorrelationSpec(lengths=data["lengths"])
    if design.ndim != 2 or spec.lengths.size != design.shape[1] \
            or not responses.shape == weights.shape == (design.shape[0],):
        raise ValueError("GP design must be n x d, with n responses and weights and d lengths")
    x_lo, x_span = _unit_box(design)
    return GpModel(design=design, responses=responses, corr=spec, beta=float(data["beta"]),
                   sigma2=float(data["sigma2"]), nugget=float(data["nugget"]), x_lo=x_lo,
                   x_span=x_span, resid_solve=weights)
