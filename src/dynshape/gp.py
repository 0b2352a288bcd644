"""Constant-mean Gaussian-process (kriging) regression.

The response is modeled as beta + Z(x) with Z a centered stationary process
whose correlation is the Gaussian kernel

    R(x, y) = exp(-sum_j (x_j - y_j)^2 / length_j).

Correlation lengths are found by minimizing the concentrated negative log likelihood

    (1/2) [ n log sigma2_hat(theta) + log det(R(theta) + nugget I) + n ]

over log-lengths with a multistart projected L-BFGS search (``lbfgs``) that is
given the likelihood's analytic gradient (see ``likelihood_with_gradient``); the
design's squared differences are formed once per fit, by multiplication, and
every evaluation builds R and its gradient from them.
One concentration step gives Kinv and the closed-form beta and sigma2 to both the
likelihood and ``GpModel``, so a model stores the sigma2 the search saw.
Inputs are normalized to the design's bounding box inside fit and predict, so
the length bounds are scale free.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .doe import lhd_sample
from .errors import DegenerateResponseError, FitFailureError, IllConditionedDesignError
from .lbfgs import _minimize_box

__all__ = [
    "FitConfig",
    "GpModel",
    "GpStack",
    "stack_models",
    "build_correlation",
    "gls_beta",
    "mle_sigma2",
    "likelihood_with_gradient",
    "fit_gp",
    "assemble_gp_model",
    "predict",
    "predict_many",
    "loo_metrics",
    "prediction_metrics",
]

NUGGET_BASE = 1e-10
NUGGET_MAX = 1e-4
SIGMA2_FLOOR = 1e-300
# tie-breaker weight for flat likelihood ridges (see fit_gp)
RIDGE_TIE = 1e-6


@dataclass(frozen=True)
class FitConfig:
    """Settings for the maximum-likelihood length search."""

    length_lo: float = 1e-3  # in normalized input units
    length_hi: float = 1e3
    multistarts: int = 8
    max_iters: int = 200
    nugget_floor: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.length_lo < self.length_hi < math.inf):
            raise ValueError("length bounds must satisfy 0 < length_lo < length_hi < inf")
        if self.multistarts < 1:
            raise ValueError("multistarts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not (0 <= self.nugget_floor < math.inf):
            raise ValueError("nugget_floor must be nonnegative and finite")


@dataclass(frozen=True)
class GpModel:
    """A kriging model at fixed correlation lengths, built from the four numbers a
    surrogate file saves: an n x d ``design`` and n ``responses`` in original (box)
    coordinates, d ``lengths`` for inputs normalized by the design's bounding box, and
    the requested ``nugget``.  Construction raises ValueError unless the shapes agree
    and the lengths are positive and finite, then derives every other field: the box
    (x_lo, x_span), ``used_nugget`` (where K = R + nugget I factored, above ``nugget``
    after an escalation), ``kinv``, beta, sigma2 and ``resid_solve`` = Kinv (Y - beta 1).
    """

    design: np.ndarray
    responses: np.ndarray
    lengths: np.ndarray
    nugget: float = 0.0
    used_nugget: float = field(init=False)
    beta: float = field(init=False)
    sigma2: float = field(init=False)
    resid_solve: np.ndarray = field(init=False, repr=False)
    kinv: np.ndarray = field(init=False, repr=False)
    x_lo: np.ndarray = field(init=False, repr=False)
    x_span: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        design = np.asarray(self.design, dtype=float)
        responses = np.asarray(self.responses, dtype=float)
        lengths = np.atleast_1d(np.asarray(self.lengths, dtype=float))
        if np.any(lengths <= 0) or not np.all(np.isfinite(lengths)):
            raise ValueError("correlation lengths must be positive and finite")
        if design.ndim != 2 or responses.shape != (design.shape[0],) or lengths.size != design.shape[1]:
            raise ValueError("GP design must be n x d, with n responses and d lengths")
        x_lo, x_span = _unit_box(design)
        factor, used = build_correlation((design - x_lo) / x_span, lengths, self.nugget)
        kinv, beta, a, sigma2 = _concentrate(factor, responses)
        for key, value in [("design", design), ("responses", responses), ("lengths", lengths),
                           ("used_nugget", float(used)), ("beta", beta), ("sigma2", sigma2),
                           ("resid_solve", a), ("kinv", kinv), ("x_lo", x_lo), ("x_span", x_span)]:
            object.__setattr__(self, key, value)

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
    if any(not np.array_equal(m.design, first.design) for m in models[1:]):
        raise ValueError("GP models fitted on different designs cannot share a kernel pass")
    return GpStack(first.x_lo, first.x_span, first.normalized_design(),
                   np.array([m.lengths for m in models])[:, None, None, :],
                   np.array([m.resid_solve for m in models])[:, None, :],
                   np.array([m.beta for m in models])[:, None])


def _unit_box(design: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x_lo, x_span) of the design's bounding box; a constant column spans 1."""
    x_lo = design.min(axis=0)
    x_span = design.max(axis=0) - x_lo
    return x_lo, np.where(x_span > 0, x_span, 1.0)


def _sq_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared coordinate differences between the rows of a (m x d) and of b (n x d),
    m x n x d, each the correctly rounded product diff * diff."""
    diff = a[:, None, :] - b[None, :, :]
    return diff * diff


def _corr(sq: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Correlations from the squared differences ``sq`` (m x n x d, see ``_sq_diff``),
    m x n; lengths of shape k x 1 x 1 x d give k such matrices at once.  The exponent
    sums the scaled squared differences in dimension order, ((s_0 + s_1) + s_2) + ...,
    one whole-array add per dimension, so one model's correlations have the same bits
    alone or stacked.  For d <= 7 that is the order of numpy's ``sum(axis=-1)``; above,
    numpy sums pairwise."""
    total = sq[..., 0] / lengths[..., 0]
    for col in range(1, sq.shape[-1]):
        total += sq[..., col] / lengths[..., col]
    np.negative(total, out=total)
    return np.exp(total, out=total)


def build_correlation(
    points: np.ndarray, lengths: np.ndarray, nugget: float = 0.0, corr: np.ndarray | None = None
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
        corr = _corr(_sq_diff(points, points), lengths)
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


def gls_beta(kinv: np.ndarray, responses: np.ndarray) -> float:
    """Generalized least squares estimate of the constant mean, (1' Kinv 1)^-1 1' Kinv Y."""
    kinv_1 = kinv.sum(axis=0)
    return float(kinv_1 @ responses / kinv_1.sum())


def mle_sigma2(resid: np.ndarray, a: np.ndarray) -> float:
    """Maximum-likelihood process variance (1/n) resid' a with a = Kinv resid, floored above zero."""
    return max(float(resid @ a) / resid.shape[0], SIGMA2_FLOOR)


def _concentrate(factor: np.ndarray, responses: np.ndarray) -> tuple[np.ndarray, float, np.ndarray, float]:
    """(Kinv, beta, a = Kinv (Y - beta 1), sigma2) from the lower Cholesky factor L of K:
    Kinv = inv(L)' inv(L), then the closed-form optima of the constant mean and
    the process variance.  This is the one place K is inverted."""
    linv = np.linalg.inv(factor)
    kinv = linv.T @ linv
    beta = gls_beta(kinv, responses)
    resid = responses - beta
    a = kinv @ resid
    return kinv, beta, a, mle_sigma2(resid, a)


def likelihood_with_gradient(
    points: np.ndarray, responses: np.ndarray, lengths: np.ndarray, nugget: float,
    sq_diff: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Concentrated negative log likelihood and its gradient in the log-lengths.

    The value omits the (n/2) log 2 pi constant; ``sq_diff`` holds the
    design's squared coordinate differences, n x n x d (``_sq_diff(points, points)``,
    formed once per design by the caller), and both R and the gradient read it, so
    an evaluation squares no difference.  With K = R + nugget I,
    a = Kinv (Y - beta 1) and D_j the squared differences in dimension j,

        d nll / d log length_j = (1/2) tr[(Kinv - a a' / sigma2) (R o D_j)] / length_j,

    where o is the elementwise product; beta and sigma2 are at their
    closed-form optima, so their own variation drops out.
    """
    corr = _corr(sq_diff, lengths)
    factor, _ = build_correlation(points, lengths, nugget, corr)
    n = responses.shape[0]
    kinv, _, a, s2 = _concentrate(factor, responses)
    logdet = 2.0 * np.log(np.diag(factor)).sum()
    nll = 0.5 * (n * math.log(s2) + logdet + n)

    weights = (kinv - np.outer(a, a) / s2) * corr
    grad = 0.5 * np.einsum("ik,ikj->j", weights, sq_diff) / lengths
    return nll, grad


def assemble_gp_model(
    design: np.ndarray,
    responses: np.ndarray,
    lengths: np.ndarray,
    nugget: float = 0.0,
) -> GpModel:
    """``GpModel(design, responses, lengths, nugget)``, kept only as the name the
    benchmark's tracer wraps to time model builds; it goes when the benchmark reads
    the run record."""
    return GpModel(design, responses, lengths, nugget)


def fit_gp(design: np.ndarray, responses: np.ndarray, config: FitConfig | None = None) -> GpModel:
    """Fit correlation lengths to an n x d design by concentrated maximum likelihood.

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
    pts_raw = np.asarray(design, dtype=float)
    responses = np.asarray(responses, dtype=float)
    n, d = pts_raw.shape
    if n < 3:
        raise ValueError("fitting needs at least 3 design points")
    if responses.shape != (n,):
        raise ValueError("responses must have one value per design row")
    if not (np.isfinite(pts_raw).all() and np.isfinite(responses).all()):
        raise ValueError("design and responses must be finite")

    x_lo, x_span = _unit_box(pts_raw)
    pts = (pts_raw - x_lo) / x_span

    log_lo, log_hi = np.log(config.length_lo), np.log(config.length_hi)
    sq_diff = _sq_diff(pts, pts)

    def objective(log_lengths: np.ndarray) -> tuple[float, np.ndarray]:
        try:
            nll, grad = likelihood_with_gradient(pts, responses, np.exp(log_lengths),
                                                 config.nugget_floor, sq_diff)
        except IllConditionedDesignError:
            return 1e25, np.zeros(d)  # stands in for +inf, which the line search dislikes
        return (nll + RIDGE_TIE * float(log_lengths @ log_lengths),
                grad + 2.0 * RIDGE_TIE * log_lengths)

    if config.multistarts == 1:
        starts = np.full((1, d), 0.5 * (log_lo + log_hi))
    else:
        unit = lhd_sample(config.multistarts, d, seed=config.seed).points
        starts = log_lo + unit * (log_hi - log_lo)

    best_x, best_fun = None, 1e24  # a start at or above 1e24 hit only failed factorizations
    for x0 in starts:
        x, fun, *_ = _minimize_box(objective, x0, log_lo, log_hi,
                                   config.max_iters, gtol=1e-5, ftol=2.2e-9)
        if np.isfinite(fun) and fun < best_fun:  # strict: a tie keeps the earlier start
            best_x, best_fun = x, fun
    if best_x is None:
        raise FitFailureError("all likelihood-search starts failed")

    return assemble_gp_model(pts_raw, responses, np.exp(best_x), config.nugget_floor)


def predict(model: GpModel, x0: np.ndarray) -> tuple[float, float]:
    """Kriging mean and variance at a new point.

    mean = beta + r' Rinv (Y - beta 1); the variance includes the correction
    for the estimated constant mean and is clamped at zero.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (model.d,):
        raise ValueError(f"x0 must have {model.d} coordinates")
    x0 = (x0 - model.x_lo) / model.x_span
    r = _corr(_sq_diff(x0[None, :], model.normalized_design()), model.lengths)[0]
    mean = model.beta + (r * model.resid_solve).sum()
    rinv_1 = model.kinv.sum(axis=1)
    var = model.sigma2 * (1.0 - r @ (model.kinv @ r) + (1.0 - rinv_1 @ r) ** 2 / rinv_1.sum())
    return float(mean), max(float(var), 0.0)


def predict_many(stack: GpStack, points: np.ndarray) -> np.ndarray:
    """Kriging means (no variance) of the k models of a :class:`GpStack` at the rows
    of an m x d points array, as an m x k array (one model: ``stack_models([model])``).

    One kernel pass squares the normalized points' differences to the shared
    design once for every model.  d stays the last axis and each mean is summed
    over its own kernel row, not by a matrix-vector product whose order depends
    on m, so a mean has the same bits alone or stacked, and a point the same
    bits in any batch.
    """
    points = np.asarray(points, dtype=float)
    d = stack.design.shape[1]
    if points.ndim != 2 or points.shape[1] != d:
        raise ValueError(f"points must be m x {d}")
    r = _corr(_sq_diff((points - stack.x_lo) / stack.x_span, stack.design), stack.lengths)
    return (stack.betas + (r * stack.weights).sum(axis=-1)).T


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
    rinv_1 = model.kinv.sum(axis=1)
    q = model.kinv - np.outer(rinv_1, rinv_1) / rinv_1.sum()
    resid = (q @ y) / np.diag(q)
    loo_pred = y - resid
    return prediction_metrics(y, loo_pred)

