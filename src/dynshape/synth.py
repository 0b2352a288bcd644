"""Ground-truth generators for registration and pipeline tests.

Two data sources: an analytical benchmark (parabola pattern, iid uniform
deformation parameters, optional Gaussian noise) and a functional stand-in
for a slow dynamic simulator, where the deformation parameters are smooth
maps of the input configuration over a bounded box.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .doe import DesignMatrix, InputBox
from .registration import CurveSet, TransformParams

__all__ = [
    "parabola_pattern",
    "pressure_pattern",
    "SimSpec",
    "generate_analytical",
    "generate_functional_sim",
    "co2_default_box",
    "co2_style_spec",
]

_TWO_PI = 2.0 * np.pi
_SIM_PERIOD = 55.0  # the time span of every functional-simulator curve


def parabola_pattern(t):
    """Parabolic arch 20 (1 - t/2pi) (t/2pi) on one period [0, 2pi)."""
    u = np.asarray(t, dtype=float) / _TWO_PI
    return 20.0 * (1.0 - u) * u


def pressure_pattern(t):
    """Smooth pressure-like curve: ramp to a peak, then slow decay.

    Built from periodized Gaussian-like bumps exp(kappa (cos(t - t0) - 1)),
    so it is infinitely smooth on the circle and its Fourier coefficients
    decay below machine precision well before frequency 27; on grids with
    J >= 55 the sampled curve is numerically band limited.
    """
    t = np.asarray(t, dtype=float)
    main = np.exp(2.0 * (np.cos(t - 1.7) - 1.0))
    tail = np.exp(1.5 * (np.cos(t - 3.4) - 1.0))
    return 100.0 + 38.0 * main + 9.0 * tail


@dataclass(frozen=True)
class SimSpec:
    """Closed-form stand-in for a dynamic simulator.

    The deformation maps take an (n, d) array of inputs in box coordinates
    and return one value per row; theta values must stay inside (-pi, pi)
    and alpha values must stay positive.
    """

    pattern: Callable[[np.ndarray], np.ndarray]
    alpha_fn: Callable[[np.ndarray], np.ndarray]
    theta_fn: Callable[[np.ndarray], np.ndarray]
    v_fn: Callable[[np.ndarray], np.ndarray]
    box: InputBox
    j: int = 55
    noise_var: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _check_settings(self.pattern, self.j, self.noise_var, self.seed)


def _check_settings(pattern, j: int, noise_var: float, seed: int) -> None:
    if not callable(pattern):
        raise ValueError("pattern must be a callable of the angle in [0, 2pi)")
    if j < 3 or j % 2 == 0:
        raise ValueError(f"J must be odd and >= 3, got {j}")
    if not 0 <= noise_var < np.inf:  # NaN fails too
        raise ValueError("noise variance must be finite and nonnegative")
    if seed < 0:
        raise ValueError("seed must be nonnegative")


def _deformed(pattern, alpha, theta, v, j, noise_var, rng) -> np.ndarray:
    """Rows alpha_k f(omega - theta_k) + v_k on the J-point grid omega of [0, 2pi),
    with the shifted times wrapped into one period, plus iid N(0, noise_var) noise
    drawn from ``rng`` when the variance is positive."""
    omega = _TWO_PI * np.arange(j) / j
    values = alpha[:, None] * pattern(np.mod(omega[None, :] - theta[:, None], _TWO_PI)) + v[:, None]
    if noise_var > 0:
        values = values + rng.normal(0.0, np.sqrt(noise_var), size=values.shape)
    return values


def generate_analytical(
    n: int,
    j: int,
    noise_var: float,
    seed: int,
    pattern: Callable[[np.ndarray], np.ndarray] = parabola_pattern,
    alpha_range: tuple[float, float] = (0.0, 1.0),
    theta_range: tuple[float, float] = (0.0, 1.0),
    v_range: tuple[float, float] = (0.0, 1.0),
) -> tuple[CurveSet, TransformParams]:
    """Analytical benchmark data with known deformation parameters.

    Each parameter family is drawn uniformly on its half-open range
    (lo, hi] (defaults (0, 1]); the first curve is then forced to the
    identity deformation.  Curves are built by exact evaluation of the
    pattern at the shifted grid times (wrapped into one period), plus iid
    Gaussian noise of the requested variance.  Returns the curves together
    with the ground-truth parameters.
    """
    if n < 2:
        raise ValueError("need at least 2 curves")
    _check_settings(pattern, j, noise_var, seed)
    rng = np.random.default_rng(seed)

    def draw(rng_, lo, hi):
        return hi - (hi - lo) * rng_.random(n)  # uniform on (lo, hi]

    alpha = draw(rng, *alpha_range)
    theta = draw(rng, *theta_range)
    v = draw(rng, *v_range)
    alpha[0], theta[0], v[0] = 1.0, 0.0, 0.0

    values = _deformed(pattern, alpha, theta, v, j, noise_var, rng)
    curves = CurveSet(values=values, t_grid=_TWO_PI * np.arange(j) / j, period=_TWO_PI)
    return curves, TransformParams(alpha=alpha, theta=theta, v=v)


def generate_functional_sim(spec: SimSpec, design: DesignMatrix) -> CurveSet:
    """Evaluate the functional stand-in simulator at every design point.

    Row i is alpha(x_i) f(t - theta(x_i)) + v(x_i) plus optional noise; the
    time grid spans one period of 55 with J equispaced steps.
    """
    pts = design.points
    if design.normalized:
        raise ValueError("design must be in box coordinates; scale it first")
    if design.d != spec.box.dims:
        raise ValueError(f"design has {design.d} columns but the box has {spec.box.dims}")
    tol = 1e-9 * spec.box.span
    if np.any(pts < spec.box.lower - tol) or np.any(pts > spec.box.upper + tol):
        raise ValueError("design points must lie inside the simulator's input box")

    alpha = np.asarray(spec.alpha_fn(pts), dtype=float)
    theta = np.asarray(spec.theta_fn(pts), dtype=float)
    v = np.asarray(spec.v_fn(pts), dtype=float)
    if np.any(np.abs(theta) >= np.pi):
        raise ValueError("theta map must stay inside (-pi, pi)")
    if np.any(alpha <= 0):
        raise ValueError("alpha map must stay positive")

    values = _deformed(spec.pattern, alpha, theta, v, spec.j, spec.noise_var,
                       np.random.default_rng(spec.seed))
    t_grid = (_SIM_PERIOD / spec.j) * np.arange(spec.j)
    return CurveSet(values=values, t_grid=t_grid, period=_SIM_PERIOD)


def co2_default_box() -> InputBox:
    """Demo three-parameter reservoir box: porosity, permeability, rel-perm end point."""
    return InputBox(
        lower=np.array([0.15, 10.0, 0.5]),
        upper=np.array([0.35, 300.0, 1.0]),
        names=("PORO", "KSAND", "KRSAND"),
    )


def co2_style_spec(
    j: int = 55,
    noise_var: float = 0.0,
    seed: int = 0,
    box: InputBox | None = None,
) -> SimSpec:
    """Default pressure-curve stand-in over the demo box.

    Deformation maps are smooth low-order functions of the normalized inputs
    u in [0, 1]^3 with ranges alpha in [0.7, 1.3], theta in [-0.5, 0.5] and
    v in [-2, 2]:

        alpha(u) = 1 + 0.25 (2 u1 - 1) + 0.05 sin(2 pi u2)
        theta(u) = 0.35 (2 u2 - 1) + 0.15 (2 u3 - 1) u1
        v(u)     = 1.4 (2 u3 - 1) + 0.6 cos(pi u1) sin(pi u2)
    """
    box = box if box is not None else co2_default_box()
    lo, span = box.lower, box.span

    def unit(pts):
        return (np.asarray(pts, dtype=float) - lo) / span

    def alpha_fn(pts):
        u = unit(pts)
        return 1.0 + 0.25 * (2 * u[:, 0] - 1.0) + 0.05 * np.sin(_TWO_PI * u[:, 1])

    def theta_fn(pts):
        u = unit(pts)
        return 0.35 * (2 * u[:, 1] - 1.0) + 0.15 * (2 * u[:, 2] - 1.0) * u[:, 0]

    def v_fn(pts):
        u = unit(pts)
        return 1.4 * (2 * u[:, 2] - 1.0) + 0.6 * np.cos(np.pi * u[:, 0]) * np.sin(np.pi * u[:, 1])

    return SimSpec(
        pattern=pressure_pattern,
        alpha_fn=alpha_fn,
        theta_fn=theta_fn,
        v_fn=v_fn,
        box=box,
        j=j,
        noise_var=noise_var,
        seed=seed,
    )
