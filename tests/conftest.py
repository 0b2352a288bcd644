import numpy as np
import pytest

from dynshape.registration import CurveSet, TransformParams, _phases

TWO_PI = 2.0 * np.pi


def trig_pattern(t):
    """Band-limited test pattern: degree-3 trigonometric polynomial."""
    t = np.asarray(t, dtype=float)
    return 5.0 + 2.0 * np.cos(t) + 0.7 * np.sin(2.0 * t) - 0.3 * np.cos(3.0 * t)


def deformed_curves(alpha, theta, v, j=31, pattern=trig_pattern, noise_var=0.0, seed=0):
    """Curves alpha_k * pattern(t - theta_k) + v_k on the angular grid.

    The first parameter triple must be (1, 0, 0); with the band-limited
    default pattern the Fourier-domain deformation model holds exactly.
    """
    alpha = np.asarray(alpha, dtype=float)
    theta = np.asarray(theta, dtype=float)
    v = np.asarray(v, dtype=float)
    omega = TWO_PI * np.arange(j) / j
    values = alpha[:, None] * pattern(omega[None, :] - theta[:, None]) + v[:, None]
    if noise_var > 0:
        rng = np.random.default_rng(seed)
        values = values + rng.normal(0.0, np.sqrt(noise_var), size=values.shape)
    curves = CurveSet(values=values, t_grid=omega, period=TWO_PI)
    return curves, TransformParams(alpha=alpha, theta=theta, v=v)


# The forward deformation in the Fourier domain, which prediction once called
# per curve: the tests keep it as the oracle for the shift basis.
def deform(coeffs: np.ndarray, alpha: np.ndarray, theta: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Coefficients of alpha_k f(t - theta_k) + v_k, one row per parameter triple.

    ``coeffs`` is the pattern's half spectrum (column l = frequency l); alpha,
    theta and v are equal-length arrays.  Inverse of :func:`undeform`.
    """
    phases = _phases(-theta, coeffs.shape[-1])
    out = alpha[:, None] * coeffs[None, :] * phases
    out[:, 0] += v
    return out


@pytest.fixture
def small_deformed():
    alpha = np.array([1.0, 1.4, 0.6, 2.2, 0.9])
    theta = np.array([0.0, 0.8, -1.3, 2.4, 0.1])
    v = np.array([0.0, -1.0, 2.5, 0.3, -0.7])
    return deformed_curves(alpha, theta, v, j=31)
