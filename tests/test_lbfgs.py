import numpy as np
import pytest

from dynshape.lbfgs import _minimize_box, _newton


def rosenbrock(x):
    """Chained Rosenbrock function and its gradient; the minimum is 0 at all ones."""
    a, b = x[:-1], x[1:]
    f = float((100.0 * (b - a ** 2) ** 2 + (1.0 - a) ** 2).sum())
    g = np.zeros_like(x)
    g[:-1] = -400.0 * a * (b - a ** 2) - 2.0 * (1.0 - a)
    g[1:] += 200.0 * (b - a ** 2)
    return f, g


def test_quadratic_ends_on_the_bounds_it_crosses():
    center = np.array([2.0, -3.0, 0.5])

    def fun(x):
        return float(((x - center) ** 2).sum()), 2.0 * (x - center)

    x, f, nfev, nit, message, at_bound = _minimize_box(
        fun, np.zeros(3), -np.ones(3), np.ones(3), maxiter=100, gtol=1e-10, ftol=0.0)
    np.testing.assert_allclose(x, [1.0, -1.0, 0.5], atol=1e-9)
    assert x[0] == 1.0 and x[1] == -1.0
    assert f == pytest.approx(1.0 + 4.0, abs=1e-12)
    assert at_bound.tolist() == [True, True, False]
    assert message == "projected gradient <= gtol"
    assert 1 <= nit < nfev


@pytest.mark.parametrize("x0", [np.array([-1.2, 1.0]), np.tile([-1.2, 1.0], 10)],
                         ids=["2-D", "20-D"])
def test_rosenbrock_reaches_the_optimum(x0):
    lo, hi = np.full(x0.size, -5.0), np.full(x0.size, 5.0)
    x, f, _, nit, _, at_bound = _minimize_box(rosenbrock, x0, lo, hi, maxiter=5000,
                                              gtol=1e-10, ftol=1e-16)
    np.testing.assert_allclose(x, np.ones(x0.size), atol=1e-6)
    assert f <= 1e-12
    assert nit < 5000 and not at_bound.any()


@pytest.mark.parametrize("maxiter", [0, 1, 7])
def test_maxiter_is_respected(maxiter):
    x0 = np.array([-1.2, 1.0])
    x, f, nfev, nit, message, _ = _minimize_box(rosenbrock, x0, np.full(2, -5.0),
                                                np.full(2, 5.0), maxiter, gtol=0.0, ftol=0.0)
    assert nit == maxiter and message == "iteration limit reached"
    assert nfev >= nit + 1
    assert f <= rosenbrock(x0)[0]


def test_stand_in_value_is_never_accepted():
    # The objective cannot be evaluated beyond x[0] = 0.5 and returns the 1e25
    # stand-in there, as fit_gp's objective does on an ill-conditioned design.
    # Its minimizer (0.45, 0.3) lies just short of that region, and its slope
    # is nearly constant far from it, so the secant steps overshoot.
    center = np.array([0.45, 0.3])
    seen = []

    def fun(x):
        if x[0] > 0.5:
            seen.append(x.copy())
            return 1e25, np.zeros(2)
        root = np.sqrt(1.0 + ((x - center) ** 2).sum())
        return float(root - 1.0), (x - center) / root

    x, f, _, _, _, _ = _minimize_box(fun, np.array([-3.0, 0.3]), np.full(2, -4.0),
                                     np.full(2, 4.0), maxiter=200, gtol=1e-9, ftol=0.0)
    assert seen  # the line search had to back off from the stand-in value
    assert x[0] <= 0.5 and f < 1e-12
    np.testing.assert_allclose(x, center, atol=1e-6)


def rosenbrock_with_hessian(x):
    f, g = rosenbrock(x)
    a, b = x[0], x[1]
    h = np.array([[1200.0 * a ** 2 - 400.0 * b + 2.0, -400.0 * a], [-400.0 * a, 200.0]])
    return f, g, h


def test_newton_steps_end_a_quadratic_on_its_bounds():
    center = np.array([2.0, -3.0, 0.5])
    hess = np.diag([2.0, 8.0, 0.5])

    def fun(x):
        r = x - center
        return float(r @ hess @ r) / 2.0, hess @ r, hess

    x, f, nfev, nit, message, at_bound = _minimize_box(
        fun, np.zeros(3), -np.ones(3), np.ones(3), maxiter=100, gtol=1e-10, ftol=0.0)
    assert x.tolist() == [1.0, -1.0, 0.5]
    assert at_bound.tolist() == [True, True, False]
    assert message == "projected gradient <= gtol"
    assert nit <= 3 and nfev == nit + 1


def test_newton_shifts_an_indefinite_hessian():
    # at (0, 1) the Rosenbrock Hessian is diag(-398, 200): the Cholesky test fails
    # and the shifted system still gives a descent step
    x0 = np.array([0.0, 1.0])
    assert np.linalg.eigvalsh(rosenbrock_with_hessian(x0)[2]).min() < 0
    x, f, _, nit, _, _ = _minimize_box(rosenbrock_with_hessian, x0, np.full(2, -5.0),
                                       np.full(2, 5.0), maxiter=200, gtol=1e-10, ftol=1e-16)
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-8)
    assert f <= 1e-16 and nit < 50


@pytest.mark.parametrize("q", [[3.0, 4.0], [0.3, 0.4]])
def test_newton_on_a_nan_hessian_takes_a_gradient_step(q):
    # numpy factors a NaN matrix without an error, so the factor itself is checked
    q = np.array(q)
    step = _newton(np.full((2, 2), np.nan), q)
    np.testing.assert_allclose(step, q / max(1.0, np.linalg.norm(q)), rtol=1e-15)
