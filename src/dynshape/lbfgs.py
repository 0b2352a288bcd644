"""Bound-constrained minimization by a projected Newton or limited-memory BFGS search.

A variable on a bound whose gradient points out of the box is held there for
the iteration.  The step of the others is halved along its projection onto the
box until the Armijo condition holds.  When the objective returns its exact
Hessian as well, as registration's contrast does, the step solves the free
block of the Newton system (Bertsekas, SIAM J. Control Optim. 20(2), 1982).
Otherwise the two-loop recursion over the last ``MEMORY`` (step, gradient
change) pairs gives it; that is the path of the kriging fits.  The stopping
rules are those of L-BFGS-B (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput.
16(5), 1995).  A dense quasi-Newton inverse-Hessian update is not enough: on
101 noisy curves (200 variables) it drove most amplitude scales to their upper
bound.
"""
from __future__ import annotations

import numpy as np

MEMORY = 10
HALVINGS = 30
SHIFTS = 30
ARMIJO = 1e-4
EPS = np.finfo(float).eps


def _two_loop(q, s, y):
    """The two-loop recursion for gradient ``q`` over the pairs (rows of s, y).

    It runs on the pairs' inner products; a pair without positive curvature
    gets no weight, and with none kept the step is a gradient step of at most
    unit length.
    """
    sy, yy, sq = (s @ y.T).tolist(), y @ y.T, (s @ q).tolist()
    k = len(sq)
    keep = [i for i in range(k) if sy[i][i] > EPS * yy[i, i]]
    if not keep:
        return (1.0 / max(1.0, np.linalg.norm(q))) * q
    a, b = [0.0] * k, [0.0] * k
    for i in reversed(keep):
        a[i] = (sq[i] - sum(a[j] * sy[i][j] for j in range(i + 1, k))) / sy[i][i]
    gamma = sy[keep[-1]][keep[-1]] / yy[keep[-1], keep[-1]]  # s'y / y'y of the newest kept pair
    yr = (gamma * (y @ q - yy @ a)).tolist()  # y_i' r before the second loop
    for i in keep:
        b[i] = (yr[i] + sum((a[j] - b[j]) * sy[j][i] for j in range(i))) / sy[i][i]
    return gamma * (q - y.T @ a) + s.T @ (np.array(a) - b)


def _newton(h, q):
    """Solve (h + lambda I) d = q, with lambda chosen by Cholesky factorization.

    lambda is 0 unless h is not positive definite; then it starts at 1e-10 of
    h's largest diagonal entry and grows tenfold until the factorization holds.
    If it never does, the step is the gradient's, of at most unit length.
    """
    shift, scale = 0.0, max(float(np.abs(np.diag(h)).max(initial=0.0)), 1.0)
    for _ in range(SHIFTS):
        a = h + shift * np.eye(q.size)
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            shift = max(10.0 * shift, 1e-10 * scale)
            continue
        return np.linalg.solve(a, q)
    return (1.0 / max(1.0, np.linalg.norm(q))) * q


def _minimize_box(fun, x0, lo, hi, maxiter, gtol, ftol):
    """Minimize ``fun`` over lo <= x <= hi from x0.

    ``fun`` returns (f, gradient), or (f, gradient, Hessian) for Newton steps.
    Stops when the projected gradient's largest entry is <= gtol, when an
    iteration reduces f by <= ftol relative to max(|f|, 1), or after maxiter
    iterations.  A line search that fails is retried once from a gradient
    step.  A value that is not finite, or lacks sufficient decrease, is never
    accepted, so ``fun`` may return a huge stand-in where it cannot be
    evaluated.  Returns (x, f, nfev, nit, message, at_bound), where
    ``at_bound`` marks the coordinates that end on a bound.
    """
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    f, g, *hess = fun(x)
    nfev, nit = 1, 0
    steps = changes = np.empty((0, x.size))  # the newest MEMORY pairs, one per row
    retry = False  # the line search failed: take one gradient step
    message = "projected gradient <= gtol"
    while np.max(np.abs(x - np.clip(x - g, lo, hi))) > gtol:
        if nit >= maxiter:
            message = "iteration limit reached"
            break
        free = ~(((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0)))
        if hess and not retry:
            q = _newton(hess[0][np.ix_(free, free)], g[free])
        else:
            q = _two_loop(g[free], steps[:, free], changes[:, free])
        d = np.zeros_like(x)
        d[free] = -q
        t = 1.0
        for _ in range(HALVINGS):
            x_new = np.clip(x + t * d, lo, hi)
            f_new, g_new, *hess_new = fun(x_new)
            nfev += 1
            if f_new <= f + ARMIJO * min(g @ (x_new - x), 0.0):
                break
            t *= 0.5
        else:
            if steps.size or (hess and not retry):
                steps = changes = np.empty((0, x.size))
                retry = True
                continue
            message = "line search failed"
            break
        if not hess:
            steps = np.vstack((steps, x_new - x))[-MEMORY:]
            changes = np.vstack((changes, g_new - g))[-MEMORY:]
        retry = False
        nit += 1
        reduction = (f - f_new) / max(abs(f), abs(f_new), 1.0)
        x, f, g, hess = x_new, f_new, g_new, hess_new
        if reduction <= ftol:
            message = "relative reduction of f <= ftol"
            break
    return x, f, nfev, nit, message, (x <= lo) | (x >= hi)
