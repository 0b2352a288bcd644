"""Bound-constrained minimization by a projected limited-memory BFGS search.

A variable on a bound whose gradient points out of the box is held there for
the iteration.  The two-loop recursion over the last ``MEMORY`` (step,
gradient change) pairs gives the step of the others, which is halved along its
projection onto the box until the Armijo condition holds.  The stopping rules
are those of L-BFGS-B (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput. 16(5),
1995).  A dense inverse-Hessian update is not enough: on 101 noisy curves (200
variables) it drove most amplitude scales to their upper bound.
"""
from __future__ import annotations

import numpy as np

MEMORY = 10
HALVINGS = 30
ARMIJO = 1e-4
EPS = np.finfo(float).eps


def _minimize_box(fun, x0, lo, hi, maxiter, gtol, ftol):
    """Minimize ``fun``, which returns (f, gradient), over lo <= x <= hi from x0.

    Stops when the projected gradient's largest entry is <= gtol, when an
    iteration reduces f by <= ftol relative to max(|f|, 1), or after maxiter
    iterations.  A value that is not finite, or lacks sufficient decrease, is
    never accepted, so ``fun`` may return a huge stand-in where it cannot be
    evaluated.  Returns (x, f, nfev, nit, message, at_bound), where
    ``at_bound`` marks the coordinates that end on a bound.
    """
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    f, g = fun(x)
    nfev, nit = 1, 0
    steps = changes = np.empty((0, x.size))  # the newest MEMORY pairs, one per row
    message = "projected gradient <= gtol"
    while np.max(np.abs(x - np.clip(x - g, lo, hi))) > gtol:
        if nit >= maxiter:
            message = "iteration limit reached"
            break
        free = ~(((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0)))
        q, s, y = g[free], steps[:, free], changes[:, free]
        # the two-loop recursion, run on the pairs' inner products over the free
        # variables; a pair without positive curvature there gets no weight
        sy, yy, sq = (s @ y.T).tolist(), y @ y.T, (s @ q).tolist()
        k = len(sq)
        keep = [i for i in range(k) if sy[i][i] > EPS * yy[i, i]]
        a, b = [0.0] * k, [0.0] * k
        for i in reversed(keep):
            a[i] = (sq[i] - sum(a[j] * sy[i][j] for j in range(i + 1, k))) / sy[i][i]
        if keep:  # initial inverse Hessian: s'y / y'y of the newest kept pair
            gamma = sy[keep[-1]][keep[-1]] / yy[keep[-1], keep[-1]]
        else:  # a gradient step of at most unit length
            gamma = 1.0 / max(1.0, np.linalg.norm(q))
        yr = (gamma * (y @ q - yy @ a)).tolist()  # y_i' r before the second loop
        for i in keep:
            b[i] = (yr[i] + sum((a[j] - b[j]) * sy[j][i] for j in range(i))) / sy[i][i]
        q = gamma * (q - y.T @ a) + s.T @ (np.array(a) - b) if keep else gamma * q
        d = np.zeros_like(x)
        d[free] = -q
        t = 1.0
        for _ in range(HALVINGS):
            x_new = np.clip(x + t * d, lo, hi)
            f_new, g_new = fun(x_new)
            nfev += 1
            if f_new <= f + ARMIJO * min(g @ (x_new - x), 0.0):
                break
            t *= 0.5
        else:
            if steps.size:  # retry once from a gradient step, as L-BFGS-B does
                steps = changes = np.empty((0, x.size))
                continue
            message = "line search failed"
            break
        steps = np.vstack((steps, x_new - x))[-MEMORY:]
        changes = np.vstack((changes, g_new - g))[-MEMORY:]
        nit += 1
        reduction = (f - f_new) / max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if reduction <= ftol:
            message = "relative reduction of f <= ftol"
            break
    return x, f, nfev, nit, message, (x <= lo) | (x >= hi)
