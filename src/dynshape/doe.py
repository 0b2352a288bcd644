"""Space-filling experimental designs on bounded input boxes.

Latin hypercube designs with uniform within-stratum placement, optionally
improved by random restarts plus column-element swap hill climbing on the
minimum pairwise distance (maximin criterion).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "InputBox",
    "DesignMatrix",
    "lhd_sample",
    "maximin_lhd",
    "scale_to_box",
    "min_pairwise_distance",
]

_MAX_SWEEPS = 8
# candidate swaps evaluated per array step of _swap_hill_climb
_BATCH = 16


@dataclass(frozen=True)
class InputBox:
    """Axis-aligned box of simulator inputs, one (lower, upper) pair per dimension."""

    lower: np.ndarray
    upper: np.ndarray
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.ndim != 1 or lower.shape != upper.shape or lower.size < 1:
            raise ValueError("lower and upper must be 1-d arrays of equal positive length")
        if not np.all(lower < upper):
            raise ValueError("every lower bound must lie strictly below its upper bound")
        if self.names is not None:
            names = tuple(str(s) for s in self.names)
            object.__setattr__(self, "names", names)
            if len(names) != lower.size:
                raise ValueError("names must match the box dimension")

    @property
    def dims(self) -> int:
        return self.lower.size

    @property
    def span(self) -> np.ndarray:
        return self.upper - self.lower


@dataclass(frozen=True)
class DesignMatrix:
    """n x d matrix of design points.

    ``normalized`` is True while the points live in [0, 1]^d and False once
    they have been mapped to box coordinates.
    """

    points: np.ndarray
    normalized: bool

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("design points must form a 2-d array")
        object.__setattr__(self, "points", pts)

    @property
    def d(self) -> int:
        return self.points.shape[1]


def _check_size(n: int, d: int) -> None:
    if n < 2:
        raise ValueError(f"a design needs at least 2 points, got n={n}")
    if d < 1:
        raise ValueError(f"a design needs at least 1 dimension, got d={d}")


def min_pairwise_distance(points: np.ndarray) -> float:
    """Smallest Euclidean distance between any two rows of ``points``.

    Squares are summed column by column, in order, as in ``scipy``'s
    ``pdist``, so the result equals ``pdist(points).min()`` bit for bit.
    """
    pts = np.asarray(points, dtype=float)
    i, j = np.triu_indices(pts.shape[0], 1)
    diff = pts[i] - pts[j]
    return float(np.sqrt(sum(diff[:, c] * diff[:, c] for c in range(pts.shape[1])).min()))


def lhd_sample(n: int, d: int, seed: int | list[int]) -> DesignMatrix:
    """Draw a Latin hypercube design on [0, 1]^d.

    Every column contains exactly one point in each of the n equal-width
    strata [i/n, (i+1)/n); placement inside a stratum is uniform.  The result
    is a deterministic function of (n, d, seed); ``seed`` is a nonnegative
    int or a list of them, which seeds ``numpy.random.default_rng``.
    """
    _check_size(n, d)
    if np.any(np.asarray(seed) < 0):
        raise ValueError("seed must be nonnegative")
    rng = np.random.default_rng(seed)
    pts = np.empty((n, d))
    for j in range(d):
        pts[:, j] = (rng.permutation(n) + rng.uniform(size=n)) / n
    return DesignMatrix(points=pts, normalized=True)


def _swap_hill_climb(pts: np.ndarray) -> np.ndarray:
    """Improve min pairwise distance by swapping column elements between rows.

    First-improvement sweeps over all (column, row pair) swaps; a swap is kept
    only if it strictly increases the minimum distance, so the criterion never
    decreases.  Deterministic for a given input.

    Swapping rows i and j in one column changes only distances in rows i and
    j, so it can raise the minimum only if every pair at the minimum touches
    i or j.  For each column the pairs (i, j) left to try that pass this test
    are listed in loop order and evaluated ``_BATCH`` at a time, one array
    per batch; the first improving pair is kept, the minimum is updated, and
    the search resumes at (i, j + 1), so the same swaps are kept as by a loop
    over every pair.  Batches are small and fixed because every pair
    evaluated after a column's next gain is wasted work, and a whole list
    grows with n.
    """
    pts = pts.copy()
    n, d = pts.shape
    # squared distance matrix with an inf diagonal so row minima are pairwise
    diff = pts[:, None, :] - pts[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(d2, np.inf)
    best = d2.min()
    count = (d2 == best).sum(axis=0)  # pairs at the minimum that touch each row
    upper = np.triu(np.ones((n, n), dtype=bool), 1)

    for _ in range(_MAX_SWEEPS):
        improved = False
        for k in range(d):
            start = 0  # flat index i * n + j of the first pair left to try
            while True:
                # the pairs at the minimum that avoid i must all touch partner j
                apart = count.sum() // 2 - count
                ok = (count - (d2 == best) == apart[:, None]) & upper
                ok &= pts[:, k, None] != pts[:, k]
                pairs = start + np.flatnonzero(ok.ravel()[start:])
                for lo in range(0, pairs.size, _BATCH):
                    ci, cj = np.divmod(pairs[lo:lo + _BATCH], n)
                    t = np.arange(ci.size)
                    # one swapped copy of the design per pair; the rows are
                    # summed as ((pts - pts[i]) ** 2).sum(axis=1) to keep the bits
                    a = np.repeat(pts[None], ci.size, axis=0)
                    a[t, ci, k], a[t, cj, k] = pts[cj, k], pts[ci, k]
                    row_i = ((a - a[t, ci, None]) ** 2).sum(axis=2)
                    row_j = ((a - a[t, cj, None]) ** 2).sum(axis=2)
                    row_i[t, ci] = row_j[t, cj] = np.inf
                    up = np.flatnonzero(np.minimum(row_i.min(axis=1), row_j.min(axis=1)) > best)
                    if up.size:
                        break
                else:
                    break
                t, i, j = up[0], ci[up[0]], cj[up[0]]
                pts[i, k], pts[j, k] = pts[j, k], pts[i, k]
                d2[i, :] = d2[:, i] = row_i[t]
                d2[j, :] = d2[:, j] = row_j[t]
                best = d2.min()
                count = (d2 == best).sum(axis=0)
                improved = True
                start = i * n + j + 1
        if not improved:
            break
    return pts


def maximin_lhd(n: int, d: int, seed: int, restarts: int) -> DesignMatrix:
    """Maximin-improved Latin hypercube design on [0, 1]^d.

    Generates ``restarts`` stratified designs (restart r starts from
    ``lhd_sample(n, d, [seed, r])``, so no two seeds share a restart),
    hill-climbs each by column-element swaps, and keeps the candidate with
    the largest minimum pairwise distance.  Ties keep the earliest candidate.
    """
    _check_size(n, d)
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    best_pts = None
    best_dist = -np.inf
    for r in range(restarts):
        cand = _swap_hill_climb(lhd_sample(n, d, [seed, r]).points)
        dist = min_pairwise_distance(cand)
        if dist > best_dist:
            best_dist = dist
            best_pts = cand
    return DesignMatrix(points=best_pts, normalized=True)


def scale_to_box(design: DesignMatrix, box: InputBox) -> DesignMatrix:
    """Map a normalized design onto box coordinates, column by column."""
    if not design.normalized:
        raise ValueError("design is already in box coordinates")
    if design.d != box.dims:
        raise ValueError(f"design has {design.d} columns but the box has {box.dims}")
    pts = box.lower + design.points * box.span
    return DesignMatrix(points=pts, normalized=False)
