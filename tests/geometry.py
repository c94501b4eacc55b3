"""Brute-force simplex geometry for the tests.

A grid of the 3-simplex, membership of points, extrema of a linear
functional by vertex enumeration, and interval containment: independent
routes to what the closed forms compute, so no bound depends on them.
"""

import numpy as np

from roybounds.errors import Infeasible
from roybounds.probability import FEAS_TOL, IntervalBound, PotentialJoint, SimplexPolytope


def contains_points(polytope: SimplexPolytope, pts: np.ndarray, tol: float = FEAS_TOL) -> np.ndarray:
    """Vectorized membership for an (n, 4) array of simplex points."""
    pts = np.atleast_2d(pts)
    ok = np.all(pts >= -tol, axis=1) & (np.abs(pts.sum(axis=1) - 1.0) <= 1e-9)
    for a, b in polytope.halfspaces:
        ok &= pts @ np.asarray(a) <= b + tol
    return ok


def membership(polytope: SimplexPolytope, p: PotentialJoint, tol: float = FEAS_TOL) -> bool:
    """True iff all halfspaces hold at p within tolerance."""
    return bool(contains_points(polytope, p.as_array()[None, :], tol=tol)[0])


def polytope_extrema(polytope: SimplexPolytope, c, label: str = "") -> IntervalBound:
    """Exact [min, max] of c.p over the polytope, by vertex enumeration."""
    verts = polytope.vertices()
    if len(verts) == 0:
        raise Infeasible("polytope has no feasible point")
    vals = verts @ np.asarray(c, dtype=float)
    return IntervalBound(float(vals.min()), float(vals.max()), sharp=True, label=label)


def simplex_grid(step: float = 0.01) -> np.ndarray:
    """All points of the 3-simplex with coordinates that are multiples of step."""
    n = round(1.0 / step)
    pts = []
    for i in range(n + 1):
        for j in range(n + 1 - i):
            rem = n - i - j
            k = np.arange(rem + 1)
            block = np.empty((rem + 1, 4))
            block[:, 0] = i
            block[:, 1] = j
            block[:, 2] = k
            block[:, 3] = rem - k
            pts.append(block)
    return np.concatenate(pts) / n


def contains(bound: IntervalBound, x: float, tol: float = FEAS_TOL) -> bool:
    """True iff x lies in bound, up to tol at each end."""
    return bound.lo - tol <= x <= bound.hi + tol


def contains_interval(outer: IntervalBound, inner: IntervalBound, tol: float = FEAS_TOL) -> bool:
    """True iff inner lies within outer, up to tol at each end."""
    return outer.lo - tol <= inner.lo and inner.hi <= outer.hi + tol
