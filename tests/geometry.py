"""Brute-force simplex geometry for the tests.

The coordinate vectors, the closed-form identified sets as polytopes, a
grid of the 3-simplex, membership of points, extrema of a linear
functional by vertex enumeration, and interval containment: independent
routes to what the closed forms compute, so no bound depends on them.
"""

import numpy as np

from roybounds.errors import Infeasible, InfeasibleModel
from roybounds.probability import FEAS_TOL, IntervalBound, PotentialJoint, SimplexPolytope

# Coordinate order of the simplex: p = (p00, p01, p10, p11).
P00, P01, P10, P11 = 0, 1, 2, 3


def unit(i: int) -> np.ndarray:
    """The i-th coordinate vector of the simplex's space."""
    e = np.zeros(4)
    e[i] = 1.0
    return e


def roy_polytope(b) -> SimplexPolytope:
    """Binary Roy identified set of the bounds b (a `BinaryRoyBounds`): p00
    at its identified value, p10 and p01 under their reported caps."""
    rows = [
        (unit(P10), b.p10_bound.hi),
        (unit(P01), b.p01_bound.hi),
        # p00 is identified: the equality as paired inequalities.
        (unit(P00), b.p00_value),
        (-unit(P00), -b.p00_value),
    ]
    return SimplexPolytope.from_rows(rows)


def envelope_polytope(e) -> SimplexPolytope:
    """Generalized-model identified set of the envelopes e (8,), as
    `generalized.envelopes` returns them: eight rows for any support size.
    InfeasibleModel when the set is empty."""
    i1, i0, i1001, i0011, s10, s00, s11, s01 = e
    ey0, ey1 = unit(P10) + unit(P11), unit(P01) + unit(P11)
    poly = SimplexPolytope.from_rows(
        [
            (unit(P11), i1),
            (unit(P00), i0),
            (unit(P10), i1001),
            (unit(P01), i0011),
            (ey0, 1.0 - s00),
            (-ey0, -s10),
            (ey1, 1.0 - s01),
            (-ey1, -s11),
        ]
    )
    if not poly.is_feasible():
        raise InfeasibleModel("instrument table inconsistent with the generalized model")
    return poly


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
