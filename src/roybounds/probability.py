"""Probability records and simplex polytope geometry.

All identified sets for binary-outcome models live on the 3-simplex of
joint masses (p00, p01, p10, p11), with p_ij = P(Y0=i, Y1=j).  Identified
sets are intersections of the simplex with halfspaces a.p <= b; extrema
of linear functionals are computed by exact vertex enumeration, which is
cheap and exact in this fixed, tiny dimension.  `make_rng` is the one
seeded random generator behind every simulation and bootstrap draw.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import Infeasible, NegativeMass, NotNormalized

NORM_TOL = 1e-12
INPUT_NORM_TOL = 1e-9
FEAS_TOL = 1e-9


def make_rng(seed: int, *stream) -> np.random.Generator:
    """Counter-based generator; extra ints select independent streams."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *stream])))


@dataclass(frozen=True)
class CellProbs:
    """Observed cell probabilities q_ij = P(Y=i, D=j) of a binary dataset."""

    q00: float
    q01: float
    q10: float
    q11: float

    def __post_init__(self):
        arr = self.as_array()
        if np.any(arr < -NORM_TOL):
            raise NegativeMass(f"negative cell probability in {arr}")
        # Negated so that a NaN sum fails too.
        if not abs(arr.sum() - 1.0) <= INPUT_NORM_TOL:
            raise NotNormalized(f"cell probabilities sum to {arr.sum():.12g}")

    def as_array(self) -> np.ndarray:
        return np.array([self.q00, self.q01, self.q10, self.q11])

    @property
    def p_y1(self) -> float:
        """P(Y=1)."""
        return self.q10 + self.q11

    @property
    def p_y0(self) -> float:
        """P(Y=0)."""
        return self.q00 + self.q01

    @property
    def p_d1(self) -> float:
        """P(D=1)."""
        return self.q01 + self.q11

    @property
    def p_d0(self) -> float:
        """P(D=0)."""
        return self.q00 + self.q10


def validate_cells(q00: float, q01: float, q10: float, q11: float) -> CellProbs:
    """Validate four raw cell probabilities, renormalizing tiny drift.

    Raises NegativeMass for negative inputs and NotNormalized when the sum
    deviates from one by more than 1e-9 or is not a number.
    """
    raw = np.array([q00, q01, q10, q11], dtype=float)
    if np.any(raw < -NORM_TOL):
        raise NegativeMass(f"negative cell probability in {raw}")
    total = raw.sum()
    # Negated so that NaN or infinite cells, whose sum is not finite, fail too.
    if not abs(total - 1.0) <= INPUT_NORM_TOL:
        raise NotNormalized(f"cell probabilities sum to {total:.12g}")
    raw = np.clip(raw, 0.0, None)
    raw = raw / raw.sum()
    return CellProbs(*raw)


@dataclass(frozen=True)
class InstrumentTable:
    """Finite-support instrument: (z label, CellProbs, weight P(Z=z)) triples."""

    points: tuple[tuple[object, CellProbs, float], ...]

    def __post_init__(self):
        labels = [z for z, _, _ in self.points]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate instrument labels")
        if not self.points:
            raise ValueError("instrument table needs at least one point")
        w = np.array([w for _, _, w in self.points], dtype=float)
        if np.any(w <= 0):
            raise NegativeMass("instrument weights must be positive")
        if abs(w.sum() - 1.0) > INPUT_NORM_TOL:
            raise NotNormalized(f"instrument weights sum to {w.sum():.12g}")

    @classmethod
    def from_cells(cls, cells: dict, weights: dict | None = None) -> "InstrumentTable":
        labels = sorted(cells, key=str)
        if weights is None:
            weights = {z: 1.0 / len(labels) for z in labels}
        total = sum(weights[z] for z in labels)
        return cls(tuple((z, cells[z], weights[z] / total) for z in labels))

    @property
    def labels(self) -> list:
        return [z for z, _, _ in self.points]

    def cells(self, z) -> CellProbs:
        for label, q, _ in self.points:
            if label == z:
                return q
        raise KeyError(z)

    def pooled(self) -> CellProbs:
        """Weighted average of the cell probabilities over z."""
        arr = sum(w * q.as_array() for _, q, w in self.points)
        return CellProbs(*arr)


@dataclass(frozen=True)
class PotentialJoint:
    """Candidate joint mass (p00, p01, p10, p11) of (Y0, Y1) on the 3-simplex."""

    p00: float
    p01: float
    p10: float
    p11: float

    def __post_init__(self):
        arr = self.as_array()
        if np.any(arr < -NORM_TOL):
            raise NegativeMass(f"negative joint mass in {arr}")
        # Negated so that a NaN sum fails too.
        if not abs(arr.sum() - 1.0) <= INPUT_NORM_TOL:
            raise NotNormalized(f"joint masses sum to {arr.sum():.12g}")

    def as_array(self) -> np.ndarray:
        return np.array([self.p00, self.p01, self.p10, self.p11])

    @property
    def ey0(self) -> float:
        return self.p10 + self.p11

    @property
    def ey1(self) -> float:
        return self.p01 + self.p11


@dataclass(frozen=True)
class IntervalBound:
    """Closed interval [lo, hi] with a sharpness tag and provenance label.

    A crossed interval (lo > hi) is representable: it encodes an empty
    bound, which is a model-rejection finding, not an input error.
    """

    lo: float
    hi: float
    sharp: bool = True
    label: str = ""

    @property
    def crossed(self) -> bool:
        return bool(self.lo > self.hi + NORM_TOL)

    def contains(self, x: float, tol: float = FEAS_TOL) -> bool:
        return self.lo - tol <= x <= self.hi + tol

    def contains_interval(self, other: "IntervalBound", tol: float = FEAS_TOL) -> bool:
        return self.lo - tol <= other.lo and other.hi <= self.hi + tol

    def clamp(self, lo: float = 0.0, hi: float = 1.0) -> "IntervalBound":
        return IntervalBound(
            min(max(self.lo, lo), hi), min(max(self.hi, lo), hi), self.sharp, self.label
        )

    def to_dict(self) -> dict:
        def enc(x):
            if x == np.inf:
                return "+inf"
            if x == -np.inf:
                return "-inf"
            return x

        return {"lo": enc(self.lo), "hi": enc(self.hi), "sharp": self.sharp, "label": self.label}


# Coordinate order used throughout: p = (p00, p01, p10, p11).
P00, P01, P10, P11 = 0, 1, 2, 3


def unit(i: int) -> np.ndarray:
    e = np.zeros(4)
    e[i] = 1.0
    return e


@dataclass(frozen=True)
class SimplexPolytope:
    """Intersection of the 3-simplex with halfspaces a.p <= b.

    Nonnegativity and the sum-to-one constraint are implicit.  Equalities
    are encoded as paired inequalities by callers.
    """

    halfspaces: tuple[tuple[tuple[float, float, float, float], float], ...]
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def from_rows(cls, rows) -> "SimplexPolytope":
        hs = tuple((tuple(float(x) for x in a), float(b)) for a, b in rows)
        return cls(halfspaces=hs)

    @classmethod
    def full_simplex(cls) -> "SimplexPolytope":
        return cls(halfspaces=())

    def matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """All facet rows a.p <= b, including the nonnegativity facets."""
        rows = [(-unit(i), 0.0) for i in range(4)]
        rows += [(np.asarray(a, dtype=float), b) for a, b in self.halfspaces]
        A = np.array([r[0] for r in rows])
        b = np.array([r[1] for r in rows])
        return A, b

    def vertices(self) -> np.ndarray:
        """Enumerate all vertices by intersecting facet triples with sum(p)=1."""
        if "vertices" in self._cache:
            return self._cache["vertices"]
        A, b = self.matrix()
        m = len(b)
        combos = np.array(list(itertools.combinations(range(m), 3)))
        mats = np.empty((len(combos), 4, 4))
        rhs = np.empty((len(combos), 4))
        mats[:, :3, :] = A[combos]
        rhs[:, :3] = b[combos]
        mats[:, 3, :] = 1.0
        rhs[:, 3] = 1.0
        dets = np.abs(np.linalg.det(mats))
        ok = dets > 1e-12
        verts = np.empty((0, 4))
        if ok.any():
            sols = np.linalg.solve(mats[ok], rhs[ok][..., None])[..., 0]
            feas = np.all(sols @ A.T <= b + FEAS_TOL, axis=1)
            sols = sols[feas]
            if len(sols):
                verts = np.unique(np.round(sols / FEAS_TOL) * FEAS_TOL, axis=0)
        self._cache["vertices"] = verts
        return verts

    def is_feasible(self) -> bool:
        return len(self.vertices()) > 0

    def contains_points(self, pts: np.ndarray, tol: float = FEAS_TOL) -> np.ndarray:
        """Vectorized membership for an (n, 4) array of simplex points."""
        pts = np.atleast_2d(pts)
        ok = np.all(pts >= -tol, axis=1) & (np.abs(pts.sum(axis=1) - 1.0) <= 1e-9)
        for a, b in self.halfspaces:
            ok &= pts @ np.asarray(a) <= b + tol
        return ok


def membership(polytope: SimplexPolytope, p: PotentialJoint, tol: float = FEAS_TOL) -> bool:
    """True iff all halfspaces hold at p within tolerance."""
    return bool(polytope.contains_points(p.as_array()[None, :], tol=tol)[0])


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
