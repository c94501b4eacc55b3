"""Probability records, and the polytope class of the oracle and tests.

All identified sets for binary-outcome models live on the 3-simplex of
joint masses (p00, p01, p10, p11), with p_ij = P(Y0=i, Y1=j).  The
bounds are closed forms in the observed cells; `SimplexPolytope` cuts
an identified set out of the simplex by halfspaces a.p <= b and
enumerates its vertices exactly, which is cheap in this fixed, tiny
dimension.  That enumeration serves only `oracle.artstein_set` and the
tests, which keep the rest of the simplex geometry to themselves.  An
instrument table holds one row of cells per instrument value, as
arrays.  `make_rng` is the one seeded random generator behind every
simulation and bootstrap draw.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import NegativeMass, NotNormalized

NORM_TOL = 1e-12
INPUT_NORM_TOL = 1e-9
FEAS_TOL = 1e-9


def make_rng(seed: int, *stream) -> np.random.Generator:
    """Counter-based generator; extra ints select independent streams."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *stream])))


def _check_cells(arr: np.ndarray) -> None:
    """Raise for the first row of cells arr (..., 4) that is not a distribution:
    NegativeMass for a cell below -1e-12, NotNormalized for a sum off one by 1e-9 or nan."""
    rows = arr.reshape(-1, 4)
    neg = (rows < -NORM_TOL).any(axis=1)
    total = rows.sum(axis=1)
    # Negated so that a NaN sum fails too.
    bad = np.flatnonzero(neg | ~(np.abs(total - 1.0) <= INPUT_NORM_TOL))
    if len(bad) and neg[bad[0]]:
        raise NegativeMass(f"negative cell probability in {rows[bad[0]]}")
    if len(bad):
        raise NotNormalized(f"cell probabilities sum to {total[bad[0]]:.12g}")


def normalize_cells(raw) -> np.ndarray:
    """Validated cell probabilities (K, 4) from raw ones, renormalizing tiny drift.

    Each row is checked as in CellProbs, then clipped at zero and divided
    by its sum.
    """
    raw = np.asarray(raw, dtype=float)
    _check_cells(raw)
    raw = np.clip(raw, 0.0, None)
    return raw / raw.sum(axis=-1, keepdims=True)


def left_sum(x: np.ndarray):
    """Sum over the first axis, added in order: np.sum adds a long axis pairwise."""
    return np.cumsum(x, axis=0)[-1]


@dataclass(frozen=True)
class CellProbs:
    """Observed cell probabilities q_ij = P(Y=i, D=j) of a binary dataset."""

    q00: float
    q01: float
    q10: float
    q11: float

    def __post_init__(self):
        _check_cells(self.as_array())

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
    return CellProbs(*normalize_cells([[q00, q01, q10, q11]])[0])


@dataclass(frozen=True, eq=False)
class InstrumentTable:
    """Finite-support instrument: labels z, cells (K, 4) in q00, q01, q10, q11
    order and weights P(Z=z) (K,), the arrays read-only.

    Checked once, never renormalized: distinct labels, K >= 1, positive
    weights summing to one, and each row of cells as in CellProbs.
    """

    labels: tuple
    cells: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate instrument labels")
        if not labels:
            raise ValueError("instrument table needs at least one point")
        cells = np.array(self.cells, dtype=float).reshape(len(labels), 4)
        w = np.array(self.weights, dtype=float).reshape(len(labels))
        if np.any(w <= 0):
            raise NegativeMass("instrument weights must be positive")
        if abs(w.sum() - 1.0) > INPUT_NORM_TOL:
            raise NotNormalized(f"instrument weights sum to {w.sum():.12g}")
        _check_cells(cells)
        cells.flags.writeable = w.flags.writeable = False
        for name, value in (("labels", labels), ("cells", cells), ("weights", w)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_cells(cls, cells: dict, weights: dict | None = None) -> "InstrumentTable":
        """Table from CellProbs keyed by z; weights keyed by z, scaled to sum to one
        (equal when None)."""
        labels = sorted(cells, key=str)
        w = np.array([1.0 / len(labels) if weights is None else weights[z] for z in labels], dtype=float)
        return cls(labels, [cells[z].as_array() for z in labels], w / left_sum(w) if labels else w)

    @classmethod
    def from_sums(cls, labels, sums: np.ndarray, totals: np.ndarray) -> "InstrumentTable":
        """Table from weighted cell sums (K, 4) and weight totals (K,) per label,
        as `inference.tabulate` returns them."""
        return cls(labels, normalize_cells(sums / totals[:, None]), totals / left_sum(totals))

    def index(self, z) -> int:
        """Row of label z."""
        try:
            return self.labels.index(z)
        except ValueError:
            raise KeyError(z) from None

    def cell(self, z) -> CellProbs:
        return CellProbs(*self.cells[self.index(z)])

    def pooled(self) -> CellProbs:
        """Weighted average of the cell probabilities over z."""
        return CellProbs(*left_sum(self.weights[:, None] * self.cells))


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

    def vertices(self) -> np.ndarray:
        """Enumerate all vertices by intersecting facet triples with sum(p)=1."""
        if "vertices" in self._cache:
            return self._cache["vertices"]
        # Every facet row a.p <= b, the four nonnegativity rows -p_i <= 0 first.
        A = np.vstack([-np.eye(4), np.reshape([a for a, _ in self.halfspaces], (-1, 4))])
        b = np.concatenate([np.zeros(4), [rhs for _, rhs in self.halfspaces]])
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

