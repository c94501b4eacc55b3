"""Sharpness witnesses for the tests.

Candidate joint laws of (Y0, Y1) on the simplex, the observed cells they
induce, instrument tables generated forward from a random response-type
law, explicit couplings that attain bound endpoints, and the step
functions that candidate marginals are given as: constructions that show
a bound is reached, built independently of the closed forms.  No command
runs them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from roybounds.errors import NegativeMass, NotNormalized, OutOfRange, RoyBoundsError
from roybounds.functional import _TOL, SubCdf, _row_inverse
from roybounds.oracle import response_types
from roybounds.probability import INPUT_NORM_TOL, NORM_TOL, CellProbs, InstrumentTable


class BoundsViolated(RoyBoundsError):
    """Candidate marginal distributions violate the functional bounds."""


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


def random_type_table(k: int, rng: np.random.Generator):
    """Feasible instrument table generated forward from a random type law.

    Returns (table, truth joint): by construction the table is exactly
    consistent with the generalized model, so LP oracles never reject it.
    """
    pair, cell = response_types(k)
    weights = rng.dirichlet(np.ones(len(pair)))
    # bincount adds the weights one by one in type order.
    cells = {f"z{zi}": CellProbs(*np.bincount(c, weights, minlength=4)) for zi, c in enumerate(cell)}
    return InstrumentTable.from_cells(cells), PotentialJoint(*np.bincount(pair, weights, minlength=4))


def roy_cells(p: PotentialJoint, pi: float = 0.5) -> CellProbs:
    """Exact observed cells induced by Roy selection with tie-break pi."""
    if not 0.0 <= pi <= 1.0:
        raise OutOfRange(f"tie-break probability {pi} outside [0, 1]")
    return CellProbs(
        q00=p.p00 * (1.0 - pi),
        q01=p.p00 * pi,
        q10=p.p10 + p.p11 * (1.0 - pi),
        q11=p.p01 + p.p11 * pi,
    )


@dataclass(frozen=True)
class BinaryCouplingWitness:
    """Explicit (Y0, Y1, Y, D) law hitting chosen marginal-mean targets.

    Segments of a uniform variable are mapped simultaneously to the
    potential pair and the observed cell, so Roy selection holds draw by
    draw while E(Y0) = a and E(Y1) = b.
    """

    segments: tuple[tuple[float, int, int, int, int], ...]  # (prob, y0, y1, y, d)

    def sample(self, n: int, rng: np.random.Generator):
        probs = np.array([s[0] for s in self.segments])
        idx = rng.choice(len(self.segments), size=n, p=probs / probs.sum())
        cols = np.array([s[1:] for s in self.segments])
        y0, y1, y, d = cols[idx].T
        return y0, y1, y, d


def coupling_witness_binary(t: InstrumentTable, x0, x1, a: float, b: float) -> BinaryCouplingWitness:
    """Witness for the covariate marginal bounds at target means (a, b)."""
    from roybounds.binary import covariate_cell, marginal_bounds_with_covariates

    ey0, ey1, _ = marginal_bounds_with_covariates(t, x0, x1)
    tol = 1e-9
    if not (ey0.lo - tol <= a <= ey0.hi + tol):
        raise OutOfRange(f"a={a} outside admissible range [{ey0.lo}, {ey0.hi}]")
    if not (ey1.lo - tol <= b <= ey1.hi + tol):
        raise OutOfRange(f"b={b} outside admissible range [{ey1.lo}, {ey1.hi}]")
    q = covariate_cell(t, x0, x1)
    c = q.p_y1
    segs = [
        (q.q00, 0, 0, 0, 0),
        (q.q01, 0, 0, 0, 1),
        (c - a, 0, 1, 1, 1),       # strict benefit, chooses 1
        (c - b, 1, 0, 1, 0),       # strict loss from 1, chooses 0
        (b - q.q11, 1, 1, 1, 0),   # ties split to match the observed cells
        (a - q.q10, 1, 1, 1, 1),
    ]
    segs = [(max(p, 0.0), *rest) for p, *rest in segs]
    return BinaryCouplingWitness(segments=tuple(segs))


class StepFn:
    """Right-continuous nondecreasing step function with finite jumps.

    Value is `base` (>= 0) left of the first jump; after jump i it is
    vals[i].  The generalized inverse uses the weak convention
    inv(u) = inf{y : value(y) >= u}, returning -inf when u never exceeds
    the base value and +inf when u exceeds the terminal value.
    """

    def __init__(self, xs: np.ndarray, vals: np.ndarray, base: float = 0.0):
        self.xs = np.asarray(xs, dtype=float)
        self.vals = np.asarray(vals, dtype=float)
        self.base = float(base)

    def __call__(self, y):
        idx = np.searchsorted(self.xs, y, side="right")
        out = np.where(idx > 0, self.vals[np.maximum(idx - 1, 0)], self.base)
        return float(out) if np.isscalar(y) else out

    def inverse(self, u):
        """Weak inverse at a scalar u, or at each entry of an array."""
        t = np.asarray(u, dtype=float).reshape(1, -1)
        # _row_inverse gives -inf at levels not above 0; a base >= 0 widens that.
        out = np.where(t <= self.base + _TOL, -np.inf, _row_inverse(self.vals[None], t, self.xs))
        return float(out[0, 0]) if np.ndim(u) == 0 else out.reshape(np.shape(u))

    @property
    def terminal(self) -> float:
        return float(self.vals[-1]) if len(self.vals) else self.base


def subcdf_stepfns(c: SubCdf) -> tuple[StepFn, StepFn, StepFn]:
    """The cdf and the two sector sub-cdfs of c as step functions: F, F_lo_0, F_lo_1."""
    return StepFn(c.jumps, c.f), StepFn(c.jumps, c.f_lo[0]), StepFn(c.jumps, c.f_lo[1])


def _difference_stepfn(f_cand: StepFn, f_sub: StepFn) -> StepFn:
    grid = np.unique(np.concatenate([f_cand.xs, f_sub.xs]))
    vals = np.maximum.accumulate(f_cand(grid) - f_sub(grid))
    return StepFn(grid, vals, base=f_cand.base - f_sub.base)


@dataclass(frozen=True)
class ContinuousCouplingWitness:
    """Quantile coupling realizing candidate marginals (F0, F1).

    A single uniform drives sector choice and both potential outcomes;
    values in the censored region come out as -inf sentinels, which is
    consistent with the envelope case where a counterfactual outcome is
    only known to lie below the whole sample.
    """

    p_d1: float
    sub0: StepFn
    sub1: StepFn
    rest0: StepFn
    rest1: StepFn

    def sample(self, n: int, rng: np.random.Generator):
        u = rng.random(n)
        d = (u < self.p_d1).astype(int)
        y0 = np.empty(n)
        y1 = np.empty(n)
        sel = d == 1
        y1[sel] = self.sub1.inverse(u[sel])
        y0[sel] = self.rest0.inverse(u[sel])
        y0[~sel] = self.sub0.inverse(u[~sel] - self.p_d1)
        y1[~sel] = self.rest1.inverse(u[~sel] - self.p_d1)
        y = np.where(sel, y1, y0)
        return y0, y1, y, d


def coupling_witness_continuous(c: SubCdf, f0: StepFn, f1: StepFn) -> ContinuousCouplingWitness:
    """Witness coupling for candidate marginal cdfs inside the envelopes."""
    grid = c.jumps
    for d, f in ((0, f0), (1, f1)):
        lo = np.asarray(c.cdf(grid))
        hi = np.asarray(c.bar(d, grid))
        vals = np.asarray(f(grid))
        if np.any(vals < lo - 1e-9) or np.any(vals > hi + 1e-9):
            raise BoundsViolated(f"candidate marginal {d} escapes the envelopes")
        if abs(f.terminal - 1.0) > 1e-9:
            raise BoundsViolated(f"candidate marginal {d} does not reach 1")
    _, sub0, sub1 = subcdf_stepfns(c)
    return ContinuousCouplingWitness(
        p_d1=c.p_d1,
        sub0=sub0,
        sub1=sub1,
        rest0=_difference_stepfn(f0, sub0),
        rest1=_difference_stepfn(f1, sub1),
    )
