"""Brute-force oracles and simulators.

Nothing here is needed to compute bounds; these are independent routes
to the same objects, used to verify the closed forms: exhaustive
subset-inequality enumeration for the binary identified sets, a linear
program over response types for the instrument case, explicit coupling
constructions that attain bound endpoints, and seeded data generators.
One pair map, `_potential`, gives the potential outcome of each pair
(y0, y1) in each sector; the selection correspondence of `artstein_set`,
the observed cells of `response_types` and the `OBJECTIVES` of the LP
are all derived from it.  Only the response-type LP imports scipy, when
it runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import BoundsViolated, InfeasibleLP, OutOfRange
from .functional import OutcomeSample, StepFn, SubCdf
from .probability import (
    CellProbs,
    InstrumentTable,
    IntervalBound,
    PotentialJoint,
    SimplexPolytope,
    make_rng,
)

ROY = "roy"
GENERALIZED = "generalized"


def _potential(pair, d):
    """The potential outcome y_d of a pair index, the pairs (y0, y1) in
    coordinate order p00, p01, p10, p11 = 0..3."""
    return (pair >> (1 - d)) & 1


# The pair indices that can show each observed cell (y, d), cells in q00, q01,
# q10, q11 order: y_d = y, and under Roy selection also y_d >= y_(1-d).
_CELLS = [(y, d) for y in (0, 1) for d in (0, 1)]
_ADMISSIBLE = {
    ROY: [{p for p in range(4) if _potential(p, d) == y >= _potential(p, 1 - d)} for y, d in _CELLS],
    GENERALIZED: [{p for p in range(4) if _potential(p, d) == y} for y, d in _CELLS],
}

# The linear functionals of (p00, p01, p10, p11) that `oracle --objective`
# bounds: the mass of each pair, and the mean of each potential outcome.
OBJECTIVES = {f"p{i:02b}": tuple(int(pair == i) for pair in range(4)) for i in range(4)}
OBJECTIVES.update({f"ey{d}": tuple(_potential(pair, d) for pair in range(4)) for d in (0, 1)})


def artstein_set(q: CellProbs, variant: str = ROY) -> SimplexPolytope:
    """All 14 subset inequalities of the selection correspondence.

    For every nonempty proper subset A of the four potential-outcome
    pairs, the mass of A is at most the probability that the observed
    cell's admissible set meets A.
    """
    admissible = _ADMISSIBLE[variant]
    cells = (q.q00, q.q01, q.q10, q.q11)
    rows = []
    for r in range(1, 4):
        for subset in itertools.combinations(range(4), r):
            rhs = sum(mass for mass, pairs in zip(cells, admissible) if not pairs.isdisjoint(subset))
            rows.append(([float(pair in subset) for pair in range(4)], rhs))
    return SimplexPolytope.from_rows(rows)


def response_types(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The 4 * 2^k response types over a size-k instrument support: a
    potential-outcome pair and a selection map, pair-major, the maps in
    itertools.product((0, 1), repeat=k) order.

    Returns (pair, cell): pair (types,) indexes (p00, p01, p10, p11), and
    cell (k, types) is the observed cell each type yields at each z,
    q00, q01, q10, q11 = 0..3.
    """
    if k > 6:
        raise OutOfRange(f"instrument support {k} exceeds the cap of 6")
    types = np.arange(4 << k)
    pair = types >> k
    d = (types >> (k - 1 - np.arange(k))[:, None]) & 1  # the sector each type takes at z
    return pair, 2 * _potential(pair, d) + d


def response_type_lp(t: InstrumentTable, objective) -> IntervalBound:
    """Extrema of a linear functional of (p00, p01, p10, p11) over all
    response-type distributions reproducing the observed tables.

    Exhausts the 4 * 2^k response types (potential outcomes plus a full
    selection map over the instrument support) and solves two LPs.
    """
    from scipy.optimize import linprog

    pair, cell = response_types(len(t.labels))
    obj = np.asarray(objective, dtype=float)[pair]
    # One row per (z, cell), in the order of t.cells.ravel(), and one for the total mass.
    rows = (cell[:, None, :] == np.arange(4)[:, None]).reshape(-1, len(pair))
    a_eq = np.vstack([rows, np.ones(len(pair))])
    b_eq = np.append(t.cells.ravel(), 1.0)
    out = []
    for sign in (1.0, -1.0):
        res = linprog(sign * obj, A_eq=a_eq, b_eq=b_eq, bounds=(0, 1), method="highs")
        if res.status != 0:
            raise InfeasibleLP("no response-type distribution matches the tables")
        out.append(sign * res.fun)
    return IntervalBound(out[0], out[1], sharp=True, label="response-type LP")


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
    from .binary import covariate_cell, marginal_bounds_with_covariates

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
    rest0 = _difference_stepfn(f0, c._sub[0])
    rest1 = _difference_stepfn(f1, c._sub[1])
    return ContinuousCouplingWitness(
        p_d1=c.p_d1,
        sub0=c._sub[0],
        sub1=c._sub[1],
        rest0=rest0,
        rest1=rest1,
    )


@dataclass(frozen=True)
class DiscreteJoint:
    """Discrete joint law of (Y0, Y1) on listed support points."""

    support: tuple[tuple[float, float], ...]
    probs: tuple[float, ...]

    def draw(self, n: int, rng: np.random.Generator):
        p = np.asarray(self.probs, dtype=float)
        idx = rng.choice(len(p), size=n, p=p / p.sum())
        pts = np.asarray(self.support, dtype=float)
        return pts[idx, 0], pts[idx, 1]


@dataclass(frozen=True)
class GaussianCopulaJoint:
    """Bivariate Gaussian dependence with normal marginals."""

    mu0: float = 0.0
    sd0: float = 1.0
    mu1: float = 0.0
    sd1: float = 1.0
    rho: float = 0.0

    def draw(self, n: int, rng: np.random.Generator):
        z0 = rng.standard_normal(n)
        e = rng.standard_normal(n)
        z1 = self.rho * z0 + np.sqrt(1.0 - self.rho**2) * e
        return self.mu0 + self.sd0 * z0, self.mu1 + self.sd1 * z1


@dataclass(frozen=True)
class SimDesign:
    """Seeded data-generating design: Roy selection with tie-break
    probability pi."""

    joint: object
    n: int
    seed: int
    pi: float = 0.5
    z_labels: tuple = ()
    z_weights: tuple = ()


def simulate(design: SimDesign):
    """Draw a sample from the design; returns (sample, truth record)."""
    if not 0.0 <= design.pi <= 1.0:
        raise OutOfRange(f"tie-break probability {design.pi} outside [0, 1]")
    rng = make_rng(design.seed)
    y0, y1 = design.joint.draw(design.n, rng)
    if design.z_labels:
        w = np.asarray(
            design.z_weights or [1.0 / len(design.z_labels)] * len(design.z_labels),
            dtype=float,
        )
        zi = rng.choice(len(design.z_labels), size=design.n, p=w / w.sum())
        z = np.asarray(design.z_labels, dtype=object)[zi]
    else:
        zi = np.zeros(design.n, dtype=int)
        z = None
    noise = rng.random(design.n)
    d = np.where(y1 > y0, 1, np.where(y1 < y0, 0, (noise < design.pi).astype(int)))
    y = np.where(d == 1, y1, y0)
    sample = OutcomeSample.from_arrays(y, d, z=z)
    truth = {
        "y0": y0,
        "y1": y1,
        "d": d,
        "z_index": zi,
        "design": design,
        "seed": design.seed,
    }
    return sample, truth
