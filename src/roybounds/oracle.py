"""Brute-force oracles and simulators, as the `oracle` and `simulate`
commands run them.

Nothing here is needed to compute bounds; these are independent routes
to the same objects, used to verify the closed forms: exhaustive
subset-inequality enumeration for the binary identified sets, a linear
program over response types for the instrument case, and seeded data
generators under Roy selection.  The sharpness witnesses that no command
runs (couplings that attain bound endpoints, tables generated forward
from a random type law) are test code, in `tests/witnesses.py`.
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

from .errors import InfeasibleLP, OutOfRange
from .functional import OutcomeSample
from .probability import CellProbs, InstrumentTable, IntervalBound, SimplexPolytope, make_rng

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
