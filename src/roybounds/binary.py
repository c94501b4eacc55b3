"""Closed-form sharp bounds for the binary Roy model.

Covers the no-instrument case, instrument-sharpened bounds, marginal
bounds with sector-specific covariates, and conditional-distribution
bounds.  Every bound is a closed form in the observed cells.  The
identified set of (p00, p01, p10, p11) fixes p00 and caps p10 and p01,
so the reported p00 value and caps determine it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateConditioning,
    InfeasibleModel,
    MissingCell,
    OutcomeInstrumentDependence,
)
from .probability import CellProbs, InstrumentTable, IntervalBound


@dataclass(frozen=True)
class BinaryRoyBounds:
    """Sharp bounds on the joint and marginal potential-success probabilities."""

    p00_value: float
    p10_bound: IntervalBound
    p01_bound: IntervalBound
    ey0_bound: IntervalBound
    ey1_bound: IntervalBound
    ate_bound: IntervalBound

    def to_dict(self) -> dict:
        return {
            "p00": self.p00_value,
            "p10": self.p10_bound.to_dict(),
            "p01": self.p01_bound.to_dict(),
            "ey0": self.ey0_bound.to_dict(),
            "ey1": self.ey1_bound.to_dict(),
            "ate": self.ate_bound.to_dict(),
        }


def manski_bounds(q: CellProbs) -> tuple[IntervalBound, IntervalBound, IntervalBound]:
    """Worst-case bounds on (EY0, EY1) and the average sector difference."""
    ey0 = IntervalBound(q.q10, q.p_y1, sharp=True, label="EY0 (no instrument)")
    ey1 = IntervalBound(q.q11, q.p_y1, sharp=True, label="EY1 (no instrument)")
    # 0.0 - q10, not -q10: a zero q10 gives 0.0, where -q10 would report -0.0.
    ate = IntervalBound(0.0 - q.q10, q.q11, sharp=True, label="E(Y1-Y0)")
    return ey0, ey1, ate


def sharp_bounds(q: CellProbs) -> BinaryRoyBounds:
    """Sharp joint bounds: p00 identified, p10 <= q10, p01 <= q11."""
    ey0, ey1, ate = manski_bounds(q)
    return BinaryRoyBounds(
        p00_value=q.p_y0,
        p10_bound=IntervalBound(0.0, q.q10, sharp=True, label="p10"),
        p01_bound=IntervalBound(0.0, q.q11, sharp=True, label="p01"),
        ey0_bound=ey0,
        ey1_bound=ey1,
        ate_bound=ate,
    )


def sharp_bounds_with_instrument(
    t: InstrumentTable, tau_y: float = 0.0
) -> BinaryRoyBounds:
    """Instrument-sharpened bounds; requires Y independent of Z within tau_y.

    The joint caps intersect over z (infima); the marginal lower bounds
    are suprema over z.  Pooled quantities use the instrument weights.
    """
    pooled = t.pooled()
    p_y1 = pooled.p_y1
    _, _, q10, q11 = t.cells.T
    dev = abs(q10 + q11 - p_y1).max()
    if dev > tau_y + 1e-12:
        raise OutcomeInstrumentDependence(
            f"max_z |P(Y=1|z) - P(Y=1)| = {dev:.6g} exceeds tolerance {tau_y:.6g}"
        )
    lo10, hi10 = q10.min(), q10.max()
    lo11, hi11 = q11.min(), q11.max()
    return BinaryRoyBounds(
        p00_value=pooled.p_y0,
        p10_bound=IntervalBound(0.0, lo10, sharp=True, label="p10 (instrument)"),
        p01_bound=IntervalBound(0.0, lo11, sharp=True, label="p01 (instrument)"),
        ey0_bound=IntervalBound(hi10, p_y1, sharp=True, label="EY0 (instrument)"),
        ey1_bound=IntervalBound(hi11, p_y1, sharp=True, label="EY1 (instrument)"),
        ate_bound=IntervalBound(0.0 - lo10, lo11, sharp=True, label="E(Y1-Y0) (instrument)"),
    )


def covariate_cell(t: InstrumentTable, x0, x1) -> CellProbs:
    """Cells of the covariate pair (x0, x1) in a table keyed by such pairs."""
    try:
        return t.cell((x0, x1))
    except KeyError:
        raise MissingCell(f"no cells for (x0, x1) = ({x0!r}, {x1!r})") from None


def marginal_bounds_with_covariates(
    t: InstrumentTable, x0, x1
) -> tuple[IntervalBound, IntervalBound, bool]:
    """Intersection bounds on (E(Y0|x0), E(Y1|x1)) over excluded covariates.

    t is keyed by the pairs (x0, x1), and its weights are not used:
    Supp(X1|X0=x0) and Supp(X0|X1=x1) are the pairs present in t.
    Crossing (empty interval) rejects the binary Roy model and is flagged,
    not raised.
    """
    _, _, q10, q11 = t.cells.T
    ey = []
    for i, x, q in ((0, x0, q10), (1, x1, q11)):
        rows = np.array([pair[i] == x for pair in t.labels], dtype=bool)
        if not rows.any():
            raise MissingCell(f"x{i} = {x!r} not in grid")
        ey.append(IntervalBound(
            q[rows].max(), (q10 + q11)[rows].min(), sharp=True, label=f"E(Y{i}|x{i}={x!r})"
        ))
    return ey[0], ey[1], ey[0].crossed or ey[1].crossed


def conditional_bounds(
    t: InstrumentTable, x0, x1
) -> tuple[IntervalBound, IntervalBound]:
    """Sharp bounds on P(Y1=1|Y0=0,.) and P(Y0=1|Y1=0,.).

    The success probability c=P(Y=1|x0,x1) is reduced by the admissible
    range of the counterfactual mean a, then rescaled by 1-a; the bounds
    are the two extreme a values.  Marginal bounds that cross, which
    `marginal_bounds_with_covariates` flags, leave no admissible a and
    raise InfeasibleModel.
    """
    c = covariate_cell(t, x0, x1).p_y1

    def interval(a_lo: float, a_hi: float, label: str) -> IntervalBound:
        if a_hi >= 1.0 - 1e-9:
            raise DegenerateConditioning(f"conditioning mass 1-a vanishes for {label}")
        return IntervalBound(
            (c - a_hi) / (1.0 - a_hi), (c - a_lo) / (1.0 - a_lo), sharp=True, label=label
        ).clamp()

    ey0, ey1, crossed = marginal_bounds_with_covariates(t, x0, x1)
    if crossed:
        raise InfeasibleModel(f"covariate table at ({x0!r}, {x1!r}) inconsistent with the binary Roy model")
    return interval(ey0.lo, ey0.hi, "P(Y1=1|Y0=0)"), interval(ey1.lo, ey1.hi, "P(Y0=1|Y1=0)")
