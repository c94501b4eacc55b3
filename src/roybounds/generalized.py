"""Sharp bounds for the generalized binary Roy model with an instrument.

Selection is unrestricted; only exclusion of the instrument from
potential outcomes is maintained.  The joint identified set is cut out
of the simplex by eight envelope conditions, whatever the instrument's
support size, and every derived bound (marginals, benefit, regret,
mobility, sector-conditional gains) is a closed form in the same eight
instrument envelopes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import InfeasibleModel, ZeroSectorProbability
from .probability import InstrumentTable, IntervalBound, left_sum

# Cell combinations (rows) of the cells (q00, q01, q10, q11), in envelope
# column order: the first four enter as infima over z, the last four as
# suprema.
_COMBO = np.array(
    [
        [0, 0, 1, 1],   # P(Y=1|z)
        [1, 1, 0, 0],   # P(Y=0|z)
        [0, 1, 1, 0],   # q10 + q01
        [1, 0, 0, 1],   # q00 + q11
        [0, 0, 1, 0],   # q10
        [1, 0, 0, 0],   # q00
        [0, 0, 0, 1],   # q11
        [0, 1, 0, 0],   # q01
    ],
    dtype=float,
)


def envelope_array(theta: np.ndarray, slack=0.0) -> np.ndarray:
    """Envelopes (..., 8) of per-z cell combinations theta (..., K, 8).

    Columns follow _COMBO.  slack, broadcast against theta, raises every
    infimum and lowers every supremum before the extremum over z.
    """
    inf = (theta + slack).min(axis=-2)
    sup = (theta - slack).max(axis=-2)
    return np.concatenate([inf[..., :4], sup[..., 4:]], axis=-1)


def envelopes(t: InstrumentTable) -> np.ndarray:
    """The (8,) envelope array: componentwise min/max of the cell combinations over z."""
    return envelope_array(t.cells @ _COMBO.T)


def bounds_from_envelopes(env) -> dict:
    """Closed-form bounds from envelope vectors env (..., 8), as (lo, hi) arrays.

    Keys as in the report: "ey0", "ey1", "benefit_strict" (P(Y1>Y0)),
    "benefit_weak" (P(Y1>=Y0)) and "mobility" (P(Y1=1|Y0=0)).  Marginal and
    benefit endpoints are unclamped.  Mobility divides by P(Y0=0) bounds from
    the clamped EY0 interval; a lower endpoint over a vanished denominator is
    1.0, an upper one is nan, and each caller decides what nan means.
    """
    i1, i0, i1001, i0011, s10, s00, s11, s01 = np.moveaxis(np.asarray(env, dtype=float), -1, 0)
    ey0 = (np.maximum(s10, 1.0 - i0 - i0011), np.minimum(1.0 - s00, i1 + i1001))
    ey1 = (np.maximum(s11, 1.0 - i0 - i1001), np.minimum(1.0 - s01, i1 + i0011))
    strict_lo = np.maximum(np.maximum(np.maximum(0.0, 1.0 - i1 - i1001 - i0), s00 - i0), s11 - i1)
    # Mirror image: swap sectors (q10 <-> q11, q00 <-> q01) to bound p10.
    p10_lo = np.maximum(np.maximum(np.maximum(0.0, 1.0 - i1 - i0011 - i0), s01 - i0), s10 - i1)
    denom_lo, denom_hi = (1.0 - np.clip(x, 0.0, 1.0) for x in ey0)
    with np.errstate(divide="ignore", invalid="ignore"):
        mobility = (
            np.where(denom_lo > 1e-9, strict_lo / denom_lo, 1.0),
            np.where(denom_hi > 1e-9, i0011 / denom_hi, np.nan),
        )
    return {
        "ey0": ey0,
        "ey1": ey1,
        "benefit_strict": (strict_lo, i0011),
        "benefit_weak": (1.0 - i1001, 1.0 - p10_lo),
        "mobility": mobility,
    }


# The point label of each interval of the report, by its key.
LABELS = {
    "ey0": "EY0", "ey1": "EY1", "ate": "E(Y1-Y0)", "benefit_strict": "P(Y1>Y0)", "benefit_weak": "P(Y1>=Y0)",
    "mobility": "P(Y1=1|Y0=0)", "att1": "E(Y1-Y0|D=1)", "att0": "E(Y0-Y1|D=0)",
}


def point_bounds(e: np.ndarray, labels: dict = LABELS) -> dict[str, IntervalBound]:
    """The intervals of LABELS but the ATTs, from one envelope array e (8,), under labels.

    Every `bounds_from_envelopes` interval is clamped to [0, 1], and the ATE
    spans the clamped marginals, clamped to [-1, 1].  On the envelopes of a
    table these are the point bounds, where crossed marginals reject the
    model; `assemble_cis` builds the confidence intervals from the k-inflated
    envelopes.  Where P(Y0=0) may vanish the mobility ratio is unbounded, so
    its nan upper end becomes 1.0.
    """
    p = {
        key: IntervalBound(float(lo), float(hi), label=labels[key]).clamp()
        for key, (lo, hi) in bounds_from_envelopes(e).items()
    }
    if np.isnan(p["mobility"].hi):
        p["mobility"] = replace(p["mobility"], hi=1.0)
    ey0, ey1 = p["ey0"], p["ey1"]
    p["ate"] = IntervalBound(ey1.lo - ey0.hi, ey1.hi - ey0.lo, label=labels["ate"]).clamp(-1.0, 1.0)
    return p


def _regrets(t: InstrumentTable, e: np.ndarray) -> np.ndarray:
    """Upper bounds (K,) on P(Y1=1 | Y0=0, D=0, Z=z), clamped to [0, 1];
    nan where P(Y=0,D=0|z) is zero."""
    q00 = t.cells[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(q00 > 1e-12, np.minimum(1.0, e[3] / q00), np.nan)


def empty_sector(p_d1: np.ndarray, p_d0: np.ndarray) -> int | None:
    """The first sector d, 1 then 0, whose share P(D=d|z) is at most 1e-12
    at some z, or None: the sector-conditional gains divide by both shares,
    so they exist only when this is None."""
    return next((d for d, p_d in ((1, p_d1), (0, p_d0)) if np.any(p_d <= 1e-12)), None)


def att_bounds(
    t: InstrumentTable, e: np.ndarray | None = None
) -> tuple[IntervalBound, IntervalBound]:
    """Bounds on E(Y1-Y0 | D=1) and E(Y0-Y1 | D=0) via marginal plug-ins.

    e: envelopes(t), when the caller already has them.
    """
    q00, q01, q10, q11 = t.cells.T
    p_d1, p_d0 = q01 + q11, q00 + q10
    empty = empty_sector(p_d1, p_d0)
    if empty is not None:
        raise ZeroSectorProbability(f"P(D={empty}|z) is zero at some z")
    p = point_bounds(envelopes(t) if e is None else e)
    p_y1 = q10 + q11

    def averaged(counterfactual: IntervalBound, p_d: np.ndarray, label: str) -> IntervalBound:
        # Columns lo, hi; summed over z in order.
        gaps = p_y1[:, None] - np.array([counterfactual.hi, counterfactual.lo])
        lo, hi = left_sum(t.weights[:, None] * gaps / p_d[:, None]).tolist()
        return IntervalBound(lo, hi, sharp=False, label=label).clamp(-1.0, 1.0)

    att1 = averaged(p["ey0"], p_d1, LABELS["att1"])
    att0 = averaged(p["ey1"], p_d0, LABELS["att0"])
    return att1, att0


def roy_selection_test(t: InstrumentTable) -> dict:
    """Diagnostics for the Roy selection mechanism.

    Checks P(Y1>Y0) lower <= P(D=1|z) <= P(Y1>=Y0) upper at every z, and
    reports the largest deviation of P(Y=1|z) from its pooled value.
    """
    p = point_bounds(envelopes(t))
    strict, weak = p["benefit_strict"], p["benefit_weak"]
    _, q01, q10, q11 = t.cells.T
    p_d1 = q01 + q11
    bad = np.flatnonzero((p_d1 < strict.lo - 1e-12) | (p_d1 > weak.hi + 1e-12))
    violations = [
        {"z": t.labels[i], "p_d1": p_d1[i], "strict_lo": strict.lo, "weak_hi": weak.hi}
        for i in bad.tolist()
    ]
    return {
        "violations": violations,
        "n_violations": len(violations),
        "benefit_strict": strict.to_dict(),
        "benefit_weak": weak.to_dict(),
        "max_outcome_instrument_dependence": np.abs(q10 + q11 - t.pooled().p_y1).max(),
    }


@dataclass(frozen=True)
class EnvelopeReport:
    """The intervals that the point bounds and their confidence intervals
    share, all derived from one envelope array."""

    ey0: IntervalBound
    ey1: IntervalBound
    ate: IntervalBound
    benefit_strict: IntervalBound
    mobility: IntervalBound
    att1: IntervalBound | None
    att0: IntervalBound | None

    @property
    def crossed(self) -> bool:
        return self.ey0.crossed or self.ey1.crossed

    def to_dict(self) -> dict:
        """Every field that holds an interval, under its field name."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {name: v.to_dict() for name, v in values if isinstance(v, IntervalBound)}


@dataclass(frozen=True)
class GeneralizedBounds(EnvelopeReport):
    """All generalized-model bounds for one instrument table."""

    benefit_weak: IntervalBound
    regret_by_z: tuple[tuple[object, float], ...]

    def to_dict(self) -> dict:
        return {
            **super().to_dict(),
            # An undefined regret is null: a bare NaN is not JSON.
            "regret_by_z": {str(z): None if np.isnan(r) else r for z, r in self.regret_by_z},
            "crossed": self.crossed,
        }


def compute_all(t: InstrumentTable) -> GeneralizedBounds:
    """Every generalized-model bound for one table; att1 and att0 are None
    when some z has no mass in one sector.  Crossed EY0 or EY1 bounds
    (an empty identified set) raise InfeasibleModel."""
    e = envelopes(t)
    p = point_bounds(e)
    if p["ey0"].crossed or p["ey1"].crossed:
        raise InfeasibleModel("instrument table inconsistent with the generalized model")
    regrets = tuple(zip(t.labels, _regrets(t, e).tolist()))
    try:
        att1, att0 = att_bounds(t, e)
    except ZeroSectorProbability:
        att1 = att0 = None
    return GeneralizedBounds(**p, att1=att1, att0=att0, regret_by_z=regrets)
