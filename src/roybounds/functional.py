"""Functional bounds for continuous or mixed outcomes under Roy selection.

Everything is built from three empirical step functions: the outcome cdf
F, the sector sub-cdfs F_lo_d(y) = P(Y<=y, D=d), and their Peterson
envelopes F_hi_d = F_lo_d + P(D=1-d).  Bounds on the counterfactual
distributions, on probabilities of rectangles in the (y0, y1) plane, and
on interquantile ranges all reduce to evaluations and generalized
inverses of these step functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadInterval,
    DegenerateDenominator,
    EmptySample,
    EmptySector,
    QuantileOutOfRange,
)
from .probability import IntervalBound

_TOL = 1e-12


def code_values(values: list) -> tuple[list, np.ndarray]:
    """The distinct entries of a list, in order of first appearance, and
    per entry the index of its value among them."""
    index = {v: i for i, v in enumerate(dict.fromkeys(values))}
    dtype = np.min_scalar_type(len(index))
    return list(index), np.fromiter(map(index.__getitem__, values), dtype=dtype, count=len(values))


@dataclass(frozen=True)
class OutcomeSample:
    """Weighted records (y, d, w) with weights normalized to sum to one.

    An optional instrument is held coded: its distinct labels, sorted by
    their string form, and per row the index of its label (`codes`).  The
    step functions below pool over it; `inference.tabulate` groups the
    rows by code, and `z` gives the per-row labels.
    """

    y: np.ndarray
    d: np.ndarray
    w: np.ndarray
    labels: tuple | None = None
    codes: np.ndarray | None = None

    @classmethod
    def from_arrays(cls, y, d, w=None, z=None, labels=None, codes=None) -> "OutcomeSample":
        """Sample from per-row arrays.  An instrument is given either as z,
        each row's label, or as distinct `labels`, each used by some row,
        with `codes`, each row's index into them."""
        y = np.asarray(y, dtype=float)
        try:
            d = np.asarray(d, dtype=int)
        except OverflowError as exc:
            raise BadInterval("sector must be 0 or 1") from exc
        if y.size == 0:
            raise EmptySample("outcome sample is empty")
        if not np.all(np.isfinite(y)):
            raise BadInterval("outcomes must be finite")
        if not np.all((d == 0) | (d == 1)):
            raise BadInterval("sector must be 0 or 1")
        w = np.ones_like(y) if w is None else np.asarray(w, dtype=float)
        if not np.all((w > 0) & np.isfinite(w)):
            raise BadInterval("weights must be positive and finite")
        # A total that overflows, or a weight too small beside it, leaves a
        # weight that is not a positive number after normalizing.
        with np.errstate(over="ignore"):
            w = w / w.sum()
        if not np.all(w > 0):
            raise BadInterval("weights span more than the floating-point range")
        if z is not None:
            labels, codes = code_values(np.asarray(z, dtype=object).tolist())
        if labels is None:
            return cls(y=y, d=d, w=w)
        # The labels are held sorted by their string form.
        codes = np.asarray(codes)
        order = sorted(range(len(labels)), key=lambda i: str(labels[i]))
        if order != list(range(len(labels))):
            rank = np.empty(len(order), dtype=codes.dtype)
            rank[order] = np.arange(len(order))
            labels, codes = [labels[i] for i in order], rank[codes]
        return cls(y=y, d=d, w=w, labels=tuple(labels), codes=codes)

    @property
    def z(self) -> np.ndarray | None:
        """The instrument label of each row, as an object array; None without an instrument."""
        if self.labels is None:
            return None
        labels = np.empty(len(self.labels), dtype=object)
        labels[:] = self.labels
        return labels[self.codes]

    @property
    def n(self) -> int:
        return len(self.y)


def _row_inverse(vals: np.ndarray, targets, xs: np.ndarray, base: float = 0.0):
    """Weak generalized inverse of each nondecreasing row of vals on the points xs.

    targets may be a scalar, one value per row or a (rows, cols) array;
    returns xs at the first index where the row reaches the target, +inf
    when it never does and -inf for targets not above base, the value left
    of xs[0].  On a nondecreasing row the count of entries below a
    threshold is exactly its left searchsorted position, so each row is
    searched directly.
    """
    t = np.asarray(targets, dtype=float)
    thr = np.broadcast_to(t - _TOL, t.shape if t.ndim == 2 else vals.shape[:1])
    idx = np.stack(
        [np.searchsorted(v, r, side="left") for v, r in zip(vals, thr.reshape(len(vals), -1))]
    ).reshape(thr.shape)
    out = np.where(idx < len(xs), xs[np.minimum(idx, len(xs) - 1)], np.inf)
    return np.where(t <= base + _TOL, -np.inf, out)


class StepFn:
    """Right-continuous nondecreasing step function with finite jumps.

    Value is `base` left of the first jump; after jump i it is vals[i].
    The generalized inverse uses the weak convention
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
        t = np.asarray(u, dtype=float)
        out = _row_inverse(self.vals[None], t.reshape(1, -1), self.xs, self.base)
        return float(out[0, 0]) if t.ndim == 0 else out.reshape(t.shape)

    @property
    def terminal(self) -> float:
        return float(self.vals[-1]) if len(self.vals) else self.base


class SubCdf:
    """Empirical cdf, sub-cdfs and envelopes of a weighted (Y, D) sample."""

    def __init__(self, sample: OutcomeSample):
        # return_index asks for a stable sort, so a jump at zero keeps the
        # sign (0.0 or -0.0) of its first row; bincount adds in row order.
        uniq, _, inv = np.unique(sample.y, return_index=True, return_inverse=True)
        w0 = np.bincount(inv, weights=sample.w * (sample.d == 0), minlength=len(uniq))
        w1 = np.bincount(inv, weights=sample.w * (sample.d == 1), minlength=len(uniq))
        self.jumps = uniq
        self.p_d0 = float(w0.sum())
        self.p_d1 = float(w1.sum())
        c0 = np.cumsum(w0)
        c1 = np.cumsum(w1)
        self._cdf = StepFn(uniq, c0 + c1)
        self._sub = (StepFn(uniq, c0), StepFn(uniq, c1))
        self._w_by_d = (w0, w1)

    def p_d(self, d: int) -> float:
        return self.p_d1 if d == 1 else self.p_d0

    def cdf(self, y):
        """F(y) = P(Y <= y)."""
        return self._cdf(y)

    def sub(self, d: int, y):
        """P(Y <= y, D = d)."""
        return self._sub[d](y)

    def bar(self, d: int, y):
        """Peterson envelope P(Y <= y, D = d) + P(D = 1-d)."""
        return self._sub[d](y) + self.p_d(1 - d)

    def inv_cdf(self, u: float) -> float:
        return self._cdf.inverse(u)

    def inv_sub(self, d: int, u: float) -> float:
        return self._sub[d].inverse(u)

    def inv_bar(self, d: int, u: float) -> float:
        return self._sub[d].inverse(u - self.p_d(1 - d))

    def mass(self, iv, d: int) -> float:
        """Weight of {y in iv, D=d} for an Interval."""
        lo_side = "right" if iv.lo_open else "left"
        hi_side = "left" if iv.hi_open else "right"
        i0 = np.searchsorted(self.jumps, iv.lo, side=lo_side)
        i1 = np.searchsorted(self.jumps, iv.hi, side=hi_side)
        return float(self._w_by_d[d][i0:i1].sum())


def build_subcdf(s: OutcomeSample) -> SubCdf:
    """Construct the empirical step functions of a weighted sample."""
    return SubCdf(s)


@dataclass(frozen=True)
class Interval:
    """Extended-real interval with open/closed endpoint flags.

    The default flags give the half-open form (lo, hi] that every bound
    in this module consumes; (-inf, hi] needs no special casing because
    no sample point sits at -inf.
    """

    lo: float
    hi: float
    lo_open: bool = True
    hi_open: bool = False

    @property
    def is_empty(self) -> bool:
        if self.lo > self.hi:
            return True
        if self.lo == self.hi:
            return self.lo_open or self.hi_open
        return False

    def contains(self, y) -> np.ndarray:
        """Mask of the points y that lie in the interval."""
        y = np.asarray(y, dtype=float)
        above = y > self.lo if self.lo_open else y >= self.lo
        below = y < self.hi if self.hi_open else y <= self.hi
        return above & below


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle I0 x I1 in the (y0, y1) plane."""

    i0: Interval
    i1: Interval

    @property
    def is_empty(self) -> bool:
        return self.i0.is_empty or self.i1.is_empty


@dataclass(frozen=True)
class RectUnion:
    """Finite union of rectangles; the Borel sets this module bounds."""

    rects: tuple[Rect, ...]

    @classmethod
    def of(cls, rects) -> "RectUnion":
        return cls(rects=tuple(r for r in rects if not r.is_empty))


def upper_lower_sets(a: RectUnion, y):
    """Upper/lower set calculus for a rectangle union, as masks over the points y.

    Returns (U0, U1, L0, L1): whether the sector-d half-line of each y ({y}
    paired with all values <= y in the other coordinate) meets the set a,
    respectively lies inside one rectangle of a.
    """
    y = np.asarray(y, dtype=float)
    upper = [np.zeros(y.shape, dtype=bool) for _ in range(2)]
    lower = [np.zeros(y.shape, dtype=bool) for _ in range(2)]
    for r in a.rects:
        if r.is_empty:
            continue
        for d, (own, other) in enumerate(((r.i0, r.i1), (r.i1, r.i0))):
            held = own.contains(y)
            # The half-line meets the rectangle iff some point <= y is in the
            # other interval, and lies inside it iff that interval holds all
            # of (-inf, y].
            upper[d] |= held & Interval(other.lo, np.inf, other.lo_open, True).contains(y)
            if other.lo == -np.inf:
                lower[d] |= held & other.contains(y)
    return upper[0], upper[1], lower[0], lower[1]


def peterson_bounds(c: SubCdf, d: int, y: float) -> IntervalBound:
    """Pointwise envelope [F(y), F_lo_d(y) + P(D=1-d)] for F_d(y)."""
    return IntervalBound(c.cdf(y), c.bar(d, y), sharp=True, label=f"F_{d}({y})")


def interval_lower_bound(c: SubCdf, d: int, y1: float, y2: float) -> float:
    """Sharp lower bound on P(y1 < Y_d <= y2)."""
    if y1 >= y2:
        raise BadInterval(f"need y1 < y2, got ({y1}, {y2})")
    base = c.sub(d, y2) - (c.sub(d, y1) if np.isfinite(y1) else 0.0)
    if y1 == -np.inf:
        base += c.sub(1 - d, y2)
    return float(base)


def joint_set_bounds(c: SubCdf, a: RectUnion) -> IntervalBound:
    """Bounds on P((Y0, Y1) in a) for a rectangle union, sharp for one rectangle:
    the union of several rectangles' lower sets misses a half-line that they
    cover only together, so the lower end is then valid but not sharp."""
    u0, u1, l0, l1 = upper_lower_sets(a, c.jumps)
    w0, w1 = c._w_by_d
    lo = float(w0[l0].sum()) + float(w1[l1].sum())
    hi = float(w0[u0].sum()) + float(w1[u1].sum())
    return IntervalBound(lo, hi, sharp=len(a.rects) <= 1, label="P((Y0,Y1) in A)")


def mobility_upper(c: SubCdf, y: float) -> float:
    """Upper bound on P(Y1 > y | Y0 <= y), clamped to [0, 1]."""
    denom = c.bar(0, y)
    if denom <= _TOL:
        raise DegenerateDenominator("upper envelope of P(Y0<=y) is zero")
    num = c.p_d1 - c.sub(1, y)
    return min(1.0, max(0.0, num / denom))


def check_quantiles(q1: float, q2: float) -> None:
    """Require _TOL < q1 < q2 < 1: `_row_inverse` takes a level at or below
    _TOL for 0, whose inverse is -inf."""
    if not (_TOL < q1 < q2 < 1.0):
        raise QuantileOutOfRange(f"need {_TOL:g} < q1 < q2 < 1, got ({q1}, {q2})")


def iqr_bounds(c: SubCdf, d: int, q1: float, q2: float) -> IntervalBound:
    """Sharp bounds on the (q1, q2) interquantile range of Y_d.

    The upper endpoint is +inf when the data admit counterfactual
    distributions with unboundedly spread quantiles (in particular when
    q1 does not exceed P(D=1-d)); this is reported, not raised.
    """
    check_quantiles(q1, q2)
    cd, f, xs = c._sub[d].vals[None], c._cdf.vals[None], c.jumps
    lower = max(0.0, float(_iqr_lower(cd, f, xs, c.p_d(1 - d), q1, q2)[0]))
    y_lo = c.inv_bar(d, q1)
    if y_lo == -np.inf:
        return IntervalBound(lower, np.inf, sharp=True, label=f"IQR_{d}({q1},{q2})")
    y_hi = c.inv_cdf(q1)
    cand = np.concatenate([xs[(xs >= y_lo) & (xs <= y_hi)], [y_lo, y_hi]])
    best = max(0.0, float(_iqr_objective(cd, f, xs, cand, q1, q2).max()))
    return IntervalBound(lower, max(lower, best), sharp=True, label=f"IQR_{d}({q1},{q2})")


def _iqr_lower(cd, f, xs, p_other, q1, q2):
    """Lower IQR bound of sector d, row by row and before flooring at zero.

    Each row of cd is the sector-d sub-cdf and each row of f the cdf, both
    on the jump points xs; p_other is P(D = 1-d), a scalar or one per row.
    The bound is the inverse of the envelope F_hi_d at q2 minus the inverse
    of F at q1.
    """
    return _row_inverse(cd, q2 - p_other, xs) - _row_inverse(f, q1, xs)


def _iqr_objective(cd, f, xs, yv, q1, q2):
    """Upper IQR bound objective at the points yv: rows as in _iqr_lower, one column per point.

    min(F^-1(q2) - y, F_lo_d^-1(q2 - q1 + F_lo_d(y)) - y), whose maximum over
    y from the inverse of F_hi_d to the inverse of F at q1 is the bound.
    """
    pos = np.searchsorted(xs, yv, side="right") - 1
    fd_at = np.where(pos[None, :] >= 0, cd[:, np.maximum(pos, 0)], 0.0)
    left = _row_inverse(f, q2, xs)[:, None] - yv[None, :]
    right = _row_inverse(cd, q2 - q1 + fd_at, xs) - yv[None, :]
    return np.minimum(left, right)


def _sector_quantile(c: SubCdf, d: int, q: float) -> float:
    p = c.p_d(d)
    return c.inv_sub(d, q * p)


def proposition1_check(c: SubCdf, d: int, q1: float, q2: float) -> dict:
    """Compare observed sector-d inequality with the identified bounds.

    The observed interquantile range is guaranteed inside the bounds on
    the potential one when the counterfactual sector's observed outcomes
    first-order dominate the studied sector's; without that dominance the
    observed range can strictly exceed the identified upper bound, in
    which case selection overstates sector-d inequality.
    """
    if c.p_d(d) <= _TOL:
        raise EmptySector(f"no observations with D={d}")
    bounds = iqr_bounds(c, d, q1, q2)
    observed = _sector_quantile(c, d, q2) - _sector_quantile(c, d, q1)
    p_d, p_o = c.p_d(d), c.p_d(1 - d)
    cond_d = c.sub(d, c.jumps) / p_d
    if p_o > _TOL:
        cond_o = c.sub(1 - d, c.jumps) / p_o
    else:
        cond_o = np.zeros_like(cond_d)
    dominance_other_over_d = bool(np.all(cond_o <= cond_d + 1e-9))
    dominance_d_over_other = bool(np.all(cond_d <= cond_o + 1e-9))
    exceeds = observed > bounds.hi + 1e-9
    return {
        "observed_iqr": float(observed),
        "potential_iqr": bounds.to_dict(),
        "counterfactual_dominates_sector": dominance_other_over_d,
        "sector_dominates_counterfactual": dominance_d_over_other,
        "observed_exceeds_upper": bool(exceeds),
        "verdict": (
            "selection inflates observed sector inequality"
            if exceeds
            else "observed inequality consistent with potential-outcome bounds"
        ),
    }
