"""Estimation and intersection-bounds inference for the instrument case.

The identified bounds are intersections over the instrument support of
estimable cell combinations.  A single bootstrap critical value k for
the studentized max deviation inflates every infimum and deflates every
supremum before the closed forms are re-applied, so the resulting
intervals cover the identified set at the stated level.  ATT and
interquantile-range inference bootstrap the plug-in estimators directly.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InputError, QuantileOutOfRange, ZeroSectorProbability
from .functional import OutcomeSample
from .generalized import _COMBO, bounds_from_envelopes, envelope_array
from .probability import IntervalBound, make_rng

_SE_FLOOR = 1e-6
_CHUNK = 128
# Largest `multinomial` result drawn at once.  A freed temporary stays
# resident in the C heap (glibc raises its mmap threshold to the freed
# size), so each one adds to peak RSS; smaller batches cost one more
# `multinomial` call each.
_DRAW_BYTES = 512 * 1024
# Fewest bootstrap draws whose quantiles and spreads are worth reporting.
_MIN_DRAWS = 100

# Stream tags keep the independent bootstrap passes on disjoint
# counter-based RNG streams for a single user seed.
_STREAM_K = 1
_STREAM_ATT = 2
_STREAM_IQR = 3


def _check_draws(b: int) -> None:
    if b < _MIN_DRAWS:
        raise InputError(f"need at least {_MIN_DRAWS} bootstrap replications")


def _n_threads() -> int:
    try:
        return max(1, int(os.environ.get("ROY_THREADS", "1")))
    except ValueError:
        return 1


def _bootstrap_map(fn, probs: np.ndarray, n: int, b: int, seed: int, *tag) -> None:
    """Draw b multinomial count rows chunk by chunk and call fn(i, counts) on each.

    Chunk i holds rows [i * _CHUNK, i * _CHUNK + len(counts)) of the draw,
    as a (rows, len(probs)) int64 array, on its own RNG stream
    make_rng(seed, *tag, i).  Chunk boundaries and streams do not depend on
    the thread count, so the counts are identical for any ROY_THREADS; fn
    runs in the worker threads and must only write its own chunk's rows.

    Only the nonzero categories and the last one are drawn, in batches of
    at most _DRAW_BYTES (one row at a time when a row is larger), and
    scattered into a zeroed chunk.  That gives the counts of the full
    draw: numpy's multinomial draws one binomial per category and returns
    0 for p == 0 without touching the stream, and the last category takes
    whatever count is left, so it is always drawn.
    """
    keep = np.append(np.flatnonzero(probs[:-1]), len(probs) - 1)
    p = probs[keep]
    step = max(1, _DRAW_BYTES // (8 * len(keep)))

    def draw(i):
        rng = make_rng(seed, *tag, i)
        counts = np.zeros((min(_CHUNK, b - i * _CHUNK), len(probs)), dtype=np.int64)
        # Consecutive calls continue one stream: the same rows as one call.
        for j in range(0, len(counts), step):
            part = counts[j : j + step]
            part[:, keep] = rng.multinomial(n, p, size=len(part))
        fn(i, counts)

    chunks = range((b + _CHUNK - 1) // _CHUNK)
    workers = _n_threads()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(draw, chunks))
    else:
        for i in chunks:
            draw(i)


def _bootstrap_counts(probs: np.ndarray, n: int, b: int, seed: int, *tag) -> np.ndarray:
    """(b, len(probs)) multinomial count draws, chunked on fixed RNG streams."""
    out = np.empty((b, len(probs)), dtype=np.int64)

    def put(i, counts):
        out[i * _CHUNK : i * _CHUNK + len(counts)] = counts

    _bootstrap_map(put, probs, n, b, seed, *tag)
    return out


@dataclass(frozen=True)
class ThetaVector:
    """Per-z estimates and standard errors of the eight cell combinations.

    Columns: P(Y=1|z), P(Y=0|z), q10+q01, q00+q11, q10, q00, q11, q01.
    """

    labels: tuple
    est: np.ndarray        # (K, 8)
    se: np.ndarray         # (K, 8)
    cell_counts: np.ndarray  # (K, 4) weighted counts in q00,q01,q10,q11 order
    n: int

    @property
    def k_support(self) -> int:
        return len(self.labels)

    def z_weights(self) -> np.ndarray:
        totals = self.cell_counts.sum(axis=1)
        return totals / totals.sum()


def _theta_from_cells(cells: np.ndarray) -> np.ndarray:
    """Map per-z cell probabilities (…, 4) to the eight combinations."""
    return cells @ _COMBO.T


def tabulate(data: OutcomeSample):
    """Weighted binary cell sums per instrument point: all the bounds use of data.

    Returns (labels, sums, totals, n_eff): the labels sorted by their string
    form (the one label None without an instrument column), the (K, 4)
    weighted cell sums in q00, q01, q10, q11 order, and per label the weight
    total and the effective sample size total**2 / sum(w**2).  A stable sort
    groups the rows by label, so each sum adds the same weights in the same
    order as a per-label mask; np.bincount would change the last bits.
    """
    bad = (data.y != 0) & (data.y != 1)
    if bad.any():
        raise InputError(f"binary outcome required, got y={float(data.y[bad][0])!r}")
    cell = 2 * data.y.astype(int) + data.d  # 0:q00 1:q01 2:q10 3:q11
    z = [None] * data.n if data.z is None else data.z.tolist()
    labels = sorted(set(z), key=str)
    index = {v: i for i, v in enumerate(labels)}
    inv = np.array([index[v] for v in z])
    order = np.argsort(inv, kind="stable")
    groups = [(data.w[r], cell[r]) for r in np.split(order, np.cumsum(np.bincount(inv))[:-1])]
    sums = np.array([[w[c == j].sum() for j in range(4)] for w, c in groups])
    totals = np.array([w.sum() for w, _ in groups])
    return labels, sums, totals, totals**2 / np.array([(w**2).sum() for w, _ in groups])


def estimate_theta(data: OutcomeSample) -> ThetaVector:
    """Weighted cell proportions per instrument point with multinomial SEs."""
    if data.z is None:
        raise InputError("instrument column required for inference")
    return theta_from_tabulation(tabulate(data), data.n)


def theta_from_tabulation(tab, n: int) -> ThetaVector:
    """estimate_theta from a `tabulate` result of a sample of n rows."""
    labels, counts, _, n_eff = tab
    est = _theta_from_cells(counts / counts.sum(axis=1, keepdims=True))
    se = np.maximum(np.sqrt(est * (1.0 - est) / n_eff[:, None]), _SE_FLOOR)
    # Rescale weighted counts so they sum to the raw sample size.
    counts = counts * (n / counts.sum())
    return ThetaVector(labels=tuple(labels), est=est, se=se, cell_counts=counts, n=n)


@dataclass(frozen=True)
class CriticalValue:
    k: float
    level: float
    b: int
    seed: int
    method: str = "studentized max-statistic bootstrap"


def _bootstrap_cells(theta: ThetaVector, b: int, seed: int, tag: int) -> np.ndarray:
    """(b, K, 4) bootstrap cell probabilities, resampling z jointly."""
    k = theta.k_support
    probs = (theta.cell_counts / theta.cell_counts.sum()).ravel()
    n = theta.n
    counts = _bootstrap_counts(probs, n, b, seed, tag).reshape(b, k, 4)
    totals = counts.sum(axis=2, keepdims=True)
    safe = np.maximum(totals, 1)
    cells = counts / safe
    # An empty bootstrap z-cell contributes the point estimate (no signal).
    point = theta.cell_counts / theta.cell_counts.sum(axis=1, keepdims=True)
    cells = np.where(totals == 0, point[None, :, :], cells)
    return cells


def critical_value(
    theta: ThetaVector, level: float = 0.95, b: int = 999, seed: int = 0
) -> CriticalValue:
    """Level-quantile of the bootstrap max studentized theta deviation."""
    _check_draws(b)
    cells = _bootstrap_cells(theta, b, seed, _STREAM_K)
    theta_star = _theta_from_cells(cells)          # (b, K, 8)
    dev = np.abs(theta_star - theta.est[None]) / theta.se[None]
    stat = dev.reshape(b, -1).max(axis=1)
    k = float(np.quantile(np.sort(stat), level, method="higher"))
    return CriticalValue(k=k, level=level, b=b, seed=seed)


@dataclass(frozen=True)
class CiReport:
    """Confidence intervals for the generalized-model bounds."""

    ey0: IntervalBound
    ey1: IntervalBound
    ate: IntervalBound
    benefit_strict: IntervalBound
    mobility: IntervalBound
    att1: IntervalBound | None
    att0: IntervalBound | None
    iqr: IntervalBound | None
    level: float
    b: int
    seed: int

    def to_dict(self) -> dict:
        out = {
            "ey0": self.ey0.to_dict(),
            "ey1": self.ey1.to_dict(),
            "ate": self.ate.to_dict(),
            "benefit_strict": self.benefit_strict.to_dict(),
            "mobility": self.mobility.to_dict(),
            "level": self.level,
            "bootstrap": self.b,
            "seed": self.seed,
        }
        for name in ("att1", "att0", "iqr"):
            val = getattr(self, name)
            if val is not None:
                out[name] = val.to_dict()
        return out


def assemble_cis(
    theta: ThetaVector, k: float, level: float = 0.95, b: int = 0, seed: int = 0
) -> CiReport:
    """Closed-form bounds re-applied to the k-inflated envelopes."""
    r = bounds_from_envelopes(envelope_array(theta.est, k * theta.se))
    ey0 = IntervalBound(*map(float, r["ey0"]), label="EY0 CI").clamp()
    ey1 = IntervalBound(*map(float, r["ey1"]), label="EY1 CI").clamp()
    ate = IntervalBound(ey1.lo - ey0.hi, ey1.hi - ey0.lo, label="ATE CI").clamp(-1.0, 1.0)
    benefit = IntervalBound(*map(float, r["benefit"]), label="P(Y1>Y0) CI").clamp()
    mob_lo, mob_hi = map(float, r["mobility"])
    # A vanished P(Y0=0) upper bound leaves the mobility ratio unbounded.
    mob_hi = 1.0 if np.isnan(mob_hi) else mob_hi
    mobility = IntervalBound(mob_lo, mob_hi, label="P(Y1=1|Y0=0) CI").clamp()
    att1, att0 = _att_plugin(theta, ey0, ey1)
    return CiReport(
        ey0=ey0,
        ey1=ey1,
        ate=ate,
        benefit_strict=benefit,
        mobility=mobility,
        att1=att1,
        att0=att0,
        iqr=None,
        level=level,
        b=b,
        seed=seed,
    )


def _att_plugin(theta: ThetaVector, ey0: IntervalBound, ey1: IntervalBound):
    w = theta.z_weights()
    p_y1 = theta.est[:, 0]
    p_d1 = theta.cell_counts[:, [1, 3]].sum(axis=1) / theta.cell_counts.sum(axis=1)
    p_d0 = 1.0 - p_d1
    if np.any(p_d1 <= 1e-12) or np.any(p_d0 <= 1e-12):
        return None, None
    att1 = IntervalBound(
        float((w * (p_y1 - ey0.hi) / p_d1).sum()),
        float((w * (p_y1 - ey0.lo) / p_d1).sum()),
        label="E(Y1-Y0|D=1) CI",
    ).clamp(-1.0, 1.0)
    att0 = IntervalBound(
        float((w * ((1.0 - p_y1) - (1.0 - ey1.lo)) / p_d0).sum()),
        float((w * ((1.0 - p_y1) - (1.0 - ey1.hi)) / p_d0).sum()),
        label="E(Y0-Y1|D=0) CI",
    ).clamp(-1.0, 1.0)
    return att1, att0


def infer_bounds(
    data: OutcomeSample, level: float = 0.95, b: int = 999, seed: int = 0
) -> CiReport:
    """One-call pipeline: theta, critical value, assembled intervals."""
    theta = estimate_theta(data)
    cv = critical_value(theta, level=level, b=b, seed=seed)
    return assemble_cis(theta, cv.k, level=level, b=b, seed=seed)


def att_ci(theta: ThetaVector, cv: CriticalValue, which: int = 1) -> IntervalBound:
    """Bootstrap outer envelope of the sector-gain plug-in estimators.

    The counterfactual-mean confidence endpoints (with the critical value
    cv held fixed) are plugged into the ratio at every bootstrap table; the
    interval spans the outer quantiles of the resulting lower and upper
    plug-in draws.  The draws reuse cv's level, count and seed.
    """
    cells = _bootstrap_cells(theta, cv.b, cv.seed, _STREAM_ATT)  # (b, K, 4)
    theta_star = _theta_from_cells(cells)
    r = bounds_from_envelopes(envelope_array(theta_star, cv.k * theta.se))
    cf_lo, cf_hi = np.clip(r["ey0" if which == 1 else "ey1"], 0.0, 1.0)
    p_y = theta_star[:, :, 0] if which == 1 else theta_star[:, :, 1]
    d_col = [1, 3] if which == 1 else [0, 2]
    p_d = cells[:, :, d_col].sum(axis=2)
    if np.any(theta.cell_counts[:, d_col].sum(axis=1) <= 0):
        raise ZeroSectorProbability(f"no observations with D={which} at some z")
    p_d = np.maximum(p_d, 1.0 / theta.n)
    w = cells.sum(axis=2)
    w = w / w.sum(axis=1, keepdims=True)
    if which == 1:
        low_star = (w * (p_y - cf_hi[:, None]) / p_d).sum(axis=1)
        high_star = (w * (p_y - cf_lo[:, None]) / p_d).sum(axis=1)
    else:
        low_star = (w * (p_y - (1.0 - cf_lo)[:, None]) / p_d).sum(axis=1)
        high_star = (w * (p_y - (1.0 - cf_hi)[:, None]) / p_d).sum(axis=1)
    alpha = 1.0 - cv.level
    lo = float(np.quantile(np.sort(low_star), alpha / 2, method="lower"))
    hi = float(np.quantile(np.sort(high_star), 1.0 - alpha / 2, method="higher"))
    label = "E(Y1-Y0|D=1) CI" if which == 1 else "E(Y0-Y1|D=0) CI"
    return IntervalBound(lo, hi, sharp=False, label=label).clamp(-1.0, 1.0)


def _row_inverse(vals: np.ndarray, targets, xs: np.ndarray):
    """Per-row weak generalized inverse of nondecreasing rows of vals.

    targets may be a scalar, one value per row or a (rows, cols) array;
    returns xs at the first index where the row reaches the target, +inf
    when it never does and -inf for nonpositive targets.  On a
    nondecreasing row the count of entries below a threshold is exactly
    its left searchsorted position, so each row is searched directly.
    """
    t = np.asarray(targets, dtype=float)
    thr = np.broadcast_to(t - 1e-12, t.shape if t.ndim == 2 else vals.shape[:1])
    idx = np.stack(
        [np.searchsorted(v, r, side="left") for v, r in zip(vals, thr.reshape(len(vals), -1))]
    ).reshape(thr.shape)
    out = np.where(idx < len(xs), xs[np.minimum(idx, len(xs) - 1)], np.inf)
    out = np.where(t <= 1e-12, -np.inf, out)
    return out


def iqr_ci(
    data: OutcomeSample,
    d: int,
    q1: float,
    q2: float,
    level: float = 0.95,
    b: int = 999,
    seed: int = 0,
    lln_scale: float = 1.0,
    grid_cap: int = 512,
) -> IntervalBound:
    """Confidence interval for the sector-d interquantile-range bounds.

    Lower endpoint: bootstrap lower confidence limit of the closed-form
    lower bound, floored at zero.  Upper endpoint: the step-function
    upper-bound objective maximized over a jump-point grid widened by a
    sqrt(lnln n / n) margin, inflated by a critical value taken from the
    bootstrap law of the studentized objective.
    """
    if not (0.0 < q1 < q2 < 1.0):
        raise QuantileOutOfRange(f"need 0 < q1 < q2 < 1, got ({q1}, {q2})")
    _check_draws(b)
    n = data.n
    ys = data.y
    order = np.argsort(ys, kind="stable")
    ys_s = ys[order]
    ds_s = data.d[order]
    ws_s = data.w[order]
    xs, inv = np.unique(ys_s, return_inverse=True)
    m = len(xs)
    w_d = np.bincount(inv, weights=ws_s * (ds_s == d), minlength=m)
    w_o = np.bincount(inv, weights=ws_s * (ds_s != d), minlength=m)
    point_probs = np.concatenate([w_d, w_o])

    # Point-estimate sub-cdfs on the jump points.
    cd0 = np.cumsum(w_d)[None, :]
    co0 = np.cumsum(w_o)[None, :]
    f0 = cd0 + co0
    p_other0 = float(co0[0, -1])

    # Upper endpoint: grid of jump points in the widened admissible range;
    # none when q1 is below the counterfactual share (unbounded upper end).
    inv_bar_q1 = float(_row_inverse(cd0, q1 - p_other0, xs)[0])
    inv_f_q1 = float(_row_inverse(f0, q1, xs)[0])
    spread = float(np.std(ys)) if n > 1 else 1.0
    grid = None
    if inv_bar_q1 != -np.inf:
        lln = lln_scale * np.sqrt(np.log(np.log(max(n, 3))) / n) * spread
        g_lo, g_hi = inv_bar_q1 - lln, inv_f_q1 + lln
        grid = xs[(xs >= g_lo) & (xs <= g_hi)]
        grid = np.concatenate([[g_lo], grid, [g_hi]])
        if len(grid) > grid_cap:
            grid = np.quantile(grid, np.linspace(0, 1, grid_cap), method="nearest")
        grid = np.unique(grid)

    def objective(cd, f, xv):
        """Rows: bootstrap draws; columns: grid points."""
        pos = np.searchsorted(xs, xv, side="right") - 1
        fd_at = np.where(pos[None, :] >= 0, cd[:, np.maximum(pos, 0)], 0.0)
        inv_f2 = _row_inverse(f, q2, xs)
        left = inv_f2[:, None] - xv[None, :]
        right = _row_inverse(cd, q2 - q1 + fd_at, xs) - xv[None, :]
        return np.minimum(left, right)

    # Each chunk of draws is reduced to its rows of the lower-endpoint draws
    # and of the objective, so memory does not grow with b times m.
    t_star = np.empty(b)
    if grid is not None:
        obj0 = objective(cd0, f0, grid)[0]
        obj_star = np.empty((b, len(grid)))

    def reduce(i, counts):
        rows = slice(i * _CHUNK, i * _CHUNK + len(counts))
        c_d = counts[:, :m] / n
        c_o = counts[:, m:] / n
        np.cumsum(c_d, axis=1, out=c_d)
        np.cumsum(c_o, axis=1, out=c_o)
        inv_d = _row_inverse(c_d, q2 - c_o[:, -1], xs)
        # The cdf overwrites the other sector's sub-cdf (addition commutes).
        f_star = np.add(c_o, c_d, out=c_o)
        t_star[rows] = inv_d - _row_inverse(f_star, q1, xs)
        if grid is not None:
            obj_star[rows] = objective(c_d, f_star, grid)

    _bootstrap_map(reduce, point_probs / point_probs.sum(), n, b, seed, _STREAM_IQR)

    # Lower endpoint.
    t_star = np.where(np.isnan(t_star), -np.inf, t_star)
    alpha = 1.0 - level
    finite = np.isfinite(t_star)
    if finite.any():
        t_sorted = np.sort(np.where(finite, t_star, np.min(t_star[finite])))
        lower = max(0.0, float(np.quantile(t_sorted, alpha / 2, method="lower")))
    else:
        lower = 0.0
    if grid is None:
        return IntervalBound(lower, np.inf, sharp=False, label=f"IQR_{d} CI")
    finite_cols = np.isfinite(obj0) & np.all(np.isfinite(obj_star), axis=0)
    if not finite_cols.any():
        return IntervalBound(lower, np.inf, sharp=False, label=f"IQR_{d} CI")
    g0 = obj0[finite_cols]
    gs = obj_star[:, finite_cols]
    sd = np.maximum(gs.std(axis=0, ddof=1), 1e-9 * max(spread, 1e-12))
    stud = (gs - g0[None, :]) / sd[None, :]
    c_alpha = float(np.quantile(np.sort(stud.max(axis=1)), level, method="higher"))
    upper = float(np.max(g0 + c_alpha * sd))
    return IntervalBound(lower, max(lower, upper), sharp=False, label=f"IQR_{d} CI")
