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
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, ZeroSectorProbability
from .functional import OutcomeSample, _iqr_lower, _iqr_objective, _row_inverse, build_subcdf, check_quantiles
from .generalized import (
    _COMBO, LABELS, EnvelopeReport, bounds_from_envelopes, empty_sector, envelope_array, point_bounds
)
from .probability import IntervalBound, make_rng

_SE_FLOOR = 1e-6
_CI_LABELS = {**{key: f"{label} CI" for key, label in LABELS.items()}, "ate": "ATE CI"}
_CHUNK = 128
# Batch budget of one bootstrap, shared by all its workers: each of w
# workers draws `multinomial` batches of at most _DRAW_BYTES / w of counts
# over the drawn categories, and reduces each before drawing the next.  A
# worker scatters each batch over all categories into one float64 buffer
# it reuses, and holds it with what its reducer derives from it: the cdf of
# the IQR bootstrap, whose sub-cdfs are built in the buffer, or the cells of
# the binary one.  So more workers add no memory.  Beyond that a bootstrap
# keeps only its O(b) statistics, and the IQR one a (b, G) objective
# matrix.  A freed temporary stays resident in the C heap (glibc raises its
# mmap threshold to the freed size), so each one adds to peak RSS; smaller
# batches cost one more `multinomial` call each.
_DRAW_BYTES = 512 * 1024
# Columns per `std` call when studentizing the IQR objective, so that its
# temporaries stay far below the (b, G) matrix.
_STD_COLS = 16
# Fewest bootstrap draws whose quantiles and spreads are worth reporting.
_MIN_DRAWS = 100
# Most points of the IQR upper-endpoint grid; a wider grid is thinned to
# this many of its quantiles.
_GRID_CAP = 512

# Stream tags keep the independent bootstrap passes on disjoint
# counter-based RNG streams for a single user seed.
_STREAM_K = 1
_STREAM_ATT = 2
_STREAM_IQR = 3


def _check_draws(b: int) -> None:
    if b < _MIN_DRAWS:
        raise InputError(f"need at least {_MIN_DRAWS} bootstrap replications")


def _n_threads() -> int:
    """Bootstrap workers: ROY_THREADS, a positive integer, or the CPUs this process may run on.

    An explicit ROY_THREADS sets the count; when it is unset the count is
    the size of the process's CPU affinity set, or os.cpu_count() where
    that cannot be read.  The reports are the same for any count.
    """
    text = os.environ.get("ROY_THREADS")
    if text is None:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:
            return os.cpu_count() or 1
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise InputError(f"ROY_THREADS must be a positive integer, got {text!r}")
    return n


def _drawn_categories(probs: np.ndarray) -> np.ndarray:
    """The categories `_bootstrap_map` draws: the nonzero ones and the last."""
    return np.append(np.flatnonzero(probs[:-1]), len(probs) - 1)


def _bootstrap_map(reducer, probs: np.ndarray, n: int, b: int, seed: int, *tag) -> None:
    """Draw b multinomial count rows batch by batch and reduce each batch as it is drawn.

    Every bootstrap draws through here: `critical_value` and `att_ci` by way
    of `_map_cells`, and `iqr_ci` directly.  No (b, categories) matrix
    exists, so memory grows with neither b nor the category count.

    Only the categories `_drawn_categories(probs)` are drawn.  That gives
    their columns of the full draw, and the others are 0: numpy's
    multinomial draws one binomial per category and returns 0 for p == 0
    without touching the stream, and the last category takes whatever
    count is left, so it is always drawn.

    Chunk i holds the _CHUNK rows from row i * _CHUNK on (fewer in the last
    chunk), on its own RNG stream make_rng(seed, *tag, i).  Chunk boundaries
    and streams do not depend on the worker count, so the counts are
    identical for any ROY_THREADS.  Of w = min(_n_threads(), chunks,
    batches) workers, batches being the _DRAW_BYTES budgets the whole draw
    fills, worker j draws chunks j, j + w, ...: the calling thread is
    worker 0, and w - 1 helper threads run the others.  Each worker draws
    its chunks in batches of at most _DRAW_BYTES / w of counts (one row at a
    time when a row is larger), so all workers together hold at most
    _DRAW_BYTES.  An exception in any worker is raised here once every
    helper has stopped, so nothing writes into a result after this returns.

    Each worker calls reducer(rows) once, with the most rows a batch can
    hold, and gets fn(row, counts) back; what reducer allocates is that
    worker's scratch.  fn is called on each batch the worker draws: counts
    is a (batch rows, len(probs)) float64 array holding rows
    [row, row + len(counts)) of the draw, 0 at every undrawn category (counts
    up to n are exact in float64).  It is the worker's buffer, zeroed again
    before each batch, so fn may overwrite it; fn must only write those rows
    of any shared result.
    """
    keep = _drawn_categories(probs)
    p = probs[keep]
    n_chunks = (b + _CHUNK - 1) // _CHUNK
    batches = (8 * len(keep) * b + _DRAW_BYTES - 1) // _DRAW_BYTES
    workers = min(_n_threads(), n_chunks, batches)
    step = max(1, _DRAW_BYTES // (8 * len(keep) * workers))

    def work(first):
        buf = np.empty((min(step, _CHUNK, b), len(probs)))
        fn = reducer(len(buf))
        for i in range(first, n_chunks, workers):
            rng = make_rng(seed, *tag, i)
            rows = min(_CHUNK, b - i * _CHUNK)
            # Consecutive calls continue one stream: the same rows as one call.
            for j in range(0, rows, step):
                counts = buf[: min(step, rows - j)]
                drawn = rng.multinomial(n, p, size=len(counts))
                counts.fill(0.0)
                counts[:, keep] = drawn
                fn(i * _CHUNK + j, counts)

    if workers == 1:
        work(0)
        return
    from concurrent.futures import ThreadPoolExecutor

    # Leaving the block waits for every helper, also when worker 0 raises.
    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        helpers = [pool.submit(work, w) for w in range(1, workers)]
        work(0)
        for h in helpers:
            h.result()


def _bootstrap_counts(probs: np.ndarray, n: int, b: int, seed: int, *tag) -> np.ndarray:
    """(b, len(probs)) multinomial count draws, chunked on fixed RNG streams.

    No bootstrap draws through this whole-matrix form; it is kept as the
    reference the tests compare `_bootstrap_map` with, and the benchmark
    tracer looks it up by name.
    """
    out = np.empty((b, len(probs)), dtype=np.int64)

    def put(row, counts):
        out[row : row + len(counts)] = counts

    _bootstrap_map(lambda rows: put, probs, n, b, seed, *tag)
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

    Returns (labels, sums, totals, n_eff): the sample's instrument labels,
    sorted by their string form (the one label None without an instrument
    column), the (K, 4) weighted cell sums in q00, q01, q10, q11 order, and
    per label the weight total and the effective sample size
    total**2 / sum(w**2).  Stable sorts of the label codes group the rows
    by label and by (label, cell) in row order, so each sum adds the same
    weights in the same order as a per-label mask; np.bincount would
    change the last bits.
    """
    bad = (data.y != 0) & (data.y != 1)
    if bad.any():
        raise InputError(f"binary outcome required, got y={float(data.y[bad][0])!r}")
    cell = 2 * data.y.astype(int) + data.d  # 0:q00 1:q01 2:q10 3:q11
    if data.labels is None:
        labels, codes = [None], np.zeros(data.n, dtype=np.uint8)
    else:
        labels, codes = list(data.labels), data.codes
    k = len(labels)

    def groups(key, m):
        """The weights of the rows of each key in 0..m-1, in row order."""
        # A small integer dtype makes the stable argsort a radix sort.
        order = np.argsort(key.astype(np.min_scalar_type(m), copy=False), kind="stable")
        return np.split(data.w[order], np.cumsum(np.bincount(key, minlength=m))[:-1])

    sums = np.array([g.sum() for g in groups(4 * codes.astype(np.intp) + cell, 4 * k)]).reshape(k, 4)
    by_label = groups(codes, k)
    totals = np.array([g.sum() for g in by_label])
    return labels, sums, totals, totals**2 / np.array([(g**2).sum() for g in by_label])


def estimate_theta(data: OutcomeSample) -> ThetaVector:
    """Weighted cell proportions per instrument point with multinomial SEs."""
    if data.labels is None:
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


def _map_cells(fn, theta: ThetaVector, b: int, seed: int, tag: int) -> None:
    """Call fn(row, cells) on each batch of bootstrap cell probabilities, resampling z jointly.

    cells is (batch rows, K, 4): rows [row, row + len(cells)) of the b draws,
    each z's drawn cell counts over its drawn total.
    """
    k = theta.k_support
    probs = (theta.cell_counts / theta.cell_counts.sum()).ravel()
    # An empty bootstrap z-cell contributes the point estimate (no signal).
    point = theta.cell_counts / theta.cell_counts.sum(axis=1, keepdims=True)

    def reduce(row, counts):
        c = counts.reshape(len(counts), k, 4)
        totals = c.sum(axis=2, keepdims=True)
        fn(row, np.where(totals == 0, point, c / np.maximum(totals, 1)))

    _bootstrap_map(lambda rows: reduce, probs, theta.n, b, seed, tag)


def critical_value(
    theta: ThetaVector, level: float = 0.95, b: int = 999, seed: int = 0
) -> CriticalValue:
    """Level-quantile of the bootstrap max studentized theta deviation."""
    _check_draws(b)
    stat = np.empty(b)

    def reduce(row, cells):
        dev = np.abs(_theta_from_cells(cells) - theta.est) / theta.se
        stat[row : row + len(cells)] = dev.reshape(len(cells), -1).max(axis=1)

    _map_cells(reduce, theta, b, seed, _STREAM_K)
    k = float(np.quantile(stat, level, method="higher"))
    return CriticalValue(k=k, level=level, b=b, seed=seed)


@dataclass(frozen=True)
class CiReport(EnvelopeReport):
    """Confidence intervals for the generalized-model bounds."""

    level: float
    b: int
    seed: int
    # The `att_ci` intervals, which only `infer_bounds` draws; None with att1.
    att1_bootstrap: IntervalBound | None = None
    att0_bootstrap: IntervalBound | None = None

    def to_dict(self) -> dict:
        return {**super().to_dict(), "level": self.level, "bootstrap": self.b, "seed": self.seed}


def assemble_cis(
    theta: ThetaVector, k: float, level: float = 0.95, b: int = 0, seed: int = 0
) -> CiReport:
    """`point_bounds` of the k-inflated envelopes, under the CI labels.

    The weak benefit is left out.
    """
    p = point_bounds(envelope_array(theta.est, k * theta.se), _CI_LABELS)
    del p["benefit_weak"]
    att1, att0 = _att_plugin(theta, p["ey0"], p["ey1"])
    return CiReport(**p, att1=att1, att0=att0, level=level, b=b, seed=seed)


def _sector_shares(theta: ThetaVector):
    """P(D=1|z) and P(D=0|z), each (K,), and their `empty_sector`."""
    p_d1 = theta.cell_counts[:, [1, 3]].sum(axis=1) / theta.cell_counts.sum(axis=1)
    p_d0 = 1.0 - p_d1
    return p_d1, p_d0, empty_sector(p_d1, p_d0)


def _att_plugin(theta: ThetaVector, ey0: IntervalBound, ey1: IntervalBound):
    w = theta.z_weights()
    p_y1 = theta.est[:, 0]
    p_d1, p_d0, empty = _sector_shares(theta)
    if empty is not None:
        return None, None
    att1 = IntervalBound(
        float((w * (p_y1 - ey0.hi) / p_d1).sum()),
        float((w * (p_y1 - ey0.lo) / p_d1).sum()),
        label=_CI_LABELS["att1"],
    ).clamp(-1.0, 1.0)
    att0 = IntervalBound(
        float((w * ((1.0 - p_y1) - (1.0 - ey1.lo)) / p_d0).sum()),
        float((w * ((1.0 - p_y1) - (1.0 - ey1.hi)) / p_d0).sum()),
        label=_CI_LABELS["att0"],
    ).clamp(-1.0, 1.0)
    return att1, att0


def infer_bounds(
    data: OutcomeSample, level: float = 0.95, b: int = 999, seed: int = 0
) -> CiReport:
    """One-call pipeline, every interval `infer` reports: theta, critical
    value, assembled intervals and, where the ATT exists, its bootstrap
    intervals on the same critical value."""
    theta = estimate_theta(data)
    cv = critical_value(theta, level=level, b=b, seed=seed)
    ci = assemble_cis(theta, cv.k, level=level, b=b, seed=seed)
    if ci.att1 is None:
        return ci
    att1, att0 = att_ci(theta, cv)
    return replace(ci, att1_bootstrap=att1, att0_bootstrap=att0)


def att_ci(theta: ThetaVector, cv: CriticalValue) -> tuple[IntervalBound, IntervalBound]:
    """Bootstrap outer envelopes of the two sector-gain plug-in estimators.

    The counterfactual-mean confidence endpoints (with the critical value
    cv held fixed) are plugged into the ratio at every bootstrap table; each
    interval spans the outer quantiles of the resulting lower and upper
    plug-in draws.  One draw, on cv's count and seed, serves both the
    E(Y1-Y0|D=1) and the E(Y0-Y1|D=0) interval, returned in that order.
    """
    empty = _sector_shares(theta)[2]
    if empty is not None:
        raise ZeroSectorProbability(f"P(D={empty}|z) is zero at some z")
    slack = cv.k * theta.se
    low1, high1, low0, high0 = np.empty((4, cv.b))

    def reduce(row, cells):
        theta_star = _theta_from_cells(cells)
        r = bounds_from_envelopes(envelope_array(theta_star, slack))
        w = cells.sum(axis=2)
        w = w / w.sum(axis=1, keepdims=True)
        batch = slice(row, row + len(cells))
        cf_lo, cf_hi = np.clip(r["ey0"], 0.0, 1.0)
        p_y = theta_star[:, :, 0]
        p_d = np.maximum(cells[:, :, [1, 3]].sum(axis=2), 1.0 / theta.n)
        low1[batch] = (w * (p_y - cf_hi[:, None]) / p_d).sum(axis=1)
        high1[batch] = (w * (p_y - cf_lo[:, None]) / p_d).sum(axis=1)
        cf_lo, cf_hi = np.clip(r["ey1"], 0.0, 1.0)
        p_y = theta_star[:, :, 1]
        p_d = np.maximum(cells[:, :, [0, 2]].sum(axis=2), 1.0 / theta.n)
        low0[batch] = (w * (p_y - (1.0 - cf_lo)[:, None]) / p_d).sum(axis=1)
        high0[batch] = (w * (p_y - (1.0 - cf_hi)[:, None]) / p_d).sum(axis=1)

    _map_cells(reduce, theta, cv.b, cv.seed, _STREAM_ATT)
    alpha = 1.0 - cv.level

    def interval(low_star, high_star, label):
        lo = float(np.quantile(low_star, alpha / 2, method="lower"))
        hi = float(np.quantile(high_star, 1.0 - alpha / 2, method="higher"))
        return IntervalBound(lo, hi, sharp=False, label=label).clamp(-1.0, 1.0)

    return interval(low1, high1, _CI_LABELS["att1"]), interval(low0, high0, _CI_LABELS["att0"])


def iqr_ci(
    data: OutcomeSample,
    d: int,
    q1: float,
    q2: float,
    level: float = 0.95,
    b: int = 999,
    seed: int = 0,
) -> IntervalBound:
    """Confidence interval for the sector-d interquantile-range bounds.

    Lower endpoint: bootstrap lower confidence limit of the closed-form
    lower bound, floored at zero.  Upper endpoint: the step-function
    upper-bound objective maximized over a jump-point grid widened by a
    sqrt(lnln n / n) margin, inflated by a critical value taken from the
    bootstrap law of the studentized objective.  Each bootstrap table's
    sub-cdfs and cdf are cumsums of its counts over n on all the jump
    points, and its lower bound and objective are `iqr_bounds`' own.
    """
    check_quantiles(q1, q2)
    _check_draws(b)
    n = data.n
    c = build_subcdf(data)
    xs = c.jumps
    m = len(xs)
    point_probs = np.concatenate([c._w_by_d[d], c._w_by_d[1 - d]])
    # Point-estimate sub-cdfs on the jump points; the counterfactual share
    # is the last cumsum entry, as in the bootstrap rows, not c.p_d(1 - d).
    cd0 = c._sub[d].vals[None, :]
    f0 = c._cdf.vals[None, :]
    p_other0 = float(c._sub[1 - d].vals[-1])

    # Upper endpoint: grid of jump points in the widened admissible range;
    # none when q1 is below the counterfactual share (unbounded upper end).
    inv_bar_q1 = float(_row_inverse(cd0, q1 - p_other0, xs)[0])
    inv_f_q1 = float(_row_inverse(f0, q1, xs)[0])
    spread = float(np.std(data.y)) if n > 1 else 1.0
    grid = None
    if inv_bar_q1 != -np.inf:
        lln = np.sqrt(np.log(np.log(max(n, 3))) / n) * spread
        g_lo, g_hi = inv_bar_q1 - lln, inv_f_q1 + lln
        grid = xs[(xs >= g_lo) & (xs <= g_hi)]
        grid = np.concatenate([[g_lo], grid, [g_hi]])
        if len(grid) > _GRID_CAP:
            grid = np.quantile(grid, np.linspace(0, 1, _GRID_CAP), method="nearest")
        # Sorted distinct values as np.unique gives them, which would import numpy.ma.
        grid = np.sort(grid)
        grid = grid[np.concatenate([[True], grid[1:] != grid[:-1]])]

    # Each batch of draws is reduced to its rows of the lower-endpoint draws
    # and of the objective, so memory grows with neither b nor m.
    t_star = np.empty(b)
    if grid is not None:
        obj0 = _iqr_objective(cd0, f0, xs, grid, q1, q2)[0]
        # F order keeps each column contiguous, as in a column-masked copy;
        # the bits of std(axis=0) depend on that layout.
        obj_star = np.empty((b, len(grid)), order="F")

    def reducer(rows):
        f = np.empty((rows, m))

        def reduce(row, counts):
            # Sector d's m categories come first.  Both sub-cdfs are built in
            # place; an undrawn category's count of 0 adds exactly +0.0.
            sub = np.divide(counts, n, out=counts).reshape(len(counts), 2, m)
            np.cumsum(sub, axis=2, out=sub)
            c_d, c_o = sub[:, 0], sub[:, 1]
            f_star = np.add(c_d, c_o, out=f[: len(counts)])
            batch = slice(row, row + len(counts))
            t_star[batch] = _iqr_lower(c_d, f_star, xs, c_o[:, -1], q1, q2)
            if grid is not None:
                obj_star[batch] = _iqr_objective(c_d, f_star, xs, grid, q1, q2)

        return reduce

    _bootstrap_map(reducer, point_probs / point_probs.sum(), n, b, seed, _STREAM_IQR)

    # Lower endpoint.
    t_star = np.where(np.isnan(t_star), -np.inf, t_star)
    alpha = 1.0 - level
    finite = np.isfinite(t_star)
    if finite.any():
        t_floored = np.where(finite, t_star, np.min(t_star[finite]))
        lower = max(0.0, float(np.quantile(t_floored, alpha / 2, method="lower")))
    else:
        lower = 0.0
    if grid is None:
        return IntervalBound(lower, np.inf, sharp=False, label=f"IQR_{d} CI")
    finite_cols = np.isfinite(obj0) & np.all(np.isfinite(obj_star), axis=0)
    if not finite_cols.any():
        return IntervalBound(lower, np.inf, sharp=False, label=f"IQR_{d} CI")
    cols = np.flatnonzero(finite_cols)
    g0 = obj0[cols]
    # Studentize in place: move the finite columns to the front, then take
    # std a block of columns at a time.
    for j, col in enumerate(cols):
        obj_star[:, j] = obj_star[:, col]
    gs = obj_star[:, : len(cols)]
    sd = np.concatenate(
        [gs[:, j : j + _STD_COLS].std(axis=0, ddof=1) for j in range(0, len(cols), _STD_COLS)]
    )
    sd = np.maximum(sd, 1e-9 * max(spread, 1e-12))
    gs -= g0[None, :]
    gs /= sd[None, :]
    c_alpha = float(np.quantile(gs.max(axis=1), level, method="higher"))
    upper = float(np.max(g0 + c_alpha * sd))
    return IntervalBound(lower, max(lower, upper), sharp=False, label=f"IQR_{d} CI")
