import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roybounds import functional as fn
from roybounds import oracle
from roybounds.errors import (
    BadInterval,
    DegenerateDenominator,
    EmptySample,
    EmptySector,
    QuantileOutOfRange,
)


def small_sample(seed=0, n=10):
    rng = oracle.make_rng(seed)
    y = np.round(rng.normal(0, 1, n), 3)
    d = (rng.random(n) < 0.5).astype(int)
    if d.min() == d.max():
        d[0] = 1 - d[0]
    return fn.OutcomeSample.from_arrays(y, d)


def test_empty_sample():
    with pytest.raises(EmptySample):
        fn.OutcomeSample.from_arrays([], [])


def test_single_record_subcdf():
    s = fn.OutcomeSample.from_arrays([1.0], [1], [1.0])
    c = fn.build_subcdf(s)
    assert c.sub(1, 0.5) == 0.0
    assert c.sub(1, 1.0) == 1.0
    assert c.sub(0, 99.0) == 0.0
    assert c.bar(0, -99.0) == 1.0  # F_lo_0 + P(D=1)


def test_two_record_subcdf():
    s = fn.OutcomeSample.from_arrays([1.0, 2.0], [0, 1], [0.5, 0.5])
    c = fn.build_subcdf(s)
    assert c.cdf(1.5) == 0.5
    assert c.sub(1, 1.5) == 0.0
    assert c.bar(1, 1.5) == 0.5


def test_cdf_is_sum_of_subcdfs():
    s = small_sample(3, 25)
    c = fn.build_subcdf(s)
    for y in c.jumps:
        assert c.cdf(y) == pytest.approx(c.sub(0, y) + c.sub(1, y), abs=1e-12)


def test_generalized_inverse_convention():
    s = fn.OutcomeSample.from_arrays([0.0, 1.0, 2.0], [0, 1, 0], [0.25, 0.5, 0.25])
    c = fn.build_subcdf(s)
    assert c.inv_cdf(0.25) == 0.0   # weak inequality picks the atom itself
    assert c.inv_cdf(0.26) == 1.0
    assert c.inv_cdf(0.75) == 1.0
    assert c.inv_bar(1, 0.5) == -np.inf  # u below the counterfactual share
    assert c.inv_cdf(0.0) == -np.inf


def scalar_stepfn_inverse(f, u):
    """The scalar `StepFn.inverse` that `_row_inverse` replaced, kept as its reference."""
    if u <= f.base + fn._TOL:
        return -np.inf
    if u > f.vals[-1] + fn._TOL:
        return np.inf
    idx = int(np.searchsorted(f.vals, u - fn._TOL, side="left"))
    return float(f.xs[idx])


def bar_stepfns(c):
    """The envelope StepFns F_lo_d + P(D=1-d) that SubCdf once stored, kept as their reference."""
    return (
        fn.StepFn(c.jumps, c._sub[0].vals + c.p_d1, base=c.p_d1),
        fn.StepFn(c.jumps, c._sub[1].vals + c.p_d0, base=c.p_d0),
    )


def loop_iqr_bounds(c, d, q1, q2):
    """`iqr_bounds` as a Python loop over the jumps on the references above, kept as its reference."""
    bar, cdf = bar_stepfns(c)[d], c._cdf
    lower = max(0.0, scalar_stepfn_inverse(bar, q2) - scalar_stepfn_inverse(cdf, q1))
    y_lo = scalar_stepfn_inverse(bar, q1)
    y_hi = scalar_stepfn_inverse(cdf, q1)
    if y_lo == -np.inf:
        return lower, np.inf
    cand = [y for y in c.jumps if y_lo <= y <= y_hi]
    cand += [y_lo, y_hi]
    inv_q2 = scalar_stepfn_inverse(cdf, q2)
    best = 0.0
    for y in cand:
        slope_term = scalar_stepfn_inverse(c._sub[d], q2 - q1 + c.sub(d, y)) - y
        best = max(best, min(inv_q2 - y, slope_term))
    return lower, float(max(lower, best))


def seeded_subcdf(seed):
    """Step functions of a seeded sample with ties and, for odd seeds, 2-decimal weights."""
    rng = oracle.make_rng(seed, 29)
    n = int(rng.integers(1, 60))
    y = np.round(rng.normal(0, 1, n), int(rng.integers(0, 3)))
    d = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(int)
    w = np.round(rng.uniform(0.1, 3.0, n), 2) if seed % 2 else None
    return fn.build_subcdf(fn.OutcomeSample.from_arrays(y, d, w)), rng


def two_sort_subcdf(s):
    """Jumps and per-jump sector weights as SubCdf once built them: a stable
    argsort, three gathers, then np.unique on the sorted copy."""
    order = np.argsort(s.y, kind="stable")
    ys, ws, ds = s.y[order], s.w[order], s.d[order]
    uniq, inv = np.unique(ys, return_inverse=True)
    w0 = np.bincount(inv, weights=ws * (ds == 0), minlength=len(uniq))
    w1 = np.bincount(inv, weights=ws * (ds == 1), minlength=len(uniq))
    return uniq, w0, w1


def test_subcdf_equals_two_sort_reference_bitwise():
    signs = set()
    for seed in range(400):
        rng = oracle.make_rng(seed, 31)
        n = int(rng.integers(1, 300))
        y = np.round(rng.normal(0, 1, n), int(rng.integers(0, 2)))
        # 0.0 and -0.0 ties in random row order; the jump keeps the first one's sign.
        zeros = rng.random(n) < 0.3
        y[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
        d = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(int)
        w = np.round(rng.uniform(0.1, 3.0, n), 2) if seed % 2 else None
        s = fn.OutcomeSample.from_arrays(y, d, w)
        c = fn.build_subcdf(s)
        uniq, w0, w1 = two_sort_subcdf(s)
        assert c.jumps.tobytes() == uniq.tobytes(), seed
        assert c._w_by_d[0].tobytes() == w0.tobytes(), seed
        assert c._w_by_d[1].tobytes() == w1.tobytes(), seed
        assert repr((c.p_d0, c.p_d1)) == repr((float(w0.sum()), float(w1.sum()))), seed
        signs.update(np.signbit(c.jumps[c.jumps == 0.0]))
    assert signs == {False, True}


def test_stepfn_inverse_equals_scalar_reference_bitwise():
    past_end = 0
    for seed in range(200):
        c, rng = seeded_subcdf(seed)
        base = float(rng.uniform(0.0, 0.5))
        shifted = fn.StepFn(c.jumps, c._cdf.vals + base, base=base)
        for f in (c._cdf, c._sub[0], c._sub[1], shifted, *bar_stepfns(c)):
            # Every value the function takes, each one nudged by the tolerance,
            # the base, and levels below the base and above the terminal value.
            u = np.concatenate(
                [f.vals, f.vals + fn._TOL, f.vals - fn._TOL, [f.base, f.base + fn._TOL],
                 rng.uniform(-0.1, 1.6, 8)]
            )
            ref = []
            for x in u:
                try:
                    ref.append(scalar_stepfn_inverse(f, x))
                except IndexError:
                    # x - _TOL rounds above the terminal value although x does
                    # not exceed it by more than _TOL: the scalar form indexed
                    # past the last jump; the weak inverse there is +inf.
                    ref.append(np.inf)
                    past_end += 1
            assert repr([f.inverse(x) for x in u]) == repr(ref), seed
            assert f.inverse(u).tobytes() == np.array(ref).tobytes(), seed
            assert f.inverse(u[:, None]).tobytes() == np.array(ref).tobytes(), seed
    assert past_end > 0


def test_envelope_equals_stored_stepfn_reference_bitwise():
    for seed in range(200):
        c, rng = seeded_subcdf(seed)
        ys = np.concatenate([c.jumps, c.jumps - 1e-9, [c.jumps[0] - 1.0, c.jumps[-1] + 1.0]])
        for d, ref in enumerate(bar_stepfns(c)):
            assert c.bar(d, ys).tobytes() == ref(ys).tobytes(), seed
            assert repr([c.bar(d, y) for y in ys]) == repr([ref(y) for y in ys]), seed
            # Not ref.base + _TOL: c.inv_bar shifts the level by P(D=1-d) before
            # the tolerance test, so levels within rounding of it may differ.
            u = np.concatenate([ref.vals, [ref.base], rng.uniform(-0.1, 1.1, 8)])
            got = [c.inv_bar(d, x) for x in u]
            assert repr(got) == repr([scalar_stepfn_inverse(ref, x) for x in u]), seed


def test_iqr_bounds_equals_loop_reference_bitwise():
    bounded = unbounded = 0
    for seed in range(300):
        c, rng = seeded_subcdf(seed)
        k = int(rng.integers(2, 10))
        pairs = [tuple(sorted(rng.uniform(0.01, 0.99, 2))), (0.25, 0.75),
                 (1 / (2 * k), (2 * k - 1) / (2 * k)), ((k - 1) / (2 * k), k / (2 * k))]
        for d in (0, 1):
            for q1, q2 in pairs:
                b = fn.iqr_bounds(c, d, q1, q2)
                assert type(b.lo) is float and type(b.hi) is float
                assert repr((b.lo, b.hi)) == repr(loop_iqr_bounds(c, d, q1, q2)), (seed, d, q1, q2)
                if b.hi == np.inf:
                    unbounded += 1
                else:
                    bounded += 1
    assert bounded >= 100 and unbounded >= 100


def test_peterson_bounds_edges():
    s = small_sample(1, 12)
    c = fn.build_subcdf(s)
    below = c.jumps[0] - 1.0
    above = c.jumps[-1] + 1.0
    b = fn.peterson_bounds(c, 1, below)
    assert b.lo == 0.0 and b.hi == pytest.approx(c.p_d0)
    b = fn.peterson_bounds(c, 1, above)
    assert b.lo == pytest.approx(1.0) and b.hi == pytest.approx(1.0)


def test_peterson_bounds_interior_by_counting():
    s = small_sample(2, 10)
    c = fn.build_subcdf(s)
    y = float(np.median(s.y))
    lo = (s.y <= y).mean()
    hi = ((s.y <= y) & (s.d == 1)).mean() + (s.d == 0).mean()
    b = fn.peterson_bounds(c, 1, y)
    assert b.lo == pytest.approx(lo)
    assert b.hi == pytest.approx(hi)


def test_interval_lower_bound_cases():
    s = small_sample(4, 10)
    c = fn.build_subcdf(s)
    assert fn.interval_lower_bound(c, 1, -np.inf, np.inf) == pytest.approx(1.0)
    y2 = float(np.median(s.y))
    assert fn.interval_lower_bound(c, 1, -np.inf, y2) == pytest.approx(c.cdf(y2))
    y1 = float(np.quantile(s.y, 0.2))
    direct = ((s.y > y1) & (s.y <= y2) & (s.d == 1)).mean()
    assert fn.interval_lower_bound(c, 1, y1, y2) == pytest.approx(direct)
    with pytest.raises(BadInterval):
        fn.interval_lower_bound(c, 1, 2.0, 1.0)


def test_sample_rejects_weights_that_do_not_normalize():
    y, d = np.zeros(3), np.array([0, 1, 1])
    for w in ([1.0, np.nan, 1.0], [1.0, np.inf, 1.0], [1.0, 0.0, 1.0], [-1.0, -1.0, -1.0],
              [1e308, 1e308, 1.0], [1e300, 1e-300, 1.0]):
        with pytest.raises(BadInterval):
            fn.OutcomeSample.from_arrays(y, d, np.array(w))


def test_sample_holds_labels_sorted_from_either_instrument_form():
    y, d = np.zeros(6), np.array([0, 1, 1, 0, 1, 0])
    z = ["é", "z9", "Z", "z10", "é", "a"]
    by_row = fn.OutcomeSample.from_arrays(y, d, z=np.array(z, dtype=object))
    labels, codes = fn.code_values(z)
    assert labels == ["é", "z9", "Z", "z10", "a"] and codes.tolist() == [0, 1, 2, 3, 0, 4]
    coded = fn.OutcomeSample.from_arrays(y, d, labels=labels, codes=codes)
    for s in (by_row, coded):
        assert s.labels == tuple(sorted(set(z)))
        assert s.z.tolist() == z


def test_interval_is_empty():
    assert fn.Interval(1.0, 0.0, False, False).is_empty  # lo > hi, closed ends or not
    assert fn.Interval(1.0, 1.0).is_empty  # (1, 1]
    assert not fn.Interval(1.0, 1.0, False, False).is_empty  # [1, 1]
    assert not fn.Interval(0.0, 1.0).is_empty
    whole = fn.Interval(-np.inf, np.inf)
    assert fn.RectUnion.of([fn.Rect(whole, fn.Interval(1.0, 0.0)), fn.Rect(whole, whole)]).rects == (
        fn.Rect(whole, whole),
    )


def test_upper_lower_sets_quadrant():
    a = fn.RectUnion.of([fn.Rect(fn.Interval(-np.inf, 1.0), fn.Interval(-np.inf, 2.0))])
    y = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
    u0, u1, l0, l1 = fn.upper_lower_sets(a, y)
    assert u0.tolist() == [True, True, False, False, False]
    assert u1.tolist() == [True, True, True, True, False]
    assert l0.tolist() == l1.tolist() == u0.tolist()  # y <= min(y0, y1)


def test_upper_lower_sets_whole_plane():
    a = fn.RectUnion.of([fn.Rect(fn.Interval(-np.inf, np.inf), fn.Interval(-np.inf, np.inf))])
    for s in fn.upper_lower_sets(a, np.array([-1e300, -1.0, 0.0, 1e300])):
        assert s.all()


def test_upper_lower_sets_interior_rectangle():
    # y01 < y11 < y02 < y12
    y01, y11, y02, y12 = 0.0, 1.0, 2.0, 3.0
    a = fn.RectUnion.of([fn.Rect(fn.Interval(y01, y02), fn.Interval(y11, y12))])
    y = np.arange(-0.5, 4.0, 0.5)
    u0, u1, l0, l1 = fn.upper_lower_sets(a, y)
    assert (u1 == ((y11 < y) & (y <= y12))).all()
    assert (u0 == ((y11 < y) & (y <= y02))).all()
    assert not l0.any() and not l1.any()


def draw_interval(rng, ends):
    """An interval on the grid `ends` with random open/closed flags, some ends at
    +-inf, and sometimes degenerate: [a, a], or empty when a flag is open."""
    lo, hi = sorted(rng.choice(ends, 2))
    if rng.random() < 0.2:
        lo = -np.inf
    if rng.random() < 0.2:
        hi = np.inf
    if rng.random() < 0.15 and np.isfinite(lo):
        hi = lo
    return fn.Interval(float(lo), float(hi), bool(rng.random() < 0.5), bool(rng.random() < 0.5))


def halfline_sets(rects, y):
    """(U0, U1, L0, L1) of the rectangles at each point y, point by point.

    y is in U_d when some nonempty rectangle holds y in its own interval and
    has a point at or below y in its other one, and in L_d when some rectangle
    holds y and its other interval contains all of (-inf, y].
    """
    def inside(iv, x):
        return (iv.lo < x if iv.lo_open else iv.lo <= x) and (x < iv.hi if iv.hi_open else x <= iv.hi)

    def nonempty(iv):
        return iv.lo < iv.hi or (iv.lo == iv.hi and not (iv.lo_open or iv.hi_open))

    upper, lower = ([], []), ([], [])
    for d in (0, 1):
        pairs = [(r.i0, r.i1) if d == 0 else (r.i1, r.i0) for r in rects]
        for x in y:
            upper[d].append(any(
                nonempty(own) and nonempty(other) and inside(own, x)
                and (other.lo < x or (other.lo == x and not other.lo_open))
                for own, other in pairs
            ))
            lower[d].append(any(
                inside(own, x) and other.lo == -np.inf and inside(other, x) for own, other in pairs
            ))
    return tuple(np.array(m, dtype=bool) for m in (*upper, *lower))


def test_upper_sets_vs_halfline_grid_oracle():
    rng = oracle.make_rng(17)
    ends = np.arange(-2.0, 2.5, 0.5)
    grid = np.arange(-3.0, 3.05, 0.25)
    degenerate = several = 0
    for _ in range(400):
        rects = [fn.Rect(draw_interval(rng, ends), draw_interval(rng, ends))
                 for _ in range(int(rng.integers(1, 4)))]
        degenerate += any(iv.lo == iv.hi for r in rects for iv in (r.i0, r.i1))
        # Empty rectangles are kept here, so the masks must skip them.
        got = fn.upper_lower_sets(fn.RectUnion(rects=tuple(rects)), grid)
        want = halfline_sets(rects, grid)
        for name, g, w in zip(("U0", "U1", "L0", "L1"), got, want):
            assert g.dtype == bool and (g == w).all(), (name, grid[g != w], rects)
        # A weighted sample on the grid: the bounds sum the weights over the sets.
        n = int(rng.integers(1, 40))
        y, d = rng.choice(grid, n), (rng.random(n) < 0.5).astype(int)
        c = fn.build_subcdf(fn.OutcomeSample.from_arrays(y, d, rng.uniform(0.1, 3.0, n)))
        a = fn.RectUnion.of(rects)
        b = fn.joint_set_bounds(c, a)
        u0, u1, l0, l1 = halfline_sets(a.rects, c.jumps)
        w0, w1 = c._w_by_d
        assert b.lo == pytest.approx(w0[l0].sum() + w1[l1].sum(), abs=1e-15, rel=0)
        assert b.hi == pytest.approx(w0[u0].sum() + w1[u1].sum(), abs=1e-15, rel=0)
        assert b.sharp == (len(a.rects) <= 1)
        several += len(a.rects) > 1
    assert degenerate >= 50 and several >= 50


def test_upper_sets_keep_a_shared_closed_lower_end():
    # [-1, inf) and (-1, 0] share the lower end -1, closed in one only: the
    # sector-0 upper set holds -1, so its weight counts toward the upper end.
    r_closed = fn.Rect(fn.Interval(-1.0, np.inf, False, False), fn.Interval(-3.0, np.inf))
    r_open = fn.Rect(fn.Interval(-1.0, 0.0), fn.Interval(-3.0, np.inf, False, True))
    c = fn.build_subcdf(fn.OutcomeSample.from_arrays([-1.0, 0.5], [0, 1]))
    for a in (fn.RectUnion.of([r_closed, r_open]), fn.RectUnion.of([r_open, r_closed])):
        assert fn.upper_lower_sets(a, c.jumps)[0].tolist() == [True, True]
        assert fn.joint_set_bounds(c, a).hi == 1.0


def test_joint_set_bounds_diagonal_identified():
    s = small_sample(5, 20)
    c = fn.build_subcdf(s)
    y = float(np.median(s.y))
    b = fn.joint_set_bounds(c, fn.RectUnion.of([fn.Rect(fn.Interval(-np.inf, y), fn.Interval(-np.inf, y))]))
    assert b.lo == pytest.approx(c.cdf(y))
    assert b.hi == pytest.approx(c.cdf(y))


def test_joint_set_bounds_plane():
    s = small_sample(6, 15)
    c = fn.build_subcdf(s)
    a = fn.RectUnion.of([fn.Rect(fn.Interval(-np.inf, np.inf), fn.Interval(-np.inf, np.inf))])
    b = fn.joint_set_bounds(c, a)
    assert b.lo == pytest.approx(1.0) and b.hi == pytest.approx(1.0)


def test_joint_set_bounds_is_sharp_for_one_rectangle_only():
    # One set written as one rectangle and as two: the half-lines {y1} x
    # (-inf, y1] with 0 < y1 <= 5 lie in the union but in neither rectangle,
    # so the union's lower end is lower, and it is not tagged sharp.
    rng = np.random.default_rng(0)
    y = np.round(rng.normal(2, 3, 400), 2)
    d = (rng.random(400) < 0.6).astype(int)
    c = fn.build_subcdf(fn.OutcomeSample.from_arrays(y, d))
    below10 = fn.Interval(-np.inf, 10.0)
    one = fn.RectUnion.of([fn.Rect(fn.Interval(-np.inf, 5.0), below10)])
    two = fn.RectUnion.of(
        [fn.Rect(fn.Interval(-np.inf, 0.0), below10), fn.Rect(fn.Interval(0.0, 5.0), below10)]
    )
    b1, b2 = fn.joint_set_bounds(c, one), fn.joint_set_bounds(c, two)
    assert (b1.lo, b1.sharp) == (pytest.approx(0.845), True)
    assert (b2.lo, b2.sharp) == (pytest.approx(0.4875), False)
    assert b1.hi == b2.hi
    # The two rectangles' sector-0 sets together cover (-inf, 5], as the one's do.
    u0, _, l0, _ = fn.upper_lower_sets(two, c.jumps)
    assert (u0 == (c.jumps <= 5.0)).all() and (l0 == u0).all()


def test_joint_rect_upper_is_improved_formula():
    s = small_sample(7, 30)
    c = fn.build_subcdf(s)
    y01, y11 = -0.5, 0.2
    y02, y12 = 0.9, 1.4
    a = fn.RectUnion.of([fn.Rect(fn.Interval(y01, y02), fn.Interval(y11, y12))])
    b = fn.joint_set_bounds(c, a)
    m = max(y01, y11)
    improved = c.mass(fn.Interval(m, y02), 0) + c.mass(fn.Interval(m, y12), 1)
    assert b.hi == pytest.approx(improved)
    peterson = c.mass(fn.Interval(y01, y02), 0) + c.mass(fn.Interval(y11, y12), 1)
    assert b.hi <= peterson + 1e-12


def test_mobility_upper_edges():
    s = small_sample(8, 16)
    c = fn.build_subcdf(s)
    assert fn.mobility_upper(c, c.jumps[-1] + 1.0) == 0.0
    if c.p_d1 > 0:
        assert fn.mobility_upper(c, c.jumps[0] - 1.0) == pytest.approx(1.0)
    y = float(np.median(s.y))
    direct = ((s.y > y) & (s.d == 1)).mean() / (
        ((s.y <= y) & (s.d == 0)).mean() + (s.d == 1).mean()
    )
    assert fn.mobility_upper(c, y) == pytest.approx(min(1.0, direct))
    # All in sector 0 and none at or below y: the envelope of P(Y0 <= y) is zero.
    c = fn.build_subcdf(fn.OutcomeSample.from_arrays([1.0, 2.0, 3.0], [0, 0, 0]))
    with pytest.raises(DegenerateDenominator):
        fn.mobility_upper(c, 0.5)


def test_iqr_point_identified_when_one_sector():
    y = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    s = fn.OutcomeSample.from_arrays(y, np.ones(5, dtype=int))
    c = fn.build_subcdf(s)
    b = fn.iqr_bounds(c, 1, 0.25, 0.75)
    observed = c.inv_cdf(0.75) - c.inv_cdf(0.25)
    assert b.lo == pytest.approx(observed)
    assert b.hi == pytest.approx(observed)


def test_iqr_degenerate_range():
    y = np.arange(10.0)
    d = np.array([0] + [1] * 9)
    c = fn.build_subcdf(fn.OutcomeSample.from_arrays(y, d))
    b = fn.iqr_bounds(c, 1, 0.45, 0.451)
    assert b.lo == 0.0


def test_iqr_quantile_validation():
    c = fn.build_subcdf(small_sample(9, 10))
    with pytest.raises(QuantileOutOfRange):
        fn.iqr_bounds(c, 1, 0.75, 0.25)
    with pytest.raises(QuantileOutOfRange):
        fn.iqr_bounds(c, 1, 0.0, 0.5)


def test_iqr_first_quantile_at_or_below_tol_rejected():
    # _row_inverse reads a level at or below 1e-12 as 0: F^-1(q1) would be
    # -inf and the lower bound +inf.
    c = fn.build_subcdf(small_sample(9, 10))
    for q1 in (1e-13, 1e-12):
        with pytest.raises(QuantileOutOfRange, match="1e-12 < q1"):
            fn.iqr_bounds(c, 1, q1, 0.5)
    b = fn.iqr_bounds(c, 1, 2e-12, 0.5)
    assert np.isfinite(b.lo) and b.lo <= b.hi


def test_iqr_unbounded_reported():
    y = np.arange(10.0)
    d = np.array([0] * 5 + [1] * 5)
    c = fn.build_subcdf(fn.OutcomeSample.from_arrays(y, d))
    b = fn.iqr_bounds(c, 1, 0.25, 0.75)  # q1 < P(D=0) = 0.5
    assert b.hi == np.inf


def brute_force_iqr_upper(c, d, q1, q2):
    """Search over quantile-location pairs with the minimal monotone
    completion of the counterfactual cdf between them."""
    xs = np.concatenate([[c.jumps[0] - 1.0], c.jumps])
    best = 0.0
    for y1 in xs:
        if c.bar(d, y1) < q1 - 1e-12:
            continue
        for y2 in xs:
            if y2 < y1 or c.bar(d, y2) < q2 - 1e-12:
                continue
            prev_idx = np.searchsorted(c.jumps, y2, side="left") - 1
            y_prev = c.jumps[prev_idx] if prev_idx >= 0 else c.jumps[0] - 1.0
            f_prev = max(
                c.cdf(y_prev), q1 + c.sub(d, y_prev) - c.sub(d, y1)
            )
            if f_prev < q2 - 1e-12:
                best = max(best, y2 - y1)
    return best


def test_iqr_upper_matches_bruteforce():
    for seed in range(6):
        rng = oracle.make_rng(100 + seed)
        y = np.round(rng.normal(0, 1, 20), 2)
        d = np.ones(20, dtype=int)
        d[rng.choice(20, size=3, replace=False)] = 0
        c = fn.build_subcdf(fn.OutcomeSample.from_arrays(y, d))
        b = fn.iqr_bounds(c, 1, 0.25, 0.75)
        assert np.isfinite(b.hi)
        assert b.hi == pytest.approx(brute_force_iqr_upper(c, 1, 0.25, 0.75), abs=1e-9)


def test_iqr_lower_closed_form():
    c = fn.build_subcdf(small_sample(11, 30))
    b = fn.iqr_bounds(c, 1, 0.6, 0.9)
    assert b.lo == max(0.0, c.inv_bar(1, 0.9) - c.inv_cdf(0.6))


def test_proposition1_dominant_counterfactual_never_exceeds():
    # counterfactual sector's outcomes first-order dominate sector d's
    rng = oracle.make_rng(31)
    for _ in range(10):
        atoms = np.sort(rng.uniform(0, 5, 8))
        probs = rng.dirichlet(np.ones(8))
        shift = rng.uniform(0.5, 2.0)
        p_d = rng.uniform(0.6, 0.9)
        y = np.concatenate([atoms, atoms + shift])
        d = np.array([1] * 8 + [0] * 8)
        w = np.concatenate([probs * p_d, probs * (1 - p_d)])
        c = fn.build_subcdf(fn.OutcomeSample.from_arrays(y, d, w))
        rep = fn.proposition1_check(c, 1, 0.25, 0.75)
        assert rep["counterfactual_dominates_sector"]
        assert not rep["observed_exceeds_upper"]


def test_proposition1_non_dominant_construction_exceeds():
    # counterfactual mass concentrated at the bottom: the observed
    # sector-d interquantile range overstates potential inequality
    y = np.concatenate([[0.0], [0.5] * 6, 1.0 + np.arange(10)])
    d = np.array([0] + [1] * 16)
    w = np.concatenate([[0.2], [0.05] * 6, [0.05] * 10])
    c = fn.build_subcdf(fn.OutcomeSample.from_arrays(y, d, w))
    rep = fn.proposition1_check(c, 1, 0.25, 0.75)
    assert not rep["counterfactual_dominates_sector"]
    assert rep["observed_exceeds_upper"]
    assert rep["observed_iqr"] > rep["potential_iqr"]["hi"]


def test_proposition1_equal_sectors():
    y = np.concatenate([np.arange(5.0), np.arange(5.0)])
    d = np.array([0] * 5 + [1] * 5)
    c = fn.build_subcdf(fn.OutcomeSample.from_arrays(y, d))
    rep = fn.proposition1_check(c, 1, 0.3, 0.7)
    assert rep["counterfactual_dominates_sector"]
    assert rep["sector_dominates_counterfactual"]


def test_proposition1_one_sector_only():
    # Every row in sector 1: sector 0 has nothing to check, and sector 1's
    # potential range is point identified as the observed one, with the
    # empty counterfactual taken as dominating it.
    c = fn.build_subcdf(fn.OutcomeSample.from_arrays(np.arange(6.0), np.ones(6, dtype=int)))
    with pytest.raises(EmptySector, match="D=0"):
        fn.proposition1_check(c, 0, 0.25, 0.75)
    rep = fn.proposition1_check(c, 1, 0.25, 0.75)
    assert rep["observed_iqr"] == rep["potential_iqr"]["lo"] == rep["potential_iqr"]["hi"] == 3.0
    assert rep["counterfactual_dominates_sector"]
    assert not rep["sector_dominates_counterfactual"]
    assert not rep["observed_exceeds_upper"]


def comprehension_proposition1_check(c, d, q1, q2):
    """proposition1_check as it was with one sub-cdf call per jump, kept as its reference."""
    bounds = fn.iqr_bounds(c, d, q1, q2)
    observed = fn._sector_quantile(c, d, q2) - fn._sector_quantile(c, d, q1)
    p_d, p_o = c.p_d(d), c.p_d(1 - d)
    cond_d = np.array([c.sub(d, y) for y in c.jumps]) / p_d
    if p_o > fn._TOL:
        cond_o = np.array([c.sub(1 - d, y) for y in c.jumps]) / p_o
    else:
        cond_o = np.zeros_like(cond_d)
    exceeds = observed > bounds.hi + 1e-9
    return {
        "observed_iqr": float(observed),
        "potential_iqr": bounds.to_dict(),
        "counterfactual_dominates_sector": bool(np.all(cond_o <= cond_d + 1e-9)),
        "sector_dominates_counterfactual": bool(np.all(cond_d <= cond_o + 1e-9)),
        "observed_exceeds_upper": bool(exceeds),
        "verdict": (
            "selection inflates observed sector inequality"
            if exceeds
            else "observed inequality consistent with potential-outcome bounds"
        ),
    }


def test_proposition1_equals_per_jump_reference():
    outcomes = {True: 0, False: 0}
    for seed in range(60):
        rng = oracle.make_rng(seed, 17)
        n = int(rng.integers(2, 80))
        y = np.round(rng.normal(0, 1, n), int(rng.integers(0, 3)))  # rounding makes ties
        d = (rng.random(n) < rng.uniform(0.2, 1.0)).astype(int)
        d[0] = 1
        w = rng.random(n) if seed % 2 else None
        c = fn.build_subcdf(fn.OutcomeSample.from_arrays(y, d, w))
        for dd in (0, 1):
            assert c.sub(dd, c.jumps).tobytes() == np.array([c.sub(dd, v) for v in c.jumps]).tobytes()
            if c.p_d(dd) <= fn._TOL:
                continue
            q1, q2 = sorted(rng.uniform(0.05, 0.95, 2))
            if q2 - q1 < 0.05:
                q1, q2 = 0.25, 0.75
            got = fn.proposition1_check(c, dd, q1, q2)
            assert repr(got) == repr(comprehension_proposition1_check(c, dd, q1, q2)), (seed, dd)
            outcomes[got["counterfactual_dominates_sector"]] += 1
    assert min(outcomes.values()) > 0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_iqr_lower_below_upper(seed):
    rng = oracle.make_rng(seed)
    n = 15
    y = np.round(rng.normal(0, 1, n), 2)
    d = (rng.random(n) < 0.8).astype(int)
    if d.sum() in (0, n):
        d[0] = 1 - d[0]
    c = fn.build_subcdf(fn.OutcomeSample.from_arrays(y, d))
    b = fn.iqr_bounds(c, 1, 0.4, 0.7)
    assert b.lo <= b.hi + 1e-12
