import json
import os
import sys
import threading
import warnings

import numpy as np
import pytest

from roybounds import functional, generalized, inference, oracle
from roybounds.errors import InputError, QuantileOutOfRange, ZeroSectorProbability
from roybounds.functional import OutcomeSample
from roybounds.probability import InstrumentTable, IntervalBound, validate_cells


def binary_sample(seed=0, n=4000, k=2):
    """Binary Roy data with an instrument shifting the tie-break rate."""
    rng = oracle.make_rng(seed)
    zi = rng.integers(0, k, size=n)
    y0 = (rng.random(n) < 0.4).astype(int)
    y1 = (rng.random(n) < 0.55).astype(int)
    pi = 0.3 + 0.4 * zi / max(k - 1, 1)
    tie = rng.random(n) < pi
    d = np.where(y1 > y0, 1, np.where(y1 < y0, 0, tie.astype(int)))
    y = np.where(d == 1, y1, y0)
    return OutcomeSample.from_arrays(y.astype(float), d, z=np.array([f"z{i}" for i in zi]))


def test_estimate_theta_shapes_and_identities():
    data = binary_sample(1)
    th = inference.estimate_theta(data)
    assert th.est.shape == (2, 8)
    assert np.all(th.se >= inference._SE_FLOOR)
    # theta identities: col0 + col1 = 1, col2 + col3 = 1
    assert np.allclose(th.est[:, 0] + th.est[:, 1], 1.0)
    assert np.allclose(th.est[:, 2] + th.est[:, 3], 1.0)
    assert th.counts.sum() == pytest.approx(data.n)


def test_standard_errors_floor_where_a_share_rounds_above_one():
    # At b the rows sit in q00 and q11 only, and q00 + q11 comes out as
    # 1 + 1 ulp: est * (1 - est) is negative, and its square root was nan.
    y = np.array([0.0] * 5 + [1.0] * 5 + [0.0] * 2 + [1.0] * 11)
    z = np.array(["a"] * 10 + ["b"] * 13)
    data = OutcomeSample.from_arrays(y, y.astype(int), z=z)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        th = inference.estimate_theta(data)
        rep = inference.infer_bounds(data, b=100, seed=0)
    assert th.est[1, 3] > 1.0
    assert th.se[1, 3] == inference._SE_FLOOR and np.isfinite(th.se).all()
    assert "NaN" not in json.dumps(rep.to_dict())


def test_estimate_theta_matches_direct_proportions():
    data = binary_sample(2)
    th = inference.estimate_theta(data)
    for i, z in enumerate(th.labels):
        mask = data.z == z
        y, d = data.y[mask], data.d[mask]
        assert th.est[i, 0] == pytest.approx(y.mean())
        assert th.est[i, 4] == pytest.approx(((y == 1) & (d == 0)).mean())
        assert th.est[i, 7] == pytest.approx(((y == 0) & (d == 1)).mean())


def test_estimate_theta_requires_instrument_and_binary_y():
    y = np.array([0.0, 1.0])
    d = np.array([0, 1])
    with pytest.raises(InputError):
        inference.estimate_theta(OutcomeSample.from_arrays(y, d))
    bad = OutcomeSample.from_arrays(np.array([0.5, 1.0]), d, z=np.array(["a", "a"]))
    with pytest.raises(InputError):
        inference.estimate_theta(bad)


def test_critical_value_properties():
    data = binary_sample(3)
    cv = inference.critical_value(inference.estimate_theta(data), level=0.95, b=300, seed=5)
    assert cv.k > 0
    cv2 = inference.critical_value(inference.estimate_theta(data), level=0.95, b=300, seed=5)
    assert cv.k == cv2.k  # deterministic for a fixed seed
    cv_hi = inference.critical_value(inference.estimate_theta(data), level=0.99, b=300, seed=5)
    assert cv_hi.k >= cv.k
    with pytest.raises(InputError):
        inference.critical_value(inference.estimate_theta(data), b=50)


def concatenate_bootstrap_counts(probs, n, b, seed, *tag):
    """The chunk-and-concatenate draw `_bootstrap_counts` replaced, kept as its reference.

    It draws every category, the zero-probability ones included.
    """
    chunks = [(i, min(inference._CHUNK, b - i * inference._CHUNK))
              for i in range((b + inference._CHUNK - 1) // inference._CHUNK)]
    parts = [inference.make_rng(seed, *tag, i).multinomial(n, probs, size=size) for i, size in chunks]
    return np.concatenate(parts, axis=0)


def test_bootstrap_counts_equal_concatenated_reference_bitwise(monkeypatch):
    # 3000 categories: each chunk is drawn in several batches of rows
    wide = np.random.default_rng(0).dirichlet(np.ones(3000))
    assert 1 < inference._DRAW_BYTES // (8 * len(wide)) < inference._CHUNK
    for probs, b, seed, tag in (
        (np.array([0.0, 0.1, 0.25, 0.0, 0.4, 0.25]), 1, 0, (1,)),
        (np.array([0.0, 0.1, 0.25, 0.0, 0.4, 0.25]), 127, 3, (2,)),
        (np.array([0.0, 0.1, 0.25, 0.0, 0.4, 0.25]), 300, 5, (3,)),
        (np.array([0.0, 0.1, 0.25, 0.0, 0.4, 0.25]), 257, 8, (1, 4)),
        (wide, 300, 2, (3,)),
    ):
        ref = concatenate_bootstrap_counts(probs, 500, b, seed, *tag)
        for threads in ("1", "2"):
            monkeypatch.setenv("ROY_THREADS", threads)
            new = inference._bootstrap_counts(probs, 500, b, seed, *tag)
            assert _same_bits(new, ref), (b, threads)


def test_bootstrap_map_hands_each_reducer_full_layout_rows(monkeypatch):
    # Every batch reaches its reducer over all categories, 0 at each one of
    # zero probability, the last one included, so no reducer needs to know
    # which categories are drawn.  A reducer may overwrite its batch.
    probs = np.random.default_rng(2).dirichlet(np.ones(3000))
    probs[::3] = 0.0
    probs[-1] = 0.0
    probs /= probs.sum()
    b = 300
    drawn = len(inference._drawn_categories(probs))
    assert 1 < inference._DRAW_BYTES // (8 * drawn * 2) < inference._CHUNK // 2  # several batches a chunk
    ref = concatenate_bootstrap_counts(probs, 400, b, 6, 3)
    assert not ref[:, probs == 0].any()
    for threads in ("1", "2"):
        monkeypatch.setenv("ROY_THREADS", threads)
        batches = []

        def fn(row, counts):
            assert counts.dtype == np.float64 and counts.shape == (len(counts), len(probs))
            assert np.array_equal(counts, ref[row : row + len(counts)]), (threads, row)
            batches.append(range(row, row + len(counts)))
            counts.fill(7.0)

        inference._bootstrap_map(fn, probs, 400, b, 6, 3)
        assert sorted(r for batch in batches for r in batch) == list(range(b))
        per_chunk = np.bincount([batch.start // inference._CHUNK for batch in batches])
        assert per_chunk.min() >= 2, (threads, per_chunk)


def sector_probs(rng, m, ties, weighted):
    """The IQR draw's categories: per distinct y, its sector-d then other-sector mass."""
    y = rng.normal(size=m)
    y = np.round(y, 1) if ties else y
    d = (rng.random(m) < 0.6).astype(int)
    w = rng.uniform(0.1, 3.0, m) if weighted else np.ones(m)
    xs, inv = np.unique(y, return_inverse=True)
    p = np.concatenate([np.bincount(inv, w * (d == 1), len(xs)), np.bincount(inv, w * (d == 0), len(xs))])
    return p / p.sum()


def test_nonzero_category_draw_equals_full_draw_bitwise(monkeypatch):
    rng = oracle.make_rng(17)
    cases = [
        sector_probs(rng, 40, ties=True, weighted=False),   # ties: a y in both sectors
        sector_probs(rng, 40, ties=True, weighted=True),
        sector_probs(rng, 300, ties=False, weighted=True),  # half the categories zero
        np.array([0.0, 0.3, 0.0, 0.2, 0.5, 0.0]),            # zero first and last
        np.array([0.4, 0.0, 0.6]),
        np.array([0.0, 0.0, 1.0, 0.0]),                      # one nonzero category
        np.array([0.0, 0.0, 0.0, 1.0]),
        np.array([1.0]),
    ]
    # 6000 categories, half zero: the kept ones are drawn in other batches than the full set
    wide = sector_probs(rng, 3000, ties=False, weighted=False)
    rows = [inference._DRAW_BYTES // (8 * k) for k in (len(wide), np.count_nonzero(wide))]
    assert 1 < rows[0] < rows[1] < inference._CHUNK
    for probs, b in [(p, b) for p in cases for b in (100, 127, 257, 999)] + [(wide, 257)]:
        for seed in (0, 5):
            ref = concatenate_bootstrap_counts(probs, 300, b, seed, 3)
            for threads in ("1", "2"):
                monkeypatch.setenv("ROY_THREADS", threads)
                assert _same_bits(inference._bootstrap_counts(probs, 300, b, seed, 3), ref), (probs, b)


def dense_bootstrap_cells(theta, b, seed, tag):
    """The whole-matrix (b, K, 4) cell draw `_map_cells` replaced, kept as its reference."""
    k = len(theta.labels)
    probs = (theta.counts / theta.counts.sum()).ravel()
    n = theta.n
    counts = inference._bootstrap_counts(probs, n, b, seed, tag).reshape(b, k, 4)
    totals = counts.sum(axis=2, keepdims=True)
    safe = np.maximum(totals, 1)
    cells = counts / safe
    # An empty bootstrap z-cell contributes the point estimate (no signal).
    point = theta.counts / theta.counts.sum(axis=1, keepdims=True)
    cells = np.where(totals == 0, point[None, :, :], cells)
    return cells


def dense_critical_value(theta, level=0.95, b=999, seed=0):
    """The whole-matrix `critical_value` the batch-reduced one replaced, kept as its reference."""
    cells = dense_bootstrap_cells(theta, b, seed, inference._STREAM_K)
    theta_star = inference._theta_from_cells(cells)          # (b, K, 8)
    dev = np.abs(theta_star - theta.est[None]) / theta.se[None]
    stat = dev.reshape(b, -1).max(axis=1)
    k = float(np.quantile(np.sort(stat), level, method="higher"))
    return inference.CriticalValue(k=k, level=level, b=b, seed=seed)


def dense_att_ci(theta, cv, which=1):
    """The whole-matrix `att_ci`, one sign and one draw per call, kept as its reference."""
    cells = dense_bootstrap_cells(theta, cv.b, cv.seed, inference._STREAM_ATT)  # (b, K, 4)
    theta_star = inference._theta_from_cells(cells)
    r = generalized.bounds_from_envelopes(generalized.envelope_array(theta_star, cv.k * theta.se))
    cf_lo, cf_hi = np.clip(r["ey0" if which == 1 else "ey1"], 0.0, 1.0)
    p_y = theta_star[:, :, 0] if which == 1 else theta_star[:, :, 1]
    d_col = [1, 3] if which == 1 else [0, 2]
    p_d = cells[:, :, d_col].sum(axis=2)
    if np.any(theta.counts[:, d_col].sum(axis=1) <= 0):
        raise ZeroSectorProbability(f"P(D={which}|z) is zero at some z")
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


def _with_rows(data, y, d, z):
    """data with the rows (y, d, z) appended."""
    return OutcomeSample.from_arrays(
        np.concatenate([data.y, y]).astype(float),
        np.concatenate([data.d, d]).astype(int),
        z=np.concatenate([data.z, z]),
    )


def _att_outcome(theta, cv, fn):
    """repr of fn's two intervals, or of the ZeroSectorProbability it raises."""
    try:
        return repr(fn(theta, cv))
    except ZeroSectorProbability as exc:
        return repr(exc)


def test_critical_value_and_att_ci_equal_dense_reference(monkeypatch):
    assert 1 < inference._DRAW_BYTES // (8 * 4 * 300) < inference._CHUNK  # K=300: several batches a chunk
    base = binary_sample(21, n=3000, k=3)
    cases = [binary_sample(20 + k, n=4000, k=k) for k in (1, 3, 8, 300)] + [
        # One row at "solo": many draws leave it empty (and it has no D=0 row).
        _with_rows(base, [1], [1], ["solo"]),
        # No D=0 row at "one", no D=1 row at "zero": the D=1 error comes first.
        _with_rows(base, [1, 0], [1, 0], ["one", "zero"]),
        # Two rows at "pair", one per sector: the ATT draws also leave it empty.
        _with_rows(base, [1, 0], [1, 0], ["pair", "pair"]),
        # No (Y=1, D=0) row at "gap": a zero-probability cell is never drawn.
        _with_rows(base, [0, 0, 1, 0, 1], [0, 1, 1, 0, 1], ["gap"] * 5),
    ]
    empty_z = raised = 0
    for data in cases:
        theta = inference.estimate_theta(data)
        for b in (100, 257):
            monkeypatch.setenv("ROY_THREADS", "1")
            cv = dense_critical_value(theta, b=b, seed=b)
            att = _att_outcome(theta, cv, lambda t, c: (dense_att_ci(t, c, 1), dense_att_ci(t, c, 0)))
            for threads in ("1", "2"):
                monkeypatch.setenv("ROY_THREADS", threads)
                assert repr(inference.critical_value(theta, b=b, seed=b)) == repr(cv), (len(theta.labels), b)
                assert _att_outcome(theta, cv, inference.att_ci) == att, (len(theta.labels), b, threads)
            raised += "ZeroSector" in att
            probs = (theta.counts / theta.counts.sum()).ravel()
            draws = inference._bootstrap_counts(probs, theta.n, b, b, inference._STREAM_ATT)
            empty_z += "ZeroSector" not in att and bool((draws.reshape(b, -1, 4).sum(axis=2) == 0).any())
    assert raised == 4 and empty_z >= 2


def test_binary_bootstrap_memory_independent_of_k(monkeypatch):
    # Each batch is reduced as it is drawn; a whole (b, K, 8) theta draw
    # would make the peak grow with K (about 4x from 100 to 400).
    import tracemalloc

    monkeypatch.setenv("ROY_THREADS", "1")
    peaks = []
    for k in (100, 400):
        theta = inference.estimate_theta(binary_sample(33, n=40000, k=k))
        tracemalloc.start()
        try:
            inference.att_ci(theta, inference.critical_value(theta, b=999, seed=0))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0], peaks


def test_critical_value_thread_invariant(monkeypatch):
    data = binary_sample(4)
    monkeypatch.setenv("ROY_THREADS", "1")
    k1 = inference.critical_value(inference.estimate_theta(data), b=256, seed=9).k
    monkeypatch.setenv("ROY_THREADS", "8")
    k8 = inference.critical_value(inference.estimate_theta(data), b=256, seed=9).k
    assert k1 == k8


def test_critical_value_thread_invariant_over_two_batches(monkeypatch):
    # 72 instrument points: the 288 drawn cells of b=256 draws fill two draw
    # batches, so ROY_THREADS=8 runs one helper thread beside the calling one.
    theta = inference.estimate_theta(binary_sample(4, n=8000, k=72))
    probs = (theta.counts / theta.counts.sum()).ravel()
    assert 8 * len(inference._drawn_categories(probs)) * 256 > inference._DRAW_BYTES
    seen = set()
    theta_from_cells = inference._theta_from_cells

    def spy(cells):
        seen.add(threading.get_ident())
        return theta_from_cells(cells)

    monkeypatch.setattr(inference, "_theta_from_cells", spy)
    ks = {}
    for threads in ("1", "8"):
        monkeypatch.setenv("ROY_THREADS", threads)
        seen.clear()
        ks[threads] = inference.critical_value(theta, b=256, seed=9).k
        assert len(seen) == (1 if threads == "1" else 2)
    assert ks["1"] == ks["8"]


def test_ci_contains_plugin_bounds():
    data = binary_sample(5, n=6000)
    rep = inference.infer_bounds(data, level=0.95, b=300, seed=2)
    th = inference.estimate_theta(data)
    cells = {
        z: validate_cells(*(th.counts[i] / th.counts[i].sum()))
        for i, z in enumerate(th.labels)
    }
    t = InstrumentTable.from_cells(cells)
    g = generalized.compute_all(t)
    assert rep.ey0.lo <= g.ey0.lo + 1e-9 and rep.ey0.hi >= g.ey0.hi - 1e-9
    assert rep.ey1.lo <= g.ey1.lo + 1e-9 and rep.ey1.hi >= g.ey1.hi - 1e-9
    assert rep.ate.lo <= g.ate.lo + 1e-9 and rep.ate.hi >= g.ate.hi - 1e-9
    assert not rep.ey0.crossed and not rep.ey1.crossed


def test_ci_shrinks_with_sample_size():
    small = inference.infer_bounds(binary_sample(6, n=500), b=300, seed=1)
    big = inference.infer_bounds(binary_sample(6, n=20000), b=300, seed=1)
    assert (big.ey0.hi - big.ey0.lo) <= (small.ey0.hi - small.ey0.lo) + 0.02


def test_assemble_cis_k_monotone():
    th = inference.estimate_theta(binary_sample(7))
    narrow = inference.assemble_cis(th, 0.0)
    wide = inference.assemble_cis(th, 3.0)
    assert wide.ey0.lo <= narrow.ey0.lo + 1e-12
    assert wide.ey0.hi >= narrow.ey0.hi - 1e-12
    assert wide.benefit_strict.hi >= narrow.benefit_strict.hi - 1e-12


def sample_table(labels, counts, est, n):
    """A SampleTable of (K, 4) cell counts, as sums and as the bootstrap law,
    with estimates est and every standard error at the floor."""
    counts = np.asarray(counts, dtype=float)
    return inference.SampleTable(
        labels=tuple(labels), sums=counts, totals=counts.sum(axis=1), n=n, est=est,
        se=np.full_like(est, inference._SE_FLOOR), counts=counts,
    )


def test_assemble_cis_caps_mobility_when_denominator_vanishes():
    # Y=1 in sector 0 everywhere: the EY0 interval reaches 1, so the
    # P(Y0=0) upper bound vanishes; the CI path reports 1.0, not an error.
    counts = np.array([[0.0, 0.0, 100.0, 0.0]])
    est = counts / counts.sum() @ generalized._COMBO.T
    th = sample_table(("z",), counts, est, n=100)
    rep = inference.assemble_cis(th, 0.0)
    assert rep.ey0.hi == 1.0
    assert rep.mobility.hi == 1.0


def reference_assemble_cis(theta, k, level=0.95, b=0, seed=0):
    """The hand-built `assemble_cis`, with its ATT plug-in, kept as its reference."""
    r = generalized.bounds_from_envelopes(generalized.envelope_array(theta.est, k * theta.se))
    ey0 = IntervalBound(*map(float, r["ey0"]), sharp=True, label="EY0 CI").clamp()
    ey1 = IntervalBound(*map(float, r["ey1"]), sharp=True, label="EY1 CI").clamp()
    ate = IntervalBound(ey1.lo - ey0.hi, ey1.hi - ey0.lo, sharp=True, label="ATE CI").clamp(-1.0, 1.0)
    benefit = IntervalBound(*map(float, r["benefit_strict"]), sharp=True, label="P(Y1>Y0) CI").clamp()
    mob_lo, mob_hi = map(float, r["mobility"])
    mob_hi = 1.0 if np.isnan(mob_hi) else mob_hi
    mobility = IntervalBound(mob_lo, mob_hi, sharp=True, label="P(Y1=1|Y0=0) CI").clamp()
    w = theta.counts.sum(axis=1)
    w = w / w.sum()
    p_y1 = theta.est[:, 0]
    p_d1 = theta.counts[:, [1, 3]].sum(axis=1) / theta.counts.sum(axis=1)
    p_d0 = 1.0 - p_d1
    att1 = att0 = None
    if not (np.any(p_d1 <= 1e-12) or np.any(p_d0 <= 1e-12)):
        att1 = IntervalBound(
            float((w * (p_y1 - ey0.hi) / p_d1).sum()),
            float((w * (p_y1 - ey0.lo) / p_d1).sum()),
            sharp=True,
            label="E(Y1-Y0|D=1) CI",
        ).clamp(-1.0, 1.0)
        att0 = IntervalBound(
            float((w * ((1.0 - p_y1) - (1.0 - ey1.lo)) / p_d0).sum()),
            float((w * ((1.0 - p_y1) - (1.0 - ey1.hi)) / p_d0).sum()),
            sharp=True,
            label="E(Y0-Y1|D=0) CI",
        ).clamp(-1.0, 1.0)
    return inference.CiReport(
        ey0=ey0, ey1=ey1, ate=ate, benefit_strict=benefit, mobility=mobility,
        att1=att1, att0=att0, level=level, b=b, seed=seed,
    )


def _theta_of_counts(counts):
    """The SampleTable of (K, 4) cell counts, every standard error at the floor."""
    counts = np.asarray(counts, dtype=float)
    est = counts / counts.sum(axis=1, keepdims=True) @ generalized._COMBO.T
    return sample_table([f"z{i}" for i in range(len(counts))], counts, est, n=int(counts.sum()))


def test_assemble_cis_equals_hand_built_reference_bitwise():
    thetas = [
        inference.estimate_theta(binary_sample(seed, n=n, k=k))
        for seed in range(12)
        for n, k in ((150, 3), (4000, 2), (800, 5))
    ]
    # Y=1 at every row: the EY0 interval reaches 1, so the mobility upper end is nan.
    vanish = _theta_of_counts([[0, 0, 60, 40], [0, 0, 30, 70]])
    # The EY0 and EY1 intervals cross by 2e-12.
    crossed = _theta_of_counts(np.array([[0.0, 0.25, 0.5, 0.25], [0.5 + 2e-12, 0.25, 0.0, 0.25 - 2e-12]]) * 1000)
    # z0 has no D=1 rows, so neither ATT exists.
    no_d1 = _theta_of_counts([[30, 0, 20, 0], [10, 25, 15, 30]])
    for theta in thetas + [vanish, crossed, no_d1]:
        for k in (0.0, 1.5, 3.0):
            new = inference.assemble_cis(theta, k, level=0.9, b=200, seed=3)
            ref = reference_assemble_cis(theta, k, level=0.9, b=200, seed=3)
            assert json.dumps(new.to_dict()) == json.dumps(ref.to_dict()), (theta.labels, k)
            assert repr(new) == repr(ref)
    env = generalized.envelope_array(vanish.est, 0.0)
    assert np.isnan(generalized.bounds_from_envelopes(env)["mobility"][1])
    assert inference.assemble_cis(vanish, 0.0).mobility.hi == 1.0
    assert inference.assemble_cis(crossed, 0.0).crossed
    assert inference.assemble_cis(no_d1, 0.0).att1 is None
    assert inference.assemble_cis(vanish, 0.0).att1 is not None


def test_ci_report_crossed_beyond_1e_12_only():
    # At z2 P(Y=0,D=0) is 0.5 + gap, so the EY0 upper end 1 - 0.5 - gap falls
    # below the lower end, z1's P(Y=1,D=0) = 0.5, by gap (and EY1's likewise).
    for gap, crossed in ((0.5e-12, False), (2e-12, True)):
        cells = np.array([[0.0, 0.25, 0.5, 0.25], [0.5 + gap, 0.25, 0.0, 0.25 - gap]])
        est = cells @ generalized._COMBO.T
        th = sample_table(("z1", "z2"), cells * 1000, est, n=2000)
        rep = inference.assemble_cis(th, 0.0)
        assert rep.ey0.lo - rep.ey0.hi == pytest.approx(gap, rel=0.01)
        assert rep.crossed == crossed


def test_infer_bounds_carries_the_att_bootstrap_on_its_critical_value():
    data = binary_sample(9, n=6000)
    rep = inference.infer_bounds(data, level=0.9, b=200, seed=4)
    th = inference.estimate_theta(data)
    cv = inference.critical_value(th, level=0.9, b=200, seed=4)
    assert (rep.att1_bootstrap, rep.att0_bootstrap) == inference.att_ci(th, cv)
    assert {"att1_bootstrap", "att0_bootstrap"} <= set(rep.to_dict())
    # assemble_cis alone, as generalized --bootstrap uses it, draws none.
    alone = inference.assemble_cis(th, cv.k, level=0.9, b=200, seed=4)
    assert alone.att1_bootstrap is None and "att1_bootstrap" not in alone.to_dict()


def test_report_serializes():
    rep = inference.infer_bounds(binary_sample(8), b=200, seed=3)
    out = rep.to_dict()
    assert set(["ey0", "ey1", "ate", "benefit_strict", "mobility"]) <= set(out)
    assert out["level"] == 0.95
    import json

    json.dumps(out)


def test_att_ci_covers_plugin_and_orders():
    data = binary_sample(9, n=6000)
    th = inference.estimate_theta(data)
    ci1, ci0 = inference.att_ci(th, inference.critical_value(th, b=300, seed=4))
    assert ci1.lo <= ci1.hi and ci0.lo <= ci0.hi
    rep = inference.infer_bounds(data, b=300, seed=4)
    assert ci1.lo <= rep.att1.hi + 1e-9 and ci1.hi >= rep.att1.lo - 1e-9


def test_att_ci_zero_sector():
    n = 200
    y = (np.arange(n) % 2).astype(float)
    d = np.zeros(n, dtype=int)
    z = np.array(["a", "b"] * (n // 2))
    data = OutcomeSample.from_arrays(y, d, z=z)
    with pytest.raises(ZeroSectorProbability):
        th = inference.estimate_theta(data)
        inference.att_ci(th, inference.critical_value(th, b=150, seed=0))


def test_att_plugin_and_att_ci_leave_out_the_att_by_one_rule():
    # Sector 1 at z1 weighs 1e-14 per row: P(D=1|z1) <= 1e-12 though it has rows.
    data = binary_sample(5, n=2000)
    tiny = (data.z == "z1") & (data.d == 1)
    for w, defined in ((np.ones(data.n), True), (np.where(tiny, 1e-14, 1.0), False)):
        weighted = OutcomeSample.from_arrays(data.y, data.d, w, z=data.z)
        th = inference.estimate_theta(weighted)
        cv = inference.critical_value(th, b=150, seed=0)
        rep = inference.assemble_cis(th, cv.k, b=cv.b, seed=cv.seed)
        assert (rep.att1 is not None, rep.att0 is not None) == (defined, defined)
        if defined:
            inference.att_ci(th, cv)
        else:
            with pytest.raises(ZeroSectorProbability, match="D=1"):
                inference.att_ci(th, cv)


def iqr_sample(seed, n=600, p_d1=0.9):
    rng = oracle.make_rng(seed)
    y1 = rng.normal(1.0, 1.0, n)
    y0 = rng.normal(0.0, 1.0, n)
    d = (rng.random(n) < p_d1).astype(int)
    y = np.where(d == 1, y1, y0)
    return OutcomeSample.from_arrays(y, d)


def test_iqr_ci_validation_and_unbounded():
    data = iqr_sample(10)
    with pytest.raises(QuantileOutOfRange):
        inference.iqr_ci(data, 1, 0.8, 0.2)
    # critical_value's minimum draw count: one draw has no spread to studentize
    for b in (1, 99):
        with pytest.raises(InputError, match="100"):
            inference.iqr_ci(data, 1, 0.25, 0.75, b=b)
    # q1 below the counterfactual share: unbounded upper endpoint
    wide = iqr_sample(11, p_d1=0.4)
    ci = inference.iqr_ci(wide, 1, 0.25, 0.75, b=150, seed=0)
    assert ci.hi == np.inf
    assert ci.lo >= 0.0


def test_iqr_ci_rejects_a_first_quantile_at_or_below_1e_12():
    # Such a level would be read as 0, whose inverse is -inf.
    data = iqr_sample(10)
    for q1 in (1e-13, 1e-12):
        with pytest.raises(QuantileOutOfRange, match="1e-12 < q1"):
            inference.iqr_ci(data, 1, q1, 0.5)
    assert np.isfinite(inference.iqr_ci(data, 1, 2e-12, 0.5, b=150).lo)


def test_iqr_ci_brackets_point_bounds():
    from roybounds.functional import build_subcdf, iqr_bounds

    data = iqr_sample(12, n=1200)
    c = build_subcdf(data)
    point = iqr_bounds(c, 1, 0.7, 0.9)
    ci = inference.iqr_ci(data, 1, 0.7, 0.9, b=300, seed=1)
    assert ci.lo <= point.lo + 1e-9
    assert ci.hi >= point.hi - 1e-9


def test_iqr_ci_deterministic_and_thread_invariant(monkeypatch):
    data = iqr_sample(13, n=400)
    monkeypatch.setenv("ROY_THREADS", "1")
    a = inference.iqr_ci(data, 1, 0.6, 0.9, b=256, seed=7)
    monkeypatch.setenv("ROY_THREADS", "6")
    b = inference.iqr_ci(data, 1, 0.6, 0.9, b=256, seed=7)
    assert (a.lo, a.hi) == (b.lo, b.hi)


def test_iqr_ci_covers_truth_quick():
    """Light coverage smoke test; the acceptance suite runs the full one."""
    from scipy.stats import norm

    truth = (norm.ppf(0.9) - norm.ppf(0.7)) * 1.0  # sector-1 outcomes are N(1, 1)
    hits = 0
    reps = 20
    for r in range(reps):
        data = iqr_sample(100 + r, n=800, p_d1=0.9)
        ci = inference.iqr_ci(data, 1, 0.7, 0.9, b=200, seed=r)
        if ci.lo - 1e-9 <= truth <= ci.hi + 1e-9:
            hits += 1
    assert hits >= reps - 2


def dense_row_inverse(vals, targets, xs, hi_sentinel=np.inf):
    """The dense-comparison inverse `_row_inverse` replaced, kept as its reference.

    Counts the entries below the target across each whole row; it takes a
    scalar or one target per row, so a grid of targets costs one call per
    column.
    """
    t = np.broadcast_to(np.asarray(targets, dtype=float)[..., None], vals.shape)
    idx = (vals < t[..., 0][..., None] - 1e-12).sum(axis=1)
    out = np.where(idx < len(xs), xs[np.minimum(idx, len(xs) - 1)], hi_sentinel)
    out = np.where(np.asarray(targets, dtype=float) <= 1e-12, -np.inf, out)
    return out


def dense_row_inverse_grid(vals, targets, xs):
    """The reference on (rows, cols) targets: one dense call per column."""
    return np.stack([dense_row_inverse(vals, targets[:, j], xs) for j in range(targets.shape[1])], axis=1)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_row_inverse_equals_dense_reference_bitwise():
    hit_lo = hit_hi = 0
    for seed in range(40):
        rng = oracle.make_rng(seed, 11)
        rows, m = int(rng.integers(1, 30)), int(rng.integers(1, 60))
        n = int(rng.integers(1, 400))
        probs = rng.dirichlet(np.ones(m)) * (rng.random(m) < 0.7)  # zero cells give flat runs
        probs = probs / probs.sum() if probs.sum() > 0 else np.full(m, 1.0 / m)
        vals = np.cumsum(rng.multinomial(n, probs, size=rows) / n, axis=1)
        xs = np.sort(rng.normal(size=m))
        cols = int(rng.integers(1, 20))
        pick = vals[np.arange(rows)[:, None], rng.integers(0, m, size=(rows, cols))]
        grids = [
            rng.uniform(-0.1, 1.1, size=(rows, cols)),
            pick,                                          # exactly at a row value
            pick + 1e-12,
            pick - 1e-12,
            np.where(rng.random((rows, cols)) < 0.5, 1e-12, -rng.random((rows, cols))),  # -inf
            vals[:, -1:] + rng.uniform(1e-9, 0.5, size=(rows, cols)),                       # +inf
        ]
        for tt in grids:
            got = inference._row_inverse(vals, tt, xs)
            assert _same_bits(got, dense_row_inverse_grid(vals, tt, xs)), seed
            for j in range(cols):  # one target per row
                col = np.ascontiguousarray(tt[:, j])
                assert _same_bits(inference._row_inverse(vals, col, xs), dense_row_inverse(vals, col, xs))
            hit_lo += int(np.sum(got == -np.inf))
            hit_hi += int(np.sum(got == np.inf))
        for scalar in (0.0, 1e-12, 0.3, float(vals[0, 0]), float(vals[0, -1]) + 1e-12, 2.0):
            assert _same_bits(inference._row_inverse(vals, scalar, xs), dense_row_inverse(vals, scalar, xs))
        # The point estimate: one row searched at a (1, G) grid of targets.
        one = vals[:1]
        tt = np.concatenate([grids[0][:1], pick[:1], pick[:1] + 1e-12, pick[:1] - 1e-12], axis=1)
        assert _same_bits(inference._row_inverse(one, tt, xs), dense_row_inverse_grid(one, tt, xs))
    assert hit_lo > 0 and hit_hi > 0


def test_iqr_ci_row_inverse_calls_independent_of_grid(monkeypatch):
    data = iqr_sample(13, n=400)
    original = functional._row_inverse
    calls, widest = [], []

    def counting(vals, targets, xs):
        calls[-1] += 1
        widest[-1] = max(widest[-1], np.shape(targets)[-1] if np.ndim(targets) == 2 else 1)
        return original(vals, targets, xs)

    # The one definition is in functional; inference calls it under its own name too.
    monkeypatch.setattr(functional, "_row_inverse", counting)
    monkeypatch.setattr(inference, "_row_inverse", counting)
    for cap in (4, 512):
        calls.append(0)
        widest.append(0)
        monkeypatch.setattr(inference, "_GRID_CAP", cap)
        inference.iqr_ci(data, 1, 0.6, 0.9, b=150, seed=7)
    assert calls[0] == calls[1]
    assert widest[0] < widest[1]  # the grids differ in size


def dense_iqr_ci(data, d, q1, q2, level=0.95, b=999, seed=0, lln_scale=1.0, grid_cap=512):
    """The whole-matrix `iqr_ci` the chunk-streamed one replaced, kept as its reference.

    It holds all (b, 2m) counts of the full-category draw, then the two
    (b, m) sub-cdfs, at once.
    """
    n = data.n
    ys = data.y
    order = np.argsort(ys, kind="stable")
    xs, inv = np.unique(ys[order], return_inverse=True)
    m = len(xs)
    w_d = np.bincount(inv, weights=data.w[order] * (data.d[order] == d), minlength=m)
    w_o = np.bincount(inv, weights=data.w[order] * (data.d[order] != d), minlength=m)
    point_probs = np.concatenate([w_d, w_o])
    counts = concatenate_bootstrap_counts(point_probs / point_probs.sum(), n, b, seed, inference._STREAM_IQR)
    c_d = np.cumsum(counts[:, :m] / n, axis=1)
    c_o = np.cumsum(counts[:, m:] / n, axis=1)
    f_star = c_d + c_o
    cd0 = np.cumsum(w_d)[None, :]
    co0 = np.cumsum(w_o)[None, :]
    f0 = cd0 + co0
    row_inverse = inference._row_inverse

    t_star = row_inverse(c_d, q2 - c_o[:, -1], xs) - row_inverse(f_star, q1, xs)
    t_star = np.where(np.isnan(t_star), -np.inf, t_star)
    alpha = 1.0 - level
    finite = np.isfinite(t_star)
    if finite.any():
        t_sorted = np.sort(np.where(finite, t_star, np.min(t_star[finite])))
        lower = max(0.0, float(np.quantile(t_sorted, alpha / 2, method="lower")))
    else:
        lower = 0.0

    inv_bar_q1 = float(row_inverse(cd0, q1 - float(co0[0, -1]), xs)[0])
    inv_f_q1 = float(row_inverse(f0, q1, xs)[0])
    if inv_bar_q1 == -np.inf:
        return IntervalBound(lower, np.inf, sharp=False, label=f"IQR_{d} CI")
    spread = float(np.std(ys)) if n > 1 else 1.0
    lln = lln_scale * np.sqrt(np.log(np.log(max(n, 3))) / n) * spread
    g_lo, g_hi = inv_bar_q1 - lln, inv_f_q1 + lln
    grid = np.concatenate([[g_lo], xs[(xs >= g_lo) & (xs <= g_hi)], [g_hi]])
    if len(grid) > grid_cap:
        grid = np.quantile(grid, np.linspace(0, 1, grid_cap), method="nearest")
    grid = np.unique(grid)

    def objective(cd, f, xv):
        pos = np.searchsorted(xs, xv, side="right") - 1
        fd_at = np.where(pos[None, :] >= 0, cd[:, np.maximum(pos, 0)], 0.0)
        left = row_inverse(f, q2, xs)[:, None] - xv[None, :]
        right = row_inverse(cd, q2 - q1 + fd_at, xs) - xv[None, :]
        return np.minimum(left, right)

    obj0 = objective(cd0, f0, grid)[0]
    obj_star = objective(c_d, f_star, grid)
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


def test_iqr_ci_equals_dense_reference(monkeypatch):
    bounded = unbounded = 0
    for seed in range(40):
        rng = oracle.make_rng(seed, 23)
        n = int(rng.integers(60, 400))
        y = rng.normal(size=n)
        y = np.round(y, 1) if seed % 3 == 0 else y  # ties within and between sectors
        dd = (rng.random(n) < rng.uniform(0.3, 0.9)).astype(int)
        w = rng.uniform(0.2, 4.0, n) if seed % 2 else None
        data = OutcomeSample.from_arrays(y, dd, w)
        q1, q2 = sorted(rng.uniform(0.02, 0.98, 2))
        cap = 4 if seed % 5 < 2 else 512
        monkeypatch.setattr(inference, "_GRID_CAP", cap)
        kw = dict(d=seed // 2 % 2, q1=q1, q2=q2, b=int(rng.choice([100, 200, 300])), seed=seed)
        ref = repr(dense_iqr_ci(data, **kw, grid_cap=cap))
        for threads in ("1", "2"):
            monkeypatch.setenv("ROY_THREADS", threads)
            assert repr(inference.iqr_ci(data, **kw)) == ref, (seed, threads)
        if "inf" in ref:
            unbounded += 1
        else:
            bounded += 1
    assert bounded >= 5 and unbounded >= 5


def test_iqr_ci_compact_batches_equal_dense_reference(monkeypatch):
    # Each batch reaches the reducer over all 2m categories, the undrawn ones 0.
    rng = oracle.make_rng(41)
    y = rng.normal(size=1200)
    assert inference._DRAW_BYTES // (8 * (len(y) + 1)) < inference._CHUNK // 2  # several batches a chunk
    top_in_d = np.where(y == y.max(), 1, (rng.random(len(y)) < 0.8).astype(int))
    tied = np.round(rng.normal(size=600), 1)
    cases = [
        (OutcomeSample.from_arrays(y[:300], np.ones(300, dtype=int)), 0, 0.25, 0.75),  # no rows in sector d
        (OutcomeSample.from_arrays(y[:300], np.ones(300, dtype=int)), 1, 0.25, 0.75),  # none in the other
        (OutcomeSample.from_arrays(y[:300], np.zeros(300, dtype=int)), 0, 0.6, 0.9),
        (OutcomeSample.from_arrays(tied, (rng.random(600) < 0.7).astype(int)), 1, 0.4, 0.8),  # ties across sectors
        (OutcomeSample.from_arrays(tied, (rng.random(600) < 0.7).astype(int), rng.uniform(0.2, 4.0, 600)), 0, 0.1, 0.6),
        (OutcomeSample.from_arrays(y, top_in_d), 1, 0.25, 0.75),  # the last category has no mass
        (OutcomeSample.from_arrays(y, top_in_d, rng.uniform(0.2, 4.0, len(y))), 1, 0.3, 0.9),
        (OutcomeSample.from_arrays(y, 1 - top_in_d), 0, 0.05, 0.6),
    ]
    bounded = 0
    for data, d, q1, q2 in cases:
        for cap in (4, 512):
            monkeypatch.setattr(inference, "_GRID_CAP", cap)
            kw = dict(d=d, q1=q1, q2=q2, b=150, seed=3)
            ref = repr(dense_iqr_ci(data, **kw, grid_cap=cap))
            for threads in ("1", "2"):
                monkeypatch.setenv("ROY_THREADS", threads)
                assert repr(inference.iqr_ci(data, **kw)) == ref, (d, q1, q2, cap, threads)
            bounded += "inf" not in ref
    assert bounded >= 6
    monkeypatch.setenv("ROY_THREADS", "1")
    empty_d = inference.iqr_ci(cases[0][0], 0, 0.25, 0.75, b=150)
    assert (empty_d.lo, empty_d.hi) == (0.0, np.inf)


def test_iqr_ci_memory_independent_of_draw_count(monkeypatch):
    # Only the (b, G) float64 objective matrix, with a one-byte finiteness
    # mask per entry, may grow with b; the batches are reduced as they are
    # drawn, where a whole (b, 2m) draw would add about 59 MB from 256 to 999.
    import tracemalloc

    monkeypatch.setenv("ROY_THREADS", "1")
    objective, widths = inference._iqr_objective, set()

    def recording(cd, f, xs, yv, q1, q2):
        widths.add(len(yv))
        return objective(cd, f, xs, yv, q1, q2)

    monkeypatch.setattr(inference, "_iqr_objective", recording)
    data = iqr_sample(31, n=5000)
    peaks = []
    for b in (256, 999):
        tracemalloc.start()
        try:
            inference.iqr_ci(data, 1, 0.25, 0.75, b=b, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    (g,) = widths
    assert peaks[1] - peaks[0] <= 9 * (999 - 256) * g, (peaks, g)


def test_iqr_ci_memory_independent_of_sample_size(monkeypatch):
    # Each batch draws at most _DRAW_BYTES of counts; a 128-row chunk over
    # all 2m categories would make the peak grow with m (about 4x from 5000
    # to 20000 distinct outcomes).
    import tracemalloc

    monkeypatch.setenv("ROY_THREADS", "1")
    monkeypatch.setattr(inference, "_GRID_CAP", 4)
    peaks = []
    for n in (5000, 20000):
        data = iqr_sample(31, n=n)
        tracemalloc.start()
        try:
            inference.iqr_ci(data, 1, 0.25, 0.75, b=999, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0], peaks


def test_unset_roy_threads_uses_every_allowed_cpu(monkeypatch):
    monkeypatch.delenv("ROY_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert inference._n_threads() == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert inference._n_threads() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert inference._n_threads() == 1


def test_unset_roy_threads_gives_the_one_thread_results(monkeypatch):
    # b=300 is three chunks: three CPUs run the IQR draw, two batch budgets,
    # on two workers, and the binary draws, under one budget, on one.
    theta = inference.estimate_theta(binary_sample(4))
    data = iqr_sample(13, n=400)

    def reports():
        cv = inference.critical_value(theta, b=300, seed=9)
        return [repr(cv), repr(inference.att_ci(theta, cv)), repr(inference.iqr_ci(data, 1, 0.6, 0.9, b=300, seed=7))]

    monkeypatch.setenv("ROY_THREADS", "1")
    one = reports()
    monkeypatch.delenv("ROY_THREADS")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert inference._n_threads() == 3
    assert reports() == one


def test_iqr_ci_memory_independent_of_thread_count(monkeypatch):
    # All workers share one batch budget: a second worker splits it, where
    # a batch of _DRAW_BYTES per worker would add a batch and its scratch.
    import tracemalloc

    data = iqr_sample(31, n=5000)
    peaks = []
    for threads in ("1", "2"):
        monkeypatch.setenv("ROY_THREADS", threads)
        tracemalloc.start()
        try:
            inference.iqr_ci(data, 1, 0.25, 0.75, b=999, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0], peaks


class _ReducerFailed(Exception):
    pass


@pytest.mark.parametrize("bad_row", [200, 0])  # in chunk 1, the helper's; in chunk 0, the caller's
def test_bootstrap_map_raises_once_every_worker_stopped(monkeypatch, bad_row):
    # Two workers over b=300: the caller draws chunks 0 and 2, one helper chunk 1.
    # 300 categories fill two batch budgets, so the draw gets both workers.
    probs = np.full(300, 1 / 300)
    assert 8 * len(probs) * 300 > inference._DRAW_BYTES
    monkeypatch.setenv("ROY_THREADS", "2")
    done = []

    def fn(row, counts):
        if row <= bad_row < row + len(counts):
            raise _ReducerFailed(bad_row)
        done.extend(range(row, row + len(counts)))

    before = threading.active_count()
    with pytest.raises(_ReducerFailed):
        inference._bootstrap_map(fn, probs, 50, 300, 0, 9)
    assert threading.active_count() == before
    # The other worker drew all its rows before the error was raised.
    other = range(128, 256) if bad_row < 128 else [*range(128), *range(256, 300)]
    assert set(other) <= set(done)


def test_bootstrap_map_draws_one_batch_in_the_calling_thread(monkeypatch):
    # Workers are capped at the batch budgets the whole draw fills: b=300 of
    # 218 categories fits one, and runs on the calling thread whatever
    # ROY_THREADS allows; 219 categories fill two, and get one helper.
    assert 8 * 218 * 300 <= inference._DRAW_BYTES < 8 * 219 * 300
    monkeypatch.setenv("ROY_THREADS", "8")

    def threads(m):
        seen = set()
        inference._bootstrap_map(lambda row, counts: seen.add(threading.get_ident()), np.full(m, 1 / m), 50, 300, 0, 9)
        return seen

    before = threading.active_count()
    assert threads(218) == {threading.get_ident()}
    assert len(threads(219)) == 2
    assert threading.active_count() == before


def test_bootstrap_counts_with_more_workers_than_cores(monkeypatch):
    # Eight workers over eight chunks, switching threads every microsecond:
    # a batch written to another worker's rows would change the bits.
    probs = np.random.default_rng(1).dirichlet(np.ones(3000))
    ref = concatenate_bootstrap_counts(probs, 500, 999, 4, 3)
    monkeypatch.setenv("ROY_THREADS", "8")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _same_bits(inference._bootstrap_counts(probs, 500, 999, 4, 3), ref)
    finally:
        sys.setswitchinterval(interval)
