"""End-to-end acceptance suite.

Each test checks one release criterion and prints a single PASS line;
failures carry enough context to localize the offending design.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.stats import norm

from roybounds import binary, functional, generalized, inference, oracle
from roybounds.functional import (
    Interval,
    OutcomeSample,
    build_subcdf,
    interval_lower_bound,
    iqr_bounds,
    peterson_bounds,
    proposition1_check,
)
from roybounds.probability import InstrumentTable, validate_cells

from geometry import contains_points, envelope_polytope, roy_polytope, simplex_grid
from witnesses import StepFn, coupling_witness_binary, coupling_witness_continuous, random_type_table


def random_cells(rng):
    return validate_cells(*rng.dirichlet(np.ones(4)))


def _grid_agreement(variant, closed_fn, n_designs, seed):
    grid = simplex_grid(0.01)
    disagreements = 0
    for s in range(n_designs):
        q = random_cells(oracle.make_rng(seed + s))
        closed = contains_points(closed_fn(q), grid)
        enum = contains_points(oracle.artstein_set(q, variant), grid)
        disagreements += int((closed != enum).sum())
    return disagreements, len(grid)


def test_criterion_01_binary_closed_form_equals_enumeration():
    t0 = time.time()
    bad, npts = _grid_agreement(
        oracle.ROY, lambda q: roy_polytope(binary.sharp_bounds(q)), 100, 1000
    )
    elapsed = time.time() - t0
    assert bad == 0, f"{bad} membership disagreements"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(
        f"criterion 1: PASS - binary closed form matches 14-inequality enumeration "
        f"on 100 cells x {npts} grid points in {elapsed:.1f}s"
    )


def test_criterion_02_generalized_closed_form_equals_enumeration():
    t0 = time.time()
    bad, npts = _grid_agreement(
        oracle.GENERALIZED,
        lambda q: envelope_polytope(generalized.envelopes(InstrumentTable.from_cells({"z": q}))),
        100,
        2000,
    )
    elapsed = time.time() - t0
    assert bad == 0, f"{bad} membership disagreements"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(
        f"criterion 2: PASS - generalized closed form matches enumeration "
        f"on 100 tables x {npts} grid points in {elapsed:.1f}s"
    )


def test_criterion_03_marginal_formulas_equal_lp_optima():
    t0 = time.time()
    checked = 0
    for k, n_designs, base in ((2, 50, 3000), (3, 20, 4000), (4, 20, 5000)):
        for s in range(n_designs):
            t, _ = random_type_table(k, oracle.make_rng(base + s))
            e = generalized.envelopes(t)
            p = generalized.point_bounds(e)
            ey0, ey1 = p["ey0"], p["ey1"]
            for obj, target in (((0, 0, 1, 1), ey0), ((0, 1, 0, 1), ey1)):
                lp = oracle.response_type_lp(t, obj)
                assert abs(lp.lo - target.lo) <= 1e-8, (k, s, obj, lp.lo, target.lo)
                assert abs(lp.hi - target.hi) <= 1e-8, (k, s, obj, lp.hi, target.hi)
                checked += 2
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(
        f"criterion 3: PASS - closed-form marginal bounds equal LP optima "
        f"({checked} endpoints, K=2..4) within 1e-8 in {elapsed:.1f}s"
    )


def _check_roy_draws(y0, y1, y, d):
    chosen = np.where(d == 1, y1, y0)
    assert np.array_equal(y, chosen), "observed outcome differs from chosen sector"
    assert np.all(d[y1 > y0] == 1), "strict gain not followed"
    assert np.all(d[y0 > y1] == 0), "strict loss not avoided"


def test_criterion_04_coupling_witnesses_attain_endpoints():
    n = 10**6
    for s in range(10):
        rng = oracle.make_rng(6000 + s)
        q = random_cells(rng)
        g = InstrumentTable.from_cells({("x0", "x1"): q})
        ey0, ey1, _ = binary.marginal_bounds_with_covariates(g, "x0", "x1")
        for a in (ey0.lo, ey0.hi):
            for b in (ey1.lo, ey1.hi):
                w = coupling_witness_binary(g, "x0", "x1", a, b)
                y0, y1, y, d = w.sample(n, oracle.make_rng(6100 + s))
                _check_roy_draws(y0, y1, y, d)
                se_a = 3.0 * np.sqrt(max(a * (1 - a), 1e-12) / n)
                se_b = 3.0 * np.sqrt(max(b * (1 - b), 1e-12) / n)
                assert abs(y0.mean() - a) <= se_a + 1e-4, (s, a, y0.mean())
                assert abs(y1.mean() - b) <= se_b + 1e-4, (s, b, y1.mean())
        # continuous marginals pinned to each pointwise envelope edge
        ys = np.round(rng.normal(0, 1, 30), 2)
        ds = (rng.random(30) < 0.6).astype(int)
        if ds.sum() in (0, 30):
            ds[0] = 1 - ds[0]
        c = build_subcdf(OutcomeSample.from_arrays(ys, ds))
        jumps = c.jumps
        lowers = (
            StepFn(jumps, np.asarray(c.cdf(jumps)), base=0.0),
            StepFn(jumps, np.asarray(c.cdf(jumps)), base=0.0),
        )
        uppers = (
            StepFn(jumps, np.asarray(c.bar(0, jumps)), base=c.p_d1),
            StepFn(jumps, np.asarray(c.bar(1, jumps)), base=c.p_d0),
        )
        for f0, f1 in (lowers, uppers):
            w = coupling_witness_continuous(c, f0, f1)
            y0, y1, y, d = w.sample(n, oracle.make_rng(6200 + s))
            _check_roy_draws(y0, y1, y, d)
            for yy in jumps[::9]:
                for f, ydraw in ((f0, y0), (f1, y1)):
                    target = float(f(yy))
                    realized = ((ydraw <= yy) | np.isneginf(ydraw)).mean()
                    se = 3.0 * np.sqrt(max(target * (1 - target), 1e-12) / n)
                    assert abs(realized - target) <= se + 1e-4, (s, yy, target, realized)
    print(
        "criterion 4: PASS - coupling witnesses hit all mean corners and both "
        "envelope edges within 3 MC standard errors at n=1e6; every draw obeys "
        "Roy selection exactly"
    )


def _observed_from_discrete(support, probs, pi=0.5):
    """Exact observed (y, d, weight) law under Roy selection with tie-break pi."""
    recs = []
    for (y0, y1), p in zip(support, probs):
        if p <= 0:
            continue
        if y1 > y0:
            recs.append((y1, 1, p))
        elif y0 > y1:
            recs.append((y0, 0, p))
        else:
            if pi < 1:
                recs.append((y0, 0, p * (1 - pi)))
            if pi > 0:
                recs.append((y1, 1, p * pi))
    return recs


def _true_cdf(support, probs, d, y):
    pts = np.asarray(support, dtype=float)
    p = np.asarray(probs, dtype=float)
    return float(p[pts[:, d] <= y].sum() / p.sum())


def _random_discrete_joint(rng):
    m = rng.integers(4, 9)
    pts = np.round(rng.normal(0, 1.5, (m, 2)), 1)
    probs = rng.dirichlet(np.ones(m))
    return [tuple(p) for p in pts], probs


def _discretized_copula_joint(rng):
    j = oracle.GaussianCopulaJoint(
        mu0=float(rng.uniform(-0.5, 0.5)),
        mu1=float(rng.uniform(-0.5, 1.0)),
        sd0=float(rng.uniform(0.5, 1.5)),
        sd1=float(rng.uniform(0.5, 1.5)),
        rho=float(rng.uniform(-0.8, 0.8)),
    )
    y0, y1 = j.draw(4000, rng)
    pts = np.round(np.column_stack([y0, y1]) * 2) / 2  # 0.5-step grid
    uniq, inv = np.unique(pts, axis=0, return_inverse=True)
    probs = np.bincount(inv).astype(float) / len(pts)
    return [tuple(p) for p in uniq], probs


def test_criterion_05_functional_bounds_valid_on_population_designs():
    tol = 1e-9
    for s in range(100):
        rng = oracle.make_rng(7000 + s)
        if s % 2:
            support, probs = _random_discrete_joint(rng)
        else:
            support, probs = _discretized_copula_joint(rng)
        pi = float(rng.random())
        recs = _observed_from_discrete(support, probs, pi)
        c = build_subcdf(OutcomeSample.from_arrays(*zip(*recs)))
        vals = np.unique(np.asarray(support, dtype=float))
        pick = np.linspace(0, len(vals) - 1, min(49, len(vals))).astype(int)
        grid = np.concatenate([[-np.inf], vals[pick]])  # 50 interval endpoints
        for d in (0, 1):
            for y in vals:
                f_true = _true_cdf(support, probs, d, y)
                env = peterson_bounds(c, d, float(y))
                assert env.lo - tol <= f_true <= env.hi + tol, (s, d, y)
            for i, y1 in enumerate(grid):
                for y2 in grid[i + 1 :]:
                    lb = interval_lower_bound(c, d, float(y1), float(y2))
                    p_true = _true_cdf(support, probs, d, y2) - (
                        0.0 if y1 == -np.inf else _true_cdf(support, probs, d, y1)
                    )
                    assert lb <= p_true + tol, (s, d, y1, y2, lb, p_true)
    print(
        "criterion 5: PASS - Peterson envelopes and all interval lower bounds "
        "hold for the true marginals on 100 population designs (50x50 interval "
        "grid, zero violations)"
    )


def _completion_search_upper(c, d, q1, q2):
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
            f_prev = max(c.cdf(y_prev), q1 + c.sub(d, y_prev) - c.sub(d, y1))
            if f_prev < q2 - 1e-12:
                best = max(best, y2 - y1)
    return best


def test_criterion_06_iqr_closed_form_matches_completion_search():
    for s in range(20):
        rng = oracle.make_rng(8000 + s)
        y = np.round(rng.normal(0, 1, 20), 2)
        d = np.ones(20, dtype=int)
        d[rng.choice(20, size=int(rng.integers(1, 4)), replace=False)] = 0
        c = build_subcdf(OutcomeSample.from_arrays(y, d))
        q1, q2 = sorted(rng.uniform(0.3, 0.95, 2))
        if q2 - q1 < 0.05:
            q2 = min(0.97, q1 + 0.05)
        b = iqr_bounds(c, 1, q1, q2)
        assert b.lo == max(0.0, c.inv_bar(1, q2) - c.inv_cdf(q1)), (s, q1, q2)
        oracle_hi = _completion_search_upper(c, 1, q1, q2)
        one_step = float(np.diff(c.jumps).max()) if len(c.jumps) > 1 else 0.0
        assert abs(b.hi - oracle_hi) <= one_step + 1e-9, (s, q1, q2, b.hi, oracle_hi)
    print(
        "criterion 6: PASS - interquantile-range closed form matches the "
        "brute-force completion search on 20 size-20 samples (lower exact, "
        "upper within one jump step)"
    )


def test_criterion_07_joint_rectangle_bound_improves_on_envelope_sum():
    strict, equal = 0, 0
    for s in range(20):
        rng = oracle.make_rng(8500 + s)
        y = np.round(rng.normal(0, 1, 40), 2)
        d = (rng.random(40) < 0.5).astype(int)
        if d.sum() in (0, 40):
            d[0] = 1 - d[0]
        c = build_subcdf(OutcomeSample.from_arrays(y, d))
        s0 = np.unique(y[d == 0])
        i = len(s0) // 2
        y01 = float((s0[i - 1] + s0[i]) / 2)  # gap (y01, y11] holds sector-0 mass
        y11 = float(s0[i] + 0.005)
        y02 = float(max(y01, y11) + rng.uniform(0.5, 2.0))
        y12 = float(y11 + rng.uniform(0.5, 2.0))
        a = functional.RectUnion.of(
            [functional.Rect(Interval(y01, y02), Interval(y11, y12))]
        )
        improved = functional.joint_set_bounds(c, a).hi
        envelope_sum = c.mass(Interval(y01, y02), 0) + c.mass(Interval(y11, y12), 1)
        assert improved < envelope_sum - 1e-12, (s, improved, envelope_sum)
        strict += 1
        a_eq = functional.RectUnion.of(
            [functional.Rect(Interval(y11, y02), Interval(y11, y12))]
        )
        eq_improved = functional.joint_set_bounds(c, a_eq).hi
        eq_sum = c.mass(Interval(y11, y02), 0) + c.mass(Interval(y11, y12), 1)
        assert eq_improved == pytest.approx(eq_sum, abs=1e-12)
        equal += 1
    print(
        f"criterion 7: PASS - corner-trimmed joint upper bound strictly below the "
        f"envelope sum on {strict} offset rectangles, equal on {equal} aligned ones"
    )


def test_criterion_08_observed_iqr_vs_potential_iqr_dominance():
    # Constructed design: counterfactual mass parked at the bottom, so the
    # observed sector spread exaggerates potential inequality.
    y = np.concatenate([[0.0], [0.5] * 6, 1.0 + np.arange(10)])
    d = np.array([0] + [1] * 16)
    w = np.concatenate([[0.2], [0.05] * 6, [0.05] * 10])
    c = build_subcdf(OutcomeSample.from_arrays(y, d, w))
    rep = proposition1_check(c, 1, 0.25, 0.75)
    assert not rep["counterfactual_dominates_sector"]
    assert rep["observed_exceeds_upper"]
    assert rep["observed_iqr"] > rep["potential_iqr"]["hi"] + 1e-9
    # Stochastically dominant counterfactuals never produce an excess.
    exceed = 0
    for s in range(50):
        rng = oracle.make_rng(8700 + s)
        atoms = np.sort(rng.uniform(0, 5, 8))
        probs = rng.dirichlet(np.ones(8))
        shift = rng.uniform(0.3, 2.0)
        p_d = rng.uniform(0.55, 0.9)
        ys = np.concatenate([atoms, atoms + shift])
        ds = np.array([1] * 8 + [0] * 8)
        ws = np.concatenate([probs * p_d, probs * (1 - p_d)])
        cc = build_subcdf(OutcomeSample.from_arrays(ys, ds, ws))
        q1, q2 = sorted(rng.uniform(0.1, 0.9, 2))
        if q2 - q1 < 0.1:
            q2 = min(0.95, q1 + 0.1)
        r = proposition1_check(cc, 1, q1, q2)
        assert r["counterfactual_dominates_sector"], s
        exceed += int(r["observed_exceeds_upper"])
    assert exceed == 0
    print(
        "criterion 8: PASS - the non-dominant construction pushes the observed "
        "interquantile range above the identified upper bound; 50 dominant "
        "designs never do"
    )


def test_criterion_09_inference_coverage():
    t0 = time.time()
    reps = 200
    n = 2000
    b = 200
    truth_table, _ = random_type_table(6, oracle.make_rng(777))
    g_true = generalized.compute_all(truth_table)
    att1_true, _ = generalized.att_bounds(truth_table)
    cum = truth_table.cells.cumsum(axis=1)
    iqr_truth = norm.ppf(0.75) - norm.ppf(0.25)  # sector-1 marginal is N(1.2, 1)
    joint = oracle.GaussianCopulaJoint(mu1=1.2, rho=0.5)
    cov = np.zeros(4)
    for r in range(reps):
        rng = oracle.make_rng(9000 + r)
        zi = rng.integers(0, 6, size=n)
        u = rng.random(n)
        cell = (cum[zi] > u[:, None]).argmax(axis=1)
        data = OutcomeSample.from_arrays(
            (cell >= 2).astype(float),
            cell % 2,
            z=np.array([f"z{i}" for i in zi]),
        )
        rep = inference.infer_bounds(data, level=0.95, b=b, seed=r)
        cov[0] += int(
            rep.ey0.lo <= g_true.ey0.lo + 1e-9 and rep.ey0.hi >= g_true.ey0.hi - 1e-9
        )
        cov[1] += int(
            rep.ey1.lo <= g_true.ey1.lo + 1e-9 and rep.ey1.hi >= g_true.ey1.hi - 1e-9
        )
        att = rep.att1_bootstrap
        cov[2] += int(
            att.lo <= att1_true.lo + 1e-9 and att.hi >= att1_true.hi - 1e-9
        )
        sample, _ = oracle.simulate(oracle.SimDesign(joint=joint, n=n, seed=5000 + r))
        ci = inference.iqr_ci(sample, 1, 0.25, 0.75, level=0.95, b=b, seed=r)
        cov[3] += int(ci.lo - 1e-9 <= iqr_truth <= ci.hi + 1e-9)
    cov /= reps
    elapsed = time.time() - t0
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    for name, rate in zip(("EY0", "EY1", "ATT", "IQR"), cov):
        assert rate >= 0.90, f"{name} coverage {rate:.3f} < 0.90"
    print(
        f"criterion 9: PASS - 95% intervals cover the identified quantities in "
        f"{reps} replications (EY0 {cov[0]:.2f}, EY1 {cov[1]:.2f}, ATT {cov[2]:.2f}, "
        f"IQR {cov[3]:.2f}) in {elapsed:.0f}s"
    )


def _run_cli(args, threads, cwd, cli_env):
    env = dict(cli_env, ROY_THREADS=str(threads))
    res = subprocess.run(
        [sys.executable, "-m", "roybounds.cli", *args],
        capture_output=True,
        env=env,
        cwd=cwd,
    )
    assert res.returncode == 0, res.stderr.decode()
    return res.stdout


def test_criterion_10_reports_byte_identical(tmp_path, cli_env):
    design = tmp_path / "design.json"
    design.write_text(
        json.dumps({"joint": {"type": "gaussian", "mu1": 0.8, "rho": 0.4}})
    )
    sample_csv = tmp_path / "sample.csv"
    sim_args = [
        "simulate", "--design", str(design), "--n", "1500", "--seed", "11",
        "--out", str(sample_csv),
    ]
    blobs = set()
    for threads in (1, 8):
        for _ in range(2):
            _run_cli(sim_args, threads, tmp_path, cli_env)
            blobs.add(sample_csv.read_bytes())
    assert len(blobs) == 1, "simulate output varied across runs or thread counts"
    rng = oracle.make_rng(55)

    def binary_csv(name, labels, n):
        zvals = rng.choice(labels, size=n)
        rows = ["y,d,z"]
        for i in range(n):
            y0 = int(rng.random() < 0.4)
            y1 = int(rng.random() < 0.6)
            d = int(y1 > y0 or (y1 == y0 and rng.random() < 0.5))
            rows.append(f"{y1 if d else y0},{d},{zvals[i]}")
        path = tmp_path / name
        path.write_text("\n".join(rows) + "\n")
        return path

    data_csv = binary_csv("binary.csv", ["a", "b", "c"], 800)
    # 64 instrument points: 8 bytes x 256 cells x 300 draws fill two draw
    # batches, so ROY_THREADS=8 runs a helper thread beside the calling one
    # (K=3 fits one batch and runs on the calling thread only).
    assert 8 * 4 * 64 * 300 > inference._DRAW_BYTES
    wide_csv = binary_csv("binary_k64.csv", [f"z{j}" for j in range(64)], 6400)
    reports = {
        name: set()
        for name in ("infer", "infer_k64", "iqr")
    }
    infer_args = [
        "infer", "--data", str(data_csv), "--instrument", "z",
        "--bootstrap", "300", "--seed", "7",
    ]
    infer_k64_args = [
        "infer", "--data", str(wide_csv), "--instrument", "z",
        "--bootstrap", "300", "--seed", "7",
    ]
    iqr_args = [
        "iqr", "--data", str(sample_csv), "--d", "1", "--quantiles", "0.3,0.8",
        "--bootstrap", "300", "--seed", "7",
    ]
    for threads in (1, 8):
        for _ in range(2):
            reports["infer"].add(_run_cli(infer_args, threads, tmp_path, cli_env))
            reports["infer_k64"].add(_run_cli(infer_k64_args, threads, tmp_path, cli_env))
            reports["iqr"].add(_run_cli(iqr_args, threads, tmp_path, cli_env))
    for name, blob in reports.items():
        assert len(blob) == 1, f"{name} report varied across runs or thread counts"
    print(
        "criterion 10: PASS - seeded simulate, infer, and iqr reports are "
        "byte-identical across repeated runs and ROY_THREADS in {1, 8}"
    )
