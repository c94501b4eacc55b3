import json
from dataclasses import astuple, dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roybounds import binary, cli, generalized, inference, oracle, probability
from roybounds.errors import (
    InfeasibleModel,
    NegativeMass,
    NotNormalized,
    OutcomeInstrumentDependence,
    RoyBoundsError,
    ZeroSectorProbability,
)
from roybounds.functional import OutcomeSample
from roybounds.probability import (
    CellProbs,
    InstrumentTable,
    IntervalBound,
    SimplexPolytope,
    validate_cells,
)

from geometry import (
    P00,
    P01,
    P10,
    P11,
    contains_points,
    envelope_polytope,
    polytope_extrema,
    roy_polytope,
    simplex_grid,
    unit,
)
from witnesses import PotentialJoint, random_type_table, roy_cells


TWO_Z = InstrumentTable.from_cells(
    {
        "z1": validate_cells(0.1, 0.3, 0.2, 0.4),
        "z2": validate_cells(0.3, 0.1, 0.1, 0.5),
    }
)


def tables_strategy(k=3):
    return st.lists(
        st.lists(st.floats(0.02, 1.0), min_size=4, max_size=4), min_size=k, max_size=k
    ).map(
        lambda rows: InstrumentTable.from_cells(
            {f"z{i}": validate_cells(*(np.array(r) / sum(r))) for i, r in enumerate(rows)}
        )
    )


def test_envelopes_single_z():
    t = InstrumentTable.from_cells({"z": validate_cells(0.2, 0.1, 0.3, 0.4)})
    e = generalized.envelopes(t)
    assert (e[0], e[1]) == (pytest.approx(0.7), pytest.approx(0.3))
    assert (e[2], e[3]) == (pytest.approx(0.4), pytest.approx(0.6))
    assert tuple(e[4:]) == (0.3, 0.2, 0.4, 0.1)


def test_envelopes_two_z():
    e = generalized.envelopes(TWO_Z)
    assert (e[0], e[1]) == (pytest.approx(0.6), pytest.approx(0.4))
    assert (e[2], e[3]) == (pytest.approx(0.2), pytest.approx(0.5))
    assert tuple(e[4:]) == (0.2, 0.3, 0.5, 0.3)


def test_envelopes_permutation_invariant():
    t_perm = InstrumentTable.from_cells(
        {"z2": TWO_Z.cell("z2"), "z1": TWO_Z.cell("z1")}
    )
    assert np.array_equal(generalized.envelopes(TWO_Z), generalized.envelopes(t_perm))


def test_joint_polytope_uniform_cells():
    q = validate_cells(0.25, 0.25, 0.25, 0.25)
    t1 = InstrumentTable.from_cells({"z": q})
    t3 = InstrumentTable.from_cells({"a": q, "b": q, "c": q})
    grid = simplex_grid(0.02)
    m1 = contains_points(envelope_polytope(generalized.envelopes(t1)), grid)
    m3 = contains_points(envelope_polytope(generalized.envelopes(t3)), grid)
    assert np.array_equal(m1, m3)
    b = polytope_extrema(envelope_polytope(generalized.envelopes(t1)), (0, 0, 0, 1))
    assert (b.lo, b.hi) == (pytest.approx(0.0), pytest.approx(0.5))


def per_z_polytope(t):
    """Reference identified set: the eight linear conditions at every z."""
    rows = []
    for q00, q01, q10, q11 in t.cells:
        rows += [
            (tuple(unit(P11)), q10 + q11),
            (tuple(unit(P00)), q00 + q01),
            (tuple(unit(P10)), q10 + q01),
            (tuple(unit(P01)), q00 + q11),
            (tuple(unit(P10) + unit(P11)), 1.0 - q00),
            (tuple(-(unit(P10) + unit(P11))), -q10),
            (tuple(unit(P01) + unit(P11)), 1.0 - q01),
            (tuple(-(unit(P01) + unit(P11))), -q11),
        ]
    return SimplexPolytope.from_rows(rows)


def cross_check_tables(n=240, seed=31):
    """Seeded tables with K in 1..6: forward-generated (feasible) and
    Dirichlet cells (often infeasible for K > 1)."""
    rng = oracle.make_rng(seed)
    for i in range(n):
        k = 1 + (i // 2) % 6
        if i % 2:
            yield random_type_table(k, rng)[0]
        else:
            cells = {f"z{j}": validate_cells(*rng.dirichlet(np.ones(4))) for j in range(k)}
            yield InstrumentTable.from_cells(cells)


def test_joint_polytope_equals_per_z_reference():
    grid = simplex_grid(0.02)
    feasible = infeasible = 0
    for t in cross_check_tables():
        ref = per_z_polytope(t)
        if not ref.is_feasible():
            with pytest.raises(InfeasibleModel):
                envelope_polytope(generalized.envelopes(t))
            infeasible += 1
            continue
        poly = envelope_polytope(generalized.envelopes(t))
        assert poly.is_feasible()
        assert np.array_equal(contains_points(poly, grid), contains_points(ref, grid))
        assert np.array_equal(poly.vertices(), ref.vertices())
        feasible += 1
    assert feasible >= 150 and infeasible >= 40


def crossing(cells):
    """How far the EY0 or EY1 closed form of the cells (K, 4) crosses; <= 0 when not."""
    r = generalized.bounds_from_envelopes(generalized.envelope_array(cells @ generalized._COMBO.T))
    return max(r["ey0"][0] - r["ey0"][1], r["ey1"][0] - r["ey1"][1])


def model_check_tables(n=2400, seed=83):
    """Seeded (kind, table) pairs with K in 1..6, cycling over four kinds:
    Dirichlet cells, sparse two-decimal cells, cells generated forward from a
    sparse response-type law, and near-boundary cells.  A near-boundary
    table mixes a forward table F with a Dirichlet table G that crosses,
    (1 - s) F + s G, at s = s* (1 + eps): s* is where the mixture starts to
    cross, found by bisection, and eps is +-1e-3 ... 1e-7.  A one-z table
    never crosses, so there G is the table."""
    rng = oracle.make_rng(seed)
    for i in range(n):
        k = 1 + i % 6
        kind = (i // 6) % 4
        if kind == 0:
            cells = rng.dirichlet(np.ones(4), size=k)
        elif kind == 1:
            cells = rng.multinomial(100, rng.dirichlet(np.full(4, 0.3)), size=k) / 100
        else:
            pair, cell = oracle.response_types(k)
            mass = rng.dirichlet(np.full(len(pair), 0.05))
            cells = np.array([np.bincount(c, mass, minlength=4) for c in cell])
        if kind == 3:
            for _ in range(100):
                bad = rng.dirichlet(np.ones(4), size=k)
                if crossing(bad) > 0:
                    lo, hi = 0.0, 1.0
                    for _ in range(60):
                        mid = (lo + hi) / 2
                        lo, hi = (lo, mid) if crossing((1 - mid) * cells + mid * bad) > 0 else (mid, hi)
                    s = min(1.0, hi * (1.0 + rng.choice([-1, 1]) * 10.0 ** -rng.integers(3, 8)))
                    cells = (1 - s) * cells + s * bad
                    break
            else:
                cells = bad
        cells = cells / cells.sum(axis=1, keepdims=True)
        yield kind, InstrumentTable(tuple(f"z{j}" for j in range(k)), cells, np.full(k, 1.0 / k))


def rejects(fn, t) -> bool:
    """Whether fn(t) raises InfeasibleModel; any other outcome is False."""
    try:
        fn(t)
    except InfeasibleModel:
        return True
    except RoyBoundsError:
        pass
    return False


def test_compute_all_rejects_exactly_the_empty_identified_sets():
    # compute_all rejects from the crossed EY0/EY1 closed forms; the
    # reference is vertex enumeration of the eight-row identified set.  That
    # finds a vertex within FEAS_TOL = 1e-9 of every row, so it still accepts
    # a table whose bounds cross by less; the closed forms reject it.
    seen = np.zeros((4, 2), dtype=int)
    below_tolerance = 0
    for kind, t in model_check_tables():
        empty = rejects(lambda u: envelope_polytope(generalized.envelopes(u)), t)
        rejected = rejects(generalized.compute_all, t)
        if rejected and not empty:
            assert 0 < crossing(t.cells) <= probability.FEAS_TOL, (kind, t.cells.tolist())
            below_tolerance += 1
            continue
        assert rejected == empty, (kind, t.cells.tolist())
        seen[kind, int(empty)] += 1
    # Every kind gives feasible tables, and all but the forward ones infeasible.
    assert seen.sum() + below_tolerance == 2400 and 1 <= below_tolerance <= 10
    assert seen[:, 0].min() >= 100 and seen[[0, 1, 3], 1].min() >= 50 and seen[2, 1] == 0


def test_compute_all_rejects_a_crossing_below_the_vertex_tolerance():
    # EY0 crosses by 1e-10: the closed forms reject the table, while vertex
    # enumeration, with its 1e-9 feasibility tolerance, still finds a vertex.
    t = InstrumentTable.from_cells(
        {"z1": validate_cells(0.3, 0.05, 0.6, 0.05), "z2": validate_cells(0.1, 0.1, 0.7 + 1e-10, 0.1 - 1e-10)}
    )
    assert envelope_polytope(generalized.envelopes(t)).is_feasible()
    with pytest.raises(InfeasibleModel, match="inconsistent with the generalized model"):
        generalized.compute_all(t)


def test_compute_all_leaves_out_att_when_a_z_lacks_a_sector():
    t = InstrumentTable.from_cells({"a": validate_cells(0.3, 0.2, 0.2, 0.3), "b": validate_cells(0.5, 0.0, 0.5, 0.0)})
    with pytest.raises(ZeroSectorProbability):
        generalized.att_bounds(t)
    res = generalized.compute_all(t)
    assert res.att1 is None and res.att0 is None
    out = res.to_dict()
    assert "att1" not in out and "att0" not in out
    assert {"ey0", "ey1", "ate", "benefit_strict", "benefit_weak", "mobility"} <= out.keys()


def mask_loop_theta(data):
    """Reference tabulation: estimate_theta as one boolean mask per label."""
    labels = sorted(set(data.z.tolist()), key=str)
    est = np.zeros((len(labels), 8))
    se = np.zeros((len(labels), 8))
    counts = np.zeros((len(labels), 4))
    for i, z in enumerate(labels):
        mask = data.z == z
        w = data.w[mask]
        cell = 2 * data.y[mask].astype(int) + data.d[mask]
        for c in range(4):
            counts[i, c] = w[cell == c].sum()
        theta = (counts[i] / counts[i].sum()) @ generalized._COMBO.T
        n_eff = w.sum() ** 2 / (w**2).sum()
        est[i] = theta
        se[i] = np.maximum(np.sqrt(theta * (1.0 - theta) / n_eff), inference._SE_FLOOR)
    counts *= data.n / counts.sum()
    return labels, est, se, counts


def left_to_right(xs):
    """sum(xs), adding in order as sum() added floats before Python 3.12."""
    total = 0
    for x in xs:
        total = total + x
    return total


def ref_validate_cells(q00, q01, q10, q11):
    """Reference: validate_cells on one row, as a 1-D array."""
    raw = np.array([q00, q01, q10, q11], dtype=float)
    if np.any(raw < -1e-12):
        raise NegativeMass(f"negative cell probability in {raw}")
    total = raw.sum()
    if not abs(total - 1.0) <= 1e-9:
        raise NotNormalized(f"cell probabilities sum to {total:.12g}")
    raw = np.clip(raw, 0.0, None)
    raw = raw / raw.sum()
    return CellProbs(*raw)


@dataclass(frozen=True)
class TupleTable:
    """Reference instrument table: (z label, CellProbs, weight P(Z=z)) triples."""

    points: tuple

    def __post_init__(self):
        labels = [z for z, _, _ in self.points]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate instrument labels")
        if not self.points:
            raise ValueError("instrument table needs at least one point")
        w = np.array([w for _, _, w in self.points], dtype=float)
        if np.any(w <= 0):
            raise NegativeMass("instrument weights must be positive")
        if abs(w.sum() - 1.0) > 1e-9:
            raise NotNormalized(f"instrument weights sum to {w.sum():.12g}")

    @classmethod
    def from_cells(cls, cells, weights=None):
        labels = sorted(cells, key=str)
        if weights is None:
            weights = {z: 1.0 / len(labels) for z in labels}
        total = left_to_right(weights[z] for z in labels)
        return cls(tuple((z, cells[z], weights[z] / total) for z in labels))

    @property
    def labels(self):
        return [z for z, _, _ in self.points]

    def cells(self, z):
        for label, q, _ in self.points:
            if label == z:
                return q
        raise KeyError(z)

    def pooled(self):
        arr = sum(w * q.as_array() for _, q, w in self.points)
        return CellProbs(*arr)


def mask_loop_table(s):
    """Reference tabulation: the CLI's instrument table, one mask per label."""
    cells, weights = {}, {}
    for z in sorted(set(s.z.tolist()), key=str):
        mask = s.z == z
        w, y, d = s.w[mask], s.y[mask].astype(int), s.d[mask]
        tot = w.sum()
        q = [w[(y == yy) & (d == dd)].sum() / tot for yy, dd in ((0, 0), (0, 1), (1, 0), (1, 1))]
        cells[z] = ref_validate_cells(*q)
        weights[z] = float(tot)
    return TupleTable.from_cells(cells, weights)


def tuple_envelopes(tt):
    """Reference: generalized.envelopes on a TupleTable."""
    cells = np.array([q.as_array() for _, q, _ in tt.points])
    return generalized.envelope_array(cells @ generalized._COMBO.T)


def tuple_regret_by_z(tt, e):
    """Reference: the regret_by_z of generalized.compute_all on a TupleTable."""
    return tuple((z, min(1.0, float(e[3]) / q.q00) if q.q00 > 1e-12 else np.nan) for z, q, _ in tt.points)


def tuple_att_bounds(tt, e):
    """Reference: generalized.att_bounds on a TupleTable."""
    p = generalized.point_bounds(e)
    ey0, ey1 = p["ey0"], p["ey1"]

    def averaged(counterfactual, d, label):
        los, his = [], []
        for _, q, w in tt.points:
            p_d = q.p_d1 if d == 1 else q.p_d0
            if p_d <= 1e-12:
                raise ZeroSectorProbability(f"P(D={d}|z) is zero at some z")
            los.append(w * (q.p_y1 - counterfactual.hi) / p_d)
            his.append(w * (q.p_y1 - counterfactual.lo) / p_d)
        return IntervalBound(left_to_right(los), left_to_right(his), sharp=False, label=label).clamp(-1.0, 1.0)

    return averaged(ey0, 1, "E(Y1-Y0|D=1)"), averaged(ey1, 0, "E(Y0-Y1|D=0)")


def tuple_roy_selection_test(tt):
    """Reference: generalized.roy_selection_test on a TupleTable."""
    p = generalized.point_bounds(tuple_envelopes(tt))
    strict, weak = p["benefit_strict"], p["benefit_weak"]
    pooled_y1 = tt.pooled().p_y1
    violations = []
    for z, q, _ in tt.points:
        p_d1 = q.p_d1
        if p_d1 < strict.lo - 1e-12 or p_d1 > weak.hi + 1e-12:
            violations.append(
                {"z": z, "p_d1": p_d1, "strict_lo": strict.lo, "weak_hi": weak.hi}
            )
    y_z_dep = max(abs(q.p_y1 - pooled_y1) for _, q, _ in tt.points)
    return {
        "violations": violations,
        "n_violations": len(violations),
        "benefit_strict": strict.to_dict(),
        "benefit_weak": weak.to_dict(),
        "max_outcome_instrument_dependence": y_z_dep,
    }


def tuple_sharp_bounds_with_instrument(tt, tau_y=0.0):
    """Reference: binary.sharp_bounds_with_instrument on a TupleTable."""
    pooled = tt.pooled()
    p_y1 = pooled.p_y1
    dev = max(abs(q.p_y1 - p_y1) for _, q, _ in tt.points)
    if dev > tau_y + 1e-12:
        raise OutcomeInstrumentDependence(
            f"max_z |P(Y=1|z) - P(Y=1)| = {dev:.6g} exceeds tolerance {tau_y:.6g}"
        )
    q10s = [q.q10 for _, q, _ in tt.points]
    q11s = [q.q11 for _, q, _ in tt.points]
    lo10, hi10 = min(q10s), max(q10s)
    lo11, hi11 = min(q11s), max(q11s)
    return binary.BinaryRoyBounds(
        p00_value=pooled.p_y0,
        p10_bound=IntervalBound(0.0, lo10, sharp=True, label="p10 (instrument)"),
        p01_bound=IntervalBound(0.0, lo11, sharp=True, label="p01 (instrument)"),
        ey0_bound=IntervalBound(hi10, p_y1, sharp=True, label="EY0 (instrument)"),
        ey1_bound=IntervalBound(hi11, p_y1, sharp=True, label="EY1 (instrument)"),
        ate_bound=IntervalBound(0.0 - lo10, lo11, sharp=True, label="E(Y1-Y0) (instrument)"),
    )


def assert_same_table(t, tt):
    """The array table t holds the bits of the reference tuple table tt."""
    assert t.labels == tuple(tt.labels)
    assert t.cells.tobytes() == np.array([q.as_array() for _, q, _ in tt.points]).tobytes()
    assert t.weights.tobytes() == np.array([w for _, _, w in tt.points]).tobytes()
    assert t.pooled().as_array().tobytes() == tt.pooled().as_array().tobytes()
    for z in (tt.labels[0], tt.labels[-1]):
        assert t.cell(z).as_array().tobytes() == tt.cells(z).as_array().tobytes()


def mask_loop_pooled(s):
    """Reference tabulation: the CLI's pooled cells without an instrument."""
    y = s.y.astype(int)
    return validate_cells(*[s.w[(y == yy) & (s.d == dd)].sum() for yy, dd in ((0, 0), (0, 1), (1, 0), (1, 1))])


def tabulation_samples(n=100, seed=41):
    """Seeded binary samples with integer labels, K in 1..25, every other one weighted."""
    rng = oracle.make_rng(seed)
    for i in range(n):
        k = 1 + i % 25
        size = int(rng.integers(k, 40 * k + 1))
        z = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, size - k)]))
        w = rng.uniform(0.05, 5.0, size) if i % 2 else None
        yield OutcomeSample.from_arrays(
            (rng.random(size) < 0.5).astype(float), (rng.random(size) < 0.4).astype(int), w, z=z
        )


def test_tabulate_equals_mask_loop_reference_bitwise():
    for data in tabulation_samples():
        labels, est, se, counts = mask_loop_theta(data)
        table, tab = cli._table_from_sample(data)
        assert_same_table(table, mask_loop_table(data))
        # The theta of the shared tabulation and of a fresh one are the same bits.
        for th in (inference.estimate_theta(data), inference.theta_from_tabulation(tab, data.n)):
            assert list(th.labels) == labels and labels == sorted(labels, key=str)
            for new, ref in ((th.est, est), (th.se, se), (th.cell_counts, counts)):
                assert new.tobytes() == ref.tobytes()
        pooled = OutcomeSample.from_arrays(data.y, data.d, data.w)
        new_pooled = validate_cells(*inference.tabulate(pooled)[1][0])
        assert repr(new_pooled) == repr(mask_loop_pooled(pooled))


def paired_tables(seed=53):
    """(array table, tuple reference table) pairs with K in 1..60, weighted
    and not: through cli._table_from_sample, and through from_cells on Roy
    cells (feasible for any K) and on Dirichlet cells."""
    rng = oracle.make_rng(seed)
    for k in range(1, 61):
        for weighted in (False, True):
            size = int(rng.integers(k, 20 * k + 1))
            z = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, size - k)]))
            w = rng.uniform(0.05, 5.0, size) if weighted else None
            s = OutcomeSample.from_arrays(
                (rng.random(size) < 0.5).astype(float), (rng.random(size) < 0.4).astype(int), w, z=z
            )
            yield cli._table_from_sample(s)[0], mask_loop_table(s)
            p = PotentialJoint(*rng.dirichlet(np.ones(4)))
            roy = {f"z{j}": roy_cells(p, pi) for j, pi in enumerate(rng.uniform(0.05, 0.95, k))}
            dirichlet = {f"z{j}": validate_cells(*rng.dirichlet(np.full(4, 0.5))) for j in range(k)}
            for cells in (roy, dirichlet):
                weights = dict(zip(cells, rng.uniform(0.1, 2.0, k))) if weighted else None
                yield InstrumentTable.from_cells(cells, weights), TupleTable.from_cells(cells, weights)


def test_array_table_equals_tuple_reference_bitwise():
    feasible = 0
    for t, tt in paired_tables():
        assert_same_table(t, tt)
        e = generalized.envelopes(t)
        assert e.tobytes() == tuple_envelopes(tt).tobytes()
        regrets = tuple_regret_by_z(tt, e)
        assert generalized._regrets(t, e).tobytes() == np.array([r for _, r in regrets]).tobytes()
        try:
            res = generalized.compute_all(t)
        except RoyBoundsError:
            pass
        else:
            assert [z for z, _ in res.regret_by_z] == [z for z, _ in regrets]
            assert np.array([r for _, r in res.regret_by_z]).tobytes() == np.array([r for _, r in regrets]).tobytes()
            feasible += 1
        assert _outcome(generalized.att_bounds, t) == _outcome(lambda u: tuple_att_bounds(u, e), tt)
        assert _outcome(generalized.roy_selection_test, t) == _outcome(tuple_roy_selection_test, tt)
        for tau_y in (0.0, 0.05, 1.0):
            new = _outcome(lambda u: binary.sharp_bounds_with_instrument(u, tau_y).to_dict(), t)
            assert new == _outcome(lambda u: tuple_sharp_bounds_with_instrument(u, tau_y).to_dict(), tt)
    assert feasible >= 100


def test_validate_cells_equals_one_row_reference_bitwise():
    rng = oracle.make_rng(59)
    for i in range(2000):
        raw = rng.dirichlet(np.full(4, 0.5)) * (1.0 + rng.uniform(-2e-9, 2e-9))
        if i % 3 == 0:
            raw[rng.integers(4)] -= rng.uniform(0.0, 2e-12)
        got, want = (_outcome(lambda q: fn(*q).as_array().tolist(), raw) for fn in (validate_cells, ref_validate_cells))
        assert got == want
        if isinstance(want, str):
            rows = probability.normalize_cells(raw[None, :])
            assert rows.tobytes() == ref_validate_cells(*raw).as_array().tobytes()


def test_table_from_sample_builds_no_cell_records(monkeypatch):
    # One CellProbs per instrument value was the size cliff in K.
    calls = []
    init = probability.CellProbs.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(probability.CellProbs, "__init__", counted)
    rng = oracle.make_rng(67)
    z = np.arange(15_000) % 5000
    s = OutcomeSample.from_arrays((rng.random(len(z)) < 0.5).astype(float), (rng.random(len(z)) < 0.5).astype(int), z=z)
    table, _ = cli._table_from_sample(s)
    assert len(table.labels) == 5000 and calls == []
    validate_cells(0.25, 0.25, 0.25, 0.25)
    assert calls == [1]


def test_joint_polytope_rows_independent_of_support_size():
    # Roy selection with a tie-break rate that moves with z: feasible for any K.
    p = PotentialJoint(0.3, 0.25, 0.15, 0.3)
    t = InstrumentTable.from_cells(
        {f"z{j}": roy_cells(p, pi) for j, pi in enumerate(np.linspace(0.1, 0.9, 12))}
    )
    poly = envelope_polytope(generalized.envelopes(t))
    # Eight rows cut out the same set as the eight rows at each of the 12 points.
    assert len(poly.halfspaces) == 8
    assert np.array_equal(poly.vertices(), per_z_polytope(t).vertices())


def test_joint_polytope_matches_lp_oracle_on_grid():
    poly = envelope_polytope(generalized.envelopes(TWO_Z))
    grid = simplex_grid(0.02)
    member = contains_points(poly, grid)
    # spot-check against the response-type LP on a subsample
    idx = np.arange(len(grid))[::97]
    for i in idx:
        p = grid[i]
        feasible = True
        try:
            for c in (np.eye(4)):
                lp = oracle.response_type_lp(TWO_Z, c)
                if not (lp.lo - 1e-9 <= p @ c <= lp.hi + 1e-9):
                    feasible = False
                    break
        except Exception:
            feasible = False
        if member[i]:
            # membership implies every single-coordinate projection fits
            assert feasible


def test_bp_marginal_bounds_single_z():
    t = InstrumentTable.from_cells({"z": validate_cells(0.2, 0.1, 0.3, 0.4)})
    p = generalized.point_bounds(generalized.envelopes(t))
    ey0, ey1 = p["ey0"], p["ey1"]
    assert (ey0.lo, ey0.hi) == (pytest.approx(0.3), pytest.approx(0.8))
    assert (ey1.lo, ey1.hi) == (pytest.approx(0.4), pytest.approx(0.9))


def test_bp_marginal_bounds_two_z_vs_lp():
    p = generalized.point_bounds(generalized.envelopes(TWO_Z))
    ey0, ey1 = p["ey0"], p["ey1"]
    assert (ey0.lo, ey0.hi) == (pytest.approx(0.2), pytest.approx(0.7))
    assert (ey1.lo, ey1.hi) == (pytest.approx(0.5), pytest.approx(0.7))
    lp0 = oracle.response_type_lp(TWO_Z, (0, 0, 1, 1))
    lp1 = oracle.response_type_lp(TWO_Z, (0, 1, 0, 1))
    assert ey0.lo == pytest.approx(lp0.lo, abs=1e-8)
    assert ey0.hi == pytest.approx(lp0.hi, abs=1e-8)
    assert ey1.lo == pytest.approx(lp1.lo, abs=1e-8)
    assert ey1.hi == pytest.approx(lp1.hi, abs=1e-8)


def test_bp_endpoints_equal_polytope_extrema():
    poly = envelope_polytope(generalized.envelopes(TWO_Z))
    p = generalized.point_bounds(generalized.envelopes(TWO_Z))
    ey0, ey1 = p["ey0"], p["ey1"]
    d0 = polytope_extrema(poly, (0, 0, 1, 1))
    d1 = polytope_extrema(poly, (0, 1, 0, 1))
    assert ey0.lo == pytest.approx(d0.lo, abs=1e-9)
    assert ey0.hi == pytest.approx(d0.hi, abs=1e-9)
    assert ey1.lo == pytest.approx(d1.lo, abs=1e-9)
    assert ey1.hi == pytest.approx(d1.hi, abs=1e-9)


def test_benefit_bounds_two_z():
    p = generalized.point_bounds(generalized.envelopes(TWO_Z))
    strict, weak = p["benefit_strict"], p["benefit_weak"]
    assert strict.lo == pytest.approx(0.0)
    assert strict.hi == pytest.approx(0.5)
    # the weak-benefit probability dominates the strict one, so both
    # endpoints are ordered
    assert weak.lo >= strict.lo - 1e-12
    assert weak.hi >= strict.hi - 1e-12


def test_benefit_bounds_degenerate():
    # Everyone fails in sector 0, so Y1 is never observed: with
    # unrestricted selection, strict benefit is unrestricted too.  The
    # closed form must agree with the identified-set extrema.
    t = InstrumentTable.from_cells({"z": validate_cells(1.0, 0.0, 0.0, 0.0)})
    strict = generalized.point_bounds(generalized.envelopes(t))["benefit_strict"]
    direct = polytope_extrema(envelope_polytope(generalized.envelopes(t)), (0, 1, 0, 0))
    assert (strict.lo, strict.hi) == (pytest.approx(direct.lo), pytest.approx(direct.hi))
    assert (strict.lo, strict.hi) == (0.0, 1.0)


def test_benefit_equals_p01_extrema():
    rng = oracle.make_rng(9)
    for _ in range(5):
        cells = {f"z{i}": validate_cells(*rng.dirichlet([2, 2, 2, 2])) for i in range(3)}
        t = InstrumentTable.from_cells(cells)
        try:
            poly = envelope_polytope(generalized.envelopes(t))
        except Exception:
            continue
        strict = generalized.point_bounds(generalized.envelopes(t))["benefit_strict"]
        direct = polytope_extrema(poly, (0, 1, 0, 0))
        assert strict.lo == pytest.approx(max(0.0, direct.lo), abs=1e-9)
        assert strict.hi == pytest.approx(direct.hi, abs=1e-9)


def test_roy_selection_test_clean_data():
    p = oracle.make_rng(2).dirichlet([2, 2, 2, 2])
    cells = roy_cells(PotentialJoint(*p), pi=0.4)
    t = InstrumentTable.from_cells({"z": cells})
    rep = generalized.roy_selection_test(t)
    assert rep["n_violations"] == 0


def test_roy_selection_test_violation():
    # all-failure cells at z2 give P(D=1|z2)=0 while the envelope lower
    # bound on strict benefit is positive
    t = InstrumentTable.from_cells(
        {
            "z1": validate_cells(0.05, 0.05, 0.05, 0.85),
            "z2": validate_cells(0.5, 0.0, 0.5, 0.0),
        }
    )
    rep = generalized.roy_selection_test(t)
    if rep["benefit_strict"]["lo"] > 0:
        assert rep["n_violations"] >= 1


def regrets(t):
    return dict(generalized.compute_all(t).regret_by_z)


def test_regret_bound():
    assert regrets(TWO_Z)["z2"] == 1.0
    t = InstrumentTable.from_cells({"z": validate_cells(0.2, 0.1, 0.3, 0.4)})
    assert regrets(t)["z"] == 1.0
    t2 = InstrumentTable.from_cells(
        {
            "a": validate_cells(0.5, 0.2, 0.25, 0.05),
            "b": validate_cells(0.5, 0.45, 0.05, 0.0),
        }
    )
    e = generalized.envelopes(t2)
    assert regrets(t2)["a"] == pytest.approx(e[3] / 0.5)


def test_regret_zero_cell():
    # P(Y=0,D=0|a) is zero, so the regret bound at a is undefined (null in a
    # report).  On one z, q00 = 0 leaves P(Y0=0) an upper bound of zero,
    # which compute_all rejects, so the table has two z.
    t = InstrumentTable.from_cells(
        {
            "a": validate_cells(0.0, 0.3, 0.3, 0.4),
            "b": validate_cells(0.1, 0.3, 0.2, 0.4),
        }
    )
    r = regrets(t)
    assert np.isnan(r["a"]) and 0.0 <= r["b"] <= 1.0
    assert generalized.compute_all(t).to_dict()["regret_by_z"]["a"] is None


def test_mobility_two_z():
    mob = generalized.point_bounds(generalized.envelopes(TWO_Z))["mobility"]
    assert mob.lo == pytest.approx(0.0)
    assert mob.hi == 1.0  # 0.5 / 0.3 clamps


def test_mobility_all_failures():
    # With no successes anywhere Y1 is never observed; the mobility ratio
    # p01/(1-EY0) can reach (q00+q11)/(1-EY0 upper) = 1 and its lower
    # bound is 0.
    t = InstrumentTable.from_cells({"z": validate_cells(0.6, 0.4, 0.0, 0.0)})
    mob = generalized.point_bounds(generalized.envelopes(t))["mobility"]
    assert (mob.lo, mob.hi) == (0.0, 1.0)


def test_att_single_z_example():
    t = InstrumentTable.from_cells({"z": validate_cells(0.2, 0.1, 0.3, 0.4)})
    att1, att0 = generalized.att_bounds(t)
    assert att1.lo == pytest.approx(-0.2)
    assert att1.hi == pytest.approx(0.8)


def test_att_two_z_example():
    att1, _ = generalized.att_bounds(TWO_Z)
    assert att1.lo == pytest.approx(-13.0 / 84.0, abs=1e-6)
    assert att1.hi == pytest.approx(13.0 / 21.0, abs=1e-6)


def test_att_zero_sector():
    t = InstrumentTable.from_cells({"z": validate_cells(0.6, 0.0, 0.4, 0.0)})
    with pytest.raises(ZeroSectorProbability):
        generalized.att_bounds(t)


def test_att_brackets_truth_on_roy_simulation():
    p = PotentialJoint(0.3, 0.25, 0.15, 0.3)
    cells = roy_cells(p, pi=0.5)
    t = InstrumentTable.from_cells({"z": cells})
    att1, att0 = generalized.att_bounds(t)
    # truth: E(Y1-Y0|D=1); ties contribute 0
    p_d1 = p.p01 + p.p11 * 0.5
    truth = p.p01 / p_d1
    assert att1.lo - 1e-9 <= truth <= att1.hi + 1e-9


@settings(max_examples=15, deadline=None)
@given(tables_strategy())
def test_interval_shrinkage_in_z(t):
    sub = InstrumentTable.from_cells({"z0": t.cell("z0")})
    e_all = generalized.envelopes(t)
    e_sub = generalized.envelopes(sub)
    p_all, p_sub = generalized.point_bounds(e_all), generalized.point_bounds(e_sub)
    ey0_all, ey1_all = p_all["ey0"], p_all["ey1"]
    ey0_sub, ey1_sub = p_sub["ey0"], p_sub["ey1"]
    for big, small in ((ey0_sub, ey0_all), (ey1_sub, ey1_all)):
        if not small.crossed:
            assert big.lo <= small.lo + 1e-9
            assert big.hi >= small.hi - 1e-9


def test_single_z_polytope_contains_roy_polytope():
    q = validate_cells(0.2, 0.1, 0.3, 0.4)
    t = InstrumentTable.from_cells({"z": q})
    grid = simplex_grid(0.02)
    roy = contains_points(roy_polytope(binary.sharp_bounds(q)), grid)
    gen = contains_points(envelope_polytope(generalized.envelopes(t)), grid)
    assert np.all(gen[roy])


def test_compute_all_computes_envelopes_once(monkeypatch):
    calls = []
    for name in ("envelopes", "att_bounds", "bounds_from_envelopes"):
        fn = getattr(generalized, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(generalized, name, counted)
    res = generalized.compute_all(TWO_Z)
    # One closed form for the point intervals, one more inside att_bounds.
    assert sorted(calls) == ["att_bounds", "bounds_from_envelopes", "bounds_from_envelopes", "envelopes"]
    e = generalized.envelopes(TWO_Z)
    assert dict(res.regret_by_z) == {z: min(1.0, e[3] / q[0]) for z, q in zip(TWO_Z.labels, TWO_Z.cells)}


def test_point_path_crosses_and_caps_mobility_on_vanished_denominator():
    rejected = InstrumentTable.from_cells(
        {
            "z1": validate_cells(0.9, 0.0, 0.0, 0.1),
            "z2": validate_cells(0.0, 0.1, 0.9, 0.0),
        }
    )
    p = generalized.point_bounds(generalized.envelopes(rejected))
    assert p["ey0"].crossed or p["ey1"].crossed
    # Y=1 in sector 0 everywhere: EY0 reaches 1, so P(Y0=0) may vanish and
    # the mobility ratio is unbounded: its nan upper end is reported as 1.0.
    t = InstrumentTable.from_cells({"z": validate_cells(0, 0, 1, 0)})
    assert np.isnan(generalized.bounds_from_envelopes(generalized.envelopes(t))["mobility"][1])
    assert generalized.compute_all(t).mobility.hi == 1.0
    # P(Y0=0) is at most 0.5 here, but its lower bound vanishes.
    t = InstrumentTable.from_cells({"z": validate_cells(0, 0.2, 0.5, 0.3)})
    mobility = generalized.compute_all(t).mobility
    assert (mobility.lo, mobility.hi, mobility.sharp) == (0.0, 1.0, True)


def test_bounds_from_envelopes_vectorizes():
    env = np.stack([generalized.envelopes(t) for t in cross_check_tables(12)])
    batched = generalized.bounds_from_envelopes(env)
    for i, row in enumerate(env):
        single = generalized.bounds_from_envelopes(row)
        for key, (lo, hi) in single.items():
            np.testing.assert_array_equal([lo, hi], [batched[key][0][i], batched[key][1][i]])


def test_compute_all_serializes():
    import json

    res = generalized.compute_all(TWO_Z)
    text = json.dumps(res.to_dict(), sort_keys=True)
    assert "ey0" in text and not res.crossed


@dataclass(frozen=True)
class InstrumentEnvelopes:
    """Reference: the eight envelopes as named fields, in _COMBO order."""

    inf_y1: float
    inf_y0: float
    inf_10_01: float
    inf_00_11: float
    sup_q10: float
    sup_q00: float
    sup_q11: float
    sup_q01: float

    def as_array(self):
        return np.array(astuple(self))


def ref_envelopes(t):
    cells = np.array([row for row in t.cells])
    return InstrumentEnvelopes(*map(float, generalized.envelope_array(cells @ generalized._COMBO.T)))


def ref_bp_marginal_bounds(e):
    r = generalized.bounds_from_envelopes(e.as_array())
    ey0 = IntervalBound(*map(float, r["ey0"]), label="EY0")
    ey1 = IntervalBound(*map(float, r["ey1"]), label="EY1")
    ate = IntervalBound(ey1.lo - ey0.hi, ey1.hi - ey0.lo, sharp=True, label="E(Y1-Y0)")
    return ey0.clamp(), ey1.clamp(), ate.clamp(-1.0, 1.0)


def ref_benefit_bounds(e):
    r = generalized.bounds_from_envelopes(e.as_array())
    return (
        IntervalBound(*map(float, r["benefit_strict"]), label="P(Y1>Y0)").clamp(),
        IntervalBound(*map(float, r["benefit_weak"]), label="P(Y1>=Y0)").clamp(),
    )


def ref_mobility_bounds(e):
    lo, hi = map(float, generalized.bounds_from_envelopes(e.as_array())["mobility"])
    return IntervalBound(lo, 1.0 if np.isnan(hi) else hi, label="P(Y1=1|Y0=0)").clamp()


def ref_att_bounds(t, e):
    ey0, ey1, _ = ref_bp_marginal_bounds(e)

    def averaged(counterfactual, d, label):
        los, his = [], []
        for (q00, q01, q10, q11), w in zip(t.cells, t.weights):
            p_d = q01 + q11 if d == 1 else q00 + q10
            if p_d <= 1e-12:
                raise ZeroSectorProbability(f"P(D={d}|z) is zero at some z")
            los.append(w * (q10 + q11 - counterfactual.hi) / p_d)
            his.append(w * (q10 + q11 - counterfactual.lo) / p_d)
        return IntervalBound(sum(los), sum(his), sharp=False, label=label).clamp(-1.0, 1.0)

    return averaged(ey0, 1, "E(Y1-Y0|D=1)"), averaged(ey1, 0, "E(Y0-Y1|D=0)")


def ref_compute_all(t):
    """Reference: compute_all assembled from the named envelopes and three wrappers,
    rejecting the model by vertex enumeration."""
    e = ref_envelopes(t)
    envelope_polytope(e.as_array())
    ey0, ey1, ate = ref_bp_marginal_bounds(e)
    strict, weak = ref_benefit_bounds(e)
    regrets = tuple(
        (z, min(1.0, e.inf_00_11 / q00) if q00 > 1e-12 else np.nan) for z, q00 in zip(t.labels, t.cells[:, 0])
    )
    mobility = ref_mobility_bounds(e)
    try:
        att1, att0 = ref_att_bounds(t, e)
    except ZeroSectorProbability:
        att1 = att0 = None
    return generalized.GeneralizedBounds(
        ey0=ey0,
        ey1=ey1,
        ate=ate,
        benefit_strict=strict,
        benefit_weak=weak,
        mobility=mobility,
        att1=att1,
        att0=att0,
        regret_by_z=regrets,
    )


def ref_roy_selection_test(t):
    strict, weak = ref_benefit_bounds(ref_envelopes(t))
    pooled_y1 = t.pooled().p_y1
    violations = []
    for z, (q00, q01, q10, q11) in zip(t.labels, t.cells):
        p_d1 = q01 + q11
        if p_d1 < strict.lo - 1e-12 or p_d1 > weak.hi + 1e-12:
            violations.append(
                {"z": z, "p_d1": p_d1, "strict_lo": strict.lo, "weak_hi": weak.hi}
            )
    return {
        "violations": violations,
        "n_violations": len(violations),
        "benefit_strict": strict.to_dict(),
        "benefit_weak": weak.to_dict(),
        "max_outcome_instrument_dependence": max(abs(q10 + q11 - pooled_y1) for _, _, q10, q11 in t.cells),
    }


def _outcome(fn, t):
    """JSON bytes of fn(t), or the type and message of what it raised."""
    try:
        out = fn(t)
    except RoyBoundsError as exc:
        return type(exc), str(exc)
    if isinstance(out, generalized.GeneralizedBounds):
        out = out.to_dict()
    elif isinstance(out, tuple):
        out = [b.to_dict() for b in out]
    return json.dumps(out, sort_keys=True)


_ASSEMBLIES = (
    (generalized.compute_all, ref_compute_all),
    (generalized.roy_selection_test, ref_roy_selection_test),
    (generalized.att_bounds, lambda t: ref_att_bounds(t, ref_envelopes(t))),
)


def _edge_tables():
    """Tables that reach each raise or clamp of the point path."""
    for cells in (
        {"z": (0, 0, 1, 0)},                 # P(Y0=0) may vanish, no D=1
        {"z": (1, 0, 0, 0)},                 # strict benefit unrestricted
        {"z": (0.6, 0.4, 0, 0)},             # no successes anywhere
        {"z": (0.6, 0, 0.4, 0)},             # no D=1
        {"z1": (0.9, 0, 0, 0.1), "z2": (0, 0.1, 0.9, 0)},  # rejected
        {"z1": (0.5, 0.2, 0.25, 0.05), "z2": (0.5, 0.45, 0.05, 0)},
    ):
        yield InstrumentTable.from_cells({z: validate_cells(*q) for z, q in cells.items()})
    yield TWO_Z


def test_point_bounds_equal_three_wrapper_reference_bitwise():
    outcomes = set()
    for t in [*cross_check_tables(), *_edge_tables()]:
        for new, ref in _ASSEMBLIES:
            got, want = _outcome(new, t), _outcome(ref, t)
            assert got == want
            outcomes.add(want[0] if isinstance(want, tuple) else str)
    # Every raise of the old assembly is reached, and some tables pass.
    assert outcomes == {str, InfeasibleModel, ZeroSectorProbability}


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5).flatmap(tables_strategy))
def test_point_bounds_equal_three_wrapper_reference_hypothesis(t):
    for new, ref in _ASSEMBLIES:
        assert _outcome(new, t) == _outcome(ref, t)
