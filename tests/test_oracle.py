import argparse
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from roybounds import binary, cli, generalized, oracle
from roybounds.errors import InfeasibleLP, OutOfRange
from roybounds.functional import OutcomeSample, build_subcdf
from roybounds.probability import (
    CellProbs,
    InstrumentTable,
    validate_cells,
)

from geometry import contains_points, roy_polytope, simplex_grid
from witnesses import (
    BoundsViolated,
    PotentialJoint,
    StepFn,
    coupling_witness_binary,
    coupling_witness_continuous,
    random_type_table,
    roy_cells,
)

# Potential-outcome pairs (y0, y1) in coordinate order (p00, p01, p10, p11).
PAIRS = [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_make_rng_reproducible_streams():
    a = oracle.make_rng(7, 1, 3).random(5)
    b = oracle.make_rng(7, 1, 3).random(5)
    c = oracle.make_rng(7, 1, 4).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_artstein_variants_differ():
    q = validate_cells(0.2, 0.1, 0.3, 0.4)
    grid = simplex_grid(0.05)
    roy = contains_points(oracle.artstein_set(q, oracle.ROY), grid)
    gen = contains_points(oracle.artstein_set(q, oracle.GENERALIZED), grid)
    assert roy.sum() < gen.sum()  # Roy selection is the tighter model
    assert np.all(~roy | gen)


# Admissible (y0, y1) pairs for each observed (y, d) cell, as tables.
SET_TABLES = {
    oracle.ROY: {
        (1, 1): {(1, 1), (0, 1)},
        (1, 0): {(1, 1), (1, 0)},
        (0, 1): {(0, 0)},
        (0, 0): {(0, 0)},
    },
    oracle.GENERALIZED: {
        (1, 1): {(1, 1), (0, 1)},
        (1, 0): {(1, 1), (1, 0)},
        (0, 1): {(1, 0), (0, 0)},
        (0, 0): {(0, 1), (0, 0)},
    },
}


def table_artstein_rows(q, variant):
    """`artstein_set`'s rows from the set tables above, before the pair map, kept as its reference."""
    g = SET_TABLES[variant]
    cell_probs = {(0, 0): q.q00, (0, 1): q.q01, (1, 0): q.q10, (1, 1): q.q11}
    rows = []
    for r in range(1, 4):
        for subset in itertools.combinations(PAIRS, r):
            a = np.zeros(4)
            for pair in subset:
                a[PAIRS.index(pair)] = 1.0
            rhs = sum(p for cell, p in cell_probs.items() if g[cell] & set(subset))
            rows.append((tuple(a), rhs))
    return oracle.SimplexPolytope.from_rows(rows).halfspaces


def test_artstein_set_equals_set_table_reference_bitwise():
    rng = oracle.make_rng(29)
    tables = [validate_cells(*np.eye(4)[i]) for i in range(4)]
    tables += [validate_cells(*rng.dirichlet(np.ones(4))) for _ in range(1000)]
    for q in tables:
        for variant in (oracle.ROY, oracle.GENERALIZED):
            hs = oracle.artstein_set(q, variant).halfspaces
            ref = table_artstein_rows(q, variant)
            # Compared as bits, so that a 0.0 for a -0.0 shows too.
            bits, ref_bits = (np.array([[*a, b] for a, b in rows]).view(np.uint64) for rows in (hs, ref))
            assert bits.shape == (14, 5) and np.array_equal(bits, ref_bits)


def test_objectives_equal_the_cli_vectors_and_choices():
    # The vectors `oracle --objective` once kept in the CLI, and its choices.
    assert oracle.OBJECTIVES == {
        "p00": (1, 0, 0, 0),
        "p01": (0, 1, 0, 0),
        "p10": (0, 0, 1, 0),
        "p11": (0, 0, 0, 1),
        "ey0": (0, 0, 1, 1),
        "ey1": (0, 1, 0, 1),
    }
    (sub,) = [a for a in cli._make_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (objective,) = [a for a in sub.choices["oracle"]._actions if a.dest == "objective"]
    assert set(objective.choices) == set(oracle.OBJECTIVES)


def test_artstein_roy_matches_closed_form():
    q = validate_cells(0.15, 0.2, 0.3, 0.35)
    grid = simplex_grid(0.02)
    closed = contains_points(roy_polytope(binary.sharp_bounds(q)), grid)
    enum = contains_points(oracle.artstein_set(q, oracle.ROY), grid)
    assert np.array_equal(closed, enum)


def test_enumerate_response_types():
    for k in (1, 3, 6):
        pair, cell = oracle.response_types(k)
        assert pair.shape == (4 * 2**k,) and cell.shape == (k, 4 * 2**k)
        assert set(pair.tolist()) == {0, 1, 2, 3} and set(cell.ravel().tolist()) == {0, 1, 2, 3}
    with pytest.raises(OutOfRange, match="instrument support 7 exceeds the cap of 6"):
        oracle.response_types(7)


def tuple_response_types(k):
    """The (y0, y1, selection map) triples that `response_types` replaced, kept as their reference."""
    sels = list(itertools.product((0, 1), repeat=k))
    return [(y0, y1, sel) for y0, y1 in PAIRS for sel in sels]


def loop_random_type_table(k, rng):
    """`random_type_table` as a Python loop over the tuple types, kept as its reference."""
    types = tuple_response_types(k)
    weights = rng.dirichlet(np.ones(len(types)))
    cells = {}
    for zi in range(k):
        q = np.zeros(4)
        for w, (y0, y1, sel) in zip(weights, types):
            d = sel[zi]
            y = y1 if d else y0
            q[2 * y + d] += w
        cells[f"z{zi}"] = CellProbs(q00=q[0], q01=q[1], q10=q[2], q11=q[3])
    p = np.zeros(4)
    for w, (y0, y1, _) in zip(weights, types):
        p[PAIRS.index((y0, y1))] += w
    return InstrumentTable.from_cells(cells), PotentialJoint(*p)


def test_random_type_table_equals_loop_reference_bitwise():
    for k in range(1, 7):
        for seed in range(50):
            t, truth = random_type_table(k, oracle.make_rng(900 + seed))
            ref_t, ref_truth = loop_random_type_table(k, oracle.make_rng(900 + seed))
            assert t.labels == ref_t.labels
            assert np.array_equal(t.cells, ref_t.cells) and np.array_equal(t.weights, ref_t.weights)
            assert np.array_equal(truth.as_array(), ref_truth.as_array())


def test_response_type_lp_rows_equal_tuple_reference(monkeypatch):
    # The objective and equality rows the LP is given, captured in place of
    # the solve, against the construction from the tuple types.
    scipy_optimize = pytest.importorskip("scipy.optimize")
    seen = []

    def capture(c, A_eq, b_eq, **kwargs):
        seen.append((c, A_eq, b_eq))
        return SimpleNamespace(status=0, fun=0.0)

    monkeypatch.setattr(scipy_optimize, "linprog", capture)
    rng = oracle.make_rng(5)
    for k in range(1, 5):
        t = InstrumentTable.from_cells({f"z{j}": validate_cells(*rng.dirichlet(np.ones(4))) for j in range(k)})
        types = tuple_response_types(k)
        for objective in ((0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 0, 0)):
            seen.clear()
            oracle.response_type_lp(t, objective)
            obj = np.array([float(objective[PAIRS.index((y0, y1))]) for y0, y1, _ in types])
            rows = [
                [float(2 * (y1 if sel[z] else y0) + sel[z] == c) for y0, y1, sel in types]
                for z in range(k)
                for c in range(4)
            ]
            a_eq = np.array(rows + [[1.0] * len(types)])
            for sign, (c, A_eq, b_eq) in zip((1.0, -1.0), seen):
                assert np.array_equal(c, sign * obj)
                assert np.array_equal(A_eq, a_eq)
                assert np.array_equal(b_eq, np.append(t.cells.ravel(), 1.0))
            assert len(seen) == 2


def test_response_type_lp_matches_envelope_formula():
    t = InstrumentTable.from_cells(
        {
            "z1": validate_cells(0.1, 0.3, 0.2, 0.4),
            "z2": validate_cells(0.3, 0.1, 0.1, 0.5),
        }
    )
    e = generalized.envelopes(t)
    p = generalized.point_bounds(e)
    ey0, ey1 = p["ey0"], p["ey1"]
    lp0 = oracle.response_type_lp(t, (0, 0, 1, 1))
    lp1 = oracle.response_type_lp(t, (0, 1, 0, 1))
    assert lp0.lo == pytest.approx(ey0.lo, abs=1e-8)
    assert lp0.hi == pytest.approx(ey0.hi, abs=1e-8)
    assert lp1.lo == pytest.approx(ey1.lo, abs=1e-8)
    assert lp1.hi == pytest.approx(ey1.hi, abs=1e-8)


def test_response_type_lp_rejects_contradictory_tables():
    t = InstrumentTable.from_cells(
        {
            "z1": validate_cells(0.9, 0.0, 0.0, 0.1),
            "z2": validate_cells(0.0, 0.1, 0.9, 0.0),
        }
    )
    with pytest.raises(InfeasibleLP):
        oracle.response_type_lp(t, (0, 0, 1, 1))


def test_random_type_table_truth_inside_lp_bounds():
    for seed in range(5):
        rng = oracle.make_rng(40 + seed)
        t, truth = random_type_table(3, rng)
        for obj, target in (
            ((0, 0, 1, 1), truth.ey0),
            ((0, 1, 0, 1), truth.ey1),
        ):
            b = oracle.response_type_lp(t, obj)
            assert b.lo - 1e-9 <= target <= b.hi + 1e-9


def test_roy_cells_identity():
    p = PotentialJoint(0.1, 0.2, 0.3, 0.4)
    q = roy_cells(p, pi=0.25)
    assert q.q00 == pytest.approx(0.075)
    assert q.q01 == pytest.approx(0.025)
    assert q.q10 == pytest.approx(0.6)
    assert q.q11 == pytest.approx(0.3)
    assert sum(q.as_array()) == pytest.approx(1.0)
    with pytest.raises(OutOfRange):
        roy_cells(p, pi=1.5)


def test_binary_coupling_hits_targets_and_obeys_selection():
    g = InstrumentTable.from_cells({("a", "b"): validate_cells(0.2, 0.1, 0.3, 0.4)})
    ey0, ey1, _ = binary.marginal_bounds_with_covariates(g, "a", "b")
    a, b = ey0.hi, ey1.lo
    w = coupling_witness_binary(g, "a", "b", a, b)
    y0, y1, y, d = w.sample(10**6, oracle.make_rng(9))
    assert abs(y0.mean() - a) < 3e-3
    assert abs(y1.mean() - b) < 3e-3
    # Roy selection path by path: strict preference always honored
    assert np.all(d[y1 > y0] == 1)
    assert np.all(d[y1 < y0] == 0)
    assert np.array_equal(y, np.where(d == 1, y1, y0))
    # observed cells match the target cells
    q = g.cell(("a", "b"))
    for (yy, dd), prob in (((0, 0), q.q00), ((0, 1), q.q01), ((1, 0), q.q10), ((1, 1), q.q11)):
        assert abs(((y == yy) & (d == dd)).mean() - prob) < 3e-3


def test_binary_coupling_rejects_out_of_bounds_target():
    g = InstrumentTable.from_cells({("a", "b"): validate_cells(0.2, 0.1, 0.3, 0.4)})
    with pytest.raises(OutOfRange):
        coupling_witness_binary(g, "a", "b", 0.95, 0.5)
    # E(Y0) = 0.5 is admissible, E(Y1) = 0.95 is not: [0.4, 0.7].
    with pytest.raises(OutOfRange, match="b=0.95 outside"):
        coupling_witness_binary(g, "a", "b", 0.5, 0.95)


def continuous_fixture(seed=12, n=40):
    rng = oracle.make_rng(seed)
    y = np.round(rng.normal(0, 1, n), 2)
    d = (rng.random(n) < 0.6).astype(int)
    if d.sum() in (0, n):
        d[0] = 1 - d[0]
    return build_subcdf(OutcomeSample.from_arrays(y, d))


def test_continuous_coupling_reproduces_observables():
    c = continuous_fixture()
    # candidate marginals sitting at the envelope lower edge
    f0 = StepFn(c.jumps, np.asarray(c.cdf(c.jumps)), base=0.0)
    f1 = StepFn(c.jumps, np.asarray(c.cdf(c.jumps)), base=0.0)
    w = coupling_witness_continuous(c, f0, f1)
    n = 200_000
    y0, y1, y, d = w.sample(n, oracle.make_rng(13))
    assert abs(d.mean() - c.p_d1) < 5e-3
    for yy in c.jumps[::7]:
        assert abs(((y <= yy) & (d == 1)).mean() - c.sub(1, yy)) < 6e-3
        assert abs(((y <= yy) & (d == 0)).mean() - c.sub(0, yy)) < 6e-3
        # the realized marginals follow the candidates (finite part)
        assert ((y1 <= yy) | np.isneginf(y1)).mean() >= f1(yy) - 6e-3


def test_continuous_coupling_rejects_escaping_marginal():
    c = continuous_fixture()
    bad = StepFn(c.jumps, np.minimum(1.0, np.asarray(c.cdf(c.jumps)) + 0.5), base=0.4)
    with pytest.raises(BoundsViolated):
        coupling_witness_continuous(c, bad, bad)


def test_continuous_coupling_rejects_marginal_that_does_not_end_at_one():
    c = continuous_fixture()
    # Inside the envelopes at every jump, then moved past the last one.
    xs = np.append(c.jumps, c.jumps[-1] + 1.0)
    for last in (0.5, 1.5):
        f = StepFn(xs, np.append(np.asarray(c.cdf(c.jumps)), last))
        with pytest.raises(BoundsViolated, match="does not reach 1"):
            coupling_witness_continuous(c, f, f)


def test_discrete_joint_cdf_and_draw():
    j = oracle.DiscreteJoint(support=((0.0, 1.0), (2.0, 0.5)), probs=(0.25, 0.75))
    y0, y1 = j.draw(50_000, oracle.make_rng(3))
    assert abs((y0 == 0.0).mean() - 0.25) < 0.01


def test_gaussian_copula_moments():
    j = oracle.GaussianCopulaJoint(mu0=1.0, sd0=2.0, mu1=-1.0, sd1=0.5, rho=0.7)
    y0, y1 = j.draw(200_000, oracle.make_rng(4))
    assert abs(y0.mean() - 1.0) < 0.02
    assert abs(y1.std() - 0.5) < 0.01
    r = np.corrcoef(y0, y1)[0, 1]
    assert abs(r - 0.7) < 0.01


def test_simulate_roy_selection():
    design = oracle.SimDesign(
        joint=oracle.GaussianCopulaJoint(mu1=0.5, rho=0.3), n=50_000, seed=11
    )
    sample, truth = oracle.simulate(design)
    assert sample.n == 50_000
    assert np.all(truth["d"][truth["y1"] > truth["y0"]] == 1)
    assert np.array_equal(sample.y, np.where(truth["d"] == 1, truth["y1"], truth["y0"]))
    # same seed, same draw
    sample2, _ = oracle.simulate(design)
    assert np.array_equal(sample.y, sample2.y)


def test_simulate_rejects_tie_break_outside_unit_interval():
    for pi in (-0.1, 1.5):
        design = oracle.SimDesign(joint=oracle.GaussianCopulaJoint(), n=10, seed=0, pi=pi)
        with pytest.raises(OutOfRange, match="tie-break probability"):
            oracle.simulate(design)


def test_simulate_with_instrument_and_rule():
    design = oracle.SimDesign(
        joint=oracle.GaussianCopulaJoint(),
        n=20_000,
        seed=5,
        z_labels=("lo", "hi"),
        z_weights=(0.3, 0.7),
    )
    sample, truth = oracle.simulate(design)
    assert set(np.unique(sample.z)) == {"lo", "hi"}
    assert abs((sample.z == "hi").mean() - 0.7) < 0.02
    # Roy selection: each draw takes its larger potential outcome.
    assert np.array_equal(sample.d, (truth["y1"] > truth["y0"]).astype(int))
    assert np.array_equal(sample.y, np.maximum(truth["y0"], truth["y1"]))
