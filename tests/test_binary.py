import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roybounds import binary, oracle
from roybounds.errors import (
    DegenerateConditioning,
    InfeasibleModel,
    MissingCell,
    OutcomeInstrumentDependence,
)
from roybounds.probability import (
    InstrumentTable,
    validate_cells,
)

from geometry import contains_points, membership, polytope_extrema, roy_polytope, simplex_grid
from witnesses import PotentialJoint, coupling_witness_binary


def cells_strategy():
    return st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4).map(
        lambda v: validate_cells(*(np.array(v) / sum(v)))
    )


def test_sharp_bounds_degenerate():
    b = binary.sharp_bounds(validate_cells(0.5, 0.5, 0.0, 0.0))
    assert b.p00_value == 1.0
    assert (b.p10_bound.lo, b.p10_bound.hi) == (0.0, 0.0)
    assert (b.p01_bound.lo, b.p01_bound.hi) == (0.0, 0.0)


def test_sharp_bounds_example():
    b = binary.sharp_bounds(validate_cells(0.2, 0.1, 0.3, 0.4))
    assert b.p00_value == pytest.approx(0.3)
    assert (b.p10_bound.lo, b.p10_bound.hi) == (0.0, 0.3)
    assert (b.p01_bound.lo, b.p01_bound.hi) == (0.0, 0.4)


def test_polytope_matches_artstein_oracle():
    q = validate_cells(0.1, 0.2, 0.3, 0.4)
    grid = simplex_grid(0.01)
    closed = contains_points(roy_polytope(binary.sharp_bounds(q)), grid)
    enumerated = contains_points(oracle.artstein_set(q, oracle.ROY), grid)
    assert np.array_equal(closed, enumerated)


def test_manski_bounds_examples():
    ey0, ey1, ate = binary.manski_bounds(validate_cells(0.2, 0.1, 0.3, 0.4))
    assert (ey0.lo, ey0.hi) == (0.3, pytest.approx(0.7))
    assert (ey1.lo, ey1.hi) == (0.4, pytest.approx(0.7))
    assert (ate.lo, ate.hi) == (-0.3, 0.4)
    ey0, ey1, ate = binary.manski_bounds(validate_cells(1.0, 0.0, 0.0, 0.0))
    assert (ey0.lo, ey0.hi) == (0.0, 0.0)
    assert (ate.lo, ate.hi) == (0.0, 0.0)
    ey0, ey1, _ = binary.manski_bounds(validate_cells(0.25, 0.25, 0.25, 0.25))
    assert (ey0.lo, ey0.hi) == (0.25, 0.5)
    assert (ey1.lo, ey1.hi) == (0.25, 0.5)


def test_ate_lower_end_is_positive_zero_when_q10_is_zero():
    # -q10 would give -0.0, which the JSON report prints as such.
    q = validate_cells(0.5, 0.2, 0.0, 0.3)
    assert math.copysign(1.0, binary.manski_bounds(q)[2].lo) == 1.0
    t = InstrumentTable.from_cells({"a": q, "b": validate_cells(0.4, 0.3, 0.1, 0.2)})
    assert math.copysign(1.0, binary.sharp_bounds_with_instrument(t).ate_bound.lo) == 1.0


def test_instrument_constant_reduces_to_sharp_bounds():
    q = validate_cells(0.2, 0.1, 0.3, 0.4)
    t = InstrumentTable.from_cells({"z1": q, "z2": q})
    b = binary.sharp_bounds_with_instrument(t)
    plain = binary.sharp_bounds(q)
    assert b.p00_value == pytest.approx(plain.p00_value)
    assert (b.p10_bound.hi, b.p01_bound.hi) == (plain.p10_bound.hi, plain.p01_bound.hi)
    assert (b.ey0_bound.lo, b.ey0_bound.hi) == (plain.ey0_bound.lo, plain.ey0_bound.hi)


def test_instrument_two_point_example():
    t = InstrumentTable.from_cells(
        {
            "z1": validate_cells(0.2, 0.1, 0.3, 0.4),
            "z2": validate_cells(0.25, 0.05, 0.35, 0.35),
        }
    )
    b = binary.sharp_bounds_with_instrument(t)
    assert b.p00_value == pytest.approx(0.3)
    assert b.p10_bound.hi == pytest.approx(0.3)
    assert b.p01_bound.hi == pytest.approx(0.35)
    assert (b.ey0_bound.lo, b.ey0_bound.hi) == (pytest.approx(0.35), pytest.approx(0.7))
    assert (b.ey1_bound.lo, b.ey1_bound.hi) == (pytest.approx(0.4), pytest.approx(0.7))
    assert (b.ate_bound.lo, b.ate_bound.hi) == (pytest.approx(-0.3), pytest.approx(0.35))
    # z-by-z intersection of the enumeration oracle gives the same set
    grid = simplex_grid(0.02)
    inter = np.ones(len(grid), dtype=bool)
    for z in t.labels:
        inter &= contains_points(oracle.artstein_set(t.cell(z), oracle.ROY), grid)
    assert np.array_equal(inter, contains_points(roy_polytope(b), grid))


def test_instrument_dependence_rejected():
    t = InstrumentTable.from_cells(
        {
            "z1": validate_cells(0.2, 0.1, 0.3, 0.4),
            "z2": validate_cells(0.3, 0.1, 0.3, 0.3),
        }
    )
    with pytest.raises(OutcomeInstrumentDependence):
        binary.sharp_bounds_with_instrument(t)
    # large tolerance waives the check
    b = binary.sharp_bounds_with_instrument(t, tau_y=0.2)
    assert b.p10_bound.hi == pytest.approx(0.3)


def test_covariate_bounds_single_cell():
    g = InstrumentTable.from_cells({("a", "b"): validate_cells(0.2, 0.1, 0.3, 0.4)})
    ey0, ey1, crossed = binary.marginal_bounds_with_covariates(g, "a", "b")
    assert (ey0.lo, ey0.hi) == (0.3, pytest.approx(0.7))
    assert (ey1.lo, ey1.hi) == (0.4, pytest.approx(0.7))
    assert not crossed


def test_covariate_bounds_crossing():
    g = InstrumentTable.from_cells(
        {
            ("x0a", "x1"): validate_cells(0.1, 0.1, 0.1, 0.7),
            ("x0b", "x1"): validate_cells(0.3, 0.3, 0.2, 0.2),
        }
    )
    _, ey1, crossed = binary.marginal_bounds_with_covariates(g, "x0a", "x1")
    assert ey1.lo == pytest.approx(0.7)
    assert ey1.hi == pytest.approx(0.4)
    assert crossed


def test_covariate_bounds_no_variation():
    q = validate_cells(0.2, 0.1, 0.3, 0.4)
    g = InstrumentTable.from_cells(
        {(a, b): q for a in ("a1", "a2") for b in ("b1", "b2")}
    )
    ey0, ey1, crossed = binary.marginal_bounds_with_covariates(g, "a1", "b1")
    m0, m1, _ = binary.manski_bounds(q)
    assert (ey0.lo, ey0.hi) == (m0.lo, m0.hi)
    assert (ey1.lo, ey1.hi) == (m1.lo, m1.hi)
    assert not crossed


def test_missing_cell():
    g = InstrumentTable.from_cells(
        {("a", "b"): validate_cells(0.25, 0.25, 0.25, 0.25), ("c", "d"): validate_cells(0.1, 0.2, 0.3, 0.4)}
    )
    with pytest.raises(MissingCell, match=r"^no cells for \(x0, x1\) = \('a', 'd'\)$"):
        binary.covariate_cell(g, "a", "d")
    # Each covariate is found, but not as a pair: the marginal bounds need no pair.
    binary.marginal_bounds_with_covariates(g, "a", "d")
    with pytest.raises(MissingCell, match=r"^no cells for \(x0, x1\) = \('a', 'd'\)$"):
        binary.conditional_bounds(g, "a", "d")
    with pytest.raises(MissingCell, match=r"^x0 = 'zzz' not in grid$"):
        binary.marginal_bounds_with_covariates(g, "zzz", "zzz")  # x0 is checked first
    with pytest.raises(MissingCell, match=r"^x1 = 'zzz' not in grid$"):
        binary.marginal_bounds_with_covariates(g, "a", "zzz")
    with pytest.raises(MissingCell, match=r"^x1 = 'zzz' not in grid$"):
        coupling_witness_binary(g, "c", "zzz", 0.3, 0.4)  # bounds first, then the pair


def test_conditional_bounds_example():
    g = InstrumentTable.from_cells({("a", "b"): validate_cells(0.2, 0.1, 0.3, 0.4)})
    p10_cond, p01_cond = binary.conditional_bounds(g, "a", "b")
    assert p10_cond.lo == pytest.approx(0.0)
    assert p10_cond.hi == pytest.approx(4.0 / 7.0)


def test_conditional_bounds_degenerate():
    g = InstrumentTable.from_cells({("a", "b"): validate_cells(0.0, 0.0, 0.5, 0.5)})
    with pytest.raises(DegenerateConditioning):
        binary.conditional_bounds(g, "a", "b")


def conditional_outcome(g, x0, x1) -> str:
    """What conditional_bounds(g, x0, x1) gives, with numpy warnings as errors:
    the name of the error it raises, or "bounds"."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            binary.conditional_bounds(g, x0, x1)
        except (InfeasibleModel, DegenerateConditioning) as exc:
            return type(exc).__name__
    return "bounds"


def test_conditional_bounds_reject_crossed_marginals():
    # E(Y0|x0="a") is [1.0, 0.4], which crosses: no counterfactual mean is
    # admissible, and the rescaling must not divide by 1 - 1.0.
    g = InstrumentTable.from_cells(
        {("a", "b"): validate_cells(0, 0, 1, 0), ("a", "c"): validate_cells(0.3, 0.3, 0.2, 0.2)}
    )
    ey0, _, crossed = binary.marginal_bounds_with_covariates(g, "a", "c")
    assert (ey0.lo, ey0.hi, crossed) == (1.0, pytest.approx(0.4), True)
    assert conditional_outcome(g, "a", "c") == "InfeasibleModel"
    with pytest.raises(InfeasibleModel, match=r"^covariate table at \('a', 'c'\) inconsistent"):
        binary.conditional_bounds(g, "a", "c")


def test_conditional_bounds_raise_exactly_when_marginals_cross():
    rng = oracle.make_rng(71)
    seen = {True: 0, False: 0}
    for i in range(300):
        n0, n1 = 1 + i % 3, 1 + (i // 3) % 3
        pairs = [(f"a{j}", f"b{k}") for j in range(n0) for k in range(n1) if rng.random() < 0.8]
        pairs = pairs or [("a0", "b0")]
        g = InstrumentTable.from_cells({p: validate_cells(*rng.dirichlet(np.full(4, 0.7))) for p in pairs})
        for x0, x1 in pairs:
            crossed = binary.marginal_bounds_with_covariates(g, x0, x1)[2]
            assert (conditional_outcome(g, x0, x1) == "InfeasibleModel") == crossed, (x0, x1, g.cells.tolist())
            seen[crossed] += 1
    assert min(seen.values()) >= 100, seen


def test_conditional_bounds_match_coupling_monte_carlo():
    rng = oracle.make_rng(21)
    cells = {}
    for a in ("a1", "a2"):
        for b in ("b1", "b2"):
            v = rng.dirichlet([3, 3, 3, 3])
            cells[(a, b)] = validate_cells(*v)
    g = InstrumentTable.from_cells(cells)
    ey0, ey1, crossed = binary.marginal_bounds_with_covariates(g, "a1", "b1")
    if crossed:
        pytest.skip("random grid rejected the model")
    n = 10**6
    for a_val in (ey0.lo, ey0.hi):
        w = coupling_witness_binary(g, "a1", "b1", a_val, ey1.lo)
        y0, y1, y, d = w.sample(n, oracle.make_rng(22))
        se = 3.0 * np.sqrt(a_val * (1 - a_val) / n + 1e-12)
        assert abs(y0.mean() - a_val) <= se + 1e-3


@settings(max_examples=40, deadline=None)
@given(cells_strategy())
def test_sharp_bounds_never_cross(q):
    b = binary.sharp_bounds(q)
    for iv in (b.p10_bound, b.p01_bound, b.ey0_bound, b.ey1_bound, b.ate_bound):
        assert not iv.crossed


@settings(max_examples=20, deadline=None)
@given(cells_strategy())
def test_interior_joint_is_member(q):
    b = binary.sharp_bounds(q)
    p = PotentialJoint(
        q.p_y0, 0.5 * q.q11, 0.5 * q.q10, 1.0 - q.p_y0 - 0.5 * q.q11 - 0.5 * q.q10
    )
    assert membership(roy_polytope(b), p)


def test_adding_instrument_points_never_widens():
    rng = oracle.make_rng(5)
    base = validate_cells(0.2, 0.1, 0.3, 0.4)
    cells = {"z1": base, "z2": validate_cells(0.22, 0.08, 0.33, 0.37)}
    t2 = InstrumentTable.from_cells(cells)
    b2 = binary.sharp_bounds_with_instrument(t2, tau_y=1.0)
    b1 = binary.sharp_bounds(base)
    assert b2.p10_bound.hi <= b1.p10_bound.hi + 1e-12
    assert b2.p01_bound.hi <= b1.p01_bound.hi + 1e-12
    assert b2.ey0_bound.lo >= b1.ey0_bound.lo - 1e-12


def test_ate_agrees_with_polytope_extrema():
    q = validate_cells(0.15, 0.25, 0.35, 0.25)
    b = binary.sharp_bounds(q)
    direct = polytope_extrema(roy_polytope(b), (0, 1, -1, 0))
    assert b.ate_bound.lo == pytest.approx(direct.lo, abs=1e-9)
    assert b.ate_bound.hi == pytest.approx(direct.hi, abs=1e-9)
