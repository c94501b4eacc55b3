import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roybounds.errors import Infeasible, NegativeMass, NotNormalized
from roybounds.probability import (
    CellProbs,
    InstrumentTable,
    IntervalBound,
    PotentialJoint,
    SimplexPolytope,
    membership,
    polytope_extrema,
    simplex_grid,
    unit,
    validate_cells,
)


def cells_strategy():
    return st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4).map(
        lambda v: validate_cells(*(np.array(v) / sum(v)))
    )


def test_validate_cells_identity():
    q = validate_cells(0.2, 0.1, 0.3, 0.4)
    assert (q.q00, q.q01, q.q10, q.q11) == (0.2, 0.1, 0.3, 0.4)


def test_validate_cells_uniform():
    q = validate_cells(0.25, 0.25, 0.25, 0.25)
    assert q.p_y1 == 0.5 and q.p_d1 == 0.5


def test_validate_cells_not_normalized():
    with pytest.raises(NotNormalized):
        validate_cells(0.5, 0.5, 0.1, 0.0)


def test_validate_cells_negative():
    with pytest.raises(NegativeMass):
        validate_cells(-0.1, 0.5, 0.3, 0.3)


def test_validate_cells_rejects_non_finite():
    for bad in (np.nan, np.inf):
        with pytest.raises(NotNormalized):
            validate_cells(bad, 0.0, 0.0, 1.0)
        with pytest.raises(NotNormalized):
            CellProbs(bad, 0.0, 0.0, 1.0)
    with pytest.raises(NegativeMass):
        validate_cells(-np.inf, 0.0, 0.0, 1.0)


def test_validate_cells_renormalizes_drift():
    q = validate_cells(0.25, 0.25, 0.25, 0.25 + 5e-10)
    assert abs(sum(q.as_array()) - 1.0) < 1e-15


def test_instrument_table_pooling():
    t = InstrumentTable.from_cells(
        {"a": validate_cells(0.2, 0.1, 0.3, 0.4), "b": validate_cells(0.4, 0.1, 0.1, 0.4)},
        weights={"a": 0.25, "b": 0.75},
    )
    pooled = t.pooled()
    assert pooled.q00 == pytest.approx(0.25 * 0.2 + 0.75 * 0.4)


def test_instrument_table_bad_weights():
    with pytest.raises(NegativeMass):
        InstrumentTable(((("a"), validate_cells(0.25, 0.25, 0.25, 0.25), -0.5),))


def test_full_simplex_extrema():
    p = SimplexPolytope.full_simplex()
    b = polytope_extrema(p, (0, 0, 1, 0))
    assert (b.lo, b.hi) == (0.0, 1.0)


def test_constrained_extrema_matches_grid():
    rows = [
        (tuple(unit(2)), 0.3),
        (tuple(unit(1)), 0.4),
        (tuple(unit(0)), 0.3),
        (tuple(-unit(0)), -0.3),
    ]
    p = SimplexPolytope.from_rows(rows)
    b = polytope_extrema(p, (0, 0, 1, 1))
    assert b.lo == pytest.approx(0.3, abs=1e-9)
    assert b.hi == pytest.approx(0.7, abs=1e-9)
    # dense grid cross-check
    grid = simplex_grid(0.01)
    inside = grid[p.contains_points(grid)]
    vals = inside @ np.array([0.0, 0.0, 1.0, 1.0])
    assert vals.min() == pytest.approx(b.lo, abs=2e-2)
    assert vals.max() == pytest.approx(b.hi, abs=2e-2)


def test_infeasible_polytope():
    rows = [(tuple(unit(0)), 0.1), (tuple(-unit(0)), -0.2)]
    p = SimplexPolytope.from_rows(rows)
    assert not p.is_feasible()
    with pytest.raises(Infeasible):
        polytope_extrema(p, (1, 0, 0, 0))


def test_membership_cases():
    full = SimplexPolytope.full_simplex()
    assert membership(full, PotentialJoint(0.25, 0.25, 0.25, 0.25))
    p = SimplexPolytope.from_rows([(tuple(unit(2)), 0.3)])
    assert not membership(p, PotentialJoint(0.3, 0.0, 0.31, 0.39))
    eq = SimplexPolytope.from_rows([(tuple(unit(0)), 0.3), (tuple(-unit(0)), -0.3)])
    assert membership(eq, PotentialJoint(0.3, 0.3, 0.2, 0.2))


def test_vertices_satisfy_membership():
    p = SimplexPolytope.from_rows([(tuple(unit(2)), 0.3), (tuple(unit(1)), 0.4)])
    verts = p.vertices()
    assert len(verts) > 0
    assert p.contains_points(verts).all()


def test_extrema_attained_at_vertices():
    p = SimplexPolytope.from_rows([(tuple(unit(3)), 0.6), (tuple(unit(0)), 0.5)])
    c = np.array([0.2, -0.1, 0.4, 0.9])
    b = polytope_extrema(p, c)
    vals = p.vertices() @ c
    assert b.lo == pytest.approx(vals.min())
    assert b.hi == pytest.approx(vals.max())


@settings(max_examples=25, deadline=None)
@given(cells_strategy())
def test_random_polytopes_grid_vs_vertices(q):
    rows = [
        (tuple(unit(2)), q.q10 + 0.05),
        (tuple(unit(1)), q.q11 + 0.05),
        (tuple(unit(0) + unit(3)), q.p_y0 + 0.2),
    ]
    p = SimplexPolytope.from_rows(rows)
    if not p.is_feasible():
        return
    c = np.array([0.0, 1.0, -1.0, 0.5])
    b = polytope_extrema(p, c)
    grid = simplex_grid(0.02)
    inside = grid[p.contains_points(grid)]
    if len(inside):
        vals = inside @ c
        assert vals.min() >= b.lo - 1e-9
        assert vals.max() <= b.hi + 1e-9


def test_interval_bound_utilities():
    b = IntervalBound(-0.2, 1.4)
    c = b.clamp()
    assert (c.lo, c.hi) == (0.0, 1.0)
    assert b.contains(0.5)
    assert IntervalBound(0.1, 0.9).contains_interval(IntervalBound(0.2, 0.8))
    assert IntervalBound(0.6, 0.4).crossed
    d = IntervalBound(np.inf, -np.inf).to_dict()
    assert d["lo"] == "+inf" and d["hi"] == "-inf"


def test_simplex_grid_counts():
    g = simplex_grid(0.1)
    assert len(g) == 286  # C(13, 3)
    assert np.allclose(g.sum(axis=1), 1.0)
