import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roybounds.errors import Infeasible, NegativeMass, NotNormalized
from roybounds.probability import (
    CellProbs,
    InstrumentTable,
    IntervalBound,
    SimplexPolytope,
    validate_cells,
)

from geometry import contains, contains_interval, contains_points, membership, polytope_extrema, simplex_grid, unit
from witnesses import PotentialJoint


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
        InstrumentTable(("a",), [[0.25, 0.25, 0.25, 0.25]], [-0.5])


def test_instrument_table_checks_its_arrays_once():
    ok = [0.25, 0.25, 0.25, 0.25]
    with pytest.raises(ValueError, match="duplicate"):
        InstrumentTable(("a", "a"), [ok, ok], [0.5, 0.5])
    with pytest.raises(ValueError, match="at least one"):
        InstrumentTable((), np.empty((0, 4)), [])
    with pytest.raises(ValueError, match="at least one"):
        InstrumentTable.from_cells({})
    with pytest.raises(NotNormalized, match="weights sum to 1.1"):
        InstrumentTable(("a", "b"), [ok, ok], [0.5, 0.6])
    # The first bad row is reported, as validate_cells reports it.
    with pytest.raises(NegativeMass, match=r"\[ 0.5 -0.1  0.3  0.3\]"):
        InstrumentTable(("a", "b", "c"), [ok, [0.5, -0.1, 0.3, 0.3], [0.5] * 4], [0.25, 0.25, 0.5])
    with pytest.raises(NotNormalized, match="sum to 1.1$"):
        InstrumentTable(("a", "b", "c"), [ok, [0.5, 0.1, 0.2, 0.3], [0.5, -1, 0, 0]], [0.25, 0.25, 0.5])
    with pytest.raises(NotNormalized, match="sum to nan"):
        InstrumentTable(("a",), [[np.nan, 0, 0, 1]], [1.0])
    # No second renormalization: drift within tolerance stays as given.
    drift = [0.25, 0.25, 0.25, 0.25 + 5e-10]
    t = InstrumentTable(("a",), [drift], [1.0])
    assert t.cells.tolist() == [drift]
    assert not t.cells.flags.writeable and not t.weights.flags.writeable
    with pytest.raises(KeyError):
        t.cell("b")


def test_instrument_table_from_sums_renormalizes_each_row_once():
    sums = np.array([[1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 2.0, 2.0 + 1e-9]])
    t = InstrumentTable.from_sums(["a", "b"], sums, np.array([10.0, 8.0]))
    rows = [validate_cells(*(row / tot)).as_array() for row, tot in zip(sums, (10.0, 8.0))]
    assert t.cells.tobytes() == np.array(rows).tobytes()
    assert t.weights.tolist() == [10.0 / 18.0, 8.0 / 18.0]
    assert t.labels == ("a", "b") and t.cell("b").as_array().tobytes() == rows[1].tobytes()


def test_full_simplex_extrema():
    p = SimplexPolytope(halfspaces=())
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
    inside = grid[contains_points(p, grid)]
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
    full = SimplexPolytope(halfspaces=())
    assert membership(full, PotentialJoint(0.25, 0.25, 0.25, 0.25))
    p = SimplexPolytope.from_rows([(tuple(unit(2)), 0.3)])
    assert not membership(p, PotentialJoint(0.3, 0.0, 0.31, 0.39))
    eq = SimplexPolytope.from_rows([(tuple(unit(0)), 0.3), (tuple(-unit(0)), -0.3)])
    assert membership(eq, PotentialJoint(0.3, 0.3, 0.2, 0.2))


def test_vertices_satisfy_membership():
    p = SimplexPolytope.from_rows([(tuple(unit(2)), 0.3), (tuple(unit(1)), 0.4)])
    verts = p.vertices()
    assert len(verts) > 0
    assert contains_points(p, verts).all()


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
    inside = grid[contains_points(p, grid)]
    if len(inside):
        vals = inside @ c
        assert vals.min() >= b.lo - 1e-9
        assert vals.max() <= b.hi + 1e-9


def test_interval_bound_utilities():
    b = IntervalBound(-0.2, 1.4, sharp=True)
    c = b.clamp()
    assert (c.lo, c.hi) == (0.0, 1.0)
    assert contains(b, 0.5)
    assert contains_interval(IntervalBound(0.1, 0.9, sharp=True), IntervalBound(0.2, 0.8, sharp=True))
    assert IntervalBound(0.6, 0.4, sharp=True).crossed
    d = IntervalBound(np.inf, -np.inf, sharp=True).to_dict()
    assert d["lo"] == "+inf" and d["hi"] == "-inf"


def test_potential_joint_rejects_negative_or_unnormalized_mass():
    assert PotentialJoint(0.1, 0.2, 0.3, 0.4).ey1 == pytest.approx(0.6)
    with pytest.raises(NegativeMass):
        PotentialJoint(-0.1, 0.5, 0.3, 0.3)
    for masses in ((0.3, 0.3, 0.3, 0.3), (np.nan, 0.5, 0.25, 0.25)):  # a nan sum fails too
        with pytest.raises(NotNormalized):
            PotentialJoint(*masses)


def test_simplex_grid_counts():
    g = simplex_grid(0.1)
    assert len(g) == 286  # C(13, 3)
    assert np.allclose(g.sum(axis=1), 1.0)
