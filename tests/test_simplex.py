"""Dense two-phase simplex: classic stress cases plus randomized feasibility."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from splineqi.simplex import solve_standard_form


def test_beale_cycling_example():
    # smallest-index pivoting must terminate on this classic cycler
    A = np.array(
        [
            [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
            [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ]
    )
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    res = solve_standard_form(A, b, c)
    assert res.status == "optimal"
    assert res.value == pytest.approx(-0.05, abs=1e-10)
    np.testing.assert_allclose(A @ res.x, b, atol=1e-12)
    assert (res.x >= -1e-12).all()


def test_unbounded():
    A = np.array([[1.0, -1.0]])
    b = np.array([1.0])
    c = np.array([-1.0, 0.0])
    res = solve_standard_form(A, b, c)
    assert res.status == "unbounded"


def test_infeasible():
    A = np.array([[1.0, 1.0]])
    b = np.array([-1.0])
    c = np.array([1.0, 1.0])
    res = solve_standard_form(A, b, c)
    assert res.status == "infeasible"


# column 0 prices below -pivot_tol in phase 1 (its entries sum to 1.2e-11)
# but has no entry above pivot_tol to pivot on: an "unbounded" phase 1
_TINY_COLUMN = np.array([[6e-12, 1.0], [6e-12, -1.0]])


def test_phase1_unbounded_at_zero_objective_continues():
    res = solve_standard_form(_TINY_COLUMN, np.zeros(2), np.array([1.0, 1.0]))
    assert res.status == "optimal"
    assert res.value == 0.0


def test_phase1_unbounded_away_from_zero_raises():
    with pytest.raises(RuntimeError, match="phase-1 objective unbounded"):
        solve_standard_form(_TINY_COLUMN, np.ones(2), np.array([1.0, 1.0]))


def test_redundant_rows_driven_out():
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    b = np.array([1.0, 2.0])
    c = np.array([1.0, 0.0])
    res = solve_standard_form(A, b, c)
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x, [0.0, 1.0], atol=1e-12)
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_degenerate_rhs():
    A = np.array([[1.0, 0.0], [1.0, 1.0]])
    b = np.array([0.0, 1.0])
    c = np.array([0.0, 1.0])
    res = solve_standard_form(A, b, c)
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x, [0.0, 1.0], atol=1e-12)
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_iteration_cap():
    A = np.array(
        [
            [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
            [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ]
    )
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    with pytest.raises(RuntimeError, match="iteration cap"):
        solve_standard_form(A, b, c, max_iter=1)


def test_zero_objective_returns_feasible_point():
    A = np.array([[1.0, 1.0, 1.0]])
    b = np.array([3.0])
    c = np.zeros(3)
    res = solve_standard_form(A, b, c)
    assert res.status == "optimal"
    assert res.value == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(A @ res.x, b, atol=1e-12)


@given(st.integers(0, 500))
def test_random_feasible_problems(seed):
    # b = A @ x0 with x0 >= 0 guarantees feasibility; c >= 0 bounds the value
    rng = np.random.default_rng(seed)
    rows = rng.integers(1, 5)
    cols = rows + rng.integers(1, 6)
    A = rng.uniform(-1.0, 1.0, (rows, cols))
    x0 = rng.uniform(0.0, 2.0, cols)
    b = A @ x0
    c = rng.uniform(0.0, 1.0, cols)
    res = solve_standard_form(A, b, c)
    assert res.status == "optimal"
    np.testing.assert_allclose(A @ res.x, b, atol=1e-8)
    assert (res.x >= -1e-9).all()
    assert res.value <= c @ x0 + 1e-9
