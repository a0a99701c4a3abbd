"""Dense simplex: classic stress cases, randomized feasibility, and warm
starts from a given basis."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import space_from
from splineqi.nearbest import assemble_constraints, solve_l1
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


def _klee_minty(d):
    """Klee and Minty's cube in dimension d with its slacks, as a minimum:
    Bland's rule visits a number of vertices that grows like a Fibonacci
    sequence in d."""
    A = np.zeros((d, 2 * d))
    for i in range(d):
        A[i, :i] = 2.0 ** np.arange(i + 1, 1, -1)
        A[i, i] = A[i, d + i] = 1.0
    b = 5.0 ** np.arange(1, d + 1)
    c = np.concatenate([-(2.0 ** np.arange(d - 1, -1, -1)), np.zeros(d)])
    return A, b, c


def test_iteration_cap():
    # the cap is 10 iterations per column: 177 pivots fit within 200 at
    # d = 10, and d = 11 needs more than 220
    res = solve_standard_form(*_klee_minty(10))
    assert res.status == "optimal" and res.iterations == 177
    assert res.value == pytest.approx(-(5.0**10), rel=1e-12)
    with pytest.raises(RuntimeError, match=r"iteration cap \(220\)"):
        solve_standard_form(*_klee_minty(11))


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


# split l1 LP min |w|_1 s.t. V w = rhs on sites -1, -0.5, 0, 0.5, 1 with
# quadratic exactness: columns j = w_j >= 0 and 5 + j = -w_j >= 0
_X = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
_V = np.vstack([_X**r for r in range(3)])
_L1 = (np.hstack([_V, -_V]), np.array([1.0, 0.1, -0.2]), np.ones(10))


def _same_optimum(res, cold):
    assert res.status == cold.status == "optimal"
    assert res.value == pytest.approx(cold.value, rel=1e-14)
    np.testing.assert_allclose(res.x, cold.x, atol=1e-14)


def test_optimal_basis_takes_no_iterations():
    cold = solve_standard_form(*_L1)
    assert cold.iterations > 0
    basis = [int(j) for j in np.flatnonzero(cold.x > 1e-12)]
    assert len(basis) == 3
    res = solve_standard_form(*_L1, basis=basis)
    assert res.iterations == 0
    _same_optimum(res, cold)


def test_feasible_basis_pivots_on_to_the_optimum():
    cold = solve_standard_form(*_L1)
    # sites -1, -0.5, 0 with the signs of their square system's solution
    w = np.linalg.solve(_V[:, :3], _L1[1])
    basis = [j if w[j] >= 0 else 5 + j for j in range(3)]
    assert float(np.abs(w).sum()) > cold.value + 1e-3
    res = solve_standard_form(*_L1, basis=basis)
    assert res.iterations > 0
    _same_optimum(res, cold)


@pytest.mark.parametrize("basis", [
    [0, 1, 2],  # the wrong signs: the basic solution is infeasible
    [0, 0, 4],  # a repeated column: no pivot for the second
    [0, 5, 4],  # a column and its negative: singular
])
def test_unusable_basis_falls_back_to_two_phase(basis):
    cold = solve_standard_form(*_L1)
    res = solve_standard_form(*_L1, basis=basis)
    assert res.iterations == cold.iterations
    np.testing.assert_array_equal(res.x, cold.x)


def test_inconsistent_dimensions_refused():
    A, b, c = _L1
    for args in ((A, b[:2], c), (A, b, c[:-1])):
        with pytest.raises(ValueError, match="^inconsistent LP dimensions$"):
            solve_standard_form(*args)


def test_basis_of_wrong_shape_refused():
    with pytest.raises(ValueError, match="basis"):
        solve_standard_form(*_L1, basis=[0, 1])
    with pytest.raises(ValueError, match="basis"):
        solve_standard_form(*_L1, basis=[0, 1, 10])


@pytest.mark.parametrize("p, i", [(2, 2), (2, 12), (3, 3), (3, 11), (4, 4), (4, 10)])
def test_tied_optima_take_the_lexicographically_first_support(p, i):
    # uniform cubic rows where two supports reach the optimum with different
    # weights; the solver keeps the first in lexicographic order
    sp = space_from("uniform", 3, n=12)
    offsets = tuple(range(max(-p, -i), min(p, sp.dimension - 1 - i) + 1))
    system = assemble_constraints(sp, i, p, 2, offsets=offsets)
    solutions = []
    for cols in itertools.combinations(range(len(offsets)), 3):
        w = np.zeros(len(offsets))
        w[list(cols)] = np.linalg.solve(system.matrix[:, cols], system.rhs)
        solutions.append(w)
    best = min(np.abs(w).sum() for w in solutions)
    tied = [w for w in solutions if np.abs(w).sum() <= best * (1 + 1e-12)]
    assert len(tied) >= 2 and np.abs(tied[0] - tied[1]).max() > 0.1
    np.testing.assert_allclose(solve_l1(system).weights, tied[0], atol=1e-14)
