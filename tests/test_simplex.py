"""Pricing of a given basis: an optimal one is certified by two solves with
no pivot, and is the optimum that vertex enumeration finds; any other is
reported as not optimal, and a call without a basis is refused."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import space_from
from oracles import standard_form_enumerate
from splineqi.nearbest import assemble_constraints, solve_l1
from splineqi.simplex import solve_standard_form


def _priced_optimum(A, b, c):
    """The pricing of the basis that vertex enumeration finds optimal, and
    the enumeration's value and point."""
    value, basis, x = standard_form_enumerate(A, b, c)
    return solve_standard_form(A, b, c, basis=basis), value, x


def test_degenerate_rhs():
    A = np.array([[1.0, 0.0], [1.0, 1.0]])
    b = np.array([0.0, 1.0])
    c = np.array([0.0, 1.0])
    res, value, x = _priced_optimum(A, b, c)
    assert res.status == "optimal" and res.iterations == 0
    np.testing.assert_allclose(res.x, [0.0, 1.0], atol=1e-12)
    assert res.value == pytest.approx(1.0, abs=1e-12) and value == pytest.approx(1.0, abs=1e-12)


def test_zero_objective_returns_feasible_point():
    A = np.array([[1.0, 1.0, 1.0]])
    b = np.array([3.0])
    c = np.zeros(3)
    res, _, _ = _priced_optimum(A, b, c)
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
    res, value, x = _priced_optimum(A, b, c)
    assert res.status == "optimal" and res.iterations == 0
    np.testing.assert_allclose(res.x, x, atol=1e-9)
    assert res.value == pytest.approx(value, rel=1e-9, abs=1e-12)
    np.testing.assert_allclose(A @ res.x, b, atol=1e-8)
    assert (res.x >= -1e-9).all()
    assert res.value <= c @ x0 + 1e-9


# split l1 LP min |w|_1 s.t. V w = rhs on sites -1, -0.5, 0, 0.5, 1 with
# quadratic exactness: columns j = w_j >= 0 and 5 + j = -w_j >= 0
_X = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
_V = np.vstack([_X**r for r in range(3)])
_L1 = (np.hstack([_V, -_V]), np.array([1.0, 0.1, -0.2]), np.ones(10))


def test_optimal_basis_takes_no_iterations():
    res, value, x = _priced_optimum(*_L1)
    assert res.status == "optimal" and res.iterations == 0
    assert res.value == pytest.approx(value, rel=1e-14)
    np.testing.assert_allclose(res.x, x, atol=1e-14)


# split l1 LP with linear exactness on normalized sites 1e-12 apart: the
# centre alone (weight 1) is optimal, and so are other supports
_NEAR = np.array([-1.0, -1e-12, 0.0, 1e-12, 1.0])
_V_NEAR = np.vstack([_NEAR**0, _NEAR])
_L1_NEAR = (np.hstack([_V_NEAR, -_V_NEAR]), np.array([1.0, 0.0]), np.ones(10))


def test_optimal_basis_below_the_pivot_tolerance_is_certified():
    # the centre and its neighbour 1e-12 away: a tableau could not pivot
    # them in, as the second pivot would be 1e-12, below its old 1e-11
    # tolerance; pricing needs no pivot
    res = solve_standard_form(*_L1_NEAR, basis=[2, 3])
    assert res.status == "optimal" and res.iterations == 0
    assert res.x.tolist() == [0.0, 0.0, 1.0] + [0.0] * 7
    assert res.value == 1.0
    assert standard_form_enumerate(*_L1_NEAR)[0] == pytest.approx(1.0, rel=1e-14)


def test_rounding_on_basic_columns_does_not_refuse_an_optimal_basis():
    # geometric ratio 0.5, m = 7, p = 8, q = 7, index 17: cond(B) is about
    # 2e8 and the dual about 3e7, so c_B - B^T y rounds to -1.6e-9 on the
    # basic columns; their reduced costs are 0 by construction, and the
    # enumerated support is certified
    sp = space_from("geometric", 7, n=12, ratio=0.5)
    system = assemble_constraints(sp, 17, 8, 7, offsets=tuple(range(-8, 2)))
    assert solve_l1(system).certified


def test_a_basis_may_be_a_tuple():
    # a tuple must not index several axes of A or c
    listed = solve_standard_form(*_L1, basis=[2, 5, 9])
    res = solve_standard_form(*_L1, basis=(2, 5, 9))
    assert res.status == listed.status == "optimal"
    assert res.x.tobytes() == listed.x.tobytes()


# the optimal basis of _L1 is [2, 5, 9]; column 8 is not in it
_NAN_COLUMN = (np.where(np.arange(10) == 8, np.nan, _L1[0]), _L1[1], _L1[2])
_NAN_RHS = (_L1[0], np.array([1.0, np.nan, -0.2]), _L1[2])


@pytest.mark.parametrize("problem, basis", [
    (_L1, [5, 1, 2]),  # sites -1, -0.5, 0 with their signs: feasible, not optimal
    (_L1, [0, 1, 2]),  # the wrong signs: infeasible
    (_L1, [0, 5, 4]),  # a column and its negative: singular
    (_NAN_COLUMN, [2, 5, 9]),  # optimal but for a NaN reduced cost
    (_NAN_RHS, [2, 5, 9]),
], ids=["not-optimal", "infeasible", "singular", "nan-column", "nan-rhs"])
def test_a_basis_that_does_not_price_optimal_is_reported(problem, basis):
    # no other basis is searched for: nothing is pivoted
    res = solve_standard_form(*problem, basis=basis)
    assert (res.status, res.iterations) == ("not optimal", 0)
    assert res.x.tolist() == [0.0] * 10 and np.isnan(res.value)


def test_a_feasible_basis_that_is_not_optimal_costs_more_than_the_optimum():
    # the "not-optimal" basis above: its weights solve the exactness rows on
    # sites -1, -0.5, 0, and cost more than the enumerated optimum
    w = np.linalg.solve(_V[:, :3], _L1[1])
    assert [j if w[j] >= 0 else 5 + j for j in range(3)] == [5, 1, 2]
    assert float(np.abs(w).sum()) > standard_form_enumerate(*_L1)[0] + 1e-3


def test_inconsistent_dimensions_refused():
    A, b, c = _L1
    for args in ((A, b[:2], c), (A, b, c[:-1])):
        with pytest.raises(ValueError, match="^inconsistent LP dimensions$"):
            solve_standard_form(*args, basis=[2, 5, 9])


def test_a_basis_with_a_repeated_column_is_refused():
    # once priced as "not optimal", a repeated column is now refused with
    # the same message as any other basis of the wrong shape
    with pytest.raises(ValueError, match=r"^a basis needs 3 column indices in 0\.\.9, got "):
        solve_standard_form(*_L1, basis=[0, 0, 4])
    with pytest.raises(ValueError, match=r"^a basis needs 2 column indices in 0\.\.1, got "):
        solve_standard_form(np.eye(2), np.ones(2), np.ones(2), basis=[0, 0])


def test_basis_of_wrong_shape_refused():
    # too short, out of range, bools, floats: each is refused, as offsets
    # are, before numpy or the solves see it
    for basis in ([0, 1], [0, 1, 10], [True, True, False], [1.0, 2.0, 3.0],
                  np.array([1.0, 2.0, 3.0]), [0, 1, "2"]):
        with pytest.raises(ValueError, match=r"^a basis needs 3 column indices in 0\.\.9, got "):
            solve_standard_form(*_L1, basis=basis)
    # on a two-row LP too, where these reached numpy
    A, b, c = np.eye(2), np.ones(2), np.ones(2)
    for basis in ([True, True], [1.0, 2.0]):
        with pytest.raises(ValueError, match=r"^a basis needs 2 column indices in 0\.\.1, got "):
            solve_standard_form(A, b, c, basis=basis)
    # numpy integers are integers
    assert solve_standard_form(A, b, c, basis=np.array([0, 1])).status == "optimal"


def test_a_call_without_a_basis_is_refused():
    # the basis is a required argument: none is searched for
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'basis'"):
        solve_standard_form(*_L1)


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
