"""Derived operators and empirical studies built on the quasi-interpolants.

Integrating or differentiating the spline approximation S f instead of f
itself turns each operator into a quadrature rule / differentiation matrix
on the Greville sites. The convergence studies drive an operator across a
family of refined partitions and fit the observed order.

The table of operator kinds next to `OperatorRecipe` is the one place a
kind is mapped: to its builder, to whether it takes an offset radius p, to
the p and q its rows report, and to its interior norm bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .bspline import SplineFunction, SplineSpace
from .knots import KnotVector, PartitionSpec, generate_partition
from .nearbest import build_nearbest_qi
from .quasi_interp import (
    KIND_DQI,
    KIND_NEARBEST,
    KIND_Q2STAR,
    KIND_QP2STAR,
    QuasiInterpolant,
    _dqi_spline,
    _oracle_table,
    _real_samples,
    apply_qi,
    build_q2star,
    build_qp2star,
    greville_samples,
)

__all__ = [
    "QuadratureRule",
    "quadrature_from_qi",
    "DifferentiationMatrix",
    "differentiation_matrix",
    "TestFunction",
    "BUILTIN_FUNCTIONS",
    "KINDS",
    "OperatorRecipe",
    "operator_recipe",
    "evaluation_grid",
    "StudyRow",
    "StudyReport",
    "convergence_study",
    "differentiation_study",
]


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Weights over the Greville sites; integrates whatever the underlying
    operator reproduces exactly (polynomials up to its degree q)."""

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, samples: np.ndarray) -> float:
        """The rule on samples at the nodes; complex samples raise TypeError,
        and finite samples whose weighted sum overflows raise ValueError."""
        samples = _real_samples(samples)
        if samples.shape != self.nodes.shape:
            raise ValueError(
                f"expected {self.nodes.shape[0]} samples, got {samples.shape}"
            )
        with np.errstate(over="ignore"):
            estimate = float(np.dot(self.weights, samples))
        if not math.isfinite(estimate) and np.isfinite(samples).all():
            raise ValueError("the quadrature estimate overflows float64")
        return estimate

    def integrate_fn(self, fn: Callable[[float], float]) -> float:
        """The rule on fn, called once per node with a Python float; a
        complex value, Python's or numpy's, raises TypeError."""
        return self.integrate([fn(x) for x in self.nodes.tolist()])


def quadrature_from_qi(qi: QuasiInterpolant) -> QuadratureRule:
    """Integrate the spline output exactly: node k collects lambda_j(k - j)
    times the basis integral, over every stencil j touching k."""
    space = qi.space
    dim = space.dimension
    m = space.degree
    t = space.knots.t
    integrals = (t[m + 1 : m + 1 + dim] - t[:dim]) / (m + 1)
    # bincount adds each node's terms in row order, as the stencil loop did
    w = np.bincount(
        qi.sites.ravel(), weights=(qi.weights * integrals[:, None]).ravel(), minlength=dim
    )
    nodes = space.greville.copy()
    nodes.flags.writeable = False
    w.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=w)


# ---------------------------------------------------------------------------
# differentiation


@dataclass(frozen=True, eq=False)
class DifferentiationMatrix:
    """Maps samples at the Greville sites to derivative values there,
    by differentiating the spline the operator builds from the samples."""

    qi: QuasiInterpolant
    nodes: np.ndarray

    def apply(self, samples: np.ndarray) -> np.ndarray:
        """The derivative at the nodes; complex samples raise TypeError, and
        finite samples whose derivative overflows raise ValueError."""
        with np.errstate(over="ignore", invalid="ignore"):
            derivative = apply_qi(self.qi, samples)(self.nodes, 1)
        if not np.isfinite(derivative).all() and np.isfinite(samples).all():
            raise ValueError("the derivative overflows float64")
        return derivative


def differentiation_matrix(qi: QuasiInterpolant) -> DifferentiationMatrix:
    if qi.space.degree < 2:
        raise ValueError("differentiation needs degree >= 2")
    nodes = qi.space.greville.copy()
    nodes.flags.writeable = False
    return DifferentiationMatrix(qi=qi, nodes=nodes)


# ---------------------------------------------------------------------------
# test functions


@dataclass(frozen=True, eq=False)
class TestFunction:
    """Closed-form target with derivatives and (optionally) an antiderivative.

    ``value(x)`` returns f(x) and ``derivatives(x, k)`` the array f(x), f'(x),
    ..., f^(k)(x); the studies call both with Python floats, one point at a
    time. The built-in sin and exp are the exception: their ``derivatives``
    also take an array of points, and `derivative_table` makes one call.
    """

    name: str
    value: Callable[[float], float]
    derivatives: Callable[[float, int], np.ndarray]
    integral: Callable[[float, float], float] | None = None

    def derivative_table(self, xs, k: int) -> np.ndarray:
        """Rows f(x), f'(x), ..., f^(k)(x) for the points xs, shape
        xs.shape + (k+1,): one ``derivatives`` call per point, or one call
        in all for the built-in sin and exp."""
        xs = np.asarray(xs, dtype=float)
        if self.derivatives in _ARRAY_DERIVATIVES:
            return self.derivatives(xs, k)
        table = _oracle_table(xs.ravel(), lambda x: self.derivatives(x, k), k)
        return table.reshape(xs.shape + (k + 1,))


def _sin_derivs(x, k: int) -> np.ndarray:
    return np.sin(np.asarray(x)[..., None] + np.arange(k + 1) * (np.pi / 2.0))


def _exp_derivs(x, k: int) -> np.ndarray:
    return np.repeat(np.exp(np.asarray(x))[..., None], k + 1, axis=-1)


# derivatives that take a float or an array and round each point alike;
# runge stays per point, since numpy's complex division rounds differently
_ARRAY_DERIVATIVES = (_sin_derivs, _exp_derivs)


def _runge_derivs(x: float, k: int) -> np.ndarray:
    # 1/(1+25x^2) = Re[1/(1+5ix)]; differentiate the complex resolvent
    base = 1.0 / (1.0 + 5.0j * x)
    out = np.empty(k + 1)
    fact = 1.0
    power = 1.0 + 0.0j
    for order in range(k + 1):
        if order > 0:
            fact *= order
            power *= -5.0j
        out[order] = (fact * power * base ** (order + 1)).real
    return out


BUILTIN_FUNCTIONS = {
    "sin": TestFunction(
        name="sin",
        value=math.sin,
        derivatives=_sin_derivs,
        integral=lambda a, b: math.cos(a) - math.cos(b),
    ),
    "exp": TestFunction(
        name="exp",
        value=math.exp,
        derivatives=_exp_derivs,
        integral=lambda a, b: math.exp(b) - math.exp(a),
    ),
    "runge": TestFunction(
        name="runge",
        value=lambda x: 1.0 / (1.0 + 25.0 * x * x),
        derivatives=_runge_derivs,
        integral=lambda a, b: (math.atan(5.0 * b) - math.atan(5.0 * a)) / 5.0,
    ),
}


# ---------------------------------------------------------------------------
# operator recipes


class _Kind(NamedTuple):
    builder: Callable | None  # (space, p, q) -> operator; None: no stencil operator
    takes_p: bool
    reports: Callable  # the recipe's (p, q) -> the p and q its rows report
    bound: Callable  # (m, p, q) -> the interior norm bound, None where none is proven


def _wide_bound(m: int, p: int, q: int) -> float | None:
    # the qp2star bound (m+1)/(m-1), proven for m >= 2
    return None if m < 2 else (m + 1) / (m - 1)


# The builders are called through this module's names, so a wrapper
# installed on them (a tracer, a test's monkeypatch) sees every build.
_KINDS = {
    KIND_DQI: _Kind(None, False, lambda p, q: ("", ""), lambda m, p, q: None),
    KIND_Q2STAR: _Kind(lambda space, p, q: build_q2star(space), False, lambda p, q: (1, 2),
                       lambda m, p, q: float((m + 4) // 2)),
    KIND_QP2STAR: _Kind(lambda space, p, q: build_qp2star(space, p), True, lambda p, q: (p, 2),
                        _wide_bound),
    KIND_NEARBEST: _Kind(lambda space, p, q: build_nearbest_qi(space, p, q), True,
                         lambda p, q: (p, q),
                         lambda m, p, q: None if q > 2 or p < m else _wide_bound(m, p, q)),
}
KINDS = tuple(_KINDS)


@dataclass(frozen=True)
class OperatorRecipe:
    """Deferred operator construction, reusable across partition sizes."""

    kind: str
    p: int | None = None
    q: int = 2

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if _KINDS[self.kind].takes_p:
            if self.p is None:
                raise ValueError(f"kind {self.kind!r} requires an offset radius p")
        elif self.p is not None:
            raise ValueError(f"kind {self.kind!r} does not take an offset radius")

    def build(self, space: SplineSpace) -> QuasiInterpolant:
        builder = _KINDS[self.kind].builder
        if builder is None:
            raise ValueError(f"kind {self.kind!r} has no stencil operator")
        return builder(space, self.p, self.q)

    def approximate(self, space: SplineSpace, f: TestFunction) -> SplineFunction:
        if _KINDS[self.kind].builder is None:
            return _dqi_spline(space, f.derivative_table(space.greville, space.degree))
        qi = self.build(space)
        return apply_qi(qi, greville_samples(space, f.value))

    @property
    def reported_pq(self) -> tuple:
        """The p and q the operator's rows report: the stencil radius and
        exactness degree it is built with ("" for dqi, which has neither)."""
        return _KINDS[self.kind].reports(self.p, self.q)

    def bound(self, m: int) -> float | None:
        """The kind's partition-independent interior norm bound on degree m,
        or None where none is proven: dqi has no stencil, and near-best
        inherits (m+1)/(m-1) from the qp2star weights, which are exact only
        to degree 2, need p >= m and have no bound for m = 1."""
        return _KINDS[self.kind].bound(m, self.p, self.q)


def operator_recipe(kind: str, p: int | None = None, q: int = 2) -> OperatorRecipe:
    """The recipe of one kind; refuses an unknown kind, and a radius p the
    kind needs but lacks or does not take."""
    return OperatorRecipe(kind=kind, p=p, q=q)


# ---------------------------------------------------------------------------
# convergence studies


def evaluation_grid(kv: KnotVector) -> np.ndarray:
    """11 points per knot span, deduplicated; dense enough for sup norms."""
    m, n = kv.degree, kv.n
    return np.unique(np.linspace(kv.t[m : m + n], kv.t[m + 1 : m + n + 1], 11, axis=1))


@dataclass(frozen=True, eq=False)
class StudyRow:
    """One size of a study; its orders are those of the first of `errors`."""

    n: int
    h_max: float
    errors: tuple[float, ...]
    order_running: float


@dataclass(frozen=True, eq=False)
class StudyReport:
    rows: tuple[StudyRow, ...]
    fitted_order: float


def _fit_order(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log err against log h over the finest half;
    NaN where the h values are too close for a slope (rank below 2)."""
    valid = [(h, e) for h, e in points if e > 0.0]
    tail = valid[len(valid) // 2 :]
    if len(tail) < 2 or len({h for h, _ in tail}) < 2:
        return float("nan")
    logs_h = np.log([h for h, _ in tail])
    logs_e = np.log([e for _, e in tail])
    coeffs, _, rank, _, _ = np.polyfit(logs_h, logs_e, 1, full=True)
    return float(coeffs[0]) if rank == 2 else float("nan")


def _running_order(prev: tuple[float, float] | None, h: float, err: float) -> float:
    if prev is None:
        return float("nan")
    h_prev, err_prev = prev
    if err_prev <= 0.0 or err <= 0.0 or h_prev == h:
        return float("nan")
    return float(np.log(err_prev / err) / np.log(h_prev / h))


def _study(errors: Callable[[OperatorRecipe, TestFunction, SplineSpace], tuple[float, ...]],
           recipe: OperatorRecipe, f: TestFunction, sizes: tuple[int, ...],
           template: PartitionSpec, degree: int) -> StudyReport:
    """One row of `errors` per size, in increasing order, and the orders."""
    rows: list[StudyRow] = []
    for n in sorted(sizes):
        space = SplineSpace.from_knots(generate_partition(replace(template, n=n), degree))
        errs = errors(recipe, f, space)
        h = float(space.knots.steps.max())
        prev = (rows[-1].h_max, rows[-1].errors[0]) if rows else None
        rows.append(StudyRow(n, h, errs, _running_order(prev, h, errs[0])))
    return StudyReport(tuple(rows), _fit_order([(r.h_max, r.errors[0]) for r in rows]))


def _sup_error(recipe: OperatorRecipe, f: TestFunction, space: SplineSpace) -> tuple[float]:
    approx = recipe.approximate(space, f)
    grid = evaluation_grid(space.knots)
    exact = np.fromiter(map(f.value, grid.tolist()), float, len(grid))
    return (float(np.abs(approx(grid) - exact).max()),)


def _derivative_errors(recipe: OperatorRecipe, f: TestFunction,
                       space: SplineSpace) -> tuple[float, float]:
    D = differentiation_matrix(recipe.build(space))
    samples = greville_samples(space, f.value)
    exact = f.derivative_table(space.greville, 1)[:, 1]
    diff = np.abs(D.apply(samples) - exact)
    lo, hi = space.degree + 1, space.dimension - space.degree - 2
    interior = diff[lo : hi + 1] if hi >= lo else diff
    return (float(interior.max()), float(diff.max()))


def convergence_study(recipe: OperatorRecipe, f: TestFunction, sizes: tuple[int, ...],
                      template: PartitionSpec, degree: int) -> StudyReport:
    """Sup-norm error of the operator's approximation to f across sizes:
    each row's `errors` is (the sup error on `evaluation_grid`,)."""
    return _study(_sup_error, recipe, f, sizes, template, degree)


def differentiation_study(recipe: OperatorRecipe, f: TestFunction, sizes: tuple[int, ...],
                          template: PartitionSpec, degree: int) -> StudyReport:
    """Max error of the differentiation matrix at the Greville sites: each
    row's `errors` is (interior rows, all rows). Rates are fitted on the
    interior rows, since boundary stencils lose an order."""
    return _study(_derivative_errors, recipe, f, sizes, template, degree)
