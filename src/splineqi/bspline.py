"""B-spline basis evaluation and spline evaluation with derivatives.

Evaluation uses the standard triangular recurrence on the active knot span;
the span lookup is right-continuous (half-open spans) except at the right
endpoint, which belongs to the last span. Derivatives are exact, obtained by
coefficient differencing down to the requested order, so they are one-sided
at knots in the same way. Each routine takes one point (a float) or many
(an ndarray); the span is then an int or an array of the points' shape.
One point is evaluated in Python floats: the knots come from the space's
cached tuple and the span from `bisect`, while the recurrence and the
differencing are the ones an array takes. Its final dot is BLAS `ddot` on a
unit-stride slice of the active coefficients, the kernel `np.vecdot` runs
on an array's rows, so a point gives the same bits as a float or inside an
array. A strided slice can round differently, so a point reads a
contiguous copy of such a slice.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass

import numpy as np

from .knots import GrevilleGrid, KnotVector, central_moment_table, greville_grid


@dataclass(frozen=True, eq=False)
class SplineSpace:
    """Knot vector plus its cached Greville grid. Immutable, safe to share."""

    knots: KnotVector
    grid: GrevilleGrid

    @classmethod
    def from_knots(cls, kv: KnotVector) -> "SplineSpace":
        return cls(knots=kv, grid=greville_grid(kv))

    @property
    def degree(self) -> int:
        return self.knots.degree

    @property
    def dimension(self) -> int:
        return self.knots.dimension

    @property
    def greville(self) -> np.ndarray:
        return self.grid.theta

    @functools.cached_property
    def central_moments(self) -> np.ndarray:
        """Row i: the central moment coefficients a_0 .. a_m of index i's
        knot window, the weights of D^s f(theta_i) / s! in the differential
        quasi-interpolant, for every index at once, computed on first use."""
        return central_moment_table(self.knots, self.grid.theta)

    @functools.cached_property
    def knot_tuple(self) -> tuple:
        """The knots as a tuple of Python floats, built on first use: what
        one-point evaluation reads instead of the array."""
        return tuple(self.knots.t.tolist())


@dataclass(frozen=True, eq=False)
class SplineFunction:
    """Spline in a SplineSpace, represented by its basis coefficients."""

    space: SplineSpace
    coefficients: np.ndarray

    def __call__(self, x, derivative_order: int = 0):
        return eval_spline(self, x, derivative_order)


def _find_span(space: SplineSpace, x) -> tuple:
    """The knots to read and the index k with t[k] <= x < t[k+1] (last span
    at x = b): the array and an array of spans for an array x, the cached
    tuple and an int for a point."""
    kv = space.knots
    m = kv.degree
    if isinstance(x, np.ndarray):
        inside = (kv.a <= x) & (x <= kv.b)
        if not inside.all():
            raise ValueError(f"x={x[~inside].flat[0]} outside [{kv.a}, {kv.b}]")
        return kv.t, m + np.searchsorted(kv.t[m + 1 : m + kv.n], x, side="right")
    t = space.knot_tuple
    if not t[0] <= x <= t[-1]:
        raise ValueError(f"x={x} outside [{kv.a}, {kv.b}]")
    return t, bisect.bisect_right(t, x, m + 1, m + kv.n) - 1


def _basis_values(t, span, deg: int, x) -> list:
    """Values of the deg+1 active basis functions, each a float or like x."""
    values = [1.0]
    left = [0.0]
    right = [0.0]
    for j in range(1, deg + 1):
        left.append(x - t[span + 1 - j])
        right.append(t[span + j] - x)
        saved = 0.0
        for r in range(j):
            right_r = right[r + 1]
            left_r = left[j - r]
            tmp = values[r] / (right_r + left_r)
            values[r] = saved + right_r * tmp
            saved = left_r * tmp
        values.append(saved)
    return values


def _rows(entries: list):
    """The per-span list as an array with one C-contiguous row per point."""
    many = isinstance(entries[-1], np.ndarray)
    return np.stack(entries, axis=-1) if many else np.array(entries)


def eval_basis(space: SplineSpace, x) -> tuple:
    """Evaluate all basis functions that are nonzero at x.

    Returns (first_active_index, values); values has m+1 entries summing
    to 1 and covers indices first_active .. first_active + m. For an array
    x both gain its shape as leading axes.
    """
    m = space.degree
    t, span = _find_span(space, x)
    return span - m, _rows(_basis_values(t, span, m, x))


def eval_spline(f: SplineFunction, x, derivative_order: int = 0):
    """Evaluate a spline or one of its derivatives at x.

    Returns a float for a float and an array of x's shape for an array.
    Orders above the degree return exactly 0. At a knot the value is the
    limit from the right (from the left at x = b).
    """
    if derivative_order < 0:
        raise ValueError("derivative order must be >= 0")
    kv = f.space.knots
    m = kv.degree
    t, span = _find_span(f.space, x)
    many = isinstance(x, np.ndarray)
    coeffs = np.asarray(f.coefficients, dtype=float)
    if coeffs.shape != (kv.n + m,):
        raise ValueError(
            f"coefficient vector has length {coeffs.shape}, space needs {kv.n + m}"
        )
    if derivative_order > m:
        return np.zeros(x.shape) if many else 0.0
    first = span - m
    # difference only the m+1 coefficients active on the span; entry l of
    # the order-r coefficients belongs to basis index first + l
    if many:
        local = [coeffs[first + l] for l in range(m + 1)]
    else:
        # ddot rounds a unit-stride slice as vecdot rounds an array's row
        local = np.ascontiguousarray(coeffs[first : first + m + 1])
        if derivative_order:
            local = local.tolist()
    deg = m
    for r in range(1, derivative_order + 1):
        local = [deg * (local[l + 1] - local[l]) / (t[span + 1 + l] - t[first + r + l])
                 for l in range(deg)]
        deg -= 1
    values = _basis_values(t, span, deg, x)
    if many:
        return np.vecdot(_rows(values), _rows(local))
    if derivative_order:
        local = np.array(local)
    return float(local.dot(values))


def eval_basis_derivative(space: SplineSpace, x) -> tuple:
    """First derivatives of the m+1 active basis functions at x.

    Returns (first_active_index, derivative values), consistent in indexing
    and shape with eval_basis. Uses the degree-lowering identity, so the
    values are exact one-sided derivatives.
    """
    m = space.degree
    t, span = _find_span(space, x)
    # entry l of the degree-(m-1) values belongs to knots t[j .. j+m], j = span-m+1+l
    inner = _basis_values(t, span, m - 1, x)
    scaled = [0.0, *(m * v / (t[span + 1 + l] - t[span - m + 1 + l])
                     for l, v in enumerate(inner)), 0.0]
    return span - m, _rows([u - v for u, v in zip(scaled, scaled[1:])])
