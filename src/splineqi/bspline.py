"""B-spline basis evaluation, spline evaluation with derivatives, integrals.

Evaluation uses the standard triangular recurrence on the active knot span;
the span lookup is right-continuous (half-open spans) except at the right
endpoint, which belongs to the last span. Derivatives are exact, obtained by
coefficient differencing down to the requested order, so they are one-sided
at knots in the same way. Each routine takes one point (a float) or many
(an ndarray); the span is then an int or an array of the points' shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .knots import GrevilleGrid, KnotVector, greville_grid


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


@dataclass(frozen=True, eq=False)
class SplineFunction:
    """Spline in a SplineSpace, represented by its basis coefficients."""

    space: SplineSpace
    coefficients: np.ndarray

    def __call__(self, x, derivative_order: int = 0):
        return eval_spline(self, x, derivative_order)


def _find_span(kv: KnotVector, x):
    """Knot array index k with t[k] <= x < t[k+1] (last span at x = b)."""
    m, t = kv.degree, kv.t
    many = isinstance(x, np.ndarray)
    inside = (kv.a <= x) & (x <= kv.b)
    if not (inside.all() if many else inside):
        raise ValueError(f"x={x[~inside].flat[0] if many else x} outside [{kv.a}, {kv.b}]")
    span = m + np.searchsorted(t[m + 1 : m + kv.n], x, side="right")
    return span if many else int(span)


def _basis_values(t: np.ndarray, span, deg: int, x) -> list:
    """Values of the deg+1 active basis functions, each a float or like x."""
    values = [1.0]
    left = [0.0] * (deg + 1)
    right = [0.0] * (deg + 1)
    for j in range(1, deg + 1):
        left[j] = x - t[span + 1 - j]
        right[j] = t[span + j] - x
        saved = 0.0
        for r in range(j):
            tmp = values[r] / (right[r + 1] + left[j - r])
            values[r] = saved + right[r + 1] * tmp
            saved = left[j - r] * tmp
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
    kv = space.knots
    span = _find_span(kv, x)
    return span - kv.degree, _rows(_basis_values(kv.t, span, kv.degree, x))


def eval_spline(f: SplineFunction, x, derivative_order: int = 0):
    """Evaluate a spline or one of its derivatives at x.

    Returns a float for a float and an array of x's shape for an array.
    Orders above the degree return exactly 0. At a knot the value is the
    limit from the right (from the left at x = b).
    """
    if derivative_order < 0:
        raise ValueError("derivative order must be >= 0")
    space = f.space
    kv = space.knots
    m = kv.degree
    span = _find_span(kv, x)
    if derivative_order > m:
        return np.zeros(x.shape) if isinstance(x, np.ndarray) else 0.0
    coeffs = np.asarray(f.coefficients, dtype=float)
    if coeffs.shape != (space.dimension,):
        raise ValueError(
            f"coefficient vector has length {coeffs.shape}, space needs {space.dimension}"
        )
    t = kv.t
    first = span - m
    # difference only the m+1 coefficients active on the span; entry l of
    # the order-r coefficients belongs to basis index first + l
    local = [coeffs[first + l] for l in range(m + 1)]
    deg = m
    for r in range(1, derivative_order + 1):
        local = [deg * (local[l + 1] - local[l]) / (t[span + 1 + l] - t[first + r + l])
                 for l in range(deg)]
        deg -= 1
    out = np.vecdot(_rows(_basis_values(t, span, deg, x)), _rows(local))
    return out if isinstance(x, np.ndarray) else float(out)


def eval_basis_derivative(space: SplineSpace, x) -> tuple:
    """First derivatives of the m+1 active basis functions at x.

    Returns (first_active_index, derivative values), consistent in indexing
    and shape with eval_basis. Uses the degree-lowering identity, so the
    values are exact one-sided derivatives.
    """
    kv = space.knots
    m = kv.degree
    t = kv.t
    span = _find_span(kv, x)
    # entry l of the degree-(m-1) values belongs to knots t[j .. j+m], j = span-m+1+l
    inner = _basis_values(t, span, m - 1, x)
    scaled = [0.0, *(m * v / (t[span + 1 + l] - t[span - m + 1 + l])
                     for l, v in enumerate(inner)), 0.0]
    return span - m, _rows([u - v for u, v in zip(scaled, scaled[1:])])


def basis_integral(space: SplineSpace, j: int) -> float:
    """Integral of basis function j over [a, b]: (t[j+m+1] - t[j]) / (m+1)."""
    if not 0 <= j < space.dimension:
        raise ValueError(f"basis index {j} outside 0..{space.dimension - 1}")
    m = space.degree
    t = space.knots.t
    return float(t[j + m + 1] - t[j]) / (m + 1)
