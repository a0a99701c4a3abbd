"""B-spline basis evaluation, spline evaluation with derivatives, integrals.

Evaluation uses the standard triangular recurrence on the active knot span;
the span lookup is right-continuous (half-open spans) except at the right
endpoint, which belongs to the last span. Derivatives are exact, obtained by
coefficient differencing down to the requested order, so they are one-sided
at knots in the same way.
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

    def __call__(self, x: float, derivative_order: int = 0) -> float:
        return eval_spline(self, x, derivative_order)


def _find_span(kv: KnotVector, x: float) -> int:
    """Knot array index k with t[k] <= x < t[k+1] (last span at x = b)."""
    if not (kv.a <= x <= kv.b):
        raise ValueError(f"x={x} outside [{kv.a}, {kv.b}]")
    k = int(np.searchsorted(kv.t, x, side="right")) - 1
    return min(max(k, kv.degree), kv.degree + kv.n - 1)


def _basis_values(t: np.ndarray, span: int, deg: int, x: float) -> np.ndarray:
    """Values of the deg+1 basis functions active on the given span."""
    values = np.zeros(deg + 1)
    values[0] = 1.0
    left = np.zeros(deg + 1)
    right = np.zeros(deg + 1)
    for j in range(1, deg + 1):
        left[j] = x - t[span + 1 - j]
        right[j] = t[span + j] - x
        saved = 0.0
        for r in range(j):
            tmp = values[r] / (right[r + 1] + left[j - r])
            values[r] = saved + right[r + 1] * tmp
            saved = left[j - r] * tmp
        values[j] = saved
    return values


def eval_basis(space: SplineSpace, x: float) -> tuple[int, np.ndarray]:
    """Evaluate all basis functions that are nonzero at x.

    Returns (first_active_index, values); values has m+1 entries summing
    to 1 and covers indices first_active .. first_active + m.
    """
    kv = space.knots
    span = _find_span(kv, x)
    return span - kv.degree, _basis_values(kv.t, span, kv.degree, x)


def eval_spline(f: SplineFunction, x: float, derivative_order: int = 0) -> float:
    """Evaluate a spline or one of its derivatives at x.

    Orders above the degree return exactly 0. At a knot the value is the
    limit from the right (from the left at x = b).
    """
    if derivative_order < 0:
        raise ValueError("derivative order must be >= 0")
    space = f.space
    kv = space.knots
    m = kv.degree
    if derivative_order > m:
        _find_span(kv, x)  # still validate the point
        return 0.0
    coeffs = np.asarray(f.coefficients, dtype=float)
    if coeffs.shape != (space.dimension,):
        raise ValueError(
            f"coefficient vector has length {coeffs.shape}, space needs {space.dimension}"
        )
    t = kv.t
    span = _find_span(kv, x)
    first = span - m
    # difference only the m+1 coefficients active on the span; entry l of
    # the order-r coefficients belongs to basis index first + l
    local = coeffs[first : span + 1]
    deg = m
    for r in range(1, derivative_order + 1):
        denom = t[span + 1 : span + m + 2 - r] - t[first + r : span + 1]
        local = deg * np.diff(local) / denom
        deg -= 1
    values = _basis_values(t, span, deg, x)
    return float(np.dot(values, local))


def eval_basis_derivative(space: SplineSpace, x: float) -> tuple[int, np.ndarray]:
    """First derivatives of the m+1 active basis functions at x.

    Returns (first_active_index, derivative values), consistent in indexing
    with eval_basis. Uses the degree-lowering identity, so the values are
    exact one-sided derivatives.
    """
    kv = space.knots
    m = kv.degree
    t = kv.t
    span = _find_span(kv, x)
    first = span - m
    if m == 0:
        return first, np.zeros(1)
    inner = _basis_values(t[1:-1], span - 1, m - 1, x)
    # inner[idx] is the degree-(m-1) function on knots t[j .. j+m], j = first+1+idx
    scaled = np.zeros(m + 2)
    for idx in range(m):
        j = first + 1 + idx
        scaled[idx + 1] = m * inner[idx] / (t[j + m] - t[j])
    return first, scaled[:-1] - scaled[1:]


def basis_integral(space: SplineSpace, j: int) -> float:
    """Integral of basis function j over [a, b]: (t[j+m+1] - t[j]) / (m+1)."""
    if not 0 <= j < space.dimension:
        raise ValueError(f"basis index {j} outside 0..{space.dimension - 1}")
    m = space.degree
    t = space.knots.t
    return float(t[j + m + 1] - t[j]) / (m + 1)
