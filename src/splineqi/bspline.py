"""B-spline basis evaluation and spline evaluation with derivatives.

Evaluation uses the standard triangular recurrence on the active knot span;
the span lookup is right-continuous (half-open spans) except at the right
endpoint, which belongs to the last span. Derivatives are exact, obtained by
coefficient differencing down to the requested order, so they are one-sided
at knots in the same way. Each routine takes one point (a float) or many
(an ndarray); the span is then an int or an array of the points' shape.
One point is evaluated in Python floats: the knots come from the space's
cached tuple and the span from `bisect`, while the recurrence and the
differencing are the ones an array takes. A numpy scalar point is read as
a Python float before the range check. Its final dot is BLAS `ddot` on a
unit-stride slice of the active coefficients, the kernel `np.vecdot` runs
on an array's rows, so a point gives the same bits as a float or inside an
array. A strided slice can round differently, so a spline reads its
coefficients once, on its first evaluation, into a C-contiguous float64
array that every later call slices. `eval_spline` keeps, in its space's
`_point_bases`, a point's span from its first sight and its basis values
from its second, so every spline of a space evaluates a point seen twice
without the lookup or the recurrence, and a point seen once builds no
array.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass

import numpy as np

from .knots import KnotVector, central_coefficients, greville_grid

__all__ = [
    "SplineSpace", "SplineFunction", "eval_basis", "eval_spline",
    "eval_basis_derivative",
]

# keys a space's _point_bases holds before it is cleared
_POINT_BASES_SIZE = 1024


@dataclass(frozen=True, eq=False)
class SplineSpace:
    """Knot vector plus its Greville abscissae ``greville`` and their
    centered second moments ``centered_second`` (both read-only, see
    `greville_grid`). Immutable, safe to share. What it computes on first
    use (the knot tuple, the central moments, the memo and the point
    bases) is kept on the space. A pickled space is rebuilt from its knots
    by `from_knots`: the copy has the same bits, read-only, and none of
    what the space kept."""

    knots: KnotVector
    greville: np.ndarray
    centered_second: np.ndarray

    def __reduce__(self):
        return type(self).from_knots, (self.knots,)

    @classmethod
    def from_knots(cls, kv: KnotVector) -> "SplineSpace":
        return cls(kv, *greville_grid(kv))

    @property
    def degree(self) -> int:
        return self.knots.degree

    @property
    def dimension(self) -> int:
        return self.knots.dimension

    @functools.cached_property
    def central_moments(self) -> np.ndarray:
        """Row i: the central moment coefficients a_0 .. a_m of index i's
        knot window, the weights of D^s f(theta_i) / s! in the differential
        quasi-interpolant, for every index at once, computed on first use and
        read-only. Raises ValueError, without a numpy warning, if an entry
        overflows float64."""
        kv = self.knots
        windows = kv.t[np.arange(1, kv.dimension + 1)[:, None] + np.arange(kv.degree)]
        with np.errstate(over="ignore", invalid="ignore"):
            table = central_coefficients(windows - self.greville[:, None])
        if not np.isfinite(table).all():
            raise ValueError(f"the central moments of the degree-{kv.degree} knot windows "
                             f"of [{kv.a}, {kv.b}] overflow float64")
        table.setflags(write=False)
        return table

    @functools.cached_property
    def knot_tuple(self) -> tuple:
        """The knots as a tuple of Python floats, built on first use: what
        one-point evaluation reads instead of the array."""
        return tuple(self.knots.t.tolist())

    @functools.cached_property
    def _point_bases(self) -> dict:
        """What `eval_spline` keeps of one-point evaluation, an empty dict on
        first use, keyed by (point as a float, basis degree): the span for a
        key seen once, then (span, the active basis values as a read-only
        float64 array) from its second sight on. Shared by every spline of
        the space and cleared when it holds _POINT_BASES_SIZE keys."""
        return {}

    @functools.cached_property
    def _memo(self) -> dict:
        """What is kept of this space, an empty dict on first use, gone with
        the space: `nearbest` keeps its operator's band under (p, q) and its
        three-point table under p."""
        return {}


@dataclass(frozen=True, eq=False)
class SplineFunction:
    """Spline in a SplineSpace, represented by its basis coefficients.

    The coefficients are read once, on the first evaluation, into a
    C-contiguous float64 array; a C-contiguous float64 array is kept as is.
    So an in-place edit made after the first evaluation is seen only when
    the coefficients are such an array.
    """

    space: SplineSpace
    coefficients: np.ndarray

    def __call__(self, x, derivative_order: int = 0):
        return eval_spline(self, x, derivative_order)

    @functools.cached_property
    def _coeffs(self) -> np.ndarray:
        # a failing check caches nothing, so a wrong vector raises every call
        coeffs = np.asarray(self.coefficients, dtype=float, order="C")
        dim = self.space.dimension
        if coeffs.shape != (dim,):
            raise ValueError(f"coefficient vector has length {coeffs.shape}, space needs {dim}")
        return coeffs


def _find_span(space: SplineSpace, x) -> tuple:
    """The knots to read, the index k with t[k] <= x < t[k+1] (last span at
    x = b) and x as the recurrence reads it: the array, an array of spans
    and x for an array x, the cached tuple, an int and a float for a point."""
    kv = space.knots
    m = kv.degree
    if isinstance(x, np.ndarray):
        # float64 ends: a float32 array is checked at its float64 values
        inside = (kv.t[0] <= x) & (x <= kv.t[-1])
        if not inside.all():
            raise ValueError(f"x={x[~inside].flat[0].item()} outside [{kv.a}, {kv.b}]")
        return kv.t, m + kv.t[m + 1 : m + kv.n].searchsorted(x, side="right"), x
    t = space.knot_tuple
    if x.__class__ is not float and isinstance(x, np.generic):
        x = float(x)  # a float32 point is checked, as it is read, as a float
    if not t[0] <= x <= t[-1]:
        raise ValueError(f"x={x} outside [{kv.a}, {kv.b}]")
    # a Python int is read as a float too
    x = float(x)
    return t, bisect.bisect_right(t, x, m + 1, m + kv.n) - 1, x


def _basis_values(t, span, deg: int, x) -> list:
    """Values of the deg+1 active basis functions, each a float or like x."""
    if not deg:
        return [1.0]
    # the first level written out: saved is 0.0 there, and right_1 * tmp is
    # never -0.0 (x <= t[span + 1]), so 0.0 + right_1 * tmp keeps its bits
    left_1 = x - t[span]
    right_1 = t[span + 1] - x
    tmp = 1.0 / (right_1 + left_1)
    values = [right_1 * tmp, left_1 * tmp]
    # left[i] = x - t[span + 1 - i] and right[i - 1] = t[span + i] - x
    left = [0.0, left_1]
    right = [right_1]
    for j in range(2, deg + 1):
        left.append(x - t[span + 1 - j])
        right.append(t[span + j] - x)
        saved = 0.0
        r = 0
        for right_r in right:
            left_r = left[j - r]
            tmp = values[r] / (right_r + left_r)
            values[r] = saved + right_r * tmp
            saved = left_r * tmp
            r += 1
        values.append(saved)
    return values


def _rows(entries: list):
    """The per-span list as an array with one C-contiguous row per point:
    np.stack's result, filled column by column."""
    if not isinstance(entries[-1], np.ndarray):
        return np.array(entries)
    rows = np.empty(entries[-1].shape + (len(entries),))
    for j, entry in enumerate(entries):
        rows[..., j] = entry
    return rows


def eval_basis(space: SplineSpace, x) -> tuple:
    """Evaluate all basis functions that are nonzero at x.

    Returns (first_active_index, values); values has m+1 entries summing
    to 1 and covers indices first_active .. first_active + m. For an array
    x both gain its shape as leading axes.
    """
    m = space.degree
    t, span, x = _find_span(space, x)
    return span - m, _rows(_basis_values(t, span, m, x))


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
    many = isinstance(x, np.ndarray)
    if many:
        t, span, x = _find_span(space, x)
    else:
        # _find_span's range check, inline: a point pays for no second call
        t = space.knot_tuple
        if x.__class__ is not float and isinstance(x, np.generic):
            x = float(x)
        if not t[0] <= x <= t[-1]:
            raise ValueError(f"x={x} outside [{kv.a}, {kv.b}]")
    coeffs = f._coeffs
    if derivative_order > m:
        return np.zeros(x.shape) if many else 0.0
    deg = m - derivative_order
    if not many:
        # a point and degree seen once keep their span; seen again, their
        # basis values too, which every spline of the space then reads, so
        # points that never repeat build no array. -0.0 shares 0.0's entry,
        # whose zeros can differ in sign, which the dot's sum does not show
        x = float(x)
        key = x, deg
        bases = space._point_bases
        entry = bases.get(key)
        if entry.__class__ is tuple:
            span, values = entry
        elif entry is None:
            span = bisect.bisect_right(t, x, m + 1, m + kv.n) - 1
            values = _basis_values(t, span, deg, x)
            if len(bases) >= _POINT_BASES_SIZE:
                bases.clear()
            bases[key] = span
        else:
            span = entry
            values = np.array(_basis_values(t, span, deg, x))
            # every spline of the space reads this array
            values.setflags(write=False)
            bases[key] = span, values
    first = span - m
    if not (many or derivative_order):
        # ddot rounds a unit-stride slice as vecdot rounds an array's row
        return float(coeffs[first : span + 1].dot(values))
    # difference only the m+1 coefficients active on the span; entry l of
    # the order-r coefficients belongs to basis index first + l
    if many:
        local = [coeffs[first + l] for l in range(m + 1)]
    else:
        local = coeffs[first : span + 1].tolist()
    k = m
    for r in range(1, derivative_order + 1):
        local = [k * (local[l + 1] - local[l]) / (t[span + 1 + l] - t[first + r + l])
                 for l in range(k)]
        k -= 1
    if many:
        return np.vecdot(_rows(_basis_values(t, span, deg, x)), _rows(local))
    # ddot of one entry (order m) returns the product, -0.0 too, where
    # vecdot adds it to 0.0
    return float(np.array(local).dot(values)) + 0.0


def eval_basis_derivative(space: SplineSpace, x) -> tuple:
    """First derivatives of the m+1 active basis functions at x.

    Returns (first_active_index, derivative values), consistent in indexing
    and shape with eval_basis. Uses the degree-lowering identity, so the
    values are exact one-sided derivatives.
    """
    m = space.degree
    t, span, x = _find_span(space, x)
    # entry l of the degree-(m-1) values belongs to knots t[j .. j+m], j = span-m+1+l
    inner = _basis_values(t, span, m - 1, x)
    scaled = [0.0, *(m * v / (t[span + 1 + l] - t[span - m + 1 + l])
                     for l, v in enumerate(inner)), 0.0]
    return span - m, _rows([u - v for u, v in zip(scaled, scaled[1:])])
