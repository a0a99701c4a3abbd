"""Clamped knot sequences, partition generators, and Greville abscissae.

Index conventions used throughout the package: a degree-m spline space on
[a, b] with n subintervals has the clamped knot array

    t[0] = ... = t[m] = a < t[m+1] < ... < t[m+n-1] < b = t[m+n] = ... = t[n+2m]

stored as a flat numpy array of length n + 2m + 1. Basis function j
(j = 0 .. n+m-1) lives on knots t[j .. j+m+1]. The Greville abscissa of
index j is the mean theta_j of the m knots t[j+1 .. j+m]. With e_s the
elementary symmetric functions, its centered second moment is
theta_j^2 - e_2(window) / C(m, 2), and its central moments a_0 .. a_m are
e_s(t[j+1] - theta_j, ..., t[j+m] - theta_j) / C(m, s).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "FAMILIES", "KnotVector", "PartitionSpec", "make_clamped_knots", "generate_partition",
    "greville_grid",
]

FAMILIES = ("uniform", "arithmetic", "geometric", "random")


# a dataclass, not a NamedTuple: evaluation reads ``degree`` and ``n`` at
# every point, and a tuple's field read is the slower of the two
@dataclass(frozen=True, eq=False)
class KnotVector:
    """Clamped knot sequence for one spline space.

    Fields: ``degree`` (m >= 1), ``t`` (read-only array of n + 2m + 1 knot
    values with (m+1)-fold ends), ``n`` (number of subintervals, >= 1).
    """

    degree: int
    t: np.ndarray
    n: int

    def __reduce__(self):
        # a pickled copy is rebuilt, read-only, with the same bits
        m = self.degree
        return make_clamped_knots, (self.a, self.b, self.t[m + 1 : m + self.n], m)

    @property
    def a(self) -> float:
        return float(self.t[0])

    @property
    def b(self) -> float:
        return float(self.t[-1])

    @property
    def steps(self) -> np.ndarray:
        """Subinterval lengths h_1 .. h_n."""
        brk = self.t[self.degree : self.degree + self.n + 1]
        return brk[1:] - brk[:-1]

    @property
    def dimension(self) -> int:
        """Number of basis functions, n + m."""
        return self.n + self.degree


def _check_interval(a, b) -> None:
    """Refuse ends that are out of order, not finite, or too far apart for
    float64 to hold b - a."""
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"need finite interval ends, got a={a}, b={b}")
    if not math.isfinite(b - a):
        raise ValueError(f"the length b - a of [{a}, {b}] overflows float64")


def make_clamped_knots(a: float, b: float, interior, m: int) -> KnotVector:
    """Build a clamped knot vector from interval ends and interior knots.

    ``interior`` must be strictly increasing and lie strictly inside (a, b);
    it may be empty. Raises ValueError on any malformed input.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"degree must be an integer >= 1, got {m!r}")
    a = float(a)
    b = float(b)
    _check_interval(a, b)
    inner = np.asarray(interior, dtype=float)
    if inner.ndim != 1:
        raise ValueError("interior knots must be a flat sequence")
    if inner.size:
        if not (inner[1:] > inner[:-1]).all():
            raise ValueError("interior knots must be strictly increasing")
        # written so that a NaN end fails it
        if not (a < inner[0] and inner[-1] < b):
            raise ValueError("interior knots must lie strictly inside (a, b)")
    n = inner.size + 1
    t = np.empty(n + 2 * m + 1)
    t[: m + 1] = a
    t[m + 1 : m + n] = inner
    t[m + n :] = b
    t.setflags(write=False)
    return KnotVector(degree=m, t=t, n=n)


class PartitionSpec(NamedTuple):
    """Recipe for a partition of [a, b] into n subintervals.

    families:
      uniform     equal steps
      arithmetic  steps in arithmetic progression; ``ratio`` = h_n / h_1
      geometric   steps with constant ratio; ``ratio`` = h_{k+1} / h_k
      random      seeded positive steps, uniform in [0.05, 1] before scaling
    """

    family: str
    a: float = 0.0
    b: float = 1.0
    n: int = 8
    ratio: float = 1.0
    seed: int = 0


def _unrepresentable(spec: PartitionSpec) -> ValueError:
    return ValueError(
        f"the {spec.family} partition of [{spec.a}, {spec.b}] into {spec.n} "
        f"subintervals (ratio {spec.ratio}) cannot be represented in float64: "
        "its smallest steps fall below the resolution of its knots"
    )


def _partition_steps(spec: PartitionSpec) -> np.ndarray:
    """Steps of a graded or random partition; uniform ones come from linspace."""
    n = spec.n
    if spec.family == "arithmetic":
        with np.errstate(over="ignore"):
            weights = 1.0 + (spec.ratio - 1.0) * np.arange(n) / max(n - 1, 1)
            if not np.isfinite(weights.sum()):
                raise ValueError(
                    f"the arithmetic partition with ratio {spec.ratio} and {n} "
                    "subintervals cannot be represented in float64: the sum of "
                    "its step weights overflows"
                )
    elif spec.family == "geometric":
        r = spec.ratio
        # the largest or smallest weight r ** (n - 1) and, for r > 1, the
        # weights' sum (below r ** (n - 1) * r / (r - 1)) must fit in float64
        log_extreme = (n - 1) * abs(math.log(r))
        if r > 1:
            log_extreme += math.log(r / (r - 1))
        if log_extreme >= math.log(np.finfo(float).max):
            raise _unrepresentable(spec)
        weights = float(r) ** np.arange(n)
    else:
        weights = np.random.default_rng(spec.seed).uniform(0.05, 1.0, size=n)
    span, total = spec.b - spec.a, weights.sum()
    with np.errstate(over="ignore"):
        steps = span * weights / total
    # on a long interval span * weights can overflow although the step fits:
    # divide first there, and keep the bits of every finite entry
    lost = ~np.isfinite(steps)
    steps[lost] = weights[lost] / total * span
    return steps


def generate_partition(spec: PartitionSpec, m: int) -> KnotVector:
    """Instantiate a PartitionSpec as a clamped degree-m knot vector.

    Deterministic: the same spec (including seed) always produces the same
    knots. The degree is passed separately because the spec record is
    degree-free.
    """
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown partition family {spec.family!r}")
    if not isinstance(spec.n, int) or spec.n < 1:
        raise ValueError(f"need n >= 1 subintervals, got {spec.n!r}")
    _check_interval(spec.a, spec.b)
    if spec.family in ("arithmetic", "geometric") and not 0 < spec.ratio < math.inf:
        raise ValueError(f"need a finite ratio > 0, got {spec.ratio}")
    if spec.family == "random" and spec.seed < 0:
        raise ValueError(f"the random family needs a seed >= 0, got {spec.seed}")
    if spec.family == "uniform":
        # exact endpoints and evenly rounded interior
        interior = np.linspace(spec.a, spec.b, spec.n + 1)[1:-1]
    else:
        steps = _partition_steps(spec)
        interior = spec.a + steps.cumsum()[:-1]
    if interior.size and not (
        (interior[1:] > interior[:-1]).all() and spec.a < interior[0] and interior[-1] < spec.b
    ):
        raise _unrepresentable(spec)
    return make_clamped_knots(spec.a, spec.b, interior, m)


def elementary_symmetric(values, top: int | None = None):
    """The elementary symmetric functions sigma_0 .. sigma_top of k values
    (top = k by default): the coefficients of prod (x + v), built up one
    value at a time, O(k top), no divisions.

    An array works on its last axis, (..., k) giving (..., top + 1); a list
    of floats (one window) gives a list of floats, updated entry by entry.
    Entry r reads only entries <= r, so a cut keeps the bits of the kept
    entries, and both forms round alike.
    """
    if isinstance(values, list):
        top = len(values) if top is None else top
        esp = [1.0] + [0.0] * top
        for j, v in enumerate(values, start=1):
            for r in range(min(j, top), 0, -1):
                esp[r] += v * esp[r - 1]
        return esp
    # reversing the axes puts the values' axis first; the recurrence is
    # elementwise in all the others
    cols = np.asarray(values, dtype=float).T
    top = len(cols) if top is None else top
    esp = np.zeros((top + 1,) + cols.shape[1:])
    esp[0] = 1.0
    for j, v in enumerate(cols, start=1):
        r = min(j, top)
        upper = esp[1 : r + 1]  # a view: += updates it in place, with no write-back
        upper += v * esp[0:r]
    return esp.T


def greville_grid(kv: KnotVector) -> tuple[np.ndarray, np.ndarray]:
    """Greville abscissae theta and centered second moments tbar, read-only.

    theta_j is the sum of its window's knots, added left to right, over m,
    clamped into the window [t_{j+1}, t_{j+m}], so the end abscissae are
    exactly a and b. tbar_j = theta_j^2 - e_2(window) / C(m, 2), computed by
    the cancellation-free pairwise double sum, is >= 0 with equality exactly
    when the whole window is one repeated knot. Raises ValueError if a sum
    overflows float64 or the abscissae fail to be strictly increasing
    (they always are for simple interior knots; the check guards malformed
    input).
    """
    t, m, dim = kv.t, kv.degree, kv.dimension
    # column r of the windows, t_{j+1+r} for every j: a unit-stride slice
    cols = [t[1 + r : 1 + r + dim] for r in range(m)]
    total = np.zeros(dim)
    centered = np.zeros(dim)
    with np.errstate(over="ignore"):
        for col in cols:
            total += col
        # pairwise double sum, one knot r against the later ones; vecdot
        # rounds each row as BLAS ddot (np.dot) on that row
        for r in range(m - 1):
            d = np.empty((dim, m - 1 - r))
            for j, later in enumerate(cols[r + 1 :]):
                np.subtract(cols[r], later, out=d[:, j])
            centered += np.vecdot(d, d)
    # where a knot sum overflows, the knots' float64 spacing makes some
    # centered second moment overflow too, so that is the cause named
    for name, sums in (("centered second moments", centered), ("Greville abscissae", total)):
        if not np.isfinite(sums).all():
            raise ValueError(f"the {name} of [{kv.a}, {kv.b}] overflow float64")
    # np.clip's bits, at the cost of two ufunc calls
    theta = total / m
    np.minimum(np.maximum(theta, cols[0], out=theta), cols[-1], out=theta)
    if m >= 2:
        centered /= m * m * (m - 1)
    if not (theta[1:] > theta[:-1]).all():
        raise ValueError("Greville abscissae are not strictly increasing")
    theta.setflags(write=False)
    centered.setflags(write=False)
    return theta, centered


@functools.cache
def _binomials(m: int) -> np.ndarray:
    """C(m, 0) .. C(m, m) as floats, read-only: one table per degree."""
    binom = np.array([math.comb(m, s) for s in range(m + 1)], dtype=float)
    binom.setflags(write=False)
    return binom


def central_coefficients(differences, top: int | None = None):
    """a_0 .. a_top (a_m by default) from m knot differences: their
    elementary symmetric functions over C(m, s), with a_0 = 1 and a_1 = 0
    set exactly. An array (..., m) gives (..., top + 1), a list of floats a
    list, with the same bits."""
    if isinstance(differences, list):
        m = len(differences)
        esp = elementary_symmetric(differences, top)
        return [1.0, 0.0, *(esp[s] / math.comb(m, s) for s in range(2, len(esp)))][: len(esp)]
    table = elementary_symmetric(differences, top)
    table /= _binomials(differences.shape[-1])[: table.shape[-1]]
    table[..., 0] = 1.0
    if table.shape[-1] > 1:
        table[..., 1] = 0.0
    return table
