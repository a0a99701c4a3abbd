"""Clamped knot sequences, partition generators, and Greville moment grids.

Index conventions used throughout the package: a degree-m spline space on
[a, b] with n subintervals has the clamped knot array

    t[0] = ... = t[m] = a < t[m+1] < ... < t[m+n-1] < b = t[m+n] = ... = t[n+2m]

stored as a flat numpy array of length n + 2m + 1. Basis function j
(j = 0 .. n+m-1) lives on knots t[j .. j+m+1]. The Greville abscissa of
index j is the mean of the m knots t[j+1 .. j+m], and the moment of order l
is the l-th elementary symmetric function of that window divided by C(m, l).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

FAMILIES = ("uniform", "arithmetic", "geometric", "random")


@dataclass(frozen=True, eq=False)
class KnotVector:
    """Clamped knot sequence for one spline space.

    Fields: ``degree`` (m >= 1), ``t`` (read-only array of n + 2m + 1 knot
    values with (m+1)-fold ends), ``n`` (number of subintervals, >= 1).
    """

    degree: int
    t: np.ndarray
    n: int

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
        return np.diff(brk)

    @property
    def dimension(self) -> int:
        """Number of basis functions, n + m."""
        return self.n + self.degree


def make_clamped_knots(a: float, b: float, interior, m: int) -> KnotVector:
    """Build a clamped knot vector from interval ends and interior knots.

    ``interior`` must be strictly increasing and lie strictly inside (a, b);
    it may be empty. Raises ValueError on any malformed input.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"degree must be an integer >= 1, got {m!r}")
    a = float(a)
    b = float(b)
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    inner = np.asarray(interior, dtype=float)
    if inner.ndim != 1:
        raise ValueError("interior knots must be a flat sequence")
    if inner.size:
        if not np.all(np.diff(inner) > 0):
            raise ValueError("interior knots must be strictly increasing")
        if inner[0] <= a or inner[-1] >= b:
            raise ValueError("interior knots must lie strictly inside (a, b)")
    n = inner.size + 1
    t = np.concatenate([np.full(m + 1, a), inner, np.full(m + 1, b)])
    t.setflags(write=False)
    return KnotVector(degree=m, t=t, n=n)


@dataclass(frozen=True)
class PartitionSpec:
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
        weights = 1.0 + (spec.ratio - 1.0) * np.arange(n) / max(n - 1, 1)
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
    if not spec.a < spec.b:
        raise ValueError(f"need a < b, got a={spec.a}, b={spec.b}")
    if spec.family in ("arithmetic", "geometric") and not spec.ratio > 0:
        raise ValueError(f"need ratio > 0, got {spec.ratio}")
    if spec.family == "uniform":
        # exact endpoints and evenly rounded interior
        interior = np.linspace(spec.a, spec.b, spec.n + 1)[1:-1]
    else:
        steps = _partition_steps(spec)
        interior = spec.a + np.cumsum(steps)[:-1]
    if interior.size and not (
        np.all(np.diff(interior) > 0) and spec.a < interior[0] and interior[-1] < spec.b
    ):
        raise _unrepresentable(spec)
    return make_clamped_knots(spec.a, spec.b, interior, m)


def elementary_symmetric(values: np.ndarray) -> np.ndarray:
    """All elementary symmetric functions sigma_0 .. sigma_k of k values.

    Works on the last axis: values of shape (..., k) give (..., k + 1).
    Incremental polynomial build-up (coefficients of prod (x + v)), O(k^2),
    no divisions.
    """
    # reversing the axes puts the values' axis first; the recurrence is
    # elementwise in all the others
    cols = np.asarray(values, dtype=float).T
    esp = np.zeros((len(cols) + 1,) + cols.shape[1:])
    esp[0] = 1.0
    for j, v in enumerate(cols, start=1):
        esp[1 : j + 1] = esp[1 : j + 1] + v * esp[0:j]
    return esp.T


@dataclass(frozen=True, eq=False)
class GrevilleGrid:
    """Greville abscissae with their symmetric-function moments.

    ``theta[j]`` is the mean of the m knots supporting index j;
    ``moments[j, l]`` is the order-l moment (elementary symmetric function of
    the window over C(m, l), with moments[:, 0] = 1);
    ``centered_second[j]`` is theta_j^2 - moments[j, 2], computed by the
    cancellation-free pairwise double sum, and is >= 0 with equality exactly
    when the whole window is one repeated knot.
    """

    theta: np.ndarray
    moments: np.ndarray
    centered_second: np.ndarray


def greville_grid(kv: KnotVector) -> GrevilleGrid:
    """Compute Greville abscissae, moments, and centered second moments.

    Each abscissa is clamped into its knot window [t_{j+1}, t_{j+m}], so
    the end abscissae are exactly a and b. Raises ValueError if the
    abscissae fail to be strictly increasing (they always are for simple
    interior knots; the check guards malformed input).
    """
    m = kv.degree
    windows = sliding_window_view(kv.t[1:], m)[: kv.dimension]
    binom = np.array([math.comb(m, l) for l in range(m + 1)], dtype=float)
    moments = elementary_symmetric(windows) / binom
    moments[:, 1] = np.clip(moments[:, 1], windows[:, 0], windows[:, -1])
    theta = moments[:, 1].copy()
    centered = np.zeros(kv.dimension)
    # pairwise double sum, one knot r against the later ones; the batched
    # matmul rounds each row like np.dot on that row
    for r in range(m - 1):
        d = windows[:, r : r + 1] - windows[:, r + 1 :]
        centered += (d[:, None, :] @ d[:, :, None])[:, 0, 0]
    if m >= 2:
        centered /= m * m * (m - 1)
    if not np.all(np.diff(theta) > 0):
        raise ValueError("Greville abscissae are not strictly increasing")
    theta.setflags(write=False)
    moments.setflags(write=False)
    centered.setflags(write=False)
    return GrevilleGrid(theta=theta, moments=moments, centered_second=centered)


def central_moment_table(kv: KnotVector, theta: np.ndarray) -> np.ndarray:
    """Central moment coefficients of every index's knot window.

    Row j holds a_0 .. a_m: the elementary symmetric functions of the window
    t[j+1 .. j+m] centered at theta[j], each over C(m, s), with a_0 = 1 and
    a_1 = 0 set exactly. Read-only.
    """
    windows = sliding_window_view(kv.t[1:], kv.degree)[: kv.dimension]
    table = central_coefficients(windows - theta[:, None])
    table.setflags(write=False)
    return table


def central_coefficients(differences: np.ndarray) -> np.ndarray:
    """a_0 .. a_m from knot differences (..., m): their elementary symmetric
    functions over C(m, s), with a_0 = 1 and a_1 = 0 set exactly."""
    m = differences.shape[-1]
    binom = np.array([math.comb(m, s) for s in range(m + 1)], dtype=float)
    table = elementary_symmetric(differences) / binom
    table[..., 0] = 1.0
    table[..., 1] = 0.0
    return table
