"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports splineqi. Each function restates the mathematics the
package implements, by a different route where one exists: Greville data
from sliding windows and np.poly, spline values by de Boor's algorithm over
arrays of points, l1 minima by enumerating vertices, integrals in closed
form. The checks compare the package's outputs with these.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def greville(t: np.ndarray, m: int) -> np.ndarray:
    """Greville abscissae: the mean of each window of m inner knots."""
    return sliding_window_view(np.asarray(t, dtype=float)[1:-1], m).mean(axis=1)


def knot_window(t: np.ndarray, m: int, i: int) -> np.ndarray:
    return np.asarray(t, dtype=float)[i + 1 : i + m + 1]


def symmetric_moments(window: np.ndarray, q: int) -> np.ndarray:
    """e_r(window) / C(m, r) for r = 0..q, from the coefficients of
    prod (x - w), which np.poly lists as 1, -e_1, e_2, -e_3, ..."""
    m = len(window)
    coeffs = np.poly(window)
    return np.array([(-1) ** r * coeffs[r] / math.comb(m, r) for r in range(q + 1)])


def exactness_residual(
    theta: np.ndarray, t: np.ndarray, m: int, i: int, offsets, weights, q: int
) -> float:
    """Largest scaled defect of sum_s w_s theta_{i+s}^r = moment_r(i), r <= q."""
    sites = theta[[i + s for s in offsets]]
    target = symmetric_moments(knot_window(t, m, i), q)
    worst = 0.0
    for r in range(q + 1):
        lhs = float(np.dot(weights, sites**r))
        scale = max(1.0, float(np.abs(sites).max()) ** r)
        worst = max(worst, abs(lhs - target[r]) / scale)
    return worst


def normalized_system(theta: np.ndarray, t: np.ndarray, m: int, i: int, offsets, q: int):
    """Vandermonde rows x^r at x = (theta_{i+s} - theta_i) / L and the
    matching central moments / L^r; weights are invariant under the change."""
    sites = theta[[i + s for s in offsets]]
    span = float(sites.max() - sites.min())
    x = (sites - theta[i]) / span
    window = knot_window(t, m, i) - theta[i]
    rhs = symmetric_moments(window, q) / span ** np.arange(q + 1)
    V = np.vstack([x**r for r in range(q + 1)])
    return V, rhs


def l1_min_vertices(V: np.ndarray, b: np.ndarray) -> float:
    """Minimal l1 norm over V w = b by trying every basic solution."""
    r, k = V.shape
    best = np.inf
    for cols in itertools.combinations(range(k), r):
        sub = V[:, cols]
        if abs(np.linalg.det(sub)) <= 1e-13 * max(1.0, float(np.abs(sub).max()) ** r):
            continue
        best = min(best, float(np.abs(np.linalg.solve(sub, b)).sum()))
    return best


def three_point_l1(theta: np.ndarray, t: np.ndarray, m: int, i: int, p: int) -> float:
    """l1 norm of the unique quadratically exact weights at offsets -p, 0, p."""
    V, b = normalized_system(theta, t, m, i, (-p, 0, p), 2)
    return float(np.abs(np.linalg.solve(V, b)).sum())


def knot_condition_margin(theta: np.ndarray, i: int, p: int) -> float:
    """Signed slack of theta_{i-1}+theta_i <= theta_{i-p}+theta_{i+p}
    <= theta_i+theta_{i+1}, relative to the local step; > 0 means it holds."""
    mid = theta[i - p] + theta[i + p]
    slack = min(mid - theta[i - 1] - theta[i], theta[i] + theta[i + 1] - mid)
    return float(slack / (theta[i + 1] - theta[i - 1]))


def interior_range(m: int, p: int, n: int) -> tuple[int, int]:
    """Indices whose stencil touches only simple knots: p+m-1 .. n-p."""
    return p + m - 1, n - p


def norm_bound(kind: str, m: int) -> float:
    """Partition-free interior bound: floor((m+4)/2) for the narrow
    three-point operator, (m+1)/(m-1) for the wide and near-best ones."""
    if kind == "q2star":
        return float((m + 4) // 2)
    return (m + 1) / (m - 1)


def de_boor(t: np.ndarray, c: np.ndarray, m: int, x, derivative: int = 0) -> np.ndarray:
    """Values (or a derivative) of sum c_j B_j at the points x.

    Right-continuous at inner knots, left-continuous at the right end, so it
    follows the same one-sided convention as the package.
    """
    t = np.asarray(t, dtype=float)
    c = np.asarray(c, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    for _ in range(derivative):
        if m == 0:
            return np.zeros_like(x)
        c = m * (c[1:] - c[:-1]) / (t[m + 1 : m + len(c)] - t[1 : len(c)])
        t = t[1:-1]
        m -= 1
    k = np.clip(np.searchsorted(t, x, side="right") - 1, m, len(t) - m - 2)
    d = np.stack([c[k - m + j] for j in range(m + 1)])
    for r in range(1, m + 1):
        for j in range(m, r - 1, -1):
            i = k - m + j
            alpha = (x - t[i]) / (t[i + m + 1 - r] - t[i])
            d[j] = (1.0 - alpha) * d[j - 1] + alpha * d[j]
    return d[m]


# Closed-form integrals of the functions the workloads sample.


def integral_poly(coeffs, a: float, b: float) -> float:
    """Integral of sum coeffs[k] x^k over [a, b]."""
    return float(sum(c * (b ** (k + 1) - a ** (k + 1)) / (k + 1) for k, c in enumerate(coeffs)))


def integral_sin(omega: float, phase: float, a: float, b: float) -> float:
    return (math.cos(omega * a + phase) - math.cos(omega * b + phase)) / omega


def integral_bump(kappa: float, x0: float, a: float, b: float) -> float:
    """Integral of 1 / (1 + kappa (x - x0)^2)."""
    s = math.sqrt(kappa)
    return (math.atan(s * (b - x0)) - math.atan(s * (a - x0))) / s


def integral_exp(beta: float, a: float, b: float) -> float:
    return (math.exp(beta * b) - math.exp(beta * a)) / beta


BUILTIN_INTEGRALS = {
    "sin": lambda a, b: integral_sin(1.0, 0.0, a, b),
    "exp": lambda a, b: integral_exp(1.0, a, b),
    "runge": lambda a, b: integral_bump(25.0, 0.0, a, b),
}
