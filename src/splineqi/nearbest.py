"""Near-best stencil weights: l1 minimization under polynomial exactness.

For index i and offset radius p the admissible weight vectors lambda satisfy

    sum_s lambda(s) * theta_{i+s}^r  =  theta_i^(r)     for r = 0 .. q,

and the near-best choice minimizes the l1 norm, which bounds the operator
sup norm. The system is solved in shifted/scaled coordinates
x_s = (theta_{i+s} - theta_i) / L (L = site span), where the right-hand side
becomes the central moment coefficients a_r(theta_i) / L^r, read from the
space's `central_moments` table; the weights are invariant under that
affine change.

Some optimum lies on q + 1 sites, and on distinct sites every square
Vandermonde system is nonsingular, so `solve_l1` solves all of a window's
C(k, q+1) square systems at once and takes the smallest l1 value (ties go
to the lexicographically first support). The simplex then starts from that
signed support: its pricing is the l1 optimality test |V^T y| <= 1 (Watson,
Approximation Theory and Numerical Methods, 1980), so an optimal support
costs no pivots, and the simplex pivots on or runs cold where the support
is not optimal or cannot be installed. Windows with more than 2^16
supports go straight to the cold simplex.

The wide three-point weights of `build_qp2star` are optimal whenever a
verifiable certificate exists: a dual vector v with |v| <= 1 matching the
signs of the nonzero weights and lying in the orthogonal complement of the
feasible directions. For q = 2 that certificate is explicit, and it is valid
precisely when theta_{i-1} + theta_i <= theta_{i-p} + theta_{i+p} <=
theta_i + theta_{i+1} (the `knot_condition`).
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bspline import SplineSpace
from .quasi_interp import (
    KIND_NEARBEST,
    QuasiInterpolant,
    _empty_band,
    _interior_range,
    _three_point_weights,
)
from .simplex import solve_standard_form


@dataclass(frozen=True, eq=False)
class ConstraintSystem:
    """Exactness constraints for one stencil, in normalized coordinates.

    ``matrix`` is the (q+1) x (#offsets) Vandermonde at the normalized sites,
    ``rhs`` the normalized moment targets. ``sites`` holds the raw Greville
    values and ``raw_rhs`` the raw targets theta_i^(r) so residuals can be
    checked in either coordinate system.
    """

    center: int
    p: int
    q: int
    offsets: tuple[int, ...]
    sites: np.ndarray
    shift: float
    scale: float
    matrix: np.ndarray
    rhs: np.ndarray
    raw_rhs: np.ndarray

    def residual(self, weights: np.ndarray) -> float:
        return float(np.abs(self.matrix @ weights - self.rhs).max())

    def raw_residual(self, weights: np.ndarray) -> float:
        """Max scaled residual of the un-normalized exactness rows."""
        worst = 0.0
        for r in range(self.q + 1):
            lhs = float(np.dot(weights, self.sites**r))
            scale = max(1.0, float(np.abs(self.sites).max()) ** r, abs(self.raw_rhs[r]))
            worst = max(worst, abs(lhs - self.raw_rhs[r]) / scale)
        return worst


def assemble_constraints(
    space: SplineSpace,
    i: int,
    p: int,
    q: int,
    offsets: tuple[int, ...] | None = None,
) -> ConstraintSystem:
    """Build the normalized exactness system for index i.

    Default offsets are the full window -p .. p; callers near the boundary
    pass the truncated window themselves. All sites must be valid indices.
    """
    m = space.degree
    dim = space.dimension
    if not 0 <= i < dim:
        raise ValueError(f"index {i} outside 0..{dim - 1}")
    if not isinstance(p, int) or p < 1:
        raise ValueError(f"offset radius must be an integer >= 1, got {p!r}")
    if not 0 <= q <= min(m, 2 * p):
        raise ValueError(f"need 0 <= q <= min(m, 2p) = {min(m, 2 * p)}, got {q}")
    if offsets is None:
        offsets = tuple(range(-p, p + 1))
    else:
        offsets = tuple(int(s) for s in offsets)
    if len(set(offsets)) != len(offsets):
        raise ValueError("offsets must be distinct")
    if any(not 0 <= i + s < dim for s in offsets):
        raise ValueError(f"offsets {offsets} leave the index range at i={i}")
    if len(offsets) < q + 1:
        raise ValueError(f"need at least {q + 1} sites for exactness degree {q}")

    theta = space.grid.theta
    sites = theta[[i + s for s in offsets]]
    shift = float(theta[i])
    scale = float(sites.max() - sites.min())
    x = (sites - shift) / scale
    matrix = np.vstack([x**r for r in range(q + 1)])
    central = space.central_moments[i]
    rhs = np.array([central[r] / scale**r for r in range(q + 1)])
    raw_rhs = space.grid.moments[i, : q + 1].copy()
    return ConstraintSystem(
        center=i,
        p=p,
        q=q,
        offsets=offsets,
        sites=sites,
        shift=shift,
        scale=scale,
        matrix=matrix,
        rhs=rhs,
        raw_rhs=raw_rhs,
    )


@dataclass(frozen=True, eq=False)
class L1Solution:
    weights: np.ndarray
    value: float
    status: str
    iterations: int


# above this many supports a window goes to the cold two-phase simplex
_MAX_SUPPORTS = 2**16


def _support_values(x: np.ndarray, rhs: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """Solutions of the square systems on the given supports, one column each.

    Row r of the system on support S is sum_j w_j x_{S_j}^r = rhs_r. All
    systems are solved at once by the Bjorck-Pereyra recurrence for V z = b
    (Golub and Van Loan, Alg. 4.6.2), elementwise along the last axis, which
    runs over the supports.
    """
    nodes = x[supports]
    z = np.repeat(rhs[:, None], supports.shape[1], axis=1)
    n = len(rhs) - 1
    for k in range(n):
        z[k + 1 :] -= nodes[k] * z[k:n]
    for k in range(n - 1, -1, -1):
        z[k + 1 :] /= nodes[k + 1 :] - nodes[: n - k]
        z[k:n] -= z[k + 1 :]
    return z


@functools.cache
def _supports(k: int, size: int) -> np.ndarray:
    """Every size-subset of range(k), one per column, in lexicographic order.
    Cached: one read-only table per window length and exactness degree."""
    columns = np.array(list(itertools.combinations(range(k), size)), dtype=np.intp)
    columns = np.ascontiguousarray(columns.reshape(-1, size).T)
    columns.setflags(write=False)
    return columns


def _optimal_basis(system: ConstraintSystem) -> list[int] | None:
    """Signed optimal support of the split l1 LP, or None above _MAX_SUPPORTS.

    Some optimum lies on q + 1 sites, and every (q+1)-site Vandermonde minor
    on distinct sites is nonsingular, so the optimum is the smallest l1 value
    over all square systems. Values within 1e-12 relative of it count as
    ties, broken for the lexicographically first support. Site j enters as
    column j of the split LP (positive weight) or k + j (negative weight).
    """
    k, size = len(system.offsets), system.q + 1
    if math.comb(k, size) > _MAX_SUPPORTS:
        return None
    supports = _supports(k, size)
    # row 1 holds the normalized sites; with q = 0 no site is read
    z = _support_values(system.matrix[min(1, system.q)], system.rhs, supports)
    values = np.abs(z).sum(axis=0)
    best = int(np.argmax(values <= values.min() * (1.0 + 1e-12)))
    return [j if w >= 0.0 else k + j for j, w in zip(supports[:, best].tolist(), z[:, best])]


def solve_l1(system: ConstraintSystem) -> L1Solution:
    """Minimize the l1 norm of the stencil weights under the constraints.

    Split formulation lambda = u - w with u, w >= 0 and cost sum(u + w).
    The optimal support is found by enumeration, and the simplex certifies
    it by pricing (0 pivots when it is optimal), pivots on if it is not, and
    runs cold if it cannot be installed. Infeasibility cannot occur for
    valid systems and is raised as an internal error.
    """
    k = len(system.offsets)
    A = np.hstack([system.matrix, -system.matrix])
    c = np.ones(2 * k)
    cap = 10 * 2 * k
    result = solve_standard_form(
        A, system.rhs, c, pivot_tol=1e-11, max_iter=cap, basis=_optimal_basis(system)
    )
    if result.status != "optimal":
        raise RuntimeError(
            f"l1 solve at index {system.center}: simplex returned {result.status}"
        )
    weights = result.x[:k] - result.x[k:]
    if (miss := system.residual(weights)) > 1e-9:
        raise RuntimeError(
            f"l1 solve at index {system.center}: weights miss the constraints by {miss:.1e}"
        )
    return L1Solution(
        weights=weights,
        value=float(np.abs(weights).sum()),
        status="optimal",
        iterations=result.iterations,
    )


@dataclass(frozen=True, eq=False)
class WatsonForm:
    """Residual parametrization of the q=2 feasible set on a full window.

    Every feasible weight vector is lambda_star - A @ free for a free vector
    indexed by the interior offsets K = {-p+1..-1, 1..p-1}; the columns of A
    span the null space of the constraint matrix. Row order matches offsets
    -p .. p.
    """

    center: int
    p: int
    offsets: tuple[int, ...]
    free_offsets: tuple[int, ...]
    matrix: np.ndarray
    lambda_star: np.ndarray

    def feasible_point(self, free: np.ndarray) -> np.ndarray:
        if self.matrix.shape[1] == 0:
            return self.lambda_star.copy()
        return self.lambda_star - self.matrix @ np.asarray(free, dtype=float)


def _vdet(x: float, y: float, z: float) -> float:
    return (y - x) * (z - y) * (z - x)


def _watson_data(space: SplineSpace, i: int, p: int):
    """lambda_star plus per-free-offset (alpha, beta, gamma) coefficients."""
    dim = space.dimension
    if not isinstance(p, int) or p < 1:
        raise ValueError(f"offset radius must be an integer >= 1, got {p!r}")
    if not p <= i <= dim - 1 - p:
        raise ValueError(f"index {i} has no full window of radius {p}")
    theta = space.grid.theta
    tm, t0, tp = theta[i - p], theta[i], theta[i + p]
    vol = _vdet(tm, t0, tp)
    lam = np.zeros(2 * p + 1)
    lam[[0, p, 2 * p]] = _three_point_weights(
        theta, space.grid.centered_second[i], i, i - p, i + p
    )
    coefs = {}
    for k in range(-p + 1, p):
        if k == 0:
            continue
        tk = theta[i + k]
        if k < 0:
            coefs[k] = (
                _vdet(tk, t0, tp) / vol,
                _vdet(tm, tk, tp) / vol,
                _vdet(tm, tk, t0) / vol,
            )
        else:
            coefs[k] = (
                _vdet(t0, tk, tp) / vol,
                _vdet(tm, tk, tp) / vol,
                _vdet(tm, t0, tk) / vol,
            )
    return lam, coefs


def _watson_matrix(p: int, coefs: dict) -> np.ndarray:
    """Null-space columns of the q=2 constraints, one per free offset."""
    free = sorted(coefs)
    A = np.zeros((2 * p + 1, len(free)))
    for col, k in enumerate(free):
        alpha, beta, gamma = coefs[k]
        if k < 0:
            A[0, col] = alpha
            A[p, col] = beta
            A[2 * p, col] = -gamma
        else:
            A[0, col] = -alpha
            A[p, col] = beta
            A[2 * p, col] = gamma
        A[p + k, col] = -1.0
    return A


def build_watson_form(space: SplineSpace, i: int, p: int) -> WatsonForm:
    """Explicit null-space parametrization of the q=2 constraints.

    For p = 1 the feasible point is unique and the matrix is empty.
    """
    lam, coefs = _watson_data(space, i, p)
    return WatsonForm(
        center=i,
        p=p,
        offsets=tuple(range(-p, p + 1)),
        free_offsets=tuple(sorted(coefs)),
        matrix=_watson_matrix(p, coefs),
        lambda_star=lam,
    )


def knot_condition(space: SplineSpace, i: int, p: int) -> bool:
    """Sufficient optimality condition for the wide three-point weights:

        theta_{i-1} + theta_i <= theta_{i-p} + theta_{i+p}
                              <= theta_i + theta_{i+1}.

    Always true for p = 1 and on uniform partitions; can fail on strongly
    graded ones.
    """
    dim = space.dimension
    if not p <= i <= dim - 1 - p:
        raise ValueError(f"index {i} has no full window of radius {p}")
    theta = space.grid.theta
    mid = theta[i - p] + theta[i + p]
    scale = max(1.0, abs(theta[i - p]), abs(theta[i + p]), abs(theta[i]))
    tol = 1e-12 * scale
    return bool(
        theta[i - 1] + theta[i] <= mid + tol and mid <= theta[i] + theta[i + 1] + tol
    )


@dataclass(frozen=True, eq=False)
class Certificate:
    """Dual optimality certificate for the wide three-point weights.

    ``vector`` is orthogonal to the feasible directions by construction
    (``residual`` is its rounding error) and matches the support signs; the
    weights are l1 optimal iff additionally ``max_abs`` <= 1. ``passes``
    bundles all three checks.
    """

    vector: np.ndarray
    max_abs: float
    residual: float
    sign_ok: tuple[bool, bool, bool]
    passes: bool


def watson_certificate(space: SplineSpace, i: int, p: int) -> Certificate:
    """Construct the explicit dual vector for the weights at offsets {-p,0,p}.

    Entries at the support are (-1, +1, -1); at a free offset k the entry is
    -alpha+beta+gamma (k < 0) or alpha+beta-gamma (k > 0), which makes the
    vector exactly orthogonal to the null-space columns. The certificate
    passes iff all entries are bounded by 1 in absolute value, which is
    equivalent to `knot_condition`.
    """
    return _certificate(p, *_watson_data(space, i, p))


def _certificate(p: int, lam: np.ndarray, coefs: dict) -> Certificate:
    """`watson_certificate` from the window's `_watson_data`."""
    v = np.zeros(2 * p + 1)
    v[0], v[p], v[2 * p] = -1.0, 1.0, -1.0
    for k, (alpha, beta, gamma) in coefs.items():
        v[p + k] = (-alpha + beta + gamma) if k < 0 else (alpha + beta - gamma)
    A = _watson_matrix(p, coefs)
    residual = float(np.abs(A.T @ v).max()) if A.size else 0.0
    scale = max(1.0, float(np.abs(A).max()) if A.size else 1.0)
    sign_ok = tuple(
        lam[p + s] == 0.0 or np.sign(v[p + s]) == np.sign(lam[p + s])
        for s in (-p, 0, p)
    )
    max_abs = float(np.abs(v).max())
    passes = max_abs <= 1.0 + 1e-12 and residual <= 1e-10 * scale and all(sign_ok)
    return Certificate(
        vector=v,
        max_abs=max_abs,
        residual=residual,
        sign_ok=sign_ok,  # type: ignore[arg-type]
        passes=passes,
    )


def _lp_windows(space: SplineSpace, p: int, q: int):
    """(system, solution) of the l1 LP of each index 1 .. dim-2 on its window
    -p..p cut to the index range, lazily; p and q are checked at once."""
    m = space.degree
    if not isinstance(p, int) or p < 1:
        raise ValueError(f"offset radius must be an integer >= 1, got {p!r}")
    if not 0 <= q <= min(m, 2 * p):
        raise ValueError(f"need 0 <= q <= min(m, 2p) = {min(m, 2 * p)}, got {q}")
    if p < m:
        message = f"p={p} below degree {m}: interior norm bound not guaranteed"
        warnings.warn(message, stacklevel=3)  # at the build's or the audit's caller
    return (_solve_window(space, i, p, q) for i in range(1, space.dimension - 1))


def _solve_window(space: SplineSpace, i: int, p: int, q: int):
    offsets = tuple(range(max(-p, -i), min(p, space.dimension - 1 - i) + 1))
    system = assemble_constraints(space, i, p, q, offsets=offsets)
    try:
        return system, solve_l1(system)
    except RuntimeError as exc:
        raise RuntimeError(f"near-best build failed at index {i}: {exc}") from exc


def build_nearbest_qi(space: SplineSpace, p: int, q: int = 2) -> QuasiInterpolant:
    """Near-best operator: per-index l1-minimal weights on the window -p..p.

    Extreme indices use point evaluation; windows are truncated to the index
    range near the boundary. ``nu1_star`` is the max optimal value over
    interior stencils (all windows on simple knots); per-index values are
    kept in ``lp_values``.
    """
    windows = _lp_windows(space, p, q)
    dim = space.dimension
    lo, hi = _interior_range(space.degree, p, space.knots.n)
    i = np.arange(dim)
    lengths = np.minimum(i, p) + np.minimum(dim - 1 - i, p) + 1
    # the two extreme indices evaluate at their own site
    lengths[[0, -1]] = 1
    sites, weights = _empty_band(dim, int(lengths.max()))
    weights[[0, -1], 0] = 1.0
    values = [1.0] * dim
    for system, solution in windows:
        i = system.center
        sites[i, : lengths[i]] = np.add(i, system.offsets)
        weights[i, : lengths[i]] = solution.weights
        values[i] = solution.value
    interior_values = [values[i] for i in range(dim) if lo <= i <= hi]
    return QuasiInterpolant(
        space=space,
        kind=KIND_NEARBEST,
        q=q,
        p=p,
        sites=sites,
        weights=weights,
        lengths=lengths,
        interior_lo=lo,
        interior_hi=hi,
        lp_values=tuple(values),
        nu1_star=max(interior_values) if interior_values else None,
    )


def iter_lp_audit(space: SplineSpace, p: int, q: int = 2):
    """Yield one audit record per index: the LP, its optimum, and the q = 2
    certificate status, each computed once. Used by the CLI audit stream."""
    windows = _lp_windows(space, p, q)
    lo, hi = _interior_range(space.degree, p, space.knots.n)
    last = space.dimension - 1
    yield _record(0, (0,), [1.0], 1.0, [[1.0]], [1.0])
    for system, solution in windows:
        i = system.center
        record = _record(i, system.offsets, solution.weights, solution.value,
                         system.matrix, system.rhs, boundary=not lo <= i <= hi)
        if q == 2 and p <= i <= last - p:
            lam, coefs = _watson_data(space, i, p)
            closed = float(np.abs(lam).sum())
            record["knot_condition"] = knot_condition(space, i, p)
            record["certificate"] = "pass" if _certificate(p, lam, coefs).passes else "fail"
            record["closed_form_value"] = closed
            record["gap"] = closed - solution.value
        yield record
    yield _record(last, (0,), [1.0], 1.0, [[1.0]], [1.0])


def _record(i, offsets, weights, value, V, b, boundary=True) -> dict:
    return {
        "i": i, "offsets": list(offsets), "weights": [float(w) for w in weights],
        "value": value, "support": [s for s, w in zip(offsets, weights) if abs(w) > 1e-12],
        "boundary": boundary, "V": [[float(v) for v in row] for row in V],
        "b": [float(v) for v in b], "knot_condition": None, "certificate": "n/a",
    }
