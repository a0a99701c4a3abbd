"""Near-best stencil weights: l1 minimization under polynomial exactness.

For index i and offset radius p the admissible weight vectors lambda satisfy

    sum_s lambda(s) * theta_{i+s}^r  =  theta_i^(r)     for r = 0 .. q,

and the near-best choice minimizes the l1 norm, which bounds the operator
sup norm. The system is solved in shifted/scaled coordinates
x_s = (theta_{i+s} - theta_i) / L (L = site span), where the right-hand side
becomes the central moment coefficients a_r(theta_i) / L^r; the weights are
invariant under that affine change.

The wide three-point weights of `build_qp2star` are optimal whenever a
verifiable certificate exists: a dual vector v with |v| <= 1 matching the
signs of the nonzero weights and lying in the orthogonal complement of the
feasible directions. For q = 2 that certificate is explicit, and it is valid
precisely when theta_{i-1} + theta_i <= theta_{i-p} + theta_{i+p} <=
theta_i + theta_{i+1} (the `knot_condition`).
"""

from __future__ import annotations

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
    dqi_coefficients,
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


def _rank_by_elimination(mat: np.ndarray, tol: float) -> int:
    work = np.array(mat, dtype=float)
    rank = 0
    rows, cols = work.shape
    for col in range(cols):
        if rank == rows:
            break
        pivot = rank + int(np.argmax(np.abs(work[rank:, col])))
        if abs(work[pivot, col]) <= tol:
            continue
        work[[rank, pivot]] = work[[pivot, rank]]
        work[rank] /= work[rank, col]
        for r in range(rows):
            if r != rank:
                work[r] -= work[r, col] * work[rank]
        rank += 1
    return rank


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
    central = dqi_coefficients(space, i)
    rhs = np.array([central[r] / scale**r for r in range(q + 1)])
    raw_rhs = space.grid.moments[i, : q + 1].copy()
    tol = 1e-12 * max(1.0, float(np.abs(matrix).max()))
    if _rank_by_elimination(matrix, tol) != q + 1:
        raise ValueError(f"constraint matrix at i={i} is rank deficient")
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


def solve_l1(system: ConstraintSystem) -> L1Solution:
    """Minimize the l1 norm of the stencil weights under the constraints.

    Split formulation lambda = u - w with u, w >= 0 and cost sum(u + w),
    solved by the two-phase simplex. Infeasibility cannot occur for valid
    systems and is raised as an internal error.
    """
    k = len(system.offsets)
    A = np.hstack([system.matrix, -system.matrix])
    c = np.ones(2 * k)
    cap = 10 * 2 * k
    result = solve_standard_form(A, system.rhs, c, pivot_tol=1e-11, max_iter=cap)
    if result.status != "optimal":
        raise RuntimeError(
            f"l1 solve at index {system.center}: simplex returned {result.status}"
        )
    weights = result.x[:k] - result.x[k:]
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


def build_nearbest_qi(space: SplineSpace, p: int, q: int = 2) -> QuasiInterpolant:
    """Near-best operator: per-index l1-minimal weights on the window -p..p.

    Extreme indices use point evaluation; windows are truncated to the index
    range near the boundary. ``nu1_star`` is the max optimal value over
    interior stencils (all windows on simple knots); per-index values are
    kept in ``lp_values``.
    """
    m = space.degree
    dim = space.dimension
    if not isinstance(p, int) or p < 1:
        raise ValueError(f"offset radius must be an integer >= 1, got {p!r}")
    if not 0 <= q <= min(m, 2 * p):
        raise ValueError(f"need 0 <= q <= min(m, 2p) = {min(m, 2 * p)}, got {q}")
    if p < m:
        warnings.warn(
            f"p={p} below degree {m}: interior norm bound not guaranteed",
            stacklevel=2,
        )
    lo, hi = _interior_range(m, p, space.knots.n)
    i = np.arange(dim)
    lengths = np.minimum(i, p) + np.minimum(dim - 1 - i, p) + 1
    # the two extreme indices evaluate at their own site
    lengths[[0, -1]] = 1
    sites, weights = _empty_band(dim, int(lengths.max()))
    weights[[0, -1], 0] = 1.0
    values = [1.0] * dim
    for i in range(1, dim - 1):
        offsets = tuple(range(max(-p, -i), min(p, dim - 1 - i) + 1))
        system = assemble_constraints(space, i, p, q, offsets=offsets)
        try:
            solution = solve_l1(system)
        except RuntimeError as exc:
            raise RuntimeError(f"near-best build failed at index {i}: {exc}") from exc
        sites[i, : lengths[i]] = np.arange(i + offsets[0], i + offsets[-1] + 1)
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
    """Yield one audit record per index: the LP, its optimum, and the
    certificate status. Used by the CLI audit stream."""
    yield from _audit_records(build_nearbest_qi(space, p, q))


def _audit_records(qi: QuasiInterpolant):
    """The audit records of a built near-best operator, one per index."""
    space, p, q = qi.space, qi.p, qi.q
    dim = space.dimension
    for i in range(dim):
        st = qi.stencil(i)
        record = {
            "i": i,
            "offsets": list(st.offsets),
            "weights": [float(w) for w in st.weights],
            "value": float(qi.lp_values[i]),
            "support": [int(s) for s, w in zip(st.offsets, st.weights) if abs(w) > 1e-12],
            "boundary": bool(st.boundary),
        }
        if i == 0 or i == dim - 1:
            record.update(
                {"V": [[1.0]], "b": [1.0], "knot_condition": None, "certificate": "n/a"}
            )
        else:
            system = assemble_constraints(space, i, p, q, offsets=st.offsets)
            record["V"] = [[float(v) for v in row] for row in system.matrix]
            record["b"] = [float(v) for v in system.rhs]
            full_window = p <= i <= dim - 1 - p
            if q == 2 and full_window:
                lam, coefs = _watson_data(space, i, p)
                cert = _certificate(p, lam, coefs)
                closed = float(np.abs(lam).sum())
                record["knot_condition"] = knot_condition(space, i, p)
                record["certificate"] = "pass" if cert.passes else "fail"
                record["closed_form_value"] = closed
                record["gap"] = closed - record["value"]
            else:
                record["knot_condition"] = None
                record["certificate"] = "n/a"
        yield record
