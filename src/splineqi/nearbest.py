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
Vandermonde system is nonsingular, so a window's C(k, q+1) square systems
are all solved at once (Bjorck-Pereyra) and the smallest l1 value picks the
support (ties go to the lexicographically first). Its optimality test is
the dual one, |V^T y| <= 1 for V_S^T y = sign(w_S) (Watson, Approximation
Theory and Numerical Methods, 1980).

An operator's full windows (offsets -p..p) are solved together: one
Bjorck-Pereyra pass over all windows and supports, in chunks of bounded
size, and one batched solve for the duals. A row whose dual or exactness
residual fails the test is solved again on the per-window path, which also
takes the truncated windows at the two ends: `assemble_constraints` builds
the system and `solve_l1` hands the enumerated support to the simplex,
whose pricing is the same test, so an optimal support costs no pivots and
keeps its Bjorck-Pereyra weights, and the simplex pivots on or runs cold
where the support is not optimal or cannot be installed. Windows with more than 2^16 supports are neither
enumerated nor batched: they go straight to the cold simplex.

The wide three-point weights of `build_qp2star` are optimal iff a dual
vector v with |v| <= 1 matches the signs of the nonzero weights and is
orthogonal to the feasible directions. For q = 2 it is explicit: on the
normalized sites x_s = (theta_{i+s} - theta_i) / (theta_{i+p} - theta_{i-p}),
with a = x_{-p} and b = x_p, the direction of free offset k holds the
Lagrange values of the support {a, 0, b} at x_k, and v(x) = 1 + 2 x (x - a -
b) / (a b) is the quadratic through (a, -1), (0, +1), (b, -1). As v <= 1
exactly outside the interval between 0 and a + b, v certifies the weights iff
x_{-1} <= a + b <= x_1 (the `knot_condition`), at any scale. Both are
computed for all full windows of a (space, p) on first use and kept while
the space lives.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
import weakref
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


def _vandermonde(x: np.ndarray, q: int) -> np.ndarray:
    """Rows x**0 .. x**q of the sites along the last axis, stacked before it."""
    return np.stack([x**r for r in range(q + 1)], axis=-2)


def _normalized_rhs(central: np.ndarray, scales: list[float]) -> np.ndarray:
    """Rows of central moments a_0 .. a_q scaled to a_r / L**r, one window
    span L per row. The powers are Python floats, so a window rounds alike
    whether it is assembled alone or with others."""
    return central / np.array([[L**r for r in range(central.shape[1])] for L in scales])


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
    matrix = _vandermonde(x, q)
    rhs = _normalized_rhs(space.central_moments[i : i + 1, : q + 1], [scale])[0]
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
# full windows are solved together in chunks of at most this many
# Bjorck-Pereyra entries (rows x (q+1) x supports), and at least one row
_BATCH_ENTRIES = 2**16
# the simplex's pricing tolerance, and how far accepted weights may miss
# the normalized constraints; both paths test `not x <= tol`, so NaN fails
_PRICING_TOL = 1e-11
_MISS_TOL = 1e-9


def _support_values(nodes: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solutions of square Vandermonde systems, one per column of ``nodes``.

    ``nodes`` (..., q+1, C) holds the sites of C supports, one support per
    column, and ``rhs`` (..., q+1) the right-hand side of each window. Row r
    of the system on the sites s is sum_j w_j s_j^r = rhs_r. All systems are
    solved at once by the Bjorck-Pereyra recurrence for V z = b (Golub and
    Van Loan, Alg. 4.6.2), elementwise: a column rounds alike whatever else
    is solved with it. The result has the shape of ``nodes``.
    """
    z = np.repeat(rhs[..., None], nodes.shape[-1], axis=-1)
    n = rhs.shape[-1] - 1
    for k in range(n):
        z[..., k + 1 :, :] -= nodes[..., k : k + 1, :] * z[..., k:n, :]
    for k in range(n - 1, -1, -1):
        z[..., k + 1 :, :] /= nodes[..., k + 1 :, :] - nodes[..., : n - k, :]
        z[..., k:n, :] -= z[..., k + 1 :, :]
    return z


@functools.cache
def _supports(k: int, size: int) -> np.ndarray:
    """Every size-subset of range(k), one per column, in lexicographic order.
    Cached: one read-only table per window length and exactness degree."""
    count = math.comb(k, size)
    flat = itertools.chain.from_iterable(itertools.combinations(range(k), size))
    columns = np.fromiter(flat, dtype=np.intp, count=count * size).reshape(count, size)
    columns = np.ascontiguousarray(columns.T)
    columns.setflags(write=False)
    return columns


def _cheapest_supports(x: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optimal support of each window's l1 LP and the weights on it.

    ``x`` (W, k) holds the normalized sites of W windows and ``rhs``
    (W, q+1) their right-hand sides. Some optimum lies on q + 1 sites, and
    every (q+1)-site Vandermonde minor on distinct sites is nonsingular, so
    the optimum is the smallest l1 value over all square systems. Values
    within 1e-12 relative of it count as ties, broken for the
    lexicographically first support. The supports are solved in blocks of
    at most _BATCH_ENTRIES entries. Returns the site indices (W, q+1) of
    each optimal support and the weights on them.
    """
    rows, size = rhs.shape
    supports = _supports(x.shape[1], size)
    step = max(1, _BATCH_ENTRIES // (rows * size))
    values = np.empty((rows, supports.shape[1]))
    for start in range(0, supports.shape[1], step):
        columns = supports[:, start : start + step]
        # numpy gathers from a 1-D row about 3x faster than along axis 1
        nodes = x[0][columns][None] if rows == 1 else x[:, columns]
        z = _support_values(nodes, rhs)
        values[:, start : start + step] = np.abs(z).sum(axis=1)
    best = np.argmax(values <= values.min(axis=1, keepdims=True) * (1.0 + 1e-12), axis=1)
    support = supports[:, best].T
    weights = _support_values(np.take_along_axis(x, support, axis=1)[:, :, None], rhs)
    return support, weights[:, :, 0]


def _optimal_basis(system: ConstraintSystem) -> tuple[list[int], np.ndarray] | None:
    """Signed optimal support of the split l1 LP (`_cheapest_supports`) and
    its Bjorck-Pereyra weights on all k sites, or None above _MAX_SUPPORTS.
    Site j enters as column j of the split LP (positive weight) or k + j
    (negative weight)."""
    k = len(system.offsets)
    if math.comb(k, system.q + 1) > _MAX_SUPPORTS:
        return None
    # row 1 holds the normalized sites; with q = 0 no site is read
    x = system.matrix[None, min(1, system.q)]
    (support,), (on_support,) = _cheapest_supports(x, system.rhs[None])
    weights = np.zeros(k)
    weights[support] = on_support
    return [j if w >= 0.0 else k + j for j, w in zip(support.tolist(), on_support)], weights


def solve_l1(system: ConstraintSystem) -> L1Solution:
    """Minimize the l1 norm of the stencil weights under the constraints.

    Split formulation lambda = u - w with u, w >= 0 and cost sum(u + w).
    The optimal support is found by enumeration, and the simplex certifies
    it by pricing (0 pivots when it is optimal), pivots on if it is not, and
    runs cold if it cannot be installed. A certified support keeps its
    Bjorck-Pereyra weights, which round better than the tableau's on
    ill-conditioned supports; otherwise the weights are the simplex's.
    Infeasibility cannot occur for valid systems and is raised as an
    internal error.
    """
    k = len(system.offsets)
    A = np.hstack([system.matrix, -system.matrix])
    c = np.ones(2 * k)
    cap = 10 * 2 * k
    basis, enumerated = _optimal_basis(system) or (None, None)
    result = solve_standard_form(
        A, system.rhs, c, pivot_tol=_PRICING_TOL, max_iter=cap, basis=basis
    )
    if result.status != "optimal":
        raise RuntimeError(
            f"l1 solve at index {system.center}: simplex returned {result.status}"
        )
    # a cold start pivots at least once (rhs[0] = 1), so 0 pivots means the
    # enumerated support was installed and priced optimal
    if basis is not None and result.iterations == 0:
        weights = enumerated
    else:
        weights = result.x[:k] - result.x[k:]
    if not (miss := system.residual(weights)) <= _MISS_TOL:
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


@dataclass(frozen=True, eq=False)
class _ThreePointTable:
    """The wide three-point weights and their q = 2 certificate, one row per
    full window p .. dim-1-p; ``lagrange`` holds L_{-p}, L_0, L_p at each
    site, ``closed`` the weights' l1 norm and ``knot`` the knot condition."""

    lagrange: np.ndarray
    weights: np.ndarray
    vector: np.ndarray
    max_abs: np.ndarray
    residual: np.ndarray
    sign_ok: np.ndarray
    passes: np.ndarray
    closed: np.ndarray
    knot: np.ndarray


def _build_three_point_table(space: SplineSpace, p: int) -> _ThreePointTable:
    """Every full window's three-point weights and certificate at once, on
    the normalized sites (see the module docstring), read-only. A window
    whose sites coincide in floating point gets NaN, which fails every test."""
    theta = space.grid.theta
    centers = np.arange(p, space.dimension - p)
    sites = theta[centers[:, None] + np.arange(-p, p + 1)]
    with np.errstate(all="ignore"):
        x = (sites - theta[centers, None]) / (sites[:, -1:] - sites[:, :1])
        a, b = x[:, :1], x[:, -1:]
        lagrange = np.stack([
            x * (x - b) / (a * (a - b)), (x - a) * (x - b) / (a * b), x * (x - a) / (b * (b - a)),
        ], axis=-1)
        vector = 1.0 + 2.0 * x * (x - (a + b)) / (a * b)
        vector[:, [0, p, 2 * p]] = (-1.0, 1.0, -1.0)
        residual = np.abs(lagrange @ np.array([-1.0, 1.0, -1.0]) - vector).max(axis=1)
        scale = np.maximum(1.0, np.abs(lagrange).max(axis=(1, 2)))
        weights = _three_point_weights(
            theta, space.grid.centered_second[centers], centers, centers - p, centers + p
        )
        sign_ok = weights * np.array([-1.0, 1.0, -1.0]) >= 0.0
        max_abs = np.abs(vector).max(axis=1)
        passes = (max_abs <= 1.0 + 1e-12) & (residual <= 1e-10 * scale) & sign_ok.all(axis=1)
        size = np.abs(weights)
        mid = a[:, 0] + b[:, 0]
        knot = (x[:, p - 1] <= mid + 1e-12) & (mid <= x[:, p + 1] + 1e-12)
    table = _ThreePointTable(
        lagrange=lagrange, weights=weights, vector=vector, max_abs=max_abs,
        residual=residual, sign_ok=sign_ok, passes=passes,
        closed=size[:, 0] + size[:, 1] + size[:, 2], knot=knot,
    )
    for array in vars(table).values():
        array.setflags(write=False)
    return table


# the three-point tables of each space, by p, dropped with the space; the
# arrays are read-only and the public functions hand out copies of rows
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _three_point_row(space: SplineSpace, i: int, p: int) -> tuple[_ThreePointTable, int]:
    """The table of (space, p), built on first use, and index i's row."""
    if not isinstance(p, int) or p < 1:
        raise ValueError(f"offset radius must be an integer >= 1, got {p!r}")
    if not p <= i <= space.dimension - 1 - p:
        raise ValueError(f"index {i} has no full window of radius {p}")
    tables = _TABLES.setdefault(space, {})
    if p not in tables:
        tables[p] = _build_three_point_table(space, p)
    return tables[p], i - p


def build_watson_form(space: SplineSpace, i: int, p: int) -> WatsonForm:
    """Explicit null-space parametrization of the q=2 constraints: column k
    is the support's Lagrange values at site k, with -1 at k. For p = 1 the
    feasible point is unique and the matrix is empty."""
    table, row = _three_point_row(space, i, p)
    free = [k for k in range(-p + 1, p) if k != 0]
    sites = p + np.array(free, dtype=np.intp)
    matrix = np.zeros((2 * p + 1, len(free)))
    matrix[[0, p, 2 * p]] = table.lagrange[row, sites].T
    matrix[sites, np.arange(len(free))] = -1.0
    lam = np.zeros(2 * p + 1)
    lam[[0, p, 2 * p]] = table.weights[row]
    return WatsonForm(center=i, p=p, offsets=tuple(range(-p, p + 1)),
                      free_offsets=tuple(free), matrix=matrix, lambda_star=lam)


def knot_condition(space: SplineSpace, i: int, p: int) -> bool:
    """Optimality condition for the wide three-point weights:

        theta_{i-1} + theta_i <= theta_{i-p} + theta_{i+p}
                              <= theta_i + theta_{i+1},

    tested on the normalized sites as x_{-1} <= x_{-p} + x_p <= x_1 within
    1e-12, so it agrees with `watson_certificate` at any scale. Always true
    for p = 1 and on uniform partitions; can fail on strongly graded ones.
    """
    table, row = _three_point_row(space, i, p)
    return bool(table.knot[row])


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
    """The explicit dual vector for the weights at offsets {-p, 0, p}: the
    quadratic through (-1, +1, -1) at the support, at every normalized site,
    which makes it orthogonal to the columns of `build_watson_form`. It
    passes iff all entries are bounded by 1 in absolute value, which is
    equivalent to `knot_condition` at any scale.
    """
    table, row = _three_point_row(space, i, p)
    return Certificate(
        vector=table.vector[row].copy(),
        max_abs=float(table.max_abs[row]),
        residual=float(table.residual[row]),
        sign_ok=tuple(table.sign_ok[row].tolist()),  # type: ignore[arg-type]
        passes=bool(table.passes[row]),
    )


def _lp_windows(space: SplineSpace, p: int, q: int):
    """(system, solution) of the l1 LP of each index 1 .. dim-2 on its window
    -p..p cut to the index range, lazily; p and q are checked at once.

    The full windows are solved together, chunk by chunk
    (`_solve_full_windows`); the truncated windows at the two ends, and the
    full ones when a window has more than _MAX_SUPPORTS supports, take the
    per-window path (`_solve_window`)."""
    m = space.degree
    if not isinstance(p, int) or p < 1:
        raise ValueError(f"offset radius must be an integer >= 1, got {p!r}")
    if not 0 <= q <= min(m, 2 * p):
        raise ValueError(f"need 0 <= q <= min(m, 2p) = {min(m, 2 * p)}, got {q}")
    if p < m:
        message = f"p={p} below degree {m}: interior norm bound not guaranteed"
        warnings.warn(message, stacklevel=3)  # at the build's or the audit's caller
    return _windows(space, p, q)


def _windows(space: SplineSpace, p: int, q: int):
    last = space.dimension - 1
    count = math.comb(2 * p + 1, q + 1)
    # the full windows p .. last-p, or none, are batched
    lo, hi = (p, last - p + 1) if count <= _MAX_SUPPORTS and p <= last - p else (last, last)
    for i in range(1, lo):
        yield _solve_window(space, i, p, q)
    rows = max(1, _BATCH_ENTRIES // ((q + 1) * count))
    for start in range(lo, hi, rows):
        yield from _solve_full_windows(space, p, q, np.arange(start, min(start + rows, hi)))
    for i in range(hi, last):
        yield _solve_window(space, i, p, q)


def _solve_window(space: SplineSpace, i: int, p: int, q: int):
    offsets = tuple(range(max(-p, -i), min(p, space.dimension - 1 - i) + 1))
    system = assemble_constraints(space, i, p, q, offsets=offsets)
    try:
        return system, solve_l1(system)
    except RuntimeError as exc:
        raise RuntimeError(f"near-best build failed at index {i}: {exc}") from exc


def _solve_full_windows(space: SplineSpace, p: int, q: int, centers: np.ndarray):
    """(system, solution) of the full windows at the given centers, solved
    together: the systems as `assemble_constraints` builds them, the
    supports as `_optimal_basis` picks them, the weights from Bjorck-Pereyra.

    A row is accepted when its weights meet the constraints within
    _MISS_TOL and the dual y of V_S^T y = sign(w_S) on its support S
    satisfies |V^T y| <= 1 + _PRICING_TOL, the simplex's pricing test
    (Watson, Approximation Theory and Numerical Methods, 1980); every other
    row is solved again on the per-window path.
    """
    k, size = 2 * p + 1, q + 1
    offsets = tuple(range(-p, p + 1))
    sites = space.grid.theta[centers[:, None] + np.arange(-p, p + 1)]
    shift = space.grid.theta[centers]
    scale = sites.max(axis=1) - sites.min(axis=1)
    raw_rhs = space.grid.moments[centers, :size]
    # a row that meets a non-finite value fails the acceptance test below,
    # and the per-window path solves it again and reports what it meets
    with np.errstate(all="ignore"):
        x = (sites - shift[:, None]) / scale[:, None]
        matrix = _vandermonde(x, q)
        rhs = _normalized_rhs(space.central_moments[centers, :size], scale.tolist())
        support, on_support = _cheapest_supports(x, rhs)
        weights = np.zeros((len(centers), k))
        np.put_along_axis(weights, support, on_support, axis=1)
        signs = np.where(on_support >= 0.0, 1.0, -1.0)
        V_S = np.take_along_axis(matrix, support[:, None, :], axis=2)
        try:
            y = np.linalg.solve(np.swapaxes(V_S, 1, 2), signs[:, :, None])
        except np.linalg.LinAlgError:  # some V_S of the chunk is exactly singular
            y = np.full((len(centers), size, 1), np.nan)
        dual = np.abs(np.swapaxes(matrix, 1, 2) @ y).max(axis=(1, 2))
        miss = np.abs(matrix @ weights[:, :, None] - rhs[:, :, None]).max(axis=(1, 2))
        accepted = (dual <= 1.0 + _PRICING_TOL) & (miss <= _MISS_TOL)
        values = np.abs(weights).sum(axis=1)
    for row, i in enumerate(centers.tolist()):
        if not accepted[row]:
            yield _solve_window(space, i, p, q)
            continue
        system = ConstraintSystem(
            center=i, p=p, q=q, offsets=offsets, sites=sites[row], shift=float(shift[row]),
            scale=float(scale[row]), matrix=matrix[row], rhs=rhs[row], raw_rhs=raw_rhs[row],
        )
        yield system, L1Solution(
            weights=weights[row], value=float(values[row]), status="optimal", iterations=0
        )


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
            table, row = _three_point_row(space, i, p)
            closed = float(table.closed[row])
            record["knot_condition"] = bool(table.knot[row])
            record["certificate"] = "pass" if table.passes[row] else "fail"
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
