"""Near-best stencil weights: l1 minimization under polynomial exactness.

For index i and offset radius p the admissible weight vectors lambda satisfy

    sum_s lambda(s) * theta_{i+s}^r  =  theta_i^(r)     for r = 0 .. q,

and the near-best choice minimizes the l1 norm, which bounds the operator
sup norm. The system is solved in shifted/scaled coordinates
x_s = (theta_{i+s} - theta_i) / L (L = site span); the weights are invariant
under that affine change. The right-hand side becomes a_r(theta_i) / L^r,
the central moment coefficients of the knot window t_{i+1} .. t_{i+m}, and
it is formed from the scaled knot differences (t_j - theta_i) / L, so no
power of L is taken: it neither underflows on windows about 1e-69 wide nor
overflows on long ones. One function (`_assemble`) builds these normalized
systems for every caller, one window or a chunk of full windows; the
three-point table below reads only the normalized sites
(`_normalized_sites`, which `_assemble` calls too).

Some optimum lies on q + 1 sites, and on distinct sites every square
Vandermonde system is nonsingular, so a window's C(k, q+1) square systems
are all solved at once (Bjorck-Pereyra) and the smallest l1 value picks the
support (ties go to the lexicographically first); its weights are read from
that pass, which is elementwise, so they are the bits of a solve of the
support alone. Its optimality test is
the dual one, |V^T y| <= 1 for V_S^T y = sign(w_S) (Watson, Approximation
Theory and Numerical Methods, 1980).

An operator's full windows (offsets -p..p) are solved together: one
Bjorck-Pereyra pass over all windows and supports, in chunks of bounded
size, and one batched solve for the duals. Each chunk is handed on as
arrays (`_Rows`: centers, offsets, weights, values, and the matrices and
right-hand sides that were solved), from which the build fills its band and
the audit formats its records. A row whose dual or exactness residual fails
the test goes, as a `ConstraintSystem` built from the chunk's arrays, to the
per-window path, and its weights and value are written back into the chunk.
That path also takes the truncated windows at the two ends (built by
`assemble_constraints`, one row each): `solve_l1` hands the enumerated
support to the simplex, whose pricing is the same test, so an optimal
support costs no pivots and keeps its Bjorck-Pereyra weights, and the
simplex pivots on or runs cold where the support is not optimal or cannot
be installed. Warm weights that miss the constraints are solved again cold
before the row is refused. Windows with more than 2^16 supports are neither
enumerated nor batched: they go straight to the cold simplex.

The wide three-point weights of `build_qp2star` are optimal iff a dual
vector v with |v| <= 1 matches the signs of the nonzero weights and is
orthogonal to the feasible directions. For q = 2 it is explicit: on the
normalized sites x_s = (theta_{i+s} - theta_i) / (theta_{i+p} - theta_{i-p}),
with a = x_{-p} and b = x_p, the direction of free offset k holds the
Lagrange values of the support {a, 0, b} at x_k, and v(x) = 1 + 2 x (x - a -
b) / (a b) is the quadratic through (a, -1), (0, +1), (b, -1). As v <= 1
exactly outside the interval between 0 and a + b, v certifies the weights iff
x_{-1} <= a + b <= x_1, at any scale. So the q = 2 verdict is this
`knot_condition`, and v itself is never formed. The condition, the weights
and their l1 norm are computed for all full windows of a (space, p) on
first use and kept while the space lives.

The solved LP rows of a (space, p, q) are kept too, read-only: one call
solves every window, and a later build or audit on that space reads them
and assembles and solves nothing.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bspline import SplineSpace
from .knots import central_coefficients
from .quasi_interp import (
    KIND_NEARBEST,
    QuasiInterpolant,
    _check_radius,
    _empty_band,
    _interior_range,
    _three_point_weights,
)
from .simplex import _PIVOT_TOL, solve_standard_form

__all__ = [
    "ConstraintSystem", "assemble_constraints", "L1Solution", "solve_l1", "WatsonForm",
    "build_watson_form", "knot_condition", "Certificate", "watson_certificate",
    "build_nearbest_qi", "iter_lp_audit",
]


@dataclass(frozen=True, eq=False)
class ConstraintSystem:
    """Exactness constraints for one stencil, in normalized coordinates.

    ``matrix`` is the (q+1) x (#offsets) Vandermonde at the normalized sites,
    ``rhs`` the normalized moment targets. ``sites`` holds the raw Greville
    values.
    """

    center: int
    p: int
    q: int
    offsets: tuple[int, ...]
    sites: np.ndarray
    matrix: np.ndarray
    rhs: np.ndarray

    def residual(self, weights: np.ndarray) -> float:
        return float(np.abs(self.matrix @ weights - self.rhs).max())


def _vandermonde(x: np.ndarray, q: int) -> np.ndarray:
    """Rows x**0 .. x**q of the sites along the last axis, stacked before it."""
    matrix = np.empty(x.shape[:-1] + (q + 1, x.shape[-1]))
    for r in range(q + 1):
        matrix[..., r, :] = x**r
    return matrix


def _normalized_sites(space: SplineSpace, centers: np.ndarray, offsets: tuple[int, ...]):
    """Raw sites (W, k), spans L (W,) and normalized sites (theta - theta_i) / L
    (W, k) of the windows ``offsets`` around the W ``centers``; elementwise,
    so a window rounds alike alone or in a chunk. A span of 0 gives
    non-finite sites, without a warning."""
    theta = space.greville
    sites = theta[centers[:, None] + np.array(offsets)]
    # theta increases, so the outermost offsets hold the largest and smallest site
    scale = theta[centers + max(offsets)] - theta[centers + min(offsets)]
    with np.errstate(all="ignore"):
        x = (sites - theta[centers, None]) / scale[:, None]
    return sites, scale, x


def _assemble(space: SplineSpace, centers: np.ndarray, offsets: tuple[int, ...], q: int):
    """Raw sites (W, k), normalized sites (W, k), Vandermonde rows
    (W, q+1, k) and right-hand sides (W, q+1) of the windows ``offsets``
    around the W ``centers``. A window's right-hand side is a_0 .. a_q of
    its knots t_{i+1} .. t_{i+m}, formed from the differences t_j - theta_i
    divided by the window's span L, which gives a_r / L**r. Elementwise, so
    a window rounds alike alone or in a chunk; a span of 0 gives non-finite
    rows, without a warning, which the residual tests refuse."""
    sites, scale, x = _normalized_sites(space, centers, offsets)
    knots = space.knots.t[centers[:, None] + np.arange(1, space.degree + 1)]
    with np.errstate(all="ignore"):
        matrix = _vandermonde(x, q)
        scaled = (knots - space.greville[centers, None]) / scale[:, None]
        rhs = central_coefficients(scaled)[:, : q + 1]
    return sites, x, matrix, rhs


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
    dim = space.dimension
    if not 0 <= i < dim:
        raise ValueError(f"index {i} outside 0..{dim - 1}")
    _check_radius(space, p, q)
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

    sites, _, matrix, rhs = _assemble(space, np.array([i]), offsets, q)
    return ConstraintSystem(
        center=i, p=p, q=q, offsets=offsets, sites=sites[0], matrix=matrix[0], rhs=rhs[0])


@dataclass(frozen=True, eq=False)
class L1Solution:
    weights: np.ndarray
    value: float
    iterations: int


# above this many supports a window goes to the cold two-phase simplex
_MAX_SUPPORTS = 2**16
# full windows are solved together in chunks of at most this many
# Bjorck-Pereyra entries (rows x (q+1) x supports), and at least one row
_BATCH_ENTRIES = 2**16
# how far accepted weights may miss the normalized constraints; both paths
# test `not x <= tol`, so NaN fails
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
    at most _BATCH_ENTRIES entries and kept: the weights on each optimal
    support are read from them, and as the recurrence is elementwise they
    are the bits of a solve of that support alone. Returns the site indices
    (W, q+1) of each optimal support and the weights on them. Sites that
    coincide in floating point give non-finite values, without a warning;
    the callers' residual tests refuse the weights they reach.
    """
    rows, size = rhs.shape
    supports = _supports(x.shape[1], size)
    step = max(1, _BATCH_ENTRIES // (rows * size))
    values = np.empty((rows, supports.shape[1]))
    blocks = []
    for start in range(0, supports.shape[1], step):
        columns = supports[:, start : start + step]
        # numpy gathers from a 1-D row about 3x faster than along axis 1
        nodes = x[0][columns][None] if rows == 1 else x[:, columns]
        with np.errstate(all="ignore"):
            blocks.append(_support_values(nodes, rhs))
            values[:, start : start + step] = np.abs(blocks[-1]).sum(axis=1)
    # a chunk of _solve_full_windows is one block; only a single wide window
    # joins its blocks, at most (q+1) x _MAX_SUPPORTS entries
    z = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=-1)
    best = np.argmax(values <= values.min(axis=1, keepdims=True) * (1.0 + 1e-12), axis=1)
    return supports[:, best].T, z[np.arange(rows), :, best]


def solve_l1(system: ConstraintSystem) -> L1Solution:
    """Minimize the l1 norm of the stencil weights under the constraints.

    Split formulation lambda = u - w with u, w >= 0 and cost sum(u + w).
    The optimal support is found by enumeration (`_cheapest_supports`, up to
    _MAX_SUPPORTS supports), and the simplex certifies it by pricing (0
    pivots when it is optimal), pivots on if it is not, and runs cold if it
    cannot be installed. A certified support keeps its Bjorck-Pereyra
    weights, which round better than the tableau's on ill-conditioned
    supports; otherwise the weights are the simplex's. Warm weights that
    miss the constraints (the pivots can drift on nearly coincident sites)
    are solved again cold before the row is refused. Infeasibility cannot
    occur for valid systems and is raised as an internal error.
    """
    k = len(system.offsets)
    basis = enumerated = None
    if math.comb(k, system.q + 1) <= _MAX_SUPPORTS:
        # row 1 holds the normalized sites; with q = 0 no site is read
        x = system.matrix[None, min(1, system.q)]
        (support,), (on_support,) = _cheapest_supports(x, system.rhs[None])
        enumerated = np.zeros(k)
        enumerated[support] = on_support
        # site j enters as column j (positive weight) or k + j (negative)
        basis = [j if w >= 0.0 else k + j for j, w in zip(support.tolist(), on_support)]

    A = np.hstack([system.matrix, -system.matrix])
    c = np.ones(2 * k)
    # warm weights that miss the constraints get a cold solve of the same LP
    for start in (basis, None) if basis else (None,):
        result = solve_standard_form(A, system.rhs, c, basis=start)
        if result.status != "optimal":
            raise RuntimeError(
                f"l1 solve at index {system.center}: simplex returned {result.status}"
            )
        # a cold start pivots at least once (rhs[0] = 1), so 0 pivots means
        # the enumerated support was installed and priced optimal
        if start is not None and result.iterations == 0:
            weights = enumerated
        else:
            weights = result.x[:k] - result.x[k:]
        if (miss := system.residual(weights)) <= _MISS_TOL:
            break
    else:
        raise RuntimeError(
            f"l1 solve at index {system.center}: weights miss the constraints by {miss:.1e}"
        )
    return L1Solution(
        weights=weights,
        value=float(np.abs(weights).sum()),
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


@dataclass(frozen=True, eq=False)
class _ThreePointTable:
    """The wide three-point weights and their q = 2 verdict, one row per
    full window p .. dim-1-p: ``closed`` holds the weights' l1 norm (NaN
    where tbar underflows float64, so the weights are not exact on P_2) and
    ``knot`` the knot condition."""

    weights: np.ndarray
    closed: np.ndarray
    knot: np.ndarray


def _build_three_point_table(space: SplineSpace, p: int) -> _ThreePointTable:
    """Every full window's three-point weights, their l1 norm and the knot
    condition at once, on the normalized sites (see the module docstring),
    read-only. A window whose sites coincide in floating point gets NaN,
    which fails the knot condition."""
    centers = np.arange(p, space.dimension - p)
    _, _, x = _normalized_sites(space, centers, tuple(range(-p, p + 1)))
    tbar = space.centered_second[centers]
    with np.errstate(all="ignore"):
        weights = _three_point_weights(space.greville, tbar, centers, centers - p, centers + p)
        size = np.abs(weights)
        closed = size[:, 0] + size[:, 1] + size[:, 2]
        closed[tbar < np.finfo(float).tiny] = np.nan
        mid = x[:, 0] + x[:, -1]
        knot = (x[:, p - 1] <= mid + 1e-12) & (mid <= x[:, p + 1] + 1e-12)
    table = _ThreePointTable(weights=weights, closed=closed, knot=knot)
    for array in vars(table).values():
        array.setflags(write=False)
    return table


# what is kept of each space, dropped with it: the three-point table of each
# p (key p) and the solved LP rows of each (p, q) (key (p, q)); the arrays
# are read-only and the public functions hand out copies
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _three_point_table(space: SplineSpace, p: int) -> _ThreePointTable:
    """The table of (space, p), built on first use; p is checked already."""
    table = _TABLES.get(space, {}).get(p)
    if table is None:
        table = _TABLES.setdefault(space, {})[p] = _build_three_point_table(space, p)
    return table


def _three_point_row(space: SplineSpace, i: int, p: int) -> tuple[_ThreePointTable, int]:
    """The table of (space, p) and index i's row."""
    _check_radius(space, p)
    if not p <= i <= space.dimension - 1 - p:
        raise ValueError(f"index {i} has no full window of radius {p}")
    return _three_point_table(space, p), i - p


def build_watson_form(space: SplineSpace, i: int, p: int) -> WatsonForm:
    """Explicit null-space parametrization of the q=2 constraints: column k
    is the support's Lagrange values at the normalized site x_k, with -1 at
    k. For p = 1 the feasible point is unique and the matrix is empty."""
    table, row = _three_point_row(space, i, p)
    free = [k for k in range(-p + 1, p) if k != 0]
    sites = p + np.array(free, dtype=np.intp)
    _, _, x = _normalized_sites(space, np.array([i]), tuple(range(-p, p + 1)))
    a, b, z = x[0, 0], x[0, -1], x[0, sites]
    matrix = np.zeros((2 * p + 1, len(free)))
    with np.errstate(all="ignore"):
        matrix[[0, p, 2 * p]] = (
            z * (z - b) / (a * (a - b)), (z - a) * (z - b) / (a * b), z * (z - a) / (b * (b - a)))
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
    1e-12, so it holds alike at any scale. It is the verdict of
    `watson_certificate` and of the audit's ``certificate``. Always true
    for p = 1 and on uniform partitions; can fail on strongly graded ones.
    """
    table, row = _three_point_row(space, i, p)
    return table.knot.item(row)


@dataclass(frozen=True, eq=False)
class Certificate:
    """Dual optimality verdict for the wide three-point weights: ``passes``
    iff they are l1 optimal."""

    passes: bool


def watson_certificate(space: SplineSpace, i: int, p: int) -> Certificate:
    """The verdict of Watson's dual vector for the weights at offsets
    {-p, 0, p}, which is `knot_condition` at any scale (see the module
    docstring).
    """
    return Certificate(passes=knot_condition(space, i, p))


class _Rows(NamedTuple):
    """Solved LP rows of the windows ``offsets`` around W ``centers``: the
    weights (W, k), their l1 values (W,), and the normalized systems they
    solve, Vandermonde rows (W, q+1, k) and right-hand sides (W, q+1)."""

    centers: np.ndarray
    offsets: tuple[int, ...]
    weights: np.ndarray
    values: np.ndarray
    matrix: np.ndarray
    rhs: np.ndarray


def _lp_windows(space: SplineSpace, p: int, q: int) -> tuple[_Rows, ...]:
    """The l1 LPs of the indices 1 .. dim-2 on their windows -p..p cut to the
    index range, as read-only `_Rows` in index order; p and q are checked,
    and p < m warned about, on every call.

    The full windows are solved together, a chunk of rows at a time
    (`_solve_full_windows`); the truncated windows at the two ends, and the
    full ones when a window has more than _MAX_SUPPORTS supports, take the
    per-window path (`assemble_constraints`, then `_solve_window`) and come
    as one row each. The rows are kept per (space, p, q) while the space
    lives, and a later call reads them; a window that raises keeps nothing."""
    m = space.degree
    _check_radius(space, p, q)
    if p < m:
        message = f"p={p} below degree {m}: interior norm bound not guaranteed"
        warnings.warn(message, stacklevel=3)  # at the build's or the audit's caller
    kept = _TABLES.setdefault(space, {})
    if (p, q) in kept:
        return kept[p, q]
    last = space.dimension - 1
    count = math.comb(2 * p + 1, q + 1)
    # the full windows p .. last-p, or none, are batched
    lo, hi = (p, last - p + 1) if count <= _MAX_SUPPORTS and p <= last - p else (last, last)

    def window(i):
        offsets = tuple(range(max(-p, -i), min(p, last - i) + 1))
        system = assemble_constraints(space, i, p, q, offsets=offsets)
        solution = _solve_window(system)
        return _Rows(np.array([i]), offsets, solution.weights[None], np.array([solution.value]),
                     system.matrix[None], system.rhs[None])

    step = max(1, _BATCH_ENTRIES // ((q + 1) * count))
    rows = (*map(window, range(1, lo)),
            *(_solve_full_windows(space, p, q, np.arange(start, min(start + step, hi)))
              for start in range(lo, hi, step)),
            *map(window, range(hi, last)))
    for chunk in rows:
        for array in (chunk.centers, chunk.weights, chunk.values, chunk.matrix, chunk.rhs):
            array.setflags(write=False)
    kept[p, q] = rows
    return rows


def _solve_window(system: ConstraintSystem) -> L1Solution:
    """The solution of one window on the per-window path."""
    try:
        return solve_l1(system)
    except RuntimeError as exc:
        raise RuntimeError(f"near-best build failed at index {system.center}: {exc}") from exc


def _solve_full_windows(space: SplineSpace, p: int, q: int, centers: np.ndarray) -> _Rows:
    """The full windows at the given centers, solved together: the systems
    as `assemble_constraints` builds them, the supports as `solve_l1` picks
    them, the weights from Bjorck-Pereyra.

    A row is accepted when its weights meet the constraints within
    _MISS_TOL and the dual y of V_S^T y = sign(w_S) on its support S
    satisfies |V^T y| <= 1 + _PIVOT_TOL, the simplex's pricing test
    (Watson, Approximation Theory and Numerical Methods, 1980). Every other
    row's system, as the batch built it, goes to the per-window path, whose
    weights and value replace the row's.
    """
    k, size = 2 * p + 1, q + 1
    offsets = tuple(range(-p, p + 1))
    sites, x, matrix, rhs = _assemble(space, centers, offsets, q)
    # a row that meets a non-finite value fails the acceptance test below,
    # and the per-window path solves it again and reports what it meets
    with np.errstate(all="ignore"):
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
        accepted = (dual <= 1.0 + _PIVOT_TOL) & (miss <= _MISS_TOL)
        values = np.abs(weights).sum(axis=1)
    for row in np.flatnonzero(~accepted).tolist():
        solution = _solve_window(ConstraintSystem(
            center=int(centers[row]), p=p, q=q, offsets=offsets, sites=sites[row],
            matrix=matrix[row], rhs=rhs[row],
        ))
        weights[row] = solution.weights
        values[row] = solution.value
    return _Rows(centers, offsets, weights, values, matrix, rhs)


def build_nearbest_qi(space: SplineSpace, p: int, q: int = 2) -> QuasiInterpolant:
    """Near-best operator: per-index l1-minimal weights on the window -p..p.

    Extreme indices use point evaluation; windows are truncated to the index
    range near the boundary. ``nu1_star`` is the max optimal value over
    interior stencils (all windows on simple knots); per-index values are
    kept in ``lp_values``. The LP rows of an earlier build or audit of
    (p, q) on this space are read, not solved again.
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
    values = np.ones(dim)
    for rows in windows:
        centers, k = rows.centers, len(rows.offsets)
        sites[centers, :k] = centers[:, None] + np.array(rows.offsets)
        weights[centers, :k] = rows.weights
        values[centers] = rows.values
    lp_values = values.tolist()
    interior_values = lp_values[lo : hi + 1] if lo <= hi else []
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
        lp_values=tuple(lp_values),
        nu1_star=max(interior_values) if interior_values else None,
    )


def iter_lp_audit(space: SplineSpace, p: int, q: int = 2):
    """Yield one audit record per index: the LP, its optimum, and the q = 2
    certificate status, each computed once. The rows of an operator already
    built (or audited) on this space are read, not solved again; each
    record's V and b are the system its row solved. Used by the CLI audit
    stream."""
    windows = _lp_windows(space, p, q)
    lo, hi = _interior_range(space.degree, p, space.knots.n)
    yield _record(0, (0,), [1.0], 1.0, [[1.0]], [1.0])
    for rows in windows:
        fields = zip(rows.centers.tolist(), rows.weights.tolist(), rows.values.tolist(),
                     rows.matrix.tolist(), rows.rhs.tolist())
        # the q = 2 certificate of each full window, from the three-point table
        checks = itertools.repeat(None)
        if q == 2 and len(rows.offsets) == 2 * p + 1:
            table, at = _three_point_table(space, p), rows.centers - p
            checks = zip(table.knot[at].tolist(), table.closed[at].tolist())
        for (i, weights, value, V, b), check in zip(fields, checks):
            record = _record(i, rows.offsets, weights, value, V, b, boundary=not lo <= i <= hi)
            if check:
                knot, closed = check
                record["knot_condition"] = knot
                record["certificate"] = "pass" if knot else "fail"
                if math.isfinite(closed):  # a valid JSON number, and exact on P_2
                    record["closed_form_value"] = closed
                    record["gap"] = closed - value
            yield record
    last = space.dimension - 1
    yield _record(last, (0,), [1.0], 1.0, [[1.0]], [1.0])


def _record(i, offsets, weights, value, V, b, boundary=True) -> dict:
    """One audit record; ``weights``, ``V`` and ``b`` are lists of floats."""
    return {
        "i": i, "offsets": list(offsets), "weights": weights, "value": value,
        "support": [s for s, w in zip(offsets, weights) if abs(w) > 1e-12],
        "boundary": boundary, "V": V, "b": b, "knot_condition": None, "certificate": "n/a",
    }
