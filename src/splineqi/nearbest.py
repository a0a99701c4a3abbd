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
systems for every caller and one (`_cheapest_supports`) enumerates them,
as `bspline` takes a point or an array: an int center is one window on 1-D
arrays (sites (k,), V (q+1, k), b (q+1,)), an array of W centers a chunk
with a leading window axis. Each is elementwise along that axis, so a
window has the same bits either way and the per-window path pays no axis.

Some optimum lies on q + 1 sites, and on distinct sites every square
Vandermonde system is nonsingular, so a window's C(k, q+1) square systems
are all solved at once (Bjorck-Pereyra) and the smallest l1 value picks the
support; its weights are read from that pass, which is elementwise, so they
are the bits of a solve of the support alone. One rule decides a row: its
enumerated optimum stands whenever its weights meet the constraints within
_MISS_TOL. Values within 1e-12 relative of the smallest count as ties, and
the lexicographically first support among them is taken.

An operator's full windows (offsets -p..p) are solved together: one
Bjorck-Pereyra pass over all windows and supports, in chunks of bounded
size, and one residual test per row. At q = 2 a window whose knot
condition (below) holds strictly outside its 1e-12 band skips the
enumeration: its wide three-point weights are then the one optimum, so
only the support {-p, 0, p} is solved, and as the recurrence is
elementwise its weights are the bits the enumeration would read. On the
band's edge another support can tie with them, and the tie rule may pick
it, so those windows are enumerated. Each chunk is handed on as
arrays (`_Rows`: centers, offsets, weights, values, and the matrices and
right-hand sides that were solved), from which the build fills its band and
the audit formats its records. The truncated windows at the two ends take
the per-window path (`assemble_constraints`, then `solve_l1`, one row
each): the window is enumerated the same way, and `solve_standard_form`
prices the support once, with two small solves, to record whether it is
certified. A row whose weights miss, on either path, is refused; so is a
(space, p, q) whose widest window has more than _MAX_SUPPORTS supports,
before any window is solved.

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
and their l1 norm of all full windows of a (space, p) are computed on first
use, from the sites of its kept LP rows if any, and kept with the space.

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
from .simplex import solve_standard_form

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


def _normalized_sites(space: SplineSpace, centers, offsets: tuple[int, ...]):
    """Raw sites, theta_i, spans L and normalized sites (theta - theta_i) / L
    of the windows ``offsets`` around ``centers``, as in `_assemble`; theta_i
    and L are scalars for an int center, (W, 1) for W centers. The callers
    hold the `np.errstate` that keeps a span of 0 silent."""
    theta = space.greville
    at = centers[:, None] if isinstance(centers, np.ndarray) else centers  # W centers: (W, 1)
    sites, mid = theta[at + np.array(offsets)], theta[at]
    # theta increases, so the outermost offsets hold the largest and smallest site
    scale = theta[at + max(offsets)] - theta[at + min(offsets)]
    return sites, mid, scale, (sites - mid) / scale


def _assemble(space: SplineSpace, centers, offsets: tuple[int, ...], q: int):
    """Raw sites (k,), normalized sites (k,), Vandermonde rows (q+1, k) and
    right-hand sides (q+1,) of the window ``offsets`` around an int center,
    each with a leading axis of length W for an array of W ``centers``. A
    window's right-hand side is a_0 .. a_q of its knots t_{i+1} .. t_{i+m},
    formed from the differences t_j - theta_i divided by the window's span
    L, which gives a_r / L**r. Elementwise, so a window rounds alike alone
    or in a chunk; a span of 0 gives non-finite rows, without a warning,
    which the residual tests refuse."""
    at = centers[:, None] if isinstance(centers, np.ndarray) else centers
    with np.errstate(all="ignore"):
        sites, mid, scale, x = _normalized_sites(space, centers, offsets)
        # rows x**0 .. x**q; x**0 and x**1 are 1 and x, bit for bit
        matrix = np.empty(x.shape[:-1] + (q + 1, x.shape[-1]))
        matrix[..., 0, :] = 1.0
        if q:
            matrix[..., 1, :] = x
        for r in range(2, q + 1):
            matrix[..., r, :] = x**r
        scaled = (space.knots.t[at + np.arange(1, space.degree + 1)] - mid) / scale
        rhs = central_coefficients(scaled)[..., : q + 1]
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
    pass the truncated window themselves. Offsets must be distinct
    integers (Python or numpy, not bool) and all sites valid indices.
    """
    dim = space.dimension
    if not 0 <= i < dim:
        raise ValueError(f"index {i} outside 0..{dim - 1}")
    _check_radius(space, p, q)
    if offsets is None:
        offsets = tuple(range(-p, p + 1))
    else:
        offsets = tuple(offsets)
        if any(isinstance(s, bool) or not isinstance(s, (int, np.integer)) for s in offsets):
            raise ValueError(f"offsets must be integers, got {offsets!r}")
        offsets = tuple(map(int, offsets))
    if len(set(offsets)) != len(offsets):
        raise ValueError("offsets must be distinct")
    if len(offsets) < q + 1:
        raise ValueError(f"need at least {q + 1} sites for exactness degree {q}")
    if not (0 <= i + min(offsets) and i + max(offsets) < dim):
        raise ValueError(f"offsets {offsets} leave the index range at i={i}")

    sites, _, matrix, rhs = _assemble(space, i, offsets, q)
    return ConstraintSystem(
        center=i, p=p, q=q, offsets=offsets, sites=sites, matrix=matrix, rhs=rhs)


@dataclass(frozen=True, eq=False)
class L1Solution:
    """A row's weights, their l1 value, and whether the enumerated support
    priced optimal as a basis of the split LP."""

    weights: np.ndarray
    value: float
    certified: bool


# the most supports a window may have: the enumeration's time and memory
# grow with C(k, q+1), and a wider window is refused
_MAX_SUPPORTS = 2**20
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
    z = rhs[..., None].repeat(nodes.shape[-1], axis=-1)
    n = rhs.shape[-1] - 1
    for k in range(n):
        tail = z[..., k + 1 :, :]  # updated through views, with no write-back
        tail -= nodes[..., k : k + 1, :] * z[..., k:n, :]
    for k in range(n - 1, -1, -1):
        tail, head = z[..., k + 1 :, :], z[..., k:n, :]
        tail /= nodes[..., k + 1 :, :] - nodes[..., : n - k, :]
        head -= tail
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

    ``x`` (k,) holds the normalized sites of a window and ``rhs`` (q+1,) its
    right-hand side, or ``x`` (W, k) and ``rhs`` (W, q+1) those of W
    windows. Some optimum lies on q + 1 sites, and every (q+1)-site
    Vandermonde minor on distinct sites is nonsingular, so the optimum is
    the smallest l1 value over all square systems. Values within 1e-12
    relative of it count as ties, broken for the lexicographically first
    support. The supports are solved in blocks of at most _BATCH_ENTRIES
    entries and kept: the weights on each optimal support are read from
    them, and as the recurrence is elementwise they are the bits of a solve
    of that support alone. Returns the site indices (q+1,) or (W, q+1) of
    each optimal support and the weights on them. Sites that coincide in
    floating point give non-finite values, without a warning; the callers'
    residual tests refuse the weights they reach.
    """
    supports = _supports(x.shape[-1], rhs.shape[-1])
    count = supports.shape[1]
    step = max(1, _BATCH_ENTRIES // rhs.size)
    with np.errstate(all="ignore"):
        if step >= count:
            z = _support_values(x.take(supports, axis=-1), rhs)
            values = np.abs(z).sum(axis=-2)
        else:  # a single wide window, at most (q+1) x _MAX_SUPPORTS entries
            blocks = [_support_values(x.take(supports[:, start : start + step], axis=-1), rhs)
                      for start in range(0, count, step)]
            values = np.concatenate([np.abs(block).sum(axis=-2) for block in blocks], axis=-1)
            z = np.concatenate(blocks, axis=-1)
    best = (values <= values.min(axis=-1, keepdims=True) * (1.0 + 1e-12)).argmax(axis=-1)
    if z.ndim == 2:
        return supports[:, best], z[:, best]
    return supports[:, best].T, z[np.arange(len(z)), :, best]


def _check_supports(sites: int, q: int) -> None:
    """Refuse a window of ``sites`` sites with more than _MAX_SUPPORTS
    supports of q + 1 sites."""
    if (count := math.comb(sites, q + 1)) > _MAX_SUPPORTS:
        raise ValueError(f"a window of {sites} sites has C({sites}, {q + 1}) = {count} supports, "
                         f"more than the {_MAX_SUPPORTS} the near-best LP enumerates")


def solve_l1(system: ConstraintSystem) -> L1Solution:
    """Minimize the l1 norm of the stencil weights under the constraints.

    The enumeration decides the row: the optimal support is found by
    `_cheapest_supports` (ties within 1e-12 relative go to the
    lexicographically first support), and its Bjorck-Pereyra weights stand
    if they meet the constraints within _MISS_TOL; otherwise the row is
    refused (RuntimeError). A window with more than _MAX_SUPPORTS supports
    is refused before it is enumerated (ValueError). The support is then
    priced once as a basis of the split formulation lambda = u - w, u, w >=
    0, cost sum(u + w), and ``certified`` records whether it priced optimal.
    """
    k = len(system.offsets)
    _check_supports(k, system.q)
    # row 1 holds the normalized sites; with q = 0 no site is read
    support, on_support = _cheapest_supports(system.matrix[min(1, system.q)], system.rhs)
    weights = np.zeros(k)
    weights[support] = on_support
    if not (miss := system.residual(weights)) <= _MISS_TOL:
        raise RuntimeError(
            f"l1 solve at index {system.center}: weights miss the constraints by {miss:.1e}")
    # site j enters as column j (positive weight) or k + j (negative)
    basis = [j if w >= 0.0 else k + j for j, w in zip(support.tolist(), on_support.tolist())]
    A = np.concatenate((system.matrix, -system.matrix), axis=1)
    priced = solve_standard_form(A, system.rhs, np.ones(2 * k), basis=basis)
    return L1Solution(weights=weights, value=float(np.abs(weights).sum()),
                      certified=priced.status == "optimal")


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
    read-only. The sites are row 1 of the systems kept for any (p, q >= 1),
    the bits `_normalized_sites` gives, so a table built after a build or an
    audit normalizes nothing: `_lp_windows` keeps its rows in index order, so
    its rows with offsets -p..p, concatenated, are the full windows p ..
    dim-1-p, which is checked. A window whose sites coincide in floating
    point gets NaN, which fails the knot condition."""
    centers = np.arange(p, space.dimension - p)
    # the rows' sites as slices of the Greville sites, so nothing is gathered
    rows = len(centers)
    tbar = space.centered_second[p : p + rows]
    store, full = _store(space), tuple(range(-p, p + 1))
    solved = next((store[p, q] for q in range(1, space.degree + 1) if (p, q) in store), ())
    kept = [chunk for chunk in solved if chunk.offsets == full]
    if kept and not np.array_equal(np.concatenate([chunk.centers for chunk in kept]), centers):
        raise RuntimeError(f"the kept rows of radius {p} are not the full windows in order")
    with np.errstate(all="ignore"):
        x = (np.concatenate([chunk.matrix[:, 1] for chunk in kept]) if kept else
             _normalized_sites(space, centers, full)[-1])
        weights = _three_point_weights(space.greville, tbar, slice(p, p + rows),
                                       slice(0, rows), slice(2 * p, 2 * p + rows))
        size = np.abs(weights)
        closed = size[:, 0] + size[:, 1] + size[:, 2]
        closed[tbar < np.finfo(float).tiny] = np.nan
        mid = x[:, 0] + x[:, -1]
        knot = (x[:, p - 1] <= mid + 1e-12) & (mid <= x[:, p + 1] + 1e-12)
    table = _ThreePointTable(weights=weights, closed=closed, knot=knot)
    for array in vars(table).values():
        array.setflags(write=False)
    return table


# what is kept of each space, under id(space) and dropped with it by a
# finalizer: the three-point table of each p (key p) and the solved LP rows
# of each (p, q) (key (p, q)); the arrays are read-only and the public
# functions hand out copies. _NOTHING, never written, stands for no entry.
_TABLES: dict[int, dict] = {}
_NOTHING: dict = {}


def _store(space: SplineSpace) -> dict:
    """What is kept of ``space``, an empty dict on first use."""
    store = _TABLES.get(id(space))
    if store is None:
        store = _TABLES[id(space)] = {}
        weakref.finalize(space, _TABLES.pop, id(space))
    return store


def _three_point_table(space: SplineSpace, p: int) -> _ThreePointTable:
    """The table of (space, p), built on first use; p is checked already."""
    store = _store(space)
    if p not in store:
        store[p] = _build_three_point_table(space, p)
    return store[p]


def _three_point_row(space: SplineSpace, i: int, p: int) -> tuple[_ThreePointTable, int]:
    """The table of (space, p) and index i's row. A table is kept only for
    a p that was checked, so an int p with a table is not checked again."""
    table = _TABLES.get(id(space), _NOTHING).get(p) if type(p) is int else None
    if table is None or not 0 <= i - p < len(table.knot):
        _check_radius(space, p)
        if not 0 <= i - p < space.dimension - 2 * p:
            raise ValueError(f"index {i} has no full window of radius {p}")
        table = _three_point_table(space, p)
    return table, i - p


def build_watson_form(space: SplineSpace, i: int, p: int) -> WatsonForm:
    """Explicit null-space parametrization of the q=2 constraints: column k
    is the support's Lagrange values at the normalized site x_k, with -1 at
    k. For p = 1 the feasible point is unique and the matrix is empty."""
    table, row = _three_point_row(space, i, p)
    free = [k for k in range(-p + 1, p) if k != 0]
    sites = p + np.array(free, dtype=np.intp)
    matrix = np.zeros((2 * p + 1, len(free)))
    with np.errstate(all="ignore"):
        x = _normalized_sites(space, i, tuple(range(-p, p + 1)))[-1]
        a, b, z = x[0], x[-1], x[sites]
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


# the two verdicts, indexed by the knot condition; frozen, so shared
_VERDICTS = (Certificate(passes=False), Certificate(passes=True))


def watson_certificate(space: SplineSpace, i: int, p: int) -> Certificate:
    """The verdict of Watson's dual vector for the weights at offsets
    {-p, 0, p}, which is `knot_condition` at any scale (see the module
    docstring).
    """
    table, row = _three_point_row(space, i, p)
    return _VERDICTS[table.knot.item(row)]


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
    and p < m warned about, on every call. The windows at 1 and dim-2 have
    p + 2 sites where q > p + 1, too few for exactness of degree q, so such a
    q is refused before any window is solved.

    The widest window, of min(2p+1, dim) sites, must have at most
    _MAX_SUPPORTS supports, or the (space, p, q) is refused as well. The
    full windows are solved together, a chunk of rows at a time
    (`_solve_full_windows`); the truncated windows at the two ends take the
    per-window path (`assemble_constraints`, then `_solve_window`) and come
    as one row each. The rows are kept per (space, p, q) while the space
    lives, and a later call reads them; a window that raises keeps nothing."""
    m = space.degree
    _check_radius(space, p, q)
    if q > p + 1:
        raise ValueError(f"need q <= p + 1 = {p + 1}, since the windows at indices 1 and dim-2 "
                         f"have only p + 2 sites; got q={q} with p={p}")
    _check_supports(min(2 * p + 1, space.dimension), q)
    if p < m:
        message = f"p={p} below degree {m}: interior norm bound not guaranteed"
        warnings.warn(message, stacklevel=3)  # at the build's or the audit's caller
    kept = _store(space)
    if (p, q) in kept:
        return kept[p, q]
    last = space.dimension - 1
    # the full windows p .. last-p, or none, are batched
    lo, hi = (p, last - p + 1) if p <= last - p else (last, last)

    def window(i):
        offsets = tuple(range(max(-p, -i), min(p, last - i) + 1))
        system = assemble_constraints(space, i, p, q, offsets=offsets)
        solution = _solve_window(system)
        return _Rows(np.array([i]), offsets, solution.weights[None], np.array([solution.value]),
                     system.matrix[None], system.rhs[None])

    step = max(1, _BATCH_ENTRIES // ((q + 1) * math.comb(2 * p + 1, q + 1)))
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


def _wide_rows(x: np.ndarray, p: int) -> np.ndarray:
    """The full windows of radius p, normalized sites x (W, 2p+1), whose
    knot condition holds strictly outside its 1e-12 band."""
    mid = x[:, 0] + x[:, -1]
    return (x[:, p - 1] + 1e-12 < mid) & (mid < x[:, p + 1] - 1e-12)


def _solve_full_windows(space: SplineSpace, p: int, q: int, centers: np.ndarray) -> _Rows:
    """The full windows at the given centers, solved together: the systems
    as `assemble_constraints` builds them, the supports as `solve_l1` picks
    them, the weights from Bjorck-Pereyra.

    At q = 2 the rows of `_wide_rows` skip the enumeration and solve the
    support {-p, 0, p} alone: it is their one optimum, and the elementwise
    recurrence gives them the bits of its column in the enumeration. Rows
    on the knot condition's edge, where a tie may pick another support, and
    every row at q != 2 are enumerated.

    The enumeration decides each row, ties within 1e-12 relative going to
    the lexicographically first support: a row is accepted when its weights
    meet the constraints within _MISS_TOL, and no dual is solved. The first
    row that misses refuses the chunk, as `solve_l1` would refuse it.
    """
    k, size = 2 * p + 1, q + 1
    offsets = tuple(range(-p, p + 1))
    _, x, matrix, rhs = _assemble(space, centers, offsets, q)
    support = np.empty((len(centers), size), dtype=np.intp)
    on_support = np.empty((len(centers), size))
    # a row that meets a non-finite value fails the residual test below
    with np.errstate(all="ignore"):
        wide = np.zeros(len(centers), dtype=bool)
        if q == 2:
            wide = _wide_rows(x, p)
            support[wide] = (0, p, 2 * p)
            # the sites x_{-p}, x_0, x_p, a strided view, gathered row by row
            on_support[wide] = _support_values(x[:, ::p][wide, :, None], rhs[wide])[..., 0]
        if not wide.all():
            rest = ~wide
            support[rest], on_support[rest] = _cheapest_supports(x[rest], rhs[rest])
        weights = np.zeros((len(centers), k))
        np.put_along_axis(weights, support, on_support, axis=1)
        miss = np.abs(matrix @ weights[:, :, None] - rhs[:, :, None]).max(axis=(1, 2))
        values = np.abs(weights).sum(axis=1)
    missed = np.flatnonzero(~(miss <= _MISS_TOL))
    if missed.size:
        row, i = missed[0], int(centers[missed[0]])
        raise RuntimeError(f"near-best build failed at index {i}: l1 solve at index {i}: "
                           f"weights miss the constraints by {miss[row]:.1e}")
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
