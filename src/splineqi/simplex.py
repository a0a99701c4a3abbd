"""Dense primal simplex that certifies a given basis, with a two-phase
cold start as its fallback; Bland's anti-cycling rule throughout.

Solves   min c.x   subject to   A x = b,  x >= 0   on small dense problems.
A caller that knows a likely optimal basis passes its columns, and the
basis is priced before any tableau is built: with B = A[:, basis], two
small solves give the primal B x_B = b and the dual B^T y = c_B. If x_B is
feasible within 1e-8 max(1, |b|) and every reduced cost c - A^T y is at
least -_PIVOT_TOL, the basic solution is optimal and is returned with 0
iterations; no pivot has to exceed _PIVOT_TOL, so a basis on nearly
coincident columns is certified too. Otherwise (a singular B, a NaN, an
infeasible or a non-optimal basis), and with no basis at all, the cold
path runs: phase 1 minimizes the sum of artificial variables from an
all-artificial basis, and phase 2 re-prices the original objective.
Bland's rule everywhere: the entering column is the lowest index with
reduced cost below -_PIVOT_TOL, the leaving row is the minimum-ratio row
with ties broken by the lowest basic variable index. That guarantees
termination without any perturbation; as a guard against rounding, more
than 10 iterations per column of A are refused. Artificial columns are
barred from re-entering once they leave the basis.

This is deliberately self-contained (no scipy): the l1 stencil problems it
serves have at most a handful of rows, so a dense tableau is the simplest
trustworthy implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["SimplexResult", "solve_standard_form"]

# the smallest reduced cost and pivot entry that count as nonzero
_PIVOT_TOL = 1e-11


@dataclass(frozen=True, eq=False)
class SimplexResult:
    x: np.ndarray
    value: float
    status: str  # "optimal" | "infeasible" | "unbounded"
    iterations: int


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]


def _iterate(
    tableau: np.ndarray,
    basis: list[int],
    allowed: np.ndarray,
    max_iter: int,
    start_count: int,
) -> tuple[str, int]:
    """Run simplex iterations on a tableau whose last row is the reduced
    cost row and last column the right-hand side. Returns (status, count)."""
    rows = tableau.shape[0] - 1
    count = start_count
    while True:
        cost = tableau[-1, :-1]
        entering = -1
        for j in range(cost.size):
            if allowed[j] and cost[j] < -_PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return "optimal", count
        if count >= max_iter:
            raise RuntimeError(
                f"simplex iteration cap ({max_iter}) exceeded; problem may be degenerate"
            )
        leaving = -1
        best_ratio = np.inf
        for r in range(rows):
            a = tableau[r, entering]
            if a > _PIVOT_TOL:
                ratio = tableau[r, -1] / a
                if ratio < best_ratio - 1e-15 or (
                    abs(ratio - best_ratio) <= 1e-15
                    and (leaving < 0 or basis[r] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = r
        if leaving < 0:
            return "unbounded", count
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
        count += 1


def _certified(A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: Sequence[int],
               tol: float) -> np.ndarray | None:
    """The basic solution of ``basis`` if it is feasible within ``tol`` and
    every reduced cost c - A^T y, with B^T y = c_B, is at least -_PIVOT_TOL;
    None otherwise, also for a singular B or a NaN anywhere. A basic
    column's reduced cost is 0 by construction, and is taken as 0: what the
    product gives there is the rounding of the dual solve, which on an
    ill-conditioned B can exceed _PIVOT_TOL."""
    basis = list(basis)  # a tuple would index several axes
    B = A[:, basis]
    try:
        x_B = np.linalg.solve(B, b)
        y = np.linalg.solve(B.T, c[basis])
    except np.linalg.LinAlgError:
        return None
    with np.errstate(all="ignore"):
        reduced = c - A.T @ y
        reduced[basis] = 0.0
        priced = x_B.min() >= -tol and reduced.min() >= -_PIVOT_TOL
    if not priced:
        return None
    x = np.zeros(A.shape[1])
    x[basis] = x_B
    return x


def solve_standard_form(
    A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: Sequence[int] | None = None
) -> SimplexResult:
    """Simplex for min c.x s.t. A x = b, x >= 0.

    ``basis``, if given, lists one column per row. If it prices optimal
    (`_certified`), its basic solution is returned with 0 iterations;
    otherwise, as without a basis, the two-phase cold start runs.
    Raises RuntimeError past 10 iterations per column of A.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    rows, cols = A.shape
    if b.shape != (rows,) or c.shape != (cols,):
        raise ValueError("inconsistent LP dimensions")
    if basis is not None and (len(basis) != rows or not all(0 <= j < cols for j in basis)):
        raise ValueError(f"a basis needs {rows} column indices in 0..{cols - 1}, got {basis!r}")

    tol = 1e-8 * max(1.0, float(np.abs(b).max()))
    if basis is not None and (x := _certified(A, b, c, basis, tol)) is not None:
        return SimplexResult(x=x, value=float(np.dot(c, x)), status="optimal", iterations=0)

    # phase 1 tableau: [A | I | b] with rows flipped so b >= 0
    tableau = np.zeros((rows + 1, cols + rows + 1))
    tableau[:rows, :cols] = A
    tableau[:rows, -1] = b
    for r in range(rows):
        if tableau[r, -1] < 0.0:
            tableau[r] = -tableau[r]
        tableau[r, cols + r] = 1.0
    max_iter = 10 * cols
    basis = [cols + r for r in range(rows)]
    # reduced costs of min sum(artificials) with the artificial basis
    tableau[-1, :cols] = -tableau[:rows, :cols].sum(axis=0)
    tableau[-1, -1] = -tableau[:rows, -1].sum()
    allowed = np.ones(cols + rows, dtype=bool)
    allowed[cols:] = False  # artificials never (re-)enter

    status, count = _iterate(tableau, basis, allowed, max_iter, 0)
    phase1 = -tableau[-1, -1]
    # an exact phase 1 cannot be unbounded; a rounded one can, at objective ~0
    if status == "unbounded" and abs(phase1) > tol:
        raise RuntimeError("phase-1 objective unbounded; invalid tableau")
    if phase1 > tol:
        return SimplexResult(
            x=np.zeros(cols), value=np.inf, status="infeasible", iterations=count
        )

    # drive any zero-valued artificial out of the basis; drop redundant rows
    keep_rows = []
    for r in range(rows):
        if basis[r] >= cols:
            target = -1
            for j in range(cols):
                if abs(tableau[r, j]) > _PIVOT_TOL:
                    target = j
                    break
            if target < 0:
                continue  # redundant constraint
            _pivot(tableau, r, target)
            basis[r] = target
        keep_rows.append(r)
    if len(keep_rows) < rows:
        tableau = tableau[keep_rows + [rows]]
        basis = [basis[r] for r in keep_rows]
        rows = len(keep_rows)

    # phase 2: drop artificial columns, re-price the real objective
    tableau = np.hstack([tableau[:, :cols], tableau[:, -1:]])
    cost = np.zeros(cols + 1)
    cost[:cols] = c
    for r in range(rows):
        if cost[basis[r]] != 0.0:
            cost -= cost[basis[r]] * tableau[r]
    tableau[-1] = cost
    allowed = np.ones(cols, dtype=bool)

    status, count = _iterate(tableau, basis, allowed, max_iter, count)
    if status == "unbounded":
        return SimplexResult(
            x=np.zeros(cols), value=-np.inf, status="unbounded", iterations=count
        )
    x = np.zeros(cols)
    for r in range(rows):
        x[basis[r]] = tableau[r, -1]
    return SimplexResult(
        x=x, value=float(np.dot(c, x)), status="optimal", iterations=count
    )
