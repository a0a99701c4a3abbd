"""Dense two-phase primal simplex with Bland's anti-cycling rule.

Solves   min c.x   subject to   A x = b,  x >= 0   on small dense problems.
Phase 1 minimizes the sum of artificial variables from an all-artificial
basis; phase 2 re-prices the original objective. Bland's rule everywhere:
the entering column is the lowest index with reduced cost below -tol, the
leaving row is the minimum-ratio row with ties broken by the lowest basic
variable index. That guarantees termination without any perturbation.
Artificial columns are barred from re-entering once they leave the basis.

This is deliberately self-contained (no scipy): the l1 stencil problems it
serves have at most a handful of rows, so a dense tableau is the simplest
trustworthy implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
    pivot_tol: float,
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
            if allowed[j] and cost[j] < -pivot_tol:
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
            if a > pivot_tol:
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


def solve_standard_form(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    pivot_tol: float = 1e-11,
    max_iter: int = 1000,
) -> SimplexResult:
    """Two-phase simplex for min c.x s.t. A x = b, x >= 0."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    rows, cols = A.shape
    if b.shape != (rows,) or c.shape != (cols,):
        raise ValueError("inconsistent LP dimensions")

    # phase 1 tableau: [A | I | b] with rows flipped so b >= 0
    tableau = np.zeros((rows + 1, cols + rows + 1))
    tableau[:rows, :cols] = A
    tableau[:rows, -1] = b
    for r in range(rows):
        if tableau[r, -1] < 0.0:
            tableau[r] = -tableau[r]
        tableau[r, cols + r] = 1.0
    # reduced costs of min sum(artificials) with the artificial basis
    tableau[-1, :cols] = -tableau[:rows, :cols].sum(axis=0)
    tableau[-1, -1] = -tableau[:rows, -1].sum()
    basis = [cols + r for r in range(rows)]
    allowed = np.ones(cols + rows, dtype=bool)
    allowed[cols:] = False  # artificials never (re-)enter

    status, count = _iterate(tableau, basis, allowed, pivot_tol, max_iter, 0)
    phase1 = -tableau[-1, -1]
    tol = 1e-8 * max(1.0, float(np.abs(b).max()))
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
                if abs(tableau[r, j]) > pivot_tol:
                    target = j
                    break
            if target < 0:
                continue  # redundant constraint
            _pivot(tableau, r, target)
            basis[r] = target
        keep_rows.append(r)
    if len(keep_rows) < rows:
        sub = [r for r in keep_rows] + [rows]
        tableau = tableau[sub]
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

    status, count = _iterate(tableau, basis, allowed, pivot_tol, max_iter, count)
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
