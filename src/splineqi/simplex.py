"""Pricing of a given basis of a small dense LP in standard form.

For   min c.x   subject to   A x = b,  x >= 0,   a caller that holds a
candidate optimal basis passes its columns, one per row, and the basis is
priced: with B = A[:, basis], two small solves give the primal B x_B = b
and the dual B^T y = c_B. If x_B is feasible within 1e-8 max(1, |b|) and
every reduced cost c - A^T y is at least -_COST_TOL, the basic solution is
optimal. Nothing is pivoted, so a basis on nearly coincident columns is
certified too. A basis that does not price (a singular B, a NaN, an
infeasible or a non-optimal basis) is reported as such; no other basis is
searched for. The near-best LP finds its candidate by enumeration and calls
this once per window to certify it.

This is deliberately self-contained (no scipy): the l1 stencil problems it
serves have at most a handful of rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["SimplexResult", "solve_standard_form"]

# the smallest reduced cost that counts as negative
_COST_TOL = 1e-11


@dataclass(frozen=True, eq=False)
class SimplexResult:
    x: np.ndarray
    value: float
    status: str  # "optimal" | "not optimal"
    iterations: int  # always 0: a basis is priced, never pivoted


def _certified(A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: Sequence[int],
               tol: float) -> np.ndarray | None:
    """The basic solution of ``basis`` if it is feasible within ``tol`` and
    every reduced cost c - A^T y, with B^T y = c_B, is at least -_COST_TOL;
    None otherwise, also for a singular B or a NaN anywhere. A basic
    column's reduced cost is 0 by construction, and is taken as 0: what the
    product gives there is the rounding of the dual solve, which on an
    ill-conditioned B can exceed _COST_TOL."""
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
        priced = x_B.min() >= -tol and reduced.min() >= -_COST_TOL
    if not priced:
        return None
    x = np.zeros(A.shape[1])
    x[basis] = x_B
    return x


def solve_standard_form(
    A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: Sequence[int] | None = None
) -> SimplexResult:
    """Price ``basis`` for min c.x s.t. A x = b, x >= 0.

    ``basis`` lists one column of A per row. If it prices optimal
    (`_certified`), its basic solution is returned with status "optimal";
    otherwise the status is "not optimal", with x = 0 and a NaN value.
    Raises ValueError without a basis: none is searched for.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    rows, cols = A.shape
    if b.shape != (rows,) or c.shape != (cols,):
        raise ValueError("inconsistent LP dimensions")
    if basis is None or len(basis) != rows or not all(0 <= j < cols for j in basis):
        raise ValueError(f"a basis needs {rows} column indices in 0..{cols - 1}, got {basis!r}")

    tol = 1e-8 * max(1.0, float(np.abs(b).max()))
    if (x := _certified(A, b, c, basis, tol)) is not None:
        return SimplexResult(x=x, value=float(np.dot(c, x)), status="optimal", iterations=0)
    return SimplexResult(x=np.zeros(cols), value=np.nan, status="not optimal", iterations=0)
