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

from typing import NamedTuple, Sequence

import numpy as np

__all__ = ["SimplexResult", "solve_standard_form"]

# the smallest reduced cost that counts as negative
_COST_TOL = 1e-11


class SimplexResult(NamedTuple):
    x: np.ndarray
    value: float
    status: str  # "optimal" | "not optimal"
    iterations: int  # always 0: a basis is priced, never pivoted


def _certified(A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: list[int],
               tol: float) -> np.ndarray | None:
    """The basic solution of ``basis`` if it is feasible within ``tol`` and
    every reduced cost c - A^T y, with B^T y = c_B, is at least -_COST_TOL;
    None otherwise, also for a singular B or a NaN anywhere. A basic
    column's reduced cost is 0 by construction, and is taken as 0: what the
    product gives there is the rounding of the dual solve, which on an
    ill-conditioned B can exceed _COST_TOL."""
    columns = np.array(basis, dtype=np.intp)
    B = A.take(columns, axis=1)
    try:
        x_B = np.linalg.solve(B, b)
        y = np.linalg.solve(B.T, c[columns])
    except np.linalg.LinAlgError:
        return None
    with np.errstate(all="ignore"):
        reduced = c - A.T @ y
    reduced[columns] = 0.0
    # a NaN fails both tests
    if not (all(v >= -tol for v in x_B.tolist())
            and all(v >= -_COST_TOL for v in reduced.tolist())):
        return None
    x = np.zeros(A.shape[1])
    x[columns] = x_B
    return x


def solve_standard_form(
    A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: Sequence[int] | None = None
) -> SimplexResult:
    """Price ``basis`` for min c.x s.t. A x = b, x >= 0.

    ``basis`` lists one column of A per row: distinct integers (Python or
    numpy, not bool). If it prices optimal (`_certified`), its basic
    solution is returned with status "optimal"; otherwise the status is
    "not optimal", with x = 0 and a NaN value. Raises ValueError without a
    basis (none is searched for) or with a malformed one.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    rows, cols = A.shape
    if b.shape != (rows,) or c.shape != (cols,):
        raise ValueError("inconsistent LP dimensions")
    columns = None if basis is None else list(basis)
    if columns is not None and set(map(type, columns)) != {int}:  # Python ints pass as they are
        integers = all(isinstance(j, (int, np.integer)) and not isinstance(j, bool) for j in columns)
        columns = list(map(int, columns)) if integers else None
    if (columns is None or len(columns) != rows or len(set(columns)) != rows
            or not all(0 <= j < cols for j in columns)):
        raise ValueError(f"a basis needs {rows} column indices in 0..{cols - 1}, got {basis!r}")

    # a NaN in b gives a NaN in x_B, which fails the test whatever tol is
    tol = 1e-8 * max(1.0, max(map(abs, b.tolist()), default=0.0))
    if (x := _certified(A, b, c, columns, tol)) is not None:
        return SimplexResult(x=x, value=float(np.dot(c, x)), status="optimal", iterations=0)
    return SimplexResult(x=np.zeros(cols), value=np.nan, status="not optimal", iterations=0)
