"""Independent computational oracles that pin expected values in tests.

Deliberately naive implementations: Cramer's rule, exhaustive vertex
enumeration (also in mpmath), a dual vector in mpmath, central differences,
a sampled Lebesgue function. Slow but obviously correct,
and sharing no code with the package internals they check.
"""

import itertools
import math

import mpmath
import numpy as np


def vandermonde_solve_3(sites, rhs):
    """Solve the 3x3 system sum_k w_k * x_k^r = rhs_r by Cramer's rule."""
    x0, x1, x2 = (float(s) for s in sites)
    V = np.array([
        [1.0, 1.0, 1.0],
        [x0, x1, x2],
        [x0 * x0, x1 * x1, x2 * x2],
    ])
    det = np.linalg.det(V)
    out = np.empty(3)
    for k in range(3):
        Vk = V.copy()
        Vk[:, k] = rhs
        out[k] = np.linalg.det(Vk) / det
    return out


def l1_min_enumerate(V, b):
    """Minimal l1 norm over solutions of V w = b, by basic-solution search.

    Some optimum of the LP sits at a vertex, i.e. a solution supported on
    r = rank rows columns; enumerate every nonsingular r-subset.
    """
    V = np.asarray(V, dtype=float)
    b = np.asarray(b, dtype=float)
    r, k = V.shape
    best = np.inf
    scale = max(1.0, float(np.abs(V).max()) ** r)
    for cols in itertools.combinations(range(k), r):
        sub = V[:, cols]
        if abs(np.linalg.det(sub)) <= 1e-12 * scale:
            continue
        w = np.linalg.solve(sub, b)
        best = min(best, float(np.abs(w).sum()))
    return best


def standard_form_enumerate(A, b, c):
    """Optimal vertex of min c.x s.t. A x = b, x >= 0, by enumerating every
    basis: the feasible basic solution of least cost, the lexicographically
    first basis among ties within 1e-12. A basis with cond(B) >= 1e10 is
    skipped: its solve is too inexact to rank. Returns (value, basis, x);
    value is inf where no basis is feasible."""
    A, b, c = (np.asarray(v, dtype=float) for v in (A, b, c))
    rows, cols = A.shape
    best = (np.inf, None, None)
    for basis in itertools.combinations(range(cols), rows):
        B = A[:, basis]
        if not np.linalg.cond(B) < 1e10:
            continue
        x = np.zeros(cols)
        x[list(basis)] = np.linalg.solve(B, b)
        if x.min() < -1e-14 * max(1.0, float(np.abs(b).max())):
            continue
        value = float(c @ x)
        if value < best[0] - 1e-12 * max(1.0, abs(value)):
            best = (value, list(basis), x)
    return best


def _nearbest_system_mp(t, m, i, offsets, q):
    """The near-best exactness rows of index i in mpmath, from the knots:
    the Vandermonde at the Greville sites theta_{i+s}, shifted by theta_i and
    scaled by the site span L, and the central moment targets
    e_r(t_{i+1} - theta_i, ..., t_{i+m} - theta_i) / (C(m, r) L^r)."""
    t = [mpmath.mpf(float(v)) for v in t]

    def theta(j):
        return mpmath.fsum(t[j + 1 : j + m + 1]) / m

    center = theta(i)
    sites = [theta(i + s) for s in offsets]
    scale = max(sites) - min(sites)
    esp = [mpmath.mpf(1)] + [mpmath.mpf(0)] * m
    for knot in t[i + 1 : i + m + 1]:
        for r in range(m, 0, -1):
            esp[r] += (knot - center) * esp[r - 1]
    x = [(s - center) / scale for s in sites]
    V = [[xk**r for xk in x] for r in range(q + 1)]
    rhs = [esp[r] / math.comb(m, r) / scale**r for r in range(q + 1)]
    return V, rhs


def nearbest_enumerate_mp(t, m, i, offsets, q, dps=40):
    """Minimal l1 norm of the near-best LP at index i: some optimum is
    supported on q + 1 sites, and every (q+1)-site Vandermonde minor on
    distinct sites is nonsingular, so solve them all in mpmath."""
    with mpmath.workdps(dps):
        V, rhs = _nearbest_system_mp(t, m, i, offsets, q)
        best = None
        for cols in itertools.combinations(range(len(offsets)), q + 1):
            sub = mpmath.matrix([[row[c] for c in cols] for row in V])
            w = mpmath.lu_solve(sub, mpmath.matrix(rhs))
            value = mpmath.fsum(abs(v) for v in w)
            if best is None or value < best:
                best = value
        return float(best)


def nearbest_residual_mp(t, m, i, offsets, q, weights, dps=40):
    """Max absolute residual of the weights in the normalized exactness rows
    of index i, evaluated in mpmath."""
    with mpmath.workdps(dps):
        V, rhs = _nearbest_system_mp(t, m, i, offsets, q)
        w = [mpmath.mpf(float(v)) for v in weights]
        return float(max(abs(mpmath.fdot(row, w) - b) for row, b in zip(V, rhs)))


def nearbest_dual_mp(t, m, i, offsets, q, weights, dps=40):
    """The dual vector of the near-best weights at index i, in mpmath from
    the knots: on their support S (the q + 1 nonzero weights) it solves
    V_S^T y = sign(w_S). Returns the largest |v_j^T y| over every site j,
    which is at most 1 iff the support is optimal, and b^T y, which is then
    the optimal l1 value."""
    with mpmath.workdps(dps):
        V, rhs = _nearbest_system_mp(t, m, i, offsets, q)
        support = [j for j, w in enumerate(weights) if w != 0.0]
        assert len(support) == q + 1, support
        VS_T = mpmath.matrix([[row[j] for row in V] for j in support])
        y = mpmath.lu_solve(VS_T, mpmath.matrix([mpmath.sign(weights[j]) for j in support]))
        largest = max(abs(mpmath.fdot([row[j] for row in V], y)) for j in range(len(offsets)))
        return float(largest), float(mpmath.fdot(rhs, y))


def three_point_certificate_mp(theta, i, p, dps=40):
    """Watson's dual vector for the weights at offsets {-p, 0, p} of index i,
    in mpmath on the raw sites theta_{i-p} .. theta_{i+p}: the quadratic
    through (-1, +1, -1) at theta_{i-p}, theta_i, theta_{i+p}, in Lagrange
    form, at every site. Returns the vector as floats and the largest |v|
    off the support (0 for p = 1), which decides: optimal iff it is <= 1."""
    with mpmath.workdps(dps):
        sites = [mpmath.mpf(float(theta[i + s])) for s in range(-p, p + 1)]
        nodes = (sites[0], sites[p], sites[-1])
        signs = (-1, 1, -1)

        def quadratic(x):
            total = mpmath.mpf(0)
            for j, (node, sign) in enumerate(zip(nodes, signs)):
                basis = mpmath.mpf(1)
                for k, other in enumerate(nodes):
                    if k != j:
                        basis *= (x - other) / (node - other)
                total += sign * basis
            return total

        v = [quadratic(x) for x in sites]
        free = [abs(e) for k, e in enumerate(v) if k not in (0, p, 2 * p)]
        return [float(e) for e in v], float(max(free, default=0))


def central_diff(fn, x, h=1e-6):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# Scalar reference loops: one index at a time, the way the package computed
# these before it stored operators as weight bands. Vectorized code must
# reproduce them bit for bit.


def greville_loop(t, m):
    """Greville abscissae, moments and centered second moments, per index.

    Returns (theta, moments, centered) with the abscissae unclamped: the
    mean of each window as the elementary-symmetric recurrence rounds it.
    """
    t = np.asarray(t, dtype=float)
    dim = len(t) - m - 1
    theta = np.empty(dim)
    moments = np.empty((dim, m + 1))
    centered = np.zeros(dim)
    binom = np.array([math.comb(m, l) for l in range(m + 1)], dtype=float)
    for j in range(dim):
        window = t[j + 1 : j + m + 1]
        esp = np.zeros(m + 1)
        esp[0] = 1.0
        for k, v in enumerate(window, start=1):
            esp[1 : k + 1] = esp[1 : k + 1] + v * esp[0:k]
        moments[j] = esp / binom
        theta[j] = moments[j, 1]
        if m >= 2:
            acc = 0.0
            for r in range(m - 1):
                d = window[r] - window[r + 1 :]
                acc += float(np.dot(d, d))
            centered[j] = acc / (m * m * (m - 1))
    return theta, moments, centered


def central_moments_loop(t, m, theta):
    """Central moment coefficients a_0 .. a_m of every index, one index at a
    time: the elementary symmetric functions of the window centered at the
    given abscissa, each over C(m, s), with a_0 = 1 and a_1 = 0."""
    table = np.empty((len(theta), m + 1))
    for j, center in enumerate(theta):
        esp = [1.0] + [0.0] * m
        for k, knot in enumerate(t[j + 1 : j + m + 1], start=1):
            v = float(knot) - float(center)
            for r in range(k, 0, -1):
                esp[r] = esp[r] + v * esp[r - 1]
        table[j] = [e / math.comb(m, s) for s, e in enumerate(esp)]
        table[j, :2] = 1.0, 0.0
    return table


def three_point_loop(theta, tbar, p):
    """Three-point stencils at offsets {-p, 0, p} (shifted inward at the
    ends), with point evaluation at both extreme indices; a list of
    (offsets, weights) per index."""
    dim = len(theta)
    out = []
    for i in range(dim):
        if i == 0 or i == dim - 1:
            out.append(((0,), np.array([1.0])))
            continue
        jm = max(0, i - p)
        jp = min(dim - 1, i + p)
        dm = theta[i] - theta[jm]
        dp = theta[jp] - theta[i]
        dd = theta[jp] - theta[jm]
        w = np.array([
            -tbar[i] / (dd * dm),
            1.0 + tbar[i] / (dp * dm),
            -tbar[i] / (dd * dp),
        ])
        out.append(((jm - i, 0, jp - i), w))
    return out


def apply_loop(stencils, samples):
    """Coefficients sum_s w_s * samples[i + s], one stencil at a time."""
    coeffs = []
    for i, (offsets, weights) in enumerate(stencils):
        acc = 0.0
        for s, w in zip(offsets, weights):
            acc += w * samples[i + s]
        coeffs.append(acc)
    return np.array(coeffs)


def quadrature_loop(t, m, stencils):
    """Quadrature weights: node i + s collects w_s times the integral
    (t[i+m+1] - t[i]) / (m+1) of basis function i, stencil by stencil."""
    w = np.zeros(len(stencils))
    for i, (offsets, weights) in enumerate(stencils):
        integral = float(t[i + m + 1] - t[i]) / (m + 1)
        for s, lam in zip(offsets, weights):
            w[i + s] += lam * integral
    return w


def _basis_values(t, span, deg, x):
    values = np.zeros(deg + 1)
    values[0] = 1.0
    left = np.zeros(deg + 1)
    right = np.zeros(deg + 1)
    for j in range(1, deg + 1):
        left[j] = x - t[span + 1 - j]
        right[j] = t[span + j] - x
        saved = 0.0
        for r in range(j):
            tmp = values[r] / (right[r + 1] + left[j - r])
            values[r] = saved + right[r + 1] * tmp
            saved = left[j - r] * tmp
        values[j] = saved
    return values


def _span(t, m, x):
    """Knot index k with t[k] <= x < t[k+1], the last span at x = b."""
    n = len(t) - 2 * m - 1
    k = int(np.searchsorted(t, x, side="right")) - 1
    return min(max(k, m), m + n - 1)


def lebesgue_sampled(t, m, sites, weights, lengths, per_span=20):
    """The largest sampled value of the Lebesgue function
    sum_j |sum_i lambda_ij B_i(x)| of the operator whose functional i puts
    weights[i, s] on Greville site sites[i, s], s < lengths[i]: a lower bound
    on its sup norm, from per_span equispaced points of every knot span."""
    t = np.asarray(t, dtype=float)
    n = len(t) - 2 * m - 1
    best = 0.0
    for k in range(m, m + n):
        for x in np.linspace(t[k], t[k + 1], per_span).tolist():
            span = _span(t, m, x)
            row = {}
            for i, b in zip(range(span - m, span + 1), _basis_values(t, span, m, x)):
                used = slice(0, lengths[i])
                for j, w in zip(sites[i, used].tolist(), weights[i, used].tolist()):
                    row[j] = row.get(j, 0.0) + w * b
            best = max(best, sum(abs(c) for c in row.values()))
    return best


def eval_spline_full(t, m, coeffs, x, order):
    """Spline derivative of the given order at x, differencing the whole
    coefficient vector down to that order first (right-continuous at
    knots, left-continuous at b); 0 above the degree."""
    if order > m:
        return 0.0
    t = np.asarray(t, dtype=float)
    span = _span(t, m, x)
    coeffs = np.asarray(coeffs, dtype=float)
    view = t
    deg = m
    for _ in range(order):
        denom = view[deg + 1 : deg + len(coeffs)] - view[1 : len(coeffs)]
        coeffs = deg * np.diff(coeffs) / denom
        view = view[1:-1]
        deg -= 1
    span -= order
    values = _basis_values(view, span, deg, x)
    first = span - deg
    return float(np.dot(values, coeffs[first : first + deg + 1]))


def differentiation_dense(t, m, sites, weights, lengths, nodes):
    """Dense (dim, dim) differentiation matrix: the map from samples to
    coefficients, one band row at a time, times the first derivatives of the
    basis at each node, from the degree-lowering identity
    B'_j = m B_{j,m-1} / (t[j+m] - t[j]) - m B_{j+1,m-1} / (t[j+m+1] - t[j+1])."""
    t = np.asarray(t, dtype=float)
    dim = len(nodes)
    coeff_map = np.zeros((dim, dim))
    for i, length in enumerate(lengths):
        for s, w in zip(sites[i, :length], weights[i, :length]):
            coeff_map[i, s] = w
    basis_prime = np.zeros((dim, dim))
    for row, x in enumerate(nodes):
        span = _span(t, m, float(x))
        first = span - m
        inner = _basis_values(t[1:-1], span - 1, m - 1, float(x))
        scaled = np.zeros(m + 2)
        for idx in range(m):
            j = first + 1 + idx
            scaled[idx + 1] = m * inner[idx] / (t[j + m] - t[j])
        basis_prime[row, first : first + m + 1] = scaled[:-1] - scaled[1:]
    return basis_prime @ coeff_map
