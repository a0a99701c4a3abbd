"""Weight bands against the scalar reference loops in `oracles`.

The vectorized Greville abscissae, three-point builds, apply, quadrature and
local derivative evaluation (one point or an array of points) must round
exactly as the one-index-at-a-time loops do; the only intended difference
is the clamp that keeps each Greville abscissa inside its knot window.
"""

import numpy as np
import pytest

import oracles
from conftest import space_from
from splineqi import (
    FAMILIES,
    SplineFunction,
    apply_qi,
    build_nearbest_qi,
    build_qp2star,
    eval_basis,
    eval_basis_derivative,
    eval_spline,
    norm_upper_bound,
    quadrature_from_qi,
)
from splineqi.quasi_interp import KIND_QP2STAR, _build_radius_p, _row_l1

SIZES = (1, 2, 3, 40)


def battery(m, family):
    """Spaces of one degree and family on seeded intervals, every size."""
    rng = np.random.default_rng([m, FAMILIES.index(family)])
    for n in SIZES:
        a = float(rng.uniform(-1.0, 0.5))
        b = a + float(rng.uniform(1.0, 3.0))
        ratio = float(rng.uniform(1.5, 4.0))
        if family == "geometric":
            ratio = ratio ** (1.0 / max(n - 1, 1))
        yield space_from(family, m, n, seed=int(rng.integers(2**31)), a=a, b=b, ratio=ratio)


def band_rows(qi):
    """(offsets, weights) per index, read from the band directly."""
    return [
        (tuple(int(s) - i for s in qi.sites[i, :length]), qi.weights[i, :length])
        for i, length in enumerate(qi.lengths)
    ]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("m", range(1, 8))
def test_greville_grid_matches_loop(m, family):
    for sp in battery(m, family):
        t = sp.knots.t
        theta, _, centered = oracles.greville_loop(t, m)
        windows = np.array([t[j + 1 : j + m + 1] for j in range(sp.dimension)])
        clamped = np.clip(theta, windows[:, 0], windows[:, -1])
        np.testing.assert_array_equal(sp.greville, clamped)
        np.testing.assert_array_equal(sp.centered_second, centered)
        # the clamp only ever moves an abscissa back onto its window
        moved = np.nonzero(clamped != theta)[0]
        assert np.all((windows[moved, 0] == windows[moved, -1]))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("m", range(2, 8))
def test_three_point_band_matches_loop(m, family):
    for sp in battery(m, family):
        dim = sp.dimension
        rng = np.random.default_rng(dim)
        samples = rng.standard_normal(dim)
        for p in (1, m, m + 2, dim + 1):
            qi = _build_radius_p(sp, p, KIND_QP2STAR)
            ref = oracles.three_point_loop(sp.greville, sp.centered_second, p)
            assert qi.weights.shape == (dim, 3)
            for (offsets, weights), (ref_offsets, ref_weights), st in zip(
                band_rows(qi), ref, qi.stencils
            ):
                assert offsets == ref_offsets == st.offsets
                np.testing.assert_array_equal(weights, ref_weights)
                np.testing.assert_array_equal(st.weights, ref_weights)
            np.testing.assert_array_equal(
                qi.weights[np.arange(3) >= qi.lengths[:, None]], 0.0
            )
            np.testing.assert_array_equal(
                apply_qi(qi, samples).coefficients, oracles.apply_loop(ref, samples)
            )
            np.testing.assert_array_equal(
                quadrature_from_qi(qi).weights,
                oracles.quadrature_loop(sp.knots.t, m, ref),
            )


@pytest.mark.parametrize("m,p", [(2, 4), (3, 4), (4, 5)])
def test_wide_nearbest_band(m, p):
    # widths 9 and 11: rows shorter than the band sum their l1 norm at
    # their own length, as the per-index stencils do
    sp = space_from("random", m, 24, seed=3)
    qi = build_nearbest_qi(sp, p)
    assert qi.weights.shape == (sp.dimension, 2 * p + 1)
    rows = band_rows(qi)
    samples = np.cos(3.0 * sp.greville)
    np.testing.assert_array_equal(
        apply_qi(qi, samples).coefficients, oracles.apply_loop(rows, samples)
    )
    np.testing.assert_array_equal(
        quadrature_from_qi(qi).weights, oracles.quadrature_loop(sp.knots.t, m, rows)
    )
    l1 = [np.abs(st.weights).sum() for st in qi.stencils]
    np.testing.assert_array_equal(_row_l1(qi), l1)
    assert norm_upper_bound(qi) == max(l1)
    assert norm_upper_bound(qi, interior_only=True) == max(l1[qi.interior_lo : qi.interior_hi + 1])
    assert qi.nu1_star == max(qi.lp_values[qi.interior_lo : qi.interior_hi + 1])


class TestStencilView:
    def test_view_is_cached_and_read_only(self):
        qi = build_qp2star(space_from("random", 3, 12, seed=2), 3)
        assert qi.stencils is qi.stencils
        st = qi.stencils[4]
        assert not st.weights.flags.writeable
        assert not qi.weights.flags.writeable and not qi.sites.flags.writeable
        assert tuple(4 + s for s in st.offsets) == tuple(int(s) for s in qi.sites[4])
        assert qi.stencils[0].offsets == (0,) and qi.stencils[0].boundary


@pytest.mark.parametrize("m", range(1, 6))
def test_local_derivatives_match_full_differencing(m):
    for family in FAMILIES:
        sp = space_from(family, m, 9, seed=m, a=-0.7, b=1.3, ratio=2.5)
        t = sp.knots.t
        coeffs = np.random.default_rng(m).standard_normal(sp.dimension)
        f = SplineFunction(sp, coeffs)
        points = np.concatenate([
            np.random.default_rng(m + 10).uniform(sp.knots.a, sp.knots.b, 25),
            np.unique(t),
        ])
        for order in range(m + 2):
            for x in points:
                got = eval_spline(f, float(x), order)
                assert got == oracles.eval_spline_full(t, m, coeffs, float(x), order)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("m", range(1, 8))
def test_array_calls_match_full_differencing(m, family):
    for sp in battery(m, family):
        t = sp.knots.t
        coeffs = np.random.default_rng(sp.dimension).standard_normal(sp.dimension)
        f = SplineFunction(sp, coeffs)
        points = np.concatenate([
            np.random.default_rng(m + 10).uniform(sp.knots.a, sp.knots.b, 25),
            np.unique(t),
        ])
        for order in range(m + 2):
            want = [oracles.eval_spline_full(t, m, coeffs, float(x), order) for x in points]
            got = f(points, order)
            assert isinstance(got, np.ndarray) and got.shape == points.shape
            np.testing.assert_array_equal(got, want)
            # any shape, each point rounded as on its own
            np.testing.assert_array_equal(f(points.reshape(-1, 1), order)[:, 0], want)
        first, values = eval_basis(sp, points)
        dfirst, derivs = eval_basis_derivative(sp, points)
        for k, x in enumerate(points):
            one_first, one_values = eval_basis(sp, float(x))
            assert first[k] == dfirst[k] == one_first
            np.testing.assert_array_equal(values[k], one_values)
            np.testing.assert_array_equal(derivs[k], eval_basis_derivative(sp, float(x))[1])


@pytest.mark.parametrize("bad", [-0.1, 1.1, np.nan])
def test_array_outside_interval_rejected(bad):
    sp = space_from("random", 3, 10, seed=4)
    f = SplineFunction(sp, np.ones(sp.dimension))
    points = np.array([0.0, 0.5, bad, 1.0])
    for call in (lambda: f(points), lambda: f(points, 1), lambda: f(points, 4),
                 lambda: eval_basis(sp, points), lambda: eval_basis_derivative(sp, points)):
        with pytest.raises(ValueError, match="outside"):
            call()
