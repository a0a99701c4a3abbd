"""Differential and discrete quasi-interpolants: weights, exactness, norms."""

import math

import numpy as np
import pytest
from hypothesis import given

from conftest import space_from, spaces
from oracles import central_moments_loop, greville_loop, lebesgue_sampled, vandermonde_solve_3
from splineqi import (
    SplineFunction,
    SplineSpace,
    apply_dqi,
    apply_qi,
    build_nearbest_qi,
    build_q2star,
    build_qp2star,
    greville_samples,
    make_clamped_knots,
    norm_upper_bound,
    operator_recipe,
)
from splineqi.quasi_interp import KIND_QP2STAR, _build_radius_p, _three_point_weights


def moments(space):
    """The raw Greville moments of every index, from the reference loop."""
    return greville_loop(space.knots.t, space.degree)[1]


def stencil_moment(space, stencil, r):
    """mu_i(e_r) for a sampling stencil."""
    theta = space.greville
    return sum(
        w * theta[stencil.i + s] ** r
        for s, w in zip(stencil.offsets, stencil.weights)
    )


class TestDqiCoefficients:
    """Rows of `SplineSpace.central_moments`, the weights of D^s f / s! at
    theta_i in the differential quasi-interpolant."""

    @given(spaces())
    def test_first_two_coefficients_fixed(self, sp):
        for i in range(sp.dimension):
            a = sp.central_moments[i]
            assert a[0] == 1.0
            assert a[1] == 0.0

    @given(spaces())
    def test_matches_binomial_moment_expansion(self, sp):
        # independent route: a_s = sum_l (-1)^{s-l} C(s,l) theta^{s-l} theta^(l)
        raw_moments = moments(sp)
        theta = sp.greville
        for i in range(sp.dimension):
            a = sp.central_moments[i]
            for s in range(sp.degree + 1):
                raw = sum(
                    (-1) ** (s - l) * math.comb(s, l) * theta[i] ** (s - l) * raw_moments[i, l]
                    for l in range(s + 1)
                )
                assert abs(a[s] - raw) <= 1e-10 * max(1.0, abs(raw))

    def test_quadratic_single_span_window(self):
        # window of length h: second-derivative weight a_2/2! = -h^2/8
        kv = make_clamped_knots(0.0, 2.0, (0.75,), 2)
        sp = SplineSpace.from_knots(kv)
        a = sp.central_moments[1]  # window (0, 0.75)
        assert a[2] == pytest.approx(-(0.75**2) / 4.0, rel=1e-14)
        assert a[2] / 2.0 == pytest.approx(-(0.75**2) / 8.0, rel=1e-14)

    def test_cubic_unequal_steps(self):
        # window (0, 1, 3): steps 1 and 2 around the center knot
        kv = make_clamped_knots(-1.0, 4.0, (0.0, 1.0, 3.0), 3)
        sp = SplineSpace.from_knots(kv)
        a = sp.central_moments[3]  # window t[4:7] = (0, 1, 3)
        h1, h2 = 1.0, 2.0
        assert a[2] == pytest.approx(-(h1 * h1 + h1 * h2 + h2 * h2) / 9.0, rel=1e-13)
        assert a[3] == pytest.approx(
            (2 * h1 + h2) * (h2 - h1) * (h1 + 2 * h2) / 27.0, rel=1e-13
        )
        assert a[3] == pytest.approx(20.0 / 27.0, rel=1e-13)

    def test_cubic_uniform_window_odd_coefficient_vanishes(self):
        sp = space_from("uniform", m=3, n=10)
        mid = sp.dimension // 2
        a = sp.central_moments[mid]
        assert a[3] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("m", range(1, 8))
    @pytest.mark.parametrize("family, ratio", [
        ("uniform", 1.0), ("arithmetic", 5.0), ("geometric", 1.5), ("random", 1.0),
    ])
    def test_table_matches_per_index_loop_exactly(self, m, family, ratio):
        sp = space_from(family, m, n=17, seed=3, ratio=ratio)
        expected = central_moments_loop(sp.knots.t, m, sp.greville)
        assert sp.central_moments.tobytes() == expected.tobytes()
        assert not sp.central_moments.flags.writeable

    def test_overflow_is_refused_and_nearbest_still_builds(self):
        # on [0, 1e60] a_7 is about 1e420; the near-best right-hand sides
        # divide each knot difference by the window's span first
        sp = space_from("uniform", m=7, n=8, b=1e60)
        message = r"degree-7 knot windows of \[0.0, 1e\+60\] overflow float64"
        with pytest.raises(ValueError, match=message):
            sp.central_moments
        qi = build_nearbest_qi(sp, 7, 7)
        assert np.isfinite(qi.lp_values).all() and min(qi.lp_values) >= 1.0


class TestApplyDqi:
    @given(spaces())
    def test_monomial_exactness(self, sp):
        m = sp.degree
        raw_moments = moments(sp)
        for k in range(m + 1):
            def oracle(x, k=k):
                # derivatives of x^k
                return [
                    math.perm(k, l) * x ** (k - l) if l <= k else 0.0
                    for l in range(m + 1)
                ]

            f = apply_dqi(sp, oracle)
            target = raw_moments[:, k]
            err = np.abs(f.coefficients - target)
            assert (err <= 1e-10 * np.maximum(1.0, np.abs(target))).all()

    @given(spaces(m_lo=1, m_hi=4, n_hi=8))
    def test_projector_on_random_splines(self, sp):
        rng = np.random.default_rng(1 + sp.dimension)
        coeffs = rng.uniform(-2.0, 2.0, sp.dimension)
        g = SplineFunction(sp, coeffs)
        m = sp.degree

        def oracle(x):
            return [g(x, derivative_order=l) for l in range(m + 1)]

        rebuilt = apply_dqi(sp, oracle)
        err = np.abs(rebuilt.coefficients - coeffs)
        assert (err <= 1e-8 * np.maximum(1.0, np.abs(coeffs))).all()

    def test_constant_oracle(self):
        sp = space_from("random", m=3, n=7, seed=8)
        f = apply_dqi(sp, lambda x: [4.5, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(f.coefficients, 4.5, rtol=1e-14)

    @pytest.mark.parametrize("m", range(1, 8))
    def test_coefficients_match_per_index_dot(self, m):
        # one vecdot over the rows rounds each row as np.dot on that row alone
        sp = space_from("random", m, n=40, seed=m)
        derivs = np.sin(sp.greville[:, None] + np.arange(m + 1) * 0.7)
        scaled = sp.central_moments * np.array([1.0 / math.factorial(l) for l in range(m + 1)])
        expected = [float(np.dot(scaled[i], row)) for i, row in enumerate(derivs)]
        rows = iter(derivs)  # the oracle is called once per site, in index order
        got = apply_dqi(sp, lambda x: next(rows))
        assert got.coefficients.tobytes() == np.array(expected).tobytes()

    def test_short_oracle_rejected(self):
        sp = space_from("uniform", m=3, n=5)
        with pytest.raises(ValueError):
            apply_dqi(sp, lambda x: [1.0, 0.0])


class TestBuildQ2Star:
    def test_uniform_interior_weights(self):
        sp = space_from("uniform", m=2, n=10)
        qi = build_q2star(sp)
        st = qi.stencils[5]
        np.testing.assert_allclose(st.weights, [-0.125, 1.25, -0.125], rtol=1e-13)
        assert st.offsets == (-1, 0, 1)

    @given(spaces(m_lo=2))
    def test_interior_weights_match_cramer_oracle(self, sp):
        qi = build_q2star(sp)
        theta, second = sp.greville, moments(sp)[:, 2]
        for st in qi.stencils:
            if st.boundary:
                continue
            sites = [theta[st.i + s] for s in st.offsets]
            rhs = np.array([1.0, theta[st.i], second[st.i]])
            expected = vandermonde_solve_3(sites, rhs)
            np.testing.assert_allclose(st.weights, expected, rtol=1e-9, atol=1e-12)

    @given(spaces(m_lo=2))
    def test_weights_sum_to_one(self, sp):
        qi = build_q2star(sp)
        for st in qi.stencils:
            assert abs(st.weights.sum() - 1.0) <= 1e-12

    @given(spaces(m_lo=2))
    def test_quadratic_exactness_every_index(self, sp):
        qi = build_q2star(sp)
        raw_moments = moments(sp)
        for st in qi.stencils:
            for r in range(3):
                target = raw_moments[st.i, r]
                got = stencil_moment(sp, st, r)
                assert abs(got - target) <= 1e-10 * max(1.0, abs(target))

    def test_degenerate_window_collapses_to_point_evaluation(self):
        theta = np.array([0.0, 1.0, 3.0])
        np.testing.assert_allclose(
            _three_point_weights(theta, 0.0, 1, 0, 2), [0.0, 1.0, 0.0], atol=0
        )

    def test_degree_one_rejected(self):
        with pytest.raises(ValueError):
            build_q2star(space_from("uniform", m=1, n=6))

    def test_extreme_indices_are_point_evaluation(self):
        sp = space_from("random", m=3, n=8, seed=3)
        qi = build_q2star(sp)
        for i in (0, sp.dimension - 1):
            st = qi.stencils[i]
            assert st.offsets == (0,)
            np.testing.assert_array_equal(st.weights, [1.0])
            assert st.boundary


class TestBuildQp2Star:
    def test_uniform_wide_weights_and_norm(self):
        sp = space_from("uniform", m=2, n=12)
        qi = build_qp2star(sp, 2)
        st = qi.stencils[6]
        np.testing.assert_allclose(st.weights, [-1 / 32, 17 / 16, -1 / 32], rtol=1e-13)
        assert np.abs(st.weights).sum() == pytest.approx(9.0 / 8.0, rel=1e-13)
        assert st.offsets == (-2, 0, 2)

    @given(spaces(m_lo=2, m_hi=4))
    def test_triples_solve_vandermonde_system(self, sp):
        p = sp.degree
        qi = build_qp2star(sp, p)
        theta, second = sp.greville, moments(sp)[:, 2]
        for st in qi.stencils:
            if len(st.offsets) != 3:
                continue
            sites = [theta[st.i + s] for s in st.offsets]
            rhs = np.array([1.0, theta[st.i], second[st.i]])
            expected = vandermonde_solve_3(sites, rhs)
            np.testing.assert_allclose(st.weights, expected, rtol=1e-9, atol=1e-12)
            for r in range(3):
                resid = abs(stencil_moment(sp, st, r) - rhs[r])
                assert resid <= 1e-10 * max(1.0, abs(rhs[r]))

    def test_radius_one_reduces_to_q2star(self):
        sp = space_from("random", m=2, n=9, seed=12)
        narrow = _build_radius_p(sp, 1, KIND_QP2STAR)
        base = build_q2star(sp)
        for st_a, st_b in zip(narrow.stencils, base.stencils):
            np.testing.assert_allclose(st_a.weights, st_b.weights, rtol=1e-14)

    def test_degree_one_rejected(self):
        with pytest.raises(ValueError, match="^quadratic exactness needs degree >= 2$"):
            build_qp2star(space_from("uniform", m=1, n=6), 1)

    def test_small_radius_rejected_without_flag(self):
        sp = space_from("uniform", m=3, n=10)
        with pytest.raises(ValueError, match=r"^p=2 below degree 3: norm bound not guaranteed$"):
            build_qp2star(sp, 2)

    @pytest.mark.parametrize("n, refused", [(40, False), (64, True)])
    def test_underflowing_centered_second_moment_is_refused(self, n, refused):
        # geometric ratio 1000 shrinks the first windows past float64's normal
        # range as n grows; every interior tbar is positive in exact arithmetic
        sp = space_from("geometric", m=3, n=n, ratio=1000.0)
        assert (sp.centered_second[1:-1].min() < np.finfo(float).tiny) == refused
        for build in (build_q2star, lambda sp: build_qp2star(sp, 3)):
            if refused:
                with pytest.raises(ValueError, match=r"^the centered second moments of "
                                   r"\[0.0, 1.0\] underflow float64$"):
                    build(sp)
            else:
                assert np.isfinite(build(sp).weights).all()

    def test_radius_larger_than_space_clamps(self):
        sp = space_from("uniform", m=2, n=6)
        qi = build_qp2star(sp, 50)
        st = qi.stencils[3]
        assert st.i + st.offsets[0] == 0 and st.i + st.offsets[-1] == sp.dimension - 1
        for r in range(3):
            target = moments(sp)[3, r]
            assert abs(stencil_moment(sp, st, r) - target) <= 1e-10


def scalar_rows(qi, rows):
    """Rows of qi's band from one scalar `_three_point_weights` call each."""
    sp, p = qi.space, qi.p
    theta, last = sp.greville, sp.dimension - 1
    return {i: _three_point_weights(theta, sp.centered_second[i], i, max(0, i - p),
                                    min(last, i + p)) for i in rows}


class TestBandMatchesScalarCalls:
    """The vectorized builds give each row the bits of its own scalar call."""

    @pytest.mark.parametrize("build", [build_q2star, lambda sp: build_qp2star(sp, 3)])
    def test_random_partition(self, build):
        qi = build(space_from("random", m=3, n=20_000, seed=7))
        rows = range(1, qi.space.dimension - 1)
        for i, w in scalar_rows(qi, rows).items():
            assert qi.weights[i].tobytes() == w.tobytes(), i

    @pytest.mark.parametrize("m, n", [(2, 1000), (3, 2500)])
    def test_long_interval_divides_one_gap_at_a_time(self, m, n):
        # on [0, 1e157] every window is wider than 1e154, so every row and
        # every scalar call take the one-gap-at-a-time branch
        sp = space_from("uniform", m=m, n=n, b=1e157)
        qi = build_q2star(sp) if m == 2 else build_qp2star(sp, m)
        dim, p = sp.dimension, qi.p
        i = np.arange(1, dim - 1)
        theta = sp.greville
        assert (theta[np.minimum(dim - 1, i + p)] - theta[np.maximum(0, i - p)] > 1e154).all()
        for i, w in scalar_rows(qi, range(1, dim - 1)).items():
            assert qi.weights[i].tobytes() == w.tobytes(), i

    def test_one_wide_window_leaves_the_others_alone(self):
        # step 5000 makes the only windows wider than 1e154; every other row
        # keeps the product formula its scalar call takes
        steps = np.random.default_rng(1).uniform(0.05, 1, 10_000) * 1e150
        steps[5000] = 1.3e154
        knots = np.cumsum(steps)
        sp = SplineSpace.from_knots(make_clamped_knots(0.0, knots[-1], knots[:-1], 2))
        qi = build_q2star(sp)
        gaps = sp.greville[2:] - sp.greville[:-2]
        assert 0 < np.count_nonzero(gaps > 1e154) < 5
        for i, w in scalar_rows(qi, range(1, sp.dimension - 1)).items():
            assert qi.weights[i].tobytes() == w.tobytes(), i


def summed_left_to_right(qi, samples):
    """apply_qi's coefficients from a loop over rows in Python floats."""
    weights, sites, s = qi.weights.tolist(), qi.sites.tolist(), samples.tolist()
    out = []
    for row_w, row_s in zip(weights, sites):
        total = 0.0
        for w, j in zip(row_w, row_s):
            total += w * s[j]
        out.append(total)
    return np.array(out)


class TestApplyQi:
    @pytest.mark.parametrize("kind", ["q2star", "qp2star", "nearbest"])
    def test_each_row_summed_left_to_right(self, kind):
        sp = space_from("random", m=3, n=300 if kind == "nearbest" else 5000, seed=4)
        qi = operator_recipe(kind, None if kind == "q2star" else 3).build(sp)
        samples = np.sin(7.0 * sp.greville) - 0.5
        got = apply_qi(qi, samples).coefficients
        assert got.tobytes() == summed_left_to_right(qi, samples).tobytes()

    def test_linear_samples_reproduce_greville(self):
        sp = space_from("random", m=2, n=11, seed=5)
        qi = build_q2star(sp)
        f = apply_qi(qi, sp.greville.copy())
        np.testing.assert_allclose(f.coefficients, sp.greville, atol=1e-12)

    def test_constant_samples(self):
        sp = space_from("random", m=3, n=6, seed=5)
        qi = build_qp2star(sp, 3)
        f = apply_qi(qi, np.ones(sp.dimension))
        np.testing.assert_allclose(f.coefficients, 1.0, rtol=1e-13)

    def test_square_samples_give_second_moments(self):
        sp = space_from("geometric", m=2, n=9, ratio=1.5)
        qi = build_q2star(sp)
        f = apply_qi(qi, sp.greville**2)
        np.testing.assert_allclose(f.coefficients, moments(sp)[:, 2], atol=1e-13)

    def test_sample_count_mismatch(self):
        sp = space_from("uniform", m=2, n=6)
        qi = build_q2star(sp)
        with pytest.raises(ValueError):
            apply_qi(qi, np.ones(3))

    def test_greville_samples_helper(self):
        sp = space_from("uniform", m=2, n=6)
        samples = greville_samples(sp, lambda x: 2 * x)
        np.testing.assert_allclose(samples, 2 * sp.greville, rtol=1e-15)

    def test_complex_samples_refused(self):
        # a complex value used to be cut to its real part with only a
        # ComplexWarning, and apply_qi built a wrong spline from it
        sp = space_from("uniform", m=2, n=6)
        with pytest.raises(TypeError):
            greville_samples(sp, lambda x: complex(x, 1.0))

    def test_complex_sample_arrays_refused(self):
        # np.asarray(..., dtype=float) would cut a complex array to its real
        # part with only a ComplexWarning
        sp = space_from("uniform", m=2, n=6)
        qi = build_q2star(sp)
        for dtype in (np.complex64, np.complex128):
            samples = np.exp(1j * sp.greville).astype(dtype)
            message = rf"^samples must be real numbers, got dtype {np.dtype(dtype)}$"
            with pytest.raises(TypeError, match=message):
                apply_qi(qi, samples)
        with pytest.raises(TypeError):
            apply_qi(qi, np.exp(1j * sp.greville).tolist())
        # real samples of any type still go through
        ints = apply_qi(qi, np.arange(sp.dimension)).coefficients
        floats = apply_qi(qi, np.arange(sp.dimension, dtype=float)).coefficients
        assert ints.tobytes() == floats.tobytes()


class TestNorms:
    def test_uniform_values(self):
        sp = space_from("uniform", m=2, n=20)
        assert norm_upper_bound(build_q2star(sp), interior_only=True) == pytest.approx(1.5)
        assert norm_upper_bound(build_qp2star(sp, 2), interior_only=True) == pytest.approx(9 / 8)

    @given(spaces(m_lo=2))
    def test_at_least_one(self, sp):
        assert norm_upper_bound(build_q2star(sp)) >= 1.0 - 1e-12

    def test_empty_interior_raises(self):
        sp = space_from("uniform", m=2, n=3)
        qi = build_qp2star(sp, 2)
        with pytest.raises(ValueError):
            norm_upper_bound(qi, interior_only=True)
        assert norm_upper_bound(qi) >= 1.0

    def test_theoretical_bounds(self):
        assert operator_recipe("q2star").bound(2) == 3.0
        assert operator_recipe("q2star").bound(3) == 3.0
        assert operator_recipe("q2star").bound(4) == 4.0
        assert operator_recipe("qp2star", 3).bound(3) == pytest.approx(2.0)
        assert operator_recipe("qp2star", 3).bound(1) is None
        assert operator_recipe("nearbest", 2).bound(2) == pytest.approx(3.0)
        assert operator_recipe("nearbest", 3, 2).bound(3) == pytest.approx(2.0)
        assert operator_recipe("dqi").bound(3) is None
        # near-best inherits the qp2star bound only for q <= 2, p >= m, m >= 2
        assert operator_recipe("nearbest", 3, 3).bound(3) is None
        assert operator_recipe("nearbest", 2, 2).bound(3) is None
        assert operator_recipe("nearbest", 1, 1).bound(1) is None
        with pytest.raises(ValueError):
            operator_recipe("unknown")


@pytest.mark.parametrize("family, ratio", [("uniform", 1.0), ("arithmetic", 3.0),
                                           ("geometric", 1.5), ("random", 1.0)])
@pytest.mark.parametrize("kind", ["q2star", "qp2star", "nearbest"])
def test_sampled_sup_norm_lies_between_one_and_nu1(kind, family, ratio):
    """The Lebesgue function is at least 1 everywhere, since every operator
    reproduces constants, and at most nu_1 = max_i ||lambda_i||_1. The
    near-best operator also runs at degree 1 (p = 1, q <= 1; q2star and
    qp2star refuse degree 1) and at every accepted q in 0..3 with p = m."""
    for m in range(1, 8):
        if kind == "q2star":
            recipes = [operator_recipe(kind)] if m > 1 else []
        elif kind == "qp2star":
            recipes = [operator_recipe(kind, m)] if m > 1 else []
        else:
            recipes = [operator_recipe(kind, m, q) for q in range(min(m, 3) + 1)]
        sp = space_from(family, m, n=2 * m + 4, seed=m, ratio=ratio)
        for recipe in recipes:
            qi = recipe.build(sp)
            sampled = lebesgue_sampled(sp.knots.t, m, qi.sites, qi.weights, qi.lengths)
            assert 1.0 - 1e-12 <= sampled <= norm_upper_bound(qi) * (1.0 + 1e-12), (m, recipe)
