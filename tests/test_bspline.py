"""Basis evaluation, spline evaluation/derivatives, integrals."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given

from conftest import space_from, spaces
from oracles import central_diff, greville_loop
from splineqi import (
    QuasiInterpolant,
    SplineFunction,
    SplineSpace,
    eval_basis,
    eval_basis_derivative,
    eval_spline,
    make_clamped_knots,
    quadrature_from_qi,
)


def full_basis(space, x):
    vec = np.zeros(space.dimension)
    first, vals = eval_basis(space, x)
    vec[first : first + space.degree + 1] = vals
    return vec


def sample_points(space):
    """Span midpoints plus all knots: deterministic, covers every piece."""
    kv = space.knots
    t = kv.t
    m = kv.degree
    mids = [(t[k] + t[k + 1]) / 2.0 for k in range(m, m + kv.n)]
    return np.unique(np.concatenate([mids, t]))


class TestEvalBasis:
    def test_clamped_left_end(self):
        sp = space_from("uniform", m=3, n=6)
        first, vals = eval_basis(sp, 0.0)
        assert first == 0
        np.testing.assert_allclose(vals, [1, 0, 0, 0], atol=1e-15)

    def test_clamped_right_end(self):
        sp = space_from("uniform", m=3, n=6)
        first, vals = eval_basis(sp, 1.0)
        assert first == sp.dimension - sp.degree - 1
        np.testing.assert_allclose(vals, [0, 0, 0, 1], atol=1e-15)

    def test_linear_hats(self):
        kv = make_clamped_knots(0.0, 2.0, (1.0,), 1)  # knots (0,0,1,2,2)
        sp = SplineSpace.from_knots(kv)
        first, vals = eval_basis(sp, 0.5)
        assert first == 0
        np.testing.assert_allclose(vals, [0.5, 0.5], rtol=1e-15)

    def test_quadratic_at_interior_knot(self):
        kv = make_clamped_knots(0.0, 3.0, (1.0, 2.0), 2)
        sp = SplineSpace.from_knots(kv)
        first, vals = eval_basis(sp, 1.0)
        np.testing.assert_allclose(vals, [0.5, 0.5, 0.0], atol=1e-15)

    def test_outside_interval_rejected(self):
        sp = space_from("uniform", m=2, n=4)
        with pytest.raises(ValueError):
            eval_basis(sp, -0.01)
        with pytest.raises(ValueError):
            eval_basis(sp, 1.01)

    @given(spaces())
    def test_partition_of_unity_nonnegative(self, sp):
        for x in sample_points(sp):
            first, vals = eval_basis(sp, float(x))
            assert (vals >= -1e-15).all()
            assert abs(vals.sum() - 1.0) <= 1e-12
            assert 0 <= first <= sp.dimension - sp.degree - 1

    @given(spaces(m_hi=3, n_hi=8))
    def test_local_support(self, sp):
        # B_j vanishes outside [t[j], t[j+m+1]]
        t = sp.knots.t
        m = sp.degree
        for x in sample_points(sp):
            vec = full_basis(sp, float(x))
            for j in range(sp.dimension):
                if x < t[j] or x > t[j + m + 1]:
                    assert vec[j] == 0.0


class TestMarsden:
    @given(spaces())
    def test_monomial_reproduction(self, sp):
        # coefficients theta^(l) reproduce x^l for every l <= m
        moments = greville_loop(sp.knots.t, sp.degree)[1]
        for l in range(sp.degree + 1):
            f = SplineFunction(sp, moments[:, l])
            for x in sample_points(sp):
                ref = float(x) ** l
                assert abs(f(float(x)) - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_linear_coefficients_give_identity_and_unit_slope(self):
        sp = space_from("random", m=3, n=9, seed=21)
        f = SplineFunction(sp, sp.greville)
        for x in (0.05, 0.37, 0.62, 1.0):
            assert f(x) == pytest.approx(x, abs=1e-13)
            assert f(x, derivative_order=1) == pytest.approx(1.0, abs=1e-11)

    def test_quadratic_coefficients_give_square(self):
        sp = space_from("geometric", m=2, n=7, ratio=2.0, seed=0)
        f = SplineFunction(sp, greville_loop(sp.knots.t, 2)[1][:, 2])
        for x in (0.0, 0.21, 0.5, 0.83, 1.0):
            assert f(x) == pytest.approx(x * x, abs=1e-13)
            assert f(x, derivative_order=1) == pytest.approx(2 * x, abs=1e-11)


class TestEvalSpline:
    def test_constant_coefficients(self):
        sp = space_from("random", m=4, n=6, seed=2)
        f = SplineFunction(sp, np.full(sp.dimension, 3.25))
        for x in (0.0, 0.3, 0.99):
            assert f(x) == pytest.approx(3.25, rel=1e-14)
            assert f(x, derivative_order=1) == pytest.approx(0.0, abs=1e-11)

    def test_order_above_degree_is_zero(self):
        sp = space_from("uniform", m=2, n=5)
        f = SplineFunction(sp, np.arange(sp.dimension, dtype=float))
        assert eval_spline(f, 0.4, derivative_order=3) == 0.0
        with pytest.raises(ValueError):
            eval_spline(f, 1.4, derivative_order=3)  # x still validated

    def test_negative_order_rejected(self):
        sp = space_from("uniform", m=2, n=5)
        f = SplineFunction(sp, np.ones(sp.dimension))
        with pytest.raises(ValueError):
            eval_spline(f, 0.5, derivative_order=-1)

    def test_coefficient_length_mismatch(self):
        sp = space_from("uniform", m=2, n=5)
        with pytest.raises(ValueError):
            eval_spline(SplineFunction(sp, np.ones(3)), 0.5)

    @given(spaces())
    def test_convex_hull_property(self, sp):
        rng = np.random.default_rng(sp.dimension)
        coeffs = rng.uniform(-1.0, 1.0, sp.dimension)
        f = SplineFunction(sp, coeffs)
        m = sp.degree
        for x in sample_points(sp):
            first, _ = eval_basis(sp, float(x))
            active = coeffs[first : first + m + 1]
            val = f(float(x))
            assert active.min() - 1e-12 <= val <= active.max() + 1e-12

    @given(spaces(m_lo=2, m_hi=4, n_hi=8))
    def test_derivative_matches_central_difference(self, sp):
        coeffs = np.cos(1.0 + 0.7 * np.arange(sp.dimension))
        f = SplineFunction(sp, coeffs)
        kv = sp.knots
        m = kv.degree
        for k in range(m, m + kv.n):
            x = (kv.t[k] + kv.t[k + 1]) / 2.0
            exact = f(x, derivative_order=1)
            approx = central_diff(f, x)
            assert abs(exact - approx) <= 1e-5 * max(1.0, abs(exact))

    def test_second_derivative_of_square(self):
        sp = space_from("random", m=3, n=7, seed=4)
        f = SplineFunction(sp, greville_loop(sp.knots.t, 3)[1][:, 2])
        for x in (0.1, 0.45, 0.9):
            assert f(x, derivative_order=2) == pytest.approx(2.0, rel=1e-10)


class TestBasisDerivative:
    @given(spaces())
    def test_derivatives_sum_to_zero(self, sp):
        for x in sample_points(sp):
            _, derivs = eval_basis_derivative(sp, float(x))
            assert abs(derivs.sum()) <= 1e-10

    @given(spaces(m_hi=3, n_hi=6))
    def test_matches_spline_derivative_on_unit_vectors(self, sp):
        for x in sample_points(sp)[1:-1]:
            first, derivs = eval_basis_derivative(sp, float(x))
            for idx in range(sp.degree + 1):
                unit = np.zeros(sp.dimension)
                unit[first + idx] = 1.0
                f = SplineFunction(sp, unit)
                assert derivs[idx] == pytest.approx(
                    f(float(x), derivative_order=1), abs=1e-10 * max(1.0, abs(derivs[idx]))
                )

    def test_hat_function_slopes(self):
        kv = make_clamped_knots(0.0, 2.0, (1.0,), 1)
        sp = SplineSpace.from_knots(kv)
        _, derivs = eval_basis_derivative(sp, 0.5)
        np.testing.assert_allclose(derivs, [-1.0, 1.0], rtol=1e-15)


def basis_integrals(space):
    """Integral of every basis function, from `quadrature_from_qi`, the
    formula's one home: the rule of the operator that samples f at theta_i
    alone (Schoenberg's) puts basis function i's integral on node i."""
    dim = space.dimension
    point = QuasiInterpolant(
        space=space, kind="schoenberg", q=1, p=0, sites=np.arange(dim)[:, None],
        weights=np.ones((dim, 1)), lengths=np.ones(dim, dtype=int),
        interior_lo=0, interior_hi=dim - 1,
    )
    return quadrature_from_qi(point).weights


class TestBasisIntegral:
    def test_quadratic_interior_three_step_mean(self):
        sp = space_from("random", m=2, n=8, seed=6)
        h = sp.knots.steps
        integrals = basis_integrals(sp)
        # interior index j has support spanning steps j-2, j-1, j
        for j in range(2, sp.dimension - 2):
            expected = (h[j - 2] + h[j - 1] + h[j]) / 3.0
            assert integrals[j] == pytest.approx(expected, rel=1e-14)

    def test_first_basis_function(self):
        sp = space_from("random", m=2, n=8, seed=6)
        assert basis_integrals(sp)[0] == pytest.approx(sp.knots.steps[0] / 3.0, rel=1e-14)

    @given(spaces())
    def test_integrals_sum_to_interval_length(self, sp):
        total = basis_integrals(sp).sum()
        length = sp.knots.b - sp.knots.a
        assert total == pytest.approx(length, rel=1e-12)


# ---------------------------------------------------------------------------
# one point in Python floats against the same points in an array

SWEEP_FAMILIES = [("uniform", 1.0), ("arithmetic", 5.0), ("geometric", 1.3), ("random", 1.0)]


def sweep_spaces(m):
    for family, ratio in SWEEP_FAMILIES:
        for n in (1, 2, 3, 40):
            yield space_from(family, m, n, seed=m + n, a=-0.7, b=2.3, ratio=ratio)


def sweep_points(space):
    """Random points, every knot, and a and b themselves."""
    rng = np.random.default_rng(space.dimension)
    kv = space.knots
    return [*rng.uniform(kv.a, kv.b, 20).tolist(), *kv.t.tolist(), kv.a, kv.b]


def assert_same_bits(floats, array):
    assert np.asarray(floats).tobytes() == np.asarray(array).tobytes()


@pytest.mark.parametrize("m", range(1, 8))
class TestFloatPath:
    def test_spline_values_and_derivatives_match_array(self, m):
        for sp in sweep_spaces(m):
            pts = sweep_points(sp)
            f = SplineFunction(sp, np.random.default_rng(m).standard_normal(sp.dimension))
            for order in range(m + 2):
                floats = [eval_spline(f, x, order) for x in pts]
                assert all(type(v) is float for v in floats)
                assert_same_bits(floats, eval_spline(f, np.array(pts), order))

    def test_coefficient_layouts_match_array(self, m):
        """A strided view, a list and an int array: a point gives the array
        call's bits (ddot on a strided slice can round differently), and a
        wrong length keeps its message at every order, above m too."""
        rng = np.random.default_rng(m)
        for sp in sweep_spaces(m):
            dim = sp.dimension
            pts = sweep_points(sp)
            layouts = [rng.standard_normal((dim, 2))[:, 1],
                       rng.standard_normal(dim).tolist(),
                       rng.integers(-9, 10, dim)]
            for coeffs in layouts:
                f = SplineFunction(sp, coeffs)
                for order in range(m + 2):
                    floats = [eval_spline(f, x, order) for x in pts]
                    assert all(type(v) is float for v in floats)
                    assert_same_bits(floats, eval_spline(f, np.array(pts), order))
            message = rf"^coefficient vector has length \({dim - 1},\), space needs {dim}$"
            for coeffs in (layouts[0][1:], layouts[1][1:], layouts[2][1:]):
                f = SplineFunction(sp, coeffs)
                for order in range(m + 3):
                    with pytest.raises(ValueError, match=message):
                        eval_spline(f, pts[0], order)

    def test_basis_and_basis_derivative_match_array(self, m):
        for sp in sweep_spaces(m):
            pts = sweep_points(sp)
            for evaluate in (eval_basis, eval_basis_derivative):
                points = [evaluate(sp, x) for x in pts]
                assert all(type(first) is int for first, _ in points)
                assert all(vals.shape == (m + 1,) for _, vals in points)
                first, vals = evaluate(sp, np.array(pts))
                np.testing.assert_array_equal([p[0] for p in points], first)
                assert_same_bits(np.stack([p[1] for p in points]), vals)

    def test_numpy_scalar_takes_the_float_path(self, m):
        sp = space_from("random", m, 9, seed=m)
        f = SplineFunction(sp, np.cos(np.arange(sp.dimension)))
        for x in sweep_points(sp):
            scalar, zero_d = np.float64(x), np.array(x)
            for order in range(m + 2):
                value = eval_spline(f, scalar, order)
                assert type(value) is float
                assert value == eval_spline(f, x, order) == eval_spline(f, zero_d, order)
            for evaluate in (eval_basis, eval_basis_derivative):
                first, vals = evaluate(sp, scalar)
                assert type(first) is int
                zero_first, zero_vals = evaluate(sp, zero_d)
                assert type(zero_first) is not int  # the array path's index
                assert first == zero_first
                assert_same_bits(vals, zero_vals)
                assert_same_bits(vals, evaluate(sp, x)[1])


class TestFloatPathErrors:
    @pytest.mark.parametrize("family", ["uniform", "random"])
    @pytest.mark.parametrize("x", [-0.701, 2.301, math.nan, math.inf, -math.inf])
    def test_outside_interval_message(self, family, x):
        sp = space_from(family, 3, 7, seed=4, a=-0.7, b=2.3)
        f = SplineFunction(sp, np.ones(sp.dimension))
        message = f"x={x} outside [-0.7, 2.3]"
        calls = [lambda z: eval_basis(sp, z), lambda z: eval_basis_derivative(sp, z)]
        calls += [lambda z, k=k: eval_spline(f, z, k) for k in range(5)]
        for call in calls:
            for z in (x, np.float64(x), np.array([0.5, x])):
                with pytest.raises(ValueError) as exc:
                    call(z)
                assert str(exc.value) == message

    def test_negative_order_message(self):
        sp = space_from("uniform", 2, 5)
        f = SplineFunction(sp, np.ones(sp.dimension))
        for x in (0.5, np.float64(0.5), 7.0, np.array([0.5])):
            with pytest.raises(ValueError, match=r"^derivative order must be >= 0$"):
                eval_spline(f, x, -1)

    def test_coefficient_length_message(self):
        sp = space_from("uniform", 2, 5)
        f = SplineFunction(sp, np.ones(3))
        message = r"^coefficient vector has length \(3,\), space needs 7$"
        for x in (0.5, np.float64(0.5), np.array([0.5])):
            for order in (0, 1, 2):
                with pytest.raises(ValueError, match=message):
                    eval_spline(f, x, order)

    def test_scalar_coefficients_message(self):
        sp = space_from("uniform", 2, 5)
        f = SplineFunction(sp, 1.0)
        for x in (0.5, np.array([0.5])):
            with pytest.raises(ValueError, match=r"^coefficient vector has length \(\), space needs 7$"):
                eval_spline(f, x)

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_bad_coefficients_raise_on_every_call(self, m):
        """A failed read caches nothing: the first and a second call raise
        the same message, at every order, for a point and for an array."""
        sp = space_from("random", m, 6, seed=m)
        dim = sp.dimension
        bad = {rf"\({dim - 1},\)": np.ones(dim - 1), r"\(\)": 1.0}
        for shape, coeffs in bad.items():
            f = SplineFunction(sp, coeffs)
            message = rf"^coefficient vector has length {shape}, space needs {dim}$"
            for order in range(m + 3):
                for x in (0.5, np.array([0.2, 0.5])):
                    for _ in range(2):
                        with pytest.raises(ValueError, match=message):
                            eval_spline(f, x, order)
            assert "_coeffs" not in vars(f)

    def test_contiguous_float_coefficients_are_read_in_place(self):
        sp = space_from("random", 3, 9, seed=2)
        coeffs = np.linspace(-1.0, 1.0, sp.dimension)
        f = SplineFunction(sp, coeffs)
        f(0.4)
        assert f._coeffs is coeffs
        strided = np.ones((sp.dimension, 2))[:, 0]
        g = SplineFunction(sp, strided)
        g(0.4)
        assert g._coeffs.flags.c_contiguous and g._coeffs is not strided

    def test_point_reads_no_copy_of_list_coefficients(self):
        """List coefficients are converted once: after a warm-up call, 100
        points allocate nothing that grows with the dimension (a conversion
        per point would allocate 8 bytes per coefficient)."""
        sp = space_from("uniform", 3, 10**5)
        f = SplineFunction(sp, np.cos(np.arange(sp.dimension)).tolist())
        points = np.random.default_rng(0).uniform(0.0, 1.0, 100).tolist()
        f(points[0])
        f(points[0], 1)
        tracemalloc.start()
        try:
            for x in points:
                f(x)
                f(x, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096

    def test_knot_tuple_built_once(self):
        sp = space_from("random", 3, 12, seed=5)
        assert "knot_tuple" not in vars(sp)
        f = SplineFunction(sp, np.ones(sp.dimension))
        f(0.3)
        knots = sp.knot_tuple
        f(0.6, 1)
        eval_basis(sp, 0.1)
        eval_basis_derivative(sp, 0.9)
        assert sp.knot_tuple is knots
        assert knots == tuple(sp.knots.t)
        assert all(type(k) is float for k in knots)
