"""Quadrature, differentiation matrices, test functions, convergence studies."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given

from conftest import space_from, spaces
from oracles import central_diff, differentiation_dense
from splineqi import (
    BUILTIN_FUNCTIONS,
    FAMILIES,
    OperatorRecipe,
    PartitionSpec,
    TestFunction as TargetFunction,
    apply_dqi,
    build_nearbest_qi,
    build_q2star,
    build_qp2star,
    convergence_study,
    differentiation_matrix,
    differentiation_study,
    evaluation_grid,
    greville_samples,
    norm_upper_bound,
    operator_recipe,
    quadrature_from_qi,
)
from splineqi.applications import _running_order

QUADRATIC = TargetFunction(
    name="poly2",
    value=lambda x: 1.0 + x * (2.0 - 3.0 * x),
    derivatives=lambda x, k: np.array(
        [1.0 + x * (2.0 - 3.0 * x), 2.0 - 6.0 * x, -6.0] + [0.0] * (k - 2)
    )[: k + 1],
    integral=lambda a, b: (b - a) + (b * b - a * a) - (b**3 - a**3),
)


class TestQuadrature:
    def test_exact_on_quadratics_any_partition(self):
        sp = space_from("random", m=2, n=13, seed=17)
        rule = quadrature_from_qi(build_q2star(sp))
        got = rule.integrate_fn(lambda x: x * x)
        assert got == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_uniform_cubic_superconvergence(self):
        sp = space_from("uniform", m=2, n=16)
        rule = quadrature_from_qi(build_q2star(sp))
        assert rule.integrate_fn(lambda x: x**3) == pytest.approx(0.25, rel=1e-12)

    def test_wide_stencil_rule_also_exact(self):
        sp = space_from("geometric", m=3, n=11, ratio=1.6)
        rule = quadrature_from_qi(build_qp2star(sp, 3))
        exact = QUADRATIC.integral(0.0, 1.0)
        assert rule.integrate_fn(QUADRATIC.value) == pytest.approx(exact, rel=1e-12)

    @given(spaces(m_lo=2, n_lo=5))
    def test_weight_moment_identities(self, sp):
        rule = quadrature_from_qi(build_q2star(sp))
        a, b = sp.knots.a, sp.knots.b
        assert rule.weights.sum() == pytest.approx(b - a, rel=1e-10)
        first = float(rule.weights @ rule.nodes)
        assert first == pytest.approx((b * b - a * a) / 2.0, rel=1e-10)

    def test_nodes_are_greville_sites(self):
        sp = space_from("uniform", m=2, n=8)
        rule = quadrature_from_qi(build_q2star(sp))
        np.testing.assert_array_equal(rule.nodes, sp.greville)

    def test_sample_shape_checked(self):
        sp = space_from("uniform", m=2, n=8)
        rule = quadrature_from_qi(build_q2star(sp))
        with pytest.raises(ValueError):
            rule.integrate(np.ones(3))

    def test_complex_samples_refused(self):
        # np.asarray(..., dtype=float) would cut these to their real part
        # with only a ComplexWarning
        sp = space_from("uniform", m=2, n=8)
        rule = quadrature_from_qi(build_q2star(sp))
        for dtype in ("complex128", "complex64"):
            with pytest.raises(TypeError, match=rf"^samples must be real numbers, got dtype {dtype}$"):
                rule.integrate(np.exp(1j * sp.greville).astype(dtype))
        assert rule.integrate(list(np.ones(sp.dimension))) == rule.integrate_fn(lambda x: 1)

    @pytest.mark.parametrize("fn", [lambda x: np.exp(1j * x), lambda x: complex(x, 1.0)],
                             ids=["numpy", "python"])
    def test_complex_function_values_refused(self, fn):
        # float() of a numpy complex scalar keeps the real part, with only
        # a ComplexWarning: the rule integrated the cosine
        rule = quadrature_from_qi(build_q2star(space_from("uniform", m=2, n=8)))
        with pytest.raises(TypeError, match="^samples must be real numbers, got dtype complex128$"):
            rule.integrate_fn(fn)

    def test_overflowing_estimate_refused(self):
        # exp is finite at every node of [0, 709], but its weighted sum is not
        rule = quadrature_from_qi(build_q2star(space_from("uniform", m=2, n=8, b=709.0)))
        with pytest.raises(ValueError, match="^the quadrature estimate overflows float64$"):
            rule.integrate_fn(math.exp)
        # a non-finite sample is the caller's, and passes through
        samples = np.ones(len(rule.nodes))
        samples[3] = np.nan
        assert math.isnan(rule.integrate(samples))


def dense(D):
    """The (dim, dim) matrix of D, one column per unit sample vector."""
    return np.stack([D.apply(e) for e in np.eye(len(D.nodes))], axis=1)


class TestDifferentiationMatrix:
    def test_annihilates_constants(self):
        sp = space_from("random", m=2, n=12, seed=5)
        D = differentiation_matrix(build_q2star(sp))
        drift = np.abs(D.apply(np.ones(sp.dimension))).max()
        assert drift <= 1e-9 * max(1.0, np.abs(dense(D)).max())

    def test_exact_on_linear_and_square_samples(self):
        sp = space_from("random", m=3, n=10, seed=11)
        D = differentiation_matrix(build_qp2star(sp, 3))
        theta = sp.greville
        np.testing.assert_allclose(D.apply(theta), 1.0, atol=1e-9)
        np.testing.assert_allclose(D.apply(theta**2), 2.0 * theta, atol=1e-9)

    def test_matrix_is_banded(self):
        sp = space_from("uniform", m=2, n=30)
        matrix = dense(differentiation_matrix(build_q2star(sp)))
        rows, cols = np.nonzero(np.abs(matrix) > 1e-14 * max(1.0, np.abs(matrix).max()))
        assert 0 < np.abs(rows - cols).max() <= sp.degree + 3

    def test_overflowing_derivative_refused(self):
        # exp is finite at every node of [0, 709], but the differenced
        # coefficients of its spline are not
        sp = space_from("uniform", m=2, n=8, b=709.0)
        D = differentiation_matrix(build_q2star(sp))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^the derivative overflows float64$"):
                D.apply(np.exp(sp.greville))
            # a non-finite sample is the caller's, and passes through
            samples = np.ones(sp.dimension)
            samples[3] = np.inf
            assert not np.isfinite(D.apply(samples)).all()

    @pytest.mark.parametrize("kind", ["q2star", "qp2star", "nearbest"])
    @pytest.mark.parametrize("m", range(2, 6))
    def test_matches_dense_oracle(self, kind, m):
        for family in FAMILIES:
            sp = space_from(family, m, 14, seed=m, a=-0.4, b=1.1, ratio=1.3)
            qi = operator_recipe(kind, None if kind == "q2star" else m).build(sp)
            D = differentiation_matrix(qi)
            ref = differentiation_dense(sp.knots.t, m, qi.sites, qi.weights, qi.lengths,
                                        sp.greville)
            rng = np.random.default_rng(m)
            for samples in (np.sin(3.0 * sp.greville), rng.standard_normal(sp.dimension)):
                # relative to the size of the terms each row sums
                scale = np.abs(ref) @ np.abs(samples)
                assert np.all(np.abs(D.apply(samples) - ref @ samples) <= 1e-12 * scale)
            assert np.all(np.abs(dense(D) - ref) <= 1e-12 * np.abs(ref).max())

    def test_memory_is_linear(self):
        # the dense (dim, dim) matrix alone would take 32 MB here
        sp = space_from("random", m=3, n=2000, seed=8)
        qi = build_qp2star(sp, 3)
        samples = np.sin(sp.greville)
        tracemalloc.start()
        try:
            differentiation_matrix(qi).apply(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_degree_one_rejected(self):
        sp = space_from("uniform", m=1, n=8)
        qi = build_nearbest_qi(sp, 1, q=1)
        with pytest.raises(ValueError):
            differentiation_matrix(qi)

    def test_sample_shape_checked(self):
        sp = space_from("uniform", m=2, n=8)
        D = differentiation_matrix(build_q2star(sp))
        with pytest.raises(ValueError):
            D.apply(np.ones(2))


class TestBuiltinFunctions:
    def test_catalog(self):
        assert set(BUILTIN_FUNCTIONS) == {"sin", "exp", "runge"}
        for name, f in BUILTIN_FUNCTIONS.items():
            assert f.name == name
            assert f.integral is not None

    @pytest.mark.parametrize("name", ["sin", "exp", "runge"])
    @pytest.mark.parametrize("x", [0.1, 0.37, 0.82])
    def test_first_derivative_matches_finite_difference(self, name, x):
        f = BUILTIN_FUNCTIONS[name]
        fd = central_diff(f.value, x)
        d1 = f.derivatives(x, 1)[1]
        assert abs(d1 - fd) <= 1e-6 * max(1.0, abs(d1))

    @pytest.mark.parametrize("name", ["sin", "exp", "runge"])
    def test_higher_orders_consistent(self, name):
        f = BUILTIN_FUNCTIONS[name]
        x = 0.44
        # derivative arrays must nest, and order k+1 must differentiate order k
        np.testing.assert_array_equal(f.derivatives(x, 3)[:3], f.derivatives(x, 2))
        for k in (1, 2, 3):
            fd = central_diff(lambda y, k=k: f.derivatives(y, k)[k], x)
            target = f.derivatives(x, k + 1)[k + 1]
            assert abs(fd - target) <= 1e-5 * max(1.0, abs(target))

    @pytest.mark.parametrize("name", ["sin", "exp", "runge"])
    def test_integral_differentiates_to_value(self, name):
        f = BUILTIN_FUNCTIONS[name]
        for b in (0.25, 0.9):
            fd = central_diff(lambda y: f.integral(0.0, y), b)
            assert abs(fd - f.value(b)) <= 1e-8 * max(1.0, abs(f.value(b)))

    @pytest.mark.parametrize("name", ["sin", "exp", "runge"])
    @pytest.mark.parametrize("k", range(8))
    def test_derivative_table_matches_per_point_calls(self, name, k):
        f = BUILTIN_FUNCTIONS[name]
        rng = np.random.default_rng(k)
        xs = np.concatenate([[-1.5, 2.5, 0.0], rng.uniform(-1.5, 2.5, 997)])
        rows = np.stack([f.derivatives(x, k) for x in xs.tolist()])
        np.testing.assert_array_equal(f.derivative_table(xs, k), rows)
        assert f.derivatives(0.3, k).shape == (k + 1,)
        assert f.derivative_table(0.3, k).shape == (k + 1,)
        # a float keeps the bits of the per-point formulas the array ones replace
        scalar = {"sin": lambda x: np.sin(x + np.arange(k + 1) * (np.pi / 2.0)),
                  "exp": lambda x: np.full(k + 1, np.exp(x))}.get(name)
        if scalar is not None:
            np.testing.assert_array_equal(np.stack([scalar(x) for x in xs.tolist()]), rows)

    def test_derivative_table_refuses_short_rows(self):
        short = TargetFunction(name="short", value=math.sin,
                               derivatives=lambda x, k: np.zeros(2))
        with pytest.raises(ValueError, match="oracle must supply 4 derivative values"):
            short.derivative_table(np.linspace(0.0, 1.0, 5), 3)

    def test_value_matches_zeroth_derivative(self):
        for f in BUILTIN_FUNCTIONS.values():
            for x in (0.0, 0.5, 1.0):
                assert f.derivatives(x, 0)[0] == pytest.approx(f.value(x), rel=1e-14)


class TestOperatorRecipe:
    def test_validation(self):
        with pytest.raises(ValueError):
            operator_recipe("spline")
        with pytest.raises(ValueError):
            operator_recipe("qp2star")
        with pytest.raises(ValueError):
            operator_recipe("nearbest")
        with pytest.raises(ValueError):
            operator_recipe("q2star", p=2)
        with pytest.raises(ValueError):
            operator_recipe("dqi", p=1)
        # a recipe made directly is checked alike
        with pytest.raises(ValueError, match="kind must be one of"):
            OperatorRecipe("spline")
        with pytest.raises(ValueError, match="requires an offset radius"):
            OperatorRecipe("nearbest", q=1)

    def test_derivative_based_recipe_has_no_stencils(self):
        recipe = operator_recipe("dqi")
        sp = space_from("uniform", m=3, n=8)
        with pytest.raises(ValueError):
            recipe.build(sp)
        approx = recipe.approximate(sp, BUILTIN_FUNCTIONS["exp"])
        grid = evaluation_grid(sp.knots)
        err = max(abs(approx(float(x)) - math.exp(x)) for x in grid)
        assert err <= 1e-3

    def test_stencil_recipes_build_expected_kinds(self):
        sp = space_from("uniform", m=2, n=10)
        assert operator_recipe("q2star").build(sp).kind == "q2star"
        assert operator_recipe("qp2star", p=2).build(sp).kind == "qp2star"
        near = operator_recipe("nearbest", p=2, q=0).build(sp)
        assert near.kind == "nearbest" and near.q == 0


class TestEvaluationGrid:
    def test_grid_contents(self):
        sp = space_from("random", m=2, n=9, seed=2)
        grid = evaluation_grid(sp.knots)
        assert grid.shape == (10 * 9 + 1,)
        assert (np.diff(grid) > 0).all()
        assert grid[0] == sp.knots.a and grid[-1] == sp.knots.b
        for k in range(sp.degree, sp.degree + 9 + 1):
            assert np.isclose(grid, sp.knots.t[k]).any()

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    @pytest.mark.parametrize("family, ratio",
                             [("uniform", 1.0), ("arithmetic", 5.0),
                              ("geometric", 1.01), ("random", 1.0)])
    def test_grid_bits_match_per_span_linspace(self, family, ratio, m):
        for n in (1, 2, 16, 128, 1000):
            kv = space_from(family, m, n, seed=n, a=-0.7, b=2.3, ratio=ratio).knots
            pieces = [np.linspace(kv.t[k], kv.t[k + 1], 11) for k in range(m, m + n)]
            expected = np.unique(np.concatenate(pieces))
            assert evaluation_grid(kv).tobytes() == expected.tobytes()


class TestConvergence:
    def test_quadratics_reproduce_at_machine_precision(self):
        report = convergence_study(
            operator_recipe("q2star"),
            QUADRATIC,
            (8, 16, 32),
            PartitionSpec(family="random", a=0.0, b=1.0, n=8, seed=3),
            2,
        )
        for row in report.rows:
            assert len(row.errors) == 1
            assert row.errors[0] <= 1e-12

    def test_sin_third_order(self):
        report = convergence_study(
            operator_recipe("q2star"),
            BUILTIN_FUNCTIONS["sin"],
            (8, 16, 32, 64),
            PartitionSpec(family="uniform", a=0.0, b=1.0, n=8),
            2,
        )
        assert 2.5 <= report.fitted_order <= 3.5
        errs = [row.errors[0] for row in report.rows]
        assert errs == sorted(errs, reverse=True)
        assert math.isnan(report.rows[0].order_running)
        assert report.rows[-1].order_running == pytest.approx(3.0, abs=0.5)

    def test_running_order_needs_two_positive_errors(self):
        # log(err_prev / err) has no value where either error is 0
        assert _running_order((0.1, 1e-3), 0.05, 1.25e-4) == pytest.approx(3.0)
        assert math.isnan(_running_order((0.1, 1e-3), 0.05, 0.0))
        assert math.isnan(_running_order((0.1, 0.0), 0.05, 1e-3))

    def test_fit_over_unrefined_partitions_is_nan(self):
        # a fixed-ratio geometric partition does not refine: h_max is 2/3 up
        # to rounding on every size, so the fit has rank 1 and no slope
        report = convergence_study(
            operator_recipe("q2star"),
            BUILTIN_FUNCTIONS["exp"],
            (16, 32, 64, 128),
            PartitionSpec(family="geometric", a=0.0, b=1.0, n=16, ratio=3.0),
            2,
        )
        assert [row.h_max for row in report.rows] == pytest.approx([2.0 / 3.0] * 4, rel=1e-7)
        assert math.isnan(report.fitted_order)

    def test_rows_sorted_by_size(self):
        report = convergence_study(
            operator_recipe("dqi"),
            BUILTIN_FUNCTIONS["exp"],
            (32, 8, 16),
            PartitionSpec(family="uniform", a=0.0, b=1.0, n=8),
            3,
        )
        assert [row.n for row in report.rows] == [8, 16, 32]
        assert report.rows[-1].errors[0] < report.rows[0].errors[0]

    def test_nan_error_is_reported(self):
        # NaN samples past x = 0.7 make the approximation NaN there; the
        # sup error must say so rather than skip those points
        target = TargetFunction(
            name="nan_tail",
            value=lambda x: math.nan if x > 0.7 else math.sin(x),
            derivatives=lambda x, k: np.zeros(k + 1),
        )
        report = convergence_study(operator_recipe("q2star"), target, (8, 16),
                                   PartitionSpec(family="uniform", n=8), 2)
        assert all(math.isnan(row.errors[0]) for row in report.rows)


def _per_point(f):
    """The same function without the catalog's array path: its derivatives
    behind a wrapper, which the studies call once per point."""
    return TargetFunction(f.name, f.value, lambda x, k: f.derivatives(x, k), f.integral)


class TestArrayStudies:
    """The built-in functions' array evaluation keeps every study's bits."""

    TEMPLATE = PartitionSpec(family="random", a=-0.6, b=1.3, n=8, seed=5)

    @pytest.mark.parametrize("kind", ["dqi", "q2star", "qp2star", "nearbest"])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_convergence_rows_match_per_point(self, kind, m):
        recipe = operator_recipe(kind, m if kind in ("qp2star", "nearbest") else None)
        for f in BUILTIN_FUNCTIONS.values():
            array, per_point = (convergence_study(recipe, g, (9, 18), self.TEMPLATE, m)
                                for g in (f, _per_point(f)))
            assert _row_bytes(array) == _row_bytes(per_point)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_differentiation_rows_match_per_point(self, m):
        recipe = operator_recipe("qp2star", m)
        for f in BUILTIN_FUNCTIONS.values():
            array, per_point = (differentiation_study(recipe, g, (12, 24), self.TEMPLATE, m)
                                for g in (f, _per_point(f)))
            assert _row_bytes(array) == _row_bytes(per_point)


def _row_bytes(report) -> bytes:
    """Every field of every row, bit for bit (NaN matches NaN)."""
    fields = [(row.n, row.h_max, *row.errors, row.order_running) for row in report.rows]
    return np.array(fields, dtype=float).tobytes()


class TestStability:
    @given(spaces(m_lo=2, n_lo=5))
    def test_sup_norm_bounded_by_stencil_norms(self, sp):
        qi = build_q2star(sp)
        rng = np.random.default_rng(sp.dimension)
        samples = rng.uniform(-1.0, 1.0, sp.dimension)
        from splineqi import apply_qi

        g = apply_qi(qi, samples)
        bound = norm_upper_bound(qi) * np.abs(samples).max()
        grid = evaluation_grid(sp.knots)
        sup = max(abs(g(float(x))) for x in grid)
        assert sup <= bound + 1e-9


class TestDifferentiationStudy:
    def test_second_order_interior_rates(self):
        report = differentiation_study(
            operator_recipe("q2star"),
            BUILTIN_FUNCTIONS["sin"],
            (8, 16, 32, 64),
            PartitionSpec(family="uniform", a=0.0, b=1.0, n=8),
            2,
        )
        assert 1.5 <= report.fitted_order <= 2.5
        for row in report.rows:
            err_interior, err_all = row.errors
            assert err_all >= err_interior - 1e-15
            assert row.h_max > 0


def test_user_functions_receive_python_floats():
    seen = set()

    def value(x):
        seen.add(type(x))
        return math.sin(x)

    def derivatives(x, k):
        seen.add(type(x))
        return np.sin(x + np.arange(k + 1) * (np.pi / 2.0))

    target = TargetFunction(name="sin", value=value, derivatives=derivatives)
    sp = space_from("random", 3, 12, seed=1)
    greville_samples(sp, value)
    quadrature_from_qi(build_q2star(sp)).integrate_fn(value)
    apply_dqi(sp, lambda x: derivatives(x, 3))
    for kind in ("q2star", "dqi"):
        convergence_study(operator_recipe(kind), target, (8, 16),
                          PartitionSpec(family="uniform", n=8), 3)
    differentiation_study(operator_recipe("q2star"), target, (8, 16),
                          PartitionSpec(family="uniform", n=8), 2)
    assert seen == {float}
