"""Quadrature, differentiation matrices, test functions, convergence studies."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given

from conftest import space_from, spaces
from oracles import central_diff, differentiation_dense
from splineqi import (
    BUILTIN_FUNCTIONS,
    FAMILIES,
    PartitionSpec,
    TestFunction as TargetFunction,
    build_nearbest_qi,
    build_q2star,
    build_qp2star,
    convergence_study,
    differentiation_matrix,
    differentiation_study,
    evaluation_grid,
    norm_upper_bound,
    operator_recipe,
    quadrature_from_qi,
)

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
        assert rule.exactness_degree == 2

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


class TestDifferentiationMatrix:
    def test_annihilates_constants(self):
        sp = space_from("random", m=2, n=12, seed=5)
        D = differentiation_matrix(build_q2star(sp))
        drift = np.abs(D.apply(np.ones(sp.dimension))).max()
        assert drift <= 1e-9 * max(1.0, np.abs(D.matrix).max())

    def test_exact_on_linear_and_square_samples(self):
        sp = space_from("random", m=3, n=10, seed=11)
        D = differentiation_matrix(build_qp2star(sp, 3))
        theta = sp.greville
        np.testing.assert_allclose(D.apply(theta), 1.0, atol=1e-9)
        np.testing.assert_allclose(D.apply(theta**2), 2.0 * theta, atol=1e-9)

    def test_matrix_is_banded(self):
        sp = space_from("uniform", m=2, n=30)
        matrix = differentiation_matrix(build_q2star(sp)).matrix
        rows, cols = np.nonzero(np.abs(matrix) > 1e-14 * max(1.0, np.abs(matrix).max()))
        assert 0 < np.abs(rows - cols).max() <= sp.degree + 3

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
            assert np.all(np.abs(D.matrix - ref) <= 1e-12 * np.abs(ref).max())

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
            assert row.error <= 1e-12

    def test_sin_third_order(self):
        report = convergence_study(
            operator_recipe("q2star"),
            BUILTIN_FUNCTIONS["sin"],
            (8, 16, 32, 64),
            PartitionSpec(family="uniform", a=0.0, b=1.0, n=8),
            2,
        )
        assert 2.5 <= report.fitted_order <= 3.5
        assert report.constant > 0.0
        errs = [row.error for row in report.rows]
        assert errs == sorted(errs, reverse=True)
        assert math.isnan(report.rows[0].order_running)
        assert report.rows[-1].order_running == pytest.approx(3.0, abs=0.5)

    def test_rows_sorted_by_size(self):
        report = convergence_study(
            operator_recipe("dqi"),
            BUILTIN_FUNCTIONS["exp"],
            (32, 8, 16),
            PartitionSpec(family="uniform", a=0.0, b=1.0, n=8),
            3,
        )
        assert [row.n for row in report.rows] == [8, 16, 32]
        assert report.rows[-1].error < report.rows[0].error


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
            assert row.err_all >= row.err_interior - 1e-15
            assert row.h_max > 0
