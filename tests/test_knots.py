"""Knot construction, partition families, Greville abscissae and moments."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import space_from, spaces
from oracles import greville_loop
from splineqi import (
    FAMILIES,
    PartitionSpec,
    generate_partition,
    greville_grid,
    make_clamped_knots,
)
from splineqi.knots import KnotVector, elementary_symmetric


class TestMakeClampedKnots:
    def test_basic_construction(self):
        kv = make_clamped_knots(0.0, 3.0, (1.0, 2.0), 2)
        np.testing.assert_array_equal(kv.t, [0, 0, 0, 1, 2, 3, 3, 3])
        assert kv.n == 3
        assert kv.degree == 2
        assert kv.dimension == 5

    def test_bezier_case(self):
        kv = make_clamped_knots(0.0, 1.0, (), 3)
        np.testing.assert_array_equal(kv.t, [0, 0, 0, 0, 1, 1, 1, 1])
        assert kv.n == 1

    def test_non_monotone_interior_rejected(self):
        with pytest.raises(ValueError):
            make_clamped_knots(0.0, 3.0, (2.0, 1.0), 2)

    def test_nested_interior_rejected(self):
        with pytest.raises(ValueError, match="^interior knots must be a flat sequence$"):
            make_clamped_knots(0.0, 3.0, [[1.0, 2.0]], 2)

    def test_interior_outside_range_rejected(self):
        with pytest.raises(ValueError):
            make_clamped_knots(0.0, 1.0, (1.5,), 2)
        with pytest.raises(ValueError):
            make_clamped_knots(0.0, 1.0, (0.0,), 2)

    @pytest.mark.parametrize("interior, message", [
        ([math.nan], "lie strictly inside (a, b)"),
        ([math.nan, 0.5], "be strictly increasing"),
        ([0.3, math.nan], "be strictly increasing"),
        ([math.inf], "lie strictly inside (a, b)"),
    ])
    def test_non_finite_interior_refused(self, interior, message):
        # a NaN end must fail the range test, not pass it and break the grid
        with pytest.raises(ValueError, match=rf"^interior knots must {re.escape(message)}$"):
            make_clamped_knots(0.0, 1.0, interior, 2)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_knots_and_steps_match_numpy_helpers(self, m):
        # the filled knot array has the bits of the np.full concatenation,
        # and the steps those of np.diff
        rng = np.random.default_rng(m)
        for size in (0, 1, 2, 37):
            inner = np.sort(rng.uniform(-0.6, 2.2, size))
            kv = make_clamped_knots(-0.7, 2.3, inner, m)
            expected = np.concatenate([np.full(m + 1, -0.7), inner, np.full(m + 1, 2.3)])
            assert kv.t.tobytes() == expected.tobytes()
            assert kv.steps.tobytes() == np.diff(kv.t[m : m + size + 2]).tobytes()

    def test_degree_below_one_rejected(self):
        with pytest.raises(ValueError):
            make_clamped_knots(0.0, 1.0, (0.5,), 0)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            make_clamped_knots(1.0, 0.0, (), 2)

    @pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0)])
    def test_infinite_end_rejected(self, a, b):
        with pytest.raises(ValueError, match="need finite interval ends"):
            make_clamped_knots(a, b, (), 2)

    def test_accessors(self):
        kv = make_clamped_knots(-1.0, 2.0, (0.0, 1.0), 3)
        assert kv.a == -1.0 and kv.b == 2.0
        np.testing.assert_array_equal(kv.t, [-1.0] * 4 + [0.0, 1.0] + [2.0] * 4)
        np.testing.assert_array_equal(kv.steps, [1.0, 1.0, 1.0])
        assert not kv.t.flags.writeable


class TestGeneratePartition:
    def test_uniform(self):
        kv = generate_partition(PartitionSpec(family="uniform", b=4.0, n=4), 2)
        np.testing.assert_array_equal(kv.t, [0.0] * 3 + [1.0, 2.0, 3.0] + [4.0] * 3)

    def test_geometric_ratio_two(self):
        spec = PartitionSpec(family="geometric", a=0.0, b=7.0, n=3, ratio=2.0)
        kv = generate_partition(spec, 2)
        np.testing.assert_allclose(kv.steps, [1.0, 2.0, 4.0], rtol=1e-14)
        np.testing.assert_allclose(kv.t[3:5], [1.0, 3.0], rtol=1e-14)

    def test_integer_geometric_ratio_matches_float(self):
        # an integer ratio once raised to integer powers wrapped in int64
        kv = generate_partition(PartitionSpec("geometric", 0.0, 1.0, 40, 4), 2)
        kv_float = generate_partition(PartitionSpec("geometric", 0.0, 1.0, 40, 4.0), 2)
        assert kv.t.tobytes() == kv_float.t.tobytes()

    def test_geometric_consecutive_step_ratio(self):
        spec = PartitionSpec(family="geometric", n=9, ratio=1.7)
        kv = generate_partition(spec, 2)
        h = kv.steps
        np.testing.assert_allclose(h[1:] / h[:-1], 1.7, rtol=1e-12)

    def test_arithmetic_endpoint_step_ratio(self):
        # family parameter fixes h_n / h_1
        spec = PartitionSpec(family="arithmetic", n=12, ratio=3.0)
        kv = generate_partition(spec, 2)
        h = kv.steps
        assert h[-1] / h[0] == pytest.approx(3.0, rel=1e-12)
        diffs = np.diff(h)
        np.testing.assert_allclose(diffs, diffs[0], rtol=1e-9)

    def test_seeded_random_deterministic(self):
        spec = PartitionSpec(family="random", n=17, seed=42)
        kv1 = generate_partition(spec, 3)
        kv2 = generate_partition(spec, 3)
        np.testing.assert_array_equal(kv1.t, kv2.t)

    def test_different_seeds_differ(self):
        k1 = generate_partition(PartitionSpec(family="random", n=17, seed=1), 2)
        k2 = generate_partition(PartitionSpec(family="random", n=17, seed=2), 2)
        assert not np.array_equal(k1.t, k2.t)

    def test_steps_sum_to_interval(self):
        for family, ratio in (("uniform", 1.0), ("arithmetic", 2.5),
                              ("geometric", 1.5), ("random", 1.0)):
            spec = PartitionSpec(family=family, a=-2.0, b=3.0, n=11, ratio=ratio, seed=5)
            kv = generate_partition(spec, 2)
            assert kv.steps.sum() == pytest.approx(5.0, rel=1e-12)
            assert (kv.steps > 0).all()

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            generate_partition(PartitionSpec(family="chebyshev", n=4), 2)

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError):
            generate_partition(PartitionSpec(family="geometric", n=4, ratio=0.0), 2)

    @pytest.mark.parametrize("n", [55, 60])
    def test_steps_below_float64_resolution_named(self, n):
        # ratio 2 on [0.25, 1.25]: the smallest steps fall below ulp(0.25)
        spec = PartitionSpec("geometric", a=0.25, b=1.25, n=n, ratio=2.0)
        with pytest.raises(ValueError, match="cannot be represented in float64"):
            generate_partition(spec, 3)

    @pytest.mark.parametrize("ratio", [1e10, 1e-10])
    def test_geometric_powers_beyond_float64_refused(self, ratio):
        # ratio ** (n - 1) leaves float64: refused before it is computed
        spec = PartitionSpec("geometric", a=0.0, b=1.0, n=100, ratio=ratio)
        with pytest.raises(ValueError, match="cannot be represented in float64"):
            generate_partition(spec, 3)

    def test_geometric_sum_beyond_float64_refused(self):
        # 2 ** 1023 fits, the sum of 2 ** 0 .. 2 ** 1023 does not
        spec = PartitionSpec("geometric", a=0.0, b=1.0, n=1024, ratio=2.0)
        with pytest.raises(ValueError, match="cannot be represented in float64"):
            generate_partition(spec, 2)

    def test_strongest_representable_geometric_kept(self):
        # steps from 1e-300 up, all representable near a = 0
        spec = PartitionSpec("geometric", a=0.0, b=1.0, n=31, ratio=1e10)
        steps = generate_partition(spec, 2).steps
        assert (steps > 0).all() and steps[0] == pytest.approx(1e-300 * (1 - 1e-10))

    @pytest.mark.parametrize("spec", [
        PartitionSpec("geometric", a=0.0, b=1e300, n=300, ratio=10.0),
        PartitionSpec("arithmetic", a=0.0, b=1e308, n=50, ratio=10.0),
    ])
    def test_long_interval_steps_fit(self, spec):
        # span * weight overflows here, although every step fits in float64
        kv = generate_partition(spec, 2)
        assert np.isfinite(kv.steps).all() and (kv.steps > 0).all()
        assert np.all(np.diff(kv.t[2:-2]) > 0) and kv.t[-1] == spec.b

    @pytest.mark.parametrize("spec, match", [
        (PartitionSpec("uniform", b=math.inf), r"finite interval ends, got a=0.0, b=inf"),
        (PartitionSpec("geometric", a=-math.inf, ratio=1.5),
         r"finite interval ends, got a=-inf, b=1.0"),
        (PartitionSpec("uniform", a=-1.7e308, b=1.7e308),
         r"length b - a of \[-1.7e\+308, 1.7e\+308\] overflows float64"),
        (PartitionSpec("random", a=-1.7e308, b=1.7e308),
         r"length b - a of \[-1.7e\+308, 1.7e\+308\] overflows float64"),
        (PartitionSpec("arithmetic", ratio=math.inf), r"finite ratio > 0, got inf"),
        (PartitionSpec("arithmetic", ratio=1e308),
         r"ratio 1e\+308 and 8 subintervals .* step weights overflows"),
        (PartitionSpec("geometric", ratio=math.inf), r"finite ratio > 0, got inf"),
        (PartitionSpec("random", seed=-1), r"seed >= 0, got -1"),
        (PartitionSpec("uniform", n=0), r"need n >= 1 subintervals, got 0"),
    ])
    def test_unbuildable_partition_refused_without_warnings(self, spec, match):
        # numpy once warned on these and, with warnings as errors, raised the
        # warning; a negative seed got numpy's message, which names no key
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                generate_partition(spec, 2)

    def test_largest_arithmetic_ratio_kept(self):
        # the weights 1 and 1e308 and their sum fit in float64
        kv = generate_partition(PartitionSpec("arithmetic", n=2, ratio=1e308), 2)
        assert kv.t[3] == 1e-308

    def test_families_constant(self):
        assert set(FAMILIES) == {"uniform", "arithmetic", "geometric", "random"}


class TestGrevilleGrid:
    def test_unit_window_centered_moment(self):
        # window (0, 1) for degree 2: mean 1/2, centered second moment 1/4
        kv = make_clamped_knots(0.0, 2.0, (1.0,), 2)
        theta, centered = greville_grid(kv)
        j = 1  # window t[2:4] = (0, 1)
        assert theta[j] == pytest.approx(0.5)
        assert centered[j] == pytest.approx(0.25)

    def test_cubic_window_012(self):
        kv = make_clamped_knots(0.0, 3.0, (1.0, 2.0), 3)
        theta, centered = greville_grid(kv)
        j = 2  # window t[3:6] = (0, 1, 2)
        assert theta[j] == pytest.approx(1.0)
        assert greville_loop(kv.t, 3)[1][j, 2] == pytest.approx(2.0 / 3.0)
        assert centered[j] == pytest.approx(1.0 / 3.0)

    def test_repeated_abscissae_refused(self):
        # a knot of multiplicity m + 1 inside: two windows are that one knot.
        # make_clamped_knots builds simple knots only, so the vector is built
        # by hand
        t = np.array([0.0, 0.0, 0.0, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="^Greville abscissae are not strictly increasing$"):
            greville_grid(KnotVector(degree=2, t=t, n=4))

    def test_boundary_window_degenerate(self):
        kv = make_clamped_knots(0.0, 1.0, (0.5,), 3)
        theta, centered = greville_grid(kv)
        assert centered[0] == 0.0
        assert centered[-1] == 0.0
        assert theta[0] == 0.0 and theta[-1] == 1.0

    @pytest.mark.parametrize("m", range(2, 8))
    def test_abscissae_inside_interval(self, m):
        rng = np.random.default_rng(m)
        for family in FAMILIES:
            for _ in range(10):
                a = float(rng.uniform(-1.0, 0.5))
                b = a + float(rng.uniform(1.0, 3.0))
                n = int(rng.integers(1, 60))
                sp = space_from(family, m, n, seed=int(rng.integers(2**31)), a=a, b=b,
                                ratio=float(rng.uniform(1.0, 4.0)) ** (1.0 / n))
                theta = sp.greville
                assert theta[0] == a and theta[-1] == b
                assert np.all((theta >= a) & (theta <= b))

    def test_degree_one_centered_moments_vanish(self):
        sp = space_from("random", m=1, n=9, seed=3)
        assert np.all(sp.centered_second == 0.0)

    def test_zeroth_moment_is_one(self):
        # the raw moment of the reference loop and the central one the space stores
        sp = space_from("random", m=3, n=8, seed=9)
        np.testing.assert_array_equal(greville_loop(sp.knots.t, 3)[1][:, 0], 1.0)
        np.testing.assert_array_equal(sp.central_moments[:, 0], 1.0)

    @given(spaces())
    def test_mean_identity(self, sp):
        kv = sp.knots
        m = kv.degree
        for j in range(sp.dimension):
            window = kv.t[j + 1 : j + m + 1]
            ref = window.mean()
            assert abs(sp.greville[j] - ref) <= 1e-14 * max(1.0, abs(ref))

    @given(spaces())
    def test_first_moment_equals_theta(self, sp):
        # the reference loop's first moment, clamped into its window
        t, m = sp.knots.t, sp.degree
        windows = np.array([t[j + 1 : j + m + 1] for j in range(sp.dimension)])
        first = greville_loop(t, m)[1][:, 1]
        np.testing.assert_array_equal(np.clip(first, windows[:, 0], windows[:, -1]), sp.greville)

    @given(spaces(m_lo=2))
    def test_centered_second_nonnegative_zero_iff_degenerate(self, sp):
        kv = sp.knots
        m = kv.degree
        for j in range(sp.dimension):
            window = kv.t[j + 1 : j + m + 1]
            tbar = sp.centered_second[j]
            assert tbar >= 0.0
            if window.max() == window.min():
                assert tbar == 0.0
            else:
                assert tbar > 0.0

    @given(spaces(m_lo=2))
    def test_centered_second_matches_difference_form(self, sp):
        theta, second = sp.greville, greville_loop(sp.knots.t, sp.degree)[1][:, 2]
        direct = theta**2 - second
        for j in range(sp.dimension):
            tol = 1e-10 * max(1.0, theta[j] ** 2)
            assert abs(sp.centered_second[j] - direct[j]) <= tol

    @given(spaces())
    def test_theta_strictly_increasing(self, sp):
        assert np.all(np.diff(sp.greville) > 0)

    @given(spaces())
    def test_arrays_read_only(self, sp):
        assert not sp.greville.flags.writeable
        assert not sp.centered_second.flags.writeable


class TestElementarySymmetric:
    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=6))
    def test_against_subset_enumeration(self, values):
        esp = elementary_symmetric(np.asarray(values, dtype=float))
        assert esp[0] == 1.0
        for k in range(1, len(values) + 1):
            brute = sum(
                float(np.prod(combo))
                for combo in itertools.combinations(values, k)
            )
            assert esp[k] == pytest.approx(brute, abs=1e-9)

    def test_monic_polynomial_coefficients(self):
        # prod (x + v) = sum esp_k x^{n-k}
        vals = np.array([2.0, -1.0, 3.0])
        esp = elementary_symmetric(vals)
        poly = np.poly1d([1.0])
        for v in vals:
            poly = poly * np.poly1d([1.0, v])
        np.testing.assert_allclose(poly.coeffs, esp, rtol=1e-13)
