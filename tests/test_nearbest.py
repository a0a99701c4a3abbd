"""l1-optimal stencils: constraint assembly, LP, duality certificates."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given

import oracles
from conftest import space_from, spaces
from splineqi import (
    PartitionSpec,
    SplineSpace,
    assemble_constraints,
    build_nearbest_qi,
    build_q2star,
    build_qp2star,
    build_watson_form,
    generate_partition,
    iter_lp_audit,
    knot_condition,
    make_clamped_knots,
    solve_l1,
    watson_certificate,
)
from splineqi import nearbest
from splineqi.quasi_interp import KIND_QP2STAR, _build_radius_p


def closed_form_l1(space, i, p):
    """l1 norm of the wide three-point weights of index i."""
    qi = _build_radius_p(space, p, KIND_QP2STAR)
    return float(np.abs(qi.weights[i]).sum())


class TestAssembleConstraints:
    def test_interpolation_only(self):
        sp = space_from("uniform", m=2, n=10)
        system = assemble_constraints(sp, 5, 2, 0)
        assert system.matrix.shape == (1, 5)
        np.testing.assert_array_equal(system.matrix, np.ones((1, 5)))
        np.testing.assert_array_equal(system.rhs, [1.0])

    def test_square_system_recovers_three_point_weights(self):
        sp = space_from("uniform", m=2, n=10)
        system = assemble_constraints(sp, 5, 1, 2)
        weights = np.linalg.solve(system.matrix, system.rhs)
        np.testing.assert_allclose(weights, [-0.125, 1.25, -0.125], rtol=1e-12)

    @given(spaces(m_lo=2, n_lo=6))
    def test_normalized_entries_bounded(self, sp):
        i = sp.dimension // 2
        system = assemble_constraints(sp, i, 2, 2)
        assert np.abs(system.matrix).max() <= 1.0 + 1e-14
        assert system.sites[-1] > system.sites[0]

    def test_validation_errors(self):
        sp = space_from("uniform", m=2, n=8)
        with pytest.raises(ValueError):
            assemble_constraints(sp, sp.dimension, 2, 2)
        with pytest.raises(ValueError):
            assemble_constraints(sp, 4, 0, 0)
        with pytest.raises(ValueError):
            assemble_constraints(sp, 4, 2, 3)  # q > m
        with pytest.raises(ValueError):
            assemble_constraints(sp, 4, 2, 2, offsets=(-1, 0, 0, 1))
        with pytest.raises(ValueError):
            assemble_constraints(sp, 0, 2, 2)  # window leaves the range
        with pytest.raises(ValueError):
            assemble_constraints(sp, 4, 2, 2, offsets=(0, 1))  # too few sites

    def test_offsets_must_be_integers(self):
        # a float offset is not cut to an int and a bool is not an index,
        # as for the radius p; Python and numpy integers are offsets
        sp = space_from("uniform", m=2, n=8)
        for offsets in [(-1.7, 0.2, 1.9, 2.5), (False, True, 2), (-1, 0, np.float64(1.0)),
                        (np.True_, 0, 1), (-1, 0, "1")]:
            with pytest.raises(ValueError, match="offsets must be integers"):
                assemble_constraints(sp, 4, 2, 2, offsets=offsets)
        plain = assemble_constraints(sp, 4, 2, 2, offsets=(-1, 0, 1, 2))
        for offsets in [np.arange(-1, 3), (np.int32(-1), 0, np.int64(1), np.intp(2))]:
            system = assemble_constraints(sp, 4, 2, 2, offsets=offsets)
            assert system.offsets == (-1, 0, 1, 2)
            assert all(type(s) is int for s in system.offsets)
            assert system.matrix.tobytes() == plain.matrix.tobytes()
            assert system.rhs.tobytes() == plain.rhs.tobytes()

    def test_weights_invariant_under_affine_map(self):
        base = space_from("random", m=2, n=9, seed=21)
        t = base.knots.t
        m, n = base.degree, base.knots.n
        inner = tuple(5.0 + 3.0 * x for x in t[m + 1 : m + n])
        moved = SplineSpace.from_knots(make_clamped_knots(5.0, 8.0, inner, m))
        i = base.dimension // 2
        w_base = solve_l1(assemble_constraints(base, i, 2, 2)).weights
        w_moved = solve_l1(assemble_constraints(moved, i, 2, 2)).weights
        np.testing.assert_allclose(w_base, w_moved, atol=1e-11)


class TestSolveL1:
    def test_uniform_wide_window_optimum(self):
        sp = space_from("uniform", m=2, n=12)
        sol = solve_l1(assemble_constraints(sp, 6, 2, 2))
        assert sol.value == pytest.approx(9.0 / 8.0, abs=1e-10)
        np.testing.assert_allclose(
            sol.weights, [-1 / 32, 0.0, 17 / 16, 0.0, -1 / 32], atol=1e-9
        )

    def test_interpolation_constraint_gives_unit_norm(self):
        sp = space_from("geometric", m=3, n=10, ratio=1.5)
        sol = solve_l1(assemble_constraints(sp, 6, 3, 0))
        assert sol.value == pytest.approx(1.0, abs=1e-10)

    def test_square_system_unique_solution(self):
        sp = space_from("uniform", m=2, n=10)
        sol = solve_l1(assemble_constraints(sp, 5, 1, 2))
        assert sol.value == pytest.approx(1.5, abs=1e-10)
        np.testing.assert_allclose(sol.weights, [-0.125, 1.25, -0.125], atol=1e-10)

    @given(spaces(m_lo=2, n_lo=6))
    def test_solution_is_feasible(self, sp):
        i = sp.dimension // 2
        system = assemble_constraints(sp, i, 2, 2)
        sol = solve_l1(system)
        assert system.residual(sol.weights) <= 1e-9
        t, m = sp.knots.t, sp.degree
        assert oracles.nearbest_residual_mp(t, m, i, system.offsets, 2, sol.weights) <= 1e-9

    def test_coinciding_sites_warn_nothing(self):
        # on geometric ratio 1000 the first normalized sites of index 7 are
        # equal in float64, and the enumeration divides by their differences
        sp = space_from("geometric", m=7, n=40, ratio=1000.0)
        system = assemble_constraints(sp, 7, 14, 2, offsets=tuple(range(-7, 15)))
        assert len(set(system.matrix[1].tolist())) < len(system.offsets)
        sol = solve_l1(system)
        assert system.residual(sol.weights) <= 1e-9

    def test_value_non_increasing_in_radius(self):
        sp = space_from("random", m=2, n=14, seed=4)
        i = sp.dimension // 2
        values = [
            solve_l1(assemble_constraints(sp, i, p, 2)).value for p in range(1, 6)
        ]
        for narrow, wide in zip(values, values[1:]):
            assert wide <= narrow + 1e-10


class TestWatsonForm:
    @given(spaces(m_lo=2, n_lo=6))
    def test_row_coefficient_identities(self, sp):
        # the r = 0 row: the Lagrange values at a free site sum to 1, so
        # beta = 1 - alpha + gamma (k < 0) or 1 + alpha - gamma (k > 0)
        i = sp.dimension // 2
        form = build_watson_form(sp, i, 3)
        sums = form.matrix.sum(axis=0)
        assert np.all(np.abs(sums) <= 1e-10 * np.maximum(1.0, np.abs(form.matrix).max(axis=0)))

    @given(spaces(m_lo=2, n_lo=6))
    def test_columns_span_feasible_directions(self, sp):
        i = sp.dimension // 2
        p = 3
        form = build_watson_form(sp, i, p)
        system = assemble_constraints(sp, i, p, 2)
        if form.matrix.size:
            drift = np.abs(system.matrix @ form.matrix).max()
            assert drift <= 1e-10 * max(1.0, np.abs(form.matrix).max())

    @given(spaces(m_lo=2, n_lo=6))
    def test_random_points_stay_feasible(self, sp):
        i = sp.dimension // 2
        form = build_watson_form(sp, i, 3)
        system = assemble_constraints(sp, i, 3, 2)
        rng = np.random.default_rng(0)
        for _ in range(4):
            lam = form.lambda_star - form.matrix @ rng.uniform(-2.0, 2.0, len(form.free_offsets))
            residual = oracles.nearbest_residual_mp(
                sp.knots.t, sp.degree, i, system.offsets, 2, lam)
            assert residual <= 1e-9

    def test_radius_one_is_parameter_free(self):
        sp = space_from("random", m=2, n=8, seed=9)
        form = build_watson_form(sp, 4, 1)
        assert form.matrix.shape == (3, 0)
        assert form.free_offsets == ()
        # the one feasible point
        assert assemble_constraints(sp, 4, 1, 2).residual(form.lambda_star) <= 1e-12

    def test_lambda_star_matches_wide_stencil(self):
        sp = space_from("random", m=2, n=12, seed=2)
        qi = build_qp2star(sp, 2)
        i = 6
        form = build_watson_form(sp, i, 2)
        st = qi.stencils[i]
        dense = np.zeros(5)
        for s, w in zip(st.offsets, st.weights):
            dense[2 + s] = w
        np.testing.assert_allclose(form.lambda_star, dense, atol=1e-13)


class TestKnotCondition:
    def test_uniform_holds_everywhere(self):
        sp = space_from("uniform", m=2, n=20)
        for i in range(2, sp.dimension - 2):
            assert knot_condition(sp, i, 2)

    @given(spaces(m_lo=2, n_lo=6))
    def test_radius_one_always_holds(self, sp):
        for i in range(1, sp.dimension - 1):
            assert knot_condition(sp, i, 1)

    def test_strong_grading_violates(self):
        sp = space_from("geometric", m=2, n=12, ratio=4.0)
        flags = [knot_condition(sp, i, 3) for i in range(3, sp.dimension - 3)]
        assert not all(flags)

    def test_requires_full_window(self):
        sp = space_from("uniform", m=2, n=8)
        with pytest.raises(ValueError):
            knot_condition(sp, 1, 2)

    @pytest.mark.parametrize("n", [20, 40, 80])
    def test_agrees_with_certificate_on_tiny_windows(self, n):
        # steps grow by 100 per interval, so the left windows span down to
        # about 1e-150; an absolute 1e-12 tolerance on the raw sites held the
        # condition on 5, 25 and 65 rows whose certificate fails
        sp = space_from("geometric", m=5, n=n, ratio=100.0)
        rows = [r for r in iter_lp_audit(sp, 5) if 5 <= r["i"] <= sp.dimension - 6]
        assert len(rows) == sp.dimension - 10
        for rec in rows:
            assert rec["knot_condition"] == (rec["certificate"] == "pass"), rec["i"]
            assert rec["knot_condition"] == knot_condition(sp, rec["i"], 5)


class TestCertificate:
    def test_uniform_certificate_passes(self):
        sp = space_from("uniform", m=2, n=12)
        assert watson_certificate(sp, 6, 2).passes
        _, largest = oracles.three_point_certificate_mp(sp.greville, 6, 2)
        assert largest <= 1.0 + 1e-12
        assert closed_form_l1(sp, 6, 2) == pytest.approx(9.0 / 8.0, rel=1e-13)

    @given(spaces(m_lo=2, n_lo=6))
    def test_vector_always_orthogonal_to_directions(self, sp):
        # the mpmath dual vector against the columns of the Watson form
        i = sp.dimension // 2
        vector, _ = oracles.three_point_certificate_mp(sp.greville, i, 2)
        form = build_watson_form(sp, i, 2)
        if form.matrix.size:
            drift = np.abs(np.array(vector) @ form.matrix).max()
            assert drift <= 1e-10 * max(1.0, np.abs(form.matrix).max()) * max(map(abs, vector))

    @given(spaces(m_lo=2, n_lo=6))
    def test_certificate_soundness(self, sp):
        # a passing certificate must pin the LP optimum to the closed form
        i = sp.dimension // 2
        cert = watson_certificate(sp, i, 2)
        if not cert.passes:
            return
        lp = solve_l1(assemble_constraints(sp, i, 2, 2)).value
        assert abs(lp - closed_form_l1(sp, i, 2)) <= 1e-8

    def test_grading_breaks_certificate_and_lp_improves(self):
        sp = space_from("geometric", m=2, n=16, ratio=2.0)
        found = False
        for i in range(2, sp.dimension - 2):
            if watson_certificate(sp, i, 2).passes:
                continue
            found = True
            _, largest = oracles.three_point_certificate_mp(sp.greville, i, 2)
            assert largest > 1.0 + 1e-12
            lp = solve_l1(assemble_constraints(sp, i, 2, 2)).value
            assert lp < closed_form_l1(sp, i, 2) - 1e-6
        assert found

    def test_weak_duality(self):
        sp = space_from("random", m=2, n=12, seed=31)
        i = 6
        cert = watson_certificate(sp, i, 2)
        vector, _ = oracles.three_point_certificate_mp(sp.greville, i, 2)
        system = assemble_constraints(sp, i, 2, 2)
        y, *_ = np.linalg.lstsq(system.matrix.T, vector, rcond=None)
        dual_value = float(system.rhs @ y)
        form = build_watson_form(sp, i, 2)
        rng = np.random.default_rng(7)
        for _ in range(6):
            lam = form.lambda_star - form.matrix @ rng.uniform(-1.0, 1.0, len(form.free_offsets))
            assert dual_value <= np.abs(lam).sum() + 1e-8
        if cert.passes:
            assert dual_value == pytest.approx(closed_form_l1(sp, i, 2), abs=1e-8)


class TestThreePointTable:
    """The certificates of a (space, p) are computed in one table, on first
    use, and kept only while the space lives."""

    @pytest.mark.parametrize("budget", [None, 64])
    def test_table_has_the_same_bits_with_or_without_a_build(self, monkeypatch, budget):
        # the table normalizes the full windows' sites itself, once, whatever
        # LP rows an earlier build of any q kept, and has the bits of a
        # table on a space with no rows. A small budget puts each full
        # window in a chunk of its own.
        import splineqi.nearbest as nb

        if budget is not None:
            monkeypatch.setattr(nb, "_BATCH_ENTRIES", budget)
        normalize = nb._normalized_sites
        for q in range(4):
            sp = space_from("geometric", m=3, n=24, ratio=1.3)
            build_nearbest_qi(sp, 3, q)
            fresh = nb._build_three_point_table(SplineSpace.from_knots(sp.knots), 3)
            calls = []
            with monkeypatch.context() as patch:
                patch.setattr(nb, "_normalized_sites",
                              lambda *a: (calls.append(a[1].tolist()), normalize(*a))[1])
                table = nb._three_point_table(sp, 3)
            assert calls == [list(range(3, sp.dimension - 3))], q
            assert set(fresh.knot.tolist()) == {True, False}
            for name in table._fields:
                assert getattr(table, name).tobytes() == getattr(fresh, name).tobytes(), (q, name)

    def test_built_once_per_space_and_radius(self, monkeypatch):
        import splineqi.nearbest as nb

        built = []
        inner = nb._build_three_point_table

        def counting(space, p):
            built.append(p)
            return inner(space, p)

        monkeypatch.setattr(nb, "_build_three_point_table", counting)
        sp = space_from("random", m=3, n=16, seed=4)
        for i in range(3, sp.dimension - 3):
            watson_certificate(sp, i, 3)
            knot_condition(sp, i, 3)
            build_watson_form(sp, i, 3)
        records = list(iter_lp_audit(sp, 3))
        assert sum(r["certificate"] != "n/a" for r in records) == sp.dimension - 6
        assert built == [3]
        watson_certificate(sp, 4, 2)
        assert built == [3, 2]

    def test_scalars_are_python_values_of_the_table(self):
        import splineqi.nearbest as nb

        sp = space_from("geometric", m=3, n=16, ratio=1.2)
        table = nb._three_point_table(sp, 3)
        assert table._fields == ("closed", "knot")
        records = list(iter_lp_audit(sp, 3))
        for row, i in enumerate(range(3, sp.dimension - 3)):
            knot = knot_condition(sp, i, 3)
            assert type(knot) is bool and knot == table.knot[row]
            cert = watson_certificate(sp, i, 3)
            assert type(cert.passes) is bool and cert.passes == knot
            record = records[i]
            assert record["certificate"] == ("pass" if knot else "fail")
            closed = record["closed_form_value"]
            assert type(closed) is float and closed == table.closed[row]
            assert closed == closed_form_l1(sp, i, 3)
        assert set(table.knot.tolist()) == {True, False}

    def test_rows_cannot_be_corrupted(self):
        import splineqi.nearbest as nb

        sp = space_from("geometric", m=3, n=16, ratio=2.0)
        table = nb._three_point_table(sp, 3)
        assert not any(array.flags.writeable for array in table)
        form = build_watson_form(sp, 5, 3)
        form.matrix[:] = 0.0
        form.lambda_star[:] = 0.0
        again = build_watson_form(sp, 5, 3)
        assert np.abs(again.matrix).max() > 0.0 and np.abs(again.lambda_star).max() > 0.0

    def test_table_goes_with_its_space(self):
        import gc
        import weakref

        sp = space_from("random", m=3, n=16, seed=5)
        watson_certificate(sp, 4, 3)
        build_nearbest_qi(sp, 3)
        # the space's memo holds the three-point table by p and the near-best
        # band by (p, q); a tuple takes no weak reference, so their arrays
        # are followed
        band = sp._memo[3, 2]
        refs = [weakref.ref(array) for array in sp._memo[3]]
        refs += [weakref.ref(array) for array in (band.sites, band.weights, band.lengths,
                                                  band.values)]
        del band
        assert all(ref() is not None for ref in refs)
        del sp
        gc.collect()
        assert all(ref() is None for ref in refs)


class TestBuildNearbest:
    def test_uniform_norm_value(self):
        sp = space_from("uniform", m=2, n=50)
        qi = build_nearbest_qi(sp, 2)
        assert qi.nu1_star == pytest.approx(9.0 / 8.0, abs=1e-9)
        st = qi.stencils[25]
        dense = np.zeros(5)
        for s, w in zip(st.offsets, st.weights):
            dense[2 + s] = w
        np.testing.assert_allclose(dense, [-1 / 32, 0, 17 / 16, 0, -1 / 32], atol=1e-9)

    def test_random_norm_value(self):
        spec = PartitionSpec("random", 0, 1, 30, 1.0, 0)
        qi = build_nearbest_qi(SplineSpace.from_knots(generate_partition(spec, 3)), 3)
        assert qi.nu1_star == pytest.approx(1.17390, abs=1e-5)

    def test_interpolation_only_norm_is_one(self):
        sp = space_from("random", m=2, n=10, seed=3)
        qi = build_nearbest_qi(sp, 2, q=0)
        assert qi.nu1_star == pytest.approx(1.0, abs=1e-9)

    def test_small_radius_warns(self):
        sp = space_from("uniform", m=3, n=10)
        with pytest.warns(UserWarning, match="below degree"):
            build_nearbest_qi(sp, 2)

    @given(spaces(m_lo=2, m_hi=3, n_lo=8))
    def test_norm_bound_and_dominance(self, sp):
        m = sp.degree
        p = m
        near = build_nearbest_qi(sp, p)
        wide = build_qp2star(sp, p)
        if near.nu1_star is None:
            return
        assert near.nu1_star <= (m + 1) / (m - 1) + 1e-12
        for i in range(sp.dimension):
            if near.interior_lo <= i <= near.interior_hi:
                assert near.lp_values[i] <= np.abs(wide.stencils[i].weights).sum() + 1e-9

    def test_extremes_are_point_evaluation(self):
        sp = space_from("uniform", m=2, n=8)
        qi = build_nearbest_qi(sp, 2)
        for i in (0, sp.dimension - 1):
            assert qi.stencils[i].offsets == (0,)
            assert qi.lp_values[i] == 1.0

    def test_truncated_windows_near_boundary(self):
        sp = space_from("random", m=2, n=10, seed=6)
        qi = build_nearbest_qi(sp, 3)
        st = qi.stencils[1]
        assert st.offsets == (-1, 0, 1, 2, 3)
        assert st.boundary
        t, m = sp.knots.t, sp.degree
        assert oracles.nearbest_residual_mp(t, m, 1, st.offsets, 2, st.weights) <= 1e-9

    def test_exactness_degree_validation(self):
        sp = space_from("uniform", m=2, n=8)
        with pytest.raises(ValueError):
            build_nearbest_qi(sp, 2, q=3)

    def test_lp_failure_is_reported_with_index(self, monkeypatch):
        import splineqi.nearbest as nb

        def explode(*args, **kwargs):
            raise RuntimeError("synthetic simplex failure")

        monkeypatch.setattr(nb, "solve_standard_form", explode)
        sp = space_from("uniform", m=2, n=8)
        with pytest.raises(RuntimeError, match="near-best build failed at index 1"):
            build_nearbest_qi(sp, 2)


    def test_a_miss_is_reported_with_index(self, monkeypatch):
        # the enumerated weights of every window miss: the build is refused
        # at its first window, with the index and the miss
        import splineqi.nearbest as nb

        monkeypatch.setattr(nb, "_cheapest_supports", _off_by_1e3)
        sp = space_from("uniform", m=2, n=8)
        message = "^near-best build failed at index 1: l1 solve at index 1: weights miss"
        with pytest.raises(RuntimeError, match=message):
            build_nearbest_qi(sp, 2)

    def test_infeasible_weights_are_refused(self, monkeypatch):
        # the enumerated weights miss, and nothing else is tried: the row is
        # refused with their miss
        import splineqi.nearbest as nb

        monkeypatch.setattr(nb, "_cheapest_supports", _off_by_1e3)
        sp = space_from("uniform", m=2, n=8)
        with pytest.raises(RuntimeError, match="miss the constraints by 1.0e-03"):
            solve_l1(assemble_constraints(sp, 4, 2, 0))

    @pytest.mark.parametrize("priced", ["optimal", "not optimal"])
    def test_the_pricing_verdict_is_recorded(self, monkeypatch, priced):
        # the enumeration decides the row whatever the pricing says; its
        # verdict is kept as ``certified``
        import splineqi.nearbest as nb
        from splineqi.simplex import SimplexResult

        system = assemble_constraints(space_from("random", m=3, n=12, seed=2), 6, 3, 3)
        solution = solve_l1(system)
        assert solution.certified
        monkeypatch.setattr(nb, "solve_standard_form", lambda A, b, c, basis: SimplexResult(
            x=np.zeros(A.shape[1]), value=np.nan, status=priced, iterations=0))
        recorded = solve_l1(system)
        assert recorded.certified == (priced == "optimal")
        assert recorded.weights.tobytes() == solution.weights.tobytes()
        assert recorded.value == solution.value


def _off_by_1e3(x, rhs):
    """The first site of each window as its support, with weight 1 + 1e-3:
    weights that miss the sum row by 1e-3."""
    # at q = 0 a support is one site, shaped like the right-hand side
    return np.zeros(rhs.shape, dtype=np.intp), np.full(rhs.shape, 1.0 + 1e-3)


class TestAudit:
    def test_records_are_json_serializable(self):
        sp = space_from("uniform", m=2, n=10)
        records = list(iter_lp_audit(sp, 2))
        assert len(records) == sp.dimension
        for rec in records:
            json.dumps(rec)  # must not raise
            assert rec["certificate"] in ("pass", "fail", "n/a")

    def test_no_closed_form_where_tbar_underflows(self):
        # the LP rows stand; the three-point weights are not exact on P_2 there
        sp = space_from("geometric", m=3, n=64, ratio=1000.0)
        records = list(iter_lp_audit(sp, 3))
        underflow = sp.centered_second < np.finfo(float).tiny
        full = [rec for rec in records if len(rec["offsets"]) == 7]
        assert {rec["i"] for rec in full if underflow[rec["i"]]} == set(range(3, 13))
        for rec in full:
            assert ("closed_form_value" in rec) == ("gap" in rec) == (not underflow[rec["i"]])
            assert math.isfinite(rec["value"]) and rec["certificate"] in ("pass", "fail")
            json.dumps(rec, allow_nan=False)

    def test_uniform_interior_certified_with_zero_gap(self):
        sp = space_from("uniform", m=2, n=10)
        for rec in iter_lp_audit(sp, 2):
            if 2 <= rec["i"] <= sp.dimension - 3:
                assert rec["certificate"] == "pass"
                assert rec["knot_condition"] is True
                assert abs(rec["gap"]) <= 1e-9

    def test_graded_partition_reports_failures_and_gaps(self):
        sp = space_from("geometric", m=2, n=16, ratio=2.0)
        fails = [
            rec
            for rec in iter_lp_audit(sp, 2)
            if rec["certificate"] == "fail"
        ]
        assert fails
        for rec in fails:
            assert rec["gap"] > 1e-9
            assert rec["knot_condition"] is False

    def test_endpoints_marked_not_applicable(self):
        sp = space_from("uniform", m=2, n=8)
        records = list(iter_lp_audit(sp, 2))
        assert records[0]["certificate"] == "n/a"
        assert records[-1]["certificate"] == "n/a"
        assert records[0]["knot_condition"] is None


class TestIntegerArguments:
    """p and q are refused unless they are ints, and a bool is not one: on a
    fresh space, and on one that keeps the rows of the ints they equal (the
    key (2, 2) of the kept rows equals (2, 2.0))."""

    @pytest.mark.parametrize("m, p, q, refusal", [
        (2, 2, 2.0, "need 0 <= q"),
        (2, 2, "2", "need 0 <= q"),
        (2, 2, True, "need 0 <= q"),
        (1, True, 1, "offset radius must be an integer"),
        (2, 2.0, 2, "offset radius must be an integer"),
    ])
    @pytest.mark.parametrize("kept", [False, True])
    @pytest.mark.parametrize("call", [build_nearbest_qi, lambda *a: list(iter_lp_audit(*a))],
                             ids=["build", "audit"])
    def test_refused_with_value_error(self, m, p, q, refusal, kept, call):
        sp = space_from("uniform", m=m, n=10)
        if kept:
            build_nearbest_qi(sp, int(p), int(q))
        with pytest.raises(ValueError, match=refusal):
            call(sp, p, q)

    @pytest.mark.parametrize("call", [build_nearbest_qi, lambda *a: list(iter_lp_audit(*a))],
                             ids=["build", "audit"])
    def test_q_above_p_plus_one_refused_before_any_window(self, call, monkeypatch):
        # the windows at 1 and dim-2 hold p + 2 sites, too few for q = p + 2;
        # the refusal comes before the p < m warning and before any solve
        def never(*args, **kwargs):
            raise AssertionError("a window was solved")

        monkeypatch.setattr(nearbest, "assemble_constraints", never)
        monkeypatch.setattr(nearbest, "_solve_full_windows", never)
        sp = space_from("uniform", m=4, n=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"need q <= p \+ 1 = 3, .*got q=4 with p=2"):
                call(sp, 2, 4)

    @pytest.mark.parametrize("i", [3.0, True, np.bool_(True), np.float64(3.0), "3", None])
    @pytest.mark.parametrize("kept", [False, True])
    @pytest.mark.parametrize("call", [
        lambda sp, i: assemble_constraints(sp, i, 1, 1), lambda sp, i: knot_condition(sp, i, 1),
        lambda sp, i: watson_certificate(sp, i, 1), lambda sp, i: build_watson_form(sp, i, 1),
    ], ids=["assemble", "knot", "certificate", "watson"])
    def test_an_index_that_is_not_an_integer_is_refused(self, i, kept, call):
        # as the offsets are: a bool is not an index, also where a kept
        # table has a row for the int it equals
        sp = space_from("uniform", m=2, n=10)
        if kept:
            knot_condition(sp, 3, 1)
        with pytest.raises(ValueError, match="^index must be an integer, got "):
            call(sp, i)

    @pytest.mark.parametrize("cast", [np.int64, np.int32, np.intp])
    def test_a_numpy_index_is_taken_as_its_int(self, cast):
        sp = space_from("geometric", m=3, n=16, ratio=1.2)
        verdicts = set()
        for i in range(3, sp.dimension - 3):
            knot = knot_condition(sp, cast(i), 3)
            verdicts.add(knot)
            assert knot is knot_condition(sp, i, 3)
            assert watson_certificate(sp, cast(i), 3) == watson_certificate(sp, i, 3)
            form, expected = build_watson_form(sp, cast(i), 3), build_watson_form(sp, i, 3)
            assert type(form.center) is int and form.center == i
            assert form.lambda_star.tobytes() == expected.lambda_star.tobytes()
            assert form.matrix.tobytes() == expected.matrix.tobytes()
            system = assemble_constraints(sp, cast(i), 3, 2)
            assert type(system.center) is int and system.center == i
            assert system.matrix.tobytes() == assemble_constraints(sp, i, 3, 2).matrix.tobytes()
        assert verdicts == {True, False}

    def test_qp2star_refuses_a_bool_radius(self):
        sp = space_from("uniform", m=2, n=10)
        with pytest.raises(ValueError, match="offset radius must be an integer"):
            build_qp2star(sp, True)


class TestSupportBound:
    """A (space, p, q) whose widest window has more than 2^20 supports of
    q + 1 sites is refused, before any window is enumerated."""

    @pytest.mark.parametrize("call", [
        build_nearbest_qi, lambda *a: next(iter_lp_audit(*a)),
        lambda sp, p, q: solve_l1(assemble_constraints(sp, 30, p, q))],
        ids=["build", "audit", "solve_l1"])
    def test_windows_past_the_support_bound_refused_before_any_enumeration(
            self, call, monkeypatch):
        # C(25, 8) = 1,081,575 supports, more than 2^20
        def never(*args, **kwargs):
            raise AssertionError("a window was enumerated")

        monkeypatch.setattr(nearbest, "_cheapest_supports", never)
        sp = space_from("uniform", m=7, n=60)
        message = (r"^a window of 25 sites has C\(25, 8\) = 1081575 supports, more than the "
                   r"1048576 the near-best LP enumerates$")
        with pytest.raises(ValueError, match=message):
            call(sp, 12, 7)
        assert (12, 7) not in sp._memo

    def test_the_support_bound_counts_the_window_the_space_leaves(self):
        # dim = 12 < 2p + 1 = 401: every window has at most 12 sites, and
        # C(12, 3) = 220 supports; at dim = 25 a window of 25 sites at q = 7
        # is past the bound, whatever p
        qi = build_nearbest_qi(space_from("uniform", m=2, n=10), 200, 2)
        assert max(qi.lengths) == 12
        with pytest.raises(ValueError, match=r"^a window of 25 sites has C\(25, 8\)"):
            build_nearbest_qi(space_from("uniform", m=7, n=18), 100, 7)


@pytest.mark.parametrize("family, ratio, seed, m, q", [
    ("geometric", 16.0, 0, 3, 2),
    ("random", 1.0, 1, 5, 5),
])
def test_builds_and_audits_write_nothing(capfd, family, ratio, seed, m, q):
    # at the file descriptors: output written below Python's sys.stdout
    # would interleave with the CLI's result lines
    sp = space_from(family, m, n=40, seed=seed, ratio=ratio)
    build_nearbest_qi(sp, m, q)
    for _ in iter_lp_audit(sp, m, q):
        pass
    assert capfd.readouterr() == ("", "")
