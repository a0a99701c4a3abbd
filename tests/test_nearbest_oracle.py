"""Near-best builds against an mpmath enumeration oracle, over q = 2 on
strongly graded partitions and q up to m on graded and random ones.

Every row must meet its exactness rows in high precision, and sampled rows
must reach the oracle's optimum. The oracle shares no code with the package:
it builds the Greville sites and central moments from the knots itself.
"""

import numpy as np
import pytest

import oracles
from conftest import space_from
from splineqi import build_nearbest_qi, knot_condition, watson_certificate

GRADED = (
    ("geometric", 1.5),
    ("geometric", 4.0),
    ("geometric", 8.0),
    ("geometric", 16.0),
    ("geometric", 100.0),
    ("arithmetic", 5.0),
    ("arithmetic", 20.0),
)


def _check_rows(qi, sampled):
    """Exactness of every row, and the optimum of the sampled rows."""
    sp, m, q = qi.space, qi.space.degree, qi.q
    t = sp.knots.t
    for i in range(1, sp.dimension - 1):
        st = qi.stencil(i)
        residual = oracles.nearbest_residual_mp(t, m, i, st.offsets, q, st.weights)
        assert residual <= 1e-9, (i, residual)
    for i in sampled:
        st = qi.stencil(i)
        best = oracles.nearbest_enumerate_mp(t, m, i, st.offsets, q)
        assert abs(qi.lp_values[i] - best) <= 1e-9 * best, (i, qi.lp_values[i], best)


def _worst_full_window(qi):
    """The full window with the largest optimum: where grading bites most."""
    p, dim = qi.p, qi.space.dimension
    return max(range(p, dim - p), key=lambda i: qi.lp_values[i])


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("family, ratio", GRADED)
def test_q2_graded_builds_reach_oracle(m, family, ratio):
    qi = build_nearbest_qi(space_from(family, m, n=20, ratio=ratio), m, 2)
    _check_rows(qi, sampled=(1, _worst_full_window(qi)))


HIGH = (
    ("uniform", 1.0, 0),
    ("geometric", 16.0, 0),
    ("geometric", 100.0, 0),
    ("arithmetic", 20.0, 0),
    ("random", 1.0, 1),
)


HIGH_CASES = [(*case, m, q) for case in HIGH for m in (3, 4, 5) for q in range(3, m + 1)]
HIGH_CASES.append(("random", 1.0, 6, 5, 4))


# random seed 1 fails every q = m >= 5 build and seed 6 the m = 5, q = 4 one
# under an absolute phase-1 unboundedness test
@pytest.mark.parametrize("family, ratio, seed, m, q", HIGH_CASES, ids=[
    f"{m}-{q}-{seed}" if family == "random" else f"{family}{ratio:g}-{m}-{q}"
    for family, ratio, seed, m, q in HIGH_CASES
])
def test_high_exactness_builds_reach_oracle(family, ratio, seed, m, q):
    space = space_from(family, m, n=40, seed=seed, ratio=ratio)
    qi = build_nearbest_qi(space, m, q)
    if (family, ratio, m, q) == ("geometric", 100.0, 5, 5):
        # window 1 spans about 2e-69, and its right-hand side comes from the
        # knot differences scaled by 1/L, so a_5 / L**5 reads no 0/0. Its
        # enumerated optimum stands: the cold simplex's absolute 1e-11 pivot
        # tolerance treats the q = 5 row (entries 1e-50 .. 1, target 3.6e-50)
        # as redundant, and its weights sat 2e-8 below the optimum
        _check_rows(qi, sampled=(_worst_full_window(qi),))
        best = oracles.nearbest_enumerate_mp(space.knots.t, m, 1, qi.stencil(1).offsets, q)
        assert abs(qi.lp_values[1] - best) <= 1e-12 * best, (qi.lp_values[1], best)
        return
    _check_rows(qi, sampled=(1, _worst_full_window(qi)))


def test_scaled_right_hand_side_reaches_the_optimum():
    # a row whose optimum hangs on the rounding of its right-hand side: formed
    # as a_r of the unscaled knot differences divided by L**r, it came out
    # 1.0199307256771692, 3.8e-6 below the optimum; C(5, 4) = 5 supports
    space = space_from("geometric", 7, n=80, ratio=100.0)
    with pytest.warns(UserWarning, match="below degree"):
        qi = build_nearbest_qi(space, 2, 3)
    best = oracles.nearbest_enumerate_mp(space.knots.t, 7, 25, qi.stencil(25).offsets, 3)
    assert abs(qi.lp_values[25] - best) <= 1e-9 * best, (qi.lp_values[25], best)


@pytest.mark.parametrize("ratio, n, m, p, q, i", [
    # a tableau cannot install the optimal support, whose sites lie closer
    # than its 1e-11 pivot tolerance, and a cold one drops an exactness row
    # as redundant: it read 1.0000000000019962, the optimum is 1.002000001994012
    (1000.0, 10, 5, 3, 4, 1),
    (100.0, 14, 6, 5, 5, 2),  # the same way 2.0e-8 below the optimum
])
def test_truncated_window_on_nearly_coincident_sites_reaches_the_optimum(ratio, n, m, p, q, i):
    space = space_from("geometric", m, n=n, ratio=ratio)
    with pytest.warns(UserWarning, match="below degree"):
        qi = build_nearbest_qi(space, p, q)
    assert len(qi.stencil(i).offsets) < 2 * p + 1
    best = oracles.nearbest_enumerate_mp(space.knots.t, m, i, qi.stencil(i).offsets, q, dps=80)
    assert abs(qi.lp_values[i] - best) <= 1e-12 * best, (qi.lp_values[i], best)


@pytest.mark.parametrize("n, m, p, q, i", [
    # a truncated window with eight sites for eight exactness rows, from
    # about -1e-12 to 1: the simplex dropped an exactness row and read
    # 1.0000000000000002; the optimum is 1.0200019611782019
    (12, 7, 6, 7, 1),
    # a full window whose batched dual test failed: the simplex read
    # 1.000000000001974; the optimum is 1.019934626403395
    (80, 7, 5, 6, 49),
])
def test_enumerated_optimum_stands_where_the_simplex_fell_short(n, m, p, q, i):
    space = space_from("geometric", m, n=n, ratio=100.0)
    with pytest.warns(UserWarning, match="below degree"):
        qi = build_nearbest_qi(space, p, q)
    best = oracles.nearbest_enumerate_mp(space.knots.t, m, i, qi.stencil(i).offsets, q, dps=80)
    assert abs(qi.lp_values[i] - best) <= 1e-12 * best, (qi.lp_values[i], best)


def test_truncated_windows_keep_the_centre_alone():
    # q = 1 on sites about 1e-12 apart: the centre alone (weight 1) is
    # optimal and enumerated first; the cold tableau ended on tied supports
    # such as [-2, 1] with value 0.9999999999999999
    space = space_from("geometric", 5, n=12, ratio=100.0)
    qi = build_nearbest_qi(space, 6, 1)
    truncated = [i for i in range(1, space.dimension - 1) if len(qi.stencil(i).offsets) < 13]
    assert len(truncated) == 10
    for i in truncated:
        st = qi.stencil(i)
        assert [s for s, w in zip(st.offsets, st.weights) if w != 0.0] == [0], i
        assert qi.lp_values[i] == 1.0, (i, qi.lp_values[i])


@pytest.mark.parametrize("m, q", [(m, q) for m in (6, 7) for q in range(3, m + 1)])
def test_high_degree_builds_are_exact(m, q):
    qi = build_nearbest_qi(space_from("random", m, n=40, seed=0), m, q)
    _check_rows(qi, sampled=())


def test_wide_high_exactness_build_is_exact():
    # 54 264 supports per full window: too many for the mpmath oracle
    qi = build_nearbest_qi(space_from("random", 5, n=40, seed=1), 10, 5)
    _check_rows(qi, sampled=())


@pytest.mark.parametrize("family, ratio, m, p, q, n", [
    ("uniform", 1.0, 7, 10, 7, 60),     # C(21, 8) = 203 490 supports per full window
    ("uniform", 1.0, 5, 12, 5, 60),     # C(25, 6) = 177 100
    ("geometric", 1.05, 7, 9, 7, 20),   # C(19, 8) = 75 582
])
def test_windows_past_2_16_supports_reach_the_optimum(family, ratio, m, p, q, n):
    # index 1 against the enumeration oracle, and the full window with the
    # largest optimum against the dual vector of its support, both in
    # mpmath. (Many interior uniform windows have tied optimal supports, at
    # which a dual vector need not be bounded by 1.)
    space = space_from(family, m, n=n, ratio=ratio)
    qi = build_nearbest_qi(space, p, q)
    t = space.knots.t
    st = qi.stencil(1)
    assert len(st.offsets) == p + 2
    best = oracles.nearbest_enumerate_mp(t, m, 1, st.offsets, q)
    assert abs(qi.lp_values[1] - best) <= 1e-12 * best, (qi.lp_values[1], best)
    i = _worst_full_window(qi)
    st, value = qi.stencil(i), qi.lp_values[i]
    largest, dual = oracles.nearbest_dual_mp(t, m, i, st.offsets, q, st.weights)
    assert largest <= 1.0 + 1e-9, (i, largest)
    assert abs(value - dual) <= 1e-12 * value, (i, value, dual)


@pytest.mark.parametrize("q", [0, 1])
def test_oracle_low_exactness_is_a_convex_combination(q):
    # with sites on both sides of theta_i, some convex combination reproduces
    # linear functions, so the optimum is exactly 1
    sp = space_from("random", 3, n=20, seed=2)
    best = oracles.nearbest_enumerate_mp(sp.knots.t, 3, 10, range(-3, 4), q)
    assert best == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("family, ratio", [
    ("uniform", 1.0), ("random", 1.0), ("arithmetic", 20.0), ("geometric", 1.5),
    ("geometric", 100.0),
])
def test_three_point_certificate_matches_oracle(m, family, ratio):
    # the verdict (the certificate's and the knot condition's) is the mpmath
    # dual vector's wherever its largest |v| off the support is clear of 1
    for n in (20, 40):
        sp = space_from(family, m, n=n, seed=1, ratio=ratio)
        theta = sp.greville
        for p in range(1, m + 2):
            for i in range(p, sp.dimension - p):
                _, largest = oracles.three_point_certificate_mp(theta, i, p)
                cert = watson_certificate(sp, i, p)
                if abs(largest - 1.0) > 1e-9:
                    assert cert.passes == (largest <= 1.0), (n, p, i, largest)
                    assert knot_condition(sp, i, p) == (largest <= 1.0), (n, p, i, largest)
