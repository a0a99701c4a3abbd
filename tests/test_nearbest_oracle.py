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
        # knot differences scaled by 1/L, so a_5 / L**5 reads no 0/0.
        # Every row meets the exactness rows in mpmath, but on windows 1..3
        # the simplex's absolute 1e-11 pivot tolerance treats the q = 5 row
        # (entries 1e-50 .. 1, target 3.6e-50) as redundant, so their value
        # sits 2e-8 below the optimum (ROADMAP item 1, scale-aware pivots)
        _check_rows(qi, sampled=(_worst_full_window(qi),))
        best = oracles.nearbest_enumerate_mp(space.knots.t, m, 1, qi.stencil(1).offsets, q)
        assert best * (1 - 1e-7) < qi.lp_values[1] < best, (qi.lp_values[1], best)
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


@pytest.mark.parametrize("m, q", [(m, q) for m in (6, 7) for q in range(3, m + 1)])
def test_high_degree_builds_are_exact(m, q):
    qi = build_nearbest_qi(space_from("random", m, n=40, seed=0), m, q)
    _check_rows(qi, sampled=())


def test_wide_high_exactness_build_is_exact():
    # 54 264 supports per full window: too many for the mpmath oracle
    qi = build_nearbest_qi(space_from("random", 5, n=40, seed=1), 10, 5)
    _check_rows(qi, sampled=())


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
