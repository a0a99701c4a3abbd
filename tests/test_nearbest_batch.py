"""The batched solve of the full windows against the per-window LP path.

`_lp_windows` solves every full window (offsets -p..p) of an operator in
one batch and hands each row it cannot certify, with the system the batch
assembled, to `solve_l1`; every truncated window goes through
`assemble_constraints` -> `solve_l1`. Each batched row must be the LP
optimum that path finds.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

import splineqi.nearbest as nb
from conftest import space_from
from splineqi import SplineSpace, assemble_constraints, build_nearbest_qi, iter_lp_audit, solve_l1

FAMILIES = [("uniform", 1.0, 0), ("geometric", 1.2, 0), ("geometric", 100.0, 0),
            ("arithmetic", 20.0, 0), ("random", 1.0, 1)]


def _batched_cases(m):
    """(p, q) for p in {1, m, m+1} and q = 0 .. min(m, 2p) whose full
    windows are batched."""
    return [(p, q) for p in sorted({1, m, m + 1}) for q in range(min(m, 2 * p) + 1)
            if math.comb(2 * p + 1, q + 1) <= nb._MAX_SUPPORTS]


def _batch(space, p, q, monkeypatch):
    """(center, weights, value) of each row the batch certifies itself, read
    from the chunk's arrays; the rows it leaves to the path are left out."""
    refused = set()

    def path(system):
        refused.add(system.center)
        return nb.L1Solution(np.zeros(len(system.offsets)), 0.0, 0)

    with monkeypatch.context() as patch:
        patch.setattr(nb, "_solve_window", path)
        rows = nb._solve_full_windows(space, p, q, np.arange(p, space.dimension - p))
    return [(i, weights, value)
            for i, weights, value in zip(rows.centers.tolist(), rows.weights, rows.values.tolist())
            if i not in refused]


def _exact_on_support(system, support):
    """Weights on the support, solved in 40 digits from the float system."""
    with mpmath.workdps(40):
        V = mpmath.matrix([[mpmath.mpf(float(system.matrix[r, j])) for j in support]
                           for r in range(system.q + 1)])
        b = mpmath.matrix([mpmath.mpf(float(v)) for v in system.rhs])
        return np.array([float(w) for w in mpmath.lu_solve(V, b)])


@pytest.mark.parametrize("family, ratio, seed", FAMILIES)
@pytest.mark.parametrize("m", range(1, 8))
def test_batch_matches_per_window_path(monkeypatch, family, ratio, seed, m):
    compared = 0
    for p, q in _batched_cases(m):
        space = space_from(family, m, n=2 * p + 4, seed=seed, ratio=ratio)
        for i, weights, value in _batch(space, p, q, monkeypatch):
            path = solve_l1(assemble_constraints(space, i, p, q))
            case = (family, m, p, q, i)
            assert value <= path.value * (1 + 1e-12), case
            if path.iterations:
                # the path's simplex could not install the enumerated
                # support (a pivot under its absolute 1e-11 on sites ~1e-12
                # apart) and ran cold to a tied optimum; the batch keeps the
                # enumerated support, certified and no worse
                continue
            # the simplex certified the enumerated support, and both paths
            # keep its Bjorck-Pereyra weights, bit for bit
            assert weights.tobytes() == path.weights.tobytes(), case
            assert value == path.value, case
            compared += 1
    assert compared


def test_per_window_path_keeps_bjorck_pereyra_weights():
    # an ill-conditioned support (cond(V_S) about 4e4): the simplex tableau's
    # weights miss the 40-digit solution by 2.7e-13 relative, Bjorck-Pereyra's
    # by 3e-15
    space = space_from("random", 7, n=20, seed=1)
    system = assemble_constraints(space, 18, 8, 7)
    solution = solve_l1(system)
    assert solution.iterations == 0
    support = np.flatnonzero(solution.weights)
    exact = _exact_on_support(system, support)
    assert np.abs(solution.weights[support] - exact).max() <= 1e-14 * solution.value


@pytest.mark.parametrize("m, p, q, budget", [
    (3, 3, 2, 64),      # one row per chunk, the supports in two blocks
    (3, 3, 2, 4096),    # 39 rows per chunk
    (5, 5, 5, 1000),    # one row per chunk, three blocks
])
def test_chunking_leaves_every_row_unchanged(monkeypatch, m, p, q, budget):
    space = space_from("random", m, n=60, seed=2)
    whole = build_nearbest_qi(space, p, q)
    monkeypatch.setattr(nb, "_BATCH_ENTRIES", budget)
    # a fresh space: the first one keeps its rows and would not solve again
    chunked = build_nearbest_qi(SplineSpace.from_knots(space.knots), p, q)
    np.testing.assert_array_equal(chunked.weights, whole.weights)
    assert chunked.lp_values == whole.lp_values


@pytest.mark.parametrize("budget", [None, 1, 24])
@pytest.mark.parametrize("m, p", [(1, 1), (2, 2), (3, 3), (5, 5)])
def test_enumeration_weights_are_a_solve_of_their_support(monkeypatch, m, p, budget):
    # the weights are read from the enumeration's own Bjorck-Pereyra pass: they
    # must be the bits of a solve of the returned support alone, for one
    # window and for a chunk, in one block or (a small budget) in several
    solve = nb._support_values
    blocks = []
    monkeypatch.setattr(nb, "_support_values", lambda *a: (blocks.append(1), solve(*a))[1])
    if budget is not None:
        monkeypatch.setattr(nb, "_BATCH_ENTRIES", budget)
    space = space_from("random", m, n=2 * p + 8, seed=3)
    centers = np.arange(p, space.dimension - p)
    for q in range(min(m, 2 * p) + 1):
        _, x, _, rhs = nb._assemble(space, centers, tuple(range(-p, p + 1)), q)
        for rows in (slice(0, 1), slice(None)):
            blocks.clear()
            support, weights = nb._cheapest_supports(x[rows], rhs[rows])
            if budget is None:
                assert len(blocks) == 1
            elif budget == 1:
                assert len(blocks) == math.comb(2 * p + 1, q + 1)
            nodes = np.take_along_axis(x[rows], support, axis=1)[:, :, None]
            alone = solve(nodes, rhs[rows])[:, :, 0]
            assert weights.shape == alone.shape == (len(x[rows]), q + 1)
            assert weights.tobytes() == alone.tobytes(), (m, p, q, rows)


def _first_support(x, rhs):
    """The lexicographically first support of each window, which is not
    optimal on uniform cubic windows of radius 3: the batch refuses them."""
    support = np.broadcast_to(np.arange(rhs.shape[1]), rhs.shape)
    weights = nb._support_values(np.take_along_axis(x, support, axis=1)[:, :, None], rhs)
    return support, weights[:, :, 0]


def test_rows_the_batch_cannot_certify_take_the_path(monkeypatch):
    # offer the lexicographically first support: the batch refuses every
    # full window, and the path's simplex pivots on from the same support to
    # the optimum. A refused row keeps the system the batch assembled: only
    # the truncated windows at the two ends are assembled one by one.
    space = space_from("uniform", 3, n=16)
    best = build_nearbest_qi(space, 3)
    last = space.dimension - 1
    solved, assembled = [], []
    window, assemble = nb._solve_window, nb.assemble_constraints
    monkeypatch.setattr(nb, "_cheapest_supports", _first_support)
    monkeypatch.setattr(nb, "_solve_window", lambda s: (solved.append(s.center), window(s))[1])
    monkeypatch.setattr(nb, "assemble_constraints",
                        lambda s, i, *a, **k: (assembled.append(i), assemble(s, i, *a, **k))[1])
    # a fresh space: the first one keeps its rows and would not solve again
    qi = build_nearbest_qi(SplineSpace.from_knots(space.knots), 3)
    assert solved == list(range(1, last))
    assert assembled == [1, 2, last - 2, last - 1]
    np.testing.assert_allclose(qi.lp_values, best.lp_values, rtol=1e-12)


def test_singular_chunk_takes_the_path(monkeypatch):
    # a chunk whose batched dual solve meets an exactly singular V_S gets no
    # duals: every row goes to the per-window path, which finds the same rows
    space = space_from("geometric", 3, n=16, ratio=1.2)
    best = build_nearbest_qi(space, 3)
    solve, solved = np.linalg.solve, []

    def singular(a, b):
        if a.ndim == 3:  # the batch's stack of V_S^T
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    window = nb._solve_window
    monkeypatch.setattr(np.linalg, "solve", singular)
    monkeypatch.setattr(nb, "_solve_window", lambda s: (solved.append(s.center), window(s))[1])
    qi = build_nearbest_qi(SplineSpace.from_knots(space.knots), 3)
    assert solved == list(range(1, space.dimension - 1))
    np.testing.assert_array_equal(qi.weights, best.weights)
    assert qi.lp_values == best.lp_values


@pytest.mark.parametrize("refuse", [False, True])
def test_lp_objects_only_for_the_path(monkeypatch, refuse):
    # the batch hands its rows on as arrays: a ConstraintSystem and an
    # L1Solution are made only for a window on the per-window path, the 4
    # truncated windows here, or every row when the batch refuses them all
    space = space_from("uniform", 3, n=16)
    if refuse:
        monkeypatch.setattr(nb, "_cheapest_supports", _first_support)
    made = {"ConstraintSystem": 0, "L1Solution": 0}
    for name in made:
        cls = getattr(nb, name)

        def counted(*args, cls=cls, name=name, **kwargs):
            made[name] += 1
            return cls(*args, **kwargs)

        monkeypatch.setattr(nb, name, counted)
    build_nearbest_qi(space, 3)
    path = space.dimension - 2 if refuse else 4
    assert made == {"ConstraintSystem": path, "L1Solution": path}


@pytest.mark.parametrize("family, ratio, seed, m, p, q, n", [
    ("geometric", 1.2, 0, 4, 4, 3, 30),
    ("uniform", 1.0, 0, 3, 3, 2, 30),
    ("geometric", 100.0, 0, 5, 5, 2, 40),   # windows down to about 1e-69 wide
    ("random", 1.0, 1, 5, 10, 5, 40),       # 54 264 supports, in blocks
    ("arithmetic", 20.0, 0, 2, 1, 0, 30),
])
@pytest.mark.filterwarnings("ignore:p=1 below degree 2")
def test_audit_records_match_the_build(family, ratio, seed, m, p, q, n):
    # every window, batched or not, has the one assembly of
    # `assemble_constraints`: the audit's V and b are its bits
    space = space_from(family, m, n=n, seed=seed, ratio=ratio)
    qi = build_nearbest_qi(space, p, q)
    for record in iter_lp_audit(space, p, q):
        i = record["i"]
        assert record["value"] == qi.lp_values[i]
        assert record["weights"] == qi.weights[i, : qi.lengths[i]].tolist()
        if 0 < i < space.dimension - 1:
            system = assemble_constraints(space, i, p, q, offsets=record["offsets"])
            assert record["V"] == system.matrix.tolist()
            assert record["b"] == system.rhs.tolist()


@pytest.mark.parametrize("family, ratio, seed, m, p, q, n, limit_mb", [
    ("geometric", 1.02, 0, 7, 7, 7, 200, 4.0),
    ("random", 1.0, 1, 5, 10, 5, 40, 20.0),
])
def test_build_memory_stays_bounded(family, ratio, seed, m, p, q, n, limit_mb):
    space = space_from(family, m, n=n, seed=seed, ratio=ratio)
    nb._supports.cache_clear()  # count the support table too
    tracemalloc.start()
    try:
        build_nearbest_qi(space, p, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 1e6
