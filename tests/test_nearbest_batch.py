"""The batched solve of the full windows against the per-window LP path.

`_lp_windows` solves every full window (offsets -p..p) of an operator in
one batch, and refuses the operator at the first row whose weights miss the
constraints; every truncated window goes through `assemble_constraints` ->
`solve_l1`. Each batched row must be the LP optimum that path finds.
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
    """(p, q) for p in {1, m, m+1} and q = 0 .. min(m, 2p)."""
    return [(p, q) for p in sorted({1, m, m + 1}) for q in range(min(m, 2 * p) + 1)]


def _batch(space, p, q):
    """(center, weights, value) of each full window, read from the chunk's
    arrays."""
    rows = nb._solve_full_windows(space, p, q, np.arange(p, space.dimension - p))
    return zip(rows.centers.tolist(), rows.weights, rows.values.tolist())


def _exact_on_support(system, support):
    """Weights on the support, solved in 40 digits from the float system."""
    with mpmath.workdps(40):
        V = mpmath.matrix([[mpmath.mpf(float(system.matrix[r, j])) for j in support]
                           for r in range(system.q + 1)])
        b = mpmath.matrix([mpmath.mpf(float(v)) for v in system.rhs])
        return np.array([float(w) for w in mpmath.lu_solve(V, b)])


@pytest.mark.parametrize("family, ratio, seed", FAMILIES)
@pytest.mark.parametrize("m", range(1, 8))
def test_batch_matches_per_window_path(family, ratio, seed, m):
    compared = 0
    for p, q in _batched_cases(m):
        space = space_from(family, m, n=2 * p + 4, seed=seed, ratio=ratio)
        for i, weights, value in _batch(space, p, q):
            path = solve_l1(assemble_constraints(space, i, p, q))
            case = (family, m, p, q, i)
            # both paths keep the enumerated support's Bjorck-Pereyra
            # weights, bit for bit
            assert weights.tobytes() == path.weights.tobytes(), case
            assert value == path.value, case
            compared += 1
    assert compared


def test_per_window_path_keeps_bjorck_pereyra_weights():
    # an ill-conditioned support (cond(V_S) about 4e4): a simplex tableau's
    # weights missed the 40-digit solution by 2.7e-13 relative, Bjorck-Pereyra's
    # miss it by 3e-15
    space = space_from("random", 7, n=20, seed=1)
    system = assemble_constraints(space, 18, 8, 7)
    solution = solve_l1(system)
    assert solution.certified
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
    optimal on uniform cubic windows of radius 3 at q = 3. (At q = 2 the
    batch certifies those windows without enumerating.)"""
    support = np.broadcast_to(np.arange(rhs.shape[-1]), rhs.shape)
    weights = nb._support_values(np.take_along_axis(x, support, axis=-1)[..., None], rhs)
    return support, weights[..., 0]


def _first_support_missing(x, rhs, rows=slice(None)):
    """`_first_support` with the weights of the given rows scaled off the
    constraints by 1e-6."""
    support, weights = _first_support(x, rhs)
    weights[rows] *= 1.0 + 1e-6
    return support, weights


def test_rows_the_batch_cannot_certify_are_refused(monkeypatch):
    # offer the lexicographically first support, which is not optimal here,
    # with the weights of every other full window, from the second, scaled
    # off the constraints: the batch keeps no row of its chunk, and refuses
    # the operator at the first row that misses. The truncated windows
    # before it were solved; none after it is.
    space = space_from("uniform", 3, n=16)
    solved, window = [], nb._solve_window

    def offered(x, rhs):
        return _first_support_missing(x, rhs, rows=slice(1, None, 2) if x.ndim == 2 else slice(0))

    monkeypatch.setattr(nb, "_cheapest_supports", offered)
    monkeypatch.setattr(nb, "_solve_window", lambda s: (solved.append(s.center), window(s))[1])
    message = "^near-best build failed at index 4: l1 solve at index 4: weights miss the constraints"
    with pytest.raises(RuntimeError, match=message):
        build_nearbest_qi(space, 3, 3)
    assert solved == [1, 2]
    assert (3, 3) not in nb._TABLES[id(space)]


def test_batch_solves_no_linear_system(monkeypatch):
    # the batch decides each row by its residual alone: no dual system is
    # solved, and no row of these windows takes the path
    space = space_from("geometric", 3, n=16, ratio=1.2)
    centers = np.arange(3, space.dimension - 3)

    def refuse(*args, **kwargs):
        raise AssertionError("a linear solve in the batch")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(nb, "_solve_window", refuse)
    for q in range(4):
        rows = nb._solve_full_windows(space, 3, q, centers)
        assert np.isfinite(rows.values).all() and (rows.values >= 1.0 - 1e-12).all(), q


@pytest.mark.parametrize("refuse", [False, True])
def test_lp_objects_only_for_the_path(monkeypatch, refuse):
    # the batch hands its rows on as arrays: a ConstraintSystem and an
    # L1Solution are made only for a window on the per-window path, the 4
    # truncated windows here; where every full window's weights miss, the
    # build is refused at the first, after the 2 truncated windows before
    # it, and the batch makes no LP object for the rows it refuses
    space = space_from("uniform", 3, n=16)
    if refuse:
        monkeypatch.setattr(nb, "_cheapest_supports", lambda x, rhs: _first_support_missing(
            x, rhs, rows=slice(None) if x.ndim == 2 else slice(0)))
    made = {"ConstraintSystem": 0, "L1Solution": 0}
    for name in made:
        cls = getattr(nb, name)

        def counted(*args, cls=cls, name=name, **kwargs):
            made[name] += 1
            return cls(*args, **kwargs)

        monkeypatch.setattr(nb, name, counted)
    if refuse:
        with pytest.raises(RuntimeError, match="^near-best build failed at index 3: "):
            build_nearbest_qi(space, 3, 3)
    else:
        build_nearbest_qi(space, 3, 2)
    path = 2 if refuse else 4
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


def _enumerated(space, p):
    """The rows of the full windows with every row's support enumerated, as
    the batch found them before it took the wide three-point support
    unenumerated."""
    dim = space.dimension
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nb, "_wide_rows", lambda x, p: np.zeros(len(x), dtype=bool))
        return nb._solve_full_windows(space, p, 2, np.arange(p, dim - p))


def test_wide_rows_keep_the_enumerated_bits():
    # the q = 2 rows whose knot condition holds strictly skip the support
    # enumeration; their weights must be the bits the enumeration finds
    rng = np.random.default_rng(31)
    wide = rows_seen = 0
    for m in range(2, 8):
        for p in range(max(1, m - 1), m + 3):
            for family in ("uniform", "random", "arithmetic", "geometric") * 8:
                n = int(rng.integers(2 * p + 2, 6 * p + 21))
                # geometric: a total ratio h_n / h_1 from 0.5 to 1000
                total = float(np.exp(rng.uniform(np.log(0.5), np.log(1000.0))))
                ratio = {"arithmetic": 20.0, "geometric": total ** (1 / (n - 1))}.get(family, 1.0)
                space = space_from(family, m, n=n, seed=int(rng.integers(2**31)), ratio=ratio)
                centers = np.arange(p, space.dimension - p)
                rows = nb._solve_full_windows(space, p, 2, centers)
                full = _enumerated(space, p)
                case = (family, m, p, n)
                assert rows.weights.tobytes() == full.weights.tobytes(), case
                assert rows.values.tolist() == full.values.tolist(), case
                _, x, _, _ = nb._assemble(space, centers, rows.offsets, 2)
                wide += int(nb._wide_rows(x, p).sum())
                rows_seen += len(centers)
    # the shortcut took some rows, not all
    assert 0 < wide < rows_seen


def test_rows_on_the_edge_are_enumerated():
    # uniform cubic, p = 3: the knot condition of the two outermost full
    # windows holds within 1e-12 but not strictly (index 3 by 1.1e-16,
    # index 19 misses by 4.4e-16). At index 19 another support ties with
    # the three-point weights, and the enumeration's tie rule picks offsets
    # (-3, -1, 0): neither row may skip the enumeration.
    space = space_from("uniform", 3, n=20)
    p, last = 3, 19
    assert last == space.dimension - 1 - p and nb.knot_condition(space, last, p)
    centers = np.arange(p, space.dimension - p)
    _, x, _, _ = nb._assemble(space, centers, tuple(range(-p, p + 1)), 2)
    assert nb._wide_rows(x, p).tolist() == [False] + [True] * (len(centers) - 2) + [False]
    rows = nb._solve_full_windows(space, p, 2, centers)
    assert np.flatnonzero(rows.weights[-1]).tolist() == [0, 2, 3]
    assert rows.weights.tobytes() == _enumerated(space, p).weights.tobytes()


def _same_bits(one, *others):
    """Whether every array of ``others`` has the bytes of ``one``."""
    return all(np.asarray(other).tobytes() == np.asarray(one).tobytes() for other in others)


@pytest.mark.parametrize("family, ratio, seed", [
    ("geometric", 100.0, 0), ("geometric", 0.5, 0), ("random", 1.0, 1)])
@pytest.mark.parametrize("m", range(1, 8))
def test_one_window_has_the_bits_of_its_row(family, ratio, seed, m):
    # a single window runs on 1-D arrays (an int center), a chunk of windows
    # on 2-D ones; every truncated and full window must get the same bits
    # as a one-center array and as its row of the full-window chunk, in its
    # system and in its enumerated support and weights
    for p in range(1, m + 3):
        space = space_from(family, m, n=max(1, 2 * p + 3 - m), seed=seed, ratio=ratio)
        last = space.dimension - 1
        full = tuple(range(-p, p + 1))
        centers = np.arange(p, last - p + 1)
        for q in range(min(m, 2 * p) + 1):
            chunk = nb._assemble(space, centers, full, q)
            chunk_best = nb._cheapest_supports(chunk[1], chunk[3])
            for i in range(1, last):
                offsets = tuple(range(max(-p, -i), min(p, last - i) + 1))
                if len(offsets) < q + 1:
                    continue
                case = (family, m, p, q, i)
                system = assemble_constraints(space, i, p, q, offsets=offsets)
                one = nb._assemble(space, i, offsets, q)
                alone = nb._assemble(space, np.array([i]), offsets, q)
                rows = [alone] + ([chunk] if len(offsets) == 2 * p + 1 else [])
                at = [0, i - p]
                assert one[0].shape == one[1].shape == (len(offsets),), case
                assert one[2].shape == (q + 1, len(offsets)) and one[3].shape == (q + 1,), case
                assert _same_bits(system.sites, one[0], *(r[0][a] for r, a in zip(rows, at))), case
                assert _same_bits(system.matrix, one[2], *(r[2][a] for r, a in zip(rows, at))), case
                assert _same_bits(system.rhs, one[3], *(r[3][a] for r, a in zip(rows, at))), case
                if q:
                    assert _same_bits(one[1], system.matrix[1]), case
                support, weights = nb._cheapest_supports(one[1], one[3])
                assert support.shape == weights.shape == (q + 1,), case
                lone = nb._cheapest_supports(alone[1], alone[3])
                assert _same_bits(support, lone[0][0]) and _same_bits(weights, lone[1][0]), case
                if len(offsets) == 2 * p + 1:
                    row = i - p
                    assert _same_bits(support, chunk_best[0][row]), case
                    assert _same_bits(weights, chunk_best[1][row]), case


def test_unsorted_offsets_permute_the_columns():
    # a window's sites may come in any order: the columns of the system
    # follow them, and the right-hand side does not depend on them
    space = space_from("geometric", 4, n=16, ratio=1.5)
    rng = np.random.default_rng(5)
    for i, lo, hi in ((2, -2, 4), (8, -4, 4), (14, -4, 1)):
        offsets = tuple(range(lo, hi + 1))
        order = rng.permutation(len(offsets))
        shuffled = tuple(offsets[j] for j in order)
        for q in range(5):
            system = assemble_constraints(space, i, 4, q, offsets=offsets)
            permuted = assemble_constraints(space, i, 4, q, offsets=shuffled)
            assert permuted.offsets == shuffled
            assert permuted.sites.tobytes() == system.sites[order].tobytes()
            assert permuted.matrix.tobytes() == system.matrix[:, order].tobytes()
            assert permuted.rhs.tobytes() == system.rhs.tobytes()
