"""The solved LP rows kept per (space, p, q).

A build or an audit solves every window of its (p, q) in one call and keeps
the rows with the space, even when the audit's records are not all read; a
later build or audit of the same (p, q) on that space reads them and solves
nothing, and its results are those of a fresh space with the same knots.
Nothing is kept when a window raises, the kept arrays are read-only, and
they go with their space.
"""

import json

import numpy as np
import pytest

import splineqi.nearbest as nb
from conftest import space_from
from splineqi import SplineSpace, build_nearbest_qi, iter_lp_audit

FAMILIES = [("uniform", 1.0, 0), ("geometric", 100.0, 0), ("random", 1.0, 1),
            ("arithmetic", 20.0, 0)]


def _cases(m):
    """(p, q) for p in {1, m, m+1} and every q = 0 .. min(m, 2p)."""
    return [(p, q) for p in sorted({1, m, m + 1}) for q in range(min(m, 2 * p) + 1)]


def _audit_bytes(space, p, q):
    return [json.dumps(record, sort_keys=True) for record in iter_lp_audit(space, p, q)]


def _count_solves(monkeypatch):
    """Count the calls of both LP paths from now on."""
    calls = []
    for name in ("_solve_full_windows", "_solve_window"):
        inner = getattr(nb, name)

        def counted(*args, inner=inner, name=name):
            calls.append(name)
            return inner(*args)

        monkeypatch.setattr(nb, name, counted)
    return calls


@pytest.mark.filterwarnings("ignore:p=1 below degree")
@pytest.mark.parametrize("family, ratio, seed", FAMILIES)
@pytest.mark.parametrize("m", range(1, 6))
def test_build_and_audit_read_each_others_rows(monkeypatch, family, ratio, seed, m):
    for n in (12, 40):
        for p, q in _cases(m):
            case = (family, m, n, p, q)
            first = space_from(family, m, n=n, seed=seed, ratio=ratio)
            second = SplineSpace.from_knots(first.knots)
            # each order's first call solves on a space of its own, so it is
            # the fresh result the other order's second call must match
            built = build_nearbest_qi(first, p, q)
            audited = _audit_bytes(second, p, q)
            with monkeypatch.context() as patch:
                calls = _count_solves(patch)
                assert _audit_bytes(first, p, q) == audited, case
                rebuilt = build_nearbest_qi(second, p, q)
            assert calls == [], case
            assert rebuilt.weights.tobytes() == built.weights.tobytes(), case
            assert rebuilt.lp_values == built.lp_values, case


@pytest.mark.filterwarnings("ignore:p=1 below degree")
def test_each_p_and_q_keeps_its_own_rows():
    space = space_from("random", 4, n=20, seed=3)
    cases = _cases(4)
    built = {(p, q): build_nearbest_qi(space, p, q) for p, q in cases}
    assert {key for key in nb._TABLES[id(space)] if isinstance(key, tuple)} == set(cases)
    for p, q in cases:
        again = build_nearbest_qi(space, p, q)
        fresh = build_nearbest_qi(SplineSpace.from_knots(space.knots), p, q)
        assert again.weights.tobytes() == fresh.weights.tobytes(), (p, q)
        assert again.lp_values == built[p, q].lp_values == fresh.lp_values, (p, q)


class _Boom(Exception):
    pass


def test_a_window_that_raises_keeps_nothing(monkeypatch):
    space = space_from("random", 3, n=20, seed=4)
    solve, calls = nb.solve_standard_form, []

    def exploding(*args, **kwargs):
        # the fourth call is the last truncated window, after the batch
        calls.append(None)
        if len(calls) == 4:
            raise _Boom
        return solve(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(nb, "solve_standard_form", exploding)
        solves = _count_solves(patch)
        with pytest.raises(_Boom):
            build_nearbest_qi(space, 3)
    assert len(calls) == 4 and solves.count("_solve_full_windows") == 1
    assert (3, 2) not in nb._TABLES[id(space)]
    solves = _count_solves(monkeypatch)
    qi = build_nearbest_qi(space, 3)
    assert "_solve_full_windows" in solves
    fresh = build_nearbest_qi(SplineSpace.from_knots(space.knots), 3)
    assert qi.weights.tobytes() == fresh.weights.tobytes()
    assert qi.lp_values == fresh.lp_values


def test_an_abandoned_audit_keeps_its_rows(monkeypatch):
    space = space_from("geometric", 3, n=20, ratio=1.2)
    records = iter_lp_audit(space, 3)
    for _ in range(3):
        next(records)
    records.close()
    assert (3, 2) in nb._TABLES[id(space)]
    solves = _count_solves(monkeypatch)
    qi = build_nearbest_qi(space, 3)
    assert solves == []
    fresh = build_nearbest_qi(SplineSpace.from_knots(space.knots), 3)
    assert qi.weights.tobytes() == fresh.weights.tobytes()
    assert qi.lp_values == fresh.lp_values


def test_a_kept_row_still_warns(monkeypatch):
    space = space_from("uniform", 3, n=16)
    with pytest.warns(UserWarning, match="p=1 below degree 3"):
        build_nearbest_qi(space, 1)
    solves = _count_solves(monkeypatch)
    with pytest.warns(UserWarning, match="p=1 below degree 3"):
        list(iter_lp_audit(space, 1))
    with pytest.warns(UserWarning, match="p=1 below degree 3"):
        build_nearbest_qi(space, 1)
    assert solves == []
    with pytest.raises(ValueError, match="need 0 <= q"):
        build_nearbest_qi(space, 1, 3)


def test_kept_rows_cannot_be_written():
    space = space_from("random", 3, n=16, seed=6)
    qi = build_nearbest_qi(space, 3)
    kept = list(nb._lp_windows(space, 3, 2))
    assert len(kept) > 1
    for rows in kept:
        for array in (rows.centers, rows.weights, rows.values, rows.matrix, rows.rhs):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
    # the operator's band is its own copy
    assert not any(np.shares_memory(qi.weights, rows.weights) for rows in kept)
