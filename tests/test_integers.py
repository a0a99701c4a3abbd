"""One rule for every integer argument (`knots._integer`): a Python or numpy
integer is read as its Python int, so a numpy value gives the bytes of the
int it holds, and a bool, a float, a string or None is refused with
ValueError, whichever function takes it."""

import numpy as np
import pytest

from conftest import space_from
from splineqi import (
    PartitionSpec,
    SplineFunction,
    assemble_constraints,
    build_nearbest_qi,
    build_q2star,
    build_qp2star,
    build_watson_form,
    eval_spline,
    generate_partition,
    knot_condition,
    make_clamped_knots,
    solve_standard_form,
    watson_certificate,
)

SPACE = space_from("geometric", m=2, n=12, ratio=1.3)
SPLINE = SplineFunction(SPACE, np.sin(np.arange(SPACE.dimension, dtype=float)))
POINTS = np.linspace(0.0, 1.0, 7)


def _band(qi) -> tuple:
    return qi.p, qi.q, qi.sites.tobytes(), qi.weights.tobytes(), qi.lengths.tobytes()


def _system(system) -> tuple:
    return system.center, system.p, system.q, system.offsets, system.matrix.tobytes(), \
        system.rhs.tobytes()


# each integer argument: a call that takes it as v, and the int used
ARGUMENTS = {
    "make_clamped_knots m": (lambda v: make_clamped_knots(0, 1, [0.25, 0.5], v).t.tobytes(), 2),
    "generate_partition m": (
        lambda v: generate_partition(PartitionSpec("geometric", n=8, ratio=1.3), v).t.tobytes(), 2),
    "PartitionSpec.n": (
        lambda v: generate_partition(PartitionSpec("arithmetic", n=v, ratio=2.0), 3).t.tobytes(),
        2),
    "random seed": (
        lambda v: generate_partition(PartitionSpec("random", n=8, seed=v), 3).t.tobytes(), 2),
    "derivative order": (
        lambda v: (SPLINE(0.3, v), eval_spline(SPLINE, POINTS, v).tobytes()), 2),
    "qp2star p": (lambda v: _band(build_qp2star(SPACE, v)), 2),
    "nearbest p": (lambda v: _band(build_nearbest_qi(SPACE, v, 2)), 2),
    "nearbest q": (lambda v: _band(build_nearbest_qi(SPACE, 3, v)), 2),
    "stencil index": (lambda v: build_q2star(SPACE).stencil(v)[:2], 2),
    "assemble index": (lambda v: _system(assemble_constraints(SPACE, v, 2, 2)), 2),
    "assemble p": (lambda v: _system(assemble_constraints(SPACE, 5, v, 2)), 2),
    "assemble q": (lambda v: _system(assemble_constraints(SPACE, 5, 2, v)), 2),
    "assemble offsets": (
        lambda v: _system(assemble_constraints(SPACE, 5, 2, 2, offsets=(-1, 0, 1, v))), 2),
    "knot_condition p": (lambda v: knot_condition(SPACE, 5, v), 2),
    "watson_certificate index": (lambda v: watson_certificate(SPACE, v, 2), 2),
    "build_watson_form p": (lambda v: build_watson_form(SPACE, 5, v).lambda_star.tobytes(), 2),
    "basis column": (
        lambda v: solve_standard_form(np.eye(3), np.ones(3), np.ones(3), [0, 1, v]).x.tobytes(), 2),
}


@pytest.mark.parametrize("cast", [np.int32, np.int64, np.intp], ids=["int32", "int64", "intp"])
@pytest.mark.parametrize("name", ARGUMENTS)
def test_a_numpy_integer_gives_the_bytes_of_its_int(name, cast):
    call, value = ARGUMENTS[name]
    assert call(cast(value)) == call(value)


@pytest.mark.parametrize("bad", [True, 2.0, "2", None], ids=repr)
@pytest.mark.parametrize("name", ARGUMENTS)
def test_anything_else_is_refused(name, bad):
    call, _ = ARGUMENTS[name]
    with pytest.raises(ValueError):
        call(bad)


def test_a_numpy_p_and_q_hit_the_band_of_their_ints():
    space = space_from("random", m=3, n=20, seed=4)
    first = build_nearbest_qi(space, 3, 2)
    again = build_nearbest_qi(space, np.int64(3), np.int32(2))
    assert again.weights is first.weights and again.sites is first.sites
    assert type(again.p) is int and type(again.q) is int
    # the memo is keyed by Python ints only: the band under (p, q)
    assert [tuple(map(type, key)) for key in space._memo] == [(int, int)]


def test_refusals_name_the_argument():
    spec = PartitionSpec("random", seed=1.5)
    with pytest.raises(ValueError, match=r"^the random family needs an integer seed, got 1\.5$"):
        generate_partition(spec, 2)
    with pytest.raises(ValueError, match=r"^need n >= 1 subintervals, got True$"):
        generate_partition(PartitionSpec("uniform", n=True), 2)
    with pytest.raises(ValueError, match=r"^degree must be an integer >= 1, got True$"):
        make_clamped_knots(0, 1, [0.5], True)
    for order in (True, 1.5, None):
        with pytest.raises(ValueError, match=rf"^derivative order must be an integer, got {order}"):
            SPLINE(0.3, order)
    # the seed of the other families is read by none of them
    assert generate_partition(PartitionSpec("uniform", seed=1.5), 2).n == 8
