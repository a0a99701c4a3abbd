"""Quasi-interpolants: differential form and discrete stencil operators.

Two operator styles live here. The differential quasi-interpolant takes a
derivative oracle and produces the projector coefficients

    c_i = sum_l a_l(theta_i) D^l f(theta_i) / l!

where a_l are central moment coefficients of the knot window; it reproduces
every spline in the space. The discrete operators sample f only at Greville
points: a three-point stencil at offsets {-1, 0, 1} (or {-p, 0, p}) whose
weights are the unique quadratically exact combination

    mu_i(f) = f(theta_i) - tbar_i * [theta_{i-p}, theta_i, theta_{i+p}] f

with tbar_i the centered second moment of the window.

Boundary policy for stencil operators, whose extreme rows `_empty_band`
writes: the two extreme indices use pure point evaluation (exact there, the
window is a single repeated knot); any other index whose offsets would
leave the index set shifts its outer sites inward to the nearest available
ones and re-solves for exactness.
Interior here means every knot touched by the stencil's windows is simple,
which holds exactly for p + m - 1 <= i <= n - p; norm bounds are guaranteed
only on that range, and `norm_upper_bound` can restrict to it.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections import abc
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .bspline import SplineFunction, SplineSpace
from .knots import _integer

__all__ = [
    "KIND_DQI", "KIND_Q2STAR", "KIND_QP2STAR", "KIND_NEARBEST", "Stencil",
    "StencilView", "QuasiInterpolant", "apply_dqi", "build_q2star", "build_qp2star",
    "greville_samples", "apply_qi", "norm_upper_bound",
]

KIND_DQI = "dqi"
KIND_Q2STAR = "q2star"
KIND_QP2STAR = "qp2star"
KIND_NEARBEST = "nearbest"


def _pickled(record: tuple) -> tuple:
    """`__reduce__` of a NamedTuple holding arrays: its fields, unpickled by
    `_unpickled`, with which of them are read-only arrays."""
    read_only = tuple(isinstance(v, np.ndarray) and not v.flags.writeable for v in record)
    return _unpickled, (type(record), tuple(record), read_only)


def _unpickled(cls, fields: tuple, read_only: tuple):
    """The record of `_pickled`, whose arrays read-only on the pickled record
    are read-only again, with the same bytes."""
    for value, frozen in zip(fields, read_only):
        if frozen:
            value.setflags(write=False)
    return cls._make(fields)


class Stencil(NamedTuple):
    """Sampling functional mu_i(f) = sum_s weights[s] * f(theta[i + offsets[s]]).

    One row of an operator's band, as `QuasiInterpolant.stencil` reads it.
    ``boundary`` marks stencils whose knot windows touch the repeated end
    knots (including shifted and point-evaluation stencils); norm bounds are
    only asserted away from those.
    """

    i: int
    offsets: tuple[int, ...]
    weights: np.ndarray
    boundary: bool = False

    __reduce__ = _pickled


def _empty_band(dim: int, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sites, weights and lengths of a band: the extreme rows are the point
    evaluations of the boundary policy, and every other row is padding of
    the full width until it is written (its sites repeat its own index, so
    a gather stays in range, and its weights are 0)."""
    sites = np.empty((dim, width), dtype=np.intp)
    sites[...] = np.arange(dim)[:, None]
    weights = np.zeros((dim, width))
    weights[[0, -1], 0] = 1.0
    lengths = np.full(dim, width, dtype=np.intp)
    lengths[[0, -1]] = 1
    return sites, weights, lengths


@dataclass(frozen=True, eq=False)
class QuasiInterpolant:
    """Discrete quasi-interpolant stored as one padded weight band.

    Row i holds the functional of basis index i: ``sites[i, :lengths[i]]``
    are its Greville indices in increasing order and ``weights[i, :lengths[i]]``
    its weights; the rest of the row is padding with weight 0. The band's
    width is the widest row. ``q`` is the guaranteed polynomial exactness
    degree, ``p`` the offset radius. ``interior_lo``/``interior_hi`` bound the
    index range where no stencil window touches a repeated end knot.
    Near-best operators carry their per-index optimal l1 values and the
    interior max ``nu1_star``.
    """

    space: SplineSpace
    kind: str
    q: int
    p: int
    sites: np.ndarray
    weights: np.ndarray
    lengths: np.ndarray
    interior_lo: int
    interior_hi: int
    lp_values: tuple[float, ...] | None = None
    nu1_star: float | None = None

    def __post_init__(self) -> None:
        for band in (self.sites, self.weights, self.lengths):
            band.setflags(write=False)

    def __reduce__(self):
        # a pickled copy is rebuilt through the constructor: read-only again
        return type(self), tuple(getattr(self, f.name) for f in dataclasses.fields(self))

    def stencil(self, i: int) -> Stencil:
        """Row i of the band without its padding; the weights are a
        read-only view of the row. An index that is not an integer (Python
        or numpy, not bool) or lies outside 0..dim-1 is refused."""
        if type(i) is not int:
            i = _index(i)
        dim = len(self.lengths)
        if not 0 <= i < dim:
            raise ValueError(f"index {i} outside 0..{dim - 1}")
        return _band_row(self.sites, self.weights, self.lengths, self.interior_lo,
                         self.interior_hi, i)

    @functools.cached_property
    def stencils(self) -> StencilView:
        """Every row as a Stencil, through a view built on first access."""
        band = (self.sites, self.weights, self.lengths, self.interior_lo, self.interior_hi)
        return StencilView(band, range(len(self.lengths)))


def _band_row(sites, weights, lengths, interior_lo, interior_hi, i: int) -> Stencil:
    """Row i of a band as a Stencil; i is a Python int within the band."""
    length = lengths[i]
    return Stencil(
        i=i,
        offsets=tuple(int(s) - i for s in sites[i, :length]),
        weights=weights[i, :length],
        boundary=not interior_lo <= i <= interior_hi,
    )


class StencilView(abc.Sequence):
    """Read-only sequence of an operator's rows as Stencils, indexed as a
    tuple is: a negative index counts from the end, one past either end
    raises IndexError, and a slice is another view. Each row is built when
    it is read and not kept. The view holds the band's arrays and interior
    bounds, not the operator, so the operator that caches it makes no
    reference cycle."""

    __slots__ = ("_band", "_indices")
    __hash__ = None  # its rows hold arrays, as a tuple of them would

    def __init__(self, band: tuple, indices: range) -> None:
        self._band = band  # sites, weights, lengths, interior_lo, interior_hi
        self._indices = indices

    def __len__(self) -> int:
        return len(self._indices)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return StencilView(self._band, self._indices[key])
        try:
            i = self._indices[key]
        except IndexError:
            raise IndexError(f"stencil index {key} out of range") from None
        return _band_row(*self._band, i)

    def __iter__(self):
        band = self._band
        return (_band_row(*band, i) for i in self._indices)


def _index(i) -> int:
    """An index as a Python int (`knots._integer`)."""
    return _integer(i, f"index must be an integer, got {i!r}")


def _check_radius(p) -> int:
    """The offset radius p as a Python int >= 1 (`knots._integer`)."""
    return _integer(p, f"offset radius must be an integer >= 1, got {p!r}", 1)


def _check_exactness(space: SplineSpace, p: int, q) -> int:
    """The exactness degree q of a checked radius p as an int in 0..min(m, 2p)."""
    top = min(space.degree, 2 * p)
    refusal = f"need 0 <= q <= min(m, 2p) = {top}, got {q!r}"
    if (q := _integer(q, refusal, 0)) > top:
        raise ValueError(refusal)
    return q


def _interior_range(m: int, p: int, n: int) -> tuple[int, int]:
    # all knots touched by the stencil windows are simple exactly here
    return p + m - 1, n - p


DerivativeOracle = Callable[[float], Sequence[float]]


def _oracle_table(points: np.ndarray, oracle: DerivativeOracle, k: int) -> np.ndarray:
    """Rows f(x), f'(x), ..., f^(k)(x), one per point of a 1-D array, from
    an oracle called once per point with a Python float."""
    table = np.empty((len(points), k + 1))
    for i, x in enumerate(points.tolist()):
        derivs = np.asarray(oracle(x), dtype=float)
        if derivs.ndim != 1 or derivs.size < k + 1:
            raise ValueError(
                f"oracle must supply {k + 1} derivative values, got shape {derivs.shape}"
            )
        table[i] = derivs[: k + 1]
    return table


def _dqi_spline(space: SplineSpace, table: np.ndarray) -> SplineFunction:
    """The differential quasi-interpolant of the (dim, m+1) table of
    f, f', ..., f^(m) at the Greville sites. Raises ValueError where
    `SplineSpace.central_moments` overflow float64."""
    inv_fact = np.array([1.0 / math.factorial(l) for l in range(space.degree + 1)])
    return SplineFunction(space, np.vecdot(space.central_moments * inv_fact, table))


def apply_dqi(space: SplineSpace, oracle: DerivativeOracle) -> SplineFunction:
    """Differential quasi-interpolant from a derivative oracle.

    ``oracle(x)`` must return at least m+1 values (f(x), f'(x), ..., f^(m)(x));
    derivatives at points coinciding with knots follow the same one-sided
    convention as `eval_spline`, which makes the operator reproduce every
    spline in the space exactly.
    """
    return _dqi_spline(space, _oracle_table(space.greville, oracle, space.degree))


def _three_point_weights(theta: np.ndarray, tbar, i, jm, jp, out=None) -> np.ndarray:
    """Quadratically exact weights at sites (theta[jm], theta[i], theta[jp]).

    Scalar indices give the 3 weights; index arrays or slices give one row
    of 3 per entry, each rounded exactly as the scalar call would round it,
    written into ``out`` (rows, 3) if given. A window wider than 1e154, where
    a product of two gaps could overflow, divides by one gap at a time; the
    others divide by the product.
    """
    mid, low, high = theta[i], theta[jm], theta[jp]
    dm = mid - low
    dp = high - mid
    dd = high - low
    if out is None:
        out = np.empty(np.shape(dd) + (3,))
    left, centre, right = out[..., 0], out[..., 1], out[..., 2]
    with np.errstate(over="ignore"):  # the products of the wide windows are replaced
        np.divide(tbar, np.multiply(dd, dm, out=left), out=left)
        np.negative(left, out=left)
        np.divide(tbar, np.multiply(dp, dm, out=centre), out=centre)
        np.add(1.0, centre, out=centre)
        np.divide(tbar, np.multiply(dd, dp, out=right), out=right)
        np.negative(right, out=right)
    if np.maximum.reduce(dd, axis=None, initial=0.0) > 1e154:
        wide = np.stack([-tbar / dd / dm, 1.0 + tbar / dp / dm, -tbar / dd / dp], axis=-1)
        np.copyto(out, wide, where=np.expand_dims(dd > 1e154, -1))
    return out


def _build_radius_p(space: SplineSpace, p: int, kind: str) -> QuasiInterpolant:
    kv = space.knots
    dim = space.dimension
    # every interior tbar is positive for m >= 2; refuse one that underflows
    if space.centered_second[1:-1].min() < np.finfo(float).tiny:
        raise ValueError(f"the centered second moments of [{kv.a}, {kv.b}] underflow float64")
    lo, hi = _interior_range(kv.degree, p, kv.n)
    sites, weights, lengths = _empty_band(dim, 3)
    # rows 1 .. dim-2 take sites max(0, i-p), i, min(dim-1, i+p), written in place
    jm, jp = sites[1:-1, 0], sites[1:-1, 2]
    np.maximum(np.subtract(jm, p, out=jm), 0, out=jm)
    np.minimum(np.add(jp, p, out=jp), dim - 1, out=jp)
    inner = slice(1, dim - 1)
    _three_point_weights(space.greville, space.centered_second[inner], inner, jm, jp,
                         out=weights[inner])
    return QuasiInterpolant(
        space=space,
        kind=kind,
        q=2,
        p=p,
        sites=sites,
        weights=weights,
        lengths=lengths,
        interior_lo=lo,
        interior_hi=hi,
    )


def build_q2star(space: SplineSpace) -> QuasiInterpolant:
    """Three-point quadratically exact operator at offsets {-1, 0, 1}.

    Weights at index i are (-tbar/(d-(d-+d+)), 1 + tbar/(d-d+),
    -tbar/(d+(d-+d+))) with d- and d+ the Greville gaps around theta_i.
    Needs degree >= 2.
    """
    if space.degree < 2:
        raise ValueError("quadratic exactness needs degree >= 2")
    return _build_radius_p(space, 1, KIND_Q2STAR)


def build_qp2star(space: SplineSpace, p: int) -> QuasiInterpolant:
    """Wide three-point operator at offsets {-p, 0, p}, quadratically exact.

    For p >= m the interior operator norm is bounded by (m+1)/(m-1)
    independently of the partition; smaller p is refused, since no norm
    bound is guaranteed there.
    """
    if space.degree < 2:
        raise ValueError("quadratic exactness needs degree >= 2")
    p = _check_radius(p)
    if p < space.degree:
        raise ValueError(f"p={p} below degree {space.degree}: norm bound not guaranteed")
    return _build_radius_p(space, p, KIND_QP2STAR)


def _real_samples(samples) -> np.ndarray:
    """Samples as a float array; a complex array raises TypeError."""
    samples = np.asarray(samples)
    if samples.dtype.kind == "c":
        raise TypeError(f"samples must be real numbers, got dtype {samples.dtype}")
    return samples.astype(float, copy=False)


def greville_samples(space: SplineSpace, fn: Callable[[float], float]) -> np.ndarray:
    """Sample a function at all Greville abscissae, called once per point
    with a Python float. A Python complex value raises TypeError; a numpy
    complex scalar is cut to its real part, with a ComplexWarning."""
    theta = space.greville
    return np.fromiter(map(fn, theta.tolist()), float, len(theta))


def apply_qi(qi: QuasiInterpolant, samples: np.ndarray) -> SplineFunction:
    """Apply a stencil operator to Greville samples of f. Complex samples
    raise TypeError."""
    samples = _real_samples(samples)
    if samples.shape != (qi.space.dimension,):
        raise ValueError(
            f"need {qi.space.dimension} Greville samples, got {samples.shape}"
        )
    # one band column at a time: each row sums its terms left to right
    coeffs = np.zeros(qi.space.dimension)
    for col in range(qi.weights.shape[1]):
        term = samples[qi.sites[:, col]]
        term *= qi.weights[:, col]
        coeffs += term
    return SplineFunction(qi.space, coeffs)


def _row_l1(qi: QuasiInterpolant) -> np.ndarray:
    """l1 norm of every band row, rounded as numpy sums that row alone."""
    l1 = np.empty(qi.space.dimension)
    # zero padding would change numpy's pairwise summation order on rows of
    # 9 or more entries, so each row is summed at its own length; bincount
    # lists the lengths ascending, as np.unique would without importing numpy.ma
    for length in np.bincount(qi.lengths).nonzero()[0]:
        rows = qi.lengths == length
        l1[rows] = np.abs(qi.weights[rows, :length]).sum(axis=1)
    return l1


def norm_upper_bound(qi: QuasiInterpolant, interior_only: bool = False) -> float:
    """Max stencil l1 norm: an upper bound for the sup-norm of the operator.

    With ``interior_only`` the max runs over stencils whose windows avoid the
    repeated end knots; raises if that range is empty.
    """
    l1 = _row_l1(qi)
    if interior_only:
        if qi.interior_hi < qi.interior_lo:
            raise ValueError(
                f"no interior stencils for p={qi.p} on n={qi.space.knots.n} subintervals"
            )
        l1 = l1[qi.interior_lo : qi.interior_hi + 1]
    return float(l1.max())
