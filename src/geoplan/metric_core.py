"""Exact piecewise-linear path metrics.

Paths are polylines with rational vertices in a Euclidean chart of any
dimension and rational parameter breakpoints on [0, 1].  Every decision made
by this module (geodesic tests, sup-distance comparisons, reparametrization)
reduces to exact rational arithmetic on *squared* lengths; the one square
root, of a ratio of squared chord lengths in reparametrization, is taken only
where it is rational.

The exactness policy, concretely:

* squared chord lengths are always exact ``Fraction`` values;
* constant-speed parameters are the cumulative length fractions, exact
  rationals whenever all chord lengths have pairwise rational ratios -- which
  includes every collinear polyline, every flat lift and cut edge (one chord)
  and every cube trace (one straight unfolded segment); a polyline with an
  irrational ratio is refused rather than approximated;
* the geodesic test compares each chord's squared length with the squared
  endpoint distance times the squared parameter step, for exact equality, so
  it has no tolerance and evaluates no point off the breakpoints.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from math import isqrt, lcm
from typing import Iterable, Sequence

__all__ = [
    "Polyline",
    "chord_sq_lengths",
    "dist_sq",
    "integer_points",
    "is_geodesic",
    "reparametrize_constant_speed",
    "sqrt_exact",
    "sup_distance_sq",
]

Coords = tuple[Fraction, ...]


def _frac(x) -> Fraction:
    # An exact Fraction is immutable, so it is its own copy.
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError(f"refusing float {x!r}; pass Fraction, int or str")
    return Fraction(x)


def dist_sq(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """Exact squared Euclidean distance between two rational points."""
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    return sum(((p - q) * (p - q) for p, q in zip(a, b)), Fraction(0))


def integer_points(points: Sequence[Sequence[Fraction]]) -> tuple[int, list[tuple[int, ...]]]:
    """The lcm ``d`` of the coordinate denominators of ``points`` (ints have
    denominator 1), and each point times ``d`` as integers."""
    d = lcm(*(c.denominator for p in points for c in p))
    return d, [tuple(c.numerator * (d // c.denominator) for c in p) for p in points]


def sqrt_exact(x: Fraction) -> Fraction | None:
    """Rational square root of ``x`` if one exists, else ``None``."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    p, q = x.numerator, x.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Fraction(rp, rq)
    return None


class Polyline(namedtuple("Polyline", "vertices params")):
    """A piecewise-linear path: rational vertices plus parameter breakpoints,
    the named tuple ``(vertices, params)``, checked on construction.

    ``params`` must be strictly increasing rationals from 0 to 1, one per
    vertex (evenly spaced when omitted).  Consecutive vertices must differ,
    except for the constant path, which is represented by all-equal
    vertices.
    """

    __slots__ = ()

    def __new__(cls, vertices: Iterable[Sequence], params: Iterable | None = None):
        verts = tuple(tuple(_frac(c) for c in v) for v in vertices)
        if len(verts) < 2:
            raise ValueError("a polyline needs at least two vertices")
        dim = len(verts[0])
        if dim < 1 or any(len(v) != dim for v in verts):
            raise ValueError("vertices must share a positive dimension")
        if params is None:
            n = len(verts) - 1
            ps = tuple(Fraction(k, n) for k in range(n + 1))
        else:
            ps = tuple(_frac(t) for t in params)
        if len(ps) != len(verts):
            raise ValueError("need exactly one parameter per vertex")
        if ps[0] != 0 or ps[-1] != 1:
            raise ValueError("parameters must start at 0 and end at 1")
        if any(ps[i] >= ps[i + 1] for i in range(len(ps) - 1)):
            raise ValueError("parameters must be strictly increasing")
        constant = all(v == verts[0] for v in verts)
        if not constant and any(
            verts[i] == verts[i + 1] for i in range(len(verts) - 1)
        ):
            raise ValueError("repeated consecutive vertices (only the constant path may repeat)")
        return tuple.__new__(cls, (verts, ps))

    @property
    def dimension(self) -> int:
        return len(self.vertices[0])

    @property
    def is_constant(self) -> bool:
        return all(v == self.vertices[0] for v in self.vertices)

    def evaluate(self, t) -> Coords:
        """Exact point at parameter ``t`` in [0, 1]."""
        t = _frac(t)
        if not 0 <= t <= 1:
            raise ValueError("parameter outside [0, 1]")
        ps = self.params
        # the segment [ps[lo], ps[lo + 1]) holding t; t = 1 ends the last one
        lo = min(bisect_right(ps, t), len(ps) - 1) - 1
        a, b = self.vertices[lo], self.vertices[lo + 1]
        s = (t - ps[lo]) / (ps[lo + 1] - ps[lo])
        return tuple(x + s * (y - x) for x, y in zip(a, b))


def chord_sq_lengths(p: Polyline) -> tuple[Fraction, ...]:
    """Exact squared lengths of the chords of ``p``."""
    return tuple(
        dist_sq(p.vertices[i], p.vertices[i + 1]) for i in range(len(p.vertices) - 1)
    )


def reparametrize_constant_speed(p: Polyline) -> Polyline:
    """Same vertex sequence with parameters equal to cumulative length
    fractions.  The constant path is returned unchanged.

    Raises ``ValueError`` when two chords have an irrational length ratio,
    since the fractions are then irrational.
    """
    if p.is_constant:
        return p
    sq = chord_sq_lengths(p)
    # Each chord's length as an exact multiple of the first chord's.
    ratios = [sqrt_exact(s / sq[0]) for s in sq]
    if None in ratios:
        raise ValueError("chord lengths have an irrational ratio")
    total = sum(ratios)
    return Polyline(p.vertices, [Fraction(0), *(acc / total for acc in accumulate(ratios))])


def is_geodesic(p: Polyline) -> bool:
    """Test whether ``p`` runs at constant speed along a distance-realizing
    line in its chart: ``d(p(t), p(t')) = lambda * |t - t'|`` for all
    parameters, with ``lambda`` the endpoint distance.

    Only the breakpoints are checked: each chord must have squared length
    ``lambda^2 * (t[i+1] - t[i])^2``.  The chords then add up to the
    endpoint distance, and equality in the triangle inequality puts the
    vertices in order on one segment, so the test is exact: it compares
    squared distances and a straight segment passes regardless of
    irrational length.
    """
    lam_sq = dist_sq(p.vertices[0], p.vertices[-1])
    ps = p.params
    return all(
        s == lam_sq * (ps[i + 1] - ps[i]) ** 2 for i, s in enumerate(chord_sq_lengths(p))
    )


def sup_distance_sq(p: Polyline, q: Polyline) -> Fraction:
    """Exact squared sup distance between two polylines.

    Both paths are affine between merged breakpoints, where the squared
    distance is convex in the parameter, so its maximum is attained at a
    breakpoint; the max over the merged breakpoints is therefore the exact
    squared sup.
    """
    if p.dimension != q.dimension:
        raise ValueError("polylines live in different charts")
    grid = set(p.params) | set(q.params)
    return max(dist_sq(p.evaluate(t), q.evaluate(t)) for t in grid)
