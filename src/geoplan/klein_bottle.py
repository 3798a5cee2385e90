"""Geodesics, cut loci, planner and monodromy on the flat Klein bottle.

The bottle is the square [0,1]^2 with (0, v) ~ (1, 1-v) and (u, 0) ~ (u, 1),
i.e. the quotient of the plane by the group generated by the glide
``alpha: (u,v) -> (u+1, 1-v)`` and the translation ``beta: (u,v) -> (u, v+1)``.
Geodesics between two points correspond to straight segments from a fixed
lift of the start to the deck orbit of the end; the minimizing ones realize
the least squared length over the orbit.  The translations ``alpha^2`` and
``beta`` span the lattice 2Z x Z, of index two in the deck group, so the
orbit of ``y`` is the union of the lattice translates of ``y`` and of
``alpha(y)``.  :class:`KleinPoint` is therefore a ``flat_torus.FlatPoint``
with periods (2, 1) and those two coset points, and the geodesics are the
shared ``FlatGeodesic`` records of the flat-quotient lift rule: the nearest
translates in the closer coset, or in both on a tie, each tagged with the
:class:`DeckElement` that :meth:`KleinPoint.locate` reads off its end lift.

The cut locus of a basepoint is the projected boundary of its Dirichlet cell,
clipped exactly from bisector half-planes by ``cutgraph.dirichlet_graph``
through the same ``FlatPoint`` interface.  The cut locus is a wedge of two
circles when the basepoint's second coordinate is 0 or 1/2 and a
theta-graph otherwise; the pair space accordingly splits into strata
``S_1 .. S_4`` by geodesic count.  An optimal planner uses five domains
and answers with the shared ``flat_torus.PlannerResult``.  Dragging a
four-geodesic pair around the glide loop swaps its geodesics up and down,
the obstruction showing four domains cannot suffice.  The swap is the
closing glide acting on the lifts, which the loop moves rigidly
(``flat_torus._loop_permutation``), so it does not depend on ``steps``.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .cutgraph import CutLocusGraph, dirichlet_graph
from .flat_torus import (
    FlatGeodesic,
    FlatPoint,
    PlannerResult,
    _check_pair,
    _end_lifts,
    _flat_geodesics,
    _loop_permutation,
    _nearest_lifts,
)
from .metric_core import _frac

__all__ = [
    "DeckElement",
    "IDENTITY",
    "KleinPoint",
    "MonodromyResult",
    "klein_cut_locus",
    "klein_geodesics",
    "klein_monodromy",
    "klein_plan",
    "klein_stratum",
]

_HALF = Fraction(1, 2)

Point2 = tuple[Fraction, Fraction]


class DeckElement(namedtuple("DeckElement", "a b")):
    """The deck transformation ``alpha^a . beta^b`` of the plane: the named
    tuple ``(a, b)``, ordered as that tuple."""

    __slots__ = ()

    def apply(self, point) -> Point2:
        return self.apply_scaled(tuple(map(_frac, point)), 1)

    def apply_scaled(self, point: tuple[int, int], scale: int) -> tuple[int, int]:
        """The action on the point ``point / scale``, on the same scale: a
        glide (odd ``a``) flips v."""
        u, v = point
        if self.a % 2 == 0:
            return (u + self.a * scale, v + self.b * scale)
        return (u + self.a * scale, (1 - self.b) * scale - v)

    def compose(self, other: "DeckElement") -> "DeckElement":
        """``self`` after ``other`` (apply ``other`` first)."""
        if other.a % 2 == 0:
            return DeckElement(self.a + other.a, self.b + other.b)
        return DeckElement(self.a + other.a, other.b - self.b)

    def inverse(self) -> "DeckElement":
        if self.a % 2 == 0:
            return DeckElement(-self.a, -self.b)
        return DeckElement(-self.a, self.b)

    @property
    def tag(self) -> str:
        return f"a{self.a}b{self.b}"


IDENTITY = DeckElement(0, 0)


class KleinPoint(FlatPoint):
    """A point of the bottle, reduced to the fundamental square [0,1)^2: the
    lattice 2Z x Z has two cosets in the deck group, those of y and
    alpha(y)."""

    __slots__ = ()

    #: Periods of the translation subgroup <alpha^2, beta> = 2Z x Z.
    periods = (2, 1)

    @staticmethod
    def locate(lift, scale: int) -> tuple[DeckElement, tuple[int, int]]:
        """``(g, r)`` with ``lift = g(r)`` on ``scale``, ``r`` in the fundamental
        square: ``g = alpha^a . beta^b``, ``a`` the whole turns in u, each of
        which crosses the glide and flips v, and ``b`` the turns in v after."""
        u, v = lift
        a, u = divmod(u, scale)
        b, v = divmod(scale - v if a % 2 else v, scale)
        return DeckElement(a, b), (u, v)

    def cosets(self) -> tuple[Point2, Point2]:
        u, v = self.coords
        return ((u, v), (u + 1, 1 - v))


def klein_geodesics(x: KleinPoint, y: KleinPoint) -> tuple[FlatGeodesic, ...]:
    """All minimizing geodesics from ``x`` to ``y``, sorted by end lift.

    The end lifts are the minimal lifts of ``y`` measured from the canonical
    lift of ``x``; each carries the deck element that produces it.  Between
    one and four geodesics exist.
    """
    return _flat_geodesics(x, y)


def klein_stratum(x: KleinPoint, y: KleinPoint) -> int:
    """Stratum index in 1..4: the number of minimizing geodesics."""
    return len(klein_geodesics(x, y))


def klein_cut_locus(x: KleinPoint) -> CutLocusGraph:
    """Exact cut locus of ``x``: its Dirichlet cell is a square (a wedge of
    two circles, one four-geodesic vertex) when ``x2 in {0, 1/2}`` and a
    hexagon (a theta-graph, two three-geodesic vertices) otherwise."""
    return dirichlet_graph(x)


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------


def klein_plan(x: KleinPoint, y: KleinPoint) -> PlannerResult:
    """Optimal five-domain planner.

    Domains: 0 for unique-geodesic pairs; then each count-``m`` stratum is
    split by whether ``x`` lies on the circle ``x1 = 0``, giving
    ``2(m-1) - 1`` for pairs off the circle and ``2(m-1)`` on it.  Choices:
    with three geodesics take the longest horizontal run, the unique one on
    the minority horizontal side; otherwise take the greatest displacement
    in lexicographic order, as ``torus_plan`` does ("up" or "right" by how
    the two lifts differ, "up_right" among four).

    The choice is made on the sorted integer end lifts of
    ``klein_geodesics(x, y)``, which all start from one base, so the
    greatest displacement is the greatest end lift; only the chosen lift
    becomes a :class:`FlatGeodesic`, checked against half a period by its
    constructor and tagged by ``y.locate``.

    The three-geodesic pairs are the theta vertices, where the runs are
    ``a, a, 1 - a`` with ``3/8 <= a < 1/2``, so the longest run is the one
    lift on its own side.  Up to symmetry, put ``x`` at the origin and the
    vertex at ``(a, 1/2)``: on the bisector of ``x`` and ``beta(x)``, so
    two nearest lifts differ by ``beta`` and share the run ``a``.  The
    vertex is as far from ``x`` as from the glide neighbour at ``(1, d)``,
    whose vertical offset ``d`` is ``1 - 2 x2`` up to a whole turn, in
    ``(0, 1)`` as ``x2`` is neither 0 nor 1/2.  So
    ``2a = 3/4 + (1/2 - d)^2``.  A deck element moves ``u`` by a whole
    shift, so the third lift's run is the vertex's run from that
    neighbour, ``1 - a``.
    """
    _check_pair(x, y)
    d, b, found = _nearest_lifts(x.coords, y.cosets(), y.periods)
    ends = sorted(end for choices in found for end in _end_lifts(b, choices))
    m = len(ends)
    if m == 3:
        rule, end = "minority_side", max(ends, key=lambda e: abs(e[0] - b[0]))
    else:
        end = ends[-1]
        if m == 1:
            rule = "unique"
        elif m == 4:
            rule = "up_right"
        else:
            rule = "up" if ends[0][0] == ends[1][0] else "right"
    domain = 0 if m == 1 else m if x.coords[0] == 0 else m - 1
    displacement = tuple(Fraction(e - u, d) for e, u in zip(end, b))
    geodesic = FlatGeodesic(x, displacement, y.locate(end, d)[0])
    return PlannerResult(domain, m, rule, geodesic)


# ---------------------------------------------------------------------------
# Monodromy around the glide loop
# ---------------------------------------------------------------------------


class MonodromyResult(namedtuple("MonodromyResult", "permutation sheet_labels")):
    """Permutation of the four geodesics after one loop, with sheet labels
    (quadrant of the initial lift displacement) in tracking order."""

    __slots__ = ()

    def label_map(self) -> dict[str, str]:
        return {
            self.sheet_labels[i]: self.sheet_labels[self.permutation[i]]
            for i in range(len(self.permutation))
        }


def klein_monodromy(x2, steps: int) -> MonodromyResult:
    """Track the four geodesics around the loop ``x(t) = (t, x2)``.

    ``x2`` must be 0 or 1/2, so that the target ``y(t)`` (the four-geodesic
    vertex of the cut locus of ``x(t)``) exists for every ``t``.  The result
    is the up/down swap (a nontrivial permutation of order two), which rules
    out a continuous choice of geodesic on this stratum component.

    The pair moves by ``(t, 0)``, and that translation commutes with the
    deck group: ``alpha`` maps ``(u + t, v)`` to ``alpha(u, v) + (t, 0)``
    and ``beta`` moves only ``v``.  So the lifts at time ``t`` are the
    lifts at 0 moved by ``(t, 0)``, each staying on its sheet, and the swap
    is the closing glide ``alpha beta^k``, which mirrors ``v`` about ``x2``
    (``flat_torus._loop_permutation``).  The answer is the same for every
    ``steps >= 8``.
    """
    x2 = _frac(x2)
    if x2 not in (Fraction(0), _HALF):
        raise ValueError("the four-geodesic loop requires x2 in {0, 1/2}")

    y = KleinPoint.make((_HALF, x2 + _HALF))
    # Identify the final frame with the initial one: the lift of x has moved
    # by the deck element carrying (0, x2) to (1, x2).
    g_loop = DeckElement(1, int(1 - 2 * x2))
    scale, start, permutation = _loop_permutation(
        (Fraction(0), x2), y.cosets(), y.periods, steps, g_loop.apply_scaled
    )
    level = x2.numerator * scale // x2.denominator
    labels = tuple(("U" if v > level else "D") + ("R" if u > 0 else "L") for u, v in start)
    return MonodromyResult(permutation, labels)

