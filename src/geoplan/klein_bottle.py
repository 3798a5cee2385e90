"""Geodesics, cut loci, planner and monodromy on the flat Klein bottle.

The bottle is the square [0,1]^2 with (0, v) ~ (1, 1-v) and (u, 0) ~ (u, 1),
i.e. the quotient of the plane by the group generated by the glide
``alpha: (u,v) -> (u+1, 1-v)`` and the translation ``beta: (u,v) -> (u, v+1)``.
Geodesics between two points correspond to straight segments from a fixed
lift of the start to the deck orbit of the end; the minimizing ones realize
the least squared length over the orbit.  The translations ``alpha^2`` and
``beta`` span the lattice 2Z x Z, of index two in the deck group, so the
orbit of ``y`` is the union of the lattice translates of ``y`` and of
``alpha(y)``.  The minimizing lifts are therefore the nearest translates in
those two cosets (the torus rule with periods (2, 1)), keeping the coset
with the smaller distance, or both on a tie.

The cut locus of a basepoint is the projected boundary of its Dirichlet cell,
computed exactly by intersecting bisector half-planes with rational
arithmetic.  It is a wedge of two circles when the basepoint's second
coordinate is 0 or 1/2 and a theta-graph otherwise; the pair space
accordingly splits into strata ``S_1 .. S_4`` by geodesic count.  An optimal
planner uses five domains, and dragging a four-geodesic pair around the
glide loop permutes the geodesics nontrivially (the up/down swap), which is
the obstruction showing four domains cannot suffice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .cutgraph import CutEdge, CutLocusGraph, CutVertex
from .flat_torus import _nearest_translates
from .metric_core import Polyline, _frac, dist_sq
from .planning import (
    PlannerResult,
    loop_monodromy,
    permutation_cycles,
    permutation_order,
)
from .strat_cover import StratPoset, klein_s4_poset

__all__ = [
    "DeckElement",
    "IDENTITY",
    "KleinGeodesic",
    "KleinPoint",
    "MonodromyResult",
    "klein_cut_locus",
    "klein_geodesics",
    "klein_lift_orbit",
    "klein_local_poset",
    "klein_monodromy",
    "klein_plan",
    "klein_stratum",
]

_HALF = Fraction(1, 2)

#: Periods of the translation subgroup <alpha^2, beta> = 2Z x Z.
_PERIODS = (2, 1)

Point2 = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class DeckElement:
    """The deck transformation ``alpha^a . beta^b`` of the plane."""

    a: int
    b: int

    def apply(self, point) -> Point2:
        u, v = (_frac(c) for c in point)
        if self.a % 2 == 0:
            return (u + self.a, v + self.b)
        return (u + self.a, 1 - v - self.b)

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


@dataclass(frozen=True)
class KleinPoint:
    """A point of the bottle, reduced to the fundamental square [0,1)^2."""

    coords: Point2

    def __post_init__(self) -> None:
        if len(self.coords) != 2:
            raise ValueError("Klein points are two-dimensional")
        for c in self.coords:
            if not isinstance(c, Fraction):
                raise TypeError("coordinates must be Fractions; use KleinPoint.make")
            if not 0 <= c < 1:
                raise ValueError(f"coordinate {c} not reduced to [0, 1)")

    @classmethod
    def make(cls, values) -> "KleinPoint":
        u, v = (_frac(c) for c in values)
        return cls.reduce_lift((u, v))

    @classmethod
    def reduce_lift(cls, point) -> "KleinPoint":
        """Project a plane point to its fundamental-square representative."""
        u, v = (_frac(c) for c in point)
        shift = u.numerator // u.denominator
        u -= shift
        if shift % 2 == 1:
            v = 1 - v
        v -= v.numerator // v.denominator
        return cls((u, v))


@dataclass(frozen=True)
class KleinGeodesic:
    """A minimizing geodesic as a straight segment between lifts."""

    start_lift: Point2
    end_lift: Point2
    deck: DeckElement

    @property
    def squared_length(self) -> Fraction:
        return dist_sq(self.start_lift, self.end_lift)

    @property
    def displacement(self) -> Point2:
        return (
            self.end_lift[0] - self.start_lift[0],
            self.end_lift[1] - self.start_lift[1],
        )

    @property
    def start(self) -> KleinPoint:
        return KleinPoint.reduce_lift(self.start_lift)

    @property
    def end(self) -> KleinPoint:
        return KleinPoint.reduce_lift(self.end_lift)

    def point_at(self, t) -> KleinPoint:
        t = _frac(t)
        d = self.displacement
        return KleinPoint.reduce_lift(
            (self.start_lift[0] + t * d[0], self.start_lift[1] + t * d[1])
        )

    def lift(self) -> Polyline:
        return Polyline((self.start_lift, self.end_lift))


def klein_lift_orbit(
    y: KleinPoint, window: int
) -> tuple[tuple[DeckElement, Point2], ...]:
    """Orbit points ``alpha^a beta^b . y`` for |a|, |b| <= window.

    The deck group acts freely, so all points are distinct; the list is
    sorted by point for determinism.  The cut locus clips the Dirichlet cell
    against this orbit; geodesics use the two-coset rule instead.
    """
    if window < 1:
        raise ValueError("window must be a positive integer")
    out = []
    seen: set[Point2] = set()
    for a in range(-window, window + 1):
        for b in range(-window, window + 1):
            g = DeckElement(a, b)
            p = g.apply(y.coords)
            if p not in seen:
                seen.add(p)
                out.append((g, p))
    out.sort(key=lambda item: (item[1], item[0].a, item[0].b))
    return tuple(out)


def _minimal_lifts(base: Point2, y: KleinPoint) -> list[Point2]:
    """Lifts of ``y`` nearest to the plane point ``base`` (any lift, reduced
    or not), sorted: the nearest 2Z x Z translates of ``y`` and of
    ``alpha(y)``, from whichever coset comes closer (both on a tie)."""
    u, v = y.coords
    best = None
    lifts: list[Point2] = []
    for target in ((u, v), (u + 1, 1 - v)):
        choices = _nearest_translates(base, target, _PERIODS)
        d = sum(c[0] * c[0] for c in choices)
        if best is None or d < best:
            best, lifts = d, []
        if d == best:
            lifts.extend((base[0] + du, base[1] + dv) for du, dv in product(*choices))
    return sorted(lifts)


def _deck_to(y: KleinPoint, lift: Point2) -> DeckElement:
    """The deck element carrying the canonical lift of ``y`` to ``lift``."""
    u, v = y.coords
    a = int(lift[0] - u)
    return DeckElement(a, int(lift[1] - v if a % 2 == 0 else 1 - v - lift[1]))


def klein_geodesics(x: KleinPoint, y: KleinPoint) -> tuple[KleinGeodesic, ...]:
    """All minimizing geodesics from ``x`` to ``y``, sorted by end lift.

    The end lifts are the minimal lifts of ``y`` measured from the canonical
    lift of ``x``; each carries the deck element that produces it.  Between
    one and four geodesics exist.
    """
    return tuple(
        KleinGeodesic(x.coords, p, _deck_to(y, p))
        for p in _minimal_lifts(x.coords, y)
    )


def klein_stratum(x: KleinPoint, y: KleinPoint) -> int:
    """Stratum index in 1..4: the number of minimizing geodesics."""
    return len(klein_geodesics(x, y))


# ---------------------------------------------------------------------------
# Cut locus via exact half-plane intersection
# ---------------------------------------------------------------------------


def _clip(polygon: list[Point2], normal: Point2, offset: Fraction) -> list[Point2]:
    """Sutherland-Hodgman clip of a convex polygon by ``normal . z <= offset``."""
    if not polygon:
        return []
    out: list[Point2] = []
    n = len(polygon)
    for i in range(n):
        cur, nxt = polygon[i], polygon[(i + 1) % n]
        cur_val = normal[0] * cur[0] + normal[1] * cur[1] - offset
        nxt_val = normal[0] * nxt[0] + normal[1] * nxt[1] - offset
        if cur_val <= 0:
            out.append(cur)
        if (cur_val < 0 < nxt_val) or (nxt_val < 0 < cur_val):
            t = cur_val / (cur_val - nxt_val)
            out.append(
                (cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1]))
            )
    cleaned: list[Point2] = []
    for p in out:
        if not cleaned or cleaned[-1] != p:
            cleaned.append(p)
    if len(cleaned) > 1 and cleaned[0] == cleaned[-1]:
        cleaned.pop()
    return cleaned


def _cross(o: Point2, p: Point2, q: Point2) -> Fraction:
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def _dirichlet_cell(
    x_lift: Point2, orbit: tuple[tuple[DeckElement, Point2], ...]
) -> list[Point2]:
    """Vertices (counterclockwise) of the Dirichlet cell of ``x_lift``."""
    box = 1
    polygon: list[Point2] = [
        (x_lift[0] - box, x_lift[1] - box),
        (x_lift[0] + box, x_lift[1] - box),
        (x_lift[0] + box, x_lift[1] + box),
        (x_lift[0] - box, x_lift[1] + box),
    ]
    base_norm = x_lift[0] ** 2 + x_lift[1] ** 2
    for g, q in orbit:
        if g == IDENTITY:
            continue
        normal = (2 * (q[0] - x_lift[0]), 2 * (q[1] - x_lift[1]))
        offset = q[0] ** 2 + q[1] ** 2 - base_norm
        polygon = _clip(polygon, normal, offset)
    # Drop collinear chain points so that every remaining vertex is a true
    # corner where two distinct bisectors meet.
    cleaned: list[Point2] = []
    n = len(polygon)
    for i in range(n):
        if _cross(polygon[i - 1], polygon[i], polygon[(i + 1) % n]) != 0:
            cleaned.append(polygon[i])
    return cleaned


def klein_cut_locus(x: KleinPoint) -> CutLocusGraph:
    """Exact cut locus of ``x`` as a small graph.

    The Dirichlet cell of the lift of ``x`` is a square exactly when
    ``x2 in {0, 1/2}`` (projecting to a wedge of two circles with one
    four-geodesic vertex) and a hexagon otherwise (projecting to a
    theta-graph with two three-geodesic vertices).  Edge interiors always
    carry two geodesics; each edge records the deck gluing that produces the
    second one.
    """
    x_lift = x.coords
    orbit = klein_lift_orbit(x, 2)
    cell = _dirichlet_cell(x_lift, orbit)
    if not (4 <= len(cell) <= 6):
        raise RuntimeError(f"unexpected Dirichlet cell with {len(cell)} vertices")

    def equidistant_elements(v: Point2) -> list[DeckElement]:
        base = dist_sq(v, x_lift)
        return [g for g, q in orbit if g != IDENTITY and dist_sq(v, q) == base]

    # Group cell vertices into bottle points.
    classes: list[tuple[KleinPoint, list[int]]] = []
    for i, v in enumerate(cell):
        kp = KleinPoint.reduce_lift(v)
        for point, members in classes:
            if point == kp:
                members.append(i)
                break
        else:
            classes.append((kp, [i]))
    equidistant = [equidistant_elements(v) for v in cell]
    vertex_index = {}
    vertices = []
    for ci, (point, members) in enumerate(classes):
        mult = 1 + len(equidistant[members[0]])
        vertices.append(CutVertex(point.coords, mult))
        for m in members:
            vertex_index[m] = ci

    # Assign each cell edge its generating deck element.
    n = len(cell)
    edge_info: dict[tuple[int, int], DeckElement] = {}
    for i in range(n):
        shared = [g for g in equidistant[i] if g in equidistant[(i + 1) % n]]
        if len(shared) != 1:
            raise RuntimeError("cell edge does not lie on a unique bisector")
        edge_info[(i, (i + 1) % n)] = shared[0]

    # Pair each edge with its deck partner (generated by the inverse element)
    # and emit one representative per pair.
    edges = []
    emitted: set[str] = set()
    for (i, j), g in sorted(
        edge_info.items(), key=lambda item: (item[1].a, item[1].b)
    ):
        if g.inverse().tag in emitted:
            continue
        emitted.add(g.tag)
        edges.append(
            CutEdge(
                start_vertex=vertex_index[i],
                end_vertex=vertex_index[j],
                points=(cell[i], cell[j]),
                multiplicity=2,
                gluing=g.tag,
            )
        )
    return CutLocusGraph(tuple(vertices), tuple(edges))


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------


def klein_plan(x: KleinPoint, y: KleinPoint) -> PlannerResult:
    """Optimal five-domain planner.

    Domains: 0 for unique-geodesic pairs; then each count-``m`` stratum is
    split by whether ``x`` lies on the circle ``x1 = 0``, giving
    ``2(m-1) - 1`` for pairs off the circle and ``2(m-1)`` on it.  Choices:
    with two geodesics take the one going up when the lifts differ
    vertically, otherwise the one going right; with three take the unique
    one on the minority horizontal side; with four go up and to the right.
    """
    geos = klein_geodesics(x, y)
    m = len(geos)
    on_circle = x.coords[0] == 0
    if m == 1:
        return PlannerResult(0, 1, "unique", geos[0])
    domain = m if on_circle else m - 1
    if m == 2:
        d0, d1 = geos[0].displacement, geos[1].displacement
        if d0[0] == d1[0]:
            chosen = max(geos, key=lambda g: g.displacement[1])
            rule = "up"
        else:
            chosen = max(geos, key=lambda g: g.displacement[0])
            rule = "right"
        return PlannerResult(domain, m, rule, chosen)
    if m == 3:
        left = [g for g in geos if g.displacement[0] < 0]
        right = [g for g in geos if g.displacement[0] > 0]
        if len(left) + len(right) != 3 or not left or not right:
            raise RuntimeError("three-geodesic pair without a 2/1 horizontal split")
        minority = left if len(left) == 1 else right
        return PlannerResult(domain, m, "minority_side", minority[0])
    if m == 4:
        chosen = max(geos, key=lambda g: g.displacement)
        return PlannerResult(domain, m, "up_right", chosen)
    raise RuntimeError(f"unexpected geodesic count {m}")


# ---------------------------------------------------------------------------
# Monodromy around the glide loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonodromyResult:
    """Permutation of the four geodesics after one loop, with sheet labels
    (quadrant of the initial lift displacement) in tracking order."""

    permutation: tuple[int, ...]
    sheet_labels: tuple[str, ...]

    @property
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        return permutation_cycles(self.permutation)

    @property
    def order(self) -> int:
        return permutation_order(self.permutation)

    @property
    def is_identity(self) -> bool:
        return all(i == p for i, p in enumerate(self.permutation))

    def label_map(self) -> dict[str, str]:
        return {
            self.sheet_labels[i]: self.sheet_labels[self.permutation[i]]
            for i in range(len(self.permutation))
        }


def klein_monodromy(x2, steps: int) -> MonodromyResult:
    """Track the four geodesics around the loop ``x(t) = (t, x2)``.

    ``x2`` must be 0 or 1/2, so that the target ``y(t)`` (the four-geodesic
    vertex of the cut locus of ``x(t)``) exists for every ``t``.  Geodesics
    are continued by strictly-nearest lift matching between consecutive
    steps; ties raise with advice to refine.  The result is the up/down swap
    (a nontrivial permutation of order two), which rules out a continuous
    choice of geodesic on this stratum component.
    """
    x2 = _frac(x2)
    if x2 not in (Fraction(0), _HALF):
        raise ValueError("the four-geodesic loop requires x2 in {0, 1/2}")

    def lifts_at(j: int) -> list[Point2]:
        t = Fraction(j, steps)
        return _minimal_lifts((t, x2), KleinPoint.make((t + _HALF, x2 + _HALF)))

    # Identify the final frame with the initial one: the lift of x has moved
    # by the deck element carrying (0, x2) to (1, x2).
    g_loop = DeckElement(1, int(1 - 2 * x2))
    permutation = loop_monodromy(lifts_at, steps, g_loop.apply)
    labels = tuple(
        ("U" if p[1] > x2 else "D") + ("R" if p[0] > 0 else "L")
        for p in lifts_at(0)
    )
    return MonodromyResult(permutation, labels)


def klein_local_poset(kind: str) -> StratPoset:
    """Local stratified-covering poset data; ``kind`` selects the pair type
    (only four-geodesic pairs carry one here)."""
    if kind != "S4_point":
        raise ValueError(f"unknown local poset kind {kind!r}")
    return klein_s4_poset()
