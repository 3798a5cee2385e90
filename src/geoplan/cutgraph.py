"""Cut-locus graph records, and the cut locus of a 2-D flat quotient read
off its Dirichlet cell.

A cut locus is reported as a small graph of named tuples: vertices with
their geodesic multiplicity, and edges whose interiors carry exactly two
geodesics.  Edge geometry is stored as an exact polyline in lifted
(unreduced) coordinates so that arcs wrapping around the space stay
straight; consumers reduce mod 1 when they need chart coordinates.

On R^2/Γ the cut locus of ``x`` is the projected boundary of its Dirichlet
cell, the plane points nearer the lift X of ``x`` than any other orbit
point.  The cell reads only the ``flat_torus.FlatPoint`` interface; the
graph also needs the deck element that ``locate`` names for each orbit
point, which a Klein-bottle point gives and a torus point does not (the
torus cut locus is ``flat_torus.torus_cut_locus``).  x and its
coset points go on one integer scale D (``metric_core.integer_points``), so
each orbit point D*Q and each bisector 2(Q - X).Z <= |Q|^2 - |X|^2 is
integer.  Cell vertices are homogeneous integer triples (x, y, w) standing
for (x/w, y/w) in scaled units, kept with w > 0 and gcd 1.  The graph is
read off them on integers too, by the point's ``locate``: its reduced point
groups the corners and its deck element tags the edges, so Fractions are
built only for what is returned, one pair per vertex class and per corner.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, isqrt
from typing import TYPE_CHECKING

from .metric_core import Polyline, integer_points

if TYPE_CHECKING:
    from .flat_torus import FlatPoint

__all__ = ["CutEdge", "CutLocusGraph", "CutVertex", "dirichlet_cell", "dirichlet_graph"]


class CutVertex(namedtuple("CutVertex", "point multiplicity")):
    """A cut-locus vertex with the number of geodesics reaching it."""

    __slots__ = ()


class CutEdge(
    namedtuple(
        "CutEdge",
        "start_vertex end_vertex points multiplicity gluing",
        defaults=(2, None),
    )
):
    """An open cut-locus arc between two vertices (indices into the vertex
    list), carried by an exact lifted polyline; interior points all have the
    same geodesic multiplicity (two, for the flat spaces here).

    ``gluing`` optionally names the identification that produces the second
    geodesic across this arc (e.g. a deck transformation tag).
    """

    __slots__ = ()

    def as_polyline(self) -> Polyline:
        return Polyline(self.points)


class CutLocusGraph(namedtuple("CutLocusGraph", "vertices edges", defaults=((),))):
    """Vertices plus arcs; ``loops`` are edges with equal endpoints."""

    __slots__ = ()

    def multiplicities(self) -> tuple[int, ...]:
        return tuple(v.multiplicity for v in self.vertices)


Point2 = tuple[Fraction, Fraction]
Corner = tuple[tuple[int, int, int], tuple[int, int] | None]


def _clip(
    polygon: list[Corner], q: tuple[int, int], nx: int, ny: int, offset: int
) -> list[Corner]:
    """Sutherland-Hodgman clip of a convex polygon by the half-plane
    ``nx*x + ny*y <= offset`` of the bisector of the orbit point ``q``.

    Each corner carries the orbit point whose bisector carries the edge
    leaving it (``None`` on the frame).  A segment ``C -> N`` with clip
    values ``a`` and ``b`` of opposite signs crosses the line at the
    homogeneous point ``b*C - a*N``.  Crossings are strict and the base lies
    strictly inside every half-plane, so no two consecutive corners are equal.
    The clip leaves one edge on its line and tags only that edge ``q``, so
    no two edges share a tag and every corner is a true corner.
    """
    vals = [nx * p[0] + ny * p[1] - offset * p[2] for p, _ in polygon]
    if all(val <= 0 for val in vals):
        return polygon
    out: list[Corner] = []
    n = len(polygon)
    for i in range(n):
        (cur, tag), (nxt, _) = polygon[i], polygon[(i + 1) % n]
        a, b = vals[i], vals[(i + 1) % n]
        if a < 0:
            out.append((cur, tag))
        elif a == 0:
            out.append((cur, q if b > 0 else tag))
        if (a < 0 < b) or (b < 0 < a):
            cx, cy, w = (b * c - a * m for c, m in zip(cur, nxt))
            g = gcd(cx, cy, w) if w > 0 else -gcd(cx, cy, w)
            out.append(((cx // g, cy // g, w // g), q if a < 0 else tag))
    return out


def _window(center: int, radius: int, start: int, step: int) -> range:
    """The integers ``start + m*step`` within ``radius`` of ``center``."""
    low = center - radius
    return range(low + (start - low) % step, center + radius + 1, step)


def _scaled_cell(x: FlatPoint) -> tuple[int, tuple[int, int], list[Corner]]:
    """:func:`dirichlet_cell` on integers: the scale ``d``, the lift of ``x``
    on it, and the corners as homogeneous triples, each tagged with its
    orbit point on ``d``."""
    d, ((bx, by), *scaled) = integer_points((x.coords, *x.cosets()))
    px, py = (p * d for p in x.periods)
    r2 = px * px + py * py
    axes = ((px, 0), (0, py))
    orbit = sorted(
        (qx, qy)
        for cx, cy in scaled
        for qx in _window(bx, isqrt(r2), cx, px)
        for qy in _window(by, isqrt(r2 - (qx - bx) ** 2), cy, py)
        if (qx - bx) ** 2 + (qy - by) ** 2 < px * abs(qx - bx) + py * abs(qy - by)
        or (abs(qx - bx), abs(qy - by)) in axes
    )
    polygon: list[Corner] = [
        ((bx + i * px, by + j * py, 1), None) for i, j in ((-1, -1), (1, -1), (1, 1), (-1, 1))
    ]
    base_norm = bx * bx + by * by
    for qx, qy in orbit:
        polygon = _clip(
            polygon, (qx, qy), 2 * (qx - bx), 2 * (qy - by), qx * qx + qy * qy - base_norm
        )
    return d, (bx, by), polygon


def _point(vx: int, vy: int, scale: int) -> Point2:
    return (Fraction(vx, scale), Fraction(vy, scale))


def dirichlet_cell(x: FlatPoint) -> list[tuple[Point2, Point2 | None]]:
    """Corners (counterclockwise) of the Dirichlet cell of the lift of ``x``,
    each tagged with the displacement from ``x`` to the orbit point whose
    bisector carries the edge leaving that corner.

    The orbit is the lattice translates of ``cosets()``, pruned to the
    points Q whose bisector meets the open box ``B = X +- (p1/2, p2/2)``
    for ``periods`` ``(p1, p2)``, plus the four axis translates
    ``X +- (p1, 0)``, ``X +- (0, p2)``, whose bisectors are B's sides and
    confine the cell to B.  With ``D = Q - X``, the bisector is the line
    ``D.(Z - X) = |D|^2 / 2``, at distance ``|D| / 2`` from X along D, and
    B's support in the direction D is ``(p1|Dx| + p2|Dy|) / 2``.  So the
    bisector meets the open box exactly when
    ``|D|^2 < p1|Dx| + p2|Dy|``, and otherwise its half-plane holds all of
    B and cannot cut the cell.  By Cauchy-Schwarz the kept points lie in
    the disc ``|D|^2 < p1^2 + p2^2``, whose lattice windows are scanned.
    The cell is clipped from the box ``X +- (p1, p2)``, whose corners (tag
    ``None``) the axis translates always cut, by the kept points in sorted
    ``(qx, qy)`` order.
    """
    d, (bx, by), polygon = _scaled_cell(x)
    return [
        (_point(vx, vy, w * d), tag and _point(tag[0] - bx, tag[1] - by, d))
        for (vx, vy, w), tag in polygon
    ]


def dirichlet_graph(x: FlatPoint) -> CutLocusGraph:
    """The cut locus of ``x`` read off its Dirichlet cell, on integers.

    The corners over one point are its minimal lifts.  As reduced
    homogeneous triples they share their ``w``: a deck element moves a
    corner by whole periods (and may flip it), which keeps the gcd.  So the
    reduced point ``r`` of ``x.locate`` on the scale ``w * d`` groups them
    into vertices whose multiplicity is the corner count, with one Fraction
    pair per vertex class.  Each edge is glued to the one tagged by the
    inverse of its deck element (the ``g`` of ``x.locate`` at its integer
    orbit point); of each pair the edge with the smaller element is emitted,
    in element order, with that element's ``tag`` as its gluing.

    Raises ``ValueError`` when ``x.locate`` names no deck elements, as on
    the torus.
    """
    d, _, cell = _scaled_cell(x)
    if not (4 <= len(cell) <= 6) or any(tag is None for _, tag in cell):
        tags = [tag for _, tag in dirichlet_cell(x)]
        raise RuntimeError(f"unexpected Dirichlet cell of {x.coords}: edge tags {tags}")
    decks = [x.locate(tag, d)[0] for _, tag in cell]
    if None in decks:
        raise ValueError(
            f"{type(x).__name__}.locate names no deck elements to glue the cell edges of"
            f" {x.coords}; the torus cut locus is flat_torus.torus_cut_locus"
        )

    classes: dict[tuple[int, ...], list[int]] = {}
    for i, ((vx, vy, w), _) in enumerate(cell):
        classes.setdefault((*x.locate((vx, vy), w * d)[1], w), []).append(i)
    vertex_of = {i: k for k, members in enumerate(classes.values()) for i in members}
    vertices = tuple(
        CutVertex(_point(u, v, w * d), len(members)) for (u, v, w), members in classes.items()
    )

    corners = [_point(vx, vy, w * d) for (vx, vy, w), _ in cell]
    n = len(cell)
    edges = []
    emitted = set()
    for i in sorted(range(n), key=decks.__getitem__):
        g, j = decks[i], (i + 1) % n
        if g.inverse() not in emitted:
            emitted.add(g)
            edges.append(CutEdge(vertex_of[i], vertex_of[j], (corners[i], corners[j]), 2, g.tag))
    return CutLocusGraph(vertices, tuple(edges))
