"""Correctness checks that share no code with geoplan.

Every expected value is recomputed here from the generated input itself (not
from what the generator meant to produce): antipodal coordinates are counted
on the torus, the Klein bottle's deck orbit is scanned over a 5x5 window,
cube traces are checked against the surface and the straight-line distance,
and corner-poset sizes come from closed formulas.  A failed check raises
``CheckFailed``.
"""

from __future__ import annotations

import math
from fractions import Fraction

HALF = Fraction(1, 2)


class CheckFailed(AssertionError):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def frac_part(value: Fraction) -> Fraction:
    return value - math.floor(value)


# ---------------------------------------------------------------------------
# Flat torus
# ---------------------------------------------------------------------------

def torus_antipodal(x, y) -> int:
    return sum(1 for a, b in zip(x, y) if frac_part(b - a) == HALF)


def check_torus(x, y, geodesics, plan) -> None:
    k = torus_antipodal(x, y)
    expect(len(geodesics) == 2 ** k, f"{len(geodesics)} geodesics for {k} antipodal coordinates")
    shortest = sum(min(frac_part(b - a), 1 - frac_part(b - a)) ** 2 for a, b in zip(x, y))
    displacements = set()
    for g in geodesics:
        d = g.displacement
        expect(all(-HALF <= c <= HALF for c in d), "displacement beyond half a period")
        expect(all((a + c - b).denominator == 1 for a, b, c in zip(x, y, d)), "geodesic misses y")
        expect(g.squared_length == shortest, "geodesic is not minimal")
        displacements.add(tuple(d))
    expect(len(displacements) == len(geodesics), "repeated geodesic")
    expect(plan.count == 2 ** k and plan.domain == k, "planner count or domain")
    expect(tuple(plan.geodesic.displacement) in displacements, "planner chose a non-minimal path")


def check_torus_loop(permutation) -> None:
    expect(tuple(permutation) == (0, 1, 2, 3), "torus loop monodromy is not the identity")


# ---------------------------------------------------------------------------
# Klein bottle
# ---------------------------------------------------------------------------

def deck(a: int, b: int, p):
    """alpha^a beta^b with alpha(u, v) = (u + 1, 1 - v), beta(u, v) = (u, v + 1)."""
    u, v = p
    return (u + a, v + b) if a % 2 == 0 else (u + a, 1 - v - b)


def klein_project(p):
    u, v = p
    shift = math.floor(u)
    u -= shift
    if shift % 2:
        v = 1 - v
    return (u, frac_part(v))


def klein_scan(x, y):
    """Minimal squared distance from lift ``x`` to the orbit of ``y``, and how
    many of the 25 orbit points |a|, |b| <= 2 attain it."""
    best, count = None, 0
    for a in range(-2, 3):
        for b in range(-2, 3):
            p = deck(a, b, y)
            d = (p[0] - x[0]) ** 2 + (p[1] - x[1]) ** 2
            if best is None or d < best:
                best, count = d, 1
            elif d == best:
                count += 1
    return best, count


def check_klein(x, y, geodesics, plan) -> None:
    best, count = klein_scan(x, y)
    expect(1 <= len(geodesics) <= 4, f"{len(geodesics)} Klein geodesics")
    expect(len(geodesics) == count, f"stratum {len(geodesics)}, orbit scan says {count}")
    ends = set()
    for g in geodesics:
        expect(tuple(g.start_lift) == tuple(x), "geodesic does not start at x")
        expect(klein_project(g.end_lift) == tuple(y), "end lift does not project to y")
        expect(deck(g.deck.a, g.deck.b, y) == tuple(g.end_lift), "deck tag disagrees with end lift")
        expect(g.squared_length == best, "geodesic is not minimal")
        ends.add(tuple(g.end_lift))
    expect(len(ends) == len(geodesics), "repeated geodesic")
    expect(plan.count == count, "planner count")
    expect(tuple(plan.geodesic.end_lift) in ends, "planner chose a non-minimal path")


def check_klein_cut(x, graph) -> None:
    wedge = x[1] in (0, HALF)
    shape = [v.multiplicity for v in graph.vertices], len(graph.edges)
    expect(shape == (([4], 2) if wedge else ([3, 3], 3)), f"cut locus shape {shape}")
    for v in graph.vertices:
        expect(klein_scan(x, klein_project(v.point))[1] == v.multiplicity, "vertex multiplicity")
    for e in graph.edges:
        p0, p1 = e.points
        mid = ((p0[0] + p1[0]) / 2, (p0[1] + p1[1]) / 2)
        expect(klein_scan(x, klein_project(mid))[1] == 2, "edge interior is not a two-geodesic point")


def check_klein_loop(result) -> None:
    flipped = {lab: ("D" if lab[0] == "U" else "U") + lab[1] for lab in result.sheet_labels}
    expect(result.label_map() == flipped, f"glide loop monodromy {result.label_map()} is not the up/down swap")


# ---------------------------------------------------------------------------
# Cube surface
# ---------------------------------------------------------------------------

def shares_face(p, q) -> bool:
    return any(p[i] == q[i] and abs(p[i]) == HALF for i in range(3))


def check_cube(x3, y3, geodesics, corner: bool = False, same_face: bool = False) -> None:
    expect(len(geodesics) >= 1, "no geodesic")
    sq = geodesics[0].squared_length
    chord = sum((a - b) ** 2 for a, b in zip(x3, y3))
    expect(sq >= chord, "path shorter than the straight chord")
    traces = set()
    for g in geodesics:
        expect(g.squared_length == sq, "geodesics of unequal length")
        t = g.trace
        expect(tuple(t[0]) == tuple(x3) and tuple(t[-1]) == tuple(y3), "trace does not run from x to y")
        for p in t:
            expect(max(abs(c) for c in p) == HALF, "trace leaves the surface")
        for p, q in zip(t, t[1:]):
            expect(shares_face(p, q), "trace segment leaves its face")
        length = sum(math.dist(p, q) for p, q in zip(t, t[1:]))
        expect(math.isclose(length, math.sqrt(sq), rel_tol=1e-9, abs_tol=1e-12), "trace length")
        traces.add(tuple(map(tuple, t)))
    expect(len(traces) == len(geodesics), "repeated trace")
    if same_face:
        expect(len(geodesics) == 1 and sq == chord, "same-face pair is not the straight segment")
    if corner:
        expect(len(geodesics) == 6 and sq == 5, f"corner pair: {len(geodesics)} geodesics of length^2 {sq}")


def check_table(table, geodesics) -> None:
    expect(any(table.admissible), "no admissible candidate")
    expect(table.min_squared_length() == geodesics[0].squared_length, "table minimum differs from the unfolding")


# ---------------------------------------------------------------------------
# Posets
# ---------------------------------------------------------------------------

def check_corner_poset(n: int, poset, report) -> None:
    expect(len(poset.elements) == 3 ** n, "corner poset element count")
    expect(len(poset.covers) == 2 * n * 3 ** (n - 1), "corner poset cover count")
    check_bound(report, n)


def check_bound(report, expected) -> None:
    if expected is None:
        expect(not report.valid, "mutated document was accepted")
    else:
        expect(report.valid and report.lower_bound == expected,
               f"bound {report.lower_bound} (valid={report.valid}), expected {expected}")
