"""Stratum grids: the planners stay continuous on every pair whose
coordinates have denominator 4, nudged by ±δ inside the planner's domain.

The grid hits every stratum and every special line (x_i in {0, 1/2}, the
Klein circles); on the bottle each basepoint's cut vertices are added as
targets.  A nudge moves one coordinate by ±δ:

- on the torus, both ends along an antipodal coordinate (so it stays
  antipodal) and the basepoint alone along the others;
- on the bottle, either end alone.

Only nudges that keep the planner's domain are compared.

Why one nudge tests continuity.  Let ``L1 < L2`` be the least distance
from the lift of x to the orbit of y and the least one outside the nearest
set ``A``.  A nudge moves one end by δ, or both ends by the same vector, so
every orbit distance moves by at most δ.  With ``2δ < L2 - L1`` no orbit
point outside ``A`` can become nearest: the nudged geodesics are among the
continuations of those of ``A``, each ending at the same translate (the same
deck element) of the nudged y.  A kept nudge keeps the geodesic count:

- on the torus, the domain is the number of antipodal coordinates, and
  the count is 2 to that power;
- on the bottle, the domain is ``m`` on the circle x1 = 0 and ``m - 1`` off
  it (0 for one geodesic).  From a grid basepoint off the circle (x1 at
  least 1/4 from it) a nudge of δ < 1/4 that does not wrap cannot reach the
  circle, and a basepoint leaving it would need one more geodesic.

So the nudged pair has exactly the continuations of ``A``; it stays in the
pair's local branch.  A continuous planner picks the continuation of its
choice, whose ends move by at most δ.  Any other choice ends at least
``sqrt(Q) - δ`` away, ``Q`` the least squared distance between two end
lifts of ``A``, and ``2δ < sqrt(Q)`` makes that more than δ.  So a kept
nudge fails, its path more than δ from the pair's, exactly when the planner
jumps there.  The sweeps check both bounds on every grid pair.

Paths are compared modulo the group.  On the torus the nudged path starts at
the reduced nudged basepoint, and is shifted by the integer vector back to
the nudged lift.  On the bottle a nudge that wraps, leaving [0, 1) in some
coordinate, is skipped, so the nudged basepoint is its own canonical lift.
That costs cases only for a planner that reads where x lies: the x2 >= 1/2
swap below fails 4 nudges here, and 8 when the 172 kept wrapping nudges are
compared modulo the group as well.
"""

import itertools
from fractions import Fraction

import pytest

from geoplan import flat_torus, klein_bottle
from geoplan.flat_torus import TorusPoint, torus_geodesics
from geoplan.klein_bottle import KleinPoint, klein_cut_locus, klein_geodesics
from geoplan.metric_core import dist_sq
from geoplan.verify import _KLEIN_POWERS, _orbit_window

F = Fraction
H = F(1, 2)
DELTA = F(1, 1000)
DEN = 4
#: The torus sweep works on integers on one scale, on which δ is 1.
SCALE = 1000
STEP = 1
assert STEP == SCALE * DELTA


def torus_point(coords):
    return TorusPoint(tuple(F(c % SCALE, SCALE) for c in coords))


def on_scale(c):
    return c.numerator * (SCALE // c.denominator)


def apart(near, far, gap):
    """Whether ``sqrt(far) - sqrt(near) > gap``, exactly."""
    a = far - near - gap * gap
    return a > 0 and a * a > 4 * gap * gap * near


def check_margins(squared, nearest, delta=DELTA):
    """Assert both bounds of the module docstring for one grid pair, from
    the squared distances of its orbit points (``squared``, containing the
    least one outside the nearest set) and its nearest end lifts."""
    near = min(squared)
    far = min(s for s in squared if s != near)
    assert apart(near, far, 2 * delta)
    for p, q in itertools.combinations(nearest, 2):
        assert dist_sq(p, q) > (2 * delta) ** 2


def torus_margins(x, y):
    """Both bounds for the torus pair ``(x, y)``, integers on ``SCALE``.

    The squared distance to a translate of y is the sum over coordinates of
    ``(y_i - x_i + m_i)^2``, each ``m_i`` free: the nearest translates take
    a least offset in every coordinate, and the least one outside them takes
    the next offset in one coordinate."""
    squares, nearest = [], []
    for a, b in zip(x, y):
        offsets = [b - a + m * SCALE for m in range(-2, 3)]
        values = sorted({c * c for c in offsets})
        squares.append(values[:2])
        nearest.append([c for c in offsets if c * c == values[0]])
    near = sum(v[0] for v in squares)
    far = near + min(v[1] - v[0] for v in squares)
    check_margins([near, far], list(itertools.product(*nearest)), STEP)


def klein_margins(x, y):
    """Both bounds for the Klein pair ``(x, y)``, and δ below the distance
    from a basepoint off the circle x1 = 0 to the circle.  The orbit of y
    within three generator powers holds every orbit point within distance 2
    of x, and so the next-nearest one: its squared distance is below 4."""
    orbit = [p for p, _ in _orbit_window(y, _KLEIN_POWERS, 3)]
    squared = [dist_sq(x, p) for p in orbit]
    near = min(squared)
    assert min(s for s in squared if s != near) < 4
    check_margins(squared, [p for p, s in zip(orbit, squared) if s == near])
    if x[0] != 0:
        assert DELTA < min(x[0], 1 - x[0])


def lowest_index(plan):
    """The continuous mirror of the +1/2 rule: every tie goes to -1/2."""

    def mutant(x, y):
        return plan(x, y)._replace(geodesic=torus_geodesics(x, y)[0])

    return mutant


def flipped_at_one_half(plan):
    """+1/2 for x1 < 1/2 and -1/2 from x1 = 1/2 on: it jumps across x1 = 1/2
    (and across x1 = 0) in every domain with a tie."""

    def mutant(x, y):
        chosen = plan(x, y)
        if x.coords[0] < H:
            return chosen
        return chosen._replace(geodesic=torus_geodesics(x, y)[0])

    return mutant


def swapped_at_one_half(plan):
    """The other geodesic of a two-geodesic pair once x2 >= 1/2: it jumps
    across x2 = 1/2."""

    def mutant(x, y):
        chosen = plan(x, y)
        if chosen.count != 2 or x.coords[1] < H:
            return chosen
        (other,) = (g for g in klein_geodesics(x, y) if g != chosen.geodesic)
        return chosen._replace(geodesic=other)

    return mutant


def torus_sweep(n):
    """(kept nudges, failures) of ``flat_torus.torus_plan`` over the torus:n
    grid, compared on integers on ``SCALE``."""
    plan = flat_torus.torus_plan
    grid = list(itertools.product(range(0, SCALE, SCALE // DEN), repeat=n))
    kept = failed = 0
    for x, y in itertools.product(grid, grid):
        torus_margins(x, y)
        base = plan(torus_point(x), torus_point(y))
        end = [a + on_scale(c) for a, c in zip(x, base.geodesic.displacement)]
        antipodal = [(b - a) % SCALE == SCALE // 2 for a, b in zip(x, y)]
        for i, tau in itertools.product(range(n), (STEP, -STEP)):
            x2, y2 = list(x), list(y)
            x2[i] += tau
            if antipodal[i]:
                y2[i] += tau
            nudged = plan(torus_point(x2), torus_point(y2))
            if nudged.domain != base.domain:
                continue
            kept += 1
            # The nudged path starts at the reduced nudged basepoint: shift
            # it by the integer vector back to the nudged lift x2.
            start = [on_scale(c) for c in nudged.geodesic.start_lift]
            shift = [a - b for a, b in zip(x2, start)]
            disp = [on_scale(c) for c in nudged.geodesic.displacement]
            end2 = [a + k + c for a, k, c in zip(start, shift, disp)]
            if max(dist_sq(x, x2), dist_sq(end, end2)) > STEP**2:
                failed += 1
    return kept, failed


def klein_pairs():
    """The grid pairs, then each basepoint's cut vertices not on the grid."""
    grid = [(F(i, DEN), F(j, DEN)) for i in range(DEN) for j in range(DEN)]
    pairs = []
    for x in grid:
        locus = klein_cut_locus(KleinPoint(x))
        vertices = [KleinPoint.make(v.point).coords for v in locus.vertices]
        pairs += [(x, y) for y in grid + [v for v in vertices if v not in grid]]
    return pairs


def klein_sweep():
    """(domains of the grid pairs, kept nudges, failures) of
    ``klein_bottle.klein_plan``."""
    plan = klein_bottle.klein_plan
    domains = [0] * 5
    kept = failed = 0
    for x, y in klein_pairs():
        klein_margins(x, y)
        base = plan(KleinPoint(x), KleinPoint(y))
        domains[base.domain] += 1
        for end, i, tau in itertools.product((0, 1), (0, 1), (DELTA, -DELTA)):
            pair = [list(x), list(y)]
            pair[end][i] += tau
            if not 0 <= pair[end][i] < 1:
                continue
            nudged = plan(*(KleinPoint(tuple(p)) for p in pair))
            if nudged.domain != base.domain:
                continue
            kept += 1
            ends = zip(
                (base.geodesic.start_lift, base.geodesic.end_lift),
                (nudged.geodesic.start_lift, nudged.geodesic.end_lift),
            )
            if max(dist_sq(p, q) for p, q in ends) > DELTA**2:
                failed += 1
    return domains, kept, failed


# Kept nudges, and the failures of the flip, as the grid prototype of
# ROADMAP item 18 found them.
TORUS_CASES = {2: 1024, 3: 24576}
FLIP_FAILURES = {2: 56, 3: 1184}


@pytest.mark.parametrize("n", [2, 3])
def test_torus_plan_is_continuous_on_the_grid(n):
    assert torus_sweep(n) == (TORUS_CASES[n], 0)


@pytest.mark.parametrize("n", [2, 3])
def test_lowest_index_planner_is_continuous_on_the_grid(monkeypatch, n):
    monkeypatch.setattr(flat_torus, "torus_plan", lowest_index(flat_torus.torus_plan))
    assert torus_sweep(n) == (TORUS_CASES[n], 0)


@pytest.mark.parametrize("n", [2, 3])
def test_grid_catches_the_torus_flip_at_one_half(monkeypatch, n):
    monkeypatch.setattr(flat_torus, "torus_plan", flipped_at_one_half(flat_torus.torus_plan))
    assert torus_sweep(n) == (TORUS_CASES[n], FLIP_FAILURES[n])


def test_klein_plan_is_continuous_on_the_grid():
    assert klein_sweep() == ([160, 66, 34, 10, 2], 1372, 0)


def test_grid_catches_the_klein_swap_at_one_half(monkeypatch):
    monkeypatch.setattr(klein_bottle, "klein_plan", swapped_at_one_half(klein_bottle.klein_plan))
    assert klein_sweep() == ([160, 66, 34, 10, 2], 1372, 4)
