"""Flat Klein bottle: deck group, geodesics, cut-locus dichotomy, planner,
glide-loop monodromy."""

import hashlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoplan.klein_bottle import (
    IDENTITY,
    DeckElement,
    KleinPoint,
    MonodromyResult,
    klein_cut_locus,
    klein_geodesics,
    klein_monodromy,
    klein_plan,
    klein_stratum,
)
from geoplan import cutgraph, klein_bottle
from geoplan.flat_torus import PlannerResult, TorusPoint, _end_lifts, _nearest_lifts
from geoplan.metric_core import dist_sq, integer_points
from geoplan.strat_cover import klein_s4_poset, lower_bound, validate_poset
from geoplan.verify import _KLEIN_POWERS, _orbit_minimizers, _orbit_window
from test_flat_torus import reference_loop_lifts, reference_track

F = Fraction
H = F(1, 2)


def core_pairs(x, y):
    return [(g.end_lift, g.deck) for g in klein_geodesics(x, y)]


def orbit_scan(base, y):
    """Brute-force oracle: the (end lift, deck element) pairs nearest to the
    plane point ``base`` over the deck orbit of ``y`` within window 3,
    sorted by end lift."""
    words = _orbit_window(y.coords, _KLEIN_POWERS, 3)
    nearest = _orbit_minimizers(base, [p for p, _ in words])
    return sorted((words[i][0], DeckElement(*words[i][1])) for i in nearest)


rationals = st.fractions(min_value=-2, max_value=2, max_denominator=64)


@st.composite
def basepoint_coordinate(draw):
    """A coordinate as given to ``KleinPoint.make``: negative or beyond
    [0, 1) as often as not, with small, ~10^6 or ~10^12 denominators, and
    sometimes as an unreduced fraction string."""
    d = draw(
        st.one_of(
            st.integers(1, 64),
            st.integers(10**6 - 50, 10**6 + 50),
            st.integers(10**12 - 50, 10**12 + 50),
        )
    )
    value = F(draw(st.integers(-3 * d, 3 * d)), d)
    if draw(st.booleans()):
        k = draw(st.integers(2, 9))
        return f"{value.numerator * k}/{value.denominator * k}"
    return value


special_second = st.sampled_from([0, H, -H, F(3, 2), 2, "-2/4", "6/4"])


class TestDeckGroup:
    def test_glide_squared_is_translation(self):
        alpha = DeckElement(1, 0)
        sq = alpha.compose(alpha)
        assert sq == DeckElement(2, 0)
        assert sq.apply((F(1, 3), F(1, 5))) == (F(7, 3), F(1, 5))

    def test_glide_conjugates_vertical_translation_to_inverse(self):
        alpha, beta = DeckElement(1, 0), DeckElement(0, 1)
        conj = alpha.compose(beta).compose(alpha.inverse())
        assert conj == beta.inverse()

    def test_inverse_and_identity(self):
        rng = random.Random(3)
        for _ in range(50):
            g = DeckElement(rng.randrange(-3, 4), rng.randrange(-3, 4))
            assert g.compose(g.inverse()) == IDENTITY
            assert g.inverse().compose(g) == IDENTITY

    def test_apply_compose_consistency(self):
        rng = random.Random(4)
        p = (F(2, 7), F(3, 11))
        for _ in range(50):
            g = DeckElement(rng.randrange(-3, 4), rng.randrange(-3, 4))
            h = DeckElement(rng.randrange(-3, 4), rng.randrange(-3, 4))
            assert g.compose(h).apply(p) == g.apply(h.apply(p))

    def test_tag(self):
        assert DeckElement(-1, 2).tag == "a-1b2"


class TestPoints:
    def test_horizontal_wrap_flips_vertical(self):
        assert KleinPoint.make((F(3, 2), F(1, 4))).coords == (H, F(3, 4))
        assert KleinPoint.make((F(2), F(1, 4))).coords == (F(0), F(1, 4))
        assert KleinPoint.make((F(-1, 2), F(1, 4))).coords == (H, F(3, 4))

    def test_reduce_lift_matches_deck_orbit(self):
        rng = random.Random(9)
        for _ in range(50):
            p = (F(rng.randrange(40), 40), F(rng.randrange(40), 40))
            base = KleinPoint.make(p)
            g = DeckElement(rng.randrange(-2, 3), rng.randrange(-2, 3))
            assert KleinPoint.make(g.apply(p)) == base


class TestGeodesics:
    def test_equal_points_single_constant_geodesic(self):
        x = KleinPoint.make((F(1, 4), F(1, 4)))
        geos = klein_geodesics(x, x)
        assert len(geos) == 1
        assert geos[0].squared_length == 0

    def test_four_geodesic_pair(self):
        x = KleinPoint.make((H, H))
        y = KleinPoint.make((0, 0))
        geos = klein_geodesics(x, y)
        assert len(geos) == 4
        assert all(g.squared_length == H for g in geos)
        assert sorted(g.displacement for g in geos) == [
            (-H, -H),
            (-H, H),
            (H, -H),
            (H, H),
        ]

    def test_stratum_matches_count(self):
        rng = random.Random(21)
        for _ in range(100):
            x = KleinPoint.make((F(rng.randrange(20), 20), F(rng.randrange(20), 20)))
            y = KleinPoint.make((F(rng.randrange(20), 20), F(rng.randrange(20), 20)))
            assert klein_stratum(x, y) == len(klein_geodesics(x, y))

    def test_geodesics_end_at_target(self):
        x = KleinPoint.make((F(1, 3), F(2, 7)))
        y = KleinPoint.make((F(9, 10), F(5, 7)))
        for g in klein_geodesics(x, y):
            assert g.start == x
            assert g.end == y
            assert KleinPoint.make(g.deck.apply(y.coords)) == y

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(rationals, rationals), st.tuples(rationals, rationals))
    def test_core_matches_orbit_scan_on_random_pairs(self, xc, yc):
        x, y = KleinPoint.make(xc), KleinPoint.make(yc)
        assert core_pairs(x, y) == orbit_scan(x.coords, y)

    def test_core_matches_orbit_scan_on_cut_locus(self):
        rng = random.Random(31)
        seen = set()
        for _ in range(40):
            x2 = rng.choice([F(0), H]) if rng.random() < 0.3 else F(rng.randrange(40), 40)
            x = KleinPoint.make((F(rng.randrange(40), 40), x2))
            graph = klein_cut_locus(x)
            targets = [v.point for v in graph.vertices]
            for edge in graph.edges:
                targets.append(edge.as_polyline().evaluate(F(rng.randrange(1, 10), 10)))
            for point in targets:
                y = KleinPoint.make(point)
                expected = orbit_scan(x.coords, y)
                assert core_pairs(x, y) == expected
                seen.add(len(expected))
        assert seen == {2, 3, 4}

    def test_core_matches_orbit_scan_from_unreduced_lifts(self):
        rng = random.Random(32)
        for _ in range(200):
            base = (F(rng.randrange(-64, 64), 32), F(rng.randrange(-32, 64), 32))
            y = KleinPoint.make((F(rng.randrange(16), 16), F(rng.randrange(16), 16)))
            d, b, found = _nearest_lifts(base, y.cosets(), y.periods)
            lifts = sorted(
                tuple(F(c, d) for c in end) for choices in found for end in _end_lifts(b, choices)
            )
            assert lifts == [p for p, _ in orbit_scan(base, y)]


class TestCutLocusDichotomy:
    def test_wedge_on_special_circles(self):
        for x2 in (F(0), H):
            x = KleinPoint.make((F(1, 3), x2))
            graph = klein_cut_locus(x)
            assert [v.multiplicity for v in graph.vertices] == [4]
            assert len(graph.edges) == 2
            assert all(e.multiplicity == 2 for e in graph.edges)

    def test_wedge_gluing_tags(self):
        graph = klein_cut_locus(KleinPoint.make((H, H)))
        assert {e.gluing for e in graph.edges} == {"a-1b0", "a0b-1"}

    def test_theta_off_special_circles(self):
        x = KleinPoint.make((H, F(3, 10)))
        graph = klein_cut_locus(x)
        assert sorted(v.multiplicity for v in graph.vertices) == [3, 3]
        assert len(graph.edges) == 3
        points = sorted(v.point for v in graph.vertices)
        assert points == [(F(3, 25), F(4, 5)), (F(22, 25), F(4, 5))]

    def test_vertex_multiplicities_match_geodesic_counts(self):
        rng = random.Random(41)
        for _ in range(25):
            x2 = F(rng.randrange(20), 20) if rng.random() < 0.7 else rng.choice([F(0), H])
            x = KleinPoint.make((F(rng.randrange(20), 20), x2))
            graph = klein_cut_locus(x)
            for v in graph.vertices:
                target = KleinPoint.make(v.point)
                assert len(klein_geodesics(x, target)) == v.multiplicity

    def test_edge_interiors_carry_two_geodesics(self):
        x = KleinPoint.make((H, F(3, 10)))
        graph = klein_cut_locus(x)
        for edge in graph.edges:
            poly = edge.as_polyline()
            target = KleinPoint.make(poly.evaluate(F(1, 3)))
            assert len(klein_geodesics(x, target)) == 2

    @settings(max_examples=150, deadline=None)
    @given(
        basepoint_coordinate(),
        st.one_of(special_second, basepoint_coordinate()),
    )
    def test_cut_locus_matches_orbit_scan(self, x1, x2):
        x = KleinPoint.make((x1, x2))
        graph = klein_cut_locus(x)
        expected = [4] if x.coords[1] in (0, H) else [3, 3]
        assert sorted(v.multiplicity for v in graph.vertices) == expected
        for v in graph.vertices:
            y = KleinPoint.make(v.point)
            assert len(orbit_scan(x.coords, y)) == v.multiplicity
        for edge in graph.edges:
            (p0, p1), (q0, q1) = edge.points
            mid = KleinPoint.make(((p0 + q0) / 2, (p1 + q1) / 2))
            assert len(orbit_scan(x.coords, mid)) == 2

    @settings(max_examples=100, deadline=None)
    @given(
        basepoint_coordinate(),
        st.one_of(special_second, basepoint_coordinate()),
    )
    def test_edges_lie_on_the_bisector_of_their_gluing(self, x1, x2):
        """Each edge's ends and midpoint are as far from the lift of ``x``
        as from its image under the deck element named by ``gluing``."""
        x = KleinPoint.make((x1, x2))
        for edge in klein_cut_locus(x).edges:
            a, b = map(int, re.fullmatch(r"a(-?\d+)b(-?\d+)", edge.gluing).groups())
            image = DeckElement(a, b).apply(x.coords)
            (p0, p1), (q0, q1) = edge.points
            for point in ((p0, p1), ((p0 + q0) / 2, (p1 + q1) / 2), (q0, q1)):
                assert dist_sq(point, x.coords) == dist_sq(point, image)

    @settings(max_examples=150, deadline=None)
    @given(
        basepoint_coordinate(),
        st.one_of(special_second, basepoint_coordinate()),
    )
    def test_scaled_cell_is_a_strictly_convex_tagged_polygon(self, x1, x2):
        cell = cutgraph.dirichlet_cell(KleinPoint.make((x1, x2)))
        assert len(cell) in (4, 6)
        assert all(g is not None for _, g in cell)
        points = [p for p, _ in cell]
        for i, q in enumerate(points):
            p, r = points[i - 1], points[(i + 1) % len(points)]
            turn = (q[0] - p[0]) * (r[1] - q[1]) - (q[1] - p[1]) * (r[0] - q[0])
            assert turn > 0

    @settings(max_examples=150, deadline=None)
    @given(
        basepoint_coordinate(),
        st.one_of(special_second, basepoint_coordinate()),
    )
    def test_cell_window_matches_a_wider_orbit(self, x1, x2):
        """The orbit cut to the box X +- (p1/2, p2/2) loses no cut:
        clipping against every coset translate with |i| <= 3, |j| <= 4
        periods, in the same sorted order and from the same outer box, gives
        the same corners and tags."""
        x = KleinPoint.make((x1, x2))
        (p1, p2), base = x.periods, x.coords
        orbit = sorted(
            (c[0] + i * p1, c[1] + j * p2)
            for c in x.cosets()
            for i in range(-3, 4)
            for j in range(-4, 5)
        )
        polygon = [
            ((base[0] + i * p1, base[1] + j * p2), None)
            for i, j in ((-1, -1), (1, -1), (1, 1), (-1, 1))
        ]
        for q in orbit:
            if q != base:
                polygon = clip_fractions(polygon, base, q)
        wide = [(p, q and (q[0] - base[0], q[1] - base[1])) for p, q in polygon]
        assert cutgraph.dirichlet_cell(x) == wide


def clip_fractions(polygon, base, q):
    """Clip a tagged convex polygon of Fraction points to the side of the
    bisector of ``base`` and ``q`` that holds ``base``, by the tagging rule
    of ``cutgraph._clip``."""
    nx, ny = 2 * (q[0] - base[0]), 2 * (q[1] - base[1])
    offset = q[0] ** 2 + q[1] ** 2 - base[0] ** 2 - base[1] ** 2
    vals = [nx * p[0] + ny * p[1] - offset for p, _ in polygon]
    if all(val <= 0 for val in vals):
        return polygon
    out = []
    for i, (cur, tag) in enumerate(polygon):
        nxt = polygon[(i + 1) % len(polygon)][0]
        a, b = vals[i], vals[(i + 1) % len(polygon)]
        if a < 0:
            out.append((cur, tag))
        elif a == 0:
            out.append((cur, q if b > 0 else tag))
        if (a < 0 < b) or (b < 0 < a):
            t = a / (a - b)
            cross = (cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1]))
            out.append((cross, q if a < 0 else tag))
    return out


def disc_cell(x):
    """The Dirichlet cell as it was clipped before the box cut: the same
    outer box clipped by every orbit point of the disc
    ``|Q - X|^2 <= p1^2 + p2^2``, in sorted order, with the same ``_clip``,
    read out as :func:`cutgraph.dirichlet_cell` reads its corners."""
    d, ((bx, by), *scaled) = integer_points((x.coords, *x.cosets()))
    px, py = (p * d for p in x.periods)
    orbit = sorted(
        (cx + i * px, cy + j * py)
        for cx, cy in scaled
        for i in range(-3, 4)
        for j in range(-4, 5)
        if 0 < (cx + i * px - bx) ** 2 + (cy + j * py - by) ** 2 <= px * px + py * py
    )
    polygon = [
        ((bx + i * px, by + j * py, 1), None) for i, j in ((-1, -1), (1, -1), (1, 1), (-1, 1))
    ]
    for qx, qy in orbit:
        offset = qx * qx + qy * qy - bx * bx - by * by
        polygon = cutgraph._clip(polygon, (qx, qy), 2 * (qx - bx), 2 * (qy - by), offset)
    return [
        ((F(vx, w * d), F(vy, w * d)), tag and (F(tag[0] - bx, d), F(tag[1] - by, d)))
        for (vx, vy, w), tag in polygon
    ]


def random_klein_basepoints(count):
    rng = random.Random(1500)
    return [(F(rng.randrange(97), 97), F(rng.randrange(89), 89)) for _ in range(count)]


class TestBoxCut:
    """The orbit cut to the points whose bisector meets the box
    X +- (p1/2, p2/2) clips the same cells as the whole disc did."""

    def test_cells_match_the_disc_clip(self):
        grid = [KleinPoint.make((F(i, 24), F(j, 24))) for i in range(24) for j in range(24)]
        klein = [KleinPoint.make(p) for p in random_klein_basepoints(1500)]
        rng = random.Random(300)
        torus = [
            TorusPoint.make((F(rng.randrange(-97, 98), 97), F(rng.randrange(-89, 90), 89)))
            for _ in range(300)
        ]
        points = grid + klein + torus
        assert len(points) == 2376
        for x in points:
            assert repr(cutgraph.dirichlet_cell(x)) == repr(disc_cell(x)), x

    def test_clip_budget_per_klein_cell(self, monkeypatch):
        points = [KleinPoint.make(p) for p in random_klein_basepoints(1500)]
        calls = []
        clip = cutgraph._clip

        def counting(*args):
            calls.append(None)
            return clip(*args)

        monkeypatch.setattr(cutgraph, "_clip", counting)
        for x in points:
            cutgraph.dirichlet_cell(x)
        cut = len(calls) / len(points)
        calls.clear()
        for x in points:
            disc_cell(x)
        # measured: 18.02 clips per cell by the disc, 10.48 by the box cut
        assert len(calls) / len(points) > 18
        assert cut < 11


def _pinned_basepoints():
    """All 576 points (i/24, j/24), then 40 seeded points for each of the
    denominators 97, 10^6 + 3 and 2^20 + 7, with values in [-3, 3] and every
    fourth one on a special circle (x2 = 0 or 1/2)."""
    points = [(F(i, 24), F(j, 24)) for i in range(24) for j in range(24)]
    rng = random.Random(97)
    for d in (97, 10**6 + 3, 2**20 + 7):
        for k in range(40):
            x1 = F(rng.randrange(-3 * d, 3 * d + 1), d)
            x2 = rng.choice([F(0), H]) if k % 4 == 0 else F(rng.randrange(-3 * d, 3 * d + 1), d)
            points.append((x1, x2))
    return points


# sha256 of the cut-locus reprs below, recorded when the cell was still
# clipped inside klein_bottle; any later flat space that reads the cut locus
# off a Dirichlet cell must keep these bytes.
PINNED_CUT_LOCUS_SHA256 = "6896d250b2ebf2971bbb94eaab5da1e33ed9058edbd131226cdcdda997d09861"


def test_cut_locus_graphs_match_the_pinned_digest():
    digest = hashlib.sha256()
    for point in _pinned_basepoints():
        digest.update(repr(klein_cut_locus(KleinPoint.make(point))).encode() + b"\n")
    assert digest.hexdigest() == PINNED_CUT_LOCUS_SHA256


class TestPlanner:
    def test_unique_pair_in_domain_zero(self):
        x = KleinPoint.make((F(1, 4), F(1, 4)))
        y = KleinPoint.make((F(1, 3), F(1, 4)))
        res = klein_plan(x, y)
        assert (res.domain, res.count, res.rule) == (0, 1, "unique")

    def test_two_geodesic_pair_off_circle(self):
        x = KleinPoint.make((H, H))
        y = KleinPoint.make((0, F(1, 4)))
        res = klein_plan(x, y)
        assert (res.domain, res.count, res.rule) == (1, 2, "right")
        assert res.geodesic.end_lift == (F(1), F(3, 4))

    def test_four_geodesic_pair_off_circle(self):
        x = KleinPoint.make((H, H))
        y = KleinPoint.make((0, 0))
        res = klein_plan(x, y)
        assert (res.domain, res.count, res.rule) == (3, 4, "up_right")
        assert res.geodesic.end_lift == (F(1), F(1))

    def test_domain_formula_and_membership(self):
        rng = random.Random(51)
        pairs = [
            ((F(1, 4), F(1, 4)), (F(1, 3), F(1, 4))),
            ((H, H), (0, F(1, 4))),
            ((0, H), (H, F(1, 4))),
            ((H, H), (0, 0)),
            ((0, H), (H, 0)),
        ]
        for _ in range(300):
            if rng.random() < 0.4:
                x1 = F(0)
            else:
                x1 = F(rng.randrange(1, 12), 12)
            x2 = rng.choice([F(0), H, F(rng.randrange(12), 12)])
            pairs.append(
                (
                    (x1, x2),
                    (F(rng.randrange(12), 12), F(rng.randrange(12), 12)),
                )
            )
        seen = set()
        for raw_x, raw_y in pairs:
            x, y = KleinPoint.make(raw_x), KleinPoint.make(raw_y)
            res = klein_plan(x, y)
            m = len(klein_geodesics(x, y))
            expected = 0 if m == 1 else (m if x.coords[0] == 0 else m - 1)
            assert res.domain == expected
            assert res.count == m
            assert res.geodesic.end == y
            seen.add(res.domain)
        assert seen == {0, 1, 2, 3, 4}

    #: One pair per domain, 0 to 4.
    DOMAIN_PAIRS = [
        ((F(1, 4), F(1, 4)), (F(1, 3), F(1, 4))),  # unique
        ((H, H), (0, F(1, 4))),                    # two, off circle
        ((0, H), (H, F(1, 4))),                    # two, on circle
        ((H, H), (0, 0)),                          # four, off circle
        ((0, H), (H, 0)),                          # four, on circle
    ]

    def test_five_domains_exhaust_plans(self):
        assert set(range(5)) == {
            klein_plan(KleinPoint.make(x), KleinPoint.make(y)).domain
            for x, y in self.DOMAIN_PAIRS
        }

    def test_plans_without_listing_the_geodesics(self, monkeypatch):
        """The planner chooses on the integer end lifts and builds only the
        geodesic it answers with, never the list of all of them."""
        pairs = [(KleinPoint.make(x), KleinPoint.make(y)) for x, y in self.DOMAIN_PAIRS]
        x = KleinPoint.make((F(1, 3), F(1, 5)))
        theta = [v.point for v in klein_cut_locus(x).vertices if v.multiplicity == 3]
        pairs += [(x, KleinPoint.make(p)) for p in theta]
        want = [klein_plan(x, y) for x, y in pairs]
        assert [r.count for r in want] == [1, 2, 2, 4, 4, 3, 3]

        def refuse(x, y):
            raise AssertionError("_flat_geodesics called")

        monkeypatch.setattr(klein_bottle, "_flat_geodesics", refuse)
        assert [klein_plan(x, y) for x, y in pairs] == want


def reference_klein_plan(x, y):
    """The planner with its four choice rules written out, as it was before
    the two- and four-geodesic rules became one lexicographic maximum."""
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


def planner_pairs():
    """The 8 x 8 grid of pairs; each grid basepoint with its cut vertices
    and the points k/8 along its cut edges; 3,000 seeded basepoints with
    their cut vertices and one point on one of their edges; and the
    basepoints with denominator 89 or 97 in every 11th column (x1 = 0 among
    them) with their three-geodesic cut vertices."""
    grid = [KleinPoint.make((F(i, 8), F(j, 8))) for i in range(8) for j in range(8)]
    pairs = [(x, y) for x in grid for y in grid]
    for x in grid:
        graph = klein_cut_locus(x)
        pairs += [(x, KleinPoint.make(v.point)) for v in graph.vertices]
        pairs += [
            (x, KleinPoint.make(e.as_polyline().evaluate(F(k, 8))))
            for e in graph.edges
            for k in range(1, 8)
        ]
    rng = random.Random(3000)
    for point in random_klein_basepoints(3000):
        x = KleinPoint.make(point)
        graph = klein_cut_locus(x)
        pairs += [(x, KleinPoint.make(v.point)) for v in graph.vertices]
        edge = rng.choice(graph.edges).as_polyline()
        pairs.append((x, KleinPoint.make(edge.evaluate(F(rng.randrange(1, 20), 20)))))
    for d in (89, 97):
        for i in range(0, d, 11):
            for j in range(d):
                x = KleinPoint.make((F(i, d), F(j, d)))
                pairs += [
                    (x, KleinPoint.make(v.point))
                    for v in klein_cut_locus(x).vertices
                    if v.multiplicity == 3
                ]
    return pairs


def test_planner_equals_the_four_rule_reference():
    """The planner chooses as the four rules did, with the same domain,
    count and rule label.  At the three-geodesic vertices the horizontal
    runs are ``a, a, 1 - a`` with ``3/8 <= a < 1/2``, so the longest run is
    the lift alone on its side of the 2/1 partition."""
    domains = [0] * 5
    for x, y in planner_pairs():
        got, want = klein_plan(x, y), reference_klein_plan(x, y)
        assert (got.domain, got.count, got.rule, got.geodesic) == (
            want.domain, want.count, want.rule, want.geodesic
        ), (x, y)
        if got.count == 3:
            runs = sorted(abs(g.displacement[0]) for g in klein_geodesics(x, y))
            a = runs[0]
            assert runs == [a, a, 1 - a] and F(3, 8) <= a < H, (x, y)
        domains[got.domain] += 1
    # 17,714 pairs, every domain met
    assert domains == [3424, 4595, 9183, 508, 4]


class TestMonodromy:
    @pytest.mark.parametrize("x2", [F(0), H])
    def test_glide_loop_swaps_up_down(self, x2):
        result = klein_monodromy(x2, steps=8)
        assert result.sheet_labels == ("DL", "UL", "DR", "UR")
        assert result.permutation == (1, 0, 3, 2)
        assert result.label_map() == {"DL": "UL", "UL": "DL", "DR": "UR", "UR": "DR"}

    def test_requires_enough_steps(self):
        with pytest.raises(ValueError):
            klein_monodromy(F(1, 2), steps=4)

    def test_integer_loop_matches_the_fraction_reference(self):
        # The reference decides both loops at every step count here.
        for x2 in (F(0), H):
            for steps in range(8, 41):
                _, expected = reference_glide_loop(x2, steps)
                assert klein_monodromy(x2, steps) == expected


def outcome(run):
    """``run()``'s result, or the type of the exception it raised."""
    try:
        return run()
    except Exception as exc:  # any type: the two sides must raise the same one
        return type(exc)


def reference_glide_loop(x2, steps):
    """The glide loop rebuilt in Fractions at every step: each step's
    nearest lifts, and the monodromy (or the error type) they give."""
    frames = []
    for j in range(steps + 1):
        t = F(j, steps)
        y = KleinPoint.make((t + H, x2 + H))
        frames.append(reference_loop_lifts((t, x2), y.cosets(), y.periods))

    # The loop closes by alpha beta^k with k = 1 - 2 x2: (u, v) -> (u + 1, 1 - v - k).
    closed = [(u + 1, 2 * x2 - v) for u, v in frames[0]]
    labels = tuple(("U" if v > x2 else "D") + ("R" if u > 0 else "L") for u, v in frames[0])
    return frames, outcome(lambda: MonodromyResult(reference_track(frames, closed), labels))


class TestLocalPoset:
    def test_s4_point_poset(self):
        poset = klein_s4_poset()
        assert validate_poset(poset) == ()
        report = lower_bound(poset)
        assert report.levels == 4
        assert report.lower_bound == 3


def test_displacements_respect_metric():
    x = KleinPoint.make((F(1, 5), F(2, 5)))
    y = KleinPoint.make((F(4, 5), F(1, 5)))
    for g in klein_geodesics(x, y):
        assert g.squared_length == dist_sq(g.start_lift, g.end_lift)
