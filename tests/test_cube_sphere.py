"""Cube boundary surface: unfolding geodesics, the twelve-candidate table,
diagonal and corner behavior, witness pairs, corner limits."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geoplan.cube_sphere import (
    FACES,
    CubePoint,
    _face_sequences,
    _Query,
    _unfold_path,
    candidate_path,
    containing_faces,
    corner_limit_geodesics,
    corner_limit_table,
    cube_corner_poset,
    cube_geodesics,
    diagonal_table,
    minimal_stable_k,
    opposite_face_table,
    rotate_point,
    rotate_trace,
    witness_sequences,
)
from geoplan.metric_core import (
    Polyline,
    is_geodesic,
    reparametrize_constant_speed,
    sup_distance_sq,
)
from geoplan.strat_cover import lower_bound

F = Fraction
H = F(1, 2)


def interior(rng: random.Random) -> Fraction:
    return F(rng.randrange(-29, 30), 60)


def exhaustive_geodesics(x: CubePoint, y: CubePoint, max_faces: int = 5):
    """Reference without pruning: unfold every face sequence, keep the
    admissible minimum, deduplicate by trace."""
    query = _Query(x, y)
    paths = [
        path
        for seq in _face_sequences(x.faces(), y.faces(), max_faces)
        if (path := _unfold_path(query, seq)) is not None
    ]
    best = min(p.squared_length for p in paths)
    minimal = sorted(
        (p for p in paths if p.squared_length == best),
        key=lambda c: (c.trace, len(c.face_sequence), c.face_sequence),
    )
    unique = {}
    for p in minimal:
        unique.setdefault(p.trace, p)
    return [(p.trace, p.squared_length) for p in unique.values()]


def assert_matches_exhaustive(x: CubePoint, y: CubePoint) -> None:
    geos = cube_geodesics(x, y)
    assert [(g.trace, g.squared_length) for g in geos] == exhaustive_geodesics(x, y)
    for g in geos:
        # the trace runs over the surface and is as long as the planar segment
        assert g.trace[0] == x.point and g.trace[-1] == y.point
        for p, q in zip(g.trace, g.trace[1:]):
            assert set(containing_faces(p)) & set(containing_faces(q))
        length = sum(math.dist(p, q) for p, q in zip(g.trace, g.trace[1:]))
        assert math.isclose(length, math.sqrt(g.squared_length), rel_tol=1e-9)


# Chart coordinates on cube edges (+-1/2), on the face midlines, and inside.
chart_coords = st.one_of(
    st.sampled_from([-H, H, F(0)]),
    st.fractions(min_value=-H, max_value=H, max_denominator=97),
)
surface_points = st.tuples(st.sampled_from(FACES), chart_coords, chart_coords)


class TestPoints:
    def test_face_membership(self):
        corner = CubePoint.from_space((-H, -H, -H))
        assert len(corner.faces()) == 3
        edge = CubePoint.from_space((-H, -H, F(0)))
        assert len(edge.faces()) == 2
        generic = CubePoint.make("z-", F(1, 5), F(1, 7))
        assert generic.faces() == ("z-",)

    def test_chart_round_trip(self):
        p = CubePoint.make("y+", F(1, 3), F(-1, 4))
        assert CubePoint.from_space(p.point) == p

    def test_off_surface_rejected(self):
        with pytest.raises(ValueError):
            containing_faces((F(0), F(0), F(0)))

    def test_unknown_face_rejected(self):
        with pytest.raises(ValueError):
            CubePoint.make("w+", F(0), F(0))


class TestGeodesics:
    def test_equal_points(self):
        p = CubePoint.make("x+", F(1, 3), F(1, 5))
        geos = cube_geodesics(p, p)
        assert len(geos) == 1
        assert geos[0].squared_length == 0

    def test_same_face_pair_is_direct(self):
        x = CubePoint.make("z-", F(-1, 4), F(0))
        y = CubePoint.make("z-", F(1, 4), F(1, 8))
        geos = cube_geodesics(x, y)
        assert len(geos) == 1
        assert geos[0].face_sequence == ("z-",)
        assert geos[0].squared_length == F(1, 4) + F(1, 64)

    def test_adjacent_face_unfolding(self):
        x = CubePoint.make("z-", F(0), F(-1, 4))
        y = CubePoint.make("y-", F(0), F(1, 4))
        geos = cube_geodesics(x, y)
        assert len(geos) == 1
        # unfolded offsets: 1/4 along the shared edge, 1/4 + 1/2 across it
        assert geos[0].squared_length == F(5, 8)
        assert geos[0].face_sequence == ("z-", "y-")

    def test_traces_stay_on_surface_and_cross_edges(self):
        rng = random.Random(13)
        for _ in range(20):
            x = CubePoint.make(rng.choice(FACES), interior(rng), interior(rng))
            y = CubePoint.make(rng.choice(FACES), interior(rng), interior(rng))
            for g in cube_geodesics(x, y):
                for p in g.trace:
                    assert containing_faces(p)
                # interior breakpoints are genuine edge crossings
                for p in g.trace[1:-1]:
                    assert len(containing_faces(p)) >= 2
                # the planar unfolding is a straight segment of the same length
                s, e = g.planar_segment
                assert (e[0] - s[0]) ** 2 + (e[1] - s[1]) ** 2 == g.squared_length

    def test_same_face_trace_is_a_straight_geodesic(self):
        x = CubePoint.make("x-", F(-1, 3), F(1, 5))
        y = CubePoint.make("x-", F(1, 4), F(-1, 5))
        (g,) = cube_geodesics(x, y)
        poly = reparametrize_constant_speed(g.as_polyline())
        assert is_geodesic(poly, samples=8, tol=0)

    def test_max_faces_five_is_enough(self):
        rng = random.Random(17)
        for _ in range(10):
            x = CubePoint.make(rng.choice(FACES), interior(rng), interior(rng))
            y = CubePoint.make(rng.choice(FACES), interior(rng), interior(rng))
            a = [(g.trace, g.squared_length) for g in cube_geodesics(x, y, max_faces=5)]
            b = [(g.trace, g.squared_length) for g in cube_geodesics(x, y, max_faces=6)]
            assert a == b


    @settings(max_examples=250, deadline=None)
    @given(surface_points, surface_points)
    @example(("z-", -H, -H), ("z+", H, -H))
    @example(("x-", -H, -H), ("x+", H, H))
    def test_best_first_matches_exhaustive_unfolding(self, a, b):
        x, y = CubePoint.make(*a), CubePoint.make(*b)
        if x.point == y.point:
            return
        assert_matches_exhaustive(x, y)

    def test_mid_path_corner_pass_is_rejected(self):
        # x on the x-/y- edge, y a cube corner: unfolded over (y-, z-) the
        # segment runs along the strip boundary through the corner (-H, -H, -H)
        x = CubePoint.make("y-", F(1, 6), -H)
        y = CubePoint.make("y+", -H, H)
        assert _unfold_path(_Query(x, y), ("y-", "z-")) is None

    def test_huge_coprime_denominators(self):
        dens = (10**12 + 39, 10**12 + 61, 10**12 - 11, 10**12 + 3)
        assert all(math.gcd(a, b) == 1 for i, a in enumerate(dens) for b in dens[i + 1:])
        rng = random.Random(31)
        cases = 0
        for face_x, face_y in (("z-", "z+"), ("z-", "x+"), ("y+", "y+"), ("x-", "y-")):
            for _ in range(6):
                u = [F(rng.randrange(-d // 2 + 1, d // 2), d) for d in dens]
                if cases % 3 == 1:
                    u[0] = rng.choice((-H, H))  # start on a cube edge
                x = CubePoint.make(face_x, u[0], u[1])
                y = CubePoint.make(face_y, u[2], u[3])
                assert_matches_exhaustive(x, y)
                cases += 1


class TestCandidateTable:
    def test_identity_between_lengths_and_normalized_forms(self):
        rng = random.Random(19)
        for _ in range(50):
            x = (interior(rng), interior(rng))
            y = (interior(rng), interior(rng))
            table = opposite_face_table(x, y)
            common = table.common_summand
            for lsq, n in zip(table.l_sq, table.n):
                assert lsq == 2 * n + common

    def test_argmin_matches_enumerated_geodesics(self):
        rng = random.Random(23)
        for _ in range(25):
            x = (interior(rng), interior(rng))
            y = (interior(rng), interior(rng))
            table = opposite_face_table(x, y)
            xp = CubePoint.make("z-", *x)
            yp = CubePoint.make("z+", *y)
            geos = cube_geodesics(xp, yp)
            assert table.min_squared_length() == geos[0].squared_length
            oracle = {g.trace for g in geos}
            from_table = {
                candidate_path(x, y, i).trace for i in table.argmin_indices()
            }
            assert from_table == oracle

    def test_candidate_index_bounds(self):
        with pytest.raises(ValueError):
            candidate_path((F(1, 5), F(1, 5)), (F(1, 5), F(1, 5)), 0)
        with pytest.raises(ValueError):
            candidate_path((F(1, 5), F(1, 5)), (F(1, 5), F(1, 5)), 13)


class TestSymmetricDiagonal:
    def test_quarter_point_normalized_values(self):
        z = F(1, 4)
        assert diagonal_table(z, z) == (
            F(0),
            F(3, 8),
            F(3, 8),
            F(0),
            F(9, 8),
            F(1, 8),
            F(0),
            F(3, 8),
            F(3, 8),
            F(0),
            F(1, 8),
            F(9, 8),
        )

    @pytest.mark.parametrize(
        "z", [F(1, 10), F(1, 7), F(1, 5), F(1, 4), F(1, 3), F(2, 5)]
    )
    def test_exactly_four_geodesics(self, z):
        x = (-z, -z)
        y = (z, -z)
        table = opposite_face_table(x, y)
        assert table.argmin_indices() == (1, 4, 7, 10)
        assert table.n == diagonal_table(z, z)
        geos = cube_geodesics(CubePoint.make("z-", *x), CubePoint.make("z+", *y))
        assert len(geos) == 4

    def test_quintile_point_squared_length(self):
        z = F(1, 5)
        geos = cube_geodesics(
            CubePoint.make("z-", -z, -z), CubePoint.make("z+", z, -z)
        )
        assert len(geos) == 4
        assert all(g.squared_length == F(104, 25) for g in geos)


class TestCornerPair:
    def test_six_geodesics_of_squared_length_five(self):
        p = CubePoint.from_space((-H, -H, -H))
        q = CubePoint.from_space((H, H, H))
        geos = cube_geodesics(p, q)
        assert len(geos) == 6
        assert all(g.squared_length == 5 for g in geos)
        midpoints = {g.trace[1] for g in geos}
        assert midpoints == {
            (-H, F(0), H),
            (-H, H, F(0)),
            (F(0), H, -H),
            (H, F(0), -H),
            (H, -H, F(0)),
            (F(0), -H, H),
        }

    def test_limit_labels_cover_each_geodesic_twice(self):
        limits = corner_limit_geodesics()
        table = corner_limit_table()
        assert sorted(limits) == ["D1", "D2", "D3", "D4", "D5", "D6"]
        hits = {label: 0 for label in limits}
        for (_family, _idx), label in table.items():
            hits[label] += 1
        assert set(hits.values()) == {2}

    def test_limit_table_spot_values(self):
        table = corner_limit_table()
        assert table[("A", 1)] == "D3"
        assert table[("A", 10)] == "D1"
        assert table[("B", 7)] == "D2"
        assert table[("C", 4)] == "D2"

    def test_family_a_limits_converge_at_known_rate(self):
        limits = corner_limit_geodesics()
        table = corner_limit_table()
        for idx in (1, 4, 7, 10):
            lim = reparametrize_constant_speed(Polyline(limits[table[("A", idx)]]))
            for a in (F(1, 10), F(1, 100)):
                cand = candidate_path((-H + a, -H + a), (H - a, -H + a), idx)
                poly = reparametrize_constant_speed(cand.as_polyline())
                assert sup_distance_sq(poly, lim) == 2 * a * a

    def test_corner_poset_bound(self):
        poset = cube_corner_poset()
        assert lower_bound(poset).lower_bound == 3


class TestWitnesses:
    def test_three_tier_argmin_chain(self):
        for i in (2, 3, 5):
            for j in (2, 4, 5):
                chain = witness_sequences(i, j, 1)
                by_label = {w.label: w for w in chain}
                assert by_label["four_path"].indices == (1, 4, 7, 10)
                assert by_label["two_path"].indices == (1, 4)
                assert by_label["one_path"].indices == (1,)

    def test_minimal_stable_k_is_one(self):
        for i in (2, 3, 5):
            for j in (2, 4, 5):
                assert minimal_stable_k(i, j) == 1


class TestRotation:
    def test_rotation_permutes_coordinates(self):
        assert rotate_point((F(1), F(2), F(3))) == (F(2), F(3), F(1))

    def test_geodesics_are_equivariant(self):
        rng = random.Random(29)
        for _ in range(10):
            x = CubePoint.make(rng.choice(FACES), interior(rng), interior(rng))
            y = CubePoint.make(rng.choice(FACES), interior(rng), interior(rng))
            direct = {
                rotate_trace(g.trace)
                for g in cube_geodesics(x, y)
            }
            rotated = {
                g.trace
                for g in cube_geodesics(
                    CubePoint.from_space(rotate_point(x.point)),
                    CubePoint.from_space(rotate_point(y.point)),
                )
            }
            assert direct == rotated
