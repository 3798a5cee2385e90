"""Exact path-metric primitives: polylines, speed profiles, sup distance."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geoplan.metric_core import (
    Polyline,
    chord_sq_lengths,
    dist_sq,
    integer_points,
    is_geodesic,
    reparametrize_constant_speed,
    sqrt_exact,
    sup_distance_sq,
)

F = Fraction


class TestPolyline:
    def test_default_params_are_uniform(self):
        p = Polyline([(0, 0), (1, 0), (1, 1)])
        assert p.params == (F(0), F(1, 2), F(1))

    def test_params_must_span_unit_interval(self):
        with pytest.raises(ValueError):
            Polyline([(0,), (1,)], params=[F(0), F(1, 2)])
        with pytest.raises(ValueError):
            Polyline([(0,), (1,), (2,)], params=[F(0), F(0), F(1)])

    def test_rejects_repeated_interior_vertex(self):
        with pytest.raises(ValueError):
            Polyline([(0, 0), (0, 0), (1, 1)])

    def test_constant_path_is_allowed(self):
        p = Polyline([(F(1, 3), F(2, 3)), (F(1, 3), F(2, 3))])
        assert p.is_constant
        assert chord_sq_lengths(p) == (0,)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            Polyline([(0.0, 0.0), (1.0, 1.0)])

    def test_evaluate_is_exact_interpolation(self):
        p = Polyline([(0, 0), (2, 0), (2, 2)], params=[0, F(1, 4), 1])
        assert p.evaluate(F(1, 8)) == (F(1), F(0))
        assert p.evaluate(F(1, 4)) == (F(2), F(0))
        assert p.evaluate(F(5, 8)) == (F(2), F(1))
        assert p.evaluate(1) == (F(2), F(2))
        q = Polyline([(0, 0), (2, 0), (2, 3), (5, 3)], params=[0, F(1, 5), F(1, 2), 1])
        assert [q.evaluate(t) for t in q.params] == list(q.vertices)
        assert q.evaluate(F(7, 20)) == (F(2), F(3, 2))


class TestSpeedProfile:
    def test_rational_ratio_chords_are_exact(self):
        p = Polyline([(0, 0), (3, 0), (3, 4)])
        assert reparametrize_constant_speed(p).params == (F(0), F(3, 7), F(1))

    def test_collinear_is_always_exact(self):
        p = Polyline([(0, 0), (1, 1), (3, 3)])
        assert reparametrize_constant_speed(p).params == (F(0), F(1, 3), F(1))

    def test_irrational_ratio_is_refused(self):
        p = Polyline([(0, 0), (1, 0), (2, 1)])
        with pytest.raises(ValueError, match="irrational"):
            reparametrize_constant_speed(p)

    def test_reparametrization_uses_length_fractions(self):
        p = Polyline([(0, 0), (3, 0), (3, 4)], params=[0, F(1, 2), 1])
        q = reparametrize_constant_speed(p)
        assert q.vertices == p.vertices
        assert q.params == (F(0), F(3, 7), F(1))

    def test_reparametrization_is_idempotent(self):
        p = Polyline([(0, 0), (3, 0), (3, 4)])
        q = reparametrize_constant_speed(p)
        assert reparametrize_constant_speed(q).params == q.params


class TestGeodesicPredicate:
    def test_straight_segment_passes_exactly(self):
        p = Polyline([(0, 0), (F(1, 3), F(2, 5))])
        assert is_geodesic(p)

    def test_constant_speed_collinear_passes(self):
        p = Polyline([(0, 0), (1, 1), (3, 3)], params=[0, F(1, 3), 1])
        assert is_geodesic(p)

    def test_bent_path_fails(self):
        p = Polyline([(0, 0), (3, 0), (3, 4)])
        assert not is_geodesic(p)

    def test_uneven_parametrization_fails(self):
        p = Polyline([(0, 0), (1, 1), (2, 2)], params=[0, F(1, 4), 1])
        assert not is_geodesic(p)

    def test_constant_speed_backtrack_fails(self):
        """Every chord runs at the endpoint speed, yet the path doubles back:
        the chords add up to more than the endpoint distance."""
        p = Polyline([(0, 0), (2, 0), (1, 0)], params=[0, F(2, 3), 1])
        assert not is_geodesic(p)

    def test_constant_path_passes(self):
        assert is_geodesic(Polyline([(F(1, 3), 2)] * 3))


class TestSupDistance:
    def test_zero_on_equal_paths(self):
        p = Polyline([(0, 0), (1, 1)])
        assert sup_distance_sq(p, p) == 0

    def test_diverging_segments(self):
        a = Polyline([(0, 0), (1, 0)])
        b = Polyline([(0, 0), (1, 1)])
        assert sup_distance_sq(a, b) == 1

    def test_merged_breakpoints_catch_interior_maximum(self):
        a = Polyline([(0, 0), (1, 0)])
        b = Polyline([(0, 0), (F(1, 2), F(1, 2)), (1, 0)])
        assert sup_distance_sq(a, b) == F(1, 4)

    def test_symmetry(self):
        a = Polyline([(0, 0), (1, 0)])
        b = Polyline([(0, F(1, 3)), (1, F(1, 5))])
        assert sup_distance_sq(a, b) == sup_distance_sq(b, a)

    def test_no_grid_point_exceeds_the_sup(self):
        a = Polyline([(0, 0), (1, 0)])
        b = Polyline([(0, 0), (F(1, 3), F(1, 2)), (1, 0)])
        sup = sup_distance_sq(a, b)
        grid = [F(k, 63) for k in range(64)]
        assert max(dist_sq(a.evaluate(t), b.evaluate(t)) for t in grid) <= sup


class TestSquareRoots:
    def test_sqrt_exact_on_perfect_square(self):
        assert sqrt_exact(F(4, 9)) == F(2, 3)
        assert sqrt_exact(F(0)) == 0

    def test_sqrt_exact_none_on_irrational(self):
        assert sqrt_exact(F(2)) is None
        assert sqrt_exact(F(1, 2)) is None

    def test_dist_sq(self):
        assert dist_sq((F(0), F(0)), (F(3), F(4))) == 25


def test_chord_sq_lengths():
    p = Polyline([(0, 0), (3, 0), (3, 4)])
    assert chord_sq_lengths(p) == (F(9), F(16))


class TestIntegerPoints:
    @given(
        st.lists(
            st.lists(st.fractions(max_denominator=10**6) | st.integers(-50, 50), max_size=4),
            max_size=5,
        )
    )
    def test_one_scale_for_all_points(self, points):
        d, scaled = integer_points(points)
        assert d == lcm(*(Fraction(c).denominator for p in points for c in p))
        assert len(scaled) == len(points)
        for p, q in zip(points, scaled):
            assert all(type(c) is int for c in q)
            assert [Fraction(c, d) for c in q] == list(p)

    def test_integer_points_stay_as_they_are(self):
        assert integer_points([(3, -2), (0, 7)]) == (1, [(3, -2), (0, 7)])
        assert integer_points([(F(1, 2), 3), (F(-1, 3), 0)]) == (6, [(3, 18), (-2, 0)])
