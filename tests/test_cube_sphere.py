"""Cube boundary surface: unfolding geodesics, the twelve-candidate table,
diagonal and corner behavior, witness pairs, corner limits."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geoplan.cube_sphere import (
    _FRAMES,
    FACES,
    CubePoint,
    UnfoldedPath,
    _face_sequences,
    _scaled_chart,
    _Query,
    _adjacent,
    _shared_edge,
    _unfold_path,
    candidate_path,
    corner_limit_geodesics,
    corner_limits,
    corner_pair,
    cube_geodesics,
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
from geoplan import cube_sphere, metric_core, strat_cover, verify
from geoplan.strat_cover import CUBE_CORNER_LIMITS, cube_corner_poset, lower_bound

F = Fraction
H = F(1, 2)


def interior(rng: random.Random) -> Fraction:
    return F(rng.randrange(-29, 30), 60)


def space_point(face: str, u, v) -> tuple[Fraction, Fraction, Fraction]:
    """The point with chart ``(u, v)`` in ``face``: half the face's doubled
    center plus ``u * eu + v * ev``."""
    n, eu, ev = _FRAMES[face]
    return tuple(F(n[i], 2) + F(u) * eu[i] + F(v) * ev[i] for i in range(3))


def faces_holding(p) -> tuple[str, ...]:
    """The faces whose closed square holds ``p``, coordinate by coordinate:
    all of them lie in [-1/2, 1/2], and the face's own one is +-1/2."""
    if any(abs(c) > H for c in p):
        return ()
    return tuple(f for f in FACES if p["xyz".index(f[0])] == (H if f[1] == "+" else -H))


def reference_geodesics(x: CubePoint, y: CubePoint):
    """Reference without pruning or integer keys: unfold every simple face
    sequence, keep the admissible minimum, sort those paths by
    ``(trace, len, seq)`` and keep the first of each trace.  The rows come
    from the single-face tables, which leave out no touch-only end face."""
    query = _Query(x, y)
    paths = [
        path
        for f in x.faces()
        for g in y.faces()
        for seq, *_ in _face_sequences((f,), (g,))
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
    return tuple(unique.values())


def exhaustive_geodesics(x: CubePoint, y: CubePoint):
    return [(p.trace, p.squared_length) for p in reference_geodesics(x, y)]


def assert_matches_exhaustive(x: CubePoint, y: CubePoint) -> None:
    geos = cube_geodesics(x, y)
    assert [(g.trace, g.squared_length) for g in geos] == exhaustive_geodesics(x, y)
    for g in geos:
        # the trace runs over the surface and is as long as the planar segment
        assert g.trace[0] == x.point and g.trace[-1] == y.point
        for p, q in zip(g.trace, g.trace[1:]):
            assert set(faces_holding(p)) & set(faces_holding(q))
        length = sum(math.dist(p, q) for p, q in zip(g.trace, g.trace[1:]))
        assert math.isclose(length, math.sqrt(g.squared_length), rel_tol=1e-9)


# Chart coordinates on cube edges (+-1/2), on the face midlines, and inside.
chart_coords = st.one_of(
    st.sampled_from([-H, H, F(0)]),
    st.fractions(min_value=-H, max_value=H, max_denominator=97),
)
surface_points = st.tuples(st.sampled_from(FACES), chart_coords, chart_coords)
# Strictly interior chart coordinates over small and large denominators.
interior_charts = st.sampled_from((*range(2, 41), 10**6 + 3, 2**20 + 7)).flatmap(
    lambda d: st.integers(-((d - 1) // 2), (d - 1) // 2).map(lambda n: F(n, d))
)


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

    def test_make_agrees_with_the_space_round_trip(self):
        grid = [-H, F(-1, 3), F(0), F(2, 7), F(10**12 - 1, 2 * 10**12 + 1), H]
        for face in FACES:
            for u in grid:
                for v in grid:
                    point = CubePoint.make(face, u, v)
                    assert point == CubePoint.from_space(space_point(face, u, v))
                    if abs(u) < H and abs(v) < H:
                        assert (point.face, point.u, point.v) == (face, u, v)
        for u, v in [(F(3, 5), F(0)), (F(0), F(-3, 5))]:
            with pytest.raises(ValueError):
                CubePoint.make("x+", u, v)

    def test_point_is_center_plus_chart_axes(self):
        charts = [
            (F(1, 3), F(-2, 7)),  # interior
            (0, 0),
            (F(0), -H),  # edge
            (H, 0),
            (-H, H),  # corner
            (H, -H),
        ]
        for face in FACES:
            for u, v in charts:
                point = CubePoint.make(face, u, v)
                expected = space_point(face, u, v)
                assert point.point == expected
                assert all(type(x) is Fraction for x in point.point)
                assert point.faces() == faces_holding(expected)

    def test_shared_edge_is_twice_the_edge_endpoints(self):
        pairs = [(f, g) for f in FACES for g in FACES if _adjacent(f, g)]
        assert len(pairs) == 24
        for f, g in pairs:
            # the edge is where both faces' fixed coordinates hold at once
            fixed = {"xyz".index(h[0]): H if h[1] == "+" else -H for h in (f, g)}
            ends = sorted(
                tuple(fixed.get(i, end) for i in range(3)) for end in (-H, H)
            )
            assert _shared_edge(f, g) == tuple(tuple(2 * c for c in e) for e in ends)

    def test_off_surface_rejected(self):
        # the center, and a point on the plane of y+ but outside the cube
        for p in [(F(0), F(0), F(0)), (F(1), H, F(0))]:
            with pytest.raises(ValueError, match="is not on the cube surface"):
                CubePoint.from_space(p)

    def test_unknown_face_rejected(self):
        with pytest.raises(ValueError):
            CubePoint.make("w+", F(0), F(0))

    def test_float_coordinates_rejected(self):
        with pytest.raises(TypeError, match="use CubePoint.make"):
            CubePoint("z-", 0.1, 0.2)
        with pytest.raises(TypeError, match="use CubePoint.make"):
            CubePoint("z-", F(1, 10), 0)
        with pytest.raises(TypeError, match="refusing float"):
            CubePoint.make("z-", 0.1, 0.2)


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
                    assert faces_holding(p)
                # interior breakpoints are genuine edge crossings
                for p in g.trace[1:-1]:
                    assert len(faces_holding(p)) >= 2
                # the planar unfolding is a straight segment of the same length
                s, e = g.planar_segment
                assert (e[0] - s[0]) ** 2 + (e[1] - s[1]) ** 2 == g.squared_length

    def test_same_face_trace_is_a_straight_geodesic(self):
        x = CubePoint.make("x-", F(-1, 3), F(1, 5))
        y = CubePoint.make("x-", F(1, 4), F(-1, 5))
        (g,) = cube_geodesics(x, y)
        poly = reparametrize_constant_speed(g.as_polyline())
        assert is_geodesic(poly)

    def test_every_simple_face_sequence_is_ranked(self):
        """The sequences never repeat a face, so none has more than six."""
        rows = [row for f in FACES for g in FACES for row in _face_sequences((f,), (g,))]
        assert len(rows) == 798
        assert len(_face_sequences(("z-",), ("z+",))) == 28
        lengths = [len(seq) for seq, *_ in rows]
        assert [lengths.count(n) for n in range(1, 7)] == [6, 24, 72, 168, 288, 240]
        for seq, first, last, closing in rows:
            assert len(set(seq)) == len(seq)
            assert all(_adjacent(f, g) for f, g in zip(seq, seq[1:]))
            assert (first, last) == (seq[0], seq[-1])
            # a quarter turn that puts the last face's center on an even point
            c, s, t0, t1 = closing
            assert c * c + s * s == 1 and t0 % 2 == t1 % 2 == 0

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
            # the typed forms N_i are verify's oracle of the unfolded lengths
            common = x[0] ** 2 + x[1] ** 2 + y[0] ** 2 + y[1] ** 2 + 4
            assert table.l_sq == tuple(2 * n + common for n in verify._normalized_formulas(*x, *y))

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

    @settings(max_examples=300, deadline=None)
    @given(st.lists(interior_charts, min_size=4, max_size=4))
    @example([F(1, 37), F(2, 53), F(3, 41), F(5, 67)])
    @example([F(0), F(1, 2**20 + 7), F(-1, 10**6 + 3), F(1, 3)])
    def test_unfolded_lengths_match_the_fraction_polynomials(self, charts):
        x1, x2, y1, y2 = charts
        expected = (
            (x1 - y1) ** 2 + (2 - x2 + y2) ** 2,
            (1 - x1 + y2) ** 2 + (2 - x2 - y1) ** 2,
            (1 - x2 - y1) ** 2 + (2 - x1 + y2) ** 2,
            (x2 + y2) ** 2 + (2 - x1 - y1) ** 2,
            (1 + x2 - y1) ** 2 + (2 - x1 - y2) ** 2,
            (1 - x1 - y2) ** 2 + (2 + x2 - y1) ** 2,
            (x1 - y1) ** 2 + (2 + x2 - y2) ** 2,
            (1 + x1 - y2) ** 2 + (2 + x2 + y1) ** 2,
            (1 + x2 + y1) ** 2 + (2 + x1 - y2) ** 2,
            (x2 + y2) ** 2 + (2 + x1 + y1) ** 2,
            (1 - x2 + y1) ** 2 + (2 + x1 + y2) ** 2,
            (1 + x1 + y2) ** 2 + (2 - x2 + y1) ** 2,
        )
        got = opposite_face_table((x1, x2), (y1, y2)).l_sq
        assert got == expected
        assert all(type(v) is Fraction for v in got)

    def test_candidate_index_bounds(self):
        with pytest.raises(ValueError):
            candidate_path((F(1, 5), F(1, 5)), (F(1, 5), F(1, 5)), 0)
        with pytest.raises(ValueError):
            candidate_path((F(1, 5), F(1, 5)), (F(1, 5), F(1, 5)), 13)


class TestSymmetricDiagonal:
    def test_quarter_point_normalized_values(self):
        z = F(1, 4)
        assert verify._diagonal_formulas(z, z) == (
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
        assert table.l_sq == tuple(2 * n + 4 * z * z + 4 for n in verify._diagonal_formulas(z, z))
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
        assert list(limits) == ["D1", "D2", "D3", "D4", "D5", "D6"]
        derived = corner_limits()
        assert derived == CUBE_CORNER_LIMITS
        hits = {label: 0 for label in limits}
        for label in derived.values():
            hits[label] += 1
        assert set(hits.values()) == {2}

    def test_labels_follow_the_sixth_turn(self):
        """D1 crosses (-1/2, 0, 1/2); sigma (X, Y, Z) = (-Z, -X, -Y), minus
        the square of the corner rotation, carries each midpoint to the
        next label's."""
        midpoints = [trace[1] for trace in corner_limit_geodesics().values()]
        assert midpoints[0] == (-H, F(0), H)
        for m, following in zip(midpoints, midpoints[1:] + midpoints[:1]):
            assert following == tuple(-c for c in rotate_point(rotate_point(m)))

    @pytest.mark.parametrize(
        "misprint",
        [{("A", 1): "D4", ("A", 4): "D3"}, {("B", 4): "D7"}],
        ids=["swapped-labels", "unknown-label"],
    )
    def test_misprinted_limit_table_raises(self, monkeypatch, misprint):
        monkeypatch.setattr(strat_cover, "CUBE_CORNER_LIMITS", {**CUBE_CORNER_LIMITS, **misprint})
        result = verify.cube_corner_geodesics(0, 1)
        assert not result.passed
        assert "corner limits differ from the poset's table" in result.detail

    def test_limit_table_spot_values(self):
        assert len(CUBE_CORNER_LIMITS) == 12
        assert CUBE_CORNER_LIMITS["A", 1] == "D3"
        assert CUBE_CORNER_LIMITS["A", 10] == "D1"
        assert CUBE_CORNER_LIMITS["B", 7] == "D2"
        assert CUBE_CORNER_LIMITS["C", 4] == "D2"

    def test_family_a_limits_converge_at_known_rate(self):
        limits = corner_limit_geodesics()
        for idx in (1, 4, 7, 10):
            lim = reparametrize_constant_speed(Polyline(limits[CUBE_CORNER_LIMITS["A", idx]]))
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
                chain = witness_sequences(i, j)
                by_label = {w.label: w for w in chain}
                assert by_label["four_path"].indices == (1, 4, 7, 10)
                assert by_label["two_path"].indices == (1, 4)
                assert by_label["one_path"].indices == (1,)


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


_PINNED_DENOMINATORS = (*range(2, 41), 97, 2**20 + 7)


def _pinned_chart(rng: random.Random, kind: str) -> tuple[Fraction, Fraction]:
    """Chart coordinates of one kind: strictly interior, on an edge (one
    coordinate +-1/2) or at a corner, over a seeded denominator."""
    d = rng.choice(_PINNED_DENOMINATORS)
    inner = [F(rng.randrange(-((d - 1) // 2), d // 2 + d % 2), d) for _ in range(2)]
    if kind == "edge":
        inner[rng.randrange(2)] = rng.choice((-H, H))
    elif kind == "corner":
        inner = [rng.choice((-H, H)), rng.choice((-H, H))]
    return inner[0], inner[1]


def _pinned_cube_pairs(rng: random.Random):
    """``CubePoint.make`` endpoints for every ordered face pair and every
    interior/edge/corner kind of both endpoints."""
    kinds = ("interior", "edge", "corner")
    for fx in FACES:
        for fy in FACES:
            for kx in kinds:
                for ky in kinds:
                    x = CubePoint.make(fx, *_pinned_chart(rng, kx))
                    y = CubePoint.make(fy, *_pinned_chart(rng, ky))
                    yield x, y


def _pinned_cube_reprs():
    """reprs of the pinned pairs and their ``cube_geodesics``, then of
    ``opposite_face_table`` at 40 interior bottom/top pairs."""
    rng = random.Random(2024)
    for x, y in _pinned_cube_pairs(rng):
        yield repr((x, y))
        yield repr(cube_geodesics(x, y))
    for _ in range(40):
        x, y = _pinned_chart(rng, "interior"), _pinned_chart(rng, "interior")
        t = opposite_face_table(x, y)
        common = x[0] ** 2 + x[1] ** 2 + y[0] ** 2 + y[1] ** 2 + 4
        n = tuple((v - common) / 2 for v in t.l_sq)
        yield repr((x, y, t.l_sq, n, t.admissible))


# sha256 of the reprs above, recorded while each cube query still scaled its
# charts by 2 * lcm(chart denominators) and each table still stored its
# charts and normalized forms (now rebuilt above from the inputs and
# ``l_sq``); a change of integer scale or of when a field is evaluated must
# keep these bytes.
PINNED_CUBE_SHA256 = "1feadd2905a27778d1b1dbb93a392d8c752a0cda7bd8bbe50930db8f461ed85e"


def test_cube_outputs_match_the_pinned_digest():
    digest = hashlib.sha256()
    for text in _pinned_cube_reprs():
        digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == PINNED_CUBE_SHA256


def test_pinned_traces_have_rational_constant_speed_parameters():
    """Every cube trace lies on one straight unfolded segment, so no answer
    reaches the irrational-ratio refusal of the reparametrization."""
    traces = [
        g.as_polyline()
        for x, y in _pinned_cube_pairs(random.Random(2024))
        for g in cube_geodesics(x, y)
    ]
    assert len(traces) == 388
    for trace in traces:
        assert reparametrize_constant_speed(trace).vertices == trace.vertices


def test_corner_convergence_polylines_have_rational_constant_speed_parameters(monkeypatch):
    """The 16 polylines ``verify.cube_corner_convergence`` reparametrizes
    (four families at two offsets, candidate and limit) are all accepted."""
    accepted = []

    def recording(p):
        q = reparametrize_constant_speed(p)
        accepted.append(q)
        return q

    monkeypatch.setattr(metric_core, "reparametrize_constant_speed", recording)
    assert verify.cube_corner_convergence(0, 0).passed
    assert len(accepted) == 16


def _edge_and_corner_pairs(rng: random.Random, count: int):
    """Seeded edge-edge and corner-edge pairs on random faces."""
    for i in range(count):
        kx = "edge" if i % 2 else "corner"
        x = CubePoint.make(rng.choice(FACES), *_pinned_chart(rng, kx))
        y = CubePoint.make(rng.choice(FACES), *_pinned_chart(rng, "edge"))
        yield x, y


def test_integer_dedupe_matches_the_fraction_sort():
    """``cube_geodesics`` picks, per trace, the unfolding that sorting every
    tied admissible path by ``(trace, len, seq)`` puts first."""
    p, q = corner_pair()
    pairs = [(p, q), (q, p)]
    pairs += _pinned_cube_pairs(random.Random(2024))
    pairs += _edge_and_corner_pairs(random.Random(41), 200)
    for x, y in pairs:
        if x.point != y.point:
            assert cube_geodesics(x, y) == reference_geodesics(x, y)


def test_corner_pair_builds_one_path_per_geodesic(monkeypatch):
    """The corner pair ranks 54 rows, not 240: a sequence that only touches
    its first or last face at a corner is left out.  It tests 6 of them for
    admissibility, one per geodesic, and builds one ``UnfoldedPath`` each."""
    p, q = corner_pair()
    assert len(_face_sequences(p.faces(), q.faces())) == 54
    tested = built = 0
    crossings = cube_sphere._crossings
    new = UnfoldedPath.__new__

    def counting_crossings(*args):
        nonlocal tested
        tested += 1
        return crossings(*args)

    def counting(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(cube_sphere, "_crossings", counting_crossings)
    monkeypatch.setattr(UnfoldedPath, "__new__", counting)
    assert len(cube_geodesics(p, q)) == 6
    assert (tested, built) == (6, 6)


def _grid_points() -> tuple[CubePoint, ...]:
    """The 218 distinct surface points whose chart coordinates have
    denominators at most 4: 150 face-interior points, 60 edge points and
    the 8 corners, in the order ``make`` first meets them."""
    coords = sorted({F(n, d) for d in (1, 2, 3, 4) for n in range(-d, d + 1) if 2 * abs(n) <= d})
    return tuple(
        dict.fromkeys(CubePoint.make(face, u, v) for face in FACES for u in coords for v in coords)
    )


def reference_query(x: CubePoint, y: CubePoint):
    """``_Query``'s fields built from the Fraction 3-D points, as before the
    integer lift: the lcm of the 3-D denominators, the integer points on it,
    and the reduced pairs of the Fraction coordinates."""
    scale, (xq, yq) = metric_core.integer_points((x.point, y.point))
    half = scale // 2
    return (
        scale,
        {f: _scaled_chart(f, xq, half) for f in x.faces()},
        {f: _scaled_chart(f, yq, half) for f in y.faces()},
        tuple(tuple((c.numerator, c.denominator) for c in p) for p in (x.point, y.point)),
    )


# sha256 of repr(cube_geodesics(x, y)), one line per pair, over every 7th
# ordered pair of the grid, recorded before the integer lift and the pruned
# end faces; both must keep these bytes.
PINNED_GRID_SHA256 = "f6bf76587a7b873adec8bf1d59ad165e81838c4d192b8098c062c2bab71bbaa8"


class TestGrid:
    """Bounded-exhaustive checks on the small-denominator grid, which holds
    every corner and points on every edge and face diagonal."""

    points = _grid_points()

    def test_grid_shape(self):
        kinds = [len(p.faces()) for p in self.points]
        assert [kinds.count(n) for n in (1, 2, 3)] == [150, 60, 8]

    def test_direct_points_know_their_faces(self):
        """``faces()`` of a point built without ``make``, owner or not."""
        coords = sorted({c for p in self.points for c in (p.u, p.v)})
        for face in FACES:
            for u in coords:
                for v in coords:
                    point = CubePoint(face, u, v)
                    assert point.faces() == faces_holding(space_point(face, u, v))

    def test_equal_points_match_the_shortcut_record(self):
        """``cube_geodesics(x, x)`` goes through the ranking and gives the
        record that an early return for equal endpoints used to build."""
        for x in self.points:
            chart = (x.u, x.v)
            shortcut = UnfoldedPath(
                face_sequence=(x.face,),
                planar_start=chart,
                planar_end=chart,
                squared_length=F(0),
                trace=(x.point,),
            )
            assert repr(cube_geodesics(x, x)) == repr((shortcut,))

    def test_equal_points_answer_by_the_surface_point(self):
        """A point built in a chart that does not own it answers as its
        ``make`` form, in the owner's chart (the shortcut kept ``y-``)."""
        direct = CubePoint("y-", F(1, 3), -H)
        owned = CubePoint.make("y-", F(1, 3), -H)
        assert owned.face == "x-"
        geos = cube_geodesics(direct, direct)
        assert geos == cube_geodesics(owned, owned)
        assert geos[0].face_sequence == ("x-",)

    def test_query_lift_equals_the_fraction_construction(self):
        for x in self.points:
            for y in self.points:
                query = _Query(x, y)
                got = (query.scale, query.x_charts, query.y_charts, query.exact_ends)
                assert got == reference_query(x, y)
                assert query.half * 2 == query.scale

    def test_geodesics_match_the_pinned_digest(self):
        pairs = list(itertools.product(self.points, repeat=2))[::7]
        assert len(pairs) == 6790
        digest = hashlib.sha256()
        for x, y in pairs:
            digest.update(repr(cube_geodesics(x, y)).encode() + b"\n")
        assert digest.hexdigest() == PINNED_GRID_SHA256
