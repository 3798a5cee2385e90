"""Flat torus: geodesic counts, cut loci, planner, monodromy control; the
shared flat-quotient point and geodesic record on torus:1..4 and the Klein
bottle."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoplan import flat_torus
from geoplan.cutgraph import dirichlet_cell
from geoplan.flat_torus import (
    FlatGeodesic,
    TorusPoint,
    _loop_lifts,
    antipodal_indices,
    torus_cut_locus,
    torus_geodesics,
    torus_local_poset,
    torus_loop_monodromy,
    torus_plan,
    torus_stratum,
)
from geoplan.klein_bottle import (
    DeckElement,
    KleinPoint,
    klein_geodesics,
    klein_monodromy,
    klein_plan,
)
from geoplan.metric_core import is_geodesic
from geoplan.planning import nearest_lift_permutation
from geoplan.strat_cover import lower_bound, validate_poset

F = Fraction
H = F(1, 2)


def brute_force_count(x: TorusPoint, y: TorusPoint, window: int = 2) -> int:
    """Independent count: minimal lifts of y in the lattice window."""
    best = None
    count = 0
    for shift in itertools.product(range(-window, window + 1), repeat=x.n):
        sq = sum((b + s - a) ** 2 for a, b, s in zip(x.coords, y.coords, shift))
        if best is None or sq < best:
            best, count = sq, 1
        elif sq == best:
            count += 1
    return count


class TestPoints:
    def test_make_reduces_modulo_one(self):
        p = TorusPoint.make([F(5, 4), F(-1, 4)])
        assert p.coords == (F(1, 4), F(3, 4))

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            TorusPoint.make([0.5, 0.5])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TorusPoint.make([])


class TestCounts:
    def test_generic_pair_has_one_geodesic(self):
        x = TorusPoint.make([0, 0])
        y = TorusPoint.make([F(1, 10), F(1, 10)])
        geos = torus_geodesics(x, y)
        assert len(geos) == 1
        assert geos[0].displacement == (F(1, 10), F(1, 10))

    def test_single_antipodal_coordinate_doubles(self):
        x = TorusPoint.make([0, 0])
        y = TorusPoint.make([H, F(1, 5)])
        geos = torus_geodesics(x, y)
        assert len(geos) == 2
        assert {g.displacement[0] for g in geos} == {H, -H}

    def test_full_antipode_has_two_to_the_n(self):
        for n in (1, 2, 3, 4):
            x = TorusPoint.make([0] * n)
            y = TorusPoint.make([H] * n)
            geos = torus_geodesics(x, y)
            assert len(geos) == 2 ** n
            assert {g.displacement for g in geos} == set(
                itertools.product((H, -H), repeat=n)
            )
            assert all(g.squared_length == F(n, 4) for g in geos)

    def test_count_is_two_to_stratum_minus_one(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randrange(1, 5)
            x = TorusPoint.make([F(rng.randrange(24), 24) for _ in range(n)])
            y = TorusPoint.make([F(rng.randrange(24), 24) for _ in range(n)])
            k = torus_stratum(x, y)
            geos = torus_geodesics(x, y)
            assert k == len(antipodal_indices(x, y)) + 1
            assert len(geos) == 2 ** (k - 1)
            assert len(geos) == brute_force_count(x, y)
            assert len({g.displacement for g in geos}) == len(geos)

    def test_lifts_are_geodesics(self):
        x = TorusPoint.make([F(1, 3), F(2, 7)])
        y = TorusPoint.make([F(5, 6), F(1, 7)])
        for g in torus_geodesics(x, y):
            assert g.end == y
            assert is_geodesic(g.lift())

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            torus_geodesics(TorusPoint.make([0]), TorusPoint.make([0, 0]))


class TestDisplacementInvariant:
    def test_displacement_bounded_by_half(self):
        with pytest.raises(ValueError):
            FlatGeodesic(TorusPoint.make([0]), (F(3, 5),), None)
        # The Klein lattice 2Z x Z allows (1, 1/2) and nothing beyond it.
        x = KleinPoint.make((0, 0))
        FlatGeodesic(x, (F(1), H), DeckElement(1, 0))
        for beyond in ((F(11, 10), F(0)), (F(0), F(3, 5))):
            with pytest.raises(ValueError):
                FlatGeodesic(x, beyond, DeckElement(1, 0))


class TestCutLocus:
    def test_circle_cut_locus_is_antipode(self):
        locus = torus_cut_locus(TorusPoint.make([F(1, 3)]))
        assert len(locus.strata) == 1
        assert locus.strata[0].geodesic_count == 2
        assert locus.strata[0].representative.coords == (F(5, 6),)
        assert locus.graph is not None
        assert locus.graph.vertices[0].multiplicity == 2

    def test_square_torus_wedge(self):
        locus = torus_cut_locus(TorusPoint.make([0, 0]))
        graph = locus.graph
        assert graph is not None
        assert [v.multiplicity for v in graph.vertices] == [4]
        assert graph.vertices[0].point == (H, H)
        assert len(graph.edges) == 2
        assert {e.gluing for e in graph.edges} == {"meridian", "longitude"}
        assert all(e.multiplicity == 2 for e in graph.edges)

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(*[st.fractions(min_value=-2, max_value=2, max_denominator=10**6)] * 2))
    def test_dirichlet_cell_matches_the_closed_form_wedge(self, coords):
        """The generic cell of torus:2 is the square around the lift whose
        four corners all reduce to the wedge vertex, cut by the four axis
        neighbours."""
        x = TorusPoint.make(coords)
        cell = dirichlet_cell(x)
        (vertex,) = torus_cut_locus(x).graph.vertices
        assert len(cell) == 4
        assert {TorusPoint.make(corner).coords for corner, _ in cell} == {vertex.point}
        assert {tag for _, tag in cell} == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_strata_enumerate_nonempty_subsets(self):
        x = TorusPoint.make([0, 0, 0])
        locus = torus_cut_locus(x)
        assert len(locus.strata) == 7
        assert locus.graph is None
        for s in locus.strata:
            assert s.geodesic_count == 2 ** len(s.fixed)
            assert s.level == len(s.fixed) + 1
            assert s.dimension == 3 - len(s.fixed)
            # representative really carries that many geodesics
            assert len(torus_geodesics(x, s.representative)) == s.geodesic_count


class TestPlanner:
    def test_generic_pair_in_domain_zero(self):
        res = torus_plan(TorusPoint.make([0, 0]), TorusPoint.make([F(1, 10), F(1, 10)]))
        assert (res.domain, res.count, res.rule) == (0, 1, "unique")

    def test_single_antipode_in_domain_one(self):
        res = torus_plan(TorusPoint.make([0, 0]), TorusPoint.make([H, F(1, 5)]))
        assert (res.domain, res.count, res.rule) == (1, 2, "plus_half")
        assert res.geodesic.displacement == (H, F(1, 5))

    def test_domain_equals_antipodal_count(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randrange(1, 4)
            x = TorusPoint.make([F(rng.randrange(12), 12) for _ in range(n)])
            y = TorusPoint.make([F(rng.randrange(12), 12) for _ in range(n)])
            res = torus_plan(x, y)
            assert res.domain == len(antipodal_indices(x, y))
            assert res.geodesic.end == y
            assert res.geodesic.displacement in {
                g.displacement for g in torus_geodesics(x, y)
            }

    def test_section_is_continuous_across_small_moves(self):
        # inside one domain the chosen displacement moves by exactly the nudge
        x = TorusPoint.make([0, 0])
        res_a = torus_plan(x, TorusPoint.make([H, F(1, 5)]))
        res_b = torus_plan(x, TorusPoint.make([H, F(1, 5) + F(1, 1000)]))
        d_a, d_b = res_a.geodesic.displacement, res_b.geodesic.displacement
        assert d_a[0] == d_b[0] == H
        assert abs(d_a[1] - d_b[1]) == F(1, 1000)


class TestMonodromyControl:
    def test_meridian_loop_is_identity(self):
        assert torus_loop_monodromy(steps=8) == (0, 1, 2, 3)
        assert torus_loop_monodromy(steps=12, x2=F(1, 3)) == (0, 1, 2, 3)

    def test_requires_enough_steps(self):
        with pytest.raises(ValueError):
            torus_loop_monodromy(steps=4)

    def test_integer_loop_matches_the_fraction_reference(self, monkeypatch):
        built, original = [], flat_torus._scaled_loop

        def recording(*args):
            built.append(original(*args))
            return built[-1]

        monkeypatch.setattr(flat_torus, "_scaled_loop", recording)
        rng = random.Random(19)
        scale_is_steps = set()
        for _ in range(200):
            d = rng.randint(1, 60)
            x2, steps = F(rng.randrange(d), d), rng.randint(8, 40)
            frames, expected = reference_meridian_loop(x2, steps)
            assert outcome(lambda: torus_loop_monodromy(steps, x2)) == expected
            loop = built[-1]
            assert loop.scale % steps == 0
            scale_is_steps.add(loop.scale == steps)
            for j, lifts in enumerate(frames):
                assert loop.lifts_at(j) == [tuple(loop.scale * c for c in p) for p in lifts]
        assert scale_is_steps == {True, False}

    @pytest.mark.parametrize(
        "loop",
        [lambda s: torus_loop_monodromy(s), lambda s: klein_monodromy(H, s)],
        ids=["torus", "klein"],
    )
    def test_fraction_count_does_not_grow_with_steps(self, loop):
        # Only step 0 is built in Fractions; every later step is integer work.
        assert fractions_built(lambda: loop(16)) == fractions_built(lambda: loop(64))


def outcome(run):
    """``run()``'s result, or the type of the exception it raised."""
    try:
        return run()
    except Exception as exc:  # any type: the two sides must raise the same one
        return type(exc)


def reference_meridian_loop(x2, steps):
    """The meridian loop rebuilt in Fractions at every step: each step's
    nearest lifts to the antipode, and the permutation (or the error type)
    they give."""
    frames = []
    for j in range(steps + 1):
        t = F(j, steps)
        antipode = TorusPoint.make((t + H, x2 + H))
        frames.append(_loop_lifts((t, x2), antipode.cosets(), antipode.periods))

    def track():
        ancestor = tuple(range(len(frames[0])))
        for prev, cur in zip(frames, frames[1:]):
            ancestor = tuple(ancestor[i] for i in nearest_lift_permutation(prev, cur))
        closed = [(u + 1, v) for u, v in frames[0]]
        if sorted(closed) != sorted(frames[-1]):
            raise RuntimeError("loop closure failed")
        sigma = [0] * len(ancestor)
        for m, i in enumerate(ancestor):
            sigma[i] = closed.index(frames[-1][m])
        return tuple(sigma)

    return frames, outcome(track)


def fractions_built(run) -> int:
    """How many ``Fraction`` objects ``run()`` creates."""
    count = 0
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return new(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fraction, "__new__", counting_new)
        if "_from_coprime_ints" in vars(Fraction):
            # Python 3.12+ builds arithmetic results without __new__.
            coprime = Fraction._from_coprime_ints

            def counting_coprime(cls, *args):
                nonlocal count
                count += 1
                return coprime(*args)

            mp.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
        run()
    return count


class TestLocalPoset:
    def test_generic_pair_gives_one_level(self):
        poset = torus_local_poset(
            TorusPoint.make([0, 0]), TorusPoint.make([F(1, 10), F(1, 5)])
        )
        assert poset.level_count() == 1
        assert lower_bound(poset).lower_bound == 0

    def test_full_antipode_recovers_corner_poset(self):
        for n in (1, 2, 3):
            x = TorusPoint.make([0] * n)
            y = TorusPoint.make([H] * n)
            poset = torus_local_poset(x, y)
            assert validate_poset(poset) == ()
            assert poset.level_count() == n + 1
            assert lower_bound(poset).lower_bound == n


#: point class, geodesics and planner of each flat quotient under test.
SPACES = {
    **{f"torus:{n}": (n, TorusPoint, torus_geodesics, torus_plan) for n in (1, 2, 3, 4)},
    "klein": (2, KleinPoint, klein_geodesics, klein_plan),
}


@st.composite
def coordinate(draw):
    """A coordinate as given to ``make``: often negative or beyond [0, 1),
    sometimes an unreduced fraction string."""
    value = F(draw(st.integers(-96, 96)), draw(st.integers(1, 24)))
    if draw(st.booleans()):
        k = draw(st.integers(2, 9))
        return f"{value.numerator * k}/{value.denominator * k}"
    return value


@st.composite
def flat_pair(draw):
    """A space and the raw coordinates of a pair in it; each coordinate of
    ``y`` is either free or offset from ``x`` by a half period of the torus
    or of the Klein lattice 2Z x Z, where geodesics tie."""
    space = draw(st.sampled_from(sorted(SPACES)))
    xs = [draw(coordinate()) for _ in range(SPACES[space][0])]
    offsets = st.sampled_from([H, -H, F(1), F(3, 2)])
    ys = [F(c) + draw(offsets) if draw(st.booleans()) else draw(coordinate()) for c in xs]
    return space, xs, ys


class TestFlatQuotientProperties:
    @settings(max_examples=300, deadline=None)
    @given(flat_pair(), st.tuples(*[st.integers(-3, 3)] * 4))
    def test_make_reduces_each_deck_orbit_to_one_point(self, pair, shift):
        space, xs, _ = pair
        n, point = SPACES[space][:2]
        x = point.make(xs)
        assert all(0 <= c < 1 for c in x.coords)
        assert point.make(x.coords) == x
        if point is KleinPoint:
            moved = DeckElement(*shift[:2]).apply(xs)
        else:
            moved = [F(c) + s for c, s in zip(xs, shift[:n])]
        assert point.make(moved) == x

    @settings(max_examples=300, deadline=None)
    @given(flat_pair())
    def test_plan_chooses_one_of_the_geodesics(self, pair):
        space, xs, ys = pair
        _, point, geodesics, plan = SPACES[space]
        x, y = point.make(xs), point.make(ys)
        chosen = plan(x, y).geodesic
        assert chosen.end == y
        assert (chosen.displacement, chosen.deck) in {
            (g.displacement, g.deck) for g in geodesics(x, y)
        }
