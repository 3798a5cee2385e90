"""Flat torus: geodesic counts, cut loci, planner, monodromy control; the
shared flat-quotient point and geodesic record on torus:1..4 and the Klein
bottle."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geoplan import flat_torus
from geoplan.cutgraph import dirichlet_cell, dirichlet_graph
from geoplan.flat_torus import (
    FlatGeodesic,
    TorusPoint,
    antipodal_indices,
    torus_cut_locus,
    torus_geodesics,
    torus_local_poset,
    torus_loop_monodromy,
    torus_plan,
    torus_stratum,
)
from geoplan.klein_bottle import (
    IDENTITY,
    DeckElement,
    KleinPoint,
    klein_cut_locus,
    klein_geodesics,
    klein_monodromy,
    klein_plan,
)
from geoplan.metric_core import _frac, is_geodesic
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

    def test_integer_loop_matches_the_fraction_reference(self):
        # The reference decides every loop drawn here, so each is compared.
        rng = random.Random(19)
        for _ in range(200):
            d = rng.randint(1, 60)
            x2, steps = F(rng.randrange(d), d), rng.randint(8, 40)
            _, expected = reference_meridian_loop(x2, steps)
            assert torus_loop_monodromy(steps, x2) == expected

    @pytest.mark.parametrize(
        "loop",
        [lambda s: torus_loop_monodromy(s), lambda s: klein_monodromy(H, s)],
        ids=["torus", "klein"],
    )
    def test_fraction_count_does_not_grow_with_steps(self, loop):
        # Only the lifts at t = 0 are built in Fractions, whatever the steps.
        assert fractions_built(lambda: loop(16)) == fractions_built(lambda: loop(64))


class TestFractionSharing:
    @pytest.mark.parametrize("n", [4, 8])
    def test_antipode_builds_each_choice_once(self, n):
        # The 2^(n-1) geodesics share each coordinate's two Fractions.
        x, y = TorusPoint.make([0] * n), TorusPoint.make([H] * n)
        assert fractions_built(lambda: torus_geodesics(x, y)) <= 2 * n

    @pytest.mark.parametrize("n", [1, 4, 6])
    def test_make_keeps_a_reduced_lift_and_rebuilds_any_other(self, n):
        # Exact Fractions pass through _frac as they are.  A lift in
        # [0, 1)^n is kept, the caller's objects included; any other lift
        # gets one new Fraction per coordinate.
        reduced = [F(7 * i + 3, 5) % 1 for i in range(n)]
        assert fractions_built(lambda: TorusPoint.make(reduced)) == 0
        assert all(a is b for a, b in zip(TorusPoint.make(reduced).coords, reduced))
        unreduced = [F(7 * i + 6, 5) for i in range(n)]
        assert fractions_built(lambda: TorusPoint.make(unreduced)) == n
        lift = (F(-7, 3), F(9, 4))
        assert fractions_built(lambda: KleinPoint.make(lift)) == 2

    def test_frac_returns_a_plain_fraction_and_refuses_floats(self):
        class Tagged(Fraction):
            pass

        out = _frac(Tagged(3, 4))
        assert type(out) is Fraction and out == F(3, 4)
        same = F(5, 7)
        assert _frac(same) is same
        with pytest.raises(TypeError):
            _frac(0.5)


def beyond_half_period(monkeypatch):
    """Plant: ``_nearest_translates`` moves the first coordinate's last
    choice one whole width further, beyond half a period."""
    original = flat_torus._nearest_translates

    def mutant(base, target, widths):
        first, *rest = original(base, target, widths)
        return [(first[-1] + widths[0],), *rest]

    monkeypatch.setattr(flat_torus, "_nearest_translates", mutant)


@pytest.mark.parametrize(
    "space, make, geodesics, deck",
    [
        ("torus", TorusPoint.make, torus_geodesics, None),
        ("klein", KleinPoint.make, klein_geodesics, DeckElement(0, 0)),
    ],
)
def test_geodesics_check_each_choice_against_half_a_period(
    monkeypatch, space, make, geodesics, deck
):
    """The per-choice check of ``_flat_geodesics`` refuses what the public
    constructor refuses, with the same message."""
    x, y = make((H, F(1, 8))), make((F(1, 4), F(1, 8)))
    beyond_half_period(monkeypatch)
    with pytest.raises(ValueError, match="exceeds half a period") as raised:
        geodesics(x, y)
    # The choice -1/4 moved by one period (1 on the torus, 2 on the Klein
    # bottle, whose other coset then lies further still).
    period = x.periods[0]
    with pytest.raises(ValueError) as public:
        FlatGeodesic(x, (F(-1, 4) + period, F(0)), deck)
    assert str(raised.value) == str(public.value)


def outcome(run):
    """``run()``'s result, or the type of the exception it raised."""
    try:
        return run()
    except Exception as exc:  # any type: the two sides must raise the same one
        return type(exc)


class Undecided(Exception):
    """The step-by-step reference cannot match one step's lifts."""


def reference_matching(prev, new):
    """Each lift of ``new`` matched to its strictly nearest lift of ``prev``
    by Fraction squared distance: ``perm[j] = i`` means ``new[j]`` continues
    ``prev[i]``.  A tie, or a matching that is not a bijection, raises
    :class:`Undecided`."""
    perm = []
    for j, q in enumerate(new):
        dists = [sum((a - b) ** 2 for a, b in zip(p, q)) for p in prev]
        best = min(dists)
        hits = [i for i, d in enumerate(dists) if d == best]
        if len(hits) != 1:
            raise Undecided(f"new lift {j} is equidistant from previous lifts {hits}")
        perm.append(hits[0])
    if len(set(perm)) != len(perm):
        raise Undecided("nearest-lift assignment is not a bijection")
    return tuple(perm)


def reference_track(frames, closed):
    """The loop permutation of ``frames`` (each step's lifts), matched step
    by step: entry ``i`` is the index in ``closed`` (the step-0 lifts carried
    by the map that closes the loop) of the lift that lift ``i`` reaches."""
    ancestor = tuple(range(len(frames[0])))
    for prev, cur in zip(frames, frames[1:]):
        ancestor = tuple(ancestor[i] for i in reference_matching(prev, cur))
    if sorted(closed) != sorted(frames[-1]):
        raise RuntimeError("loop closure failed")
    sigma = [0] * len(ancestor)
    for m, i in enumerate(ancestor):
        sigma[i] = closed.index(frames[-1][m])
    return tuple(sigma)


def reference_meridian_loop(x2, steps):
    """The meridian loop rebuilt in Fractions at every step: each step's
    nearest lifts to the antipode, and the permutation (or the error type)
    they give."""
    frames = []
    for j in range(steps + 1):
        t = F(j, steps)
        antipode = TorusPoint.make((t + H, x2 + H))
        frames.append(reference_loop_lifts((t, x2), antipode.cosets(), antipode.periods))
    closed = [(u + 1, v) for u, v in frames[0]]
    return frames, outcome(lambda: reference_track(frames, closed))


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
        report = lower_bound(poset)
        assert report.levels == 1
        assert report.lower_bound == 0

    def test_full_antipode_recovers_corner_poset(self):
        for n in (1, 2, 3):
            x = TorusPoint.make([0] * n)
            y = TorusPoint.make([H] * n)
            poset = torus_local_poset(x, y)
            assert validate_poset(poset) == ()
            report = lower_bound(poset)
            assert report.levels == n + 1
            assert report.lower_bound == n


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


# ---------------------------------------------------------------------------
# Fraction reference: the lift rule, make and the deck elements one
# coordinate and one geodesic at a time in Fraction arithmetic, as the
# library computed them before it moved to one integer scale.
# ---------------------------------------------------------------------------


def reference_translates(base, target, periods):
    """Per coordinate, the displacements to the nearest translates of
    ``target``, in increasing order: both half periods on a tie."""
    out = []
    for b, t, p in zip(base, target, periods):
        d = F(t) - F(b)
        d -= p * (d.numerator // (p * d.denominator))
        twice, width = 2 * d.numerator, p * d.denominator
        if twice < width:
            out.append((d,))
        elif twice > width:
            out.append((d - p,))
        else:
            out.append((d - p, d))
    return out


def reference_displacements(base, cosets, periods):
    """Displacements from ``base`` to the nearest orbit points, in
    increasing order: those of the closest coset, or of every tied one."""
    best, found = None, []
    for target in cosets:
        choices = reference_translates(base, target, periods)
        if len(cosets) > 1:
            d = sum(c[0] * c[0] for c in choices)
            if best is None or d < best:
                best, found = d, []
            elif d > best:
                continue
        found.append(choices)
    lifts = [disp for choices in found for disp in itertools.product(*choices)]
    return lifts if len(found) == 1 else sorted(lifts)


def reference_loop_lifts(base, cosets, periods):
    """The nearest lifts themselves, ``base + displacement``, in increasing
    order: the lifts a loop monodromy starts from."""
    return [
        tuple(F(b) + d for b, d in zip(base, disp))
        for disp in reference_displacements(base, cosets, periods)
    ]


def reference_klein_make(values):
    """The fundamental-square representative of a plane point."""
    u, v = (F(c) for c in values)
    shift = u.numerator // u.denominator
    u -= shift
    if shift % 2 == 1:
        v = 1 - v
    v -= v.numerator // v.denominator
    return (u, v)


def reference_klein_deck(y, base, displacement):
    """The deck element carrying ``y`` to ``base + displacement``."""
    u, v = y.coords
    a = int(base[0] + displacement[0] - u)
    end_v = base[1] + displacement[1]
    return DeckElement(a, int(end_v - v if a % 2 == 0 else 1 - v - end_v))


def reference_geodesics(x, y):
    """(displacement, deck) of each geodesic from ``x`` to ``y``."""
    klein = isinstance(y, KleinPoint)
    return [
        (disp, reference_klein_deck(y, x.coords, disp) if klein else None)
        for disp in reference_displacements(x.coords, y.cosets(), y.periods)
    ]


def reference_klein_graph(x):
    """Vertices (point, multiplicity) and edges (ends, points, gluing) of
    the cut locus, read off the Fraction cell with the reference make and
    deck elements, as :func:`cutgraph.dirichlet_graph` defines them."""
    cell = dirichlet_cell(x)
    classes = {}
    for i, (corner, _) in enumerate(cell):
        classes.setdefault(reference_klein_make(corner), []).append(i)
    vertex_of = {i: k for k, members in enumerate(classes.values()) for i in members}
    decks = [reference_klein_deck(x, x.coords, tag) for _, tag in cell]
    edges, emitted = [], set()
    for i in sorted(range(len(cell)), key=decks.__getitem__):
        g, j = decks[i], (i + 1) % len(cell)
        if g.inverse() not in emitted:
            emitted.add(g)
            edges.append((vertex_of[i], vertex_of[j], (cell[i][0], cell[j][0]), g.tag))
    return [(p, len(m)) for p, m in classes.items()], edges


#: A prime denominator whose squares and products pass 10^24.
BIG = 10**12 + 39

#: A denominator of 1,000 digits.
HUGE = 10**999 + 7


@st.composite
def lift_coordinate(draw):
    """A coordinate of any lift: negative or beyond [0, 1) as often as
    not, over a small denominator or over 10^12 + 39."""
    d = draw(st.one_of(st.integers(1, 24), st.just(BIG)))
    return F(draw(st.integers(-3 * d, 3 * d)), d)


@st.composite
def make_input(draw):
    """A space (torus:1..6 or klein) and a lift for ``make``, reduced to
    [0, 1)^n as often as not, so that both of its paths run."""
    point = draw(st.sampled_from([TorusPoint, KleinPoint]))
    n = 2 if point is KleinPoint else draw(st.integers(1, 6))
    values = [draw(lift_coordinate()) for _ in range(n)]
    return point, [c % 1 for c in values] if draw(st.booleans()) else values


@st.composite
def reference_pair(draw):
    """A space (torus:1..6 or klein), a base lift and a target point.

    Each target coordinate is free or half a period (of Z^n, or of 2Z x Z)
    from the base.  A Klein target may instead tie its two cosets: take its
    second displacement ``B`` to ``y`` in [-1/2, 1/2); the one to
    ``alpha(y)`` is then ``1 - 2 x2 - B`` reduced to ``B'`` in [-1/2, 1/2),
    and first displacements ``+-a`` and ``-+(1 - a)`` with
    ``a = (1 + B'^2 - B^2) / 2`` give both cosets one squared length."""
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, "klein"]))
    if n == "klein":
        point, periods = KleinPoint, (2, 1)
    else:
        point, periods = TorusPoint, (1,) * n
    base = [draw(lift_coordinate()) for _ in periods]
    if point is KleinPoint and draw(st.booleans()):
        b = draw(lift_coordinate()) % 1 - H
        b_alpha = (1 - 2 * base[1] - b + H) % 1 - H
        a = (1 + b_alpha**2 - b * b) / 2 * draw(st.sampled_from([-1, 1]))
        return point, base, (base[0] + a, base[1] + b)
    target = [
        c + p * H * draw(st.sampled_from([-1, 1, 3]))
        if draw(st.booleans())
        else draw(lift_coordinate())
        for c, p in zip(base, periods)
    ]
    return point, base, target


class TestLocate:
    """``locate(lift, scale)`` is the inverse of the group action on
    integers: it returns ``(g, r)`` with ``lift = g(r)`` and ``r`` reduced."""

    SCALES = (1, 2, 3, 12, BIG)

    @staticmethod
    def reduced_points(s):
        """Every point of [0, s)^2 for a small scale, else the corners, the
        centre and points next to 0 and s."""
        if s <= 12:
            return list(itertools.product(range(s), repeat=2))
        edge = (0, 1, s // 2, s - 1)
        return list(itertools.product(edge, repeat=2))

    def test_klein_round_trip(self):
        elements = [DeckElement(a, b) for a in range(-3, 4) for b in range(-3, 4)]
        for s in self.SCALES:
            for r in self.reduced_points(s):
                for g in elements:
                    assert KleinPoint.locate(g.apply_scaled(r, s), s) == (g, r)

    def test_torus_round_trip(self):
        shifts = list(itertools.product(range(-3, 4), repeat=2))
        for s in self.SCALES:
            for r in self.reduced_points(s):
                for m in shifts:
                    lift = tuple(c + k * s for c, k in zip(r, m))
                    assert TorusPoint.locate(lift, s) == (None, r)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([(TorusPoint, n, None) for n in range(1, 7)] + [(KleinPoint, 2, IDENTITY)]),
        st.one_of(st.integers(1, 24), st.sampled_from([BIG, HUGE])),
        st.data(),
    )
    def test_reduced_lift_is_its_own_reduction(self, space, scale, data):
        """``make`` keeps a lift in [0, 1)^n as it is, which holds because
        ``locate`` returns every lift in [0, scale)^n with the identity."""
        point, n, identity = space
        coordinate = st.one_of(st.integers(0, scale - 1), st.sampled_from([0, scale - 1]))
        lift = tuple(data.draw(coordinate) for _ in range(n))
        assert point.locate(lift, scale) == (identity, lift)

    def test_one_coset_reads_no_deck_element(self, monkeypatch):
        """The torus is its own lattice: its geodesics keep no deck element
        and never call ``locate``."""
        x, y = TorusPoint.make([0, 0, F(1, 3)]), TorusPoint.make([H, H, F(1, 7)])

        def refuse(lift, scale):
            raise AssertionError("locate called")

        monkeypatch.setattr(TorusPoint, "locate", staticmethod(refuse))
        assert [g.deck for g in torus_geodesics(x, y)] == [None] * 4


class TestIntegerCoreMatchesTheFractionReference:
    @settings(max_examples=300, deadline=None)
    @given(st.tuples(lift_coordinate(), lift_coordinate()), st.integers(-3, 3), st.integers(-3, 3))
    def test_make_and_deck_elements(self, lift, a, b):
        assert KleinPoint.make(lift).coords == reference_klein_make(lift)
        g = DeckElement(a, b)
        d = F(lift[0]).denominator * F(lift[1]).denominator
        scaled = tuple(int(c * d) for c in lift)
        assert tuple(F(c, d) for c in g.apply_scaled(scaled, d)) == g.apply(lift)

    @settings(max_examples=300, deadline=None)
    @given(make_input())
    @example((TorusPoint, [0]))
    @example((TorusPoint, [1]))
    @example((TorusPoint, [-1, F(-1), 3, F(4), 0, 1]))
    @example((TorusPoint, [F(6, 7), F(HUGE - 1, HUGE), F(1, HUGE)]))
    @example((TorusPoint, [F(-1, HUGE), F(2 * HUGE + 1, HUGE)]))
    @example((KleinPoint, [0, 0]))
    @example((KleinPoint, [1, 0]))
    @example((KleinPoint, [-1, F(1, 3)]))
    @example((KleinPoint, [F(3), -2]))
    @example((KleinPoint, [F(1, 2), F(4, 5)]))
    @example((KleinPoint, [F(HUGE - 1, HUGE), F(1, HUGE)]))
    @example((KleinPoint, [F(-1, HUGE), F(HUGE + 1, HUGE)]))
    def test_make_on_both_paths(self, case):
        """``make`` against the Fraction references, on lifts it keeps and
        on lifts it reduces: a reduced lift keeps the caller's Fractions."""
        point, values = case
        made = point.make(values)
        if point is KleinPoint:
            assert made.coords == reference_klein_make(values)
        else:
            assert made.coords == tuple(F(c) % 1 for c in values)
        assert all(type(c) is F for c in made.coords)
        if all(type(c) is F and 0 <= c < 1 for c in values):
            assert all(a is b for a, b in zip(made.coords, values))

    @settings(max_examples=400, deadline=None)
    @given(reference_pair())
    @example((TorusPoint, [F(-7, 2), 3], [0, F(1, 2)]))
    @example((KleinPoint, [F(-1), F(5, 2)], [F(1, 2), F(1, 2)]))
    def test_nearest_lifts_from_any_base(self, pair):
        point, base, target = pair
        y = point.make(target)
        d, _, found = flat_torus._nearest_lifts(base, y.cosets(), y.periods)
        got = sorted(
            tuple(F(c, d) for c in disp)
            for choices in found
            for disp in itertools.product(*choices)
        )
        assert got == sorted(reference_displacements(base, y.cosets(), y.periods))

    @settings(max_examples=400, deadline=None)
    @given(reference_pair())
    @example((KleinPoint, [0, 0], [F(1, 2), F(1, 2)]))
    @example((KleinPoint, [F(1, 2), F(3, 10)], [F(3, 2), F(1, 2)]))
    @example((TorusPoint, [0] * 6, [F(1, 2)] * 6))
    def test_geodesics_and_plan(self, pair):
        point, base, target = pair
        x, y = point.make(base), point.make(target)
        expected = reference_geodesics(x, y)
        assert [(g.displacement, g.deck) for g in flat_torus._flat_geodesics(x, y)] == expected
        if point is TorusPoint:
            choices = reference_translates(x.coords, y.coords, x.periods)
            plan = torus_plan(x, y)
            assert plan.geodesic.displacement == tuple(c[-1] for c in choices)
            assert plan.domain == sum(len(c) == 2 for c in choices)

    @settings(max_examples=200, deadline=None)
    @given(lift_coordinate(), st.one_of(lift_coordinate(), st.sampled_from([0, H, -H, 3 * H])))
    @example(F(1, 2), F(3, 10))
    @example(F(-1, BIG), F(0))
    def test_klein_cut_locus(self, x1, x2):
        x = KleinPoint.make((x1, x2))
        graph = klein_cut_locus(x)
        vertices, edges = reference_klein_graph(x)
        assert [(v.point, v.multiplicity) for v in graph.vertices] == vertices
        assert [(e.start_vertex, e.end_vertex, e.points, e.gluing) for e in graph.edges] == edges


def test_dirichlet_graph_refuses_a_torus_point():
    x = TorusPoint.make((F(1, 3), F(1, 5)))
    with pytest.raises(ValueError, match=r"^TorusPoint\.locate names no deck elements .*torus_cut_locus$"):
        dirichlet_graph(x)


def _seeded_basepoints(count: int, seed: int):
    rng = random.Random(seed)
    return [
        tuple(F(rng.randrange(q), q) for q in (97, 89)) for _ in range(count)
    ]


@pytest.mark.parametrize("space", [TorusPoint, KleinPoint], ids=["torus", "klein"])
def test_dirichlet_cell_area_is_covolume_over_cosets(space):
    for coords in _seeded_basepoints(300, 13):
        x = space.make(coords)
        corners = [p for p, _ in dirichlet_cell(x)]
        twice = sum(
            a[0] * b[1] - b[0] * a[1] for a, b in zip(corners, corners[1:] + corners[:1])
        )
        covolume = x.periods[0] * x.periods[1]
        assert twice / 2 == F(covolume, len(x.cosets())) == 1, coords
        if space is KleinPoint:
            graph = dirichlet_graph(x)
            assert len(graph.vertices) - len(graph.edges) == -1, coords
