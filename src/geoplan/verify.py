"""Seeded property-verification suites.

Each suite re-checks the invariants of one module on randomized inputs:
exact laws are asserted exactly (rational arithmetic end to end), metric
comparisons go through the squared-distance predicates of ``metric_core``.
Suites are deterministic for a fixed seed and shard cleanly by trial count.

Every check runs under one lifecycle, :func:`_check`: it gets a fresh
:class:`CheckResult`, and an exception it raises is one more failure, so a
broken layer shows as a ``FAIL`` line instead of ending the run.  A suite is
a table of rows in :data:`SUITES`, run in order by :func:`run_suite`.

The torus and Klein suites carry one independent brute-force oracle: the
words of :func:`_orbit_window` (lattice translates on the torus, the deck
orbit on the Klein bottle, from generator powers written here) and
:func:`_orbit_minimizers`, which keeps the nearest by exact integer squared
distance.  So the closed-form classifier and the two-coset nearest-lift rule
are confirmed against plain distance minimization rather than against
themselves.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction
from functools import wraps
from typing import TYPE_CHECKING, Callable

# Each check imports the layers it exercises, so that a suite loads only its own.
if TYPE_CHECKING:
    from .flat_torus import TorusPoint
    from .klein_bottle import KleinPoint
    from .metric_core import Polyline

__all__ = ["CheckResult", "SuiteReport", "SUITES", "run_suite"]

_HALF = Fraction(1, 2)
_DELTA = Fraction(1, 1000)

#: Denominator of the rational sample lattice (even, so exact antipodes exist).
_DEN = 1000


class CheckResult:
    """Outcome of one property check: mutable, since the check's body counts
    its failures and may recount its trials as it runs."""

    __slots__ = ("name", "trials", "failures", "detail")

    def __init__(self, name: str, trials: int) -> None:
        self.name, self.trials, self.failures, self.detail = name, trials, 0, ""

    def __repr__(self) -> str:
        return (
            f"CheckResult(name={self.name!r}, trials={self.trials},"
            f" failures={self.failures}, detail={self.detail!r})"
        )

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def fail(self, detail: str) -> None:
        self.failures += 1
        if not self.detail:
            self.detail = detail


class SuiteReport(namedtuple("SuiteReport", "suite seed trials checks")):
    """Outcome of a suite run: per-check counts plus an overall verdict."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            if c.passed:
                lines.append(f"ok   {self.suite}.{c.name}: {c.trials} trials")
            else:
                lines.append(
                    f"FAIL {self.suite}.{c.name}: {c.failures}/{c.trials} trials"
                    + (f" ({c.detail})" if c.detail else "")
                )
        verdict = "pass" if self.passed else "FAIL"
        lines.append(f"{verdict} suite {self.suite} (seed={self.seed}, trials={self.trials})")
        return lines

    def to_document(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "checks": [
                {"name": c.name, "trials": c.trials, "failures": c.failures, "detail": c.detail}
                for c in self.checks
            ],
            "passed": self.passed,
        }


Check = Callable[..., CheckResult]


def _check(name: str) -> Callable[[Callable[..., None]], Check]:
    """Make ``body(check, seed, trials, *args)`` the check ``(seed, trials,
    *args) -> CheckResult`` named ``name.format(*args)``.

    The body records failures on ``check`` and may recount its trials, so
    ``trials`` is a budget and not always the count reported: several bodies
    report the cases they build from it, ``core_straight_segments`` and
    ``core_sup_distance`` run half of it, and ``cube_witnesses`` and
    ``cube_corner_convergence`` run fixed cases whatever it is.  An
    ``Exception`` it raises ends it as one more failure, detailed as
    ``"<type>: <message>"`` unless an earlier failure set the detail, and
    never leaves more failures than trials; other ``BaseException``s
    propagate."""

    def wrap(body: Callable[..., None]) -> Check:
        @wraps(body)
        def run(seed: int, trials: int, *args) -> CheckResult:
            check = CheckResult(name=name.format(*args), trials=trials)
            try:
                body(check, seed, trials, *args)
            except Exception as exc:
                check.fail(f"{type(exc).__name__}: {exc}")
                check.trials = max(check.trials, check.failures)
            return check

        return run

    return wrap


def _rand_frac(rng: random.Random, den: int = _DEN) -> Fraction:
    return Fraction(rng.randrange(den), den)


def _rand_coords(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(_rand_frac(rng) for _ in range(n))


def _orbit_minimizers(base, points) -> list[int]:
    """Indices of the ``points`` nearest to ``base``, in the order given: the
    brute-force oracle of the flat quotients.  All points go on one integer
    scale, the lcm of their denominators (ints stay as they are), and whole
    points are compared by squared distance; nothing is rounded per
    coordinate, so no rule is shared with the nearest-translate core."""
    scale = math.lcm(*(c.denominator for p in (base, *points) for c in p))
    if scale != 1:
        base, *points = [[c.numerator * (scale // c.denominator) for c in p]
                         for p in (base, *points)]
    dists = [sum([(c - o) ** 2 for c, o in zip(p, base)]) for p in points]
    best = min(dists)
    return [i for i, d in enumerate(dists) if d == best]


def _orbit_window(y, powers, window: int) -> list[tuple[tuple, tuple[int, ...]]]:
    """Every word ``g_1^k_1 ... g_m^k_m (y)`` with ``|k_i| <= window``, paired
    with its exponents ``(k_1, ..., k_m)``; ``powers[i](p, k)`` is
    ``g_i^k (p)``.  Built one generator at a time, ``g_m`` first."""
    ks = range(-window, window + 1)
    words = [(tuple(y), ())]
    for power in reversed(powers):
        words = [(power(p, k), (k,) + exps) for p, exps in words for k in ks]
    return words


# ---------------------------------------------------------------------------
# Torus suite
# ---------------------------------------------------------------------------


def _unit_shifts(n: int) -> list[Callable]:
    """The torus generator powers on the integer sample grid: ``e_i^k`` adds
    ``k * _DEN`` to coordinate ``i``."""
    return [lambda p, k, i=i: p[:i] + (p[i] + k * _DEN,) + p[i + 1:] for i in range(n)]


@_check("count_law_n{}")
def torus_count_law(check: CheckResult, seed: int, trials: int, n: int) -> None:
    """count == 2^(k-1) from the classifier, and equals the number of
    minimizing lattice lifts in the window [-1, 1]^n (integer brute force).

    The window is exact: samples lie in [0, 1), so each coordinate
    difference d has |d| < 1, hence |d +- 2| > 1 > |d| and no lift with an
    offset of 2 or more in any coordinate can be minimal."""
    from . import flat_torus
    from .flat_torus import TorusPoint
    rng = random.Random(seed + n)
    shifts = _unit_shifts(n)
    for _ in range(trials):
        xs = [rng.randrange(_DEN) for _ in range(n)]
        ys = [(a + _DEN // 2) % _DEN if rng.random() < 0.25 else rng.randrange(_DEN) for a in xs]
        lifts = [p for p, _ in _orbit_window(ys, shifts, 1)]
        brute = len(_orbit_minimizers(xs, lifts))
        x = TorusPoint.make([Fraction(v, _DEN) for v in xs])
        y = TorusPoint.make([Fraction(v, _DEN) for v in ys])
        k = flat_torus.torus_stratum(x, y)
        geos = flat_torus.torus_geodesics(x, y)
        if len(geos) != 2 ** (k - 1) or len(geos) != brute:
            check.fail(f"x={x.coords} y={y.coords}: k={k}, count={len(geos)}, brute={brute}")


@_check("planner_partition_n{}")
def torus_planner_partition(check: CheckResult, seed: int, trials: int, n: int) -> None:
    """Planner domains are exactly 0..n, each realized; the section value is a
    genuine minimizing geodesic ending at the query point."""
    from . import flat_torus
    from .flat_torus import TorusPoint
    rng = random.Random(seed + 10 * n)
    pairs: list[tuple[TorusPoint, TorusPoint]] = []
    if n == 1:
        grid = [Fraction(i, 50) for i in range(50)]
        pairs.extend(
            (TorusPoint.make([a]), TorusPoint.make([b])) for a in grid for b in grid
        )
    if n == 2:
        origin = TorusPoint.make([0, 0])
        pairs.extend(
            (origin, TorusPoint.make([Fraction(i, 50), Fraction(j, 50)]))
            for i in range(50)
            for j in range(50)
        )
    # one deterministic pair per domain, so realization never hinges on luck
    for k in range(n + 1):
        x = TorusPoint.make([Fraction(1, 7)] * n)
        ycoords = [
            x.coords[i] + (_HALF if i < k else Fraction(1, 5)) for i in range(n)
        ]
        pairs.append((x, TorusPoint.make(ycoords)))
    for _ in range(trials):
        x = TorusPoint.make(_rand_coords(rng, n))
        ycoords = list(_rand_coords(rng, n))
        for i in range(n):
            if rng.random() < 0.3:
                ycoords[i] = (x.coords[i] + _HALF) % 1
        pairs.append((x, TorusPoint.make(ycoords)))
    check.trials = len(pairs)
    seen: set[int] = set()
    for x, y in pairs:
        result = flat_torus.torus_plan(x, y)
        k = flat_torus.torus_stratum(x, y)
        seen.add(result.domain)
        geos = flat_torus.torus_geodesics(x, y)
        displacements = {g.displacement for g in geos}
        g = result.geodesic
        if result.domain != k - 1 or not 0 <= result.domain <= n:
            check.fail(f"domain {result.domain} vs stratum {k} at {x.coords}->{y.coords}")
        elif g.end != y or g.displacement not in displacements:
            check.fail(f"section value not a geodesic at {x.coords}->{y.coords}")
    if seen != set(range(n + 1)):
        check.fail(f"domains realized: {sorted(seen)} != 0..{n}")


@_check("planner_continuity_n{}")
def torus_planner_continuity(check: CheckResult, seed: int, trials: int, n: int) -> None:
    """Perturbing a pair by <= delta inside its stratum moves the planned
    path by at most 4*delta in sup distance (exact squared comparison).

    Paths are compared modulo Z^n: a nudge may carry a reduced coordinate
    across the edge of the unit cube, which moves the canonical lift by a
    whole period, so the perturbed path is first shifted by the integer
    vector that brings its start nearest the first path's start."""
    from . import flat_torus
    from .flat_torus import TorusPoint
    from .metric_core import Polyline, sup_distance_sq
    rng = random.Random(seed + 100 * n)
    delta = _DELTA
    for _ in range(trials):
        x = list(_rand_coords(rng, n))
        y = list(_rand_coords(rng, n))
        for i in range(n):
            if rng.random() < 0.3:
                y[i] = (x[i] + _HALF) % 1
        # detect antipodality from the coordinates: random pairs can land on
        # the stratum by themselves, and those must be nudged along it too
        antipodal = [(y[i] - x[i]) % 1 == _HALF for i in range(n)]
        x2, y2 = list(x), list(y)
        i = rng.randrange(n)
        tau = Fraction(rng.randrange(-1000, 1001), 1000) * delta
        if antipodal[i]:
            # move both endpoints: the coordinate stays exactly antipodal
            x2[i] = (x2[i] + tau) % 1
            y2[i] = (y2[i] + tau) % 1
        else:
            d = (y[i] - x[i]) % 1
            rep = d if d < _HALF else d - 1
            if abs(rep + tau) >= _HALF:
                tau = -tau
            y2[i] = (y2[i] + tau) % 1
        a = flat_torus.torus_plan(TorusPoint.make(x), TorusPoint.make(y))
        b = flat_torus.torus_plan(TorusPoint.make(x2), TorusPoint.make(y2))
        if a.domain != b.domain:
            check.fail("perturbation left the domain")
            continue
        path = b.geodesic.lift()
        shift = [math.floor(p - q + _HALF) for p, q in zip(a.geodesic.start_lift, path.vertices[0])]
        path = Polyline([tuple(c + k for c, k in zip(v, shift)) for v in path.vertices])
        if sup_distance_sq(a.geodesic.lift(), path) > (4 * delta) ** 2:
            check.fail(f"sup distance exceeds 4*delta at x={x} y={y} i={i}")


@_check("subspace_convexity_n{}")
def torus_subspace_convexity(check: CheckResult, seed: int, trials: int, n: int) -> None:
    """Coordinates shared by both endpoints stay constant along every
    geodesic (sub-torus convexity)."""
    from . import flat_torus
    from .flat_torus import TorusPoint
    rng = random.Random(seed + 1000 * n)
    for _ in range(trials):
        x = list(_rand_coords(rng, n))
        y = list(_rand_coords(rng, n))
        fixed = [i for i in range(n) if rng.random() < 0.5]
        for i in fixed:
            y[i] = x[i]
        geos = flat_torus.torus_geodesics(TorusPoint.make(x), TorusPoint.make(y))
        if any(g.displacement[i] != 0 for g in geos for i in fixed):
            check.fail(f"geodesic leaves the sub-torus at {x}->{y}")


@_check("cut_locus_shape")
def torus_cut_locus_shape(check: CheckResult, seed: int, trials: int) -> None:
    """n=2 cut locus is a wedge of two circles at the antipode (one vertex of
    multiplicity 4, two loop edges); strata carry 2^|F| geodesics each."""
    from . import flat_torus
    from .flat_torus import TorusPoint
    rng = random.Random(seed + 77)
    for _ in range(trials):
        x = TorusPoint.make(_rand_coords(rng, 2))
        cut = flat_torus.torus_cut_locus(x)
        graph = cut.graph
        antipode = tuple((c + _HALF) % 1 for c in x.coords)
        ok = (
            graph is not None
            and graph.multiplicities() == (4,)
            and len(graph.edges) == 2
            and graph.vertices[0].point == antipode
        )
        if not ok:
            check.fail(f"wedge shape violated at {x.coords}")
            continue
        for stratum in cut.strata:
            rep = stratum.representative
            expect = 2 ** len(stratum.fixed)
            if stratum.geodesic_count != expect:
                check.fail(f"stratum count {stratum.geodesic_count} != {expect}")
                break
            if len(flat_torus.torus_geodesics(x, rep)) != expect:
                check.fail(f"representative count mismatch at {x.coords}")
                break


@_check("monodromy_control")
def torus_monodromy_control(check: CheckResult, seed: int, trials: int) -> None:
    """Transporting the four-geodesic labels around the horizontal loop in the
    torus gives the identity permutation."""
    from . import flat_torus
    rng = random.Random(seed + 404)
    for _ in range(trials):
        x2 = Fraction(rng.randrange(_DEN), _DEN)
        steps = rng.choice([8, 12, 16])
        perm = flat_torus.torus_loop_monodromy(steps, x2=x2)
        if perm != tuple(range(4)):
            check.fail(f"nontrivial torus monodromy at x2={x2}: {perm}")


@_check("local_poset")
def torus_local_poset_shape(check: CheckResult, seed: int, trials: int) -> None:
    """Local poset at a pair with a antipodal coordinates has a+1 levels and
    bound a (when a >= 1)."""
    from . import flat_torus, strat_cover
    from .flat_torus import TorusPoint
    rng = random.Random(seed + 505)
    for _ in range(trials):
        n = rng.randrange(1, 5)
        x = list(_rand_coords(rng, n))
        y = list(_rand_coords(rng, n))
        a = rng.randrange(0, n + 1)
        for i in range(a):
            y[i] = (x[i] + _HALF) % 1
        for i in range(a, n):
            if (y[i] - x[i]) % 1 == _HALF:
                y[i] = (x[i] + Fraction(1, 4)) % 1
        poset = flat_torus.torus_local_poset(TorusPoint.make(x), TorusPoint.make(y))
        report = strat_cover.lower_bound(poset)
        if report.levels != a + 1:
            check.fail(f"levels {report.levels} != {a + 1}")
        elif a >= 1 and report.lower_bound != a:
            check.fail(f"bound {report.lower_bound} != {a}")
        elif a == 0 and report.lower_bound != 0:
            check.fail("one-level poset should bound 0")


# ---------------------------------------------------------------------------
# Klein suite
# ---------------------------------------------------------------------------


#: The powers of the deck generators: ``alpha^k (u, v) = (u + k, v)`` with
#: ``v`` reflected to ``1 - v`` for odd ``k``, and ``beta^k (u, v) = (u, v + k)``.
#: The word with exponents ``(a, b)`` is the deck element ``DeckElement(a, b)``.
_KLEIN_POWERS = (
    lambda p, k: (p[0] + k, 1 - p[1] if k % 2 else p[1]),
    lambda p, k: (p[0], p[1] + k),
)


def _klein_scan(x: KleinPoint, y: KleinPoint) -> list[tuple]:
    """The nearest ``(end_lift, deck)`` of the deck orbit of ``y`` seen from
    ``x``, sorted by end lift: a brute-force scan (window 3) that shares
    nothing with the two-coset rule."""
    from .klein_bottle import DeckElement
    words = _orbit_window(y.coords, _KLEIN_POWERS, 3)
    nearest = _orbit_minimizers(x.coords, [p for p, _ in words])
    return sorted((words[i][0], DeckElement(*words[i][1])) for i in nearest)


@_check("lift_oracle")
def klein_lift_oracle(check: CheckResult, seed: int, trials: int) -> None:
    """Geodesic end lifts and deck tags equal the orbit scan
    :func:`_klein_scan`, in its order."""
    from . import klein_bottle
    from .klein_bottle import KleinPoint
    rng = random.Random(seed + 11)
    for _ in range(trials):
        x = KleinPoint.make(_rand_coords(rng, 2))
        u, v = _rand_coords(rng, 2)
        if rng.random() < 0.25:
            # half a period above x: the nearest coset ties up and down
            v = (x.coords[1] + _HALF) % 1
        y = KleinPoint.make((u, v))
        got = [(g.end_lift, g.deck) for g in klein_bottle.klein_geodesics(x, y)]
        if got != _klein_scan(x, y):
            check.fail(f"geodesics differ from the orbit scan at {x.coords}->{y.coords}")


@_check("horizontal_equivariance")
def klein_horizontal_equivariance(check: CheckResult, seed: int, trials: int) -> None:
    """Horizontal translation is an isometry: a shifted pair has the same
    geodesic displacements.  When the base representative wraps through the
    glide gluing an odd number of times, re-basing is a glide reflection, so
    the vertical displacement components flip sign."""
    from . import klein_bottle
    from .klein_bottle import KleinPoint
    rng = random.Random(seed + 22)
    for _ in range(trials):
        x = KleinPoint.make(_rand_coords(rng, 2))
        y = KleinPoint.make(_rand_coords(rng, 2))
        t = _rand_frac(rng)
        xs = KleinPoint.make((x.coords[0] + t, x.coords[1]))
        ys = KleinPoint.make((y.coords[0] + t, y.coords[1]))
        a = klein_bottle.klein_geodesics(x, y)
        b = klein_bottle.klein_geodesics(xs, ys)
        sign = -1 if (x.coords[0] + t) >= 1 else 1
        expected = sorted((g.displacement[0], sign * g.displacement[1]) for g in a)
        if expected != sorted(g.displacement for g in b):
            check.fail(f"equivariance broken at {x.coords}->{y.coords}, t={t}")


@_check("deck_composition")
def klein_deck_composition(check: CheckResult, seed: int, trials: int) -> None:
    """Deck transformations form a group acting on the plane: composition and
    inversion agree with pointwise application."""
    from . import klein_bottle
    from .klein_bottle import DeckElement
    rng = random.Random(seed + 33)
    for _ in range(trials):
        g1 = DeckElement(rng.randrange(-3, 4), rng.randrange(-3, 4))
        g2 = DeckElement(rng.randrange(-3, 4), rng.randrange(-3, 4))
        g3 = DeckElement(rng.randrange(-3, 4), rng.randrange(-3, 4))
        p = (_rand_frac(rng) + rng.randrange(-2, 3), _rand_frac(rng) + rng.randrange(-2, 3))
        if g1.compose(g2).apply(p) != g1.apply(g2.apply(p)):
            check.fail(f"composition law broken for {g1}, {g2}")
        elif g1.compose(g1.inverse()) != klein_bottle.IDENTITY:
            check.fail(f"inverse broken for {g1}")
        elif g1.compose(g2).compose(g3) != g1.compose(g2.compose(g3)):
            check.fail("associativity broken")


@_check("cut_dichotomy")
def klein_cut_dichotomy(check: CheckResult, seed: int, trials: int) -> None:
    """Wedge (one multiplicity-4 vertex, two edges) exactly when the base
    second coordinate is 0 or 1/2; otherwise a theta graph (two
    multiplicity-3 vertices, three edges).  At every cut vertex the
    geodesics, their lifts spread over both cosets, equal the orbit scan
    :func:`_klein_scan` in its order, which confirms the multiplicity too."""
    from . import klein_bottle
    from .klein_bottle import KleinPoint
    rng = random.Random(seed + 44)
    for _ in range(trials):
        x2 = rng.choice([Fraction(0), _HALF]) if rng.random() < 0.35 else _rand_frac(rng)
        x = KleinPoint.make((_rand_frac(rng), x2))
        graph = klein_bottle.klein_cut_locus(x)
        on_circle = x.coords[1] in (Fraction(0), _HALF)
        if on_circle:
            shape_ok = graph.multiplicities() == (4,) and len(graph.edges) == 2
        else:
            shape_ok = graph.multiplicities() == (3, 3) and len(graph.edges) == 3
        if not shape_ok:
            check.fail(f"dichotomy violated at {x.coords}")
            continue
        for vertex in graph.vertices:
            v = KleinPoint.make(vertex.point)
            want = _klein_scan(x, v)
            if len(want) != vertex.multiplicity:
                check.fail(f"multiplicity {vertex.multiplicity} vs oracle {len(want)}")
                break
            if [(g.end_lift, g.deck) for g in klein_bottle.klein_geodesics(x, v)] != want:
                check.fail(f"geodesics differ from the orbit scan at cut vertex {v.coords}")
                break


def _klein_domain_samples(rng: random.Random) -> list[tuple[KleinPoint, KleinPoint]]:
    """Sampled pairs hitting every planner domain 0..4.

    Positive-dimensional strata are sampled through the cut locus itself:
    edge interiors for two-geodesic targets, theta vertices for three, the
    wedge vertex for four; the first-coordinate split picks the domain."""
    from . import klein_bottle
    from .klein_bottle import KleinPoint
    g1 = _rand_frac(rng, 97)
    while g1 == 0:
        g1 = _rand_frac(rng, 97)
    x_off = KleinPoint.make((g1, _rand_frac(rng, 89)))           # x1 != 0
    x_on = KleinPoint.make((Fraction(0), _rand_frac(rng, 89)))   # x1 == 0
    pairs = [(x_off, KleinPoint.make(_rand_coords(rng, 2)))]
    for x in (x_off, x_on):
        graph = klein_bottle.klein_cut_locus(x)
        edge = graph.edges[rng.randrange(len(graph.edges))]
        y = KleinPoint.make(edge.as_polyline().evaluate(Fraction(rng.randrange(1, 20), 20)))
        if klein_bottle.klein_stratum(x, y) == 2:
            pairs.append((x, y))
        pairs.append((x, KleinPoint.make(graph.vertices[0].point)))
    for x2 in (Fraction(0), _HALF):
        for x1 in (g1, Fraction(0)):
            x = KleinPoint.make((x1, x2))
            graph = klein_bottle.klein_cut_locus(x)
            pairs.append((x, KleinPoint.make(graph.vertices[0].point)))
    return pairs


def _odd_run_lift(x: KleinPoint, y: KleinPoint) -> tuple | None:
    """The nearest lift of ``y`` alone on its horizontal run, from the
    brute-force orbit scan: at a theta vertex the three runs ``|u - x1|``
    are ``a, a, 1 - a`` with ``a < 1/2``.  None when the scan finds no
    such lift."""
    nearest = [p for p, _ in _klein_scan(x, y)]
    runs = [abs(p[0] - x.coords[0]) for p in nearest]
    odd = [p for p, run in zip(nearest, runs) if runs.count(run) == 1]
    return odd[0] if len(nearest) == 3 and len(odd) == 1 else None


@_check("planner_partition")
def klein_planner_partition(check: CheckResult, seed: int, trials: int) -> None:
    """Domains 0..4 are all realized over sampled pairs, the domain index is
    the declared function of stratum and first coordinate, and every section
    value is a minimizing geodesic to the query point.  At a three-geodesic
    pair the section takes the lift alone on its horizontal run
    (:func:`_odd_run_lift`)."""
    from . import klein_bottle
    rng = random.Random(seed + 55)
    pairs: list[tuple[KleinPoint, KleinPoint]] = []
    for _ in range(max(1, trials // 8)):
        pairs.extend(_klein_domain_samples(rng))
    check.trials = len(pairs)
    seen: set[int] = set()
    for x, y in pairs:
        m = klein_bottle.klein_stratum(x, y)
        result = klein_bottle.klein_plan(x, y)
        seen.add(result.domain)
        expected = 0 if m == 1 else (m if x.coords[0] == 0 else m - 1)
        geos = klein_bottle.klein_geodesics(x, y)
        choice = result.geodesic
        if result.domain != expected:
            check.fail(f"domain {result.domain} != {expected} at {x.coords}->{y.coords}")
        elif choice.end != y:
            check.fail(f"section does not end at target {y.coords}")
        elif (choice.end_lift, choice.deck) not in {(g.end_lift, g.deck) for g in geos}:
            check.fail(f"section value not among geodesics at {x.coords}->{y.coords}")
        elif m == 3 and choice.end_lift != _odd_run_lift(x, y):
            check.fail(f"theta choice is not the lift alone on its run at {x.coords}->{y.coords}")
    if seen != {0, 1, 2, 3, 4}:
        check.fail(f"domains realized: {sorted(seen)} != 0..4")


@_check("planner_continuity")
def klein_planner_continuity(check: CheckResult, seed: int, trials: int) -> None:
    """Within one domain path component, a delta-perturbation of the pair
    moves the planned path by at most 1/100 in sup distance (delta = 1/1000).

    Families: generic targets for domain 0, kept when the nudged target's
    geodesic ends at the moved end lift (the Dirichlet cell is convex, so
    the nudge then crosses no cut edge); sliding along a cut edge for the
    two-geodesic domains; moving the basepoint (the cut vertices follow
    continuously) for the three- and four-geodesic domains, each vertex
    paired with the nearest one in the bottle after the move."""
    from . import klein_bottle
    from .klein_bottle import KleinPoint
    from .metric_core import sup_distance_sq
    rng = random.Random(seed + 66)
    delta = _DELTA
    tol_sq = Fraction(1, 100) ** 2
    cases: list[tuple[KleinPoint, KleinPoint, KleinPoint, KleinPoint]] = []
    for _ in range(max(1, trials // 6)):
        # domain 0: nudge the target (deck-reduced horizontal move)
        x = KleinPoint.make(_rand_coords(rng, 2))
        y = KleinPoint.make(_rand_coords(rng, 2))
        y2 = KleinPoint.make((y.coords[0] + delta, y.coords[1]))
        ga, gb = klein_bottle.klein_geodesics(x, y), klein_bottle.klein_geodesics(x, y2)
        (u, v), moved = ga[0].end_lift, gb[0].end_lift
        if len(ga) == len(gb) == 1 and moved == (u + delta, v):
            cases.append((x, y, x, y2))
        # domains 1/2: slide along a cut edge
        g1 = _rand_frac(rng, 97)
        for x1 in (g1, Fraction(0)):
            x = KleinPoint.make((x1, _rand_frac(rng, 89)))
            graph = klein_bottle.klein_cut_locus(x)
            edge = graph.edges[rng.randrange(len(graph.edges))]
            t = Fraction(rng.randrange(2, 17), 20)
            path = edge.as_polyline()
            y = KleinPoint.make(path.evaluate(t))
            y2 = KleinPoint.make(path.evaluate(t + delta))
            if (
                klein_bottle.klein_stratum(x, y) == 2
                and klein_bottle.klein_stratum(x, y2) == 2
            ):
                cases.append((x, y, x, y2))
        # domains 2/3: theta vertices follow the basepoint
        x2 = _rand_frac(rng, 89)
        if x2 not in (Fraction(0), _HALF) and x2 + delta not in (Fraction(0), _HALF):
            for x1 in (g1, Fraction(0)):
                xa = KleinPoint.make((x1, x2))
                xb = KleinPoint.make((x1, x2 + delta if x2 + delta < 1 else x2 - delta))
                ga = klein_bottle.klein_cut_locus(xa)
                ya = KleinPoint.make(min(v.point for v in ga.vertices))
                # ya moves to the vertex of xb's locus nearest it in the
                # bottle; a reduced coordinate may wrap across v = 1
                yb = min(
                    (KleinPoint.make(v.point) for v in klein_bottle.klein_cut_locus(xb).vertices),
                    key=lambda y: klein_bottle.klein_geodesics(ya, y)[0].squared_length,
                )
                cases.append((xa, ya, xb, yb))
        # domains 3/4: wedge vertex follows a horizontal move of the basepoint
        for x2c in (Fraction(0), _HALF):
            x1 = _rand_frac(rng, 97)
            if x1 == 0 or x1 + delta == 1:
                continue
            xa = KleinPoint.make((x1, x2c))
            xb = KleinPoint.make((x1 + delta, x2c))
            ga = klein_bottle.klein_cut_locus(xa)
            gb = klein_bottle.klein_cut_locus(xb)
            cases.append(
                (
                    xa,
                    KleinPoint.make(ga.vertices[0].point),
                    xb,
                    KleinPoint.make(gb.vertices[0].point),
                )
            )
    check.trials = len(cases)
    for xa, ya, xb, yb in cases:
        ra = klein_bottle.klein_plan(xa, ya)
        rb = klein_bottle.klein_plan(xb, yb)
        if ra.domain != rb.domain:
            check.fail(f"perturbation left the domain at {xa.coords}->{ya.coords}")
            continue
        if sup_distance_sq(ra.geodesic.lift(), rb.geodesic.lift()) > tol_sq:
            check.fail(f"sup distance exceeds tolerance at {xa.coords}->{ya.coords}")


@_check("monodromy")
def klein_monodromy_nontrivial(check: CheckResult, seed: int, trials: int) -> None:
    """Transporting the four geodesic labels around the horizontal loop swaps
    up and down (a nontrivial order-2 permutation) over both special circles,
    while the torus control loop is the identity."""
    from . import flat_torus, klein_bottle
    rng = random.Random(seed + 88)
    for _ in range(trials):
        steps = rng.choice([8, 12, 16, 24])
        for x2 in (Fraction(0), _HALF):
            swap = klein_bottle.klein_monodromy(x2, steps=steps).label_map()
            if swap != {"DL": "UL", "UL": "DL", "DR": "UR", "UR": "DR"}:
                check.fail(f"unexpected label action {swap} at x2={x2}")
                break
        else:
            if flat_torus.torus_loop_monodromy(steps) != tuple(range(4)):
                check.fail("torus control loop not identity")


@_check("theta_frozen")
def klein_theta_frozen(check: CheckResult, seed: int, trials: int) -> None:
    """Frozen theta-graph data at base (1/2, 3/10): vertex classes
    (22/25, 4/5) and (3/25, 4/5), three edges, multiplicities (3, 3)."""
    from . import klein_bottle
    from .klein_bottle import KleinPoint
    graph = klein_bottle.klein_cut_locus(KleinPoint.make((_HALF, Fraction(3, 10))))
    points = sorted(v.point for v in graph.vertices)
    expect = [
        (Fraction(3, 25), Fraction(4, 5)),
        (Fraction(22, 25), Fraction(4, 5)),
    ]
    if points != expect or graph.multiplicities() != (3, 3) or len(graph.edges) != 3:
        check.fail(f"frozen theta data mismatch: {points}")


# ---------------------------------------------------------------------------
# Cube suite
# ---------------------------------------------------------------------------


def _rand_interior(rng: random.Random, den: int = 60) -> Fraction:
    return Fraction(rng.randrange(-den + 1, den), 2 * den)


def _normalized_formulas(x1, x2, y1, y2) -> tuple[Fraction, ...]:
    """The twelve normalized forms N_i of the opposite-face candidates,
    typed out as polynomials in the charts: the oracle of the unfolded
    squared lengths ``L_i^2 == 2 * N_i + |x|^2 + |y|^2 + 4``."""
    half = _HALF
    return (
        -x1 * y1 - 2 * x2 + 2 * y2 - x2 * y2,
        half - x1 + y2 - x1 * y2 - 2 * x2 - 2 * y1 + x2 * y1,
        half - x2 - y1 + x2 * y1 - 2 * x1 + 2 * y2 - x1 * y2,
        x2 * y2 - 2 * x1 - 2 * y1 + x1 * y1,
        half + x2 - y1 - x2 * y1 - 2 * x1 - 2 * y2 + x1 * y2,
        half - x1 - y2 + x1 * y2 + 2 * x2 - 2 * y1 - x2 * y1,
        -x1 * y1 + 2 * x2 - 2 * y2 - x2 * y2,
        half + x1 - y2 - x1 * y2 + 2 * x2 + 2 * y1 + x2 * y1,
        half + x2 + y1 + x2 * y1 + 2 * x1 - 2 * y2 - x1 * y2,
        x2 * y2 + 2 * x1 + 2 * y1 + x1 * y1,
        half - x2 + y1 - x2 * y1 + 2 * x1 + 2 * y2 + x1 * y2,
        half + x1 + y2 + x1 * y2 - 2 * x2 + 2 * y1 - x2 * y1,
    )


def _diagonal_formulas(x_d, y_d) -> tuple[Fraction, ...]:
    """The twelve normalized forms on the main face diagonals, typed out:
    :func:`_normalized_formulas` at ``x = (-x_d, -x_d)`` on the bottom face
    and ``y = (y_d, -y_d)`` on the top face, both in (0, 1/2)."""
    half = _HALF
    d = x_d - y_d
    mixed = 2 * x_d * y_d
    return (
        2 * d,
        half + 3 * d - mixed,
        half + 3 * d - mixed,
        2 * d,
        half + x_d + y_d + mixed,
        half - x_d - y_d + mixed,
        -2 * d,
        half - 3 * d - mixed,
        half - 3 * d - mixed,
        -2 * d,
        half - x_d - y_d + mixed,
        half + x_d + y_d + mixed,
    )


@_check("normalization_identity")
def cube_identity(check: CheckResult, seed: int, trials: int) -> None:
    """L_i^2 == 2*N_i + (|x|^2 + |y|^2 + 4) exactly, for every candidate:
    the squared lengths of the library's unfolded candidates equal the
    closed forms typed out in :func:`_normalized_formulas` plus the unit
    cube's common summand, which share no code with the unfolding."""
    from . import cube_sphere
    rng = random.Random(seed + 13)
    for _ in range(trials):
        x = (_rand_interior(rng), _rand_interior(rng))
        y = (_rand_interior(rng), _rand_interior(rng))
        table = cube_sphere.opposite_face_table(x, y)
        common = x[0] ** 2 + x[1] ** 2 + y[0] ** 2 + y[1] ** 2 + 4
        if table.l_sq != tuple(2 * n + common for n in _normalized_formulas(*x, *y)):
            check.fail(f"identity fails at {x}, {y}")


@_check("formula_oracle")
def cube_formula_oracle(check: CheckResult, seed: int, trials: int) -> None:
    """The minimum over the twelve admissible candidates equals the minimum
    over every simple face sequence (``cube_geodesics``), with identical
    minimizer sets (compared by trace)."""
    from . import cube_sphere
    rng = random.Random(seed + 26)
    for _ in range(trials):
        x = (_rand_interior(rng), _rand_interior(rng))
        y = (_rand_interior(rng), _rand_interior(rng))
        table = cube_sphere.opposite_face_table(x, y)
        xp = cube_sphere.CubePoint.make("z-", *x)
        yp = cube_sphere.CubePoint.make("z+", *y)
        geos = cube_sphere.cube_geodesics(xp, yp)
        if table.min_squared_length() != geos[0].squared_length:
            check.fail(f"formula min != oracle min at {x}, {y}")
            continue
        argmin_traces = {
            cube_sphere.candidate_path(x, y, i).trace for i in table.argmin_indices()
        }
        if argmin_traces != {g.trace for g in geos}:
            check.fail(f"argmin sets differ at {x}, {y}")


@_check("symmetric_diagonal")
def cube_symmetric_diagonal(check: CheckResult, seed: int, trials: int) -> None:
    """Symmetric diagonal pairs have exactly four geodesics, realized by
    candidates 1, 4, 7, 10, and the library's squared lengths there equal
    ``2 * N_i + 4 z^2 + 4`` with the typed forms of :func:`_diagonal_formulas`."""
    from . import cube_sphere
    rng = random.Random(seed + 39)
    zs = [
        Fraction(1, 10),
        Fraction(1, 7),
        Fraction(1, 5),
        Fraction(1, 4),
        Fraction(1, 3),
        Fraction(2, 5),
    ]
    for _ in range(max(0, trials - len(zs))):
        zs.append(Fraction(rng.randrange(1, 60), 120))
    check.trials = len(zs)
    for z in zs:
        table = cube_sphere.opposite_face_table((-z, -z), (z, -z))
        x = cube_sphere.CubePoint.make("z-", -z, -z)
        y = cube_sphere.CubePoint.make("z+", z, -z)
        geos = cube_sphere.cube_geodesics(x, y)
        if table.argmin_indices() != (1, 4, 7, 10) or len(geos) != 4:
            check.fail(f"symmetric diagonal law fails at z={z}")
        elif table.l_sq != tuple(2 * n + 4 * z * z + 4 for n in _diagonal_formulas(z, z)):
            check.fail(f"diagonal substitution mismatch at z={z}")


@_check("corner_geodesics")
def cube_corner_geodesics(check: CheckResult, seed: int, trials: int) -> None:
    """Both corners are built in their owner's chart, as ``from_space``
    builds them; exactly six geodesics of squared length 5 join them, and
    the corner limits read off the unfolding equal the corner poset's table."""
    from . import cube_sphere
    from .strat_cover import CUBE_CORNER_LIMITS
    p, q = cube_sphere.corner_pair()
    moved = [x for x in (p, q) if x != cube_sphere.CubePoint.from_space(x.point)]
    geos = cube_sphere.cube_geodesics(p, q)
    if moved:
        check.fail("corner {}:{},{} is not in its owner's chart".format(*moved[0]))
    elif len(geos) != 6 or any(g.squared_length != 5 for g in geos):
        check.fail(f"corner count {len(geos)}")
    elif cube_sphere.corner_limits() != CUBE_CORNER_LIMITS:
        check.fail("corner limits differ from the poset's table")


@_check("witness_sequences")
def cube_witnesses(check: CheckResult, seed: int, trials: int) -> None:
    """Witness pairs reproduce minimizer sets {1,4,7,10} / {1,4} / {1} for all
    i, j <= 5: the tie-breaking push of 1/100 leaves one candidate."""
    from . import cube_sphere
    pairs = [(i, j) for i in range(1, 6) for j in range(1, 6)]
    check.trials = len(pairs)
    for i, j in pairs:
        s, r, t = cube_sphere.witness_sequences(i, j)
        if (s.indices, r.indices, t.indices) != ((1, 4, 7, 10), (1, 4), (1,)):
            check.fail(f"witness sets wrong at i={i}, j={j}")


@_check("rotation_symmetry")
def cube_rotation_symmetry(check: CheckResult, seed: int, trials: int) -> None:
    """The corner rotation is an isometry: geodesic traces of a rotated pair
    are the rotated traces."""
    from . import cube_sphere
    rng = random.Random(seed + 52)
    for _ in range(trials):
        x = cube_sphere.CubePoint.make("z-", _rand_interior(rng), _rand_interior(rng))
        y = cube_sphere.CubePoint.make("z+", _rand_interior(rng), _rand_interior(rng))
        rx = cube_sphere.CubePoint.from_space(cube_sphere.rotate_point(x.point))
        ry = cube_sphere.CubePoint.from_space(cube_sphere.rotate_point(y.point))
        a = {cube_sphere.rotate_trace(g.trace) for g in cube_sphere.cube_geodesics(x, y)}
        b = {g.trace for g in cube_sphere.cube_geodesics(rx, ry)}
        if a != b:
            check.fail(f"rotation symmetry fails at {x}, {y}")


@_check("corner_convergence")
def cube_corner_convergence(check: CheckResult, seed: int, trials: int) -> None:
    """Diagonal-family paths converge to their labeled corner geodesics:
    at corner offset a the constant-speed sup distance is below 2a and
    shrinks when a does."""
    from . import cube_sphere, metric_core
    from .metric_core import Polyline, sup_distance_sq
    cases = [(a, idx) for a in (Fraction(1, 10), Fraction(1, 100)) for idx in (1, 4, 7, 10)]
    check.trials = len(cases)
    labeled = cube_sphere.corner_limit_geodesics()
    limits = cube_sphere.corner_limits()
    previous: dict[int, Fraction] = {}
    for a, idx in cases:
        path = cube_sphere.candidate_path(
            (-_HALF + a, -_HALF + a), (_HALF - a, -_HALF + a), idx
        )
        limit = labeled[limits["A", idx]]
        cs_path = metric_core.reparametrize_constant_speed(path.as_polyline())
        cs_limit = metric_core.reparametrize_constant_speed(Polyline(limit))
        d_sq = sup_distance_sq(cs_path, cs_limit)
        if d_sq > (2 * a) ** 2:
            check.fail(f"family {idx} too far from its limit at offset {a}")
        elif idx in previous and d_sq >= previous[idx]:
            check.fail(f"family {idx} not converging")
        previous[idx] = d_sq


@_check("halves")
def cube_halves(check: CheckResult, seed: int, trials: int) -> None:
    """The halves of a shortest path are shortest: on random adjacent-face
    pairs, the constant-speed midpoint m of each geodesic of squared length
    L has ``cube_geodesics`` of squared length L/4 both from x and to y."""
    from . import cube_sphere
    from .metric_core import reparametrize_constant_speed
    rng = random.Random(seed + 65)
    for _ in range(trials):
        f = rng.choice(cube_sphere.FACES)
        g = rng.choice([h for h in cube_sphere.FACES if h[0] != f[0]])
        x = cube_sphere.CubePoint.make(f, _rand_interior(rng), _rand_interior(rng))
        y = cube_sphere.CubePoint.make(g, _rand_interior(rng), _rand_interior(rng))
        for geo in cube_sphere.cube_geodesics(x, y):
            mid = reparametrize_constant_speed(geo.as_polyline()).evaluate(_HALF)
            m = cube_sphere.CubePoint.from_space(mid)
            quarter = geo.squared_length / 4
            halves = (cube_sphere.cube_geodesics(x, m), cube_sphere.cube_geodesics(m, y))
            if any(h[0].squared_length != quarter for h in halves):
                check.fail(f"halves of a geodesic are not shortest at {x}, {y}")
                break


# ---------------------------------------------------------------------------
# Core suite
# ---------------------------------------------------------------------------


def _random_polyline(rng: random.Random, collinear: bool) -> Polyline:
    from .metric_core import Polyline
    dim = rng.randrange(1, 4)
    count = rng.randrange(2, 11)
    if collinear:
        base = tuple(_rand_frac(rng, 40) for _ in range(dim))
        direction = tuple(Fraction(rng.randrange(-5, 6), 7) for _ in range(dim))
        if all(d == 0 for d in direction):
            direction = (Fraction(1),) + tuple(Fraction(0) for _ in range(dim - 1))
        t = Fraction(0)
        vertices = [base]
        for _ in range(count - 1):
            t += Fraction(rng.randrange(1, 9), 11)
            vertices.append(tuple(b + t * d for b, d in zip(base, direction)))
        return Polyline(vertices)
    vertices = [tuple(_rand_frac(rng, 40) for _ in range(dim))]
    while len(vertices) < count:
        v = tuple(_rand_frac(rng, 40) for _ in range(dim))
        if v != vertices[-1]:
            vertices.append(v)
    return Polyline(vertices)


@_check("reparametrization")
def core_reparametrization(check: CheckResult, seed: int, trials: int) -> None:
    """Constant-speed output: a polyline is refused exactly when two of its
    chords have an irrational length ratio; otherwise the squared parameter
    steps are proportional to the squared chord lengths, the endpoints are 0
    and 1, the vertices are kept and the call is idempotent."""
    from . import metric_core
    rng = random.Random(seed + 7)
    for _ in range(trials):
        p = _random_polyline(rng, collinear=rng.random() < 0.5)
        sq = metric_core.chord_sq_lengths(p)
        rational = all(metric_core.sqrt_exact(s / sq[0]) is not None for s in sq)
        try:
            q = metric_core.reparametrize_constant_speed(p)
        except ValueError:
            if rational:
                check.fail("rational-ratio polyline refused")
            continue
        if not rational:
            check.fail("irrational-ratio polyline accepted")
            continue
        steps = [q.params[i + 1] - q.params[i] for i in range(len(sq))]
        if any(step**2 * sq[0] != steps[0] ** 2 * s for step, s in zip(steps, sq)):
            check.fail("increments not proportional to lengths")
            continue
        if q.params[0] != 0 or q.params[-1] != 1 or q.vertices != p.vertices:
            check.fail("endpoints or vertices not preserved")
            continue
        if metric_core.reparametrize_constant_speed(q) != q:
            check.fail("not idempotent")


@_check("straight_segments")
def core_straight_segments(check: CheckResult, seed: int, trials: int) -> None:
    """Reparametrized monotone collinear polylines and raw segments pass the
    exact geodesic test; a genuinely bent polyline fails it.  Runs half the
    trials given, at least one."""
    check.trials = max(1, trials // 2)
    from . import metric_core
    from .metric_core import Polyline
    rng = random.Random(seed + 14)
    for _ in range(check.trials):
        p = _random_polyline(rng, collinear=True)
        q = metric_core.reparametrize_constant_speed(p)
        if not metric_core.is_geodesic(q):
            check.fail("straight reparametrized polyline rejected")
            continue
        seg = Polyline([q.vertices[0], q.vertices[-1]])
        if not metric_core.is_geodesic(seg):
            check.fail("raw straight segment rejected")
            continue
        a = q.vertices[0]
        bent = Polyline(
            [a, tuple(c + 1 for c in a), tuple(c + 2 for c in a[:-1]) + (a[-1],)]
            if len(a) > 1
            else [a, (a[0] + 1,), (a[0],)],
        )
        if metric_core.is_geodesic(metric_core.reparametrize_constant_speed(bent)):
            check.fail("bent polyline accepted")


@_check("sqrt_predicates")
def core_sqrt_predicates(check: CheckResult, seed: int, trials: int) -> None:
    """``metric_core.sqrt_exact`` agrees with floating point: it finds the
    root of every rational square and returns only true roots."""
    from . import metric_core
    rng = random.Random(seed + 21)
    for _ in range(trials):
        a = Fraction(rng.randrange(0, 400), rng.randrange(1, 40))
        root = Fraction(rng.randrange(0, 40), rng.randrange(1, 12))
        fa = math.sqrt(float(a))
        if metric_core.sqrt_exact(root * root) != root:
            check.fail(f"sqrt_exact misses the root of {root * root}")
            continue
        exact = metric_core.sqrt_exact(a)
        if exact is not None and abs(float(exact) - fa) > 1e-12 * max(1.0, fa):
            check.fail(f"sqrt_exact off at {a}")


@_check("sup_distance")
def core_sup_distance(check: CheckResult, seed: int, trials: int) -> None:
    """Sup distance: zero against itself, symmetric, and never exceeded at
    the 16 uniform parameters ``k/15``.  Runs half the trials given, at
    least one."""
    check.trials = max(1, trials // 2)
    from .metric_core import dist_sq, sup_distance_sq
    rng = random.Random(seed + 28)
    grid = [Fraction(k, 15) for k in range(16)]
    for _ in range(check.trials):
        p = _random_polyline(rng, collinear=False)
        q = _random_polyline(rng, collinear=False)
        while q.dimension != p.dimension:
            q = _random_polyline(rng, collinear=False)
        sup = sup_distance_sq(p, q)
        if sup_distance_sq(p, p) != 0:
            check.fail("nonzero self distance")
        elif sup != sup_distance_sq(q, p):
            check.fail("asymmetric")
        elif max(dist_sq(p.evaluate(t), q.evaluate(t)) for t in grid) > sup:
            check.fail("a sample exceeds the sup")


# ---------------------------------------------------------------------------
# Poset suite (part of core verification surface)
# ---------------------------------------------------------------------------


@_check("builtin_bounds")
def poset_builtin_bounds(check: CheckResult, seed: int, trials: int) -> None:
    """Builtin posets validate and produce the expected lower bounds."""
    from . import strat_cover
    expected = {
        "circle": 1,
        "torus_corner:1": 1,
        "torus_corner:2": 2,
        "torus_corner:3": 3,
        "torus_corner:4": 4,
        "klein_S4": 3,
        "cube_corner": 3,
    }
    check.trials = len(expected)
    for name, bound in expected.items():
        poset, _flags = strat_cover.builtin_poset(name)
        report = strat_cover.lower_bound(poset)
        if not report.valid or report.lower_bound != bound:
            check.fail(f"{name}: bound {report.lower_bound} != {bound}")


@_check("relabel_invariance")
def poset_relabel_invariance(check: CheckResult, seed: int, trials: int) -> None:
    """The bound is invariant under random relabeling of ids and sheets.

    Every builtin has a bound, so a trial whose unrelabeled poset is invalid
    or has none fails before any relabeling is drawn: two missing bounds
    would otherwise agree."""
    from . import strat_cover
    rng = random.Random(seed + 35)
    names = ["circle", "torus_corner:2", "torus_corner:3", "klein_S4", "cube_corner"]
    for t in range(trials):
        name = names[t % len(names)]
        poset, _flags = strat_cover.builtin_poset(name)
        base = strat_cover.lower_bound(poset).lower_bound
        if base is None:
            check.fail(f"no bound for {name} before relabeling")
            continue
        ids = [e.id for e in poset.elements]
        id_map = dict(zip(ids, rng.sample(range(10 * len(ids)), len(ids))))
        sheet_names = sorted({s for e in poset.elements for s in e.sheets})
        sheet_map = dict(
            zip(sheet_names, rng.sample(range(10 * len(sheet_names)), len(sheet_names)))
        )
        relabeled = strat_cover.StratPoset(
            elements=tuple(
                strat_cover.PosetElement(
                    id=str(id_map[e.id]),
                    level=e.level,
                    sheets=tuple(str(sheet_map[s]) for s in e.sheets),
                )
                for e in poset.elements
            ),
            covers=tuple(
                strat_cover.CoverMap(
                    src=str(id_map[c.src]),
                    dst=str(id_map[c.dst]),
                    mapping={
                        str(sheet_map[a]): str(sheet_map[b]) for a, b in c.mapping.items()
                    },
                )
                for c in poset.covers
            ),
        )
        report = strat_cover.lower_bound(relabeled)
        if not report.valid or report.lower_bound != base:
            check.fail(f"relabeling changed the bound for {name}")


@_check("monotonicity")
def poset_monotonicity(check: CheckResult, seed: int, trials: int) -> None:
    """Deleting the top level of an everywhere-inconsistent poset lowers the
    bound by exactly one; bottom elements are never inconsistent."""
    from . import strat_cover
    names = ["torus_corner:2", "torus_corner:3", "torus_corner:4", "cube_corner", "klein_S4"]
    check.trials = len(names)
    for name in names:
        poset, _flags = strat_cover.builtin_poset(name)
        full = strat_cover.lower_bound(poset)
        base, top = full.lower_bound, full.levels
        elements = tuple(e for e in poset.elements if e.level < top)
        kept = {e.id for e in elements}
        truncated = strat_cover.StratPoset(
            elements=elements,
            covers=tuple(c for c in poset.covers if c.dst in kept),
        )
        report = strat_cover.lower_bound(truncated)
        bottom = {e.id for e in poset.elements if e.level == 1}
        if report.lower_bound != base - 1:
            check.fail(f"truncated {name}: {report.lower_bound} != {base - 1}")
        elif not bottom.isdisjoint(full.inconsistent_ids):
            check.fail(f"bottom element inconsistent in {name}")


@_check("rejects_violations")
def poset_rejects_violations(check: CheckResult, seed: int, trials: int) -> None:
    """Validation rejects non-adjacent covers, non-injective sheet maps,
    maps into sheets the destination lacks, and composition-inconsistent
    chains."""
    from . import strat_cover
    E = strat_cover.PosetElement
    C = strat_cover.CoverMap
    violations = {
        "level-skipping cover": strat_cover.StratPoset(
            elements=(E("a", 1, ("s",)), E("b", 2, ("s",)), E("c", 3, ("s",))),
            covers=(C("a", "c", {"s": "s"}),),
        ),
        "non-injective sheet map": strat_cover.StratPoset(
            elements=(E("a", 1, ("p", "q")), E("b", 2, ("r", "t"))),
            covers=(C("a", "b", {"p": "r", "q": "r"}),),
        ),
        "sheet outside the destination": strat_cover.StratPoset(
            elements=(E("a", 1, ("s",)), E("b", 2, ("t",))),
            covers=(C("a", "b", {"s": "u"}),),
        ),
        "composition-inconsistent chains": strat_cover.StratPoset(
            elements=(
                E("a", 1, ("s",)),
                E("b1", 2, ("s",)),
                E("b2", 2, ("s",)),
                E("c", 3, ("u", "v")),
            ),
            covers=(
                C("a", "b1", {"s": "s"}),
                C("a", "b2", {"s": "s"}),
                C("b1", "c", {"s": "u"}),
                C("b2", "c", {"s": "v"}),
            ),
        ),
    }
    check.trials = len(violations)
    for violation, poset in violations.items():
        if not strat_cover.validate_poset(poset):
            check.fail(f"{violation} accepted")


# ---------------------------------------------------------------------------
# Suite assembly
# ---------------------------------------------------------------------------


#: Each suite's rows, in report order: (check, trial cap, extra arguments);
#: a row runs ``check(seed, min(trials, cap), *args)``, and ``math.inf``
#: runs every trial.
SUITES: dict[str, list[tuple[Check, float, tuple]]] = {
    "core": [
        (core_reparametrization, math.inf, ()),
        (core_straight_segments, math.inf, ()),
        (core_sqrt_predicates, math.inf, ()),
        (core_sup_distance, math.inf, ()),
        (poset_builtin_bounds, math.inf, ()),
        (poset_relabel_invariance, 50, ()),
        (poset_monotonicity, math.inf, ()),
        (poset_rejects_violations, math.inf, ()),
    ],
    "torus": [
        *[(torus_count_law, math.inf, (n,)) for n in (1, 2, 3, 4)],
        *[
            (check, cap, (n,))
            for n in (1, 2, 3)
            for check, cap in (
                (torus_planner_partition, 2000),
                (torus_planner_continuity, 500),
                (torus_subspace_convexity, 500),
            )
        ],
        (torus_cut_locus_shape, 200, ()),
        (torus_monodromy_control, 20, ()),
        (torus_local_poset_shape, 100, ()),
    ],
    "klein": [
        (klein_lift_oracle, 500, ()),
        (klein_horizontal_equivariance, 500, ()),
        (klein_deck_composition, math.inf, ()),
        (klein_cut_dichotomy, 1000, ()),
        (klein_planner_partition, 400, ()),
        (klein_planner_continuity, 300, ()),
        (klein_monodromy_nontrivial, 5, ()),
        (klein_theta_frozen, 1, ()),
    ],
    "cube": [
        (cube_identity, math.inf, ()),
        (cube_formula_oracle, 1000, ()),
        (cube_symmetric_diagonal, 30, ()),
        (cube_corner_geodesics, 1, ()),
        (cube_witnesses, math.inf, ()),
        (cube_rotation_symmetry, 50, ()),
        (cube_corner_convergence, math.inf, ()),
        (cube_halves, 1000, ()),
    ],
}


def run_suite(name: str, seed: int = 0, trials: int = 200) -> list[SuiteReport]:
    """Run one suite (or ``all``) and return its reports."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return [
        SuiteReport(
            suite=suite,
            seed=seed,
            trials=trials,
            checks=[check(seed, min(trials, cap), *args) for check, cap, args in SUITES[suite]],
        )
        for suite in (SUITES if name == "all" else [name])
    ]
