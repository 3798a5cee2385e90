"""Flat quotients R^n / Γ with a rectangular lattice, and geodesics, strata,
cut loci and the optimal planner on the flat n-torus.

Minimal lifts are the nearest lattice translates of one orbit point per
coset of the lattice (:class:`FlatPoint`), keeping the closest coset or
every tied one; each is a :class:`FlatGeodesic`, here and in ``klein_bottle``.
The base and the coset points go on one integer scale first, so rounding,
coset distances, tie order and deck tags are integer work, and each
coordinate's displacement choices become Fractions once.  ``make`` keeps a
lift that is already reduced and builds no Fraction for it.  The planners of
both spaces choose on the integer lifts, build only the one geodesic they
answer with and return a :class:`PlannerResult`, and both loop monodromies run
through ``_loop_permutation``: the deck map closing the loop acting on the
nearest lifts, whatever the number of steps the loop is sampled at.  Every
record here is a named tuple; :class:`FlatPoint` and :class:`FlatGeodesic`
check their fields in ``__new__``.

The torus is the product of ``n`` circles of circumference 1; distances come
from the flat product metric.  A geodesic between ``x`` and ``y`` moves every
coordinate along a shortest arc simultaneously, so the minimizing geodesics
are indexed by the per-coordinate arc choices: a coordinate sitting exactly
opposite (offset 1/2) admits both directions, everything else is forced.
With ``k - 1`` opposite coordinates there are exactly ``2^(k-1)`` geodesics,
and the pair space splits into strata ``S_1 .. S_(n+1)`` by that count.

The planner resolves every tie toward displacement ``+1/2``, which is a
continuous choice on each stratum, giving ``n + 1`` planner domains
``E_0 .. E_n`` (domain index = stratum - 1).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations, product
from operator import index
from typing import TYPE_CHECKING

from .cutgraph import CutEdge, CutLocusGraph, CutVertex
from .metric_core import Polyline, _frac, integer_points

if TYPE_CHECKING:
    from .strat_cover import StratPoset

__all__ = [
    "FlatGeodesic",
    "FlatPoint",
    "PlannerResult",
    "TorusCutLocus",
    "TorusCutStratum",
    "TorusPoint",
    "torus_cut_locus",
    "torus_geodesics",
    "torus_local_poset",
    "torus_loop_monodromy",
    "torus_plan",
    "torus_stratum",
]

_HALF = Fraction(1, 2)


class FlatPoint(namedtuple("FlatPoint", "coords")):
    """A point of R^n / Γ reduced to [0, 1)^n: the named tuple ``(coords,)``,
    a tuple of Fractions, checked on construction.

    Subclasses supply the lattice ``periods``, ``cosets()`` (one orbit point
    per coset of the lattice in Γ) and one integer method,
    ``locate(lift, scale) -> (g, r)``.  It reads a lift as integers on a
    ``scale``, the point ``lift / scale``, and returns the element ``g`` of
    Γ and the reduced point ``r``, on the same scale, with ``lift = g(r)``;
    ``g`` is None on the torus.  ``make`` keeps ``r``, and the geodesics,
    the Klein planner and the Dirichlet graph read ``g`` off their integer
    end lifts.  A lift in [0, scale)^n must come back as itself with the
    identity, which lets ``make`` keep a reduced lift as it is."""

    __slots__ = ()

    def __new__(cls, coords: tuple[Fraction, ...]):
        self = tuple.__new__(cls, (coords,))
        if not coords:
            raise ValueError("dimension must be at least 1")
        if len(coords) != len(self.periods):
            raise ValueError(f"{cls.__name__} has {len(self.periods)} coordinates")
        for c in coords:
            if not isinstance(c, Fraction):
                raise TypeError(f"coordinates must be Fractions; use {cls.__name__}.make")
            if not 0 <= c.numerator < c.denominator:
                raise ValueError(f"coordinate {c} not reduced to [0, 1)")
        return self

    @classmethod
    def make(cls, values) -> "FlatPoint":
        """Reduce any lift in the universal cover.

        A lift already in [0, 1)^n is its own reduction, since ``locate``
        maps every lift in [0, scale)^n to itself by the identity: it keeps
        its Fractions and builds none.  Any other lift goes through
        ``locate`` on one integer scale.  The constructor still checks every
        coordinate of either answer."""
        coords = tuple(map(_frac, values))
        for c in coords:
            if not 0 <= c.numerator < c.denominator:
                break
        else:
            return cls(coords)
        d, (lift,) = integer_points((coords,))
        return cls(tuple(Fraction(c, d) for c in cls.locate(lift, d)[1]))

    @property
    def n(self) -> int:
        return len(self.coords)


def _within_half(c: int, period: int, scale: int) -> bool:
    """Whether the displacement ``c / scale`` lies within half a ``period``."""
    return 2 * abs(c) <= period * scale


def _half_period_error(c: Fraction, period: int) -> ValueError:
    return ValueError(f"displacement {c} exceeds half a period {period}")


class FlatGeodesic(namedtuple("FlatGeodesic", "start displacement deck")):
    """A minimizing geodesic: the segment from the canonical lift of
    ``start`` (a :class:`FlatPoint`) by ``displacement`` (a tuple of
    Fractions, each within half a lattice period) to ``deck`` applied to the
    canonical lift of ``end`` (``deck`` is None on the torus).

    The constructor checks every entry against half a period.
    :func:`_flat_geodesics` checks each coordinate's choices once instead,
    on integers and with the same predicate, and builds its records through
    :meth:`_checked`, which skips the per-entry check."""

    __slots__ = ()

    def __new__(cls, start: FlatPoint, displacement: tuple[Fraction, ...], deck):
        periods = start.periods
        if len(displacement) != len(periods):
            raise ValueError("dimension mismatch")
        for c, p in zip(displacement, periods):
            if not _within_half(c.numerator, p, c.denominator):
                raise _half_period_error(c, p)
        return tuple.__new__(cls, (start, displacement, deck))

    @classmethod
    def _checked(cls, start: FlatPoint, displacement, deck) -> "FlatGeodesic":
        """The record of a displacement whose entries are already checked:
        the tuple itself, without the constructor's per-entry check."""
        return tuple.__new__(cls, (start, displacement, deck))

    @property
    def start_lift(self) -> tuple[Fraction, ...]:
        return self.start.coords

    @property
    def end_lift(self) -> tuple[Fraction, ...]:
        return tuple(a + d for a, d in zip(self.start.coords, self.displacement))

    @property
    def squared_length(self) -> Fraction:
        scale, (lift,) = integer_points((self.displacement,))
        return Fraction(sum([c * c for c in lift]), scale * scale)

    @property
    def end(self) -> FlatPoint:
        return self.start.make(self.end_lift)

    def lift(self) -> Polyline:
        return Polyline((self.start_lift, self.end_lift))


class PlannerResult(namedtuple("PlannerResult", "domain count rule geodesic")):
    """Outcome of a planner query: the chosen geodesic and its context.

    ``domain`` is the index of the planner domain the pair falls in (0 for
    the open dense cell), ``count`` the total number of minimizing geodesics,
    ``rule`` a short human-readable tag for the tie-breaking rule applied.
    """

    __slots__ = ()


def _nearest_translates(base, target, widths) -> list[tuple[int, ...]]:
    """Per coordinate, the displacements from ``base`` to the nearest
    translates ``target_i + m * widths_i`` (``m`` an integer), all integers
    on one scale, the widths being the periods on it.

    The lattice is rectangular, so each coordinate rounds to its nearest
    period on its own: one displacement in (-w/2, w/2), or both -w/2 and w/2
    on an exact half-period tie.  ``base`` may be any lift, reduced or not.
    Choices are listed in increasing order.
    """
    out = []
    for b, t, w in zip(base, target, widths):
        r = (t - b) % w
        out.append((r,) if 2 * r < w else (r - w,) if 2 * r > w else (r - w, r))
    return out


def _nearest_lifts(base, cosets, periods):
    """The nearest orbit points to ``base``, on one integer scale.

    Returns ``d``, the lcm of every denominator of ``base`` and ``cosets``,
    ``base`` times ``d``, and the per-coordinate displacement choices
    (:func:`_nearest_translates`, on ``d``) toward the closest of
    ``cosets``, or toward each tied one.  The displacements from ``base`` to
    the nearest orbit points are the products of these choices.
    """
    d, (b, *targets) = integer_points((base, *cosets))
    widths = [p * d for p in periods]
    best, found = None, []
    for target in targets:
        choices = _nearest_translates(b, target, widths)
        if len(targets) > 1:
            dist = sum(c[0] * c[0] for c in choices)
            if best is None or dist < best:
                best, found = dist, []
            elif dist > best:
                continue
        found.append(choices)
    return d, b, found


def _end_lifts(base, choices):
    """The end lifts ``base + displacement`` over the product of the
    per-coordinate ``choices``, in increasing order."""
    return product(*[tuple(u + c for c in cs) for u, cs in zip(base, choices)])


def _check_pair(x: FlatPoint, y: FlatPoint) -> None:
    if x.n != y.n:
        raise ValueError(f"dimension mismatch: {x.n} vs {y.n}")


def _fractions(choices, periods, scale: int) -> list[tuple[Fraction, ...]]:
    """Each coordinate's displacement ``choices`` on ``scale`` as Fractions,
    each choice checked once against half its period."""
    for cs, p in zip(choices, periods):
        for c in cs:
            if not _within_half(c, p, scale):
                raise _half_period_error(Fraction(c, scale), p)
    return [tuple(Fraction(c, scale) for c in cs) for cs in choices]


def _flat_geodesics(x: FlatPoint, y: FlatPoint) -> tuple[FlatGeodesic, ...]:
    """All minimizing geodesics from ``x`` to ``y``, by increasing displacement.

    Each coordinate's displacement choices are checked against half a
    period and become Fractions once (:func:`_fractions`), shared by every
    geodesic, so the records skip the per-entry check of the
    :class:`FlatGeodesic` constructor: a torus:6 antipodal pair checks 12
    choices, not 64 x 6 entries.  Lifts of tied cosets are sorted on their
    integers.  Each deck element is the ``g`` of ``y.locate`` at the integer
    end lift; a group of one coset (the torus) is its own lattice and keeps
    none, without calling ``locate``.
    """
    _check_pair(x, y)
    cosets = y.cosets()
    d, b, found = _nearest_lifts(x.coords, cosets, y.periods)
    lifts = (
        lift
        for choices in found
        for lift in zip(_end_lifts(b, choices), product(*_fractions(choices, x.periods, d)))
    )
    if len(found) > 1:
        lifts = sorted(lifts)
    if len(cosets) == 1:
        return tuple(FlatGeodesic._checked(x, disp, None) for _, disp in lifts)
    return tuple(FlatGeodesic._checked(x, disp, y.locate(end, d)[0]) for end, disp in lifts)


def _loop_permutation(base, cosets, periods, steps: int, close):
    """Permutation of the nearest lifts after one trip around a loop that
    drags ``base`` and the target with coset points ``cosets`` along
    ``(t, 0)``, ``t`` from 0 to 1.

    Returns the scale ``S`` (the lcm of the denominators of base and
    cosets), the sorted nearest lifts at ``t = 0`` on it (``start``) and the
    permutation: entry ``i`` is the index of the start lift that lift ``i``
    arrives at, read through ``close(lift, S)``, the deck transformation
    that closes the loop on integers.

    The translation by ``(t, 0)`` commutes with the deck group: with every
    lattice translation, and with the Klein glide ``(u, v) -> (u + 1, 1 - v)``.
    So it carries the orbit of the target at 0 onto the orbit at ``t``, and
    as an isometry it carries the nearest lifts at 0 onto those at ``t``:
    they are exactly ``start + (t, 0)``.  Each lift moves rigidly and
    continuously, and lift ``i`` ends at ``start_i + (1, 0)``, which
    ``close`` names as a start lift.  So the answer does not depend on how
    finely the loop is sampled; ``steps`` must still be an integer of at
    least 8, the callers' contract.
    """
    if index(steps) < 8:
        raise ValueError("need steps >= 8")
    scale, b, found = _nearest_lifts(base, cosets, periods)
    start = sorted(end for choices in found for end in _end_lifts(b, choices))
    final = [(u + scale, *rest) for u, *rest in start]
    closed = [close(p, scale) for p in start]
    if sorted(closed) != final:
        raise RuntimeError("loop closure failed: final lifts differ from expected")
    return scale, start, tuple(closed.index(p) for p in final)


class TorusPoint(FlatPoint):
    """A point with rational coordinates reduced to [0, 1) per circle: one
    coset of the lattice Z^n."""

    __slots__ = ()

    @staticmethod
    def locate(lift, scale: int) -> tuple[None, tuple[int, ...]]:
        return None, tuple(c % scale for c in lift)

    @property
    def periods(self) -> tuple[int, ...]:
        return (1,) * len(self.coords)

    def cosets(self) -> tuple[tuple[Fraction, ...]]:
        return (self.coords,)


def _choices(x: TorusPoint, y: TorusPoint) -> tuple[int, list[tuple[int, ...]]]:
    """The scale and the per-coordinate displacement choices from ``x`` to ``y``."""
    _check_pair(x, y)
    d, _, (choices,) = _nearest_lifts(x.coords, y.cosets(), x.periods)
    return d, choices


def antipodal_indices(x: TorusPoint, y: TorusPoint) -> tuple[int, ...]:
    """Coordinates where ``y`` sits exactly opposite ``x`` (offset 1/2)."""
    return tuple(i for i, c in enumerate(_choices(x, y)[1]) if len(c) == 2)


def torus_stratum(x: TorusPoint, y: TorusPoint) -> int:
    """Stratum index ``k`` in 1..n+1: ``k - 1`` coordinates are opposite."""
    return 1 + len(antipodal_indices(x, y))


def torus_geodesics(x: TorusPoint, y: TorusPoint) -> tuple[FlatGeodesic, ...]:
    """All minimizing geodesics, sorted lexicographically by displacement.

    Exactly ``2^(k-1)`` entries for ``k = torus_stratum(x, y)``, all of equal
    squared length.
    """
    return _flat_geodesics(x, y)


class TorusCutStratum(
    namedtuple("TorusCutStratum", "fixed dimension geodesic_count level representative")
):
    """One cut-locus stratum: the points opposite in exactly ``fixed``."""

    __slots__ = ()


class TorusCutLocus(namedtuple("TorusCutLocus", "strata graph")):
    """Union-of-subtori description of the cut locus, plus a drawable graph
    for n <= 2 (a point for the circle, a wedge of two circles for n = 2)."""

    __slots__ = ()


def torus_cut_locus(x: TorusPoint) -> TorusCutLocus:
    """Cut locus of ``x``: all points opposite in at least one coordinate.

    Strata are indexed by the nonempty subsets of opposite coordinates; the
    subset of size ``a`` carries ``2^a`` geodesics on a codimension-``a``
    subtorus.
    """
    n = x.n
    antipode = tuple((c + _HALF) % 1 for c in x.coords)
    strata = []
    indices = range(n)
    for size in range(1, n + 1):
        for fixed in combinations(indices, size):
            rep = list(x.coords)
            for i in fixed:
                rep[i] = antipode[i]
            strata.append(
                TorusCutStratum(
                    fixed=fixed,
                    dimension=n - size,
                    geodesic_count=2 ** size,
                    level=size + 1,
                    representative=TorusPoint(tuple(rep)),
                )
            )
    graph: CutLocusGraph | None = None
    if n == 1:
        graph = CutLocusGraph((CutVertex(antipode, 2),), ())
    elif n == 2:
        u, v = antipode
        graph = CutLocusGraph(
            (CutVertex(antipode, 4),),
            (
                CutEdge(0, 0, ((u, v), (u, v + 1)), gluing="meridian"),
                CutEdge(0, 0, ((u, v), (u + 1, v)), gluing="longitude"),
            ),
        )
    return TorusCutLocus(strata=tuple(strata), graph=graph)


def torus_plan(x: TorusPoint, y: TorusPoint) -> PlannerResult:
    """Planner: every opposite coordinate moves in the + direction.

    The coordinates choose independently, so this is the greatest
    displacement of ``torus_geodesics(x, y)`` in lexicographic order, as
    ``klein_plan`` takes off its three-geodesic vertices.  Domain index is
    ``torus_stratum(x, y) - 1``.
    """
    d, choices = _choices(x, y)
    opposite = sum(len(c) == 2 for c in choices)
    chosen = FlatGeodesic(x, tuple(Fraction(c[-1], d) for c in choices), None)
    return PlannerResult(
        domain=opposite,
        count=2 ** opposite,
        rule="plus_half" if opposite else "unique",
        geodesic=chosen,
    )


def torus_local_poset(x: TorusPoint, y: TorusPoint) -> StratPoset:
    """Local stratified-covering poset at the pair (x, y).

    Only the opposite coordinates branch, so the poset is the corner poset in
    that many variables, the power of the circle's sign factor that builds
    its elements only when they are read; a unique-geodesic pair yields the
    one-element poset.
    """
    # Imported here so that the geodesic and cut-locus commands do not load
    # the poset engine.
    from .strat_cover import PosetElement, StratPoset, torus_corner_poset

    a = len(antipodal_indices(x, y))
    if a == 0:
        return StratPoset([PosetElement("cell", 1, ("direct",))], [])
    return torus_corner_poset(a)


def torus_loop_monodromy(steps: int, x2=Fraction(1, 2)) -> tuple[int, ...]:
    """Drag a four-geodesic pair around the meridian loop on T² and return
    the permutation of its geodesics.

    The orientable control: the closing shift (1, 0) keeps every lift on
    its sheet, so the result is the identity for every ``steps``.  Mirrors
    the Klein-bottle contract, including ``steps >= 8``
    (:func:`_loop_permutation`).
    """
    x2 = _frac(x2)
    # The pair is (x, its antipode); the loop closes by the shift (1, 0).
    antipode = (_HALF, x2 + _HALF)
    _, _, permutation = _loop_permutation(
        (Fraction(0), x2), (antipode,), (1, 1), steps, lambda p, s: (p[0] + s, p[1])
    )
    return permutation
