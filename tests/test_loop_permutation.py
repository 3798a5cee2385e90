"""Loop monodromy (``flat_torus._loop_permutation``): closure, agreement
with a loop rebuilt and matched step by step in Fractions on mixed and huge
denominators, the exact step count from which that reference decides a
loop, the premise that makes the answer independent of the step count, and
the ``steps`` contract of both public loops."""

import math
import random
from fractions import Fraction

import pytest

from geoplan import flat_torus, klein_bottle
from geoplan.flat_torus import _loop_permutation, torus_loop_monodromy
from geoplan.klein_bottle import klein_monodromy
from test_flat_torus import (
    Undecided,
    outcome,
    reference_loop_lifts,
    reference_matching,
    reference_meridian_loop,
    reference_track,
)
from test_klein_bottle import reference_glide_loop

F = Fraction
BIG = 10**12 + 39
H = F(1, 2)


def shift(lift, scale):
    """The closing map of a loop along the first axis: one unit forward."""
    return (lift[0] + scale, *lift[1:])


def reference_frames(base, cosets, periods, steps):
    """Every step's nearest lifts rebuilt from scratch: base and cosets moved
    by ``j / steps`` along the first axis, the cosets' first coordinates
    reduced modulo the first period, the nearest lifts found again."""
    frames = []
    for j in range(steps + 1):
        t = F(j, steps)
        moved = [((c[0] + t) % periods[0], *c[1:]) for c in cosets]
        frames.append(reference_loop_lifts((base[0] + t, *base[1:]), moved, periods))
    return frames


def reference_loop(base, cosets, periods, steps):
    """The loop's permutation (or the error type, :class:`Undecided` when a
    step cannot be matched) with every step rebuilt (:func:`reference_frames`)
    and matched to the last step's by Fraction distance."""
    frames = reference_frames(base, cosets, periods, steps)
    return outcome(lambda: reference_track(frames, [shift(p, 1) for p in frames[0]]))


def random_loop(rng, dim, denominators):
    """A base, up to four coset points at one distance from it (its mirror
    images in the first two axes), and the periods: the cosets tie, so the
    loop tracks several lifts, and an offset near one step makes ties and
    crossings likely.  Some coordinates sit half a period away, which
    doubles the lifts."""

    def coord(spread):
        d = rng.choice(denominators)
        return F(rng.randrange(-spread * d, spread * d + 1), d)

    periods = (rng.choice((1, 2)), *[1] * (dim - 1))
    base = tuple(coord(2) for _ in range(dim))
    offset = [coord(1) / 8 for _ in range(dim)]
    for i in range(dim):
        if rng.random() < 0.25:
            offset[i] = F(periods[i], 2)
    signs = mirror_signs(dim)
    cosets = {}
    for sign in rng.sample(signs, rng.randint(1, len(signs))):
        coset = tuple(b + s * o for b, s, o in zip(base, sign, offset))
        # Mirror images half a period apart are one orbit point: keep one.
        cosets.setdefault(tuple(c % p for c, p in zip(coset, periods)), coset)
    return base, list(cosets.values()), periods, rng.randint(8, 16)


def mirror_signs(dim):
    """Sign patterns mirroring the first one or two axes."""
    if dim == 1:
        return [(1,), (-1,)]
    return [(a, b, *[1] * (dim - 2)) for a in (1, -1) for b in (1, -1)]


def test_closure_failure_raises():
    def two_units(lift, scale):
        return (lift[0] + 2 * scale, *lift[1:])

    with pytest.raises(RuntimeError, match="loop closure failed"):
        _loop_permutation((F(0), F(0)), [(F(1, 2), F(1, 3))], (1, 1), 8, two_units)


def least_deciding_steps(base, cosets, periods):
    """``N0 = max(8, floor(1 / d) + 1)``, ``d`` the least
    ``|s_i - s_k|^2 / (2 (s_i - s_k)_1)`` over the start lifts with
    ``(s_i - s_k)_1 > 0``.  One step of ``1 / steps`` along the first axis
    leaves ``s_k`` strictly nearer to itself than to ``s_i`` exactly when
    ``1 / steps < d``, so the reference decides the loop from ``N0`` on."""
    lifts = reference_loop_lifts(base, cosets, periods)
    ratios = [
        sum((a - b) ** 2 for a, b in zip(p, q)) / (2 * (p[0] - q[0]))
        for p in lifts
        for q in lifts
        if p[0] > q[0]
    ]
    return max(8, math.floor(1 / min(ratios)) + 1) if ratios else 8


def reference_decides(base, cosets, periods, steps):
    """The reference at ``steps``, and whether it decided there, which must
    be exactly when ``steps`` reaches :func:`least_deciding_steps`."""
    expected = reference_loop(base, cosets, periods, steps)
    decided = expected is not Undecided
    assert decided == (steps >= least_deciding_steps(base, cosets, periods))
    return expected, decided


def test_mixed_and_huge_denominators_match_the_fraction_reference():
    # N0 can be near BIG^2 here, too many steps to rebuild: only the loops
    # the reference decides at their drawn steps are compared.
    rng = random.Random(7)
    seen = {True: 0, False: 0}
    for _ in range(300):
        base, cosets, periods, steps = random_loop(rng, 2, (1, 3, 7, BIG))
        expected, decided = reference_decides(base, cosets, periods, steps)
        if decided:
            assert _loop_permutation(base, cosets, periods, steps, shift)[2] == expected
        seen[decided] += 1
    assert min(seen.values()) > 30


def test_smallest_margin_decides_the_match():
    # Lifts at -r and r; one step of 1/8 takes -r to 1/8 - r.  At r = 1/8
    # that is a tie, and 1/BIG^2 either side of it decides whether the
    # reference matches at 8 steps.  It matches both from N0 on, and the
    # loop gives that answer at 8.
    for eps, n0 in ((F(1, BIG**2), 8), (-F(1, BIG**2), 9)):
        r = F(1, 8) + eps
        cosets = [(r,), (-r,)]
        assert least_deciding_steps((F(0),), cosets, (1,)) == n0
        assert reference_decides((F(0),), cosets, (1,), 8)[1] == (n0 == 8)
        assert reference_loop((F(0),), cosets, (1,), n0) == (0, 1)
        assert _loop_permutation((F(0),), cosets, (1,), 8, shift)[2] == (0, 1)


@pytest.mark.parametrize("dim", [1, 3, 4])
def test_other_dimensions_match_the_fraction_reference(dim):
    # No loop is skipped: one the reference leaves undecided at its drawn
    # steps is compared at N0, where it decides.
    rng = random.Random(dim)
    undecided = 0
    for _ in range(150):
        base, cosets, periods, steps = random_loop(rng, dim, (1, 7))
        expected, decided = reference_decides(base, cosets, periods, steps)
        if not decided:
            undecided += 1
            expected = reference_loop(
                base, cosets, periods, least_deciding_steps(base, cosets, periods)
            )
        assert _loop_permutation(base, cosets, periods, steps, shift)[2] == expected
    assert undecided > 0


def keeps_every_sheet(frames):
    """Whether the Fraction reference decides every step's matching of
    ``frames``; if it does, each of them must be the identity."""
    matchings = outcome(lambda: [reference_matching(p, q) for p, q in zip(frames, frames[1:])])
    if matchings is Undecided:
        return False
    assert set(matchings) == {tuple(range(len(frames[0])))}
    return True


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_decided_random_loops_never_change_sheet(dim):
    # A loop undecided at its drawn steps is decided, and checked, at N0.
    rng = random.Random(100 + dim)
    undecided = 0
    for _ in range(150):
        base, cosets, periods, steps = random_loop(rng, dim, (1, 3, 7))
        if not keeps_every_sheet(reference_frames(base, cosets, periods, steps)):
            undecided += 1
            n0 = least_deciding_steps(base, cosets, periods)
            assert keeps_every_sheet(reference_frames(base, cosets, periods, n0))
    assert 0 < undecided < 50


def test_decided_library_loops_never_change_sheet():
    rng = random.Random(25)
    decided = 0
    for _ in range(100):
        d = rng.randint(1, 60)
        frames, _ = reference_meridian_loop(F(rng.randrange(d), d), rng.randint(8, 40))
        decided += keeps_every_sheet(frames)
    for x2 in (F(0), F(1, 2)):
        for steps in range(8, 41):
            decided += keeps_every_sheet(reference_glide_loop(x2, steps)[0])
    assert decided > 150


def unit_square_corners(x2, scale):
    """The four lifts ``(0, x2) + (+-1/2, +-1/2)`` on ``scale``, sorted."""
    u, v, h = 0, x2 * scale, scale // 2
    return [(u + a, v + b) for a in (-h, h) for b in (-h, h)]


def recording(monkeypatch, module):
    """Every ``(scale, start, permutation)`` that ``module``'s loops build."""
    built, original = [], module._loop_permutation

    def record(*args):
        built.append(original(*args))
        return built[-1]

    monkeypatch.setattr(module, "_loop_permutation", record)
    return built


STEP_COUNTS = [*range(8, 70), 10**30]


def test_torus_loops_start_at_the_corners_whatever_the_steps(monkeypatch):
    # The premise of the rigid-motion argument: the four lifts sit at the
    # corners of a unit square about the base, so no step can confuse them.
    built = recording(monkeypatch, flat_torus)
    rng = random.Random(26)
    for _ in range(500):
        d = rng.randint(1, 1000)
        x2 = F(rng.randrange(-2 * d, 2 * d), d)
        assert {torus_loop_monodromy(steps, x2) for steps in STEP_COUNTS} == {(0, 1, 2, 3)}
        assert {(scale, tuple(start)) for scale, start, _ in built} == {
            (built[0][0], tuple(unit_square_corners(x2, built[0][0])))
        }
        built.clear()


@pytest.mark.parametrize("x2", [F(0), H])
def test_klein_loops_start_at_the_corners_whatever_the_steps(monkeypatch, x2):
    built = recording(monkeypatch, klein_bottle)
    results = {klein_monodromy(x2, steps) for steps in STEP_COUNTS}
    assert len(results) == 1
    assert results.pop().label_map() == {"DL": "UL", "UL": "DL", "DR": "UR", "UR": "DR"}
    for scale, start, _ in built:
        assert start == unit_square_corners(x2, scale)


@pytest.mark.parametrize(
    "steps, torus, klein",
    [
        (4, ValueError, ValueError),
        (True, ValueError, ValueError),
        (16.0, TypeError, TypeError),
        (F(16), TypeError, TypeError),
        ("16", TypeError, TypeError),
        (10**30, (0, 1, 2, 3), (1, 0, 3, 2)),
    ],
    ids=["4", "True", "16.0", "Fraction(16)", "'16'", "10**30"],
)
def test_steps_contract(steps, torus, klein):
    # Whole numbers of at least 8 answer; other whole numbers (a bool is
    # one) raise ValueError, and anything else TypeError.
    assert outcome(lambda: torus_loop_monodromy(steps)) == torus
    assert outcome(lambda: klein_monodromy(H, steps).permutation) == klein
