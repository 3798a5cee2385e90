"""Loop monodromy (``flat_torus._loop_permutation``): ties, bijectivity and
closure, agreement with a loop rebuilt and matched step by step in Fractions
on mixed and huge denominators, and the premise that lets the permutation be
read off the closing map: a decided step matching never changes a lift's
sheet."""

import random
from fractions import Fraction

import pytest

from geoplan.flat_torus import AmbiguousMatchError, _loop_permutation
from test_flat_torus import (
    outcome,
    reference_loop_lifts,
    reference_matching,
    reference_meridian_loop,
    reference_track,
)
from test_klein_bottle import reference_glide_loop

F = Fraction
BIG = 10**12 + 39


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
    """The loop's permutation (or the error type) with every step rebuilt
    (:func:`reference_frames`) and matched to the last step's by Fraction
    distance."""
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


def test_exact_tie_names_the_tied_lifts():
    # One step takes lift 0 to the origin, midway between the two lifts.
    tied = r"new lift 0 is equidistant from previous lifts \[0, 1\]; rerun with a finer loop \(steps > 8\)"
    with pytest.raises(AmbiguousMatchError, match=tied):
        _loop_permutation((F(0), F(0)), [(F(1, 8), F(0)), (F(-1, 8), F(0))], (1, 1), 8, shift)


def test_non_bijective_assignment_raises():
    # One step carries both lifts nearest to the right-hand one.
    with pytest.raises(AmbiguousMatchError, match=r"not a bijection; rerun with a finer loop"):
        _loop_permutation((F(0), F(0)), [(F(1, 20), F(0)), (F(-1, 20), F(0))], (1, 1), 8, shift)


def test_closure_failure_raises():
    def two_units(lift, scale):
        return (lift[0] + 2 * scale, *lift[1:])

    with pytest.raises(RuntimeError, match="loop closure failed"):
        _loop_permutation((F(0), F(0)), [(F(1, 2), F(1, 3))], (1, 1), 8, two_units)


def test_mixed_and_huge_denominators_match_the_fraction_reference():
    rng = random.Random(7)
    seen = {"matched": 0, "ambiguous": 0}
    for _ in range(300):
        base, cosets, periods, steps = random_loop(rng, 2, (1, 3, 7, BIG))
        expected = reference_loop(base, cosets, periods, steps)
        got = outcome(lambda: _loop_permutation(base, cosets, periods, steps, shift)[2])
        assert got == expected
        seen["ambiguous" if expected is AmbiguousMatchError else "matched"] += 1
    assert min(seen.values()) > 30


def test_smallest_margin_decides_the_match():
    # Lifts at -r and r; one step of 1/8 takes -r to 1/8 - r.  At r = 1/8
    # that is a tie, and 1/BIG^2 either side of it decides the matching.
    for eps, expected in ((F(1, BIG**2), (0, 1)), (-F(1, BIG**2), AmbiguousMatchError)):
        r = F(1, 8) + eps
        cosets = [(r,), (-r,)]
        assert reference_loop((F(0),), cosets, (1,), 8) == expected
        assert outcome(lambda: _loop_permutation((F(0),), cosets, (1,), 8, shift)[2]) == expected


@pytest.mark.parametrize("dim", [1, 3, 4])
def test_other_dimensions_match_the_fraction_reference(dim):
    rng = random.Random(dim)
    for _ in range(150):
        base, cosets, periods, steps = random_loop(rng, dim, (1, 7))
        expected = reference_loop(base, cosets, periods, steps)
        assert outcome(lambda: _loop_permutation(base, cosets, periods, steps, shift)[2]) == expected


def keeps_every_sheet(frames):
    """Whether the Fraction reference decides every step's matching of
    ``frames``; if it does, each of them must be the identity."""
    matchings = outcome(lambda: [reference_matching(p, q) for p, q in zip(frames, frames[1:])])
    if matchings is AmbiguousMatchError:
        return False
    assert set(matchings) == {tuple(range(len(frames[0])))}
    return True


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_decided_random_loops_never_change_sheet(dim):
    rng = random.Random(100 + dim)
    decided = [
        keeps_every_sheet(reference_frames(*random_loop(rng, dim, (1, 3, 7))))
        for _ in range(150)
    ]
    assert 100 < sum(decided) < 150


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
