"""Nearest-lift matching: ties, bijectivity, lift counts, and agreement with
a plain Fraction reference on mixed and huge denominators."""

import random
from fractions import Fraction

import pytest

from geoplan.metric_core import dist_sq
from geoplan.planning import AmbiguousMatchError, nearest_lift_permutation

F = Fraction
BIG = 10**12 + 39


def reference_permutation(prev, new):
    """The matching by Fraction squared distances, or None where it is a
    tie or not a bijection."""
    perm = []
    for q in new:
        dists = [dist_sq(p, q) for p in prev]
        hits = [i for i, d in enumerate(dists) if d == min(dists)]
        if len(hits) != 1:
            return None
        perm.append(hits[0])
    return tuple(perm) if len(set(perm)) == len(perm) else None


def test_exact_tie_names_the_tied_lifts():
    prev = [(F(0), F(0)), (F(2), F(0)), (F(9), F(9))]
    new = [(F(9), F(8)), (F(1), F(0)), (F(2), F(1))]
    tied = r"new lift 1 is equidistant from previous lifts \[0, 1\]"
    with pytest.raises(AmbiguousMatchError, match=tied):
        nearest_lift_permutation(prev, new)


def test_non_bijective_assignment_raises():
    prev = [(F(0), F(0)), (F(10), F(0))]
    new = [(F(1), F(0)), (F(2), F(0))]
    with pytest.raises(AmbiguousMatchError, match="not a bijection"):
        nearest_lift_permutation(prev, new)


def test_changed_lift_count_raises():
    prev = [(F(0), F(0)), (F(1), F(0))]
    with pytest.raises(AmbiguousMatchError, match="from 2 to 3"):
        nearest_lift_permutation(prev, prev + [(F(2), F(0))])


def test_mixed_and_huge_denominators_match_the_fraction_reference():
    rng = random.Random(7)
    denominators = (1, 3, 7, BIG)
    matched = 0
    for _ in range(400):
        k = rng.randint(1, 5)

        def coord(spread):
            d = rng.choice(denominators)
            return F(rng.randrange(-spread * d, spread * d + 1), d)

        prev = [(coord(4), coord(4)) for _ in range(k)]
        order = rng.sample(range(k), k)
        # Small moves keep most matchings decidable; ties stay possible.
        new = [(prev[i][0] + coord(1) / 4, prev[i][1] + coord(1) / 4) for i in order]
        expected = reference_permutation(prev, new)
        if expected is None:
            with pytest.raises(AmbiguousMatchError):
                nearest_lift_permutation(prev, new)
        else:
            assert nearest_lift_permutation(prev, new) == expected
            matched += 1
    assert matched > 200


def test_smallest_margin_decides_the_match():
    # new[0] is nearer prev[0] by 1/BIG^2 in squared distance.
    prev = [(F(0), F(0)), (F(1, BIG), F(0))]
    new = [(F(0), F(5)), (F(10), F(0))]
    assert reference_permutation(prev, new) == (0, 1)
    assert nearest_lift_permutation(prev, new) == (0, 1)


@pytest.mark.parametrize(
    "prev, new",
    [
        ([(F(0), F(0)), (F(1), F(0))], [(F(0), F(0), F(0)), (F(1), F(0), F(0))]),
        ([(F(0), F(0)), (F(1), F(0), F(0))], [(F(0), F(0)), (F(1), F(0))]),
        ([(F(0),), (F(5),)], [(F(0),), (F(5), F(1))]),
    ],
)
def test_mixed_dimensions_raise_value_error(prev, new):
    with pytest.raises(ValueError):
        nearest_lift_permutation(prev, new)


@pytest.mark.parametrize("dim", [1, 3, 4])
def test_other_dimensions_match_the_fraction_reference(dim):
    rng = random.Random(dim)
    for _ in range(200):
        k = rng.randint(1, 4)
        prev = [tuple(F(rng.randrange(-40, 41), 7) for _ in range(dim)) for _ in range(k)]
        order = rng.sample(range(k), k)
        new = [tuple(c + F(rng.randrange(-3, 4), 14) for c in prev[i]) for i in order]
        expected = reference_permutation(prev, new)
        if expected is None:
            with pytest.raises(AmbiguousMatchError):
                nearest_lift_permutation(prev, new)
        else:
            assert nearest_lift_permutation(prev, new) == expected
