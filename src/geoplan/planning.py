"""Shared planner-output records and geodesic-tracking helpers.

The space modules return a :class:`PlannerResult` from their ``*_plan``
functions, and both loop monodromies run through :func:`loop_monodromy`,
which tracks minimal lifts step by step by strictly nearest matching,
refusing to guess when a matching is ambiguous.  The matching compares
integer squared distances.  The loops hand over lifts that are already on
one integer scale, fixed once per loop; :func:`nearest_lift_permutation`
accepts rational lifts and first puts the two steps on one scale
(``metric_core.integer_points``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Any, Callable, Sequence

from .metric_core import integer_points

__all__ = [
    "AmbiguousMatchError",
    "PlannerResult",
    "loop_monodromy",
    "nearest_lift_permutation",
    "permutation_cycles",
    "permutation_order",
]


@dataclass(frozen=True)
class PlannerResult:
    """Outcome of a planner query: the chosen geodesic and its context.

    ``domain`` is the index of the planner domain the pair falls in (0 for
    the open dense cell), ``count`` the total number of minimizing geodesics,
    ``rule`` a short human-readable tag for the tie-breaking rule applied.
    """

    domain: int
    count: int
    rule: str
    geodesic: Any


class AmbiguousMatchError(RuntimeError):
    """Raised when nearest-lift tracking cannot decide a matching."""


def nearest_lift_permutation(
    prev: Sequence[Sequence[Fraction]],
    new: Sequence[Sequence[Fraction]],
) -> tuple[int, ...]:
    """Match each new lift to its strictly nearest previous lift.

    Returns ``perm`` with ``perm[j] = i`` meaning ``new[j]`` continues
    ``prev[i]``.  Raises :class:`AmbiguousMatchError` on a distance tie or if
    the assignment fails to be a bijection; callers control step size so that
    an honest error beats a silent wrong permutation.  The lifts may be any
    rationals: both steps are put on one integer scale first, and
    :func:`loop_monodromy`, whose lifts are on one scale already, runs the
    integer matching directly.
    """
    _, scaled = integer_points((*prev, *new))
    return _match_on_scale(scaled[: len(prev)], scaled[len(prev):])


def _match_on_scale(
    prev: Sequence[tuple[int, ...]], new: Sequence[tuple[int, ...]]
) -> tuple[int, ...]:
    """:func:`nearest_lift_permutation` for lifts on one integer scale."""
    if len(prev) != len(new):
        raise AmbiguousMatchError(
            f"lift count changed from {len(prev)} to {len(new)}"
        )
    if len({len(p) for p in (*prev, *new)}) > 1:
        raise ValueError("lifts of different dimensions")
    # |p - t|^2 = |p|^2 - 2 p.t + |t|^2, and |t|^2 is the same for every p:
    # ranking by the first two terms picks the same nearest lift and ties.
    norms = [sum(map(mul, p, p)) for p in prev]
    perm: list[int] = []
    for j, target in enumerate(new):
        dists = [n - 2 * sum(map(mul, p, target)) for n, p in zip(norms, prev)]
        best = min(dists)
        hits = [i for i, d in enumerate(dists) if d == best]
        if len(hits) != 1:
            raise AmbiguousMatchError(
                f"new lift {j} is equidistant from previous lifts {hits}"
            )
        perm.append(hits[0])
    if len(set(perm)) != len(perm):
        raise AmbiguousMatchError("nearest-lift assignment is not a bijection")
    return tuple(perm)


def loop_monodromy(
    lifts_at: Callable[[int], Sequence[tuple[int, ...]]],
    steps: int,
    closed: Sequence[tuple[int, ...]],
) -> tuple[int, ...]:
    """Permutation of the minimal lifts after one trip around a loop.

    ``lifts_at(j)`` returns the sorted minimal lifts at step ``j`` of
    ``0..steps``, every step on one integer scale; each step is matched to
    the last as in :func:`nearest_lift_permutation`.  ``closed`` lists, on
    the same scale and in step-0 order, the step-0 lifts carried by the deck
    transformation that closes the loop: the step-``steps`` lifts must be
    exactly these.  Entry ``i`` of the result is the index of the step-0
    lift that lift ``i`` arrives at.
    """
    if steps < 8:
        raise ValueError("need steps >= 8 for unambiguous matching")
    start = prev = lifts_at(0)
    ancestor = tuple(range(len(start)))
    try:
        for j in range(1, steps + 1):
            cur = lifts_at(j)
            step_perm = _match_on_scale(prev, cur)
            ancestor = tuple(ancestor[i] for i in step_perm)
            prev = cur
    except AmbiguousMatchError as exc:
        raise AmbiguousMatchError(
            f"{exc}; rerun with a finer loop (steps > {steps})"
        ) from exc
    if sorted(closed) != sorted(prev):
        raise RuntimeError("loop closure failed: final lifts differ from expected")
    sigma = [0] * len(start)
    for m, i in enumerate(ancestor):
        sigma[i] = closed.index(prev[m])
    return tuple(sigma)


def permutation_cycles(perm: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Disjoint cycles, each rotated to start at its smallest element."""
    seen: set[int] = set()
    cycles: list[tuple[int, ...]] = []
    for start in range(len(perm)):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        cur = perm[start]
        while cur != start:
            cycle.append(cur)
            seen.add(cur)
            cur = perm[cur]
        cycles.append(tuple(cycle))
    return tuple(sorted(cycles))


def permutation_order(perm: Sequence[int]) -> int:
    return lcm(*(len(c) for c in permutation_cycles(perm))) if perm else 1
