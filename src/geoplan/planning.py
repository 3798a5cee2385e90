"""Shared planner-output records and geodesic-tracking helpers.

The space modules return a :class:`PlannerResult` from their ``*_plan``
functions, and both loop monodromies run through :func:`loop_monodromy`,
which tracks minimal lifts step by step with
:func:`nearest_lift_permutation`, refusing to guess when a matching is
ambiguous.  The matching puts the lifts of one step on one integer scale
(``metric_core.integer_points``) and compares integer squared distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
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
    an honest error beats a silent wrong permutation.  All lifts of the step
    are put on one integer scale, so distances compare as integers.
    """
    if len(prev) != len(new):
        raise AmbiguousMatchError(
            f"lift count changed from {len(prev)} to {len(new)}"
        )
    _, scaled = integer_points((*prev, *new))
    anchors = scaled[: len(prev)]
    perm: list[int] = []
    for j, target in enumerate(scaled[len(prev):]):
        dists = [
            sum((a - b) * (a - b) for a, b in zip(p, target, strict=True))
            for p in anchors
        ]
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
    lifts_at: Callable[[int], Sequence[Sequence[Fraction]]],
    steps: int,
    close: Callable[[Sequence[Fraction]], Sequence[Fraction]],
) -> tuple[int, ...]:
    """Permutation of the minimal lifts after one trip around a loop.

    ``lifts_at(j)`` returns the sorted minimal lifts at step ``j`` of
    ``0..steps``; each step is matched to the last by
    :func:`nearest_lift_permutation`.  ``close`` is the deck transformation
    carrying the lifts of step 0 onto those of step ``steps``.  Entry ``i``
    of the result is the index of the step-0 lift that lift ``i`` arrives at.
    """
    if steps < 8:
        raise ValueError("need steps >= 8 for unambiguous matching")
    start = prev = lifts_at(0)
    ancestor = tuple(range(len(start)))
    try:
        for j in range(1, steps + 1):
            cur = lifts_at(j)
            step_perm = nearest_lift_permutation(prev, cur)
            ancestor = tuple(ancestor[i] for i in step_perm)
            prev = cur
    except AmbiguousMatchError as exc:
        raise AmbiguousMatchError(
            f"{exc}; rerun with a finer loop (steps > {steps})"
        ) from exc
    shifted = [close(p) for p in start]
    if sorted(shifted) != sorted(prev):
        raise RuntimeError("loop closure failed: final lifts differ from expected")
    sigma = [0] * len(start)
    for m, i in enumerate(ancestor):
        sigma[i] = shifted.index(prev[m])
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
