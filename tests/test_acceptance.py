"""Acceptance gate: one test, and hence one pass/fail line under
``pytest -v``, per shipped guarantee.

Each criterion drives the randomized verification checks at full scale with a
fixed seed, so this module is deterministic, and asserts the stated wall-time
budgets where a guarantee carries one.

  1. Torus counting law: 10^4 random rational pairs per dimension 1..4, the
     2^(k-1) law, cross-checked against lattice brute force; under 30 s.
  2. Torus planner: the n+1 domains partition a 50x50 grid plus 10^4 random
     pairs (n <= 3); sampled continuity at delta = 1/1000 within 4/1000.
  3. Klein cut-locus dichotomy on 10^3 basepoints: wedge exactly on the two
     special circles, theta elsewhere, multiplicities confirmed by the exact
     lift oracle.
  4. Klein planner: five domains partition sampled pairs, section values are
     true minimizing geodesics, sampled continuity at delta = 1/1000 within
     1/100; the glide-loop monodromy is a nontrivial order-2 permutation on
     both special circles while the torus control loop is the identity.
  5. Cube tables: the length/normalized-form identity, table argmins equal to
     the enumeration oracle's argmins exactly, the six listed symmetric
     diagonals with exactly four geodesics, six corner geodesics of squared
     length 5, the three-tier witness chain at derived offsets, and on 10^3
     adjacent-face pairs both halves of every geodesic a quarter of its
     squared length; under 60 s.
  6. Poset engine: builtin bounds (1, n, 3, 3) and rejection of each covering
     axiom violation; under 5 s.
  7. Exact constant-speed reparametrization on 10^3 random polylines of up to
     10 vertices: refused exactly when two chords have an irrational length
     ratio, otherwise parameter steps proportional to chord lengths,
     idempotent, endpoints and vertices fixed; straight segments pass the
     geodesic predicate at zero tolerance.
"""

import time

from geoplan import verify

SEED = 7


def _assert_passed(*checks) -> None:
    for check in checks:
        assert check.passed, f"{check.name}: {check.failures}/{check.trials} failed ({check.detail})"


def test_criterion_1_torus_count_law():
    start = time.monotonic()
    checks = [verify.torus_count_law(SEED, 10_000, n) for n in (1, 2, 3, 4)]
    elapsed = time.monotonic() - start
    _assert_passed(*checks)
    assert all(c.trials == 10_000 for c in checks)
    assert elapsed < 30, f"count-law run took {elapsed:.1f}s (budget 30s)"


def test_criterion_2_torus_planner_partition_and_continuity():
    for n in (1, 2, 3):
        _assert_passed(
            verify.torus_planner_partition(SEED, 10_000, n),
            verify.torus_planner_continuity(SEED, 1_000, n),
        )


def test_criterion_3_klein_cut_dichotomy():
    check = verify.klein_cut_dichotomy(SEED, 1_000)
    _assert_passed(check)
    assert check.trials >= 1_000


def test_criterion_4_klein_planner_and_monodromy():
    _assert_passed(
        verify.klein_planner_partition(SEED, 2_000),
        verify.klein_planner_continuity(SEED, 500),
        verify.klein_monodromy_nontrivial(SEED, 5),
    )


def test_criterion_5_cube_tables_and_witnesses():
    start = time.monotonic()
    checks = [
        verify.cube_identity(SEED, 1_000),
        verify.cube_formula_oracle(SEED, 1_000),
        verify.cube_symmetric_diagonal(SEED, 6),
        verify.cube_corner_geodesics(SEED, 1),
        verify.cube_witnesses(SEED, 25),
        verify.cube_halves(SEED, 1_000),
    ]
    elapsed = time.monotonic() - start
    _assert_passed(*checks)
    assert elapsed < 60, f"cube run took {elapsed:.1f}s (budget 60s)"


def test_criterion_6_poset_bounds_and_rejections():
    start = time.monotonic()
    checks = [
        verify.poset_builtin_bounds(SEED, 1),
        verify.poset_rejects_violations(SEED, 1),
    ]
    elapsed = time.monotonic() - start
    _assert_passed(*checks)
    assert elapsed < 5, f"poset run took {elapsed:.1f}s (budget 5s)"


def test_criterion_7_exact_reparametrization():
    _assert_passed(
        verify.core_reparametrization(SEED, 1_000),
        # runs half the trials it is given: 1,000
        verify.core_straight_segments(SEED, 2_000),
    )
