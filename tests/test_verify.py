"""Self-verification suites: determinism, coverage, failure reporting."""

import random
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest

from geoplan import verify


def test_all_suites_pass_at_small_trials():
    reports = verify.run_suite("all", seed=7, trials=10)
    assert [r.suite for r in reports] == ["core", "torus", "klein", "cube"]
    for report in reports:
        failing = [c for c in report.checks if not c.passed]
        assert not failing, failing


def test_suite_is_deterministic_for_a_seed():
    a = verify.run_suite("torus", seed=3, trials=10)[0]
    b = verify.run_suite("torus", seed=3, trials=10)[0]
    assert a.to_document() == b.to_document()


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify.run_suite("everything")


def test_trials_must_be_positive():
    with pytest.raises(ValueError):
        verify.run_suite("core", trials=0)


def test_summary_lines_report_each_check():
    report = verify.run_suite("core", seed=1, trials=5)[0]
    lines = report.summary_lines()
    assert len(lines) == len(report.checks) + 1
    assert lines[-1].startswith("pass suite core")
    assert all(line.startswith("ok   core.") for line in lines[:-1])


def test_failures_are_counted_and_detailed():
    check = verify.CheckResult(name="example", trials=3)
    check.fail("first problem")
    check.fail("second problem")
    assert not check.passed
    assert check.failures == 2
    assert check.detail == "first problem"


@verify._check("fails_then_raises_n{}")
def fails_then_raises(check, seed, trials, n):
    check.fail("first problem")
    raise ValueError("planted")


@verify._check("raises_at_once")
def raises_at_once(check, seed, trials):
    raise LookupError("planted")


@verify._check("interrupted")
def interrupted(check, seed, trials):
    raise KeyboardInterrupt


def test_check_lifecycle_turns_an_exception_into_one_failure():
    check = fails_then_raises(0, 5, 3)
    assert (check.name, check.trials, check.failures) == ("fails_then_raises_n3", 5, 2)
    assert check.detail == "first problem"
    check = raises_at_once(0, 0)
    assert (check.trials, check.failures) == (1, 1)
    assert check.detail == "LookupError: planted"
    with pytest.raises(KeyboardInterrupt):
        interrupted(0, 5)


def test_klein_planner_continuity_skips_nudges_across_a_cut_edge():
    """At seed 3 a domain-0 nudge of the target crosses a cut edge, where the
    planned geodesic rightly jumps; that pair is not a continuity case."""
    check = verify.klein_planner_continuity(3, 200)
    assert check.passed, check.detail


@pytest.mark.parametrize("seed, n", [(10, 3), (41, 1)])
def test_torus_planner_continuity_compares_paths_modulo_the_lattice(seed, n):
    """At these seeds a nudge moves a coordinate at 0 below it (x3 = 0 at
    seed 10, x = 0 at seed 41), so the canonical lift of the nudged pair
    starts a whole period away, while on the torus the planned path moves
    by less than delta."""
    check = verify.torus_planner_continuity(seed, 200, n)
    assert check.passed, check.detail


def test_klein_planner_continuity_pairs_theta_vertices_in_the_bottle():
    """At seed 12, base (48/97, 44/89), a theta vertex at v = 177/178 moves
    across v = 1, so sorted reduced coordinates pair it with the other
    vertex; the nearest vertex in the bottle is the one it moved to."""
    check = verify.klein_planner_continuity(12, 200)
    assert check.passed, check.detail


def test_orbit_minimizers_scale_mixed_denominators():
    base = (Fraction(1, 3), 0)
    points = [(Fraction(5, 6), 0), (Fraction(-1, 6), 0), (0, Fraction(1, 2)), (1, 1)]
    assert verify._orbit_minimizers(base, points) == [0, 1]


def test_lift_orbit_covers_the_window():
    """The Klein window lists each word alpha^a beta^b (y) with |a|, |b| <= 1
    once, at the point its deck element sends y to."""
    from geoplan.klein_bottle import DeckElement, KleinPoint

    y = KleinPoint.make((Fraction(1, 4), Fraction(1, 4)))
    orbit = verify._orbit_window(y.coords, verify._KLEIN_POWERS, 1)
    assert sorted(exps for _, exps in orbit) == list(product((-1, 0, 1), repeat=2))
    assert len({lift for lift, _ in orbit}) == 9
    for lift, exps in orbit:
        assert DeckElement(*exps).apply(y.coords) == lift


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unit_lattice_window_is_exact(n):
    """Count-law samples lie in [0, 1), so offsets of 2 are never minimal:
    the [-1, 1]^n and [-2, 2]^n scans find the same minimizers."""
    rng = random.Random(n)
    den = verify._DEN
    counts = set()
    for _ in range(200):
        x = [rng.randrange(den) for _ in range(n)]
        y = [rng.randrange(den) for _ in range(n)]
        for i in range(n):
            if rng.random() < 0.5:
                y[i] = (x[i] + den // 2) % den
        narrow = [p for p, _ in verify._orbit_window(y, verify._unit_shifts(n), 1)]
        wide = [p for p, _ in verify._orbit_window(y, verify._unit_shifts(n), 2)]
        got = [narrow[i] for i in verify._orbit_minimizers(x, narrow)]
        assert got == [wide[i] for i in verify._orbit_minimizers(x, wide)]
        counts.add(len(got))
    assert max(counts) > 1


STDLIB_ONLY = """
import importlib, pkgutil, sys
startup = set(sys.modules)
import geoplan
modules = [geoplan] + [
    importlib.import_module("geoplan." + info.name)
    for info in pkgutil.iter_modules(geoplan.__path__)
]
stale = [f"{m.__name__}.{name}" for m in modules for name in m.__all__ if not hasattr(m, name)]
assert not stale, f"__all__ names that do not resolve: {stale}"
from geoplan import verify
assert all(report.passed for report in verify.run_suite("all", trials=2))
loaded = {name.partition(".")[0] for name in set(sys.modules) - startup}
print(sorted(loaded - {"geoplan"} - set(sys.stdlib_module_names)))
"""


def test_package_loads_only_the_standard_library():
    """Every geoplan module, and a run of every suite, loads nothing beyond
    the standard library (modules the interpreter loaded at startup, such as
    site hooks, are not counted); every name in each module's ``__all__``
    resolves."""
    proc = subprocess.run(
        [sys.executable, "-c", STDLIB_ONLY], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
