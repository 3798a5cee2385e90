"""Planted defects that the ``verify`` checks must kill.

Each row plants one defect in a library function with ``monkeypatch`` and
runs one ``verify`` check at seed 0 with the trial count its suite uses by
default.  The check kills the mutant when it reports failures (never more
than its trials); a defect that makes the library raise is reported the same
way, with the error in the detail.  A row that no check kills is an open
oracle gap, kept as a strict ``xfail`` with its reason, so that a stronger
check shows up as an unexpected pass."""

import __future__
import inspect
import textwrap

import pytest

from geoplan import cube_sphere, cutgraph, flat_torus, klein_bottle, strat_cover, verify
from geoplan.klein_bottle import DeckElement, KleinPoint


def source_mutant(owner, name, old, new):
    """A plant: ``owner.name`` recompiled from its source with the one
    occurrence of ``old`` replaced by ``new``, so a defect inside a function
    body can be planted without copying the body into the test.  The owner
    is a module or a class: a method's source is dedented and keeps its
    decorators, so a ``staticmethod`` or a ``classmethod`` stays one."""

    def plant(monkeypatch):
        source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
        assert source.count(old) == 1, f"{name} no longer reads {old!r}"
        code = compile(
            source.replace(old, new),
            f"<mutant of {name}>",
            "exec",
            flags=__future__.annotations.compiler_flag,
            dont_inherit=True,
        )
        # A copy of the module's globals, so the mutant's def binds nothing there.
        namespace = dict(vars(inspect.getmodule(owner)))
        exec(code, namespace)
        monkeypatch.setattr(owner, name, namespace[name])

    return plant


#: The Dirichlet cell clipped by the four axis translates only: every cell is
#: the box X +- (p1/2, p2/2).
box_cells = source_mutant(
    cutgraph,
    "_scaled_cell",
    "if (qx - bx) ** 2 + (qy - by) ** 2 < px * abs(qx - bx) + py * abs(qy - by)\n        or ",
    "if ",
)

#: ``_clip`` tags a crossing with the tag of the corner before it, also where
#: the edge leaving the crossing lies on the new bisector.
stale_crossing_tag = source_mutant(
    cutgraph,
    "_clip",
    "out.append(((cx // g, cy // g, w // g), q if a < 0 else tag))",
    "out.append(((cx // g, cy // g, w // g), tag))",
)

#: ``KleinPoint.locate`` without the glide flip: an odd turn in u no longer
#: mirrors v, so ``make`` misreduces such lifts and deck tags with an odd
#: ``a`` and ``b != 0`` come out wrong.
flipless_locate = source_mutant(KleinPoint, "locate", "scale - v if a % 2 else v", "v")

#: ``_breakpoints`` keeps crossing coordinates unreduced, so equal traces get
#: different keys and tied unfoldings no longer merge, and a crossing at a
#: path's corner start or end no longer reads as that corner: the corner
#: limit traces then repeat it and match no corner geodesic.
unreduced_breakpoints = source_mutant(cube_sphere, "_breakpoints", "g = gcd(num, den)", "g = 1")

#: ``_face_sequences`` tests the second face against ``ends``, not
#: ``starts``, so it drops every two-face sequence into an end face: the
#: adjacent pair z-:1/3,0 -> x+:0,1/5 is answered by a four-face path of
#: squared length 2809/225 instead of 49/225.
wrong_prune = source_mutant(
    cube_sphere, "_face_sequences", "path[1] not in starts", "path[1] not in ends"
)

#: ``_faces_at`` keeps the first face only, so an edge or corner point reads
#: as lying on its owner face alone: a query at the corner pair then has no
#: chart in the faces its limit sequences start in.
closed_interior = source_mutant(cube_sphere, "_faces_at", "== half\n    )", "== half\n    )[:1]")

#: ``CubePoint.make`` takes a chart coordinate of +-1/2 as interior, so an
#: edge or corner point keeps the face it was given instead of its owner.
closed_make_shortcut = source_mutant(
    cube_sphere.CubePoint,
    "make",
    "< u.denominator and 2 * abs(v.numerator) < v.denominator",
    "<= u.denominator and 2 * abs(v.numerator) <= v.denominator",
)

#: ``corner_limit_geodesics`` steps its midpoints by the inverse of the
#: corner symmetry, so D2..D6 name the corner geodesics in reverse order: the
#: labeling agrees with itself but not with the corner poset's table.
reversed_sixth_turn = source_mutant(
    cube_sphere,
    "corner_limit_geodesics",
    "m = (-m[2], -m[0], -m[1])",
    "m = (-m[1], -m[2], -m[0])",
)


def unsorted_tied_cosets(monkeypatch):
    """``_flat_geodesics`` leaves the lifts of tied cosets in coset order
    instead of sorting them, so the geodesics of a pair with two nearest
    cosets come out of order.  ``klein_bottle`` binds the name itself, so
    the mutant is planted there too."""
    source_mutant(
        flat_torus, "_flat_geodesics", "lifts = sorted(lifts)", "lifts = list(lifts)"
    )(monkeypatch)
    monkeypatch.setattr(klein_bottle, "_flat_geodesics", flat_torus._flat_geodesics)

#: ``klein_plan`` takes the shortest horizontal run at its theta vertices,
#: one of the two majority lifts, instead of the longest.
shortest_theta_run = source_mutant(
    klein_bottle,
    "klein_plan",
    "max(geos, key=lambda g: abs(g.displacement[0]))",
    "min(geos, key=lambda g: abs(g.displacement[0]))",
)


def identity_permutation(monkeypatch):
    """The loop permutation read from ``start``: every loop is the identity."""
    original = flat_torus._loop_permutation

    def mutant(*args):
        scale, start, permutation = original(*args)
        return scale, start, tuple(range(len(permutation)))

    monkeypatch.setattr(flat_torus, "_loop_permutation", mutant)
    monkeypatch.setattr(klein_bottle, "_loop_permutation", mutant)


def unflipped_glide(monkeypatch):
    """The Klein closing map as a plain shift: ``alpha`` loses its flip."""

    def mutant(self, point, scale):
        return (point[0] + self.a * scale, point[1] + self.b * scale)

    monkeypatch.setattr(DeckElement, "apply_scaled", mutant)


def one_sided_tie(monkeypatch):
    """``_nearest_translates`` keeps one side of a half-period tie."""
    original = flat_torus._nearest_translates
    monkeypatch.setattr(
        flat_torus, "_nearest_translates", lambda *args: [cs[-1:] for cs in original(*args)]
    )


def union_inconsistency(monkeypatch):
    """``_inconsistent`` tests the union of the images, not their intersection."""

    def mutant(incoming):
        return bool(incoming) and not set().union(*(c.mapping.values() for c in incoming))

    monkeypatch.setattr(strat_cover, "_inconsistent", mutant)


def no_composition_errors(monkeypatch):
    """``validate_poset`` drops its composition-mismatch errors."""
    original = strat_cover.validate_poset
    monkeypatch.setattr(
        strat_cover,
        "validate_poset",
        lambda p: tuple(e for e in original(p) if not e.startswith("composition mismatch")),
    )


def three_face_budget(monkeypatch):
    """``cube_geodesics`` ranks only the face sequences of at most 3 faces."""
    original = cube_sphere._face_sequences
    monkeypatch.setattr(
        cube_sphere,
        "_face_sequences",
        lambda starts, ends: tuple(row for row in original(starts, ends) if len(row[0]) <= 3),
    )


def swapped_candidates(monkeypatch):
    """The opposite-face candidates 2 and 3 trade face sequences."""
    seqs = list(cube_sphere._CANDIDATES)
    seqs[1], seqs[2] = seqs[2], seqs[1]
    monkeypatch.setattr(cube_sphere, "_CANDIDATES", tuple(seqs))


def without_errors(ending):
    """A plant: ``validate_poset`` drops its errors that end with ``ending``."""

    def plant(monkeypatch):
        original = strat_cover.validate_poset
        monkeypatch.setattr(
            strat_cover,
            "validate_poset",
            lambda p: tuple(e for e in original(p) if not e.endswith(ending)),
        )

    return plant


@pytest.mark.parametrize(
    "plant, check, detail",
    [
        pytest.param(
            identity_permutation,
            lambda: verify.klein_monodromy_nontrivial(0, 5),
            None,
            id="identity-permutation-klein-monodromy",
        ),
        pytest.param(
            unflipped_glide,
            lambda: verify.klein_monodromy_nontrivial(0, 5),
            "RuntimeError: loop closure failed",
            id="unflipped-glide-klein-monodromy",
        ),
        pytest.param(
            unflipped_glide,
            lambda: verify.klein_deck_composition(0, 200),
            "composition law broken",
            id="unflipped-glide-klein-deck-composition",
        ),
        pytest.param(
            one_sided_tie,
            lambda: verify.torus_count_law(0, 200, 2),
            None,
            id="one-sided-tie-torus-count-law",
        ),
        pytest.param(
            one_sided_tie,
            lambda: verify.torus_monodromy_control(0, 20),
            None,
            id="one-sided-tie-torus-monodromy-control",
        ),
        pytest.param(
            one_sided_tie,
            lambda: verify.klein_lift_oracle(0, 200),
            None,
            id="one-sided-tie-klein-lift-oracle",
        ),
        pytest.param(
            union_inconsistency,
            lambda: verify.poset_builtin_bounds(0, 200),
            None,
            id="union-inconsistency-poset-builtin-bounds",
        ),
        pytest.param(
            union_inconsistency,
            lambda: verify.poset_monotonicity(0, 200),
            "TypeError",
            id="union-inconsistency-poset-monotonicity",
        ),
        pytest.param(
            no_composition_errors,
            lambda: verify.poset_rejects_violations(0, 200),
            "composition-inconsistent chains accepted",
            id="no-composition-errors-poset-rejects-violations",
        ),
        pytest.param(
            union_inconsistency,
            lambda: verify.poset_relabel_invariance(0, 50),
            "no bound for circle",
            id="union-inconsistency-poset-relabel-invariance",
        ),
        pytest.param(
            without_errors("is not between adjacent levels"),
            lambda: verify.poset_rejects_violations(0, 200),
            "level-skipping cover accepted",
            id="no-adjacency-errors-poset-rejects-violations",
        ),
        pytest.param(
            without_errors("map leaves the destination sheets"),
            lambda: verify.poset_rejects_violations(0, 200),
            "sheet outside the destination accepted",
            id="no-foreign-sheet-errors-poset-rejects-violations",
        ),
        pytest.param(
            three_face_budget,
            lambda: verify.cube_formula_oracle(0, 200),
            "formula min != oracle min",
            id="three-face-budget-cube-formula-oracle",
        ),
        pytest.param(
            flipless_locate,
            lambda: verify.klein_lift_oracle(0, 200),
            "geodesics differ from the orbit scan",
            id="flipless-locate-klein-lift-oracle",
        ),
        pytest.param(
            unreduced_breakpoints,
            lambda: verify.cube_corner_geodesics(0, 1),
            "RuntimeError: limit of A1 is not a corner geodesic",
            id="unreduced-breakpoints-cube-corner-geodesics",
        ),
        pytest.param(
            unreduced_breakpoints,
            lambda: verify.cube_corner_convergence(0, 8),
            "RuntimeError: limit of A1 is not a corner geodesic",
            id="unreduced-breakpoints-cube-corner-convergence",
        ),
        pytest.param(
            box_cells,
            lambda: verify.klein_cut_dichotomy(0, 200),
            "dichotomy violated at",
            id="box-cells-klein-cut-dichotomy",
        ),
        pytest.param(
            box_cells,
            lambda: verify.klein_theta_frozen(0, 1),
            "frozen theta data mismatch",
            id="box-cells-klein-theta-frozen",
        ),
        pytest.param(
            stale_crossing_tag,
            lambda: verify.klein_theta_frozen(0, 1),
            "RuntimeError: unexpected Dirichlet cell of",
            id="stale-crossing-tag-klein-theta-frozen",
        ),
        pytest.param(
            unsorted_tied_cosets,
            lambda: verify.klein_cut_dichotomy(0, 200),
            "geodesics differ from the orbit scan at cut vertex",
            id="unsorted-tied-cosets-klein-cut-dichotomy",
        ),
        pytest.param(
            wrong_prune,
            lambda: verify.cube_halves(0, 200),
            "halves of a geodesic are not shortest",
            id="wrong-prune-cube-halves",
        ),
        pytest.param(
            swapped_candidates,
            lambda: verify.cube_identity(0, 200),
            "identity fails at",
            id="swapped-candidates-cube-normalization-identity",
        ),
        pytest.param(
            closed_interior,
            lambda: verify.cube_corner_geodesics(0, 1),
            "KeyError: 'z-'",
            id="closed-interior-cube-corner-geodesics",
        ),
        pytest.param(
            closed_interior,
            lambda: verify.cube_corner_convergence(0, 8),
            "KeyError: 'z-'",
            id="closed-interior-cube-corner-convergence",
        ),
        pytest.param(
            reversed_sixth_turn,
            lambda: verify.cube_corner_geodesics(0, 1),
            "corner limits differ from the poset's table",
            id="reversed-sixth-turn-cube-corner-geodesics",
        ),
        pytest.param(
            closed_make_shortcut,
            lambda: verify.cube_corner_geodesics(0, 1),
            "corner z-:-1/2,-1/2 is not in its owner's chart",
            id="closed-make-shortcut-cube-corner-geodesics",
        ),
        pytest.param(
            shortest_theta_run,
            lambda: verify.klein_planner_partition(0, 200),
            "theta choice is not the lift alone on its run",
            id="shortest-theta-run-klein-planner-partition",
        ),
    ],
)
def test_verify_kills_the_mutant(monkeypatch, plant, check, detail):
    plant(monkeypatch)
    result = check()
    assert 0 < result.failures <= result.trials
    if detail:
        assert detail in result.detail
