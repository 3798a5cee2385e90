"""Stratified-covering posets: validation, bounds, builtins, documents."""

import hashlib
import json
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoplan import strat_cover
from geoplan.render import dump_json
from geoplan.strat_cover import (
    CoverMap,
    PosetElement,
    PosetFlags,
    StratPoset,
    builtin_poset,
    circle_poset,
    from_document,
    loads_document,
    lower_bound,
    to_document,
    torus_corner_poset,
    upper_bound_if_trivial,
    validate_poset,
)

#: name -> (lower bound, element count, flag triple)
BUILTINS = {
    "circle": (1, 3, (True, True, True)),
    "torus_corner:1": (1, 3, (True, True, True)),
    "torus_corner:2": (2, 9, (True, True, True)),
    "torus_corner:3": (3, 27, (True, True, True)),
    "torus_corner:4": (4, 81, (True, True, True)),
    "klein_S4": (3, 15, (False, True, True)),
    "cube_corner": (3, 22, (False, False, False)),
}


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_bounds_and_shapes(name):
    bound, size, flag_triple = BUILTINS[name]
    poset, flags = builtin_poset(name)
    assert validate_poset(poset) == ()
    assert len(poset.elements) == size
    report = lower_bound(poset)
    assert report.valid
    assert report.lower_bound == bound
    assert report.levels == bound + 1
    assert (
        flags.trivial_coverings,
        flags.locally_compact,
        flags.nonempty_intersections,
    ) == flag_triple


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_equality_certificate_requires_all_flags(name):
    bound, _, flag_triple = BUILTINS[name]
    poset, flags = builtin_poset(name)
    upper = upper_bound_if_trivial(lower_bound(poset), flags)
    if all(flag_triple):
        assert upper == bound
    else:
        assert upper is None


#: sha256 of each builtin's canonical JSON document, as ``geoplan`` prints it.
BUILTIN_DOCUMENT_SHA256 = {
    "circle": "5bdb5754f227a5deff49f5e6c0996f1acabe71f4bdaef49f9ce4ed638e73f79d",
    "klein_S4": "9bca82a5d845df594fe059508a037eb57214f76b376dab096e40d23d547f0de2",
    "cube_corner": "15ad7ac7c148cfef0cb1e41ba79a6d50a898d22f342ad6f0411a98c991e684b4",
    "torus_corner:1": "d19f94c71bebf3c05a8906943a52662e1171a71b429a8218160e5d0af5a87b32",
    "torus_corner:2": "2f4ef361bdfa1ca4423115fa420fc873a98aaf0fb63db2d1cc3eeca226703002",
    "torus_corner:3": "556195e792f3ccfecbd8d05723cdab79048e9dcf771cbf23e0a0db4950e14cb2",
    "torus_corner:4": "b78aee7308d0dff76e555ad8a447235d1071d59d56a2681c48732b5cb269b738",
}


@pytest.mark.parametrize("name", sorted(BUILTIN_DOCUMENT_SHA256))
def test_builtin_documents_are_pinned(name):
    text = dump_json(to_document(*builtin_poset(name)))
    assert hashlib.sha256(text.encode()).hexdigest() == BUILTIN_DOCUMENT_SHA256[name]


def test_unknown_builtin_rejected():
    with pytest.raises(ValueError):
        builtin_poset("mystery")
    with pytest.raises(ValueError):
        builtin_poset("torus_corner:0")
    with pytest.raises(ValueError, match="invalid torus dimension"):
        builtin_poset("torus_corner:\u00b2")
    with pytest.raises(ValueError, match="invalid torus dimension"):
        builtin_poset("torus_corner:" + "1" * 5000)


def reference_inconsistent_ids(p):
    """The inconsistent elements found one element at a time: for each id,
    scan every cover for those into it and meet their images; no incoming
    map is consistent."""
    found = []
    for e in p.elements:
        images = [set(c.mapping.values()) for c in p.covers if c.dst == e.id]
        if images and not set.intersection(*images):
            found.append(e.id)
    return tuple(found)


@pytest.mark.parametrize("name", sorted(BUILTINS) + ["torus_corner:5"])
def test_inconsistent_ids_match_the_per_element_scan(name):
    poset, _ = builtin_poset(name)
    assert lower_bound(poset).inconsistent_ids == reference_inconsistent_ids(poset)


def test_bottom_elements_are_never_inconsistent():
    for name in BUILTINS:
        poset, _ = builtin_poset(name)
        report = lower_bound(poset)
        bottom = {e.id for e in poset.elements if e.level == report.bottom_level}
        assert bottom.isdisjoint(report.inconsistent_ids), name


def test_inconsistency_requires_incoming_maps():
    poset = StratPoset(
        [
            PosetElement("low", 1, ("s",)),
            PosetElement("high", 2, ("t",)),
        ],
        [],
    )
    # no incoming covers at "high": vacuously consistent, so no bound
    report = lower_bound(poset)
    assert report.inconsistent_ids == ()
    assert report.lower_bound is None
    assert report.consistent_above_bottom == ("high",)


def test_two_sided_images_with_empty_intersection_are_inconsistent():
    poset = StratPoset(
        [
            PosetElement("left", 1, ("l",)),
            PosetElement("right", 1, ("r",)),
            PosetElement("top", 2, ("a", "b")),
        ],
        [
            CoverMap("left", "top", {"l": "a"}),
            CoverMap("right", "top", {"r": "b"}),
        ],
    )
    # images inside the *top* element's sheets: {a} and {b}, disjoint
    report = lower_bound(poset)
    assert report.inconsistent_ids == ("top",)
    assert report.lower_bound == 1


class TestValidationRejections:
    def test_level_skip(self):
        poset = StratPoset(
            [
                PosetElement("a", 1, ("s",)),
                PosetElement("b", 2, ("t",)),
                PosetElement("c", 3, ("u",)),
            ],
            [CoverMap("a", "c", {"s": "u"})],
        )
        errors = validate_poset(poset)
        assert errors
        assert any("adjacent levels" in e for e in errors)

    def test_non_contiguous_levels(self):
        poset = StratPoset(
            [PosetElement("a", 1, ("s",)), PosetElement("b", 3, ("t",))],
            [],
        )
        errors = validate_poset(poset)
        assert errors
        assert any("contiguous" in e for e in errors)

    def test_non_injective_sheet_map(self):
        poset = StratPoset(
            [
                PosetElement("a", 1, ("p", "q")),
                PosetElement("b", 2, ("r", "r2")),
            ],
            [CoverMap("a", "b", {"p": "r", "q": "r"})],
        )
        errors = validate_poset(poset)
        assert errors
        assert any("injective" in e for e in errors)

    def test_composition_conflict(self):
        poset = StratPoset(
            [
                PosetElement("a", 1, ("s",)),
                PosetElement("b1", 2, ("t1",)),
                PosetElement("b2", 2, ("t2",)),
                PosetElement("c", 3, ("u", "v")),
            ],
            [
                CoverMap("a", "b1", {"s": "t1"}),
                CoverMap("a", "b2", {"s": "t2"}),
                CoverMap("b1", "c", {"t1": "u"}),
                CoverMap("b2", "c", {"t2": "v"}),
            ],
        )
        errors = validate_poset(poset)
        assert errors
        assert any("composition" in e for e in errors)

    def test_dangling_cover_reference(self):
        poset = StratPoset(
            [PosetElement("a", 1, ("s",))],
            [CoverMap("ghost", "a", {"x": "s"})],
        )
        errors = validate_poset(poset)
        assert errors
        assert any("missing element" in e for e in errors)

    def test_map_must_be_total_on_source_sheets(self):
        poset = StratPoset(
            [PosetElement("a", 1, ("s",)), PosetElement("b", 2, ("t",))],
            [CoverMap("a", "b", {"bogus": "t"})],
        )
        errors = validate_poset(poset)
        assert errors
        assert any("total" in e for e in errors)

    @pytest.mark.parametrize("level", ["x", None])
    def test_invalid_level_is_reported_not_raised(self, level):
        poset = StratPoset(
            [PosetElement("a", level, ("s",)), PosetElement("b", 2, ("s",))],
            [CoverMap("a", "b", {"s": "s"})],
        )
        # The cover a -> b gets no adjacency check: a's own error covers it.
        assert validate_poset(poset) == (f"element 'a' has invalid level {level!r}",)
        assert not lower_bound(poset).valid

    def test_invalid_poset_yields_no_bound(self):
        poset = StratPoset(
            [
                PosetElement("a", 1, ("s",)),
                PosetElement("b", 2, ("t",)),
                PosetElement("c", 3, ("u",)),
            ],
            [CoverMap("a", "c", {"s": "u"})],
        )
        report = lower_bound(poset)
        assert not report.valid
        assert report.lower_bound is None
        assert upper_bound_if_trivial(report, PosetFlags(True, True, True)) is None


def corner_reference(n):
    """The corner poset of the flat n-torus written out from its definition:
    patterns over ``+-o``, level 1 + #o, as sheets the sign vectors that
    agree with the pattern off its ``o``s, and inclusion maps to each pattern
    with one more ``o``; elements sorted by (level, id), covers by (src, dst)."""

    def sheets(pattern):
        return tuple(
            sorted(
                "".join(signs)
                for signs in product("+-", repeat=n)
                if all(c in ("o", s) for c, s in zip(pattern, signs))
            )
        )

    patterns = ["".join(p) for p in product("+-o", repeat=n)]
    sheets_of = {p: sheets(p) for p in patterns}
    elements = sorted(
        ((f"cell_{p}", 1 + p.count("o"), sheets_of[p]) for p in patterns),
        key=lambda e: (e[1], e[0]),
    )
    covers = sorted(
        (f"cell_{p}", f"cell_{p[:i]}o{p[i + 1:]}", {s: s for s in sheets_of[p]})
        for p in patterns
        for i, c in enumerate(p)
        if c != "o"
    )
    return elements, covers


@pytest.mark.parametrize("n", range(1, 8))
def test_torus_corner_poset_matches_its_definition(n):
    """The power's report, levels and repr, read before anything is built,
    equal those of the plain path over its built elements and covers, and
    those are the definition's."""
    elements, covers = corner_reference(n)
    poset = torus_corner_poset(n)
    report, levels, text = lower_bound(poset), poset.levels, repr(poset)
    assert not {"elements", "covers"} & set(vars(poset))
    assert [(e.id, e.level, e.sheets) for e in poset.elements] == elements
    assert [(c.src, c.dst, c.mapping) for c in poset.covers] == covers
    plain = StratPoset(poset.elements, poset.covers)
    assert report._asdict() == lower_bound(plain)._asdict()
    assert (levels, text) == (plain.levels, repr(plain))
    assert (report.valid, report.levels, report.lower_bound) == (True, n + 1, n)


def test_largest_admitted_power_is_answered_unbuilt():
    poset = torus_corner_poset(9)
    report = lower_bound(poset)
    assert (report.levels, report.lower_bound) == (10, 9)
    assert len(report.inconsistent_ids) == 3**9 - 2**9
    assert report.inconsistent_ids[0] == "cell_" + "+" * 8 + "o"
    assert report.inconsistent_ids[-1] == "cell_" + "o" * 9
    assert poset.levels == tuple(range(1, 11))
    assert repr(poset) == "StratPoset(19683 elements, 118098 covers)"
    assert not {"elements", "covers"} & set(vars(poset))


def inclusion_covers(elements):
    """The sheet-inclusion covers of ``elements`` by brute force over every
    ordered pair: ``(a, b, a's sheet map onto itself)`` wherever ``b`` sits
    one level above ``a`` and holds all of its sheets."""
    return [
        (a.id, b.id, {s: s for s in a.sheets})
        for a, b in product(elements, repeat=2)
        if b.level - a.level == 1 and set(b.sheets).issuperset(a.sheets)
    ]


def cover_key(cover):
    return cover[0], cover[1], sorted(cover[2].items())


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_covers_are_the_sheet_inclusions(name):
    """Every builtin's covers are the inclusion covers of its own elements,
    and the cube's also its three corner maps, which are its table's."""
    poset, _ = builtin_poset(name)
    covers = sorted(map(cover_key, poset.covers))
    expected = inclusion_covers(poset.elements)
    if name == "cube_corner":
        corner = [c for c in poset.covers if c.dst == "corner"]
        assert {(c.src[-1], int(k[1:])): v for c in corner for k, v in c.mapping.items()} == (
            strat_cover.CUBE_CORNER_LIMITS
        )
        expected += corner
    assert covers == sorted(map(cover_key, expected))


def test_sign_factor_is_the_renamed_circle():
    ids = {"near_cw": "+", "near_ccw": "-", "antipodal": "o"}
    sheets = {"cw": "+", "ccw": "-"}
    circle = circle_poset()
    factor = torus_corner_poset(1).factor
    assert factor.elements == tuple(
        PosetElement(ids[e.id], e.level, tuple(sheets[s] for s in e.sheets))
        for e in circle.elements
    )
    assert factor.covers == tuple(
        CoverMap(ids[c.src], ids[c.dst], {sheets[k]: sheets[v] for k, v in c.mapping.items()})
        for c in circle.covers
    )


def built_power(factor, n):
    """The ``n``-th power of a factor with one-character ids and sheets,
    built word by word: level 1 + the sum of the coordinates' heights,
    sheets the words of their sheets, and a cover for each factor cover on
    one coordinate, mapping that coordinate's letter and keeping the rest."""
    by_id = {e.id: e for e in factor.elements}
    elements = []
    for word in product(sorted(by_id), repeat=n):
        level = 1 + sum(by_id[x].level - 1 for x in word)
        sheets = tuple("".join(s) for s in product(*(by_id[x].sheets for x in word)))
        elements.append(PosetElement("cell_" + "".join(word), level, sheets))
    elements.sort(key=lambda e: (e.level, e.id))
    covers = []
    for e in elements:
        word = e.id[len("cell_"):]
        for i, x in enumerate(word):
            for c in factor.covers:
                if c.src == x:
                    dst = "cell_" + word[:i] + c.dst + word[i + 1:]
                    mapping = {s: s[:i] + c.mapping[s[i]] + s[i + 1:] for s in e.sheets}
                    covers.append(CoverMap(e.id, dst, mapping))
    return StratPoset(elements, covers)


#: Factors for the product rule beside the sign factor, which
#: ``test_torus_corner_poset_matches_its_definition`` covers: it with its
#: elements listed top first; one whose level-2 ``d`` and level-3 ``e`` keep
#: a common sheet, so consistent words exist; and one with two chains from
#: ``a`` to ``e`` that disagree.
SIGN = torus_corner_poset(1).factor
FACTORS = {
    "sign_top_first": StratPoset(SIGN.elements[::-1], SIGN.covers),
    "consistent_tops": StratPoset(
        [
            PosetElement("a", 1, ("x",)),
            PosetElement("b", 1, ("y",)),
            PosetElement("c", 2, ("x", "y")),
            PosetElement("d", 2, ("x",)),
            PosetElement("e", 3, ("x", "y")),
        ],
        [
            CoverMap("a", "c", {"x": "x"}),
            CoverMap("a", "d", {"x": "x"}),
            CoverMap("b", "c", {"y": "y"}),
            CoverMap("c", "e", {"x": "x", "y": "y"}),
            CoverMap("d", "e", {"x": "x"}),
        ],
    ),
    "mismatch": StratPoset(
        [
            PosetElement("a", 1, ("x",)),
            PosetElement("c", 2, ("x",)),
            PosetElement("d", 2, ("x",)),
            PosetElement("e", 3, ("x", "y")),
        ],
        [
            CoverMap("a", "c", {"x": "x"}),
            CoverMap("a", "d", {"x": "x"}),
            CoverMap("c", "e", {"x": "x"}),
            CoverMap("d", "e", {"x": "y"}),
        ],
    ),
}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(FACTORS))
def test_power_bound_is_the_bound_of_the_built_power(name, n):
    factor = FACTORS[name]
    lifted = strat_cover._power_bound(factor, n)
    built = lower_bound(built_power(factor, n))
    if name == "mismatch":
        assert not lifted.valid and not built.valid
        assert lifted.errors == lower_bound(factor).errors
    else:
        assert lifted._asdict() == built._asdict()
    if name == "consistent_tops":
        assert lifted.lower_bound is None and "cell_" + "e" * n in lifted.consistent_above_bottom


def _break(doc, how, pick=lambda seq, i: seq[i]):
    """Break one axiom of a corner-poset document, as the benchmark's
    mutation of the same name does: at a fixed place, or where ``pick``
    chooses among the candidates."""
    elements, covers = doc["elements"], doc["covers"]
    if how == "non_injective":
        m = pick([c for c in covers if len(c["map"]) >= 2], -1)["map"]
        keys = sorted(m)
        m[keys[1]] = m[keys[0]]
    elif how == "missing_element":
        pick(covers, 7)["dst"] = "absent"
    elif how == "level_gap":
        pick(elements, 13)["level"] += 2
    elif how == "not_total":
        m = pick(covers, 4)["map"]
        del m[sorted(m)[0]]
    elif how == "duplicate_id":
        elements.append(dict(pick(elements, 20)))
    elif how == "foreign_sheet":
        m = pick(covers, -2)["map"]
        m[sorted(m)[0]] = "foreign"


#: The exact report for each mutation of the 3-dimensional corner document.
MUTATION_ERRORS = {
    "non_injective": ("cover 'cell_oo-'->'cell_ooo' map is not injective",),
    "missing_element": ("cover 'cell_++o'->'absent' references a missing element",),
    "level_gap": (
        "cover 'cell_--+'->'cell_--o' is not between adjacent levels",
        "cover 'cell_---'->'cell_--o' is not between adjacent levels",
        "cover 'cell_--o'->'cell_-oo' is not between adjacent levels",
        "cover 'cell_--o'->'cell_o-o' is not between adjacent levels",
    ),
    "not_total": ("cover 'cell_++-'->'cell_+o-' map is not total on the source sheets",),
    "duplicate_id": ("duplicate element id 'cell_+oo'",),
    "foreign_sheet": ("cover 'cell_oo+'->'cell_ooo' map leaves the destination sheets",),
}


def _corner_document(n):
    elements, covers = corner_reference(n)
    return {
        "elements": [{"id": i, "level": lv, "sheets": list(s)} for i, lv, s in elements],
        "covers": [{"src": s, "dst": d, "map": dict(m)} for s, d, m in covers],
    }


@pytest.mark.parametrize("how", sorted(MUTATION_ERRORS))
def test_mutated_corner_document_reports_exact_errors(how):
    doc = _corner_document(3)
    _break(doc, how)
    poset, _ = from_document(doc)
    assert validate_poset(poset) == MUTATION_ERRORS[how]


SWAP = {"x": "y", "y": "x"}
IDENTITY = {"x": "x", "y": "y"}


def _diamond(first, second, inclusion_chain_first):
    """a -> b1 -> c carrying ``first`` then ``second``, and a -> b2 -> c
    carrying inclusions, all over the sheets x, y."""
    xy = ("x", "y")
    chains = [
        [CoverMap("a", "b1", first), CoverMap("b1", "c", second)],
        [CoverMap("a", "b2", IDENTITY), CoverMap("b2", "c", IDENTITY)],
    ]
    if inclusion_chain_first:
        chains.reverse()
    return StratPoset(
        [PosetElement(i, lv, xy) for i, lv in (("a", 1), ("b1", 2), ("b2", 2), ("c", 3))],
        [c for chain in chains for c in chain],
    )


@pytest.mark.parametrize("inclusion_chain_first", [False, True])
def test_permutation_chain_against_inclusion_chain(inclusion_chain_first):
    """A swap is a bijection of the sheets onto themselves, not an
    inclusion: one swap disagrees with the inclusion chain, two agree."""
    mismatch = _diamond(SWAP, IDENTITY, inclusion_chain_first)
    assert validate_poset(mismatch) == ("composition mismatch from 'a' to 'c'",)
    # Every map out of ``a`` is an inclusion, one two steps out is not.
    late = _diamond(IDENTITY, SWAP, inclusion_chain_first)
    assert validate_poset(late) == ("composition mismatch from 'a' to 'c'",)
    agree = _diamond(SWAP, SWAP, inclusion_chain_first)
    assert validate_poset(agree) == ()


@pytest.mark.parametrize("total_first", [False, True])
def test_shared_map_is_checked_against_each_source(total_first):
    """One dict on covers from two sources, total on only one of them."""
    shared = {"x": "x", "y": "y"}
    covers = [CoverMap("a", "c", shared), CoverMap("b", "c", shared)]
    if not total_first:
        covers.reverse()
    poset = StratPoset(
        [
            PosetElement("a", 1, ("x", "y")),
            PosetElement("b", 1, ("x",)),
            PosetElement("c", 2, ("x", "y")),
        ],
        covers,
    )
    assert validate_poset(poset) == ("cover 'b'->'c' map is not total on the source sheets",)


@pytest.mark.parametrize("fitting_first", [False, True])
def test_shared_map_is_checked_against_each_destination(fitting_first):
    """One inclusion dict sent to two destinations, one without sheet y."""
    shared = {"x": "x", "y": "y"}
    covers = [CoverMap("a", "fits", shared), CoverMap("a", "short", shared)]
    if not fitting_first:
        covers.reverse()
    poset = StratPoset(
        [
            PosetElement("a", 1, ("x", "y")),
            PosetElement("fits", 2, ("x", "y")),
            PosetElement("short", 2, ("x",)),
        ],
        covers,
    )
    assert validate_poset(poset) == ("cover 'a'->'short' map leaves the destination sheets",)


def reference_validate(p):
    """The poset axioms checked plainly: every test on every cover, and every
    two-step chain composed sheet by sheet, with no shared work."""
    if not p.elements:
        return ("poset has no elements",)
    errors = []
    sheet_sets = {}
    level = {}
    for e in p.elements:
        if not e.id:
            errors.append("element with empty id")
        if e.id in sheet_sets:
            errors.append(f"duplicate element id {e.id!r}")
        if not isinstance(e.level, int) or e.level < 1:
            errors.append(f"element {e.id!r} has invalid level {e.level!r}")
        if not e.sheets:
            errors.append(f"element {e.id!r} has no sheets")
        sheet_sets[e.id] = set(e.sheets)
        level[e.id] = e.level
        if len(sheet_sets[e.id]) != len(e.sheets):
            errors.append(f"element {e.id!r} repeats a sheet label")
    levels = {e.level for e in p.elements if isinstance(e.level, int) and e.level >= 1}
    if levels and len(levels) != max(levels) - min(levels) + 1:
        errors.append(f"levels {sorted(levels)} are not contiguous")

    def valid(level):
        return isinstance(level, int) and level >= 1

    pairs = set()
    outgoing = {i: [] for i in sheet_sets}
    for c in p.covers:
        tag = f"cover {c.src!r}->{c.dst!r}"
        if c.src not in sheet_sets or c.dst not in sheet_sets:
            errors.append(f"{tag} references a missing element")
            continue
        if (c.src, c.dst) in pairs:
            errors.append(f"{tag} is duplicated")
        pairs.add((c.src, c.dst))
        low, high = level[c.src], level[c.dst]
        if valid(low) and valid(high) and high != low + 1:
            errors.append(f"{tag} is not between adjacent levels")
        if set(c.mapping) != sheet_sets[c.src]:
            errors.append(f"{tag} map is not total on the source sheets")
        image = set(c.mapping.values())
        if not image <= sheet_sets[c.dst]:
            errors.append(f"{tag} map leaves the destination sheets")
        if len(image) != len(c.mapping):
            errors.append(f"{tag} map is not injective")
        outgoing[c.src].append(c)
    if not errors:
        for a in p.elements:
            composites = {}
            for first in outgoing[a.id]:
                for second in outgoing[first.dst]:
                    comp = tuple(second.mapping[first.mapping[s]] for s in a.sheets)
                    if composites.setdefault(second.dst, comp) != comp:
                        errors.append(f"composition mismatch from {a.id!r} to {second.dst!r}")
    return tuple(errors)


@st.composite
def shared_map_posets(draw):
    """A small poset on levels 1-3 whose covers draw their maps from a pool
    of dict objects: a new inclusion, a new injection into the destination,
    or a dict already used by an earlier cover, from the same source or
    another, to the same destination or another.  One element may then get
    an invalid level."""
    elements = []
    for level in range(1, draw(st.integers(1, 3)) + 1):
        for k in range(draw(st.integers(1, 3))):
            size = draw(st.integers(min(level, 3), 3))
            sheets = draw(st.permutations("pqr"))[:size]
            elements.append(PosetElement(f"e{level}{k}", level, tuple(sheets)))
    pool = []
    covers = []
    for a in elements:
        for b in elements:
            if b.level != a.level + 1:
                continue
            kind = draw(st.sampled_from(["none", "inclusion", "injection", "shared"]))
            if kind == "none":
                continue
            if kind == "inclusion":
                mapping = dict(zip(a.sheets, a.sheets))
            elif kind == "injection" or not pool:
                mapping = dict(zip(a.sheets, draw(st.permutations(b.sheets))))
            else:
                mapping = draw(st.sampled_from(pool))
            pool.append(mapping)
            covers.append(CoverMap(a.id, b.id, mapping))
    bad = draw(st.sampled_from(["keep", "keep", "keep", 0, None, "x"]))
    if bad != "keep":
        k = draw(st.integers(0, len(elements) - 1))
        elements[k] = PosetElement(elements[k].id, bad, elements[k].sheets)
    return StratPoset(elements, covers)


def _flip(sheets, i):
    """Each sign vector with its coordinate ``i`` flipped."""
    return {s: s[:i] + {"+": "-", "-": "+"}[s[i]] + s[i + 1:] for s in sheets}


@st.composite
def altered_corner_posets(draw):
    """A corner poset (shared inclusion maps) with one cover given the sign
    flip of the coordinate it opens, a bijection onto the destination's
    sheets that is no inclusion; or a corner document broken by one of the
    benchmark's mutations at drawn places."""
    n = draw(st.integers(2, 3))
    if draw(st.sampled_from(["flip", "mutation"])) == "flip":
        poset = torus_corner_poset(n)
        covers = list(poset.covers)
        k = draw(st.integers(0, len(covers) - 1))
        c = covers[k]
        opened = next(i for i, (u, v) in enumerate(zip(c.src, c.dst)) if u != v) - len("cell_")
        covers[k] = CoverMap(c.src, c.dst, _flip(c.mapping, opened))
        return StratPoset(poset.elements, covers)
    doc = _corner_document(3)
    how = draw(st.sampled_from(sorted(MUTATION_ERRORS)))
    _break(doc, how, lambda seq, _: draw(st.sampled_from(seq)))
    return from_document(doc)[0]


@st.composite
def shuffled_covers(draw, posets):
    """A poset from ``posets`` with its covers in a drawn order: one source's
    covers out of one run, and a shared map back after another map."""
    poset = draw(posets)
    return StratPoset(poset.elements, draw(st.permutations(poset.covers)))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        shared_map_posets(), shuffled_covers(shared_map_posets()), altered_corner_posets()
    )
)
def test_validate_poset_matches_reference(poset):
    assert validate_poset(poset) == reference_validate(poset)


def test_third_incoming_image_can_empty_the_meet():
    """Images {p, q}, {q, r}, {r, p}: every two meet, all three do not."""
    images = [("p", "q"), ("q", "r"), ("r", "p")]
    elements = [PosetElement(f"low{i}", 1, ("s", "t")) for i in range(3)]
    elements.append(PosetElement("top", 2, ("p", "q", "r")))
    covers = [CoverMap(f"low{i}", "top", {"s": u, "t": v}) for i, (u, v) in enumerate(images)]
    two = lower_bound(StratPoset(elements, covers[:2]))
    assert two.inconsistent_ids == ()
    assert two.consistent_above_bottom == ("top",)
    report = lower_bound(StratPoset(elements, covers))
    assert report.inconsistent_ids == ("top",)
    assert report.lower_bound == 1


def test_relabel_invariance():
    poset, _ = builtin_poset("torus_corner:2")
    rename = {e.id: f"cell_{i}" for i, e in enumerate(poset.elements)}
    sheet_rename = {
        (e.id, s): f"sheet_{i}_{j}"
        for i, e in enumerate(poset.elements)
        for j, s in enumerate(e.sheets)
    }
    relabeled = StratPoset(
        [
            PosetElement(
                rename[e.id],
                e.level,
                tuple(sheet_rename[(e.id, s)] for s in e.sheets),
            )
            for e in poset.elements
        ],
        [
            CoverMap(
                rename[c.src],
                rename[c.dst],
                {
                    sheet_rename[(c.src, k)]: sheet_rename[(c.dst, v)]
                    for k, v in c.mapping.items()
                },
            )
            for c in poset.covers
        ],
    )
    assert validate_poset(relabeled) == ()
    assert lower_bound(relabeled).lower_bound == lower_bound(poset).lower_bound


def test_monotonicity_under_top_level_removal():
    for name, (bound, _, _) in BUILTINS.items():
        if bound < 2:
            continue
        poset, _ = builtin_poset(name)
        top = max(poset.levels)
        kept = [e for e in poset.elements if e.level < top]
        kept_ids = {e.id for e in kept}
        trimmed = StratPoset(kept, [c for c in poset.covers if c.dst in kept_ids])
        report = lower_bound(trimmed)
        assert report.valid, name
        assert report.lower_bound == bound - 1, name


class TestRecords:
    """Elements and covers are named tuples: built positionally or by
    keyword, immutable, compared as tuples."""

    def test_positional_and_keyword_construction_agree(self):
        assert PosetElement("a", 1, ("s",)) == PosetElement(id="a", level=1, sheets=("s",))
        assert CoverMap("a", "b", {"s": "t"}) == CoverMap(src="a", dst="b", mapping={"s": "t"})

    def test_equality_is_tuple_equality(self):
        assert PosetElement("a", 1, ("s",)) == ("a", 1, ("s",))
        assert CoverMap("a", "b", {"s": "t"}) == ("a", "b", {"s": "t"})
        with pytest.raises(TypeError):
            hash(CoverMap("a", "b", {"s": "t"}))

    @pytest.mark.parametrize(
        "record, field",
        [(PosetElement("a", 1, ("s",)), "level"), (CoverMap("a", "b", {"s": "t"}), "dst")],
    )
    def test_fields_cannot_be_assigned(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, "x")

    def test_repr(self):
        cover = CoverMap("a", "b", {"s": "t"})
        assert repr(cover) == "CoverMap(src='a', dst='b', mapping={'s': 't'})"
        assert repr(PosetElement("a", 1, ("s",))) == "PosetElement(id='a', level=1, sheets=('s',))"

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_document_round_trip_returns_every_record(self, name):
        poset, flags = builtin_poset(name)
        back, _ = from_document(to_document(poset, flags))
        assert back.elements == poset.elements
        assert back.covers == poset.covers


class TestDocuments:
    def test_round_trip_preserves_bounds(self):
        for name in BUILTINS:
            poset, flags = builtin_poset(name)
            text = json.dumps(to_document(poset, flags))
            back, back_flags = loads_document(text)
            assert lower_bound(back).lower_bound == lower_bound(poset).lower_bound
            assert back_flags == flags

    def test_malformed_json_rejected(self):
        with pytest.raises(ValueError):
            loads_document("{not json")

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            from_document([1, 2, 3])
        with pytest.raises(ValueError):
            from_document({"elements": [{"id": "a"}]})

    @pytest.mark.parametrize(
        "damage,message",
        [
            (lambda d: d["elements"][1]["sheets"].extend([3, None]), "sheet must be str, not int"),
            (lambda d: d["elements"][1].update(sheets=("+",)), "sheets must be list, not tuple"),
            (lambda d: d["elements"][2].update(level=True), "level must be int, not bool"),
            (lambda d: d["covers"].insert(1, ["+", "o"]), "cover must be dict, not list"),
            # Names are not read through ``str``: a null id is not "None".
            (lambda d: d["elements"][0].update(id=None), "id must be str, not NoneType"),
            (lambda d: d["elements"][2].update(id=7), "id must be str, not int"),
            (lambda d: d["covers"][1].update(src=["near_ccw"]), "src must be str, not list"),
            (lambda d: d["covers"][0].update(dst=2.0), "dst must be str, not float"),
            (lambda d: d["covers"][1]["map"].update(ccw=None), "map value must be str, not NoneType"),
            (lambda d: d["covers"][0].update(map={1: "cw"}), "map key must be str, not int"),
        ],
        ids=[
            "sheet", "sheets", "level", "cover",
            "null-id", "int-id", "src", "dst", "map-value", "map-key",
        ],
    )
    def test_first_wrong_type_is_named(self, damage, message):
        doc = json.loads(dump_json(to_document(*builtin_poset("circle"))))
        damage(doc)
        with pytest.raises(ValueError) as info:
            from_document(doc)
        assert str(info.value) == f"malformed poset document: {message}"

    def test_document_maps_are_copies(self):
        poset, flags = builtin_poset("torus_corner:2")
        doc = to_document(poset, flags)
        for i, cover in enumerate(doc["covers"]):
            assert cover["map"] == poset.covers[i].mapping
            assert cover["map"] is not poset.covers[i].mapping
            cover["map"].clear()
        assert validate_poset(poset) == ()
        assert all(c.mapping for c in poset.covers)

    def test_missing_flags_default_to_false(self):
        poset, _ = builtin_poset("circle")
        doc = to_document(poset, PosetFlags(True, True, True))
        del doc["flags"]
        _, flags = from_document(doc)
        assert flags == PosetFlags(False, False, False)


SCHEMA_KEYS = [
    "elements", "covers", "flags", "id", "level", "sheets", "src", "dst", "map",
    "trivial_coverings", "locally_compact", "nonempty_intersections",
]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(SCHEMA_KEYS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(SCHEMA_KEYS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=20,
)


@st.composite
def damaged_documents(draw):
    """A valid poset document with one value, at any depth, replaced by an
    arbitrary JSON value."""
    doc = to_document(*builtin_poset("torus_corner:1"))
    node = doc
    while True:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        node[key] = draw(json_values)
        return doc


@settings(max_examples=300, deadline=None)
@given(st.one_of(json_values, damaged_documents()))
def test_any_json_value_parses_or_raises_value_error(doc):
    try:
        poset, flags = loads_document(json.dumps(doc))
    except ValueError:
        return
    upper_bound_if_trivial(lower_bound(poset), flags)


def test_far_apart_levels_are_reported_not_enumerated():
    doc = to_document(*builtin_poset("circle"))
    doc["elements"][0]["level"] = 10**18
    report = lower_bound(from_document(doc)[0])
    assert not report.valid
    assert any("not contiguous" in e for e in report.errors)
