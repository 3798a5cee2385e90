"""Stratified-covering posets: validation, bounds, builtins, documents."""

import json
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoplan.strat_cover import (
    CoverMap,
    PosetElement,
    PosetFlags,
    StratPoset,
    builtin_poset,
    from_document,
    inconsistent_at,
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


def test_unknown_builtin_rejected():
    with pytest.raises(ValueError):
        builtin_poset("mystery")
    with pytest.raises(ValueError):
        builtin_poset("torus_corner:0")
    with pytest.raises(ValueError, match="invalid torus dimension"):
        builtin_poset("torus_corner:\u00b2")
    with pytest.raises(ValueError, match="invalid torus dimension"):
        builtin_poset("torus_corner:" + "1" * 5000)


def test_bottom_elements_are_never_inconsistent():
    for name in BUILTINS:
        poset, _ = builtin_poset(name)
        bottom = min(poset.levels)
        for e in poset.elements:
            if e.level == bottom:
                assert not inconsistent_at(poset, e.id)


def test_inconsistency_requires_incoming_maps():
    poset = StratPoset(
        [
            PosetElement("low", 1, ("s",)),
            PosetElement("high", 2, ("t",)),
        ],
        [],
    )
    # no incoming covers at "high": vacuously consistent, so no bound
    assert not inconsistent_at(poset, "high")
    report = lower_bound(poset)
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
    assert inconsistent_at(poset, "top")
    report = lower_bound(poset)
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
    elements = sorted(
        ((f"cell_{p}", 1 + p.count("o"), sheets(p)) for p in patterns),
        key=lambda e: (e[1], e[0]),
    )
    covers = sorted(
        (f"cell_{p}", f"cell_{p[:i]}o{p[i + 1:]}", {s: s for s in sheets(p)})
        for p in patterns
        for i, c in enumerate(p)
        if c != "o"
    )
    return elements, covers


@pytest.mark.parametrize("n", range(1, 6))
def test_torus_corner_poset_matches_its_definition(n):
    elements, covers = corner_reference(n)
    poset = torus_corner_poset(n)
    assert [(e.id, e.level, e.sheets) for e in poset.elements] == elements
    assert [(c.src, c.dst, c.mapping) for c in poset.covers] == covers


def _break(doc, how):
    """Break one axiom of a corner-poset document, as the benchmark's
    mutation of the same name does, at a fixed place."""
    elements, covers = doc["elements"], doc["covers"]
    if how == "non_injective":
        m = covers[-1]["map"]
        keys = sorted(m)
        m[keys[1]] = m[keys[0]]
    elif how == "missing_element":
        covers[7]["dst"] = "absent"
    elif how == "level_gap":
        elements[13]["level"] += 2
    elif how == "not_total":
        m = covers[4]["map"]
        del m[sorted(m)[0]]
    elif how == "duplicate_id":
        elements.append(dict(elements[20]))
    elif how == "foreign_sheet":
        m = covers[-2]["map"]
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


@pytest.mark.parametrize("how", sorted(MUTATION_ERRORS))
def test_mutated_corner_document_reports_exact_errors(how):
    elements, covers = corner_reference(3)
    doc = {
        "elements": [{"id": i, "level": lv, "sheets": list(s)} for i, lv, s in elements],
        "covers": [{"src": s, "dst": d, "map": dict(m)} for s, d, m in covers],
    }
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
    agree = _diamond(SWAP, SWAP, inclusion_chain_first)
    assert validate_poset(agree) == ()


def test_third_incoming_image_can_empty_the_meet():
    """Images {p, q}, {q, r}, {r, p}: every two meet, all three do not."""
    images = [("p", "q"), ("q", "r"), ("r", "p")]
    elements = [PosetElement(f"low{i}", 1, ("s", "t")) for i in range(3)]
    elements.append(PosetElement("top", 2, ("p", "q", "r")))
    covers = [CoverMap(f"low{i}", "top", {"s": u, "t": v}) for i, (u, v) in enumerate(images)]
    assert not inconsistent_at(StratPoset(elements, covers[:2]), "top")
    poset = StratPoset(elements, covers)
    assert inconsistent_at(poset, "top")
    assert lower_bound(poset).lower_bound == 1


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
        trimmed = StratPoset(
            [e for e in poset.elements if e.level < top],
            [c for c in poset.covers if poset.by_id[c.dst].level < top],
        )
        report = lower_bound(trimmed)
        assert report.valid, name
        assert report.lower_bound == bound - 1, name


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
