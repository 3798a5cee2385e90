"""Level-wise stratified-covering posets and planner-count bounds.

A finite poset records how the sheets of geodesic coverings over the strata
of a neighborhood fit together: each element is a path component of a stratum
(with a level and a finite sheet set), and each covering relation between
adjacent levels carries an injective sheet map saying where every sheet
accumulates.

When every element above the bottom level is *inconsistent* -- the images of
its incoming covering-relation maps have empty intersection -- no continuous
choice of geodesic can extend across the levels, and any decomposition of the
pair space into locally compact planner domains needs at least ``N`` pieces
(``N`` = number of levels).  That yields the lower bound ``N - 1`` reported
here.  When additionally the coverings are trivial over each stratum, the
strata are locally compact and each intersects the neighborhood, ``N - 1`` is
also an upper bound, certifying equality.

The module is purely combinatorial; geometric facts enter only through the
caller-asserted :class:`PosetFlags` and through the builtin poset data, which
the geometry modules re-derive and cross-check in their own test suites.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations, product

__all__ = [
    "BoundReport",
    "CoverMap",
    "PosetElement",
    "PosetFlags",
    "StratPoset",
    "ValidationReport",
    "builtin_poset",
    "builtin_names",
    "circle_poset",
    "cube_corner_poset",
    "from_document",
    "inconsistent_at",
    "klein_s4_poset",
    "loads_document",
    "lower_bound",
    "to_document",
    "torus_corner_poset",
    "upper_bound_if_trivial",
    "validate_poset",
]


@dataclass(frozen=True)
class PosetElement:
    """A stratum path component: id, level (1-based) and its sheet labels."""

    id: str
    level: int
    sheets: tuple[str, ...]


@dataclass(frozen=True)
class CoverMap:
    """A covering relation ``src -> dst`` with its injective sheet map."""

    src: str
    dst: str
    mapping: dict[str, str] = field(hash=False)

    def image(self) -> frozenset[str]:
        return frozenset(self.mapping.values())


@dataclass(frozen=True)
class PosetFlags:
    """Caller-asserted hypotheses for the equality certificate.

    ``trivial_coverings``: the geodesic covering over every stratum is trivial
    (a global continuous choice exists per stratum).
    ``locally_compact``: every stratum is locally compact.
    ``nonempty_intersections``: every stratum meets the neighborhood.
    """

    trivial_coverings: bool
    locally_compact: bool
    nonempty_intersections: bool

    def all_true(self) -> bool:
        return (
            self.trivial_coverings
            and self.locally_compact
            and self.nonempty_intersections
        )


class StratPoset:
    """Immutable container for elements and covering relations."""

    def __init__(self, elements, covers):
        self.elements: tuple[PosetElement, ...] = tuple(elements)
        self.covers: tuple[CoverMap, ...] = tuple(covers)
        self.by_id: dict[str, PosetElement] = {e.id: e for e in self.elements}
        self._incoming: dict[str, list[CoverMap]] = {e.id: [] for e in self.elements}
        self._outgoing: dict[str, list[CoverMap]] = {e.id: [] for e in self.elements}
        for c in self.covers:
            if c.dst in self._incoming:
                self._incoming[c.dst].append(c)
            if c.src in self._outgoing:
                self._outgoing[c.src].append(c)

    def incoming(self, element_id: str) -> list[CoverMap]:
        return list(self._incoming.get(element_id, []))

    def outgoing(self, element_id: str) -> list[CoverMap]:
        return list(self._outgoing.get(element_id, []))

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(sorted({e.level for e in self.elements}))

    def level_count(self) -> int:
        return len(self.levels)

    def __repr__(self) -> str:
        return f"StratPoset({len(self.elements)} elements, {len(self.covers)} covers)"


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    errors: tuple[str, ...]

    @property
    def first_error(self) -> str | None:
        return self.errors[0] if self.errors else None


def validate_poset(p: StratPoset) -> ValidationReport:
    """Check the finite poset axioms.

    Verified: unique nonempty ids and sheets, positive contiguous levels,
    covers between existing elements on adjacent levels with at most one map
    per pair, each sheet map total on the source and injective into the
    destination, and composition consistency over all length-2 chains that
    share endpoints.
    """
    errors: list[str] = []
    if not p.elements:
        return ValidationReport(False, ("poset has no elements",))
    seen: set[str] = set()
    for e in p.elements:
        if not e.id:
            errors.append("element with empty id")
        if e.id in seen:
            errors.append(f"duplicate element id {e.id!r}")
        seen.add(e.id)
        if not isinstance(e.level, int) or e.level < 1:
            errors.append(f"element {e.id!r} has invalid level {e.level!r}")
        if not e.sheets:
            errors.append(f"element {e.id!r} has no sheets")
        if len(set(e.sheets)) != len(e.sheets):
            errors.append(f"element {e.id!r} repeats a sheet label")
    levels = {e.level for e in p.elements if isinstance(e.level, int) and e.level >= 1}
    if levels and levels != set(range(min(levels), max(levels) + 1)):
        errors.append(f"levels {sorted(levels)} are not contiguous")
    pairs: set[tuple[str, str]] = set()
    for c in p.covers:
        tag = f"cover {c.src!r}->{c.dst!r}"
        if c.src not in p.by_id or c.dst not in p.by_id:
            errors.append(f"{tag} references a missing element")
            continue
        if (c.src, c.dst) in pairs:
            errors.append(f"{tag} is duplicated")
        pairs.add((c.src, c.dst))
        src, dst = p.by_id[c.src], p.by_id[c.dst]
        if dst.level != src.level + 1:
            errors.append(f"{tag} is not between adjacent levels")
        if set(c.mapping) != set(src.sheets):
            errors.append(f"{tag} map is not total on the source sheets")
        if not set(c.mapping.values()) <= set(dst.sheets):
            errors.append(f"{tag} map leaves the destination sheets")
        if len(set(c.mapping.values())) != len(c.mapping):
            errors.append(f"{tag} map is not injective")
    # Composition consistency: two-step chains sharing endpoints must agree.
    if not errors:
        for a in p.elements:
            composites: dict[str, dict[str, str]] = {}
            for c1 in p.outgoing(a.id):
                for c2 in p.outgoing(c1.dst):
                    comp = {s: c2.mapping[c1.mapping[s]] for s in a.sheets}
                    prev = composites.get(c2.dst)
                    if prev is None:
                        composites[c2.dst] = comp
                    elif prev != comp:
                        errors.append(
                            f"composition mismatch from {a.id!r} to {c2.dst!r}"
                        )
    return ValidationReport(not errors, tuple(errors))


def inconsistent_at(p: StratPoset, element_id: str) -> bool:
    """True iff ``element_id`` has incoming covering maps whose images have
    empty intersection."""
    if element_id not in p.by_id:
        raise KeyError(element_id)
    incoming = p.incoming(element_id)
    if not incoming:
        return False
    images = [c.image() for c in incoming]
    meet = images[0]
    for im in images[1:]:
        meet &= im
    return not meet


@dataclass(frozen=True)
class BoundReport:
    """Outcome of the lower-bound analysis of a poset."""

    levels: int
    bottom_level: int
    lower_bound: int | None
    inconsistent_ids: tuple[str, ...]
    consistent_above_bottom: tuple[str, ...]
    valid: bool
    errors: tuple[str, ...]

    @property
    def applicable(self) -> bool:
        return self.lower_bound is not None


def lower_bound(p: StratPoset) -> BoundReport:
    """Analyze inconsistency and report the ``N - 1`` lower bound.

    The bound applies only when every element above the bottom level is
    inconsistent; otherwise ``lower_bound`` is ``None`` and the consistent
    offenders are listed.
    """
    report = validate_poset(p)
    if not report.ok:
        return BoundReport(
            levels=0,
            bottom_level=0,
            lower_bound=None,
            inconsistent_ids=(),
            consistent_above_bottom=(),
            valid=False,
            errors=report.errors,
        )
    bottom = min(p.levels)
    n_levels = p.level_count()
    inconsistent = tuple(
        e.id for e in p.elements if inconsistent_at(p, e.id)
    )
    consistent = tuple(
        e.id
        for e in p.elements
        if e.level > bottom and not inconsistent_at(p, e.id)
    )
    bound = n_levels - 1 if not consistent else None
    return BoundReport(
        levels=n_levels,
        bottom_level=bottom,
        lower_bound=bound,
        inconsistent_ids=inconsistent,
        consistent_above_bottom=consistent,
        valid=True,
        errors=(),
    )


def upper_bound_if_trivial(p: StratPoset, flags: PosetFlags) -> int | None:
    """Equality certificate: ``N - 1`` exactly when all three hypotheses are
    asserted by the caller, else ``None``."""
    report = validate_poset(p)
    if not report.ok:
        raise ValueError(f"invalid poset: {report.first_error}")
    if flags.all_true():
        return p.level_count() - 1
    return None


# ---------------------------------------------------------------------------
# Builtin posets
# ---------------------------------------------------------------------------

def circle_poset() -> StratPoset:
    """Local poset at an antipodal pair on the unit-circumference circle.

    Two one-geodesic components (clockwise side, counterclockwise side) sit
    under the antipodal component with sheets {cw, ccw}; the two incoming maps
    have disjoint images, so the top is inconsistent and the bound is 1.
    """
    elements = [
        PosetElement("near_cw", 1, ("cw",)),
        PosetElement("near_ccw", 1, ("ccw",)),
        PosetElement("antipodal", 2, ("cw", "ccw")),
    ]
    covers = [
        CoverMap("near_cw", "antipodal", {"cw": "cw"}),
        CoverMap("near_ccw", "antipodal", {"ccw": "ccw"}),
    ]
    return StratPoset(elements, covers)


def _sign_pattern_id(pattern: tuple[str, ...]) -> str:
    return "cell_" + "".join(pattern)


def torus_corner_poset(n: int) -> StratPoset:
    """Local poset at an all-antipodal pair on the flat n-torus.

    Patterns over {+,-,o} per coordinate: ``o`` marks a coordinate sitting on
    its antipodal wall, signs mark the shortest-arc direction of the rest.
    Level = 1 + number of ``o``; sheets are the full sign vectors compatible
    with the pattern; sheet maps are inclusions.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    elements = []
    covers = []
    all_patterns = list(product("+-o", repeat=n))
    for pattern in all_patterns:
        level = 1 + sum(1 for c in pattern if c == "o")
        free = [i for i, c in enumerate(pattern) if c == "o"]
        sheets = []
        for signs in product("+-", repeat=len(free)):
            label = list(pattern)
            for i, s in zip(free, signs):
                label[i] = s
            sheets.append("".join(label))
        elements.append(
            PosetElement(_sign_pattern_id(pattern), level, tuple(sorted(sheets)))
        )
    sheets_by_id = {e.id: e.sheets for e in elements}
    for pattern in all_patterns:
        for i, c in enumerate(pattern):
            if c == "o":
                continue
            bigger = list(pattern)
            bigger[i] = "o"
            src = _sign_pattern_id(pattern)
            dst = _sign_pattern_id(tuple(bigger))
            covers.append(CoverMap(src, dst, {s: s for s in sheets_by_id[src]}))
    elements.sort(key=lambda e: (e.level, e.id))
    covers.sort(key=lambda c: (c.src, c.dst))
    return StratPoset(elements, covers)


_KLEIN_LABELS = ("DL", "DR", "UL", "UR")


def klein_s4_poset() -> StratPoset:
    """Local poset at a four-geodesic pair on the flat Klein bottle.

    Levels: 4 chambers (one sheet each), 6 edge components (every 2-subset of
    {UR, UL, DR, DL} occurs: the vertical/horizontal pairs from the square
    cell edges, the diagonal pairs from the slanted-edge families, and the
    short-edge families {DR, DL} / {UR, UL} from the two hexagon branches),
    4 three-geodesic components (all 3-subsets), and the apex with all four
    sheets.  All maps are inclusions; every non-bottom element is
    inconsistent, giving the bound 3.
    """
    elements = [
        PosetElement(f"chamber_{lab}", 1, (lab,)) for lab in _KLEIN_LABELS
    ]
    for pair in combinations(_KLEIN_LABELS, 2):
        elements.append(PosetElement("edge_" + "_".join(pair), 2, pair))
    for triple in combinations(_KLEIN_LABELS, 3):
        elements.append(PosetElement("vertex_" + "_".join(triple), 3, triple))
    elements.append(PosetElement("apex", 4, _KLEIN_LABELS))
    covers = []
    by_level = {1: [], 2: [], 3: [], 4: []}
    for e in elements:
        by_level[e.level].append(e)
    for low, high in ((1, 2), (2, 3), (3, 4)):
        for a in by_level[low]:
            for b in by_level[high]:
                if set(a.sheets) <= set(b.sheets):
                    covers.append(CoverMap(a.id, b.id, {s: s for s in a.sheets}))
    return StratPoset(elements, sorted(covers, key=lambda c: (c.src, c.dst)))


#: Where each opposite-face path family lands among the six corner-to-corner
#: geodesics, in the limit at the corner pair.  Cross-checked geometrically by
#: the cube module's corner-limit computation.
CUBE_CORNER_LIMITS: dict[str, dict[int, str]] = {
    "A": {1: "D3", 4: "D4", 7: "D6", 10: "D1"},
    "B": {1: "D5", 4: "D6", 7: "D2", 10: "D3"},
    "C": {1: "D1", 4: "D2", 7: "D4", 10: "D5"},
}


def cube_corner_poset() -> StratPoset:
    """Local poset at an opposite-corner pair on the unit-cube boundary.

    For each of the three faces at the corner there is a four-geodesic
    diagonal family; pinching one coordinate splits it into two-geodesic
    families and then single-geodesic ones.  At the corner pair itself six
    geodesics survive, and the three family maps (given by the corner limit
    table) have pairwise two-element intersections but empty triple
    intersection, hence the bound 3.
    """
    elements = []
    covers = []
    for fam in "ABC":
        for idx in (1, 4, 7, 10):
            elements.append(PosetElement(f"path_{fam}{idx}", 1, (f"{fam}{idx}",)))
        for duo in ((1, 4), (7, 10)):
            sheets = tuple(f"{fam}{i}" for i in duo)
            eid = "pair_" + "_".join(sheets)
            elements.append(PosetElement(eid, 2, sheets))
            for s in sheets:
                covers.append(CoverMap(f"path_{s}", eid, {s: s}))
        fam_sheets = tuple(f"{fam}{i}" for i in (1, 4, 7, 10))
        elements.append(PosetElement(f"family_{fam}", 3, fam_sheets))
        for duo in ((1, 4), (7, 10)):
            sheets = tuple(f"{fam}{i}" for i in duo)
            covers.append(
                CoverMap(
                    "pair_" + "_".join(sheets),
                    f"family_{fam}",
                    {s: s for s in sheets},
                )
            )
    corner_sheets = tuple(f"D{i}" for i in range(1, 7))
    elements.append(PosetElement("corner", 4, corner_sheets))
    for fam in "ABC":
        mapping = {
            f"{fam}{idx}": dest for idx, dest in CUBE_CORNER_LIMITS[fam].items()
        }
        covers.append(CoverMap(f"family_{fam}", "corner", mapping))
    return StratPoset(elements, sorted(covers, key=lambda c: (c.src, c.dst)))


_BUILTIN_FLAGS = {
    "circle": PosetFlags(True, True, True),
    "torus_corner": PosetFlags(True, True, True),
    "klein_S4": PosetFlags(False, True, True),
    "cube_corner": PosetFlags(False, False, False),
}


def builtin_names() -> tuple[str, ...]:
    return ("circle", "torus_corner:<n>", "klein_S4", "cube_corner")


def builtin_poset(name: str) -> tuple[StratPoset, PosetFlags]:
    """Builtin poset plus its asserted hypothesis flags.

    Accepted names: ``circle``, ``torus_corner:N`` (or ``torus_corner(N)``),
    ``klein_S4``, ``cube_corner``.
    """
    name = name.strip()
    if name == "circle":
        return circle_poset(), _BUILTIN_FLAGS["circle"]
    if name == "klein_S4":
        return klein_s4_poset(), _BUILTIN_FLAGS["klein_S4"]
    if name == "cube_corner":
        return cube_corner_poset(), _BUILTIN_FLAGS["cube_corner"]
    for prefix in ("torus_corner:", "torus_corner("):
        if name.startswith(prefix):
            digits = name[len(prefix):].rstrip(")")
            if not digits.isdigit() or int(digits) < 1:
                raise ValueError(f"invalid torus dimension in {name!r}")
            return torus_corner_poset(int(digits)), _BUILTIN_FLAGS["torus_corner"]
    raise ValueError(f"unknown builtin poset {name!r}")


# ---------------------------------------------------------------------------
# JSON document round trip
# ---------------------------------------------------------------------------

def to_document(p: StratPoset, flags: PosetFlags) -> dict:
    """Serialize to the interchange schema (elements/covers/flags)."""
    return {
        "elements": [
            {"id": e.id, "level": e.level, "sheets": list(e.sheets)}
            for e in p.elements
        ],
        "covers": [
            {"src": c.src, "dst": c.dst, "map": dict(sorted(c.mapping.items()))}
            for c in p.covers
        ],
        "flags": {
            "trivial_coverings": flags.trivial_coverings,
            "locally_compact": flags.locally_compact,
            "nonempty_intersections": flags.nonempty_intersections,
        },
    }


def from_document(doc: dict) -> tuple[StratPoset, PosetFlags]:
    """Parse the interchange schema; raises ``ValueError`` on malformed input."""
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    try:
        elements = [
            PosetElement(
                id=str(e["id"]),
                level=int(e["level"]),
                sheets=tuple(str(s) for s in e["sheets"]),
            )
            for e in doc["elements"]
        ]
        covers = [
            CoverMap(
                src=str(c["src"]),
                dst=str(c["dst"]),
                mapping={str(k): str(v) for k, v in c["map"].items()},
            )
            for c in doc.get("covers", [])
        ]
        raw_flags = doc.get("flags", {})
        flags = PosetFlags(
            trivial_coverings=bool(raw_flags.get("trivial_coverings", False)),
            locally_compact=bool(raw_flags.get("locally_compact", False)),
            nonempty_intersections=bool(raw_flags.get("nonempty_intersections", False)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed poset document: {exc}") from exc
    return StratPoset(elements, covers), flags


def loads_document(text: str) -> tuple[StratPoset, PosetFlags]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    return from_document(doc)
