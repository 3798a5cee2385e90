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

A :class:`StratPoset` is its elements and covers; :func:`lower_bound` is the
one classification of them, and its report lists the inconsistent elements.
The flat torus's corner poset ``torus_corner_poset(n)`` is the n-th power of
a three-element sign factor, the circle's poset renamed.  It builds its 3^n
elements and covers only when one of them is read: :func:`lower_bound`
classifies the factor and lifts its report by the product rule proved in
:func:`_power_bound`.
Elements, covers, flags and reports are named tuples.
The module is purely combinatorial; geometric facts enter only through the
caller-asserted :class:`PosetFlags` and the builtins, which list their
strata only: one rule, :func:`_inclusions`, derives every cover that maps
sheets to themselves, and the only typed maps are the cube's, the corner
table ``CUBE_CORNER_LIMITS`` (``{(family, index): label}``), which
``verify``'s ``cube.corner_geodesics`` checks against the unfolding.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from itertools import chain, combinations, repeat
from operator import itemgetter

__all__ = [
    "BoundReport",
    "CoverMap",
    "PosetElement",
    "PosetFlags",
    "StratPoset",
    "builtin_poset",
    "circle_poset",
    "cube_corner_poset",
    "from_document",
    "klein_s4_poset",
    "loads_document",
    "lower_bound",
    "parse_builtin_name",
    "to_document",
    "torus_corner_poset",
    "upper_bound_if_trivial",
    "validate_poset",
]


class PosetElement(namedtuple("PosetElement", "id level sheets")):
    """A stratum path component: id, level (1-based) and its sheet labels."""

    __slots__ = ()


class CoverMap(namedtuple("CoverMap", "src dst mapping")):
    """A covering relation ``src -> dst`` with its injective sheet map.

    A named tuple, like :class:`PosetElement`: immutable, built positionally
    or by keyword, and equal to any tuple with equal fields.  Its ``mapping``
    is a dict, so a cover is not hashable.  The dict is read-only, so covers
    may share one (the inclusions out of one builtin element do);
    :func:`validate_poset` checks a shared map per cover, against that
    cover's own source and destination, as it checks any other.
    """

    __slots__ = ()


class PosetFlags(
    namedtuple("PosetFlags", "trivial_coverings locally_compact nonempty_intersections")
):
    """Caller-asserted hypotheses for the equality certificate.

    ``trivial_coverings``: the geodesic covering over every stratum is trivial
    (a global continuous choice exists per stratum).
    ``locally_compact``: every stratum is locally compact.
    ``nonempty_intersections``: every stratum meets the neighborhood.
    """

    __slots__ = ()


class StratPoset:
    """A poset is its elements and its covering relations, nothing more."""

    def __init__(self, elements, covers):
        self.elements: tuple[PosetElement, ...] = tuple(elements)
        self.covers: tuple[CoverMap, ...] = tuple(covers)

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(sorted({e.level for e in self.elements}))

    def __repr__(self) -> str:
        return f"StratPoset({len(self.elements)} elements, {len(self.covers)} covers)"


def validate_poset(p: StratPoset) -> tuple[str, ...]:
    """Check the finite poset axioms; the violations found, empty when ``p``
    is valid.

    Verified: unique nonempty ids and sheets, positive contiguous levels,
    covers between existing elements on adjacent levels with at most one map
    per pair, each sheet map total on the source and injective into the
    destination, and composition consistency over all length-2 chains that
    share endpoints.  A cover with an endpoint of invalid level gets no
    adjacency check: that element's own error reports it.

    Cost: linear in the total size of the sheet maps, plus the two-step
    chains compared.  Each cover's map is examined on its own, shared or
    not.  Chains are compared only from elements that reach a map that is
    not an inclusion within two steps.
    """
    errors: list[str] = []
    if not p.elements:
        return ("poset has no elements",)
    # Per id: its sheet set, its level (``None`` when it is invalid) and,
    # filled by the covers, destination -> map in cover order.
    nodes: dict[str, tuple[frozenset[str], int | None, dict[str, dict[str, str]]]] = {}
    levels: set[int] = set()
    for eid, level, sheets in p.elements:
        if not eid:
            errors.append("element with empty id")
        if eid in nodes:
            errors.append(f"duplicate element id {eid!r}")
        if isinstance(level, int) and level >= 1:
            levels.add(level)
        else:
            errors.append(f"element {eid!r} has invalid level {level!r}")
            level = None
        if not sheets:
            errors.append(f"element {eid!r} has no sheets")
        sheet_set = frozenset(sheets)
        if len(sheet_set) != len(sheets):
            errors.append(f"element {eid!r} repeats a sheet label")
        nodes[eid] = (sheet_set, level, {})
    if levels and len(levels) != max(levels) - min(levels) + 1:
        errors.append(f"levels {sorted(levels)} are not contiguous")
    # Sources with a map that does not send every sheet to itself.
    mixed: set[str] = set()
    for src, dst, mapping in p.covers:
        try:
            src_sheets, low, dests = nodes[src]
            dst_sheets, high, _ = nodes[dst]
        except KeyError:
            errors.append(f"cover {src!r}->{dst!r} references a missing element")
            continue
        if dst in dests:
            errors.append(f"cover {src!r}->{dst!r} is duplicated")
        if low is not None and high is not None and high != low + 1:
            errors.append(f"cover {src!r}->{dst!r} is not between adjacent levels")
        inclusion = list(mapping) == list(mapping.values())
        image = mapping.keys() if inclusion else set(mapping.values())
        if not inclusion:
            mixed.add(src)
        if mapping.keys() != src_sheets:
            errors.append(f"cover {src!r}->{dst!r} map is not total on the source sheets")
        if not image <= dst_sheets:
            errors.append(f"cover {src!r}->{dst!r} map leaves the destination sheets")
        if not (inclusion or len(image) == len(mapping)):
            errors.append(f"cover {src!r}->{dst!r} map is not injective")
        dests[dst] = mapping
    # Composition consistency: two-step chains sharing endpoints must agree.
    # A composite is the tuple of images of ``a``'s sheets.  An inclusion
    # that is total on its source sends those sheets to themselves, so when
    # every one-step and two-step map out of ``a`` is an inclusion each
    # composite is ``a``'s sheets and none can differ: such an ``a`` is
    # skipped.
    if not errors:
        for a, _, sheets in p.elements:
            steps = nodes[a][2]
            if a not in mixed and mixed.isdisjoint(steps):
                continue
            composites: dict[str, tuple[str, ...]] = {}
            for mid, m1 in steps.items():
                first = tuple(map(m1.__getitem__, sheets))
                for end, m2 in nodes[mid][2].items():
                    comp = tuple(map(m2.__getitem__, first))
                    if composites.setdefault(end, comp) != comp:
                        errors.append(f"composition mismatch from {a!r} to {end!r}")
    return tuple(errors)


def _inconsistent(incoming: list[CoverMap]) -> bool:
    """True iff the images of ``incoming`` have empty intersection; no maps
    is consistent."""
    if not incoming:
        return False
    meet = set(incoming[0].mapping.values())
    for c in incoming[1:]:
        if not meet:
            break
        meet.intersection_update(c.mapping.values())
    return not meet


class BoundReport(
    namedtuple(
        "BoundReport",
        "valid errors levels bottom_level lower_bound inconsistent_ids consistent_above_bottom",
        defaults=((), 0, 0, None, (), ()),
    )
):
    """Outcome of the lower-bound analysis of a poset; an invalid poset gets
    its validation errors and no analysis."""

    __slots__ = ()


def lower_bound(p: StratPoset) -> BoundReport:
    """Validate ``p`` once, then analyze inconsistency and report the
    ``N - 1`` lower bound.

    The bound applies only when every element above the bottom level is
    inconsistent; otherwise ``lower_bound`` is ``None`` and the consistent
    offenders are listed, like the inconsistent ids, by level and then id.
    An invalid poset yields ``valid=False`` with its errors.

    A corner poset from :func:`torus_corner_poset` is answered from its
    factor: the factor is validated and classified, and
    :func:`_power_bound` lifts that report without building an element or
    a cover of the power.  Every other poset is validated and classified
    element by element.
    """
    if isinstance(p, _CornerPower):
        return _power_bound(p.factor, p.n)
    return _plain_bound(p)


def _plain_bound(p: StratPoset) -> BoundReport:
    """:func:`lower_bound` of ``p`` read off its own elements and covers."""
    errors = validate_poset(p)
    if errors:
        return BoundReport(valid=False, errors=errors)
    levels = p.levels
    bottom, n_levels = levels[0], len(levels)
    # The incoming maps of each id; every destination exists, for ``p`` is
    # valid.  Built here, not kept on ``p``: a poset that outlives its bound
    # holds no list per element.
    incoming: dict[str, list[CoverMap]] = {e.id: [] for e in p.elements}
    for c in p.covers:
        incoming[c.dst].append(c)
    inconsistent: list[str] = []
    consistent: list[str] = []
    for eid, level, _ in p.elements:
        if _inconsistent(incoming[eid]):
            inconsistent.append(eid)
        elif level > bottom:
            consistent.append(eid)
    return BoundReport(
        valid=True,
        levels=n_levels,
        bottom_level=bottom,
        lower_bound=None if consistent else n_levels - 1,
        inconsistent_ids=tuple(inconsistent),
        consistent_above_bottom=tuple(consistent),
    )


def _power_bound(factor: StratPoset, n: int) -> BoundReport:
    """:func:`lower_bound` of the ``n``-th power of ``factor``, a poset
    whose ids are single characters and whose bottom level is 1, read off
    the factor's own report.

    An element of the power is a word ``x = x_1 ... x_n`` of factor
    elements, with id ``cell_`` and the word, level
    ``1 + sum(level(x_i) - 1)`` and the sheets of ``x_1 x ... x x_n``; its
    covers raise one coordinate ``i`` along a factor cover ``m_i`` and map
    every sheet by ``m_i`` on coordinate ``i`` and the identity elsewhere.
    Hence:

    * The levels add: ``n (L - 1) + 1`` of them for ``L`` factor levels,
      bottom 1.
    * The power is valid exactly when the factor is.  Ids, sheet sets and
      maps are products of the factor's: unique, total and injective
      exactly when the factor's are, and a cover raises the level by one.
      A two-step chain raises one coordinate twice, where the factor's
      composition consistency applies, or two coordinates ``i != j``, where
      both orders map by ``m_i`` on ``i`` and ``m_j`` on ``j``: mixed
      composites commute.  An invalid factor's report, whose errors name
      the factor's elements, stands for the power's.
    * The meet of the images into ``x`` is the product over ``i`` of the
      meet of the factor images into ``x_i``, or all of ``x_i``'s sheets
      when none come in.  A product of sets is empty exactly when one set
      is, so ``x`` is inconsistent exactly when one of its coordinates is;
      no bottom word is.

    The ids are listed by level, then id, as the built power lists them.
    """
    report = _plain_bound(factor)
    if not report.valid:
        return report
    inconsistent = set(report.inconsistent_ids)
    # Per factor element in id order: its id, its height above level 1 and
    # whether it is inconsistent.  The words grow one coordinate at a time
    # with the last varying fastest, so they come in id order.
    coords = sorted((e.id, e.level - 1, e.id in inconsistent) for e in factor.elements)
    words = [("cell_", 0, False)]
    for _ in range(n):
        words = [(w + c, h + ch, bad or cbad) for w, h, bad in words for c, ch, cbad in coords]
    words.sort(key=itemgetter(1))  # stable: by level, then id
    levels = n * (report.levels - 1) + 1
    consistent = tuple([w for w, h, bad in words if h and not bad])
    return BoundReport(
        valid=True,
        levels=levels,
        bottom_level=1,
        lower_bound=None if consistent else levels - 1,
        inconsistent_ids=tuple([w for w, _, bad in words if bad]),
        consistent_above_bottom=consistent,
    )


def upper_bound_if_trivial(report: BoundReport, flags: PosetFlags) -> int | None:
    """Equality certificate read off a :func:`lower_bound` report: ``N - 1``
    when the poset is valid and the caller asserts all three hypotheses,
    else ``None``.  The poset is not validated again."""
    if report.valid and (
        flags.trivial_coverings and flags.locally_compact and flags.nonempty_intersections
    ):
        return report.levels - 1
    return None


# ---------------------------------------------------------------------------
# Builtin posets
# ---------------------------------------------------------------------------

def _inclusions(elements) -> list[CoverMap]:
    """The covers ``a -> b``, for each ``b`` one level above ``a`` whose
    sheets hold all of ``a``'s, each mapping every sheet to itself: the face
    lattice's rule, "sheet maps are inclusions, the level is 1 + dim F".
    By source, then destination, in element order; one map per source."""
    rows: dict[int, list[tuple[str, frozenset[str]]]] = {}
    for e in elements:
        rows.setdefault(e.level, []).append((e.id, frozenset(e.sheets)))
    covers = []
    for src, level, sheets in elements:
        inclusion = dict(zip(sheets, sheets))
        for dst, held in rows.get(level + 1, ()):
            if held.issuperset(sheets):
                covers.append(CoverMap(src, dst, inclusion))
    return covers


def circle_poset() -> StratPoset:
    """Local poset at an antipodal pair on the unit-circumference circle.

    Two one-geodesic components (clockwise side, counterclockwise side) sit
    under the antipodal component with sheets {cw, ccw}; the two inclusions
    have disjoint images, so the top is inconsistent and the bound is 1.
    """
    elements = [
        PosetElement("near_cw", 1, ("cw",)),
        PosetElement("near_ccw", 1, ("ccw",)),
        PosetElement("antipodal", 2, ("cw", "ccw")),
    ]
    return StratPoset(elements, _inclusions(elements))


#: One coordinate of the flat torus at an antipodal pair: ``+`` and ``-``
#: (the shortest arc runs forward or backward) under ``o`` (the coordinate
#: sits on its antipodal wall, both arcs are shortest).  It is
#: :func:`circle_poset` with ``near_cw, near_ccw, antipodal`` renamed
#: ``+, -, o`` and the sheets ``cw, ccw`` renamed ``+, -``.
_SIGN_FACTOR_ELEMENTS = (
    PosetElement("+", 1, ("+",)),
    PosetElement("-", 1, ("-",)),
    PosetElement("o", 2, ("+", "-")),
)
_SIGN_FACTOR = StratPoset(_SIGN_FACTOR_ELEMENTS, _inclusions(_SIGN_FACTOR_ELEMENTS))


class _CornerPower(StratPoset):
    """The ``n``-th power of ``factor``, :data:`_SIGN_FACTOR`.

    Its elements and covers are built together by :func:`_corner_cells`
    when one of them is first read, and kept.  Its levels and repr, and
    :func:`lower_bound`, read only the factor and ``n``.
    """

    factor = _SIGN_FACTOR

    def __init__(self, n: int):
        self.n = n

    def __getattr__(self, name: str):
        # Reached only while ``elements`` and ``covers`` are not yet set.
        if name not in ("elements", "covers"):
            raise AttributeError(name)
        self.elements, self.covers = _corner_cells(self.n)
        return getattr(self, name)

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(range(1, self.n * (len(self.factor.levels) - 1) + 2))

    def __repr__(self) -> str:
        k, n = len(self.factor.elements), self.n
        return f"StratPoset({k**n} elements, {n * len(self.factor.covers) * k ** (n - 1)} covers)"


def torus_corner_poset(n: int) -> StratPoset:
    """Local poset at an all-antipodal pair on the flat n-torus: the n-th
    power of the sign factor :data:`_SIGN_FACTOR`.

    Patterns over {+,-,o} per coordinate: ``o`` marks a coordinate sitting on
    its antipodal wall, signs mark the shortest-arc direction of the rest.
    Level = 1 + number of ``o``; sheets are the full sign vectors compatible
    with the pattern; sheet maps are inclusions.  The element ids are
    ``cell_`` and the pattern.

    Nothing is built here: the 3^n elements and 2n 3^(n-1) covers are built
    when ``elements`` or ``covers`` is first read, and :func:`lower_bound`
    answers from the factor without them.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return _CornerPower(n)


def _corner_cells(n: int) -> tuple[tuple[PosetElement, ...], tuple[CoverMap, ...]]:
    """The elements, by level and then id, and the covers, by source and
    then destination, of ``torus_corner_poset(n)``: the covers are the
    rule :func:`_inclusions` on the 3^n elements, found by base-3 index
    arithmetic where a scan of the next level would be quadratic in 3^n."""
    # Grow (pattern, sheets) one coordinate at a time, the last coordinate
    # varying fastest over ``+-o``, which is id order.  A sign extends each
    # sheet of the prefix and an ``o`` doubles them, ``+`` before ``-``, so
    # the sheets stay sorted.
    cells = [("", ("",))]
    for _ in range(n):
        cells = [
            grown
            for pattern, sheets in cells
            for grown in (
                (pattern + "+", tuple([s + "+" for s in sheets])),
                (pattern + "-", tuple([s + "-" for s in sheets])),
                (pattern + "o", tuple([s + c for s in sheets for c in "+-"])),
            )
        ]
    ids = ["cell_" + pattern for pattern, _ in cells]
    elements = []
    covers = []
    element, add_element = PosetElement, elements.append
    cover, add_cover = CoverMap, covers.append
    for j, (pattern, sheets) in enumerate(cells):
        src = ids[j]
        add_element(element(src, 1 + pattern.count("o"), sheets))
        inclusion = dict(zip(sheets, sheets))
        # Pattern j is j in base 3 with digits ``+-o`` = 012, so turning
        # coordinate i from ``+`` or ``-`` into ``o`` adds 2 or 1 times
        # 3^(n-1-i).  An ``o`` further left makes a larger id, so taking the
        # coordinates right to left yields the covers sorted.
        step = 1
        for c in reversed(pattern):
            if c != "o":
                add_cover(cover(src, ids[j + (2 * step if c == "+" else step)], inclusion))
            step *= 3
    # By level; the sort is stable and the elements come in id order.
    elements.sort(key=lambda e: e.level)
    return tuple(elements), tuple(covers)


_KLEIN_LABELS = ("DL", "DR", "UL", "UR")


def klein_s4_poset() -> StratPoset:
    """Local poset at a four-geodesic pair on the flat Klein bottle.

    Levels: 4 chambers (one sheet each), 6 edge components (every 2-subset of
    {UR, UL, DR, DL} occurs: the vertical/horizontal pairs from the square
    cell edges, the diagonal pairs from the slanted-edge families, and the
    short-edge families {DR, DL} / {UR, UL} from the two hexagon branches),
    4 three-geodesic components (all 3-subsets), and the apex with all four
    sheets: a tetrahedron's faces.  All maps are inclusions; every non-bottom
    element is inconsistent, giving the bound 3.
    """
    elements = [
        PosetElement(f"chamber_{lab}", 1, (lab,)) for lab in _KLEIN_LABELS
    ]
    for pair in combinations(_KLEIN_LABELS, 2):
        elements.append(PosetElement("edge_" + "_".join(pair), 2, pair))
    for triple in combinations(_KLEIN_LABELS, 3):
        elements.append(PosetElement("vertex_" + "_".join(triple), 3, triple))
    elements.append(PosetElement("apex", 4, _KLEIN_LABELS))
    return StratPoset(elements, sorted(_inclusions(elements), key=lambda c: (c.src, c.dst)))


#: Where each opposite-face path family member ``(family, index)`` lands
#: among the six corner-to-corner geodesics, in the limit at the corner pair.
#: ``verify``'s ``cube.corner_geodesics`` checks it against ``corner_limits()``.
CUBE_CORNER_LIMITS: dict[tuple[str, int], str] = {
    ("A", 1): "D3", ("A", 4): "D4", ("A", 7): "D6", ("A", 10): "D1",
    ("B", 1): "D5", ("B", 4): "D6", ("B", 7): "D2", ("B", 10): "D3",
    ("C", 1): "D1", ("C", 4): "D2", ("C", 7): "D4", ("C", 10): "D5",
}


def cube_corner_poset() -> StratPoset:
    """Local poset at an opposite-corner pair on the unit-cube boundary.

    For each of the three faces at the corner there is a four-geodesic
    diagonal family; pinching one coordinate splits it into two-geodesic
    families and then single-geodesic ones, joined by inclusions.  At the
    corner pair itself six geodesics survive, and the three family maps
    (read from :data:`CUBE_CORNER_LIMITS`) have pairwise two-element
    intersections but empty triple intersection, hence the bound 3.
    """
    limits: dict[str, dict[str, str]] = {}
    for (fam, idx), label in CUBE_CORNER_LIMITS.items():
        limits.setdefault(fam, {})[f"{fam}{idx}"] = label
    elements = []
    for fam, mapping in limits.items():
        sheets = tuple(mapping)
        elements += [PosetElement(f"path_{s}", 1, (s,)) for s in sheets]
        for duo in (sheets[:2], sheets[2:]):
            elements.append(PosetElement("pair_" + "_".join(duo), 2, duo))
        elements.append(PosetElement(f"family_{fam}", 3, sheets))
    elements.append(PosetElement("corner", 4, tuple(f"D{i}" for i in range(1, 7))))
    covers = _inclusions(elements)
    covers += [CoverMap(f"family_{fam}", "corner", m) for fam, m in limits.items()]
    return StratPoset(elements, sorted(covers, key=lambda c: (c.src, c.dst)))


#: Each builtin: the function that builds it and its asserted hypothesis
#: flags.  Only ``torus_corner`` takes an argument, the dimension after ``:``.
_BUILTINS = {
    "circle": (circle_poset, PosetFlags(True, True, True)),
    "torus_corner": (torus_corner_poset, PosetFlags(True, True, True)),
    "klein_S4": (klein_s4_poset, PosetFlags(False, True, True)),
    "cube_corner": (cube_corner_poset, PosetFlags(False, False, False)),
}


def parse_builtin_name(name: str) -> tuple[str, int | None]:
    """The builtin named ``name`` and, for ``torus_corner:N``, its dimension
    ``N``; raises ``ValueError`` for any other name.

    Accepted names: ``circle``, ``torus_corner:N`` (N >= 1), ``klein_S4``,
    ``cube_corner``.
    """
    name = name.strip()
    key, sep, digits = name.partition(":")
    if key not in _BUILTINS or bool(sep) != (key == "torus_corner"):
        raise ValueError(f"unknown builtin poset {name!r}")
    if not sep:
        return key, None
    # The dimension is at most ``sys.maxsize``, the largest length of a
    # container; the length test keeps a longer string from ``int``, which
    # refuses one beyond 4300 digits with an error of its own.
    if (
        not digits.isdecimal()
        or len(digits) > len(str(sys.maxsize))
        or not 1 <= int(digits) <= sys.maxsize
    ):
        raise ValueError(f"invalid torus dimension in {name!r}")
    return key, int(digits)


def builtin_poset(name: str) -> tuple[StratPoset, PosetFlags]:
    """Builtin poset plus its asserted hypothesis flags, for a name that
    :func:`parse_builtin_name` accepts."""
    key, n = parse_builtin_name(name)
    build, flags = _BUILTINS[key]
    return (build() if n is None else build(n)), flags


# ---------------------------------------------------------------------------
# JSON document round trip
# ---------------------------------------------------------------------------

def to_document(p: StratPoset, flags: PosetFlags) -> dict:
    """Serialize to the interchange schema (elements/covers/flags).

    Each cover's map is a copy of the poset's, in the poset's order: the
    canonical writer sorts keys itself."""
    return {
        "elements": [
            {"id": e.id, "level": e.level, "sheets": list(e.sheets)}
            for e in p.elements
        ],
        "covers": [
            {"src": c.src, "dst": c.dst, "map": dict(c.mapping)}
            for c in p.covers
        ],
        "flags": flags._asdict(),
    }


def _typed(value, kind: type, what: str):
    """``value`` if it has the JSON type ``kind`` (a boolean is no integer)."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{what} must be {kind.__name__}, not {type(value).__name__}")
    return value


def _strings(values: list, what: str) -> tuple[str, ...]:
    """``values`` as a tuple when every item is a string, which one C-level
    pass checks; else :func:`_typed` reports the first item that is not."""
    if not all(map(isinstance, values, repeat(str))):
        for value in values:
            _typed(value, str, what)
    return tuple(values)


def from_document(doc: dict) -> tuple[StratPoset, PosetFlags]:
    """Parse the interchange schema; raises ``ValueError`` on a missing key or
    a value of the wrong JSON type; ids, sheets and map entries are strings.
    The poset axioms are left to :func:`validate_poset`.

    Each list of strings (an element's sheets, all ids, sources, ...) is
    checked in one pass once its records are read; only a list that fails it
    is read again item by item, so the error names its first wrong value."""
    _typed(doc, dict, "document")
    try:
        elements = [
            PosetElement(
                id=_typed(e, dict, "element")["id"],
                level=_typed(e["level"], int, "level"),
                sheets=_strings(_typed(e["sheets"], list, "sheets"), "sheet"),
            )
            for e in _typed(doc["elements"], list, "elements")
        ]
        _strings(list(map(itemgetter(0), elements)), "id")
        covers = [
            CoverMap(
                src=_typed(c, dict, "cover")["src"],
                dst=c["dst"],
                mapping=dict(_typed(c["map"], dict, "map")),
            )
            for c in _typed(doc.get("covers", []), list, "covers")
        ]
        _strings(list(map(itemgetter(0), covers)), "src")
        _strings(list(map(itemgetter(1), covers)), "dst")
        maps = list(map(itemgetter(2), covers))
        _strings(list(chain.from_iterable(maps)), "map key")
        _strings(list(chain.from_iterable(map(dict.values, maps))), "map value")
        raw = _typed(doc.get("flags", {}), dict, "flags")
        flags = PosetFlags(
            *(_typed(raw.get(name, False), bool, name) for name in PosetFlags._fields)
        )
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed poset document: {exc}") from exc
    return StratPoset(elements, covers), flags


def loads_document(text: str) -> tuple[StratPoset, PosetFlags]:
    # Imported here: only a document read from text needs json's decoder.
    import json

    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    return from_document(doc)
