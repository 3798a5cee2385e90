"""Command-line interface: ``geoplan SUBCOMMAND ...``.

Subcommands
-----------
``geodesics SPACE X Y``
    Enumerate all minimizing geodesics between two points.
``cutlocus SPACE X``
    Describe the cut locus of a basepoint.
``plan SPACE X Y``
    Evaluate the geodesic motion planner at a pair of points.
``bound SOURCE``
    Validate a stratified-covering poset once and report its lower bound,
    and the equal upper bound when its hypothesis flags are all set.
``verify SUITE``
    Run randomized self-verification suites.

``SPACE`` is ``torus:N`` (flat N-torus), ``klein`` (flat Klein bottle), or
``cube`` (boundary of the unit cube).  Coordinates are exact rationals:
``p/q`` fractions or terminating decimals, comma-separated, and may be
negative (``-1/2`` is a coordinate, not an option).  One coordinate writes
at most 1050 digits counting its decimal exponent.  Cube points are
``FACE:u,v`` with ``FACE`` one of x-,x+,y-,y+,z-,z+, or the named diagonal
corner pair ``corner:p`` / ``corner:q``.

Outputs per space: ``geodesics`` json and csv everywhere, svg where the space
has a planar chart (torus:2, klein, cube); ``cutlocus`` json for torus:N and
klein, csv where the cut locus is a graph (torus:1, torus:2, klein), svg for
torus:2 and klein; ``plan`` json for torus:N and klein.  The cube has no cut
locus or planner output.  Any other request exits with code 2.

An answer of more than 3^9 items is refused with exit code 2 before it is
built: ``builtin:torus_corner:N`` has 3^N elements, whose ids above the
bottom level its report lists (N <= 9), a ``torus:N`` pair with ``a``
opposite coordinates has 2^a geodesics (a <= 14), and the ``torus:N`` cut
locus has 2^N - 1 strata (N <= 14).  The ``cutlocus`` csv
samples each cut-locus edge at a fixed number of points; json and svg print
the exact edges.

Each command imports only the modules it runs: those of its space for
``geodesics``, ``cutlocus`` and ``plan``, the poset engine for ``bound``,
and those its suite's checks exercise for ``verify``.

Exit codes: 0 on success, 1 when a verification or bound check fails, 2 on
usage or input-parsing errors.  A ``verify`` check that raises is a failed
check: it prints a ``FAIL`` line, the other checks and ``--out`` still run,
and the exit code is 1.  All outputs are byte-stable across runs.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import namedtuple
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from .render import dump_csv, dump_json, point_str, svg_path_chart

if TYPE_CHECKING:
    from . import cube_sphere, flat_torus, klein_bottle

__all__ = ["main"]

_CSV_COLUMNS = ["x", "y", "stratum", "count", "min_sq_length"]

#: Largest size of a coordinate: its written digits plus its decimal
#: exponent, about the digits of the integers ``Fraction`` builds from it.
#: Outputs print products of up to four coordinate denominators and ``str``
#: refuses ints beyond 4300 digits, so sizes above 1075 can end in a
#: traceback (``cutlocus klein 1/3,1/<1075 sevens> --format csv``).
_MAX_DIGITS = 1050

#: Most items one answer may hold (the three sizes are in the module
#: docstring).  The largest admitted ``geodesics`` (torus:14, full antipode),
#: ``cutlocus`` (torus:14) and ``bound`` (torus_corner:9) answers take 0.80,
#: 0.35 and 0.08 s (fastest of 3 runs, 2-core x86-64 Xeon VM, Python 3.11);
#: one step further doubles or triples an answer.
_MAX_ANSWER_ITEMS = 3**9

#: Points the cut-locus csv samples on each edge, both ends included.  Every
#: interior point of an edge has two geodesics by construction, so more
#: samples add rows but no answer; 8 keeps the csv the default always printed.
_CUT_EDGE_SAMPLES = 8


class UsageError(ValueError):
    """Bad command-line input; reported on stderr with exit code 2."""


def _check_size(subject: str, base: int, exponent: int, items: str, minus: int = 0) -> None:
    """Refuse an answer of ``base**exponent - minus`` items above the cap.
    With ``base >= 2`` and ``minus <= 1``, an exponent above the cap's bit
    length is over it, so no power of a large exponent is taken."""
    cap = _MAX_ANSWER_ITEMS
    if exponent > cap.bit_length() or base**exponent - minus > cap:
        size = f"{base}^{exponent}" + (f" - {minus}" if minus else "")
        raise UsageError(f"{subject} has {size} {items}, more than the cap of {cap}")


# ---------------------------------------------------------------------------
# Input parsing
# ---------------------------------------------------------------------------

def _parse_rational(text: str) -> Fraction:
    mantissa, _, exponent = text.strip().lower().partition("e")
    digits = exponent.lstrip("+-").replace("_", "").lstrip("0") or "0"
    written = sum(c.isdecimal() for c in mantissa)
    # An exponent with more digits than the bound is refused unread by ``int``.
    if digits.isdecimal() and (
        len(digits) > len(str(_MAX_DIGITS)) or written + int(digits) > _MAX_DIGITS
    ):
        raise UsageError(
            f"a coordinate's size (written digits {written} plus decimal exponent"
            f" {digits}) exceeds the bound of {_MAX_DIGITS}"
        )
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r}") from exc


def _parse_coords(text: str, n: int) -> tuple[Fraction, ...]:
    parts = text.split(",")
    if len(parts) != n:
        raise UsageError(f"expected {n} comma-separated coordinates, got {text!r}")
    return tuple(_parse_rational(p) for p in parts)


def _parse_cube_point(text: str) -> cube_sphere.CubePoint:
    from . import cube_sphere

    if text == "corner:p":
        return cube_sphere.corner_pair()[0]
    if text == "corner:q":
        return cube_sphere.corner_pair()[1]
    face, sep, rest = text.partition(":")
    if not sep or face not in cube_sphere.FACES:
        raise UsageError(
            f"cube points look like FACE:u,v with FACE in {'/'.join(cube_sphere.FACES)},"
            f" or corner:p / corner:q; got {text!r}"
        )
    return cube_sphere.CubePoint.make(face, *_parse_coords(rest, 2))


def _parse_point(space: _Space, text: str):
    try:
        return space.parse(text)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc}") from exc


# ---------------------------------------------------------------------------
# One record per space
# ---------------------------------------------------------------------------

def _torus_geodesic_doc(g: flat_torus.FlatGeodesic, length: Fraction) -> dict:
    return {
        "displacement": g.displacement,
        "end_lift": g.end_lift,
        "squared_length": length,
    }


def _klein_geodesic_doc(g: flat_torus.FlatGeodesic, length: Fraction) -> dict:
    return {
        "start_lift": g.start_lift,
        "end_lift": g.end_lift,
        "deck": g.deck.tag,
        "squared_length": length,
    }


def _cube_geodesic_doc(g: cube_sphere.UnfoldedPath, length: Fraction) -> dict:
    return {
        "face_sequence": g.face_sequence,
        "planar_start": g.planar_start,
        "planar_end": g.planar_end,
        "squared_length": length,
        "trace": g.trace,
    }


def _flat_chart(x, geodesics) -> str:
    """Each geodesic as its lift in the unit-square chart of the universal
    cover, with the basepoint marked."""
    paths = [("path", [g.start_lift, g.end_lift]) for g in geodesics]
    return svg_path_chart(paths, [(x.coords, 1)])


def _cube_chart(x, geodesics) -> str:
    """Each geodesic in its own unfolding, over the outlines of its faces."""
    lines = [("face", line) for g in geodesics for line in g.face_outlines()]
    lines += [("path", g.planar_segment) for g in geodesics]
    return svg_path_chart(lines, [], (-0.5, -0.5, 0.5, 0.5))


def _torus_geodesics(
    x: flat_torus.TorusPoint, y: flat_torus.TorusPoint
) -> tuple[flat_torus.FlatGeodesic, ...]:
    from . import flat_torus

    a = len(flat_torus.antipodal_indices(x, y))
    _check_size(f"a torus:{x.n} pair", 2, a, "minimizing geodesics")
    return flat_torus.torus_geodesics(x, y)


def _torus_cut_locus(x: flat_torus.TorusPoint) -> tuple[dict, Any]:
    from . import flat_torus

    _check_size(f"the torus:{x.n} cut locus", 2, x.n, "strata", minus=1)
    locus = flat_torus.torus_cut_locus(x)
    strata = [
        {
            "fixed": s.fixed,
            "dimension": s.dimension,
            "geodesic_count": s.geodesic_count,
            "level": s.level,
            "representative": s.representative.coords,
        }
        for s in locus.strata
    ]
    graph = locus.graph
    return {"strata": strata, "graph": _graph_doc(graph) if graph is not None else None}, graph


def _klein_cut_locus(x: klein_bottle.KleinPoint) -> tuple[dict, Any]:
    from . import klein_bottle

    graph = klein_bottle.klein_cut_locus(x)
    shape = "wedge" if len(graph.vertices) == 1 else "theta"
    return {"shape": shape, "graph": _graph_doc(graph)}, graph


def _graph_doc(graph) -> dict:
    """The fields of a cut-locus graph and of its vertices and edges, by name."""
    return {
        "vertices": [v._asdict() for v in graph.vertices],
        "edges": [e._asdict() for e in graph.edges],
    }


class _Space(
    namedtuple(
        "_Space",
        [
            "parse",  # text -> point
            "geodesics",  # (x, y) -> minimizing geodesics
            "geodesic_doc",  # (geodesic, squared length) -> dict
            "chart",  # (x, geodesics) -> svg text, or None
            "show",  # point -> text
            "stratum",  # minimizing geodesics -> stratum
            "plan",  # (x, y) -> PlannerResult, or None
            "cut_locus",  # x -> (document fields, graph or None), or None
            "cut_graph",  # whether cut_locus returns a graph, as csv needs
        ],
        defaults=(lambda p: point_str(p.coords), len, None, None, False),
    )
):
    """What the commands use of one space.  ``chart`` is None where the space
    has no planar chart, so no svg output; ``plan`` and ``cut_locus`` are
    None where it has no planner or cut locus.  Points
    show as their coordinates and the stratum is the geodesic count unless
    the space says otherwise."""

    __slots__ = ()


def _space(text: str) -> _Space:
    """The record of the space named ``text`` on the command line: the only
    code that tells the spaces apart.  Only the named space's modules are
    imported."""
    if text == "klein":
        from . import klein_bottle

        return _Space(
            parse=lambda s: klein_bottle.KleinPoint.make(_parse_coords(s, 2)),
            geodesics=klein_bottle.klein_geodesics,
            geodesic_doc=_klein_geodesic_doc,
            chart=_flat_chart,
            plan=klein_bottle.klein_plan,
            cut_locus=_klein_cut_locus,
            cut_graph=True,
        )
    if text == "cube":
        from . import cube_sphere

        return _Space(
            parse=_parse_cube_point,
            geodesics=cube_sphere.cube_geodesics,
            geodesic_doc=_cube_geodesic_doc,
            chart=_cube_chart,
            show=lambda p: f"{p.face}:{p.u},{p.v}",
        )
    if not text.startswith("torus:"):
        raise UsageError(f"unknown space {text!r}; expected torus:N, klein, or cube")
    suffix = text[len("torus:"):]
    try:
        n = int(suffix) if suffix.isdecimal() else 0
    except ValueError:  # more digits than int() converts
        n = 0
    if n < 1:
        raise UsageError(f"torus dimension must be a positive integer: {text!r}")
    from . import flat_torus

    return _Space(
        parse=lambda s: flat_torus.TorusPoint.make(_parse_coords(s, n)),
        geodesics=_torus_geodesics,
        geodesic_doc=_torus_geodesic_doc,
        chart=_flat_chart if n == 2 else None,
        # 2^(k-1) geodesics in stratum k
        stratum=lambda geodesics: len(geodesics).bit_length(),
        plan=flat_torus.torus_plan,
        cut_locus=_torus_cut_locus,
        cut_graph=n <= 2,
    )


# ---------------------------------------------------------------------------
# Geodesics
# ---------------------------------------------------------------------------

def _csv_row(x: str, y: str, stratum: int, count: int, length: Fraction) -> dict:
    return {
        "x": x,
        "y": y,
        "stratum": stratum,
        "count": count,
        "min_sq_length": length,
    }


def cmd_geodesics(args) -> int:
    space = _space(args.space)
    x = _parse_point(space, args.x)
    y = _parse_point(space, args.y)
    geos = space.geodesics(x, y)
    if args.format == "svg":
        if space.chart is None:
            raise UsageError("svg rendering of geodesics requires torus:2, klein or cube")
        _emit(space.chart(x, geos), args.out)
        return 0
    # Every minimizing geodesic of one answer has the same length.
    length = geos[0].squared_length
    row = _csv_row(space.show(x), space.show(y), space.stratum(geos), len(geos), length)
    if args.format == "csv":
        _emit(dump_csv([row], _CSV_COLUMNS), args.out)
    else:
        # json prints a Fraction as the same p/q text the row holds.
        doc = {
            "command": "geodesics",
            "space": args.space,
            **row,
            "geodesics": [space.geodesic_doc(g, length) for g in geos],
        }
        _emit(dump_json(doc), args.out)
    return 0


# ---------------------------------------------------------------------------
# Cut locus
# ---------------------------------------------------------------------------

def _cutlocus_rows(space: _Space, x, graph) -> list[dict]:
    """One CSV row per distinct sampled cut-locus point, counts re-derived honestly."""
    samples = [v.point for v in graph.vertices]
    last = _CUT_EDGE_SAMPLES - 1
    for edge in graph.edges:
        poly = edge.as_polyline()
        samples.extend(poly.evaluate(Fraction(k, last)) for k in range(_CUT_EDGE_SAMPLES))
    base = space.show(x)
    rows = []
    seen = set()
    for lift in samples:
        target = x.make(lift)
        key = space.show(target)
        if key not in seen:
            seen.add(key)
            geos = space.geodesics(x, target)
            length = geos[0].squared_length
            rows.append(_csv_row(base, key, space.stratum(geos), len(geos), length))
    return rows


def cmd_cutlocus(args) -> int:
    space = _space(args.space)
    if space.cut_locus is None:
        raise UsageError("cut locus output is available for torus:N and klein only")
    x = _parse_point(space, args.x)
    if args.format == "svg" and space.chart is None:
        raise UsageError("svg cut-locus output requires torus:2 or klein")
    if args.format == "csv" and not space.cut_graph:
        raise UsageError("csv cut-locus output requires torus:1, torus:2 or klein")
    fields, graph = space.cut_locus(x)
    if args.format == "json":
        doc = {"command": "cutlocus", "space": args.space, "x": space.show(x), **fields}
        _emit(dump_json(doc), args.out)
    elif args.format == "csv":
        _emit(dump_csv(_cutlocus_rows(space, x, graph), _CSV_COLUMNS), args.out)
    else:
        marks = [(v.point, v.multiplicity) for v in graph.vertices] + [(x.coords, 1)]
        edges = [("cut", e.points) for e in graph.edges]
        _emit(svg_path_chart(edges, marks), args.out)
    return 0


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------

def cmd_plan(args) -> int:
    space = _space(args.space)
    if space.plan is None:
        raise UsageError("the planner is available for torus:N and klein only")
    x = _parse_point(space, args.x)
    y = _parse_point(space, args.y)
    result = space.plan(x, y)
    doc = {
        "command": "plan",
        "space": args.space,
        "x": space.show(x),
        "y": space.show(y),
        "domain": result.domain,
        "count": result.count,
        "rule": result.rule,
        "geodesic": space.geodesic_doc(result.geodesic, result.geodesic.squared_length),
    }
    _emit(dump_json(doc), args.out)
    return 0


# ---------------------------------------------------------------------------
# Poset bounds
# ---------------------------------------------------------------------------

def cmd_bound(args) -> int:
    from . import strat_cover

    source = args.poset
    if source.startswith("builtin:"):
        name = source[len("builtin:"):]
        try:
            _, n = strat_cover.parse_builtin_name(name)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        if n is not None:  # torus_corner:N
            _check_size(source, 3, n, "elements")
        poset, flags = strat_cover.builtin_poset(name)
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read {source}: {exc}") from exc
        try:
            poset, flags = strat_cover.loads_document(text)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    report = strat_cover.lower_bound(poset)
    upper = strat_cover.upper_bound_if_trivial(report, flags)
    doc = {
        "command": "bound",
        "source": source,
        "valid": report.valid,
        "errors": list(report.errors),
        "levels": report.levels,
        "bottom_level": report.bottom_level,
        "lower_bound": report.lower_bound,
        "inconsistent": list(report.inconsistent_ids),
        "consistent_above_bottom": list(report.consistent_above_bottom),
        "flags": flags._asdict(),
        "upper_bound_if_trivial": upper,
        "equality": (
            report.lower_bound == upper
            if report.lower_bound is not None and upper is not None
            else None
        ),
    }
    _emit(dump_json(doc), args.out)
    return 0 if report.valid else 1


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    # Imported here so that the other commands do not load the verification
    # suites and their oracles.
    from . import verify

    try:
        reports = verify.run_suite(args.suite, seed=args.seed, trials=args.trials)
    except ValueError as exc:  # the arguments; a check reports its own errors
        raise UsageError(str(exc)) from exc
    for report in reports:
        for line in report.summary_lines():
            print(line)
    if args.out is not None:
        _emit(dump_json([r.to_document() for r in reports]), args.out)
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def _add_render_options(sub) -> None:
    sub.add_argument("--out", default=None, help="write to this path instead of stdout")
    sub.add_argument(
        "--format", choices=("json", "svg", "csv"), default="json", help="output format"
    )


class _Parser(argparse.ArgumentParser):
    """Reads a token that starts with ``-`` and then a digit or ``.``, such as
    the coordinates ``-1/2`` and ``-.5,0``, as a positional, not an option."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(r"^-[\d.]")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="geoplan",
        description="Geodesic counting, cut loci, and motion planning on flat surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("geodesics", help="enumerate minimizing geodesics between two points")
    p.add_argument("space", help="torus:N, klein, or cube")
    p.add_argument("x", help="start point")
    p.add_argument("y", help="end point")
    _add_render_options(p)
    p.set_defaults(func=cmd_geodesics)

    p = sub.add_parser("cutlocus", help="describe the cut locus of a basepoint")
    p.add_argument("space", help="torus:N or klein")
    p.add_argument("x", help="basepoint")
    _add_render_options(p)
    p.set_defaults(func=cmd_cutlocus)

    p = sub.add_parser("plan", help="evaluate the motion planner at a pair of points")
    p.add_argument("space", help="torus:N or klein")
    p.add_argument("x", help="start point")
    p.add_argument("y", help="end point")
    p.add_argument("--out", default=None, help="write JSON to this path instead of stdout")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("bound", help="validate a poset document and report bounds")
    p.add_argument("poset", help="path to a poset JSON document, or builtin:NAME")
    p.add_argument("--out", default=None, help="write JSON to this path instead of stdout")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("verify", help="run randomized self-verification suites")
    p.add_argument("suite", choices=("core", "torus", "klein", "cube", "all"))
    p.add_argument("--trials", type=int, default=200, help="trials per check")
    p.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")
    p.add_argument("--out", default=None, help="also write a JSON report to this path")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
