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
    Validate a stratified-covering poset and report its bounds.
``verify SUITE``
    Run randomized self-verification suites.

``SPACE`` is ``torus:N`` (flat N-torus), ``klein`` (flat Klein bottle), or
``cube`` (boundary of the unit cube).  Coordinates are exact rationals:
``p/q`` fractions or terminating decimals, comma-separated.  Cube points are
``FACE:u,v`` with ``FACE`` one of x-,x+,y-,y+,z-,z+, or the named diagonal
corner pair ``corner:p`` / ``corner:q``.

Exit codes: 0 on success, 1 when a verification or bound check fails, 2 on
usage or input-parsing errors.  All outputs are byte-stable across runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import cube_sphere, flat_torus, klein_bottle, strat_cover
from .render import RenderSpec, dump_csv, dump_json, fraction_str, point_str, svg_path_chart

__all__ = ["main"]

_CSV_COLUMNS = ["x", "y", "stratum", "count", "min_sq_length"]


class UsageError(ValueError):
    """Bad command-line input; reported on stderr with exit code 2."""


# ---------------------------------------------------------------------------
# Input parsing
# ---------------------------------------------------------------------------

def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r}") from exc


def _parse_coords(text: str, n: int) -> tuple[Fraction, ...]:
    parts = text.split(",")
    if len(parts) != n:
        raise UsageError(f"expected {n} comma-separated coordinates, got {text!r}")
    return tuple(_parse_rational(p) for p in parts)


def _parse_space(text: str) -> tuple[str, int | None]:
    if text == "klein":
        return ("klein", 2)
    if text == "cube":
        return ("cube", None)
    if text.startswith("torus:"):
        suffix = text[len("torus:"):]
        if not suffix.isdigit() or int(suffix) < 1:
            raise UsageError(f"torus dimension must be a positive integer: {text!r}")
        return ("torus", int(suffix))
    raise UsageError(f"unknown space {text!r}; expected torus:N, klein, or cube")


def _parse_cube_point(text: str) -> cube_sphere.CubePoint:
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
    u, v = _parse_coords(rest, 2)
    try:
        return cube_sphere.CubePoint.make(face, u, v)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def _parse_point(space: str, n: int | None, text: str):
    try:
        if space == "torus":
            return flat_torus.TorusPoint.make(_parse_coords(text, n))
        if space == "klein":
            return klein_bottle.KleinPoint.make(_parse_coords(text, 2))
        return _parse_cube_point(text)
    except UsageError:
        raise
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def _format_point(space: str, point) -> str:
    if space == "cube":
        return f"{point.face}:{point.u},{point.v}"
    return point_str(point.coords)


def _render_spec(args) -> RenderSpec:
    try:
        return RenderSpec(
            out=args.out,
            format=getattr(args, "format", "json"),
            resolution=getattr(args, "resolution", 8),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Geodesic documents
# ---------------------------------------------------------------------------

def _torus_geodesic_doc(g: flat_torus.TorusGeodesic) -> dict:
    return {
        "displacement": list(g.displacement),
        "end_lift": [a + d for a, d in zip(g.start.coords, g.displacement)],
        "squared_length": g.squared_length,
    }


def _klein_geodesic_doc(g: klein_bottle.KleinGeodesic) -> dict:
    return {
        "start_lift": list(g.start_lift),
        "end_lift": list(g.end_lift),
        "deck": g.deck.tag,
        "squared_length": g.squared_length,
    }


def _cube_geodesic_doc(g: cube_sphere.UnfoldedPath) -> dict:
    return {
        "face_sequence": list(g.face_sequence),
        "planar_start": list(g.planar_start),
        "planar_end": list(g.planar_end),
        "squared_length": g.squared_length,
        "trace": [list(p) for p in g.trace],
    }


def cmd_geodesics(args) -> int:
    space, n = _parse_space(args.space)
    spec = _render_spec(args)
    x = _parse_point(space, n, args.x)
    y = _parse_point(space, n, args.y)
    if space == "torus":
        geos = flat_torus.torus_geodesics(x, y)
        stratum = flat_torus.torus_stratum(x, y)
        entries = [_torus_geodesic_doc(g) for g in geos]
        segments = [list(g.lift().vertices) for g in geos]
        marks = [(x.coords, 1)]
    elif space == "klein":
        geos = klein_bottle.klein_geodesics(x, y)
        stratum = klein_bottle.klein_stratum(x, y)
        entries = [_klein_geodesic_doc(g) for g in geos]
        segments = [[g.start_lift, g.end_lift] for g in geos]
        marks = [(x.coords, 1)]
    else:
        geos = cube_sphere.cube_geodesics(x, y)
        stratum = len(geos)
        entries = [_cube_geodesic_doc(g) for g in geos]
        segments = [list(g.planar_segment) for g in geos]
        marks = []
    doc = {
        "command": "geodesics",
        "space": args.space,
        "x": _format_point(space, x),
        "y": _format_point(space, y),
        "stratum": stratum,
        "count": len(geos),
        "min_sq_length": min(g.squared_length for g in geos),
        "geodesics": entries,
    }
    if spec.format == "json":
        _emit(dump_json(doc), spec.out)
        return 0
    if spec.format == "csv":
        row = {
            "x": doc["x"],
            "y": doc["y"],
            "stratum": stratum,
            "count": len(geos),
            "min_sq_length": fraction_str(doc["min_sq_length"]),
        }
        _emit(dump_csv([row], _CSV_COLUMNS), spec.out)
        return 0
    if space == "torus" and n != 2:
        raise UsageError("svg rendering of torus geodesics requires torus:2")
    outlines = None
    domain = (0.0, 0.0, 1.0, 1.0)
    if space == "cube":
        outlines = [line for g in geos for line in g.face_outlines()]
        domain = (-0.5, -0.5, 0.5, 0.5)
    _emit(svg_path_chart(segments, [], marks, spec, domain, outlines), spec.out)
    return 0


# ---------------------------------------------------------------------------
# Cut locus
# ---------------------------------------------------------------------------

def _graph_doc(graph) -> dict:
    return {
        "vertices": [
            {"point": list(v.point), "multiplicity": v.multiplicity}
            for v in graph.vertices
        ],
        "edges": [
            {
                "start_vertex": e.start_vertex,
                "end_vertex": e.end_vertex,
                "points": [list(p) for p in e.points],
                "multiplicity": e.multiplicity,
                "gluing": e.gluing,
            }
            for e in graph.edges
        ],
    }


def _edge_samples(edge, resolution: int):
    poly = edge.as_polyline()
    return [poly.evaluate(Fraction(k, resolution - 1)) for k in range(resolution)]


def _cutlocus_rows(space: str, x, graph, resolution: int) -> list[dict]:
    """One CSV row per sampled cut-locus point, counts re-derived honestly."""

    def geodesics_to(lift):
        if space == "torus":
            target = flat_torus.TorusPoint.make(lift)
            return target, flat_torus.torus_geodesics(x, target)
        target = klein_bottle.KleinPoint.reduce_lift(lift)
        return target, klein_bottle.klein_geodesics(x, target)

    rows = []
    base = point_str(x.coords)
    samples = [v.point for v in graph.vertices]
    for edge in graph.edges:
        samples.extend(_edge_samples(edge, resolution))
    seen = set()
    for lift in samples:
        target, geos = geodesics_to(lift)
        key = point_str(target.coords)
        if key in seen:
            continue
        seen.add(key)
        rows.append(
            {
                "x": base,
                "y": key,
                "stratum": len(geos),
                "count": len(geos),
                "min_sq_length": fraction_str(min(g.squared_length for g in geos)),
            }
        )
    return rows


def cmd_cutlocus(args) -> int:
    space, n = _parse_space(args.space)
    if space == "cube":
        raise UsageError("cut locus output is available for torus:N and klein only")
    spec = _render_spec(args)
    x = _parse_point(space, n, args.x)
    if space == "torus":
        locus = flat_torus.torus_cut_locus(x)
        graph = locus.graph
        doc = {
            "command": "cutlocus",
            "space": args.space,
            "x": point_str(x.coords),
            "strata": [
                {
                    "fixed": list(s.fixed),
                    "dimension": s.dimension,
                    "geodesic_count": s.geodesic_count,
                    "level": s.level,
                    "representative": list(s.representative.coords),
                }
                for s in locus.strata
            ],
            "graph": _graph_doc(graph) if graph is not None else None,
        }
    else:
        graph = klein_bottle.klein_cut_locus(x)
        doc = {
            "command": "cutlocus",
            "space": args.space,
            "x": point_str(x.coords),
            "shape": "wedge" if len(graph.vertices) == 1 else "theta",
            "graph": _graph_doc(graph),
        }
    if spec.format == "json":
        _emit(dump_json(doc), spec.out)
        return 0
    if graph is None:
        raise UsageError(f"{spec.format} cut-locus output requires torus:2 or klein")
    if spec.format == "csv":
        _emit(dump_csv(_cutlocus_rows(space, x, graph, spec.resolution), _CSV_COLUMNS), spec.out)
        return 0
    cut_lines = [list(e.points) for e in graph.edges]
    marks = [(v.point, v.multiplicity) for v in graph.vertices]
    marks.append((x.coords, 1))
    _emit(svg_path_chart([], cut_lines, marks, spec), spec.out)
    return 0


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------

def cmd_plan(args) -> int:
    space, n = _parse_space(args.space)
    if space == "cube":
        raise UsageError("the planner is available for torus:N and klein only")
    x = _parse_point(space, n, args.x)
    y = _parse_point(space, n, args.y)
    if space == "torus":
        result = flat_torus.torus_plan(x, y)
        geodesic = _torus_geodesic_doc(result.geodesic)
    else:
        result = klein_bottle.klein_plan(x, y)
        geodesic = _klein_geodesic_doc(result.geodesic)
    doc = {
        "command": "plan",
        "space": args.space,
        "x": point_str(x.coords),
        "y": point_str(y.coords),
        "domain": result.domain,
        "count": result.count,
        "rule": result.rule,
        "geodesic": geodesic,
    }
    _emit(dump_json(doc), args.out)
    return 0


# ---------------------------------------------------------------------------
# Poset bounds
# ---------------------------------------------------------------------------

def cmd_bound(args) -> int:
    source = args.poset
    if source.startswith("builtin:"):
        try:
            poset, flags = strat_cover.builtin_poset(source[len("builtin:"):])
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {source}: {exc}") from exc
        try:
            poset, flags = strat_cover.loads_document(text)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    report = strat_cover.lower_bound(poset)
    upper = strat_cover.upper_bound_if_trivial(poset, flags) if report.valid else None
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
        "flags": {
            "trivial_coverings": flags.trivial_coverings,
            "locally_compact": flags.locally_compact,
            "nonempty_intersections": flags.nonempty_intersections,
        },
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

def _default_seed() -> int:
    raw = os.environ.get("GEOPLAN_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"GEOPLAN_SEED must be an integer, got {raw!r}") from None


def cmd_verify(args) -> int:
    # Imported here so that numpy, which only the verify oracles use, is not
    # loaded by the other commands.
    from . import verify

    seed = args.seed if args.seed is not None else _default_seed()
    try:
        reports = verify.run_suite(args.suite, seed=seed, trials=args.trials)
    except ValueError as exc:
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

def _add_render_options(sub, formats=("json", "svg", "csv")) -> None:
    sub.add_argument("--out", default=None, help="write to this path instead of stdout")
    sub.add_argument("--format", choices=formats, default="json", help="output format")
    sub.add_argument(
        "--resolution",
        type=int,
        default=8,
        help="samples per edge for curve discretization (>= 2)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="random seed (default: GEOPLAN_SEED environment variable, then 0)",
    )
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
