"""Artifact rendering: canonical JSON, SVG figures, CSV sampling rows.

Everything here is deterministic: rationals are serialized exactly as
``p/q`` strings, floats appear only in SVG coordinates with a fixed format,
keys are sorted, and no environment-dependent data (timestamps, paths,
versions) is embedded - so artifacts are byte-stable across runs.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

__all__ = [
    "dump_csv",
    "dump_json",
    "fraction_str",
    "svg_path_chart",
]


def fraction_str(value: Fraction) -> str:
    """Exact canonical string for a rational: ``p`` or ``p/q``."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def point_str(point) -> str:
    return ",".join(fraction_str(c) for c in point)


def to_jsonable(obj):
    """Recursively convert exact data into JSON-serializable structures."""
    if isinstance(obj, Fraction):
        return fraction_str(obj)
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_json(data) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(to_jsonable(data), indent=2, sort_keys=True) + "\n"


def dump_csv(rows: list[dict], columns: list[str]) -> str:
    """CSV text with a fixed column order and newline discipline."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row[c] for c in columns])
    return buffer.getvalue()


def _fmt(x: float) -> str:
    out = f"{x:.6f}"
    return "0.000000" if out == "-0.000000" else out


def _sample(points: list[tuple[float, float]], resolution: int) -> list[tuple[float, float]]:
    """Resample a polyline with ``resolution`` points per segment."""
    out: list[tuple[float, float]] = [points[0]]
    for a, b in zip(points, points[1:]):
        for k in range(1, resolution):
            t = k / (resolution - 1)
            out.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
    return out


_STYLE = (
    "polyline{fill:none;stroke-width:0.01}"
    ".domain{stroke:#888;stroke-dasharray:0.03,0.02}"
    ".path{stroke:#000}"
    ".cut{stroke:#c00}"
    ".face{stroke:#48c}"
    "circle{fill:#c00}"
)


def svg_path_chart(
    segments_2d: list[list[tuple[Fraction, ...]]],
    cut_polylines: list[list[tuple[Fraction, ...]]],
    marked_points: list[tuple[tuple[Fraction, ...], int]],
    resolution: int,
    domain: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0),
    face_outlines: list[list[tuple[Fraction, ...]]] | None = None,
) -> str:
    """Universal-cover chart figure as standalone SVG 1.1: fundamental domain
    outline, face outlines, cut-locus polylines and geodesic segments (both
    resampled with ``resolution`` points per segment), and
    multiplicity-scaled vertex marks.  The chart's y-axis points up."""

    def floats(line) -> list[tuple[float, float]]:
        return [(float(p[0]), float(p[1])) for p in line]

    x0, y0, x1, y1 = domain
    polylines = [([(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)], "domain")]
    polylines += [(floats(outline), "face") for outline in face_outlines or []]
    polylines += [(_sample(floats(line), resolution), "cut") for line in cut_polylines]
    polylines += [(_sample(floats(line), resolution), "path") for line in segments_2d]
    circles = [(float(p[0]), float(p[1]), 0.01 + 0.005 * m) for p, m in marked_points]

    xs = [x for line, _ in polylines for x, _ in line] + [c[0] for c in circles]
    ys = [y for line, _ in polylines for _, y in line] + [c[1] for c in circles]
    x0, y0, x1, y1 = min(xs), min(ys), max(xs), max(ys)
    margin = 0.1 * max(x1 - x0, y1 - y0, 1.0)
    x0, y0, x1, y1 = x0 - margin, y0 - margin, x1 + margin, y1 + margin
    # 200 SVG pixels per chart unit.
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt((x1 - x0) * 200.0)}" height="{_fmt((y1 - y0) * 200.0)}" '
        f'viewBox="{_fmt(x0)} {_fmt(-y1)} {_fmt(x1 - x0)} {_fmt(y1 - y0)}">',
        f"<style>{_STYLE}</style>",
    ]
    for pts, cls in polylines:
        coords = " ".join(f"{_fmt(x)},{_fmt(-y)}" for x, y in pts)
        lines.append(f'<polyline class="{cls}" points="{coords}"/>')
    for cx, cy, r in circles:
        lines.append(
            f'<circle class="vertex" cx="{_fmt(cx)}" cy="{_fmt(-cy)}" r="{_fmt(r)}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
