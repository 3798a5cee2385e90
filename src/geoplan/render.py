"""Artifact rendering: canonical JSON, SVG figures, CSV sampling rows.

Everything here is deterministic: rationals print exactly as ``str(Fraction)``
does, ``p`` or ``p/q``; floats appear only in SVG coordinates with a fixed
format; keys are sorted; and no environment-dependent data (timestamps,
paths, versions) is embedded - so artifacts are byte-stable across runs.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

__all__ = [
    "dump_csv",
    "dump_json",
    "svg_path_chart",
]


def point_str(point) -> str:
    return ",".join(map(str, point))


def to_jsonable(obj):
    """Recursively convert exact data into JSON-serializable structures."""
    if isinstance(obj, Fraction):
        return str(obj)
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


_STYLE = (
    "polyline{fill:none;stroke-width:0.01}"
    ".domain{stroke:#888;stroke-dasharray:0.03,0.02}"
    ".path{stroke:#000}"
    ".cut{stroke:#c00}"
    ".face{stroke:#48c}"
    "circle{fill:#c00}"
)


def svg_path_chart(
    polylines: list[tuple[str, list[tuple[Fraction, ...]]]],
    marked_points: list[tuple[tuple[Fraction, ...], int]],
    domain: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0),
) -> str:
    """Universal-cover chart figure as standalone SVG 1.1: the fundamental
    domain outline, then each ``(css class, points)`` polyline in the order
    given, drawn through its points as given (no resampling), then
    multiplicity-scaled vertex marks.  The chart's y-axis points up."""
    x0, y0, x1, y1 = domain
    drawn = [("domain", [(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)])]
    drawn += [(cls, [(float(p[0]), float(p[1])) for p in line]) for cls, line in polylines]
    circles = [(float(p[0]), float(p[1]), 0.01 + 0.005 * m) for p, m in marked_points]

    xs = [x for _, line in drawn for x, _ in line] + [c[0] for c in circles]
    ys = [y for _, line in drawn for _, y in line] + [c[1] for c in circles]
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
    for cls, pts in drawn:
        coords = " ".join(f"{_fmt(x)},{_fmt(-y)}" for x, y in pts)
        lines.append(f'<polyline class="{cls}" points="{coords}"/>')
    for cx, cy, r in circles:
        lines.append(
            f'<circle class="vertex" cx="{_fmt(cx)}" cy="{_fmt(-cy)}" r="{_fmt(r)}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
