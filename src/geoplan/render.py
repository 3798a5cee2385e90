"""Artifact rendering: canonical JSON, SVG figures, CSV sampling rows.

Everything here is deterministic: rationals print exactly as ``str(Fraction)``
does, ``p`` or ``p/q``; floats appear only in SVG coordinates with a fixed
format; keys are sorted; and no environment-dependent data (timestamps,
paths, versions) is embedded - so artifacts are byte-stable across runs.

The JSON text is written in one pass straight from the exact data, with no
converted copy: it is the text ``json.dumps(..., indent=2, sort_keys=True)``
gives once every Fraction and every dict key is replaced by its ``str``
(a later key wins when two keys print alike).

A list is written by one ``_SCALARS[type(v)]`` pass over its items, which
stops at the first item that is not a scalar; a list of scalars is then
joined in one step.  In a list that holds lists, each row of scalars
(displacements, end lifts, vertices, traces) is joined the same way, without
a recursive call per row.  A list of records, plain dicts that all have one
set of exact-``str`` keys (poset elements and covers, ``verify`` reports,
geodesic lists), sorts those keys once and writes every record by one loop
over them, with no copy or sort per record; a lone dict is a run of one
record, copied first only when its keys are not all exact ``str`` or it is
a dict subclass.  What is left of the time of an answer is mostly the
``str`` of each Fraction and the joins themselves, that is, the size of
the text.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from itertools import chain
# The C quoting function that json.encoder wraps: importing it alone leaves
# out json's decoder and scanner, which no renderer needs.
from _json import encode_basestring_ascii as _quote

_INF = float("inf")
_STR = frozenset([str])

__all__ = [
    "dump_csv",
    "dump_json",
    "svg_path_chart",
]


def point_str(point) -> str:
    return ",".join(map(str, point))


def _float_str(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


#: Text of each scalar type, by exact type.  An exact Fraction's ``str`` is
#: digits, ``-`` and ``/``, which need no escaping.
_SCALARS = {
    str: _quote,
    Fraction: '"%s"'.__mod__,
    int: int.__repr__,
    float: _float_str,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _subclass_scalar(obj) -> str:
    if isinstance(obj, Fraction):
        return _quote(str(obj))
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_str(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _scalar_list(items, newline: str) -> str:
    """The JSON text of the nonempty list ``items`` when all its items are
    scalars of an exact type in :data:`_SCALARS`; ``KeyError`` at the first
    that is not."""
    inner = newline + "  "
    return "[" + inner + ("," + inner).join([_SCALARS[type(v)](v) for v in items]) + newline + "]"


def _records(rows, keys: list[str], newline: str, emit) -> None:
    """Emit the dicts ``rows`` as JSON objects that start on the indent of
    ``newline``, joined by ``,`` and that line break.  Each row has exactly
    the keys ``keys``, sorted exact ``str``s, which are read in that order:
    a row is neither copied nor sorted."""
    inner = newline + "  "
    comma = "," + inner
    close = newline + "}"
    sep = "{" + inner
    for row in rows:
        for key in keys:
            value = row[key]
            scalar = _SCALARS.get(type(value))
            if scalar is None:
                emit(sep + _quote(key) + ": ")
                _write(value, inner, emit)
            else:
                emit(sep + _quote(key) + ": " + scalar(value))
            sep = comma
        emit(close)
        sep = "," + newline + "{" + inner


def _write(obj, newline: str, emit) -> None:
    """Emit the JSON text of ``obj`` piece by piece; ``newline`` is a line
    break plus the indent of the line that ``obj`` starts on."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        emit(scalar(obj))
    elif isinstance(obj, dict):
        if not obj:
            emit("{}")
            return
        if type(obj) is not dict or not _STR.issuperset(map(type, obj)):
            # keys become strings before sorting, so a later key wins a collision
            obj = {str(k): v for k, v in obj.items()}
        _records((obj,), sorted(obj), newline, emit)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            emit("[]")
            return
        try:
            text = _scalar_list(obj, newline)
        except KeyError:
            pass
        else:
            emit(text)
            return
        inner = newline + "  "
        first = obj[0]
        if type(first) is dict and first:
            keys = first.keys()
            if all(type(row) is dict and row.keys() == keys for row in obj) and _STR.issuperset(
                map(type, chain.from_iterable(obj))
            ):
                emit("[" + inner)
                _records(obj, sorted(keys), inner, emit)
                emit(newline + "]")
                return
        sep = "[" + inner
        for value in obj:
            scalar = _SCALARS.get(type(value))
            if scalar is not None:
                emit(sep + scalar(value))
            elif type(value) in (list, tuple) and value:
                try:
                    text = _scalar_list(value, inner)
                except KeyError:
                    emit(sep)
                    _write(value, inner, emit)
                else:
                    emit(sep + text)
            else:
                emit(sep)
                _write(value, inner, emit)
            sep = "," + inner
        emit(newline + "]")
    else:
        emit(_subclass_scalar(obj))


def dump_json(data) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    parts: list[str] = []
    _write(data, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


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
