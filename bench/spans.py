"""In-memory spans around the public functions of geoplan's layers.

``install`` replaces each traced function by a wrapper that records one span
per call: name, start, end, parent span and input id.  The wrapper is bound
wherever geoplan holds the original (module attributes and ``from`` imports),
so calls made inside one layer to another show up as child spans, and a
layer's self time is its span minus the spans of its children.  Nothing is
patched unless ``install`` is called, so untraced runs pay no overhead.
"""

from __future__ import annotations

import importlib
import json
import sys
import time


def _returned(args, result):
    return len(result)


def _text_bytes(args, result):
    return len(result.encode("utf-8"))


def _poset_size(args, result):
    poset = args[0]
    return {"strat_cover.elements": len(poset.elements), "strat_cover.covers": len(poset.covers)}


# function -> (metric that also gets the span's self time, counter metric, counter)
TRACED: dict[str, dict[str, tuple[str | None, str | None, object]]] = {
    "flat_torus": {
        "torus_geodesics": (None, "flat_torus.geodesics_returned", _returned),
        "torus_plan": (None, None, None),
        "torus_stratum": (None, None, None),
        "torus_cut_locus": (None, None, None),
        "torus_loop_monodromy": (None, None, None),
    },
    "klein_bottle": {
        "klein_geodesics": (None, "klein_bottle.geodesics_returned", _returned),
        "klein_plan": (None, None, None),
        "klein_stratum": (None, None, None),
        "klein_cut_locus": ("klein_bottle.cut_locus_busy_s", None, None),
        "klein_monodromy": ("klein_bottle.monodromy_busy_s", None, None),
    },
    "cube_sphere": {
        "cube_geodesics": (None, "cube_sphere.geodesics_returned", _returned),
        "opposite_face_table": ("cube_sphere.table_busy_s", None, None),
        "corner_pair": (None, None, None),
    },
    "strat_cover": {
        "torus_corner_poset": ("strat_cover.build_busy_s", None, None),
        "builtin_poset": ("strat_cover.build_busy_s", None, None),
        "circle_poset": ("strat_cover.build_busy_s", None, None),
        "klein_s4_poset": ("strat_cover.build_busy_s", None, None),
        "cube_corner_poset": ("strat_cover.build_busy_s", None, None),
        "lower_bound": ("strat_cover.bound_busy_s", None, _poset_size),
        "validate_poset": ("strat_cover.bound_busy_s", None, None),
        "upper_bound_if_trivial": ("strat_cover.bound_busy_s", None, None),
        "to_document": ("strat_cover.document_busy_s", None, None),
        "from_document": ("strat_cover.document_busy_s", None, None),
        "loads_document": ("strat_cover.document_busy_s", None, None),
    },
    "render": {
        "dump_json": (None, "render.bytes", _text_bytes),
        "dump_csv": (None, "render.bytes", _text_bytes),
        "svg_path_chart": (None, "render.bytes", _text_bytes),
    },
}

#: Per-layer metrics derived from spans, with their units.
SPAN_METRICS: dict[str, str] = {
    "klein_bottle.calls": "count",
    "klein_bottle.busy_s": "s",
    "klein_bottle.cut_locus_busy_s": "s",
    "klein_bottle.monodromy_busy_s": "s",
    "klein_bottle.geodesics_returned": "count",
    "flat_torus.calls": "count",
    "flat_torus.busy_s": "s",
    "flat_torus.geodesics_returned": "count",
    "cube_sphere.calls": "count",
    "cube_sphere.busy_s": "s",
    "cube_sphere.table_busy_s": "s",
    "cube_sphere.geodesics_returned": "count",
    "strat_cover.build_busy_s": "s",
    "strat_cover.bound_busy_s": "s",
    "strat_cover.document_busy_s": "s",
    "strat_cover.elements": "count",
    "strat_cover.covers": "count",
    "render.calls": "count",
    "render.busy_s": "s",
    "render.bytes": "count",
}

#: Prefix of the stderr line on which a traced CLI child reports its spans.
MARKER = "BENCH_SPANS "

# Span fields, in order.
NAME, START, END, PARENT, INPUT, CHILD_S, COUNTS = range(7)


class Tracer:
    """Collects spans of one process in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.input_id: int | None = None
        self.round_starts: list[int] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, 0.0, 0.0, parent, self.input_id, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent][CHILD_S] += end - span[START]
            if counter is not None:
                span[COUNTS] = counter(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def extend(self, child_spans: list[list], input_id: int) -> None:
        """Adopt the spans another process recorded for one input."""
        offset = len(self.spans)
        for span in child_spans:
            if span[PARENT] is not None:
                span[PARENT] += offset
            span[INPUT] = input_id
            self.spans.append(span)

    def rounds(self) -> list[list[list]]:
        """The spans of each round, split at ``round_starts``."""
        bounds = self.round_starts + [len(self.spans)]
        return [self.spans[a:b] for a, b in zip(bounds, bounds[1:])]

    def write(self, path: str) -> None:
        """Write the spans as JSON lines (name, start, end, parent, input)."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "input": s[INPUT]}) + "\n")


def install(tracer: Tracer):
    """Bind traced wrappers in every loaded geoplan module; returns an undo."""
    originals = {}
    for layer, functions in TRACED.items():
        module = importlib.import_module(f"geoplan.{layer}")
        for fn_name, (_, _, counter) in functions.items():
            fn = getattr(module, fn_name)
            originals[id(fn)] = tracer.wrap(f"{layer}.{fn_name}", fn, counter)
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "geoplan" and not mod_name.startswith("geoplan."):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None and wrapper.__wrapped__ is value:
                setattr(module, attr, wrapper)
                undo.append((module, attr, value))

    def restore() -> None:
        for module, attr, value in undo:
            setattr(module, attr, value)

    return restore


def layer_metrics(spans, slowdown: float = 1.0) -> dict[str, float]:
    """Sum self time and work counts per layer over the given spans; times
    are divided by the host ``slowdown`` measured while they ran."""
    out = dict.fromkeys(SPAN_METRICS, 0)
    for span in spans:
        name = span[NAME]
        layer, fn_name = name.split(".", 1)
        self_s = (span[END] - span[START] - span[CHILD_S]) / slowdown
        if f"{layer}.calls" in out:
            out[f"{layer}.calls"] += 1
            out[f"{layer}.busy_s"] += self_s
        busy_key, count_key, _ = TRACED[layer][fn_name]
        if busy_key is not None:
            out[busy_key] += self_s
        counts = span[COUNTS]
        if isinstance(counts, dict):
            for key, value in counts.items():
                out[key] += value
        elif counts is not None:
            out[count_key] += counts
    return out
