"""The three in-process workloads: seeded inputs, one call per input, checks.

Each input is ``(kind, payload)``.  ``run`` does the work a user asks for
(build geoplan's objects from the raw rationals, call the layer, render the
answer with ``render``) and returns the result objects plus the emitted text;
``check`` validates the result with ``oracles``.  Inputs are made from the
seed by this module alone, never by calling geoplan.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from geoplan import cube_sphere, flat_torus, klein_bottle, render, strat_cover

import oracles

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Workload:
    name: str
    # kind -> number of inputs of that kind in one list
    mix: dict[str, int]
    generate: object
    run: object
    check: object

    def inputs(self, seed: int, scale: float = 1.0) -> tuple[list, list]:
        """The seeded input list, and the first input of each kind, which is
        enough to warm geoplan's caches.  ``scale`` shrinks every kind (tests
        only)."""
        rng = random.Random(seed)
        out, warmup = [], []
        for kind, count in self.mix.items():
            batch = [(kind, self.generate(kind, j, rng)) for j in range(max(1, round(count * scale)))]
            warmup.append(batch[0])
            out += batch
        rng.shuffle(out)
        return out, warmup


def rational(rng: random.Random, lo: Fraction = Fraction(0), hi: Fraction = Fraction(1)) -> Fraction:
    """A rational strictly inside (lo, hi), or lo itself, with a small denominator."""
    q = rng.randint(2, 40)
    return lo + (hi - lo) * Fraction(rng.randrange(q), q)


def interior(rng: random.Random) -> Fraction:
    while True:
        c = rational(rng, -HALF, HALF)
        if c != -HALF:
            return c


# ---------------------------------------------------------------------------
# flat-queries: torus and Klein bottle
# ---------------------------------------------------------------------------

def _klein_candidate(stratum: int, x, rng):
    if stratum == 1:
        return (rational(rng), rational(rng))
    if stratum == 4:
        return oracles.klein_project((x[0] + HALF, x[1] + HALF))
    g = [(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(2)]
    p, q = (oracles.deck(a, b, x) for a, b in g)
    if stratum == 2:
        # A point on the bisector of x and g(x) has two equidistant lifts.
        t = rational(rng, -HALF, HALF) / 4
        mid = ((x[0] + p[0]) / 2 - t * (p[1] - x[1]), (x[1] + p[1]) / 2 + t * (p[0] - x[0]))
        return oracles.klein_project(mid)
    # The circumcenter of x, g1(x), g2(x) is equidistant from three lifts.
    ax, ay = p[0] - x[0], p[1] - x[1]
    bx, by = q[0] - x[0], q[1] - x[1]
    d = 2 * (ax * by - ay * bx)
    if d == 0:
        return None
    a2, b2 = ax * ax + ay * ay, bx * bx + by * by
    return oracles.klein_project((x[0] + (by * a2 - ay * b2) / d, x[1] + (ax * b2 - bx * a2) / d))


def klein_pair(stratum: int, rng: random.Random):
    """A pair whose orbit scan finds ``stratum`` minimal lifts."""
    while True:
        x2 = rng.choice((Fraction(0), HALF)) if stratum == 4 else rational(rng)
        if stratum == 3 and x2 in (0, HALF):
            continue
        x = (rational(rng), x2)
        y = _klein_candidate(stratum, x, rng)
        if y is not None and oracles.klein_scan(x, y)[1] == stratum:
            return x, y


def torus_pair(n: int, rng: random.Random):
    """A pair on T^n with a random number of coordinates forced antipodal."""
    forced = set(rng.sample(range(n), rng.randint(0, n)))
    x = tuple(rational(rng) for _ in range(n))
    y = tuple(oracles.frac_part(c + HALF) if i in forced else rational(rng) for i, c in enumerate(x))
    return x, y


def flat_generate(kind: str, j: int, rng: random.Random):
    if kind == "torus":
        return torus_pair(2 + j % 5, rng)
    if kind.startswith("klein_s"):
        return klein_pair(int(kind[-1]), rng)
    if kind == "klein_cut_wedge":
        return (rational(rng), (Fraction(0), HALF)[j % 2])
    if kind == "klein_cut_theta":
        while True:
            x = (rational(rng), rational(rng))
            if x[1] not in (0, HALF):
                return x
    if kind == "klein_loop":
        return (Fraction(0), HALF)[j % 2]
    if kind == "torus_loop":
        return rational(rng)
    raise ValueError(kind)


def _graph_doc(graph) -> dict:
    return {
        "vertices": [[list(v.point), v.multiplicity] for v in graph.vertices],
        "edges": [[e.start_vertex, e.end_vertex, [list(p) for p in e.points], e.gluing] for e in graph.edges],
    }


def flat_run(kind: str, payload):
    if kind == "torus":
        x, y = (flat_torus.TorusPoint.make(p) for p in payload)
        geos = flat_torus.torus_geodesics(x, y)
        plan = flat_torus.torus_plan(x, y)
        doc = {"count": len(geos), "displacements": [list(g.displacement) for g in geos],
               "squared_length": geos[0].squared_length, "domain": plan.domain,
               "rule": plan.rule, "chosen": list(plan.geodesic.displacement)}
        return (geos, plan), render.dump_json(doc)
    if kind.startswith("klein_s"):
        x, y = (klein_bottle.KleinPoint.make(p) for p in payload)
        geos = klein_bottle.klein_geodesics(x, y)
        plan = klein_bottle.klein_plan(x, y)
        doc = {"count": len(geos), "end_lifts": [list(g.end_lift) for g in geos],
               "decks": [g.deck.tag for g in geos], "squared_length": geos[0].squared_length,
               "domain": plan.domain, "rule": plan.rule, "chosen": list(plan.geodesic.end_lift)}
        return (geos, plan), render.dump_json(doc)
    if kind.startswith("klein_cut"):
        graph = klein_bottle.klein_cut_locus(klein_bottle.KleinPoint.make(payload))
        return graph, render.dump_json(_graph_doc(graph))
    if kind == "klein_loop":
        result = klein_bottle.klein_monodromy(payload, 16)
        return result, render.dump_json({"permutation": list(result.permutation),
                                          "labels": list(result.sheet_labels)})
    if kind == "torus_loop":
        perm = flat_torus.torus_loop_monodromy(16, payload)
        return perm, render.dump_json({"permutation": list(perm)})
    raise ValueError(kind)


def flat_check(kind: str, payload, result) -> None:
    if kind == "torus":
        oracles.check_torus(*payload, *result)
    elif kind.startswith("klein_s"):
        oracles.check_klein(*payload, *result)
    elif kind.startswith("klein_cut"):
        oracles.check_klein_cut(payload, result)
    elif kind == "klein_loop":
        oracles.check_klein_loop(result)
    else:
        oracles.check_torus_loop(result)


FLAT = Workload(
    name="flat-queries",
    mix={"torus": 66, "klein_s1": 18, "klein_s2": 18, "klein_s3": 18, "klein_s4": 18,
         "klein_cut_wedge": 10, "klein_cut_theta": 14, "klein_loop": 10, "torus_loop": 8},
    generate=flat_generate,
    run=flat_run,
    check=flat_check,
)


# ---------------------------------------------------------------------------
# cube-queries
# ---------------------------------------------------------------------------

FACES = ("x-", "x+", "y-", "y+", "z-", "z+")


def cube_generate(kind: str, j: int, rng: random.Random):
    if kind == "corner":
        return None
    if kind == "opposite":
        return ("z-", interior(rng), interior(rng)), ("z+", interior(rng), interior(rng))
    f = rng.choice(FACES)
    x = (f, interior(rng), interior(rng))
    if kind == "same":
        return x, (f, interior(rng), interior(rng))
    if kind == "adjacent":
        g = rng.choice([g for g in FACES if g[0] != f[0]])
        return x, (g, interior(rng), interior(rng))
    if kind == "edge":
        u = rng.choice((-HALF, HALF))
        x = (f, u, interior(rng)) if j % 4 < 2 else (f, interior(rng), u)
        opposite = f[0] + ("+" if f[1] == "-" else "-")
        g = opposite if j % 2 else rng.choice([g for g in FACES if g[0] != f[0]])
        return x, (g, interior(rng), interior(rng))
    raise ValueError(kind)


def _cube_doc(geos) -> dict:
    return {"count": len(geos), "squared_length": geos[0].squared_length,
            "paths": [[list(g.face_sequence), [list(p) for p in g.trace]] for g in geos]}


def cube_run(kind: str, payload):
    if kind == "corner":
        x, y = cube_sphere.corner_pair()
    else:
        x, y = (cube_sphere.CubePoint.make(*p) for p in payload)
    geos = cube_sphere.cube_geodesics(x, y)
    doc = _cube_doc(geos)
    table = None
    if kind == "opposite":
        table = cube_sphere.opposite_face_table(payload[0][1:], payload[1][1:])
        doc["table"] = {"l_sq": list(table.l_sq), "admissible": list(table.admissible),
                        "argmin": list(table.argmin_indices())}
    return (x.point, y.point, geos, table), render.dump_json(doc)


def cube_check(kind: str, payload, result) -> None:
    x3, y3, geos, table = result
    oracles.check_cube(x3, y3, geos, corner=kind == "corner", same_face=kind == "same")
    if table is not None:
        oracles.check_table(table, geos)


CUBE = Workload(
    name="cube-queries",
    mix={"opposite": 55, "adjacent": 13, "same": 13, "edge": 26, "corner": 3},
    generate=cube_generate,
    run=cube_run,
    check=cube_check,
)


# ---------------------------------------------------------------------------
# poset-bounds
# ---------------------------------------------------------------------------

# Corner posets built per list: n = 8 and up stays out, one call would take a whole run.
BUILD_SIZES = (4,) * 16 + (5,) * 14 + (6,) * 14 + (7,)
BUILTIN_BOUNDS = {"circle": 1, "klein_S4": 3, "cube_corner": 3,
                  "torus_corner:2": 2, "torus_corner:3": 3, "torus_corner:4": 4}
MUTATIONS = ("non_injective", "missing_element", "level_gap", "not_total", "duplicate_id", "foreign_sheet")


def corner_document(n: int) -> dict:
    """The all-antipodal corner poset of the flat n-torus, written out
    directly: patterns over {+,-,o}, level 1 + #o, inclusion maps."""

    def sheets(pattern):
        free = [i for i, c in enumerate(pattern) if c == "o"]
        out = []
        for signs in product("+-", repeat=len(free)):
            label = list(pattern)
            for i, s in zip(free, signs):
                label[i] = s
            out.append("".join(label))
        return sorted(out)

    elements, covers = [], []
    for pattern in product("+-o", repeat=n):
        elements.append({"id": "p" + "".join(pattern), "level": 1 + pattern.count("o"),
                         "sheets": sheets(pattern)})
        for i, c in enumerate(pattern):
            if c != "o":
                bigger = pattern[:i] + ("o",) + pattern[i + 1:]
                covers.append({"src": "p" + "".join(pattern), "dst": "p" + "".join(bigger),
                               "map": {s: s for s in sheets(pattern)}})
    flags = {"trivial_coverings": True, "locally_compact": True, "nonempty_intersections": True}
    return {"elements": elements, "covers": covers, "flags": flags}


def mutate(doc: dict, how: str, rng: random.Random) -> None:
    """Break one poset axiom in place."""
    covers = doc["covers"]
    if how == "non_injective":
        cover = rng.choice([c for c in covers if len(c["map"]) >= 2])
        keys = sorted(cover["map"])
        cover["map"][keys[1]] = cover["map"][keys[0]]
    elif how == "missing_element":
        rng.choice(covers)["dst"] = "absent"
    elif how == "level_gap":
        rng.choice(doc["elements"])["level"] += 2
    elif how == "not_total":
        cover = rng.choice(covers)
        del cover["map"][sorted(cover["map"])[0]]
    elif how == "duplicate_id":
        doc["elements"].append(dict(rng.choice(doc["elements"])))
    elif how == "foreign_sheet":
        cover = rng.choice(covers)
        cover["map"][sorted(cover["map"])[0]] = "foreign"
    else:
        raise ValueError(how)


def poset_generate(kind: str, j: int, rng: random.Random):
    if kind == "build":
        return BUILD_SIZES[j % len(BUILD_SIZES)]
    if kind == "roundtrip":
        return sorted(BUILTIN_BOUNDS)[j % len(BUILTIN_BOUNDS)]
    n = 2 + j % 3
    doc = corner_document(n)
    rng.shuffle(doc["elements"])
    rng.shuffle(doc["covers"])
    if kind == "document":
        return json.dumps(doc), n
    mutate(doc, MUTATIONS[j // 3 % len(MUTATIONS)], rng)
    return json.dumps(doc), None


def _bound_doc(report) -> dict:
    return {"valid": report.valid, "errors": list(report.errors), "levels": report.levels,
            "lower_bound": report.lower_bound, "inconsistent": list(report.inconsistent_ids)}


def poset_run(kind: str, payload):
    if kind == "build":
        poset = strat_cover.torus_corner_poset(payload)
        report = strat_cover.lower_bound(poset)
        return (poset, report), render.dump_json(_bound_doc(report))
    if kind == "roundtrip":
        poset, flags = strat_cover.builtin_poset(payload)
        text = render.dump_json(strat_cover.to_document(poset, flags))
        loaded, loaded_flags = strat_cover.loads_document(text)
        report = strat_cover.lower_bound(loaded)
        again = render.dump_json(strat_cover.to_document(loaded, loaded_flags))
        return (report, text, again), text + render.dump_json(_bound_doc(report))
    poset, _ = strat_cover.loads_document(payload[0])
    report = strat_cover.lower_bound(poset)
    return report, render.dump_json(_bound_doc(report))


def poset_check(kind: str, payload, result) -> None:
    if kind == "build":
        oracles.check_corner_poset(payload, *result)
    elif kind == "roundtrip":
        report, text, again = result
        oracles.expect(text == again, "document round trip is not byte-stable")
        oracles.check_bound(report, BUILTIN_BOUNDS[payload])
    else:
        oracles.check_bound(result, payload[1])


POSET = Workload(
    name="poset-bounds",
    mix={"build": len(BUILD_SIZES), "roundtrip": 30, "document": 15, "mutated": 25},
    generate=poset_generate,
    run=poset_run,
    check=poset_check,
)

IN_PROCESS = {w.name: w for w in (FLAT, CUBE, POSET)}
