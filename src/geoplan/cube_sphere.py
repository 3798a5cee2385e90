"""Shortest paths on the boundary of the unit cube (a flat 2-sphere).

The surface is the boundary of the cube with side 1, carrying the intrinsic
flat metric; each face gets a chart centered at its midpoint.  Shortest paths
are found by *unfolding*: every face sequence rolls out isometrically into
the plane, a candidate path is the straight planar segment between the rolled
endpoints, and the candidate is admissible when the segment crosses exactly
the shared edges of the sequence, in order, without running through a cube
corner mid-path.  The global minimizers over all simple face sequences are
the geodesics.

Every unfolding map is a quarter turn plus an integer shift, so each
face sequence is cached once as small integer data, and each query scales
its two endpoints to integer charts.  Sequences are then ranked by the
squared length of their unfolded segment and tested for admissibility
best-first, in integers, stopping after the first length that has an
admissible candidate.  Tied candidates with one surface trace are merged on
integer keys, so fractions are built only for the returned paths.

For opposite-face pairs the twelve candidates are twelve face sequences,
listed by index; each one's squared length and admissibility come off the
same unfolding (the closed-form lengths are the oracle in ``verify``).  The
module also exposes the corner machinery: the witness pairs marching down a
face diagonal toward an opposite-corner pair, the six corner geodesics, and
the limits saying which corner geodesic each diagonal family converges to.
Both are read off the unfolding alone: the corner geodesics are labeled
D1..D6 by their edge midpoints, stepped by the corner symmetry
``(X, Y, Z) -> (-Z, -X, -Y)``, and each family limit is looked up among
them.  ``verify`` checks them against the corner poset's typed table.  The
images of the three family maps intersect pairwise but have empty triple
intersection, which is the obstruction bounding the planner count at the
corner pair.

A point times an even common denominator lifts to an integer vector ``q``,
and lies on face ``f`` when ``n_f . q`` is half that denominator, ``n_f``
being the face's doubled center (its outward normal).  This one rule lists
a point's faces, picks its owner and gives each query its end faces.
Points, paths and tables are named tuples with empty ``__slots__``;
:class:`CubePoint` checks its chart in ``__new__``.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import itemgetter

from .metric_core import Polyline, _frac

__all__ = [
    "CandidateTable",
    "CubePoint",
    "candidate_path",
    "FACES",
    "UnfoldedPath",
    "WitnessPair",
    "corner_limit_geodesics",
    "corner_limits",
    "corner_pair",
    "cube_geodesics",
    "opposite_face_table",
    "rotate_point",
    "rotate_trace",
    "witness_sequences",
]

_HALF = Fraction(1, 2)

Vec3 = tuple[Fraction, Fraction, Fraction]
Vec2 = tuple[Fraction, Fraction]

#: Face labels in canonical (ownership) order.
FACES: tuple[str, ...] = ("x-", "x+", "y-", "y+", "z-", "z+")

#: Face frames: the doubled center (the outward normal ``n_f``), the chart
#: u-axis and v-axis.
_FRAMES: dict[str, tuple[tuple[int, int, int], ...]] = {
    "x-": ((-1, 0, 0), (0, 1, 0), (0, 0, 1)),
    "x+": ((1, 0, 0), (0, 1, 0), (0, 0, -1)),
    "y-": ((0, -1, 0), (0, 0, 1), (1, 0, 0)),
    "y+": ((0, 1, 0), (0, 0, 1), (-1, 0, 0)),
    "z-": ((0, 0, -1), (1, 0, 0), (0, 1, 0)),
    "z+": ((0, 0, 1), (1, 0, 0), (0, -1, 0)),
}

#: Each face's chart in space, axis by axis: ``(sign, k)`` copies chart entry
#: ``k`` (0 for u, 1 for v) with that sign, ``(c, None)`` is the face's own
#: center coordinate ``c``.
_EMBED: dict[str, tuple[tuple, ...]] = {
    face: tuple(
        (eu[i], 0) if eu[i] else (ev[i], 1) if ev[i] else (Fraction(n[i], 2), None)
        for i in range(3)
    )
    for face, (n, eu, ev) in _FRAMES.items()
}


def _lift(face: str, u: Fraction, v: Fraction, scale: int) -> tuple[int, int, int]:
    """``scale`` (even, a multiple of both chart denominators) times the
    point with chart ``(u, v)`` in ``face``, as integers."""
    n, eu, ev = _FRAMES[face]
    half = scale // 2
    a = u.numerator * (scale // u.denominator)
    b = v.numerator * (scale // v.denominator)
    return tuple(half * n[i] + a * eu[i] + b * ev[i] for i in range(3))


def _faces_at(q: tuple[int, ...], half: int) -> tuple[str, ...]:
    """The faces, in ``FACES`` order, that hold the surface point
    ``q / (2 * half)``: those whose plane it lies on, ``n_f . q == half``."""
    return tuple(
        f for f, (n, _, _) in _FRAMES.items() if n[0] * q[0] + n[1] * q[1] + n[2] * q[2] == half
    )


class CubePoint(namedtuple("CubePoint", "face u v")):
    """A surface point: owning face plus face-centered chart coordinates,
    the named tuple ``(face, u, v)`` with Fraction charts, checked on
    construction.

    Points on edges or corners are owned by the first containing face in
    canonical order; use :meth:`make` to construct with normalization.
    """

    __slots__ = ()

    def __new__(cls, face: str, u: Fraction, v: Fraction):
        if face not in _FRAMES:
            raise ValueError(f"unknown face {face!r}")
        for c in (u, v):
            if not isinstance(c, Fraction):
                raise TypeError("coordinates must be Fractions; use CubePoint.make")
            if 2 * abs(c.numerator) > c.denominator:
                raise ValueError("chart coordinates must lie in [-1/2, 1/2]")
        return tuple.__new__(cls, (face, u, v))

    @classmethod
    def make(cls, face: str, u, v) -> "CubePoint":
        if face not in _FRAMES:
            raise ValueError(f"unknown face {face!r}")
        u, v = _frac(u), _frac(v)
        if 2 * abs(u.numerator) < u.denominator and 2 * abs(v.numerator) < v.denominator:
            # A strictly interior chart point lies on its own face only.
            return cls(face, u, v)
        scale = lcm(2, u.denominator, v.denominator)
        return cls._owned(_lift(face, u, v, scale), scale)

    @classmethod
    def from_space(cls, point) -> "CubePoint":
        p = tuple(_frac(c) for c in point)
        scale = lcm(2, *(c.denominator for c in p))
        return cls._owned(tuple(c.numerator * (scale // c.denominator) for c in p), scale)

    @classmethod
    def _owned(cls, q: tuple[int, ...], scale: int) -> "CubePoint":
        """The point ``q / scale`` (``scale`` even) in its owner's chart."""
        half = scale // 2
        # a point outside the cube may still lie on a face's plane
        faces = _faces_at(q, half) if all(abs(c) <= half for c in q) else ()
        if not faces:
            coords = ",".join(str(Fraction(c, scale)) for c in q)
            raise ValueError(f"point {coords} is not on the cube surface")
        u, v = _scaled_chart(faces[0], q, half)
        return cls(faces[0], Fraction(u, scale), Fraction(v, scale))

    @property
    def point(self) -> Vec3:
        chart = (self.u, self.v)
        return tuple(
            s if k is None else chart[k] if s == 1 else -chart[k] for s, k in _EMBED[self.face]
        )

    def faces(self) -> tuple[str, ...]:
        scale = lcm(2, self.u.denominator, self.v.denominator)
        return _faces_at(_lift(self.face, self.u, self.v, scale), scale // 2)


def _adjacent(f: str, g: str) -> bool:
    return f != g and f[0] != g[0]


def _shared_edge(f: str, g: str) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Doubled endpoints (sorted) of the common edge of two adjacent faces:
    one step either way from ``n_f + n_g`` along the axis both normals miss."""
    if not _adjacent(f, g):
        raise ValueError(f"faces {f!r} and {g!r} share no edge")
    mid = [a + b for a, b in zip(_FRAMES[f][0], _FRAMES[g][0])]
    return tuple(c or -1 for c in mid), tuple(c or 1 for c in mid)


class UnfoldedPath(
    namedtuple(
        "UnfoldedPath", "face_sequence planar_start planar_end squared_length trace"
    )
):
    """An admissible unfolded candidate: the face sequence, the straight
    planar segment, and the exact surface breakpoints (``trace``)."""

    __slots__ = ()

    @property
    def planar_segment(self) -> tuple[Vec2, Vec2]:
        return (self.planar_start, self.planar_end)

    def as_polyline(self) -> Polyline:
        if len(self.trace) == 1:
            return Polyline((self.trace[0], self.trace[0]))
        return Polyline(self.trace)

    def face_outlines(self) -> tuple[tuple[Vec2, ...], ...]:
        """Planar outline of each face square in the unfolded strip."""
        corners = ((-1, -1), (1, -1), (1, 1), (-1, 1), (-1, -1))
        maps, _ = _unfold_maps(self.face_sequence)
        return tuple(
            tuple((Fraction(u, 2), Fraction(v, 2)) for u, v in (_apply(m, *c) for c in corners))
            for m in maps
        )


# ---------------------------------------------------------------------------
# Integer unfolding
#
# In doubled chart coordinates (face squares [-1, 1]^2, so unfolded face
# centers sit at even and cube corners at odd integer points) every
# unfolding map is a quarter turn plus an integer shift, stored as
# (cos, sin, shift_u, shift_v).  A query lifts both endpoints to integers on
# one even scale, ``2 * half`` (see ``_Query``), so their charts are integers
# too.  A doubled map then acts on scaled charts with its shift multiplied by
# ``half``.  All admissibility tests are integer cross-multiplications.
# ---------------------------------------------------------------------------

_Map = tuple[int, int, int, int]
#: Crossed edge: doubled planar start and direction in the unfolded strip,
#: doubled surface start and direction of the same edge.
_Edge = tuple[int, int, int, int, tuple[int, int, int], tuple[int, int, int]]
#: Surface breakpoints of a path, each coordinate a reduced (numerator,
#: denominator) pair.
_Key = tuple[tuple[tuple[int, int], ...], ...]
#: Scaled planar start and end of an unfolded segment (``_Query.endpoints``).
_Ends = tuple[int, int, int, int]


def _scaled_chart(face: str, q: tuple[int, ...], half: int) -> tuple[int, int]:
    """Chart coordinates in ``face``, times ``2 * half``, of the surface
    point ``q / (2 * half)`` given by its integer coordinates ``q``."""
    n, eu, ev = _FRAMES[face]
    d = [q[i] - half * n[i] for i in range(3)]
    return (
        d[0] * eu[0] + d[1] * eu[1] + d[2] * eu[2],
        d[0] * ev[0] + d[1] * ev[1] + d[2] * ev[2],
    )


def _apply(m: _Map, a: int, b: int, half: int = 1) -> tuple[int, int]:
    c, s, t0, t1 = m
    return (c * a - s * b + half * t0, s * a + c * b + half * t1)


@lru_cache(maxsize=None)
def _unfold_maps(seq: tuple[str, ...]) -> tuple[tuple[_Map, ...], tuple[_Edge, ...]]:
    """Doubled unfolding map of every face of ``seq`` (the first is the
    identity) and every crossed edge, cached per sequence and built from
    the entry of ``seq`` without its last face."""
    if len(seq) == 1:
        return ((1, 0, 0, 0),), ()
    maps, edges = _unfold_maps(seq[:-1])
    f, g = seq[-2:]
    e0, e1 = _shared_edge(f, g)
    a0 = _apply(maps[-1], *_scaled_chart(f, e0, 1))
    a1 = _apply(maps[-1], *_scaled_chart(f, e1, 1))
    b0 = _scaled_chart(g, e0, 1)
    b1 = _scaled_chart(g, e1, 1)
    da = (a1[0] - a0[0], a1[1] - a0[1])
    db = (b1[0] - b0[0], b1[1] - b0[1])
    # both edges have doubled length 2, so cos and sin are exact quarters
    c = (db[0] * da[0] + db[1] * da[1]) // 4
    s = (db[0] * da[1] - db[1] * da[0]) // 4
    r0, r1 = _apply((c, s, 0, 0), *b0)
    return (
        (*maps, (c, s, a0[0] - r0, a0[1] - r1)),
        (*edges, (*a0, *da, e0, tuple(w - v for v, w in zip(e0, e1)))),
    )


class _Query:
    """Both endpoints of one query, lifted once to integers.

    ``scale`` is the lcm of 2 and the four chart denominators.  A surface
    point's coordinates are +-u, +-v and +-1/2, so this equals the lcm of
    the 3-D denominators, and ``scale`` times a point is an integer vector
    ``q`` (:func:`_lift`).  The faces holding the endpoint are read off
    ``q`` (:func:`_faces_at`), in ``FACES`` order, and so is the chart in
    each of them; ``exact_ends`` holds each ``q_i / scale`` as a reduced
    (numerator, denominator) pair, so no Fraction is built."""

    __slots__ = ("half", "scale", "x_charts", "y_charts", "exact_ends")

    def __init__(self, x: CubePoint, y: CubePoint):
        scale = lcm(2, x.u.denominator, x.v.denominator, y.u.denominator, y.v.denominator)
        half = scale // 2
        lifts = xq, yq = _lift(*x, scale), _lift(*y, scale)
        self.scale, self.half = scale, half
        self.x_charts = {f: _scaled_chart(f, xq, half) for f in _faces_at(xq, half)}
        self.y_charts = {f: _scaled_chart(f, yq, half) for f in _faces_at(yq, half)}
        self.exact_ends = tuple(
            tuple((c // (g := gcd(c, scale)), scale // g) for c in q) for q in lifts
        )

    def endpoints(self, seq: tuple[str, ...]) -> _Ends:
        """Scaled planar start and end of the unfolded segment."""
        maps, _ = _unfold_maps(seq)
        p = self.x_charts[seq[0]]
        return (*p, *_apply(maps[-1], *self.y_charts[seq[-1]], self.half))


def _crossings(query: _Query, seq: tuple[str, ...], ends: _Ends) -> list[tuple[int, int]] | None:
    """Admissibility of the unfolded segment, decided in integers.

    Returns the edge parameter ``s`` of every crossing as (numerator,
    positive denominator), or None when the segment is degenerate, leaves
    the strip of faces, crosses an edge outside its span, crosses out of
    order or twice at one mid-path instant, or passes through a cube corner
    in mid-path.  Crossings at the very start or end of the segment may sit
    on edge endpoints (paths may begin or end at a corner).
    """
    _, edges = _unfold_maps(seq)
    px, py, qx, qy = ends
    dx, dy = qx - px, qy - py
    if len(seq) > 1 and dx == dy == 0:
        return None
    half = query.half
    out: list[tuple[int, int]] = []
    prev_tn = prev_d = 0
    for ax, ay, ex, ey, _, _ in edges:
        ox, oy = half * ax - px, half * ay - py
        d = dx * ey - dy * ex
        if d == 0:
            return None
        tn = ox * ey - oy * ex
        sn = ox * dy - oy * dx
        if d < 0:
            d, tn, sn = -d, -tn, -sn
        # t = tn / d is the position along the segment, s = sn / (half * d)
        # the position along the edge
        if not 0 <= tn <= d:
            return None
        if out:
            later, earlier = tn * prev_d, prev_tn * d
            if later < earlier or (later == earlier and 0 < tn < d):
                return None
        sd = half * d
        if tn == 0 or tn == d:
            if not 0 <= sn <= sd:
                return None
        elif not 0 < sn < sd:
            return None
        out.append((sn, sd))
        prev_tn, prev_d = tn, d
    return out


def _breakpoints(query: _Query, seq: tuple[str, ...], crossings: list[tuple[int, int]]) -> _Key:
    """Surface breakpoints of an admissible unfolding, each coordinate as a
    reduced (numerator, positive denominator) pair: the start, every edge
    crossing that moves, and the end when it moves.  Equal keys mean equal
    traces, and equal endpoints key to the one breakpoint ``(x,)``."""
    _, edges = _unfold_maps(seq)
    first, last = query.exact_ends
    points = [first]
    for (sn, sd), (*_, start, step) in zip(crossings, edges):
        # The crossing is (start + (sn / sd) * step) / 2.  Off the edge's
        # axis that is start / 2, a corner coordinate +-1/2.
        cp = []
        for a, b in zip(start, step):
            if b:
                num, den = a * sd + sn * b, 2 * sd
                g = gcd(num, den)
                cp.append((num // g, den // g))
            else:
                cp.append((a, 2))
        cp = tuple(cp)
        if cp != points[-1]:
            points.append(cp)
    if last != points[-1]:
        points.append(last)
    return tuple(points)


def _squared_length(query: _Query, ends: _Ends) -> Fraction:
    """Squared length of the unfolded segment with scaled ends ``ends``."""
    px, py, qx, qy = ends
    return Fraction((qx - px) ** 2 + (qy - py) ** 2, query.scale ** 2)


def _path(query: _Query, seq: tuple[str, ...], ends: _Ends, key: _Key) -> UnfoldedPath:
    """The unfolded path of ``seq`` with breakpoints ``key``, in Fractions."""
    px, py, qx, qy = ends
    m = query.scale
    return UnfoldedPath(
        face_sequence=seq,
        planar_start=(Fraction(px, m), Fraction(py, m)),
        planar_end=(Fraction(qx, m), Fraction(qy, m)),
        squared_length=_squared_length(query, ends),
        trace=tuple(tuple(Fraction(n, d) for n, d in p) for p in key),
    )


def _unfold_path(query: _Query, seq: tuple[str, ...]) -> UnfoldedPath | None:
    """Unfold the face sequence; None when it is not admissible (see
    :func:`_crossings`).  Fractions are built only for an admissible path."""
    ends = query.endpoints(seq)
    crossings = _crossings(query, seq, ends)
    if crossings is None:
        return None
    return _path(query, seq, ends, _breakpoints(query, seq, crossings))


#: A ranking row: a face sequence, its first and last face, its last map.
_Row = tuple[tuple[str, ...], str, str, _Map]


@lru_cache(maxsize=None)
def _face_sequences(starts, ends) -> tuple[_Row, ...]:
    """Every simple face sequence from a face in ``starts`` to one in
    ``ends``, as ranking rows, less those with a touch-only end face.  No
    face repeats, so a sequence has at most six faces.

    A row is left out when its second face is in ``starts`` or its
    second-to-last face is in ``ends``.  Say the second face ``f1`` holds x
    too.  Then x lies on the edge that ``f1`` shares with the first face
    ``f0``, and the unfolded segment starts on that edge's line, so it
    crosses the edge at x itself or runs along it, which is inadmissible.
    An admissible unfolding thus meets ``f0`` only at x.  The sequence
    without ``f0`` is ranked too, unfolds to the same segment (x has one
    place in the plane, on the shared edge), and crosses the same edges at
    the same instants but the first one, so it is admissible and has the
    same squared length.  The dropped crossing is x itself, which
    :func:`_breakpoints` never lists twice, so the breakpoint key is the
    same.  The dedupe in :func:`cube_geodesics` keeps the shorter sequence
    of one key (or one shorter still, where that one is left out too), so
    leaving the row out changes no answer; the last face mirrors this.
    Single-face tables, ``(f,)`` to ``(g,)``, lose no row."""
    out: list[_Row] = []

    def extend(path: tuple[str, ...]) -> None:
        last = path[-1]
        if last in ends and (len(path) == 1 or path[1] not in starts and path[-2] not in ends):
            out.append((path, path[0], last, _unfold_maps(path)[0][-1]))
        for g in FACES:
            if g not in path and _adjacent(last, g):
                extend(path + (g,))

    for f in starts:
        extend((f,))
    return tuple(out)


def cube_geodesics(x: CubePoint, y: CubePoint) -> tuple[UnfoldedPath, ...]:
    """All shortest paths between two surface points.

    Complete by the theorem of Sharir and Schorr ("On shortest paths in
    polyhedral spaces", 1986): on a convex polyhedron a shortest path passes
    through no vertex and meets each face in at most one segment, since a
    path that left a convex face and came back could be shortened by the
    straight segment inside it.  So the simple face sequences, which repeat
    no face, hold every shortest path.

    Both endpoints are lifted once to integers (:class:`_Query`).  Ranks
    every simple face sequence between faces containing the endpoints, but
    those that only touch their first or last face at an endpoint (see
    :func:`_face_sequences`), by the planar length of its unfolded segment,
    tests admissibility best-first, and stops after the first length with
    an admissible candidate.  Those minimizers are returned in trace order,
    one per exact surface trace: tied unfoldings with one trace are dropped
    on exact integer keys of their breakpoints before any Fraction is built,
    keeping the one with the shortest, then least, face sequence.  At the
    corner pair the pruned table ranks 54 rows, not 240, and tests 6 for
    admissibility, not 150: one per geodesic.

    Equal endpoints take the same path.  The only admissible zero-length
    rows are the single faces ``(f,)`` holding the point, since
    :func:`_crossings` refuses a degenerate segment over two faces or more.
    Each unfolds with no crossing and keys to the one breakpoint ``(x,)``,
    and the tie rule keeps the least face: faces meeting at a point differ
    in their axis letter, so that is the owner.  The answer depends only on the surface
    point, also for a point built directly in a chart that does not own it.
    """
    query = _Query(x, y)
    x_charts, y_charts, half = query.x_charts, query.y_charts, query.half
    ranked = []
    for seq, first, last, (c, s, t0, t1) in _face_sequences(tuple(x_charts), tuple(y_charts)):
        px, py = x_charts[first]
        a, b = y_charts[last]
        qx, qy = c * a - s * b + half * t0, s * a + c * b + half * t1
        ranked.append(((qx - px) ** 2 + (qy - py) ** 2, seq, (px, py, qx, qy)))
    ranked.sort(key=itemgetter(0))
    winners: dict[_Key, tuple[tuple[str, ...], _Ends]] = {}
    best = None
    for length, seq, e in ranked:
        if winners and length != best:
            break
        crossings = _crossings(query, seq, e)
        if crossings is not None:
            key = _breakpoints(query, seq, crossings)
            kept = winners.get(key)
            if kept is None or (len(seq), seq) < (len(kept[0]), kept[0]):
                winners[key] = (seq, e)
            best = length
    if not winners:
        raise RuntimeError("no simple face sequence unfolds admissibly, against Sharir-Schorr")
    return tuple(
        sorted((_path(query, *kept, key) for key, kept in winners.items()), key=lambda c: c.trace)
    )


# ---------------------------------------------------------------------------
# The twelve opposite-face candidates
# ---------------------------------------------------------------------------


#: The twelve opposite-face candidates by index, as face sequences from the
#: bottom face z- to the top face z+.  They run around z- through y+, x+, y-,
#: x-: each side alone, then with the next side, then the next side with it.
_CANDIDATES: tuple[tuple[str, ...], ...] = (
    ("z-", "y+", "z+"),
    ("z-", "y+", "x+", "z+"),
    ("z-", "x+", "y+", "z+"),
    ("z-", "x+", "z+"),
    ("z-", "x+", "y-", "z+"),
    ("z-", "y-", "x+", "z+"),
    ("z-", "y-", "z+"),
    ("z-", "y-", "x-", "z+"),
    ("z-", "x-", "y-", "z+"),
    ("z-", "x-", "z+"),
    ("z-", "x-", "y+", "z+"),
    ("z-", "y+", "x-", "z+"),
)


class CandidateTable(namedtuple("CandidateTable", "l_sq admissible")):
    """The twelve opposite-face candidates at one pair, by index: their
    exact squared lengths and whether each unfolds admissibly."""

    __slots__ = ()

    def argmin_indices(self) -> tuple[int, ...]:
        """1-based indices of the admissible candidates of minimal length."""
        best = min(v for v, a in zip(self.l_sq, self.admissible) if a)
        return tuple(
            i + 1
            for i, (v, a) in enumerate(zip(self.l_sq, self.admissible))
            if a and v == best
        )

    def min_squared_length(self) -> Fraction:
        return min(v for v, a in zip(self.l_sq, self.admissible) if a)


def opposite_face_table(x, y) -> CandidateTable:
    """Unfold the twelve candidates of a bottom/top face pair.

    ``x`` and ``y`` are chart coordinates on the two opposite faces, both
    strictly interior; boundary points go through the general oracle.
    Each candidate's squared length and admissibility are read off its
    integer unfolding, the one that :func:`cube_geodesics` ranks.
    """
    x1, x2 = (_frac(c) for c in x)
    y1, y2 = (_frac(c) for c in y)
    for c in (x1, x2, y1, y2):
        if 2 * abs(c.numerator) >= c.denominator:
            raise ValueError("opposite-face charts require interior points")
    query = _Query(CubePoint("z-", x1, x2), CubePoint("z+", y1, y2))
    ends = [query.endpoints(seq) for seq in _CANDIDATES]
    return CandidateTable(
        l_sq=tuple(_squared_length(query, e) for e in ends),
        admissible=tuple(
            _crossings(query, seq, e) is not None for seq, e in zip(_CANDIDATES, ends)
        ),
    )


def candidate_path(x, y, index: int) -> UnfoldedPath | None:
    """Unfold one of the twelve opposite-face candidates (1-based index)
    for interior bottom/top chart coordinates; None when inadmissible."""
    if not 1 <= index <= 12:
        raise ValueError("candidate index must lie in 1..12")
    x1, x2 = (_frac(c) for c in x)
    y1, y2 = (_frac(c) for c in y)
    query = _Query(CubePoint.make("z-", x1, x2), CubePoint.make("z+", y1, y2))
    return _unfold_path(query, _CANDIDATES[index - 1])


# ---------------------------------------------------------------------------
# Witness pairs along the diagonal
# ---------------------------------------------------------------------------


class WitnessPair(namedtuple("WitnessPair", "label indices")):
    """A labeled witness pair's minimizing candidate indices."""

    __slots__ = ()


def _witness_pair(label: str, xcoords: Vec2, ycoords: Vec2) -> WitnessPair:
    return WitnessPair(label, opposite_face_table(xcoords, ycoords).argmin_indices())


def witness_sequences(i: int, j: int) -> tuple[WitnessPair, WitnessPair, WitnessPair]:
    """The nested witness pairs marching toward the opposite-corner pair.

    The first pair sits on both face diagonals at equal distance from the
    corners (four minimizing candidates, indices 1/4/7/10); the second moves
    the bottom point outward along its diagonal (two candidates, 1/4); the
    third breaks the remaining tie with the second-coordinate push
    ``1/100``, which leaves the single candidate 1 (``verify``'s
    ``witness_sequences`` check reads it for all ``i, j <= 5``).
    """
    for name, value in (("i", i), ("j", j)):
        if value < 1:
            raise ValueError(f"{name} must be a positive integer")
    a = Fraction(1, 5 * i)
    b = Fraction(1, 5 * j)
    eps = Fraction(1, 100)
    s = _witness_pair(
        "four_path",
        (-_HALF + a, -_HALF + a),
        (_HALF - a, -_HALF + a),
    )
    r = _witness_pair(
        "two_path",
        (-_HALF + a + b, -_HALF + a + b),
        (_HALF - a, -_HALF + a),
    )
    t = _witness_pair(
        "one_path",
        (-_HALF + a + b, -_HALF + a + b + eps),
        (_HALF - a, -_HALF + a),
    )
    return (s, r, t)


# ---------------------------------------------------------------------------
# Corner structure
# ---------------------------------------------------------------------------


def corner_pair() -> tuple[CubePoint, CubePoint]:
    """The opposite corner pair: bottom (-1/2,-1/2) and top (1/2,-1/2)."""
    return (
        CubePoint.make("z-", -_HALF, -_HALF),
        CubePoint.make("z+", _HALF, -_HALF),
    )


def rotate_point(p: Vec3) -> Vec3:
    """Order-3 rotation about the corner diagonal: (X, Y, Z) -> (Y, Z, X)."""
    return (p[1], p[2], p[0])


def rotate_trace(trace: tuple[Vec3, ...], times: int = 1) -> tuple[Vec3, ...]:
    out = trace
    for _ in range(times % 3):
        out = tuple(rotate_point(p) for p in out)
    return out


def _family_corner_trace(family: str, idx: int) -> tuple[Vec3, ...]:
    """Exact limit of a diagonal-family path at the corner pair.

    The bottom-face member is the unfolding of its own face sequence
    evaluated at the corner endpoints; the other two families are its images
    under the corner rotation.
    """
    p, q = corner_pair()
    seq = _CANDIDATES[idx - 1]
    path = _unfold_path(_Query(p, q), seq)
    if path is None:
        raise RuntimeError(f"candidate {idx} is not admissible at the corner pair")
    times = {"A": 0, "B": 1, "C": 2}[family]
    return rotate_trace(path.trace, times)


def corner_limit_geodesics() -> dict[str, tuple[Vec3, ...]]:
    """The six corner geodesics as exact traces, labeled D1 to D6 in order.

    Each trace is named by its edge midpoint ``trace[1]``: D1 crosses
    (-1/2, 0, 1/2), and D(k+1) crosses sigma of the midpoint of Dk, where
    sigma (X, Y, Z) = (-Z, -X, -Y) is minus the square of
    :func:`rotate_point`.  Sigma swaps the two corners, so it permutes the
    corner geodesics, and it cycles their six midpoints.
    """
    traces = {g.trace[1]: g.trace for g in cube_geodesics(*corner_pair())}
    m = (-_HALF, Fraction(0), _HALF)
    labeled = {}
    for k in range(1, 7):
        labeled[f"D{k}"] = traces[m]
        m = (-m[2], -m[0], -m[1])
    return labeled


def corner_limits() -> dict[tuple[str, int], str]:
    """The label of the corner geodesic each diagonal-family member
    ``(family, index)`` converges to (:func:`_family_corner_trace`), in the
    labeling of :func:`corner_limit_geodesics`.  Raises ``RuntimeError``
    when a limit is none of the six."""
    labels = {trace: label for label, trace in corner_limit_geodesics().items()}
    out = {}
    for family in "ABC":
        for index in (1, 4, 7, 10):
            label = labels.get(_family_corner_trace(family, index))
            if label is None:
                raise RuntimeError(f"limit of {family}{index} is not a corner geodesic")
            out[family, index] = label
    return out
