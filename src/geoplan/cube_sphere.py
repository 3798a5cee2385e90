"""Shortest paths on the boundary of the unit cube (a flat 2-sphere).

The surface is the boundary of the cube with side 1, carrying the intrinsic
flat metric; each face gets a chart centered at its midpoint.  Shortest paths
are found by *unfolding*: every face sequence rolls out isometrically into
the plane, a candidate path is the straight planar segment between the rolled
endpoints, and the candidate is admissible when the segment crosses exactly
the shared edges of the sequence, in order, without running through a cube
corner mid-path.  The global minimizers over all short face sequences are the
geodesics.

Every unfolding map is a quarter turn plus an integer shift, so each
face sequence is cached once as small integer data, and each query scales
its two endpoints to integer charts.  Sequences are then ranked by the
squared length of their unfolded segment and tested for admissibility
best-first, in integers, stopping after the first length that has an
admissible candidate; fractions are built only for the returned paths.

For opposite-face pairs there are twelve candidate unfoldings with closed
squared-length formulas; the module evaluates those formulas exactly, keeps
the correspondence between formula index and face sequence (derived by exact
matching, not hardcoded), and exposes the corner machinery: the witness pairs
marching down a face diagonal toward an opposite-corner pair, the six corner
geodesics, and the limit table saying which corner geodesic each diagonal
family converges to.  The images of the three family maps intersect
pairwise but have empty triple intersection, which is the obstruction
bounding the planner count at the corner pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

from .metric_core import Polyline, _frac
from .strat_cover import CUBE_CORNER_LIMITS, StratPoset
from .strat_cover import cube_corner_poset as _corner_poset

__all__ = [
    "CandidateTable",
    "CubePoint",
    "candidate_path",
    "FACES",
    "UnfoldedPath",
    "WitnessPair",
    "containing_faces",
    "corner_limit_geodesics",
    "corner_limit_table",
    "corner_pair",
    "cube_corner_poset",
    "cube_geodesics",
    "diagonal_table",
    "minimal_stable_k",
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

#: Face frames: center, chart u-axis, chart v-axis (all unit, inward-consistent).
_FRAMES: dict[str, tuple[Vec3, Vec3, Vec3]] = {
    "x-": ((-_HALF, Fraction(0), Fraction(0)), (0, 1, 0), (0, 0, 1)),
    "x+": ((_HALF, Fraction(0), Fraction(0)), (0, 1, 0), (0, 0, -1)),
    "y-": ((Fraction(0), -_HALF, Fraction(0)), (0, 0, 1), (1, 0, 0)),
    "y+": ((Fraction(0), _HALF, Fraction(0)), (0, 0, 1), (-1, 0, 0)),
    "z-": ((Fraction(0), Fraction(0), -_HALF), (1, 0, 0), (0, 1, 0)),
    "z+": ((Fraction(0), Fraction(0), _HALF), (1, 0, 0), (0, -1, 0)),
}

_AXIS = {"x": 0, "y": 1, "z": 2}

#: Face frames with the center doubled, so that every entry is an integer.
_INT_FRAMES: dict[str, tuple[tuple[int, ...], Vec3, Vec3]] = {
    face: (tuple(int(2 * v) for v in c), eu, ev) for face, (c, eu, ev) in _FRAMES.items()
}


def _chart_to_space(face: str, u: Fraction, v: Fraction) -> Vec3:
    c, eu, ev = _FRAMES[face]
    return tuple(c[i] + u * eu[i] + v * ev[i] for i in range(3))


def _space_to_chart(face: str, p: Vec3) -> Vec2:
    c, eu, ev = _FRAMES[face]
    d = (p[0] - c[0], p[1] - c[1], p[2] - c[2])
    return (
        sum(d[i] * eu[i] for i in range(3)),
        sum(d[i] * ev[i] for i in range(3)),
    )


def containing_faces(p: Vec3) -> tuple[str, ...]:
    """All faces whose closed square contains the surface point."""
    out = []
    for face in FACES:
        axis = _AXIS[face[0]]
        target = _HALF if face[1] == "+" else -_HALF
        if p[axis] == target and all(abs(c) <= _HALF for c in p):
            out.append(face)
    if not out:
        raise ValueError(f"point {p} is not on the cube surface")
    return tuple(out)


@dataclass(frozen=True)
class CubePoint:
    """A surface point: owning face plus face-centered chart coordinates.

    Points on edges or corners are owned by the first containing face in
    canonical order; use :meth:`make` to construct with normalization.
    """

    face: str
    u: Fraction
    v: Fraction

    def __post_init__(self) -> None:
        if self.face not in _FRAMES:
            raise ValueError(f"unknown face {self.face!r}")
        if not (abs(self.u) <= _HALF and abs(self.v) <= _HALF):
            raise ValueError("chart coordinates must lie in [-1/2, 1/2]")

    @classmethod
    def make(cls, face: str, u, v) -> "CubePoint":
        if face not in _FRAMES:
            raise ValueError(f"unknown face {face!r}")
        point = _chart_to_space(face, _frac(u), _frac(v))
        return cls.from_space(point)

    @classmethod
    def from_space(cls, point) -> "CubePoint":
        p: Vec3 = tuple(_frac(c) for c in point)
        owner = containing_faces(p)[0]
        uu, vv = _space_to_chart(owner, p)
        return cls(owner, uu, vv)

    @cached_property
    def point(self) -> Vec3:
        return _chart_to_space(self.face, self.u, self.v)

    @cached_property
    def _faces(self) -> tuple[str, ...]:
        return containing_faces(self.point)

    def faces(self) -> tuple[str, ...]:
        return self._faces

    def chart_in(self, face: str) -> Vec2:
        """Chart coordinates within another containing face."""
        if face not in self._faces:
            raise ValueError(f"point does not lie on face {face!r}")
        return _space_to_chart(face, self.point)


def _adjacent(f: str, g: str) -> bool:
    return f != g and f[0] != g[0]


def _shared_edge(f: str, g: str) -> tuple[Vec3, Vec3]:
    """Endpoints (sorted) of the common edge of two adjacent faces."""
    if not _adjacent(f, g):
        raise ValueError(f"faces {f!r} and {g!r} share no edge")
    coords: list[list[Fraction]] = [[], [], []]
    for face in (f, g):
        axis = _AXIS[face[0]]
        coords[axis] = [_HALF if face[1] == "+" else -_HALF]
    free_axis = next(i for i in range(3) if not coords[i])
    coords[free_axis] = [-_HALF, _HALF]
    points = []
    for a in coords[0]:
        for b in coords[1]:
            for c in coords[2]:
                points.append((a, b, c))
    return tuple(sorted(points))


@dataclass(frozen=True)
class UnfoldedPath:
    """An admissible unfolded candidate: the face sequence, the straight
    planar segment, and the exact surface breakpoints (``trace``)."""

    face_sequence: tuple[str, ...]
    planar_start: Vec2
    planar_end: Vec2
    squared_length: Fraction
    trace: tuple[Vec3, ...]

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
# (cos, sin, shift_u, shift_v).  A query scales both
# endpoints by ``scale = 2 * half`` so that their charts are integers too;
# a doubled map then acts on scaled charts with its shift multiplied by
# ``half``.  All admissibility tests are integer cross-multiplications.
# ---------------------------------------------------------------------------

_Map = tuple[int, int, int, int]
#: Crossed edge: doubled planar start and direction in the unfolded strip,
#: doubled surface start and direction of the same edge.
_Edge = tuple[int, int, int, int, tuple[int, int, int], tuple[int, int, int]]


def _scaled_chart(face: str, p: Vec3, scale: int) -> tuple[int, int]:
    """Chart coordinates of ``p`` in ``face`` times ``scale``; the scale must
    clear every denominator of ``p`` (and be even)."""
    c2, eu, ev = _INT_FRAMES[face]
    d = [
        p[i].numerator * (scale // p[i].denominator) - (scale // 2) * c2[i]
        for i in range(3)
    ]
    return (
        d[0] * eu[0] + d[1] * eu[1] + d[2] * eu[2],
        d[0] * ev[0] + d[1] * ev[1] + d[2] * ev[2],
    )


def _apply(m: _Map, a: int, b: int, half: int = 1) -> tuple[int, int]:
    c, s, t0, t1 = m
    return (c * a - s * b + half * t0, s * a + c * b + half * t1)


def _unfold_maps(seq: tuple[str, ...]) -> tuple[tuple[_Map, ...], tuple[_Edge, ...]]:
    """Doubled unfolding map of every face of ``seq`` and every crossed edge."""
    maps: list[_Map] = [(1, 0, 0, 0)]
    edges: list[_Edge] = []
    for f, g in zip(seq, seq[1:]):
        e0, e1 = _shared_edge(f, g)
        a0 = _apply(maps[-1], *_scaled_chart(f, e0, 2))
        a1 = _apply(maps[-1], *_scaled_chart(f, e1, 2))
        b0 = _scaled_chart(g, e0, 2)
        b1 = _scaled_chart(g, e1, 2)
        da = (a1[0] - a0[0], a1[1] - a0[1])
        db = (b1[0] - b0[0], b1[1] - b0[1])
        # both edges have doubled length 2, so cos and sin are exact quarters
        c = (db[0] * da[0] + db[1] * da[1]) // 4
        s = (db[0] * da[1] - db[1] * da[0]) // 4
        r0, r1 = _apply((c, s, 0, 0), *b0)
        maps.append((c, s, a0[0] - r0, a0[1] - r1))
        start = tuple(int(2 * v) for v in e0)
        edges.append((*a0, *da, start, tuple(int(2 * w) - v for v, w in zip(start, e1))))
    return tuple(maps), tuple(edges)


@lru_cache(maxsize=None)
def _unfolding(seq: tuple[str, ...]) -> tuple[_Map, tuple[_Edge, ...]]:
    """The per-sequence cache: the last face's map and the crossed edges
    (the first face's map is the identity)."""
    maps, edges = _unfold_maps(seq)
    return maps[-1], edges


class _Query:
    """Both endpoints of one query with integer charts in each containing face."""

    __slots__ = ("x", "y", "half", "scale", "x_charts", "y_charts")

    def __init__(self, x: CubePoint, y: CubePoint):
        self.x, self.y = x, y
        self.half = lcm(*(c.denominator for c in (x.u, x.v, y.u, y.v)))
        self.scale = 2 * self.half
        self.x_charts = {f: _scaled_chart(f, x.point, self.scale) for f in x.faces()}
        self.y_charts = {f: _scaled_chart(f, y.point, self.scale) for f in y.faces()}

    def endpoints(self, seq: tuple[str, ...]) -> tuple[int, int, int, int]:
        """Scaled planar start and end of the unfolded segment."""
        last, _ = _unfolding(seq)
        p = self.x_charts[seq[0]]
        return (*p, *_apply(last, *self.y_charts[seq[-1]], self.half))

    def length_sq(self, seq: tuple[str, ...]) -> int:
        """Planar squared length of the unfolding, times ``scale**2``."""
        px, py, qx, qy = self.endpoints(seq)
        return (qx - px) ** 2 + (qy - py) ** 2


def _crossings(query: _Query, seq: tuple[str, ...]) -> list[tuple[int, int]] | None:
    """Admissibility of the unfolded segment, decided in integers.

    Returns the edge parameter ``s`` of every crossing as (numerator,
    positive denominator), or None when the segment is degenerate, leaves
    the strip of faces, crosses an edge outside its span, crosses out of
    order or twice at one mid-path instant, or passes through a cube corner
    in mid-path.  Crossings at the very start or end of the segment may sit
    on edge endpoints (paths may begin or end at a corner).
    """
    _, edges = _unfolding(seq)
    px, py, qx, qy = query.endpoints(seq)
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


def _unfold_path(query: _Query, seq: tuple[str, ...]) -> UnfoldedPath | None:
    """Unfold the face sequence; None when it is not admissible (see
    :func:`_crossings`).  Fractions are built only for an admissible path."""
    crossings = _crossings(query, seq)
    if crossings is None:
        return None
    _, edges = _unfolding(seq)
    x, y = query.x.point, query.y.point
    points: list[Vec3] = [x]
    for (sn, sd), (*_, start, step) in zip(crossings, edges):
        cp: Vec3 = tuple(Fraction(a * sd + sn * b, 2 * sd) for a, b in zip(start, step))
        if cp != points[-1]:
            points.append(cp)
    if y != points[-1] or len(points) == 1:
        points.append(y)
    px, py, qx, qy = query.endpoints(seq)
    m = query.scale
    return UnfoldedPath(
        face_sequence=seq,
        planar_start=(Fraction(px, m), Fraction(py, m)),
        planar_end=(Fraction(qx, m), Fraction(qy, m)),
        squared_length=Fraction((qx - px) ** 2 + (qy - py) ** 2, m * m),
        trace=tuple(points),
    )


@lru_cache(maxsize=None)
def _face_sequences(starts, ends, max_faces: int) -> tuple[tuple[str, ...], ...]:
    out = []

    def extend(path: tuple[str, ...]) -> None:
        if path[-1] in ends:
            out.append(path)
        if len(path) == max_faces:
            return
        for g in FACES:
            if g not in path and _adjacent(path[-1], g):
                extend(path + (g,))

    for f in starts:
        extend((f,))
    return tuple(out)


def cube_geodesics(
    x: CubePoint, y: CubePoint, max_faces: int = 5
) -> tuple[UnfoldedPath, ...]:
    """All shortest paths between two surface points.

    Ranks every simple face sequence (up to ``max_faces`` faces, which is
    sufficient: the surface diameter is below three face widths of travel)
    between faces containing the endpoints by the planar length of its
    unfolded segment, tests admissibility best-first, and stops after the
    first length with an admissible candidate.  Those minimizers are
    returned, deduplicated by exact surface trace.
    """
    if x.point == y.point:
        chart = x.chart_in(x.face)
        return (
            UnfoldedPath(
                face_sequence=(x.face,),
                planar_start=chart,
                planar_end=chart,
                squared_length=Fraction(0),
                trace=(x.point,),
            ),
        )
    query = _Query(x, y)
    ranked = sorted(
        ((query.length_sq(seq), seq) for seq in _face_sequences(x.faces(), y.faces(), max_faces)),
        key=lambda item: item[0],
    )
    minimal: list[UnfoldedPath] = []
    best = None
    for length, seq in ranked:
        if minimal and length != best:
            break
        path = _unfold_path(query, seq)
        if path is not None:
            minimal.append(path)
            best = length
    if not minimal:
        raise RuntimeError("no admissible unfolding found (raise max_faces)")
    minimal.sort(key=lambda c: (c.trace, len(c.face_sequence), c.face_sequence))
    unique: list[UnfoldedPath] = []
    seen: set[tuple[Vec3, ...]] = set()
    for c in minimal:
        if c.trace not in seen:
            seen.add(c.trace)
            unique.append(c)
    return tuple(unique)


# ---------------------------------------------------------------------------
# The twelve opposite-face candidates
# ---------------------------------------------------------------------------


def _lsq_formulas(x1, x2, y1, y2) -> tuple[Fraction, ...]:
    return (
        (x1 - y1) ** 2 + (2 - x2 + y2) ** 2,
        (1 - x1 + y2) ** 2 + (2 - x2 - y1) ** 2,
        (1 - x2 - y1) ** 2 + (2 - x1 + y2) ** 2,
        (x2 + y2) ** 2 + (2 - x1 - y1) ** 2,
        (1 + x2 - y1) ** 2 + (2 - x1 - y2) ** 2,
        (1 - x1 - y2) ** 2 + (2 + x2 - y1) ** 2,
        (x1 - y1) ** 2 + (2 + x2 - y2) ** 2,
        (1 + x1 - y2) ** 2 + (2 + x2 + y1) ** 2,
        (1 + x2 + y1) ** 2 + (2 + x1 - y2) ** 2,
        (x2 + y2) ** 2 + (2 + x1 + y1) ** 2,
        (1 - x2 + y1) ** 2 + (2 + x1 + y2) ** 2,
        (1 + x1 + y2) ** 2 + (2 - x2 + y1) ** 2,
    )


def _normalized_formulas(x1, x2, y1, y2) -> tuple[Fraction, ...]:
    half = _HALF
    return (
        -x1 * y1 - 2 * x2 + 2 * y2 - x2 * y2,
        half - x1 + y2 - x1 * y2 - 2 * x2 - 2 * y1 + x2 * y1,
        half - x2 - y1 + x2 * y1 - 2 * x1 + 2 * y2 - x1 * y2,
        x2 * y2 - 2 * x1 - 2 * y1 + x1 * y1,
        half + x2 - y1 - x2 * y1 - 2 * x1 - 2 * y2 + x1 * y2,
        half - x1 - y2 + x1 * y2 + 2 * x2 - 2 * y1 - x2 * y1,
        -x1 * y1 + 2 * x2 - 2 * y2 - x2 * y2,
        half + x1 - y2 - x1 * y2 + 2 * x2 + 2 * y1 + x2 * y1,
        half + x2 + y1 + x2 * y1 + 2 * x1 - 2 * y2 - x1 * y2,
        x2 * y2 + 2 * x1 + 2 * y1 + x1 * y1,
        half - x2 + y1 - x2 * y1 + 2 * x1 + 2 * y2 + x1 * y2,
        half + x1 + y2 + x1 * y2 - 2 * x2 + 2 * y1 - x2 * y1,
    )


@lru_cache(maxsize=1)
def _index_sequences() -> tuple[tuple[str, ...], ...]:
    """Face sequence realizing each of the twelve formulas.

    Derived, not hardcoded: every bottom-to-top unfolding of at most four
    faces is matched against the formula values at generic sample pairs; the
    match must be a bijection.
    """
    seqs = [
        tuple(s)
        for s in _face_sequences(("z-",), ("z+",), 4)
        if len(s) >= 2
    ]
    samples = [
        (Fraction(1, 37), Fraction(2, 53), Fraction(3, 41), Fraction(5, 67)),
        (Fraction(-3, 31), Fraction(5, 43), Fraction(-7, 59), Fraction(2, 61)),
        (Fraction(4, 29), Fraction(-6, 47), Fraction(1, 71), Fraction(-8, 73)),
    ]
    profiles = {}
    for seq in seqs:
        values = []
        for x1, x2, y1, y2 in samples:
            query = _Query(CubePoint.make("z-", x1, x2), CubePoint.make("z+", y1, y2))
            values.append(Fraction(query.length_sq(seq), query.scale ** 2))
        profiles[tuple(values)] = seq
    out = []
    for idx in range(12):
        targets = tuple(
            _lsq_formulas(*sample)[idx] for sample in samples
        )
        if targets not in profiles:
            raise RuntimeError(f"no unfolding realizes candidate {idx + 1}")
        out.append(profiles[targets])
    if len(set(out)) != 12:
        raise RuntimeError("candidate-to-unfolding matching is not a bijection")
    return tuple(out)


@dataclass(frozen=True)
class CandidateTable:
    """Exact data for the twelve opposite-face candidates at one pair."""

    x: Vec2
    y: Vec2
    l_sq: tuple[Fraction, ...]
    n: tuple[Fraction, ...]
    admissible: tuple[bool, ...]

    @property
    def common_summand(self) -> Fraction:
        x1, x2 = self.x
        y1, y2 = self.y
        return x1 ** 2 + x2 ** 2 + y1 ** 2 + y2 ** 2 + 4

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
    """Evaluate the twelve candidate formulas for a bottom/top face pair.

    ``x`` and ``y`` are chart coordinates on the two opposite faces, both
    strictly interior; boundary points go through the general oracle.
    Admissibility of each candidate is decided by its actual unfolding.
    """
    x1, x2 = (_frac(c) for c in x)
    y1, y2 = (_frac(c) for c in y)
    for c in (x1, x2, y1, y2):
        if not -_HALF < c < _HALF:
            raise ValueError("opposite-face charts require interior points")
    query = _Query(CubePoint.make("z-", x1, x2), CubePoint.make("z+", y1, y2))
    admissible = tuple(_crossings(query, seq) is not None for seq in _index_sequences())
    return CandidateTable(
        x=(x1, x2),
        y=(y1, y2),
        l_sq=_lsq_formulas(x1, x2, y1, y2),
        n=_normalized_formulas(x1, x2, y1, y2),
        admissible=admissible,
    )


def candidate_path(x, y, index: int) -> UnfoldedPath | None:
    """Unfold one of the twelve opposite-face candidates (1-based index)
    for interior bottom/top chart coordinates; None when inadmissible."""
    if not 1 <= index <= 12:
        raise ValueError("candidate index must lie in 1..12")
    x1, x2 = (_frac(c) for c in x)
    y1, y2 = (_frac(c) for c in y)
    query = _Query(CubePoint.make("z-", x1, x2), CubePoint.make("z+", y1, y2))
    return _unfold_path(query, _index_sequences()[index - 1])


def diagonal_table(x_d, y_d) -> tuple[Fraction, ...]:
    """Normalized lengths for pairs on the main face diagonals.

    Coordinates: ``x = (-x_d, -x_d)`` on the bottom face and
    ``y = (y_d, -y_d)`` on the top face, both in (0, 1/2).
    """
    x_d, y_d = _frac(x_d), _frac(y_d)
    for c in (x_d, y_d):
        if not 0 < c < _HALF:
            raise ValueError("diagonal coordinates must lie in (0, 1/2)")
    half = _HALF
    d = x_d - y_d
    mixed = 2 * x_d * y_d
    return (
        2 * d,
        half + 3 * d - mixed,
        half + 3 * d - mixed,
        2 * d,
        half + x_d + y_d + mixed,
        half - x_d - y_d + mixed,
        -2 * d,
        half - 3 * d - mixed,
        half - 3 * d - mixed,
        -2 * d,
        half - x_d - y_d + mixed,
        half + x_d + y_d + mixed,
    )


# ---------------------------------------------------------------------------
# Witness pairs along the diagonal
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessPair:
    """A labeled pair with its computed minimizing candidate indices."""

    label: str
    x: CubePoint
    y: CubePoint
    indices: tuple[int, ...]
    table: CandidateTable


def _witness_pair(label: str, xcoords: Vec2, ycoords: Vec2) -> WitnessPair:
    table = opposite_face_table(xcoords, ycoords)
    return WitnessPair(
        label=label,
        x=CubePoint.make("z-", *xcoords),
        y=CubePoint.make("z+", *ycoords),
        indices=table.argmin_indices(),
        table=table,
    )


def witness_sequences(i: int, j: int, k: int) -> tuple[WitnessPair, WitnessPair, WitnessPair]:
    """The nested witness pairs marching toward the opposite-corner pair.

    The first pair sits on both face diagonals at equal distance from the
    corners (four minimizing candidates, indices 1/4/7/10); the second moves
    the bottom point outward along its diagonal (two candidates, 1/4); the
    third breaks the remaining tie with a small second-coordinate push
    (a single candidate for every sufficiently large ``k``, and in fact for
    all ``k >= 1`` at these coordinates).
    """
    for name, value in (("i", i), ("j", j), ("k", k)):
        if value < 1:
            raise ValueError(f"{name} must be a positive integer")
    a = Fraction(1, 5 * i)
    b = Fraction(1, 5 * j)
    eps = Fraction(1, 100 * k)
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


def minimal_stable_k(i: int, j: int, search_limit: int = 64) -> int:
    """Smallest ``k`` for which the third witness pair has a unique
    minimizing candidate (index 1), decided by exact comparison."""
    for k in range(1, search_limit + 1):
        if witness_sequences(i, j, k)[2].indices == (1,):
            return k
    raise RuntimeError(f"no stable k below {search_limit}")


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


def corner_limit_table() -> dict[tuple[str, int], str]:
    """Printed convergence table: family member -> corner geodesic label."""
    return {
        (family, idx): label
        for family, row in CUBE_CORNER_LIMITS.items()
        for idx, label in row.items()
    }


def _family_corner_trace(family: str, idx: int) -> tuple[Vec3, ...]:
    """Exact limit of a diagonal-family path at the corner pair.

    The bottom-face member is the unfolding of its own face sequence
    evaluated at the corner endpoints; the other two families are its images
    under the corner rotation.
    """
    p, q = corner_pair()
    seq = _index_sequences()[idx - 1]
    path = _unfold_path(_Query(p, q), seq)
    if path is None:
        raise RuntimeError(f"candidate {idx} is not admissible at the corner pair")
    times = {"A": 0, "B": 1, "C": 2}[family]
    return rotate_trace(path.trace, times)


def corner_limit_geodesics() -> dict[str, tuple[Vec3, ...]]:
    """Derive the six corner geodesics as labeled exact traces.

    Labels are pinned by the first family's limits (and two of the second
    family's); every remaining printed table entry is then verified against
    the computed limit, each label must be hit exactly twice, and the six
    traces must be exactly the geodesic set of the corner pair.  Any mismatch
    raises.
    """
    anchors = [("A", 1), ("A", 4), ("A", 7), ("A", 10), ("B", 1), ("B", 7)]
    label_to_trace: dict[str, tuple[Vec3, ...]] = {}
    table = corner_limit_table()
    for family, idx in anchors:
        label = table[(family, idx)]
        trace = _family_corner_trace(family, idx)
        if label_to_trace.setdefault(label, trace) != trace:
            raise RuntimeError(f"conflicting anchor for {label}")
    if len(label_to_trace) != 6:
        raise RuntimeError("anchors did not produce six distinct geodesics")
    hits = {label: 0 for label in label_to_trace}
    for (family, idx), label in table.items():
        trace = _family_corner_trace(family, idx)
        if label_to_trace[label] != trace:
            raise RuntimeError(
                f"limit of {family}{idx} does not match the printed label {label}"
            )
        hits[label] += 1
    if set(hits.values()) != {2}:
        raise RuntimeError("every corner geodesic should absorb exactly two limits")
    p, q = corner_pair()
    oracle = {g.trace for g in cube_geodesics(p, q)}
    if oracle != set(label_to_trace.values()):
        raise RuntimeError("corner limits differ from the corner geodesic set")
    return label_to_trace


def cube_corner_poset() -> StratPoset:
    """Local poset at the opposite-corner pair (see ``strat_cover``)."""
    return _corner_poset()
