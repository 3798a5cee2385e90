"""Shared cut-locus graph records.

A cut locus is reported as a small graph: vertices with their geodesic
multiplicity, and edges whose interiors carry exactly two geodesics.  Edge
geometry is stored as an exact polyline in lifted (unreduced) coordinates so
that arcs wrapping around the space stay straight; consumers reduce mod 1
when they need chart coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .metric_core import Polyline

__all__ = ["CutEdge", "CutLocusGraph", "CutVertex"]


@dataclass(frozen=True)
class CutVertex:
    """A cut-locus vertex with the number of geodesics reaching it."""

    point: tuple[Fraction, ...]
    multiplicity: int


@dataclass(frozen=True)
class CutEdge:
    """An open cut-locus arc between two vertices (indices into the vertex
    list), carried by an exact lifted polyline; interior points all have the
    same geodesic multiplicity (two, for the flat spaces here).

    ``gluing`` optionally names the identification that produces the second
    geodesic across this arc (e.g. a deck transformation tag).
    """

    start_vertex: int
    end_vertex: int
    points: tuple[tuple[Fraction, ...], ...]
    multiplicity: int = 2
    gluing: str | None = None

    def as_polyline(self) -> Polyline:
        return Polyline(self.points)


@dataclass(frozen=True)
class CutLocusGraph:
    """Vertices plus arcs; ``loops`` are edges with equal endpoints."""

    vertices: tuple[CutVertex, ...]
    edges: tuple[CutEdge, ...] = field(default=())

    def multiplicities(self) -> tuple[int, ...]:
        return tuple(v.multiplicity for v in self.vertices)
