"""Exact geodesic counting, cut loci and motion planners on flat spaces.

Modules: polyline metrics (``metric_core``); the flat quotients, with the
shared point base, geodesic and planner records, the loop matching and the
flat n-torus (``flat_torus``); the flat Klein bottle (``klein_bottle``); the
boundary of the unit cube (``cube_sphere``); the stratified-covering poset
engine for planner-count bounds (``strat_cover``); cut-locus graphs
(``cutgraph``); JSON, CSV and SVG output (``render``); the verification
suites (``verify``); and the ``geoplan`` command (``cli``).
Everything is rational arithmetic; the only square root taken is an exact
rational one, and a constant-speed path it cannot give is refused.  Every
record is declared one way, as a subclass of a ``collections.namedtuple``,
so no command imports ``dataclasses`` or builds ``typing`` annotations.
"""

from __future__ import annotations

__version__ = "0.1.0"

__all__ = ["__version__"]
