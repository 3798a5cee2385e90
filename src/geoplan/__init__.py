"""Exact geodesic counting, cut loci and motion planners on flat spaces.

Modules: polyline metrics (``metric_core``); the flat quotients, with the
shared point base and geodesic record and the flat n-torus (``flat_torus``);
the flat Klein bottle (``klein_bottle``); the boundary of the unit cube
(``cube_sphere``); the stratified-covering poset engine for planner-count
bounds (``strat_cover``); planner results and loop tracking (``planning``);
cut-locus graphs (``cutgraph``); JSON, CSV and SVG output (``render``); the
verification suites (``verify``); and the ``geoplan`` command (``cli``).
Everything is rational arithmetic; the only square root taken is an exact
rational one, and a constant-speed path it cannot give is refused.
"""

from __future__ import annotations

__version__ = "0.1.0"

__all__ = ["__version__"]
