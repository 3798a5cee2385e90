"""cli-session: one ``geoplan`` command at a time, each a fresh process.

Every command pays interpreter start-up, the CLI's imports and cold caches,
which is what a shell user pays.  Each command's exit code and parsed output
are checked against the in-process answer, computed outside the timed region.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

from geoplan import cube_sphere, flat_torus, klein_bottle, strat_cover

import harness
import workloads

# (command, space, format) -> number of commands in one list
MIX = {
    ("geodesics", "torus:2", "json"): 4, ("geodesics", "torus:2", "csv"): 4,
    ("geodesics", "torus:2", "svg"): 4, ("geodesics", "torus:3", "json"): 5,
    ("geodesics", "torus:3", "csv"): 3, ("geodesics", "klein", "json"): 6,
    ("geodesics", "klein", "csv"): 3, ("geodesics", "klein", "svg"): 3,
    ("geodesics", "cube", "json"): 6, ("geodesics", "cube", "csv"): 3,
    ("geodesics", "cube", "svg"): 3, ("geodesics", "cube-corner", "json"): 2,
    ("plan", "torus:2", "json"): 5, ("plan", "torus:3", "json"): 5, ("plan", "klein", "json"): 5,
    ("cutlocus", "torus:2", "json"): 3, ("cutlocus", "torus:2", "csv"): 2,
    ("cutlocus", "torus:2", "svg"): 2, ("cutlocus", "torus:3", "json"): 3,
    ("cutlocus", "klein", "json"): 4, ("cutlocus", "klein", "csv"): 3, ("cutlocus", "klein", "svg"): 3,
    ("bound", "builtin", "json"): 7,
    # The verify commands (and the two corner pairs) are the slowest tenth,
    # so p90 sits inside the verify group rather than at its edge.
    ("verify", "core", "text"): 12,
}
BUILTINS = ("circle", "klein_S4", "cube_corner", "torus_corner:2", "torus_corner:3", "torus_corner:4")
HELP = ["--help"]


def _text(coords) -> str:
    return ",".join(str(c) for c in coords)


def _point(space: str, rng: random.Random) -> str:
    if space == "cube":
        face = rng.choice(workloads.FACES)
        return f"{face}:{workloads.interior(rng)},{workloads.interior(rng)}"
    n = 2 if space == "klein" else int(space.split(":")[1])
    return _text(workloads.rational(rng) for _ in range(n))


def _pair(space: str, rng: random.Random) -> list[str]:
    if space == "cube-corner":
        return ["cube", "corner:p", "corner:q"]
    if space == "klein":
        pair = workloads.klein_pair(rng.randint(1, 4), rng)
    elif space.startswith("torus:"):
        pair = workloads.torus_pair(int(space[len("torus:"):]), rng)
    else:
        return [space, _point(space, rng), _point(space, rng)]
    return [space, *(_text(p) for p in pair)]


def commands(seed: int, scale: float = 1.0) -> list[list[str]]:
    """The seeded command list (argv after ``geoplan``)."""
    rng = random.Random(seed)
    out = []
    for (command, space, fmt), count in MIX.items():
        for _ in range(max(1, round(count * scale))):
            if command == "bound":
                argv = ["bound", "builtin:" + rng.choice(BUILTINS)]
            elif command == "verify":
                argv = ["verify", "core", "--trials", "10", "--seed", str(rng.randrange(1000))]
            elif command == "cutlocus":
                x = _point(space, rng)
                if space == "klein" and rng.random() < 0.5:
                    x = f"{x.split(',')[0]},{rng.choice(('0', '1/2'))}"
                argv = ["cutlocus", space, x]
            else:
                argv = [command, *_pair(space, rng)]
            if command in ("geodesics", "cutlocus"):
                argv += ["--format", fmt]
            out.append(argv)
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# Expected answers (in process) and observed answers (parsed output)
# ---------------------------------------------------------------------------

def _point_of(space: str, text: str):
    if space == "cube":
        if text.startswith("corner:"):
            return cube_sphere.corner_pair()["pq".index(text[-1])]
        face, coords = text.split(":")
        return cube_sphere.CubePoint.make(face, *(Fraction(c) for c in coords.split(",")))
    coords = [Fraction(c) for c in text.split(",")]
    return (klein_bottle.KleinPoint if space == "klein" else flat_torus.TorusPoint).make(coords)


def expected(argv: list[str]):
    """The answer the command must report, computed by calling geoplan."""
    command = argv[0]
    if command == "verify":
        return "pass"
    if command == "bound":
        poset, _ = strat_cover.builtin_poset(argv[1][len("builtin:"):])
        return strat_cover.lower_bound(poset).lower_bound
    space = argv[1]
    if command == "cutlocus":
        x = _point_of(space, argv[2])
        if space == "klein":
            return [v.multiplicity for v in klein_bottle.klein_cut_locus(x).vertices]
        locus = flat_torus.torus_cut_locus(x)
        if argv[-1] == "json":
            return len(locus.strata)
        return [v.multiplicity for v in locus.graph.vertices]
    x, y = _point_of(space, argv[2]), _point_of(space, argv[3])
    if command == "plan":
        plan = (flat_torus.torus_plan if space.startswith("torus") else klein_bottle.klein_plan)(x, y)
        return [plan.domain, plan.count]
    if space == "klein":
        return len(klein_bottle.klein_geodesics(x, y))
    if space == "cube":
        return len(cube_sphere.cube_geodesics(x, y))
    return len(flat_torus.torus_geodesics(x, y))


def observed(argv: list[str], stdout: str):
    """The same answer read back from the command's output (json for cut loci)."""
    command, fmt = argv[0], argv[-1]
    if command == "verify":
        return stdout.splitlines()[-1].split(" ")[0]
    if command == "bound":
        return json.loads(stdout)["lower_bound"]
    if command == "plan":
        doc = json.loads(stdout)
        return [doc["domain"], doc["count"]]
    if command == "geodesics":
        if fmt == "json":
            return json.loads(stdout)["count"]
        if fmt == "csv":
            return int(next(csv.DictReader(io.StringIO(stdout)))["count"])
        return stdout.count('class="path"')
    doc = json.loads(stdout)
    if "strata" in doc:
        return len(doc["strata"])
    return [v["multiplicity"] for v in doc["graph"]["vertices"]]


def check(argv: list[str], returncode: int, stdout: str, want) -> None:
    workloads.oracles.expect(returncode == 0, f"exit code {returncode}")
    if argv[0] == "cutlocus" and argv[-1] == "csv":
        # Vertex rows come first; every sampled edge point has two geodesics.
        counts = [int(row["count"]) for row in csv.DictReader(io.StringIO(stdout))]
        got = counts[:len(want)] if all(c == 2 for c in counts[len(want):]) else counts
    elif argv[0] == "cutlocus" and argv[-1] == "svg":
        # One mark per cut-locus vertex plus the basepoint.
        got, want = stdout.count("<circle"), len(want) + 1
    else:
        got = observed(argv, stdout)
    workloads.oracles.expect(got == want, f"{' '.join(argv)}: output says {got}, in process {want}")


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def cli_argv(argv: list[str], traced: bool) -> list[str]:
    if traced:
        return [sys.executable, os.path.join(harness.BENCH, "traced_cli.py"), *argv]
    return [sys.executable, "-m", "geoplan.cli", *argv]


def run_command(argv: list[str], traced: bool = False) -> subprocess.CompletedProcess:
    """One command as a fresh process, output captured."""
    return subprocess.run(cli_argv(argv, traced), cwd=harness.ROOT, env=harness.child_env(),
                          capture_output=True, timeout=harness.CHILD_TIMEOUT_S)


def import_times_ms() -> tuple[float, float]:
    """Cumulative import time of ``geoplan.cli`` and of numpy inside it, from
    ``python -X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import geoplan.cli"],
                          cwd=harness.ROOT, env=harness.child_env(), capture_output=True,
                          text=True, timeout=harness.CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr[-500:])
    cumulative = {}
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line.split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) / 1e3
    return cumulative["geoplan.cli"], cumulative.get("numpy", 0.0)


def setup_probe() -> float:
    return harness.timed_child(cli_argv(HELP, traced=False))
