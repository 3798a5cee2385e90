"""geoplan benchmark: four seeded, closed-loop workloads with one caller each.

Usage (from the repository root)::

    python3 bench/run.py --workload cube-queries --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``flat-queries``  torus and Klein-bottle geodesics, planners, cut loci, loops
* ``cube-queries``  all minimizing geodesics on the cube surface
* ``poset-bounds``  corner-poset builder, lower bounds, document round trips
* ``cli-session``   one ``geoplan`` command at a time as a fresh process

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics from spans (written to ``.bench_spans/``) plus the tracing
overhead.  Every answer is checked outside the timed region.  The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import harness

WORKLOADS = ("flat-queries", "cube-queries", "poset-bounds", "cli-session")
SETUP_PROBES = 7
IMPORT_PROBES = 5
MIN_ROUNDS = 5
READY = b"ready"
SPAN_DIR = os.path.join(harness.ROOT, ".bench_spans")

END_TO_END_UNITS = {"throughput_qps": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}
PROBE_UNITS = {"cli.import_ms": "ms", "cli.numpy_import_ms": "ms", "cli.interpreter_ms": "ms",
               "bench.tracing_overhead_ratio": "ratio"}


class NoProgram(RuntimeError):
    """The checkout holds no geoplan sources to benchmark."""


def load_geoplan() -> None:
    """Put ``src/`` first on the path and make sure geoplan comes from it."""
    init = os.path.join(harness.SRC, "geoplan", "__init__.py")
    if not os.path.isfile(init):
        raise NoProgram(f"no geoplan sources at {os.path.relpath(init, harness.ROOT)}")
    sys.path.insert(0, harness.SRC)
    import geoplan

    if os.path.realpath(geoplan.__file__) != os.path.realpath(init):
        raise NoProgram(f"geoplan was imported from {geoplan.__file__}, not from src/")


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------

def setup_probe(name: str, seed: int) -> None:
    """Fresh-process set-up: import the layers, warm one input of each kind."""
    import workloads

    for kind, payload in workloads.IN_PROCESS[name].inputs(seed)[1]:
        workloads.IN_PROCESS[name].run(kind, payload)
    sys.stdout.buffer.write(READY + b"\n")
    sys.stdout.flush()


def run_in_process(name: str, seed: int, seconds: float, trace: bool,
                   scale: float = 1.0, probes: int = SETUP_PROBES) -> dict:
    import workloads

    w = workloads.IN_PROCESS[name]
    inputs, warmup = w.inputs(seed, scale)
    probe_argv = [sys.executable, os.path.abspath(__file__), "--setup-probe", name, "--seed", str(seed)]
    setup_s = harness.scaled_median(lambda: harness.timed_child(probe_argv, READY), probes)
    for kind, payload in warmup:
        w.run(kind, payload)

    budget = seconds / 2 if trace else seconds
    timing = harness.measure_rounds(inputs, w.run, budget, 1 if trace else MIN_ROUNDS)
    first, rounds = timing.first, timing.rounds
    metrics = dict(harness.latency_metrics(timing.scaled), setup_s=setup_s,
                   peak_rss_mb=harness.peak_rss_mb(False))
    failures = {i: "output changed between rounds" for i in timing.unstable}
    layer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        restore = spans.install(tracer)
        try:
            traced = harness.measure_rounds(inputs, w.run, budget, 1, tracer)
        finally:
            restore()
        failures.update({i: "traced output differs" for i, o in enumerate(traced.first)
                         if o.text != first[i].text})
        per_round = [spans.layer_metrics(r, s) for r, s in zip(tracer.rounds(), traced.slowdowns)]
        layer = {k: statistics.median(r[k] for r in per_round) for k in spans.SPAN_METRICS}
        layer["bench.tracing_overhead_ratio"] = (
            harness.latency_metrics(traced.scaled)["throughput_qps"] / metrics["throughput_qps"])
        write_spans(tracer, name, seed)
        rounds = f"{rounds} untraced + {traced.rounds} traced"
    for i, outcome in enumerate(first):
        if outcome.error is not None:
            failures[i] = outcome.error
            continue
        kind, payload = inputs[i]
        try:
            w.check(kind, payload, outcome.result)
        except Exception as exc:  # a malformed result is a failed input, not a stopped run
            failures[i] = f"{kind}: {type(exc).__name__}: {exc}"
    return finish(name, seed, trace, inputs, rounds, timing, failures, metrics, layer)


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

def run_cli_session(seed: int, seconds: float, trace: bool,
                    scale: float = 1.0, probes: int = SETUP_PROBES) -> dict:
    import cli_session
    import spans

    commands = cli_session.commands(seed, scale)
    inputs = [(argv[0], argv) for argv in commands]
    setup_s = harness.scaled_median(cli_session.setup_probe, probes)

    def run_plain(kind, argv):
        proc = cli_session.run_command(argv)
        return proc.returncode, proc.stdout

    def run_traced(kind, argv):
        proc = cli_session.run_command(argv, traced=True)
        line = proc.stderr.decode().rstrip("\n").rsplit("\n", 1)[-1]
        if not line.startswith(spans.MARKER):
            raise RuntimeError(f"traced command left no spans: {proc.stderr.decode()[-300:]}")
        return (proc.returncode, json.loads(line[len(spans.MARKER):])), proc.stdout

    budget = seconds / 2 if trace else seconds
    timing = harness.measure_rounds(inputs, run_plain, budget, 1)
    first, rounds = timing.first, timing.rounds
    metrics = dict(harness.latency_metrics(timing.scaled), setup_s=setup_s,
                   peak_rss_mb=harness.peak_rss_mb(True))
    failures = {i: "output changed between rounds" for i in timing.unstable}
    layer = None
    if trace:
        traced = harness.measure_rounds(inputs, run_traced, budget, 1)
        tracer = spans.Tracer()
        for i, outcome in enumerate(traced.first):
            if outcome.error is not None:
                failures[i] = outcome.error
            else:
                tracer.extend(outcome.result[1], i)
                if outcome.text != first[i].text:
                    failures[i] = "traced output differs"
        layer = spans.layer_metrics(tracer.spans, traced.host_slowdown)
        layer["bench.tracing_overhead_ratio"] = (
            harness.latency_metrics(traced.scaled)["throughput_qps"] / metrics["throughput_qps"])
        write_spans(tracer, "cli-session", seed)
        rounds = f"{rounds} untraced + {traced.rounds} traced"
    for i, outcome in enumerate(first):
        argv = commands[i]
        if outcome.error is not None:
            failures[i] = outcome.error
            continue
        try:
            cli_session.check(argv, outcome.result, outcome.text.decode(), cli_session.expected(argv))
        except Exception as exc:  # unparsable output is a failed command, not a stopped run
            failures[i] = f"{' '.join(argv)}: {type(exc).__name__}: {exc}"
    return finish("cli-session", seed, trace, inputs, rounds, timing, failures, metrics, layer)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

def write_spans(tracer, name: str, seed: int) -> None:
    os.makedirs(SPAN_DIR, exist_ok=True)
    tracer.write(os.path.join(SPAN_DIR, f"{name}-seed{seed}.jsonl"))


def cli_probes() -> dict[str, float]:
    import cli_session

    imports = [cli_session.import_times_ms() for _ in range(IMPORT_PROBES)]
    interpreter = harness.scaled_median(lambda: harness.timed_child([sys.executable, "-c", "pass"]),
                                        IMPORT_PROBES)
    return {"cli.import_ms": statistics.median(i[0] for i in imports),
            "cli.numpy_import_ms": statistics.median(i[1] for i in imports),
            "cli.interpreter_ms": interpreter * 1e3}


def finish(name, seed, trace, inputs, rounds, timing, failures, metrics, layer) -> dict:
    """Assemble the printed report and the result object."""
    import spans

    if trace:
        values = dict(layer, **cli_probes())
        units = dict(spans.SPAN_METRICS, **PROBE_UNITS)
    else:
        values, units = metrics, END_TO_END_UNITS
    return {
        "workload": name,
        "samples": len(inputs),
        "rounds": rounds,
        "fail_ratio": len(failures) / len(inputs),
        "failures": [f"input {i}: {msg}" for i, msg in sorted(failures.items())[:10]],
        "digest": harness.digest(o.text for o in timing.first),
        "host_slowdown": timing.host_slowdown,
        "unscaled": harness.latency_metrics(timing.raw),
        "machine": harness.machine_facts(seed),
        "trace": int(trace),
        "result": {
            "correct": not failures,
            "attempted": len(inputs),
            "failed": len(failures),
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        },
    }


def print_report(report: dict) -> None:
    result = report["result"]
    print(f"workload {report['workload']}  seed {report['machine']['seed']}  trace {report['trace']}")
    print(f"  samples: {report['samples']} inputs, per-input median of {report['rounds']} rounds")
    for key, metric in result["metrics"].items():
        print(f"  {key:34s} {metric['value']:14.6g} {metric['unit']}")
    unscaled = ", ".join(f"{k} {v:.6g}" for k, v in report["unscaled"].items())
    print(f"  host slowdown {report['host_slowdown']:.4g} (unscaled: {unscaled})")
    print(f"  fail_ratio {result['failed']}/{result['attempted']} = {report['fail_ratio']:.4g}")
    for line in report["failures"]:
        print(f"    {line}")
    print(f"  digest sha256:{report['digest']}")
    print(json.dumps({k: v for k, v in report.items() if k != "result"}, sort_keys=True))
    print(json.dumps(result))


def run_workload(name: str, seed: int, seconds: float, trace: bool, **small) -> dict:
    if name == "cli-session":
        return run_cli_session(seed, seconds, trace, **small)
    return run_in_process(name, seed, seconds, trace, **small)


def run_all(args) -> int:
    """Run every workload in its own process and print a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=harness.ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.rstrip("\n").split("\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS[:3], help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and args.setup_probe is None:
        parser.error("--workload is required")
    try:
        load_geoplan()
    except NoProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.setup_probe, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    print_report(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
