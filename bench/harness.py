"""Timing, statistics and machine facts shared by every workload.

Times are taken in rounds: the same seeded input list is replayed several
times in one process and each input keeps the median over the rounds.  On a
shared host the speed flips between a fast and a slow state many times a
second, so a per-input minimum mixes the two states; the median does not.
The host's speed also drifts over minutes, so each round's times are scaled
by a calibration kernel measured alongside them (see ``measure_rounds``).
The inputs are fixed by the seed, so two commits always time the same work;
``--seconds`` only decides how many rounds fit.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "bench")
CHILD_TIMEOUT_S = 120


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


class Outcome:
    """What one input produced in the first round: a result or an error."""

    __slots__ = ("result", "text", "error")

    def __init__(self, result, text, error):
        self.result, self.text, self.error = result, text, error


#: The calibration kernel's time on the reference host; scaled times read as
#: milliseconds on a host where one kernel run takes exactly this long.
REFERENCE_CAL_S = 1e-3


def calibration_kernel() -> list:
    """Fixed pure-Python object work: build a dict of tuple keys holding
    lists and dicts, then sort its keys.

    Allocation, hashing and dict traffic track the host's speed for all
    three in-process workloads; a kernel of ``Fraction`` sums tracked the
    arithmetic-bound ones but over-corrected the allocation-heavy
    ``poset-bounds`` by 6-7 % whenever the host turned fast.
    """
    table = {}
    for i in range(800):
        key = "p" + str(i % 97) + "o"
        table[(key, i)] = [key, i, {key: i}]
    return sorted(table, key=lambda k: k[1])


def calibration_times(samples: int) -> list[float]:
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - t0)
    return times


@dataclass
class Timing:
    """Per-input medians over the rounds of one measurement."""

    raw: list[float]          # wall seconds
    scaled: list[float]       # wall seconds at the reference host speed
    first: list[Outcome]      # what each input produced in the first round
    unstable: set[int]        # inputs whose output changed after the first round
    slowdowns: list[float]    # per round: median calibration time / REFERENCE_CAL_S

    @property
    def rounds(self) -> int:
        return len(self.slowdowns)

    @property
    def host_slowdown(self) -> float:
        return statistics.median(self.slowdowns)


def measure_rounds(inputs, run_one, seconds: float, min_rounds: int, tracer=None) -> Timing:
    """Replay ``inputs`` until ``seconds`` are spent (at least ``min_rounds``).

    ``run_one(kind, payload)`` returns ``(result, text)``.  After every input
    the calibration kernel runs once outside the input's timed interval;
    each round's times are divided by that round's median calibration time
    over ``REFERENCE_CAL_S``, so host-wide speed changes between runs cancel.
    """
    raw: list[list[float]] = [[] for _ in inputs]
    scaled: list[list[float]] = [[] for _ in inputs]
    slowdowns: list[float] = []
    first: list[Outcome] = []
    unstable: set[int] = set()
    started, last = time.perf_counter(), 0.0
    while len(slowdowns) < min_rounds or time.perf_counter() - started + last <= seconds:
        round_start = time.perf_counter()
        if tracer is not None:
            tracer.round_starts.append(len(tracer.spans))
        round_times, calibration = [], []
        for i, (kind, payload) in enumerate(inputs):
            if tracer is not None:
                tracer.input_id = i
            t0 = time.perf_counter()
            try:
                result, text = run_one(kind, payload)
                error = None
            except Exception as exc:  # a crash is a failed input, not a stopped run
                result, text, error = None, "", f"{type(exc).__name__}: {exc}"
            round_times.append(time.perf_counter() - t0)
            calibration += calibration_times(1)
            if not slowdowns:
                first.append(Outcome(result, text, error))
            elif text != first[i].text:
                unstable.add(i)
        slowdown = statistics.median(calibration) / REFERENCE_CAL_S
        slowdowns.append(slowdown)
        for i, t in enumerate(round_times):
            raw[i].append(t)
            scaled[i].append(t / slowdown)
        last = time.perf_counter() - round_start
    return Timing([statistics.median(t) for t in raw], [statistics.median(t) for t in scaled],
                  first, unstable, slowdowns)


def latency_metrics(times: list[float]) -> dict[str, float]:
    """Throughput from the sum of per-input times, and p50/p90 latency."""
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return {
        "throughput_qps": len(times) / sum(times),
        "latency_p50_ms": statistics.median(times) * 1e3,
        "latency_p90_ms": deciles[8] * 1e3,
    }


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        data = text if isinstance(text, bytes) else text.encode("utf-8")
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_child(argv: list[str], ready_marker: bytes | None = None) -> float:
    """Wall time from spawning a fresh interpreter until it prints
    ``ready_marker`` (or exits, when there is no marker)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        if ready_marker is None:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            elapsed = time.perf_counter() - t0
        else:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            out = line + out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or (ready_marker is not None and not out.startswith(ready_marker)):
        raise RuntimeError(f"{' '.join(argv)} failed ({proc.returncode}): {err.decode()[-500:]}")
    return elapsed


def scaled_median(probe, count: int) -> float:
    """Median of ``count`` probe times, scaled by the median calibration time
    measured between the probes."""
    times, calibration = [], []
    for _ in range(count):
        calibration += calibration_times(15)
        times.append(probe())
    return statistics.median(times) / (statistics.median(calibration) / REFERENCE_CAL_S)


def source_digest() -> str:
    files = []
    for base, _, names in os.walk(os.path.join(SRC, "geoplan")):
        files += [os.path.join(base, n) for n in names if n.endswith(".py")]
    h = hashlib.sha256()
    for path in sorted(files):
        h.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    return proc.stdout.strip() or None


def machine_facts(seed: int) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": numpy_version,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }
