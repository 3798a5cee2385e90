"""Self-test of the benchmark: every workload at a tiny size, a planted wrong
answer, repeatable digests, and agreement with BENCHMARK.json.

Run from the repository root: ``python3 -m pytest bench/test_bench.py -q``.
"""

from __future__ import annotations

import json
import os

import pytest

import harness
import run
import spans

run.load_geoplan()

from geoplan import flat_torus  # noqa: E402

TINY = {"scale": 0.05, "probes": 1}


def _spec() -> dict:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_each_workload_passes_at_tiny_size(name):
    report = run.run_workload(name, seed=3, seconds=0, trace=False, **TINY)
    result = report["result"]
    assert result["correct"], report["failures"]
    assert result["failed"] == 0 and result["attempted"] == report["samples"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in _spec()["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_dropped_torus_geodesic_is_counted_as_failure(monkeypatch):
    real = flat_torus.torus_geodesics

    def drop_one(x, y):
        geodesics = real(x, y)
        return geodesics[:-1] if len(geodesics) > 1 else geodesics

    monkeypatch.setattr(flat_torus, "torus_geodesics", drop_one)
    report = run.run_workload("flat-queries", seed=3, seconds=0, trace=False, **TINY)
    assert report["fail_ratio"] > 0
    assert not report["result"]["correct"]


def test_digest_repeats_for_a_seed_and_changes_with_it():
    digests = [run.run_workload("poset-bounds", seed=s, seconds=0, trace=False, **TINY)["digest"]
               for s in (4, 4, 5)]
    assert digests[0] == digests[1] != digests[2]


def test_traced_run_reports_every_layer_metric():
    report = run.run_workload("flat-queries", seed=3, seconds=0, trace=True, **TINY)
    metrics = report["result"]["metrics"]
    assert report["result"]["correct"], report["failures"]
    assert set(metrics) == {m["name"] for m in _spec()["per_layer"]}
    assert metrics["klein_bottle.calls"]["value"] > 0
    assert metrics["cube_sphere.calls"]["value"] == 0
    assert 0 < metrics["bench.tracing_overhead_ratio"]["value"] < 2


def test_spans_nest_and_self_time_excludes_children():
    tracer = spans.Tracer()
    outer = tracer.wrap("klein_bottle.klein_plan", lambda: inner(), None)
    inner = tracer.wrap("klein_bottle.klein_geodesics", lambda: (1, 2), spans._returned)
    outer()
    plan, geodesics = tracer.spans
    assert geodesics[spans.PARENT] == 0 and plan[spans.PARENT] is None
    metrics = spans.layer_metrics(tracer.spans)
    total = plan[spans.END] - plan[spans.START]
    assert metrics["klein_bottle.calls"] == 2
    assert metrics["klein_bottle.busy_s"] == pytest.approx(total)
    assert metrics["klein_bottle.geodesics_returned"] == 2


def test_missing_program_is_an_error(monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "SRC", str(tmp_path))
    with pytest.raises(run.NoProgram):
        run.load_geoplan()
