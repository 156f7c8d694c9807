"""Tiny workloads: digests repeat, checks pass, traced layers add up."""

from dataclasses import replace

from bench.spans import Tracer
from bench.workloads import WORKLOADS, Geometry, run_workload

_TINY = Geometry(tables=2, rows=40_000, batch=32, lookups=4, dim=8)


def _tiny(name, batches=24):
    return replace(WORKLOADS[name], name=f"tiny_{name}", geometry=_TINY, batches=batches)


def test_plan_digest_repeats_across_passes_and_runs():
    workload = _tiny("plan_hot")
    first = run_workload(workload, seed=5, seconds=0.0, min_passes=2)
    second = run_workload(workload, seed=5, seconds=0.0)
    digests = {p["digest"] for p in first["passes"] + second["passes"]}
    assert len(digests) == 1
    assert first["errors"] == [] and first["violations"] == 0
    assert first["streams"]["batches"] == 2 * workload.batches
    assert run_workload(workload, seed=6, seconds=0.0)["passes"][0]["digest"] not in digests


def test_passes_fill_the_measuring_time():
    result = run_workload(_tiny("plan_hot"), seed=5, seconds=0.5, check=False)
    passes = result["passes"]
    measured = sum(p["seconds"] for p in passes)
    assert len(passes) > 1
    # The last pass started only with room for half of one more.
    assert measured <= 0.5 + 1.5 * max(p["seconds"] for p in passes)
    assert result["checks"] == {}


def test_train_matches_sequential_and_traced_layers_cover_the_pass():
    tracer = Tracer()
    result = run_workload(_tiny("train_dlrm"), seed=1, seconds=0.0, tracer=tracer)
    assert result["checks"] == {"losses_match_sequential": True}
    assert len(result["references"]) == len(result["passes"]) == 1
    assert result["references"][0]["digest"] == result["passes"][0]["digest"]
    layers = result["layers"]
    assert layers["trainer.train.calls_per_batch"] == 1.0
    shares = sum(v for k, v in layers.items() if k.endswith(".share"))
    assert 0.9 < shares <= 1.0 + 1e-9


def test_traced_one_worker_grid_matches_its_untraced_reference():
    result = run_workload(_tiny("grid_serve", batches=30), seed=2, seconds=0.0, tracer=Tracer())
    assert result["checks"] == {"grid_ok": True}
    assert result["references"][0]["digest"] == result["passes"][0]["digest"]
    assert result["layers"]["sweep.run_point.calls_per_batch"] > 0
    assert 0 < result["layers"]["sweep.dispatch_overhead.share"] < 1
    # run_grid builds everything itself: set-up is the wait for the first batch.
    assert 0 < result["setup_s"] == result["references"][0]["first_retire_s"]
