"""Tests of the benchmark itself: plans, statistics, gates, tracing.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import catalog  # noqa: E402
import gates  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from harness import Context  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture
def ctx(tmp_path):
    return Context(root=ROOT, run_dir=tmp_path, env={})


def _plan(workload, passes=3):
    plan = workload.passes()
    return [
        [(r.rid, r.kind, json.dumps(r.params, sort_keys=True), r.together)
         for r in next(plan)]
        for _ in range(passes)
    ]


# -- seeded generation ---------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_plan_is_deterministic_per_seed(ctx, name):
    cls = workloads.WORKLOADS[name]
    assert _plan(cls(ctx, 7)) == _plan(cls(ctx, 7))
    # Asking twice from one instance replays the same plan.
    workload = cls(ctx, 7)
    assert _plan(workload) == _plan(workload)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_plan_differs_across_seeds(ctx, name):
    cls = workloads.WORKLOADS[name]
    assert _plan(cls(ctx, 1)) != _plan(cls(ctx, 2))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_pass_has_the_same_mix(ctx, name):
    plan = workloads.WORKLOADS[name](ctx, 3).passes()
    mixes = []
    for _ in range(4):
        kinds = [r.kind for r in next(plan)]
        mixes.append(sorted(kinds))
    assert all(mix == mixes[0] for mix in mixes)


def test_warmup_pass_is_outside_the_plan(ctx):
    workload = workloads.StencilDseWorkload(ctx, 5)
    (warmup,) = workload.warmup_pass()
    plan_ids = {rid for pass_ in _plan(workload, 5) for rid, *_ in pass_}
    assert not plan_ids & {r.rid for r in warmup}


def test_serve_fresh_jobs_are_unique_and_repeats_follow_originals(ctx):
    workload = workloads.ServeWorkload(ctx, 11)
    plan = workload.passes()
    warm = {workloads.job_signature(p) for p in workload.warm_pool}
    seen_fresh = set()
    for _ in range(5):
        batch = next(plan)
        for position, request in enumerate(batch):
            signature = workloads.job_signature(request.params)
            if request.kind in ("fresh", "source", "coalesced"):
                assert signature not in seen_fresh | warm
                seen_fresh.add(signature)
            elif request.kind == "warm":
                assert signature in warm
            elif request.kind == "repeat":
                earlier = [
                    workloads.job_signature(r.params)
                    for r in batch[: max(0, position - 5)]
                ]
                assert signature in earlier


def test_serve_plan_never_runs_out_of_fresh_signatures(ctx):
    workload = workloads.ServeWorkload(ctx, 3)
    plan = list(workload.passes())
    assert len(plan) == workloads.MAX_PASSES
    workload.warmup_pass()


@pytest.mark.parametrize("seed", range(8))
def test_verify_repeats_follow_their_originals(ctx, seed):
    plan = workloads.VerifyWorkload(ctx, seed).passes()
    for _ in range(10):
        seen = set()
        batch = next(plan)
        assert sum(r.kind == "repeat" for r in batch) == 3
        for request in batch:
            kernel = request.params["kernel"]
            if request.kind == "repeat":
                assert kernel in seen
            seen.add(kernel)


# -- statistics ------------------------------------------------------------------


def test_percentile_interpolates_between_ranks():
    assert stats.percentile([4, 1, 3, 2], 50) == 2.5
    assert stats.percentile(range(1, 11), 90) == pytest.approx(9.1)
    assert stats.percentile([5.0], 90) == 5.0
    assert stats.percentile([3, 1, 2], 0) == 1
    assert stats.percentile([3, 1, 2], 100) == 3
    values = list(np.random.default_rng(0).random(37))
    for q in (10, 50, 90):
        assert stats.percentile(values, q) == pytest.approx(
            float(np.percentile(values, q))
        )
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_p90_needs_one_hundred_samples():
    assert stats.p90_or_none(list(range(99))) is None
    assert stats.p90_or_none(list(range(100))) == pytest.approx(89.1)


def test_geomean():
    assert stats.geomean([1.0, 100.0]) == pytest.approx(10.0)
    assert stats.geomean([2.0, 8.0, 4.0]) == pytest.approx(4.0)
    for bad in ([], [1.0, 0.0], [-1.0]):
        with pytest.raises(ValueError):
            stats.geomean(bad)


# -- gates -------------------------------------------------------------------------


def test_bitwise_gate_rejects_a_flipped_cell():
    reference = {"a": np.arange(12, dtype=np.float32).reshape(3, 4)}
    same = {"a": reference["a"].copy()}
    assert gates.check_bitwise_equal(same, reference) == []
    flipped = {"a": reference["a"].copy()}
    flipped["a"][1, 2] = np.nextafter(flipped["a"][1, 2], np.float32(100))
    assert gates.check_bitwise_equal(flipped, reference)
    signed = {"a": reference["a"].copy()}
    signed["a"][0, 0] = -0.0
    assert gates.check_bitwise_equal(signed, reference)
    assert gates.check_bitwise_equal({"b": reference["a"]}, reference)


def test_best_gate_rejects_a_mismatch():
    best = {"baseline": (("sig", 1), 1000.0)}
    assert gates.check_same_best(best, dict(best)) == []
    assert gates.check_same_best(best, {"baseline": (("sig", 2), 1000.0)})
    off_by_one_ulp = math.nextafter(1000.0, 2000.0)
    assert gates.check_same_best(best, {"baseline": (("sig", 1), off_by_one_ulp)})
    assert gates.check_same_best(best, {"program": (("sig", 1), 1000.0)})


def test_repeat_gate_rejects_an_altered_payload():
    seen = {}
    assert gates.check_repeat_payload(seen, "job", b'{"x":1}') == []
    assert gates.check_repeat_payload(seen, "job", b'{"x":1}') == []
    assert gates.check_repeat_payload(seen, "job", b'{"x":2}')


def test_backend_and_state_gates():
    assert gates.check_backend("jit", "jit") == []
    assert gates.check_backend("numpy", "jit")
    assert gates.check_backend("numpy", "numpy") == []
    assert gates.check_job_done("done") == []
    assert gates.check_job_done("failed")


def test_stencil_dse_check_rejects_a_mismatched_best(ctx):
    workload = workloads.StencilDseWorkload(ctx, 0)
    request = workloads.Request("p0-0", "space", workloads.DSE_WARMUP)
    spec, exhaustive, (tiered, tiered_s) = workload.execute(request)
    assert workload.check(request, (spec, exhaustive, (tiered, tiered_s))).problems == []
    # Corrupt the tiered answer: report a different candidate as best.
    label = "heterogeneous"
    other = next(
        c for c in exhaustive[0][label].candidates
        if c.design.signature() != tiered[label].best.design.signature()
    )
    corrupted = dict(tiered)
    corrupted[label] = dataclasses.replace(tiered[label], best=other)
    obs = workload.check(request, (spec, exhaustive, (corrupted, tiered_s)))
    assert obs.problems


def test_program_dse_check_rejects_a_mismatched_best(ctx):
    workload = workloads.ProgramDseWorkload(ctx, 0)
    request = workloads.Request("p0-0", "space", workloads.PROGRAM_WARMUP)
    program, exhaustive, (tiered, tiered_s) = workload.execute(request)
    assert workload.check(request, (program, exhaustive, (tiered, tiered_s))).problems == []
    slower = dataclasses.replace(
        tiered, predicted_cycles=math.nextafter(tiered.predicted_cycles, math.inf)
    )
    obs = workload.check(request, (program, exhaustive, (slower, tiered_s)))
    assert obs.problems


def test_verify_check_rejects_a_flipped_output_cell(ctx):
    workload = workloads.VerifyWorkload(ctx, 0)
    workload.cases = {"jacobi-2d": ((64, 64), 4)}
    workload.setup()
    workload.start_pass(0)
    request = workloads.Request("p0-0", "fresh", {"kernel": "jacobi-2d"})
    synth, backend, outputs, sim = workload.execute(request)
    assert workload.check(request, (synth, backend, outputs, sim)).problems == []
    bad = {k: v.copy() for k, v in outputs.items()}
    field = next(iter(bad))
    bad[field].flat[100] += np.float32(1.0)
    assert workload.check(request, (synth, backend, bad, sim)).problems
    assert workload.check(request, (synth, "numpy", outputs, sim)).problems == (
        gates.check_backend("numpy", workload.default_backend)
    )


def test_serve_check_rejects_an_altered_repeat_payload(ctx):
    workload = workloads.ServeWorkload(ctx, 0)
    workload._payloads = {}
    request = workloads.Request(
        "p0-0", "fresh",
        {"benchmark": "jacobi-1d", "grid_shape": [2048], "iterations": 4},
    )
    payload = {"design": {"summary": "x"}, "predicted_cycles": 1234.5}
    assert workload.check(request, payload).problems == []
    assert workload.check(request, dict(payload)).problems == []
    altered = dict(payload, predicted_cycles=1234.75)
    assert workload.check(request, altered).problems


# -- tracing ---------------------------------------------------------------------


def test_tracer_records_layers_and_restores_originals():
    import repro
    import repro.dse.evaluator as evaluator_module
    import repro.dse.optimizer as optimizer_module

    originals = (
        repro.CandidateEvaluator.explore,
        optimizer_module.full_space_candidates,
        evaluator_module.predict_batch,
    )
    tracer = Tracer()
    tracer.install()
    try:
        assert repro.CandidateEvaluator.explore is not originals[0]
        span = tracer.open("request", "request", "r0")
        spec = repro.get_benchmark("jacobi-1d", grid=(1024,), iterations=16)
        repro.optimize_full(spec, max_kernels=4, max_fused_depth=8)
        tracer.close(span)
    finally:
        tracer.uninstall()
    assert (
        repro.CandidateEvaluator.explore,
        optimizer_module.full_space_candidates,
        evaluator_module.predict_batch,
    ) == originals
    assert tracer.calls["dse.tier1"] == 3
    assert tracer.busy["dse.enumerate"] > 0
    assert tracer.counts["enumerate.full_space_candidates"] > 0
    assert tracer.counts["dse.tier1.evaluations"] == (
        tracer.counts["enumerate.full_space_candidates"]
    )
    (request,) = tracer.request_spans()
    assert 0 <= request.self_s < request.duration
    children = [s for s in tracer.spans if s.parent is request]
    assert {s.layer for s in children} == {"dse.tier1"}
    assert all(s.request == "r0" for s in tracer.spans)


# -- BENCHMARK.json ----------------------------------------------------------------


def test_benchmark_json_matches_the_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"])
        for m in spec["end_to_end"]
    } == catalog.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
    } == catalog.PER_LAYER
    assert spec["paths"] == ["perfbench"]
    assert spec["command"] == ["python3", "perfbench/run.py"]
