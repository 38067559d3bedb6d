"""Process-sharded service: exactly-once, parity, cancel, restart.

Each test spawns real replica processes (spawn start method), so the
workloads stay tiny.  The parity tests are the acceptance criterion:
an N-replica run must produce byte-identical result payloads to the
single-process service for the same requests.
"""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.obs.trace import TraceContext
from repro.service import (
    JobRequest,
    JobState,
    ShardedSynthesisService,
    SynthesisService,
)
from repro.service.routes import handle_request, to_json_bytes
from repro.store import DesignStore

WAIT_S = 120.0

#: Three real-but-tiny stencil requests with distinct signatures.
DISJOINT = [
    {"benchmark": "jacobi-1d", "grid_shape": (64,), "iterations": 4},
    {"benchmark": "jacobi-2d", "grid_shape": (32, 32), "iterations": 4},
    {
        "benchmark": "jacobi-3d",
        "grid_shape": (16, 16, 16),
        "iterations": 4,
    },
]

#: A CPU-heavy joint-DSE request (seconds, hundreds of cancel points).
HEAVY = {
    "program": "blur-sobel-threshold",
    "grid_shape": (128, 128),
    "iterations": 8,
}


@pytest.fixture
def sharded_factory(tmp_path):
    """Build sharded services over a shared tmp store; always stopped."""
    services = []

    def build(**kw) -> ShardedSynthesisService:
        kw.setdefault("worker_processes", 2)
        kw.setdefault("store_root", tmp_path / "store")
        service = ShardedSynthesisService(**kw)
        services.append(service)
        return service

    yield build
    for service in services:
        try:
            service.shutdown(drain=False, timeout=30.0)
        except Exception:
            pass


def _run_all(service, specs):
    jobs = [service.submit(JobRequest(**spec))[0] for spec in specs]
    for job in jobs:
        service.wait(job.id, timeout=WAIT_S)
    return jobs


class TestParity:
    def test_disjoint_workload_byte_identical_to_single_process(
        self, sharded_factory, tmp_path
    ):
        single = SynthesisService(workers=1)
        try:
            reference = {
                spec["benchmark"]: to_json_bytes(job.result)
                for spec, job in zip(
                    DISJOINT, _run_all(single, DISJOINT)
                )
            }
        finally:
            single.shutdown(drain=True, timeout=WAIT_S)

        service = sharded_factory(worker_processes=2)
        for spec, job in zip(DISJOINT, _run_all(service, DISJOINT)):
            assert job.state is JobState.DONE, job.error
            assert (
                to_json_bytes(job.result)
                == reference[spec["benchmark"]]
            )

    def test_overlapping_workload_repeats_byte_identical(
        self, sharded_factory
    ):
        # The same requests resubmitted after completion: different
        # replicas may answer, but the payload bytes cannot move.
        service = sharded_factory(worker_processes=2)
        first = _run_all(service, DISJOINT)
        second = _run_all(service, DISJOINT)
        for a, b in zip(first, second):
            assert a.state is JobState.DONE and b.state is JobState.DONE
            assert to_json_bytes(a.result) == to_json_bytes(b.result)

    def test_shared_store_converges_to_single_process_contents(
        self, sharded_factory, tmp_path
    ):
        # Exactly-once through content addressing: N replicas writing
        # the same workload into one store leave exactly the records a
        # single process would — no duplicates, no divergence.
        single_root = tmp_path / "single-store"
        store = DesignStore(single_root)
        single = SynthesisService(store=store, workers=1)
        try:
            _run_all(single, DISJOINT)
        finally:
            single.shutdown(drain=True, timeout=WAIT_S)
            store.close()
        with DesignStore(single_root) as reference:
            expected = len(reference)
        assert expected > 0

        service = sharded_factory(worker_processes=2)
        _run_all(service, DISJOINT + DISJOINT)  # overlap on purpose
        service.shutdown(drain=True, timeout=WAIT_S)
        with DesignStore(service._replicas[0]._config.store_root) as (
            merged
        ):
            assert len(merged) == expected


class TestLifecycle:
    def test_health_reports_replicas(self, sharded_factory):
        service = sharded_factory(worker_processes=2)
        _run_all(service, DISJOINT[:1])
        health = service.health()
        assert health["worker_processes"] == 2
        replicas = health["replicas"]
        assert len(replicas) == 2
        assert all(r["alive"] for r in replicas)
        assert sum(r["jobs"] for r in replicas) == 1

    def test_evaluator_stats_aggregate_across_processes(
        self, sharded_factory
    ):
        service = sharded_factory(worker_processes=2)
        _run_all(service, DISJOINT)
        stats = service.evaluator_stats()
        assert stats["evaluated"] > 0
        # The metrics route reads the same aggregate (the dispatcher's
        # own evaluator never ran anything).
        response = handle_request(service, "GET", "/metricsz", {})
        assert response.status == 200
        assert b'"evaluated"' in response.body
        assert service.evaluator.stats.evaluated == 0

    def test_worker_processes_validation(self):
        with pytest.raises(Exception):
            ShardedSynthesisService(worker_processes=0)

    def test_replica_death_is_retried_transparently(
        self, sharded_factory
    ):
        service = sharded_factory(worker_processes=1, max_retries=2)
        # Kill the replica out from under the service; the next job
        # must restart it and still finish.
        service._replicas[0].process.kill()
        service._replicas[0].process.join(10.0)
        job, _ = service.submit(JobRequest(**DISJOINT[0]))
        service.wait(job.id, timeout=WAIT_S)
        assert job.state is JobState.DONE, job.error
        assert service._replicas[0].restarts >= 1
        assert service.health()["replicas"][0]["alive"]


class TestFlightRecords:
    def test_replica_measures_the_jobs_cpu_and_rss(self, sharded_factory):
        service = sharded_factory(worker_processes=1)
        job, _ = service.submit(
            JobRequest(
                program="blur-sobel-threshold",
                grid_shape=(64, 64),
                iterations=2,
            )
        )
        service.wait(job.id, timeout=WAIT_S)
        assert job.state is JobState.DONE
        flight = job.flight
        # The forwarding thread spends a few milliseconds of CPU on
        # the pipe; the search ran on the replica's thread.
        assert flight["cpu_s"] > 0.1 * flight["run_s"]
        assert flight["peak_rss_delta_kb"] >= 0
        assert flight["evaluations"] > 0


class TestCancellation:
    def test_cancel_crosses_the_process_boundary(self, sharded_factory):
        service = sharded_factory(worker_processes=1)
        job, _ = service.submit(JobRequest(**HEAVY))
        deadline = time.monotonic() + WAIT_S
        while (
            job.state is JobState.QUEUED
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        begin = time.monotonic()
        service.cancel(job.id)
        service.wait(job.id, timeout=WAIT_S)
        assert job.state is JobState.CANCELLED
        # The replica noticed at a candidate boundary, not at the end
        # of the job: cancellation latency is bounded by the poll
        # period plus one candidate, far below the job's runtime.
        assert time.monotonic() - begin < 10.0
        assert not job.timed_out

    def test_deadline_ships_to_the_replica(self, sharded_factory):
        service = sharded_factory(worker_processes=1)
        job, _ = service.submit(
            JobRequest(**dict(HEAVY, timeout_s=0.2))
        )
        service.wait(job.id, timeout=WAIT_S)
        assert job.state is JobState.CANCELLED
        assert job.timed_out
        assert "timeout" in (job.error or "")


class TestTraceShipping:
    def test_replica_spans_appear_in_the_job_trace(self, tmp_path):
        obs.enable(capture_events=False, capture_spans=True)
        service = ShardedSynthesisService(
            store_root=tmp_path / "store", worker_processes=1
        )
        try:
            trace = TraceContext.mint()
            job, _ = service.submit(
                JobRequest(**DISJOINT[1]), trace=trace
            )
            service.wait(job.id, timeout=WAIT_S)
            assert job.state is JobState.DONE, job.error
            response = handle_request(
                service, "GET", f"/jobs/{job.id}/trace", {}
            )
            assert response.status == 200
            body = response.body.decode("utf-8")
            # Replica-side spans were grafted in under their replica's
            # synthetic thread name, aligned to this process's clock.
            assert "replica-0:" in body
            assert "service.job" in body
        finally:
            service.shutdown(drain=False, timeout=30.0)
