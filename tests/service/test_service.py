"""SynthesisService lifecycle: dedup, retry, timeout, drain, overload.

Most tests inject a pipeline (the documented test seam) so they run in
milliseconds; ``TestRealPipeline`` covers the genuine facade path on a
tiny workload.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import obs
from repro.errors import (
    ServiceError,
    ServiceOverloadError,
    SpecificationError,
    TransientServiceError,
)
from repro.service import JobRequest, JobState

from tests.service.conftest import echo_pipeline

WAIT_S = 30.0


class _GatedPipeline:
    """Pipeline that blocks until released (or forever, for cancels)."""

    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Event()
        self.calls = 0

    def __call__(self, job, _evaluator):
        self.calls += 1
        self.entered.set()
        while not self.release.wait(0.005):
            job.check_cancelled()
        return {"echo": job.request.content()}


class TestBasicLifecycle:
    def test_runs_job_to_done(self, service_factory, small_request):
        service = service_factory(pipeline=echo_pipeline)
        job, coalesced = service.submit(small_request)
        assert not coalesced
        assert service.wait(job.id, timeout=WAIT_S) is job
        assert job.state is JobState.DONE
        assert job.result == {"echo": small_request.content()}
        assert service.stats.completed == 1

    def test_job_ids_are_sequential(self, service_factory):
        service = service_factory(pipeline=echo_pipeline)
        a, _ = service.submit(JobRequest(benchmark="jacobi-1d"))
        b, _ = service.submit(JobRequest(benchmark="jacobi-2d"))
        assert a.id == "job-000001"
        assert b.id == "job-000002"

    def test_default_timeout_applied(self, service_factory):
        service = service_factory(
            pipeline=echo_pipeline, default_timeout_s=123.0
        )
        job, _ = service.submit(JobRequest(benchmark="jacobi-1d"))
        assert job.request.timeout_s == 123.0
        # ... without perturbing the dedup signature.
        assert job.signature == JobRequest(
            benchmark="jacobi-1d"
        ).signature()

    def test_unknown_job_queries(self, service_factory):
        service = service_factory(pipeline=echo_pipeline)
        assert service.job("job-999999") is None
        assert service.wait("job-999999") is None
        assert service.cancel("job-999999") is None


class TestDedup:
    def test_identical_inflight_requests_coalesce(self, service_factory):
        gate = _GatedPipeline()
        service = service_factory(pipeline=gate, workers=1)
        request = JobRequest(benchmark="jacobi-2d")
        first, coalesced_first = service.submit(request)
        assert gate.entered.wait(WAIT_S)
        second, coalesced_second = service.submit(
            JobRequest(benchmark="jacobi-2d")
        )
        assert not coalesced_first
        assert coalesced_second
        assert second is first
        gate.release.set()
        service.wait(first.id, timeout=WAIT_S)
        assert gate.calls == 1
        assert first.coalesced == 1
        assert service.stats.requests == 2
        assert service.stats.accepted == 1
        assert service.stats.deduped == 1

    def test_different_requests_do_not_coalesce(self, service_factory):
        service = service_factory(pipeline=echo_pipeline)
        a, _ = service.submit(JobRequest(benchmark="jacobi-1d"))
        b, _ = service.submit(JobRequest(benchmark="jacobi-2d"))
        assert a is not b
        assert service.stats.deduped == 0

    def test_repeat_after_completion_is_a_new_job(
        self, service_factory
    ):
        service = service_factory(pipeline=echo_pipeline)
        request = JobRequest(benchmark="jacobi-2d")
        first, _ = service.submit(request)
        service.wait(first.id, timeout=WAIT_S)
        second, coalesced = service.submit(request)
        assert not coalesced
        assert second is not first
        service.wait(second.id, timeout=WAIT_S)
        assert second.result == first.result

    def test_dedup_metrics_mirrored_to_obs(self, service_factory):
        obs.enable(capture_events=False)
        gate = _GatedPipeline()
        service = service_factory(pipeline=gate, workers=1)
        first, _ = service.submit(JobRequest(benchmark="jacobi-2d"))
        assert gate.entered.wait(WAIT_S)
        service.submit(JobRequest(benchmark="jacobi-2d"))
        gate.release.set()
        service.wait(first.id, timeout=WAIT_S)
        report = obs.run_report()
        counters = report["metrics"]["counters"]
        assert counters["service.requests"] == 2
        assert counters["service.dedup"] == 1
        assert report["derived"]["service.dedup_rate"] == 0.5


class TestFailureModes:
    def test_model_errors_fail_fast(self, service_factory):
        def broken(_job, _evaluator):
            raise SpecificationError("bad workload")

        service = service_factory(pipeline=broken, retry_backoff_s=0.0)
        job, _ = service.submit(JobRequest(benchmark="jacobi-2d"))
        service.wait(job.id, timeout=WAIT_S)
        assert job.state is JobState.FAILED
        assert "bad workload" in job.error
        assert job.attempts == 1
        assert service.stats.retries == 0

    def test_transient_errors_retry_then_succeed(self, service_factory):
        attempts = []

        def flaky(job, _evaluator):
            attempts.append(job.id)
            if len(attempts) < 3:
                raise TransientServiceError("blip")
            return {"ok": True}

        service = service_factory(
            pipeline=flaky, max_retries=3, retry_backoff_s=0.001
        )
        job, _ = service.submit(JobRequest(benchmark="jacobi-2d"))
        service.wait(job.id, timeout=WAIT_S)
        assert job.state is JobState.DONE
        assert job.attempts == 3
        assert service.stats.retries == 2

    def test_transient_errors_exhaust_retries(self, service_factory):
        def always_flaky(_job, _evaluator):
            raise TransientServiceError("still down")

        service = service_factory(
            pipeline=always_flaky, max_retries=2, retry_backoff_s=0.001
        )
        job, _ = service.submit(JobRequest(benchmark="jacobi-2d"))
        service.wait(job.id, timeout=WAIT_S)
        assert job.state is JobState.FAILED
        assert job.attempts == 3  # 1 try + 2 retries
        assert "transient failure persisted" in job.error

    def test_unexpected_exception_does_not_kill_worker(
        self, service_factory
    ):
        def crash(_job, _evaluator):
            raise RuntimeError("boom")

        service = service_factory(pipeline=crash, workers=1)
        job, _ = service.submit(JobRequest(benchmark="jacobi-2d"))
        service.wait(job.id, timeout=WAIT_S)
        assert job.state is JobState.FAILED
        assert "internal error" in job.error
        # The lone worker survived and still runs the next job.
        follow_up, _ = service.submit(JobRequest(benchmark="jacobi-1d"))
        service.wait(follow_up.id, timeout=WAIT_S)


class TestCancellationAndTimeouts:
    def test_cancel_while_queued(self, service_factory):
        gate = _GatedPipeline()
        service = service_factory(pipeline=gate, workers=1)
        blocker, _ = service.submit(JobRequest(benchmark="jacobi-1d"))
        assert gate.entered.wait(WAIT_S)
        queued, _ = service.submit(JobRequest(benchmark="jacobi-2d"))
        service.cancel(queued.id)
        gate.release.set()
        service.wait(queued.id, timeout=WAIT_S)
        assert queued.state is JobState.CANCELLED
        assert queued.error == "cancelled while queued"
        service.wait(blocker.id, timeout=WAIT_S)
        assert blocker.state is JobState.DONE

    def test_cancel_while_running(self, service_factory):
        gate = _GatedPipeline()  # never released: only a cancel ends it
        service = service_factory(pipeline=gate, workers=1)
        job, _ = service.submit(JobRequest(benchmark="jacobi-2d"))
        assert gate.entered.wait(WAIT_S)
        service.cancel(job.id)
        service.wait(job.id, timeout=WAIT_S)
        assert job.state is JobState.CANCELLED
        assert service.stats.cancelled == 1
        assert not job.timed_out

    def test_timeout_cancels_running_job(self, service_factory):
        gate = _GatedPipeline()  # never released: only the deadline
        service = service_factory(pipeline=gate, workers=1)
        job, _ = service.submit(
            JobRequest(benchmark="jacobi-2d", timeout_s=0.05)
        )
        service.wait(job.id, timeout=WAIT_S)
        assert job.state is JobState.CANCELLED
        assert job.timed_out
        assert service.stats.timeouts == 1
        assert "timeout" in job.error


class TestAdmissionControl:
    def test_overload_rejects_with_retry_after(self, service_factory):
        gate = _GatedPipeline()
        service = service_factory(
            pipeline=gate, workers=1, queue_depth=1
        )
        running, _ = service.submit(JobRequest(benchmark="jacobi-1d"))
        assert gate.entered.wait(WAIT_S)
        service.submit(JobRequest(benchmark="jacobi-2d"))  # fills queue
        with pytest.raises(ServiceOverloadError) as excinfo:
            service.submit(JobRequest(benchmark="jacobi-3d"))
        assert excinfo.value.retry_after_s >= 1.0
        assert service.stats.rejected == 1
        gate.release.set()
        service.wait(running.id, timeout=WAIT_S)

    def test_rejected_request_not_tracked(self, service_factory):
        gate = _GatedPipeline()
        service = service_factory(
            pipeline=gate, workers=1, queue_depth=1
        )
        service.submit(JobRequest(benchmark="jacobi-1d"))
        assert gate.entered.wait(WAIT_S)
        queued, _ = service.submit(JobRequest(benchmark="jacobi-2d"))
        with pytest.raises(ServiceOverloadError):
            service.submit(JobRequest(benchmark="jacobi-3d"))
        # The rejected signature is not in flight: resubmitting later
        # must not coalesce onto a phantom job.
        gate.release.set()
        service.wait(queued.id, timeout=WAIT_S)
        job, coalesced = service.submit(
            JobRequest(benchmark="jacobi-3d")
        )
        assert not coalesced
        service.wait(job.id, timeout=WAIT_S)
        assert job.state is JobState.DONE


class TestShutdown:
    def test_drain_finishes_queued_jobs(self, service_factory):
        service = service_factory(pipeline=echo_pipeline, workers=1)
        jobs = [
            service.submit(JobRequest(benchmark=name))[0]
            for name in ("jacobi-1d", "jacobi-2d", "jacobi-3d")
        ]
        service.shutdown(drain=True, timeout=WAIT_S)
        assert all(job.state is JobState.DONE for job in jobs)

    def test_abort_cancels_queued_jobs(self, service_factory):
        gate = _GatedPipeline()
        service = service_factory(pipeline=gate, workers=1)
        running, _ = service.submit(JobRequest(benchmark="jacobi-1d"))
        assert gate.entered.wait(WAIT_S)
        queued, _ = service.submit(JobRequest(benchmark="jacobi-2d"))
        service.shutdown(drain=False, timeout=WAIT_S)
        assert queued.state is JobState.CANCELLED
        assert running.state is JobState.CANCELLED

    def test_submit_after_shutdown_raises(self, service_factory):
        service = service_factory(pipeline=echo_pipeline)
        service.shutdown(drain=True, timeout=WAIT_S)
        assert service.draining
        with pytest.raises(ServiceError, match="shutting down"):
            service.submit(JobRequest(benchmark="jacobi-2d"))

    def test_shutdown_is_idempotent(self, service_factory):
        service = service_factory(pipeline=echo_pipeline)
        service.shutdown(drain=True, timeout=WAIT_S)
        service.shutdown(drain=True, timeout=WAIT_S)  # no raise

    def test_context_manager_drains(self, small_request):
        from repro.service import SynthesisService

        with SynthesisService(
            pipeline=echo_pipeline, workers=1
        ) as service:
            job, _ = service.submit(small_request)
        assert job.state is JobState.DONE


class TestHistoryBound:
    def test_finished_jobs_evicted_oldest_first(self, service_factory):
        service = service_factory(
            pipeline=echo_pipeline, workers=1, max_history=2
        )
        jobs = []
        for name in ("jacobi-1d", "jacobi-2d", "jacobi-3d"):
            job, _ = service.submit(JobRequest(benchmark=name))
            service.wait(job.id, timeout=WAIT_S)
            jobs.append(job)
        # One more submission triggers the trim of the oldest entry.
        extra, _ = service.submit(JobRequest(benchmark="fdtd-2d"))
        service.wait(extra.id, timeout=WAIT_S)
        assert service.job(jobs[0].id) is None
        assert service.job(extra.id) is extra


class TestRealPipeline:
    def test_tiny_real_synthesis(self, service_factory, small_request):
        service = service_factory(workers=1)
        job, _ = service.submit(small_request)
        service.wait(job.id, timeout=120.0)
        assert job.state is JobState.DONE, job.error
        result = job.result
        assert result["design"]["kind"] == "heterogeneous"
        assert result["predicted_cycles"] > 0
        assert "__kernel" in result["program"]["kernel_source"]
        assert service.evaluator.stats.evaluated > 0

    def test_no_gauge_reads_one_engines_memo(self, small_request):
        """A program job publishes through its own engine, so a
        process-wide memo-size gauge would read that engine's memo, not
        the resident one's; there is none."""
        from repro.dse import CandidateEvaluator
        from repro.service.core import run_synthesis_pipeline

        obs.enable()
        resident = CandidateEvaluator(max_memo_entries=4096)
        run_synthesis_pipeline(small_request, resident)
        memo = resident.cache_size()
        program = JobRequest(
            program="blur-sobel-threshold", grid_shape=(32, 32), iterations=2
        )
        run_synthesis_pipeline(program, resident)
        assert resident.cache_size() == memo
        assert "dse.cache_size" not in obs.get_registry().report()["gauges"]

    def test_health_snapshot(self, service_factory):
        service = service_factory(pipeline=echo_pipeline)
        health = service.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert health["queue_capacity"] == 64
        assert not health["store_attached"]


def test_avg_job_time_feeds_retry_after(service_factory):
    gate = _GatedPipeline()
    service = service_factory(pipeline=gate, workers=1, queue_depth=1)
    service._avg_job_s = 40.0  # pretend jobs are slow
    service.submit(JobRequest(benchmark="jacobi-1d"))
    assert gate.entered.wait(WAIT_S)
    service.submit(JobRequest(benchmark="jacobi-2d"))
    with pytest.raises(ServiceOverloadError) as excinfo:
        service.submit(JobRequest(benchmark="jacobi-3d"))
    # backlog(queue=1 + running=1) * 40s / 1 worker, clamped to 60s.
    assert excinfo.value.retry_after_s == 60.0
    gate.release.set()


class TestRetryBackoffCancellation:
    def test_cancel_wakes_a_job_out_of_backoff(self, service_factory):
        # A pipeline that always fails transiently parks the job in
        # the retry backoff; a cancel must wake it immediately instead
        # of letting the worker sleep out the full delay.
        attempted = threading.Event()

        def flaky(_job, _evaluator):
            attempted.set()
            raise TransientServiceError("synthetic transient")

        service = service_factory(
            pipeline=flaky,
            workers=1,
            max_retries=5,
            retry_backoff_s=30.0,  # way beyond the test budget
        )
        job, _ = service.submit(JobRequest(benchmark="jacobi-2d"))
        assert attempted.wait(WAIT_S)
        begin = time.monotonic()
        service.cancel(job.id)
        assert job.wait(WAIT_S)
        assert job.state is JobState.CANCELLED
        assert time.monotonic() - begin < 5.0

    def test_deadline_bounds_the_backoff(self, service_factory):
        # No explicit cancel: the job's own timeout must cap the
        # backoff sleep, so the worker frees up at the deadline, not
        # 30 seconds later.
        def flaky(_job, _evaluator):
            raise TransientServiceError("synthetic transient")

        service = service_factory(
            pipeline=flaky,
            workers=1,
            max_retries=5,
            retry_backoff_s=30.0,
        )
        begin = time.monotonic()
        job, _ = service.submit(
            JobRequest(benchmark="jacobi-2d", timeout_s=0.3)
        )
        assert job.wait(WAIT_S)
        assert job.state is JobState.CANCELLED
        assert job.timed_out
        assert time.monotonic() - begin < 5.0
