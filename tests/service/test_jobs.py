"""Job model: request validation, signatures, lifecycle state."""

from __future__ import annotations

import time

import pytest

from repro.errors import JobCancelledError, ServiceError
from repro.service import Job, JobRequest, JobState


class TestJobRequestValidation:
    def test_needs_exactly_one_input(self):
        with pytest.raises(ServiceError):
            JobRequest()
        with pytest.raises(ServiceError):
            JobRequest(benchmark="jacobi-2d", source="B[i] = A[i];")

    def test_rejects_unknown_design(self):
        with pytest.raises(ServiceError):
            JobRequest(benchmark="jacobi-2d", design="magic")

    def test_rejects_non_positive_timeout(self):
        with pytest.raises(ServiceError):
            JobRequest(benchmark="jacobi-2d", timeout_s=0)

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ServiceError, match="bencmark"):
            JobRequest.from_json({"bencmark": "jacobi-2d"})

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ServiceError):
            JobRequest.from_json(["jacobi-2d"])

    def test_from_json_rejects_bad_shapes(self):
        with pytest.raises(ServiceError):
            JobRequest.from_json(
                {"benchmark": "jacobi-2d", "grid_shape": ["x", "y"]}
            )
        with pytest.raises(ServiceError):
            JobRequest.from_json(
                {"benchmark": "jacobi-2d", "tile_shape": []}
            )

    def test_from_json_roundtrip(self):
        request = JobRequest.from_json(
            {
                "benchmark": "jacobi-2d",
                "grid_shape": [64, 64],
                "iterations": 8,
                "design": "pipe-shared",
                "priority": 3,
                "timeout_s": 10.5,
            }
        )
        assert request.grid_shape == (64, 64)
        assert request.design == "pipe-shared"
        assert request.priority == 3
        rebuilt = JobRequest.from_json(request.as_dict())
        assert rebuilt.signature() == request.signature()

    @pytest.mark.parametrize(
        "payload",
        [
            {"program": "fdtd-two-field", "schedule": "timeshared"},
            {"source": "B[i] = A[i];", "name": "copy",
             "field_map": {"B": "A"}, "grid_shape": [64], "iterations": 2},
        ],
    )
    def test_defaults_of_ignored_fields_round_trip(self, payload):
        request = JobRequest.from_json(payload)
        rebuilt = JobRequest.from_json(request.as_dict())
        assert rebuilt.signature() == request.signature()


class TestSignatures:
    def test_identical_content_identical_signature(self):
        a = JobRequest(benchmark="jacobi-2d", grid_shape=(32, 32))
        b = JobRequest(benchmark="jacobi-2d", grid_shape=(32, 32))
        assert a.signature() == b.signature()

    def test_content_changes_signature(self):
        a = JobRequest(benchmark="jacobi-2d", grid_shape=(32, 32))
        b = JobRequest(benchmark="jacobi-2d", grid_shape=(64, 64))
        c = JobRequest(benchmark="jacobi-2d", grid_shape=(32, 32),
                       design="baseline")
        assert a.signature() != b.signature()
        assert a.signature() != c.signature()

    def test_scheduling_knobs_do_not_change_signature(self):
        a = JobRequest(benchmark="jacobi-2d")
        b = JobRequest(benchmark="jacobi-2d", priority=9, timeout_s=5.0)
        assert a.signature() == b.signature()

    def test_field_map_order_is_canonical(self):
        src = "B[i] = A[i-1] + C[i+1];"
        a = JobRequest(source=src, field_map={"B": "A", "D": "C"})
        b = JobRequest(source=src, field_map={"D": "C", "B": "A"})
        assert a.signature() == b.signature()


class TestJobLifecycle:
    def _job(self, **request_kw) -> Job:
        request = JobRequest(benchmark="jacobi-2d", **request_kw)
        return Job(id="job-000001", request=request,
                   signature=request.signature())

    def test_states_finished(self):
        assert not JobState.QUEUED.finished
        assert not JobState.RUNNING.finished
        assert JobState.DONE.finished
        assert JobState.FAILED.finished
        assert JobState.CANCELLED.finished

    def test_cancel_raises_at_checkpoint(self):
        job = self._job()
        job.check_cancelled()  # no-op before cancel
        job.cancel()
        with pytest.raises(JobCancelledError):
            job.check_cancelled()

    def test_deadline_marks_timed_out(self):
        job = self._job(timeout_s=0.01)
        job.arm_deadline()
        time.sleep(0.03)
        with pytest.raises(JobCancelledError):
            job.check_cancelled()
        assert job.timed_out

    def test_no_deadline_without_arming(self):
        job = self._job(timeout_s=0.01)
        time.sleep(0.03)
        job.check_cancelled()  # clock only starts when the job runs

    def test_wait_follows_mark_finished(self):
        job = self._job()
        assert not job.wait(timeout=0)
        job.mark_finished()
        assert job.wait(timeout=0)

    def test_as_dict_is_json_shaped(self):
        job = self._job()
        data = job.as_dict()
        assert data["id"] == "job-000001"
        assert data["state"] == "queued"
        assert data["has_result"] is False
        assert data["request"]["benchmark"] == "jacobi-2d"
