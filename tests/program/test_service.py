"""Program jobs through the synthesis service."""

from __future__ import annotations

import json

import pytest

from repro.errors import ServiceError
from repro.service import JobRequest, JobState, SynthesisService


def _request(**overrides):
    payload = {
        "program": "blur-sobel-threshold",
        "grid_shape": (32, 32),
        "iterations": 1,
    }
    payload.update(overrides)
    return JobRequest(**payload)


class TestJobRequest:
    def test_program_job_validates(self):
        request = _request()
        assert request.program == "blur-sobel-threshold"
        assert request.schedule == "coresident"

    def test_exactly_one_workload(self):
        with pytest.raises(ServiceError, match="exactly one"):
            JobRequest(benchmark="jacobi-2d", program="blur-sobel-threshold")
        with pytest.raises(ServiceError, match="exactly one"):
            JobRequest()

    def test_schedule_validated(self):
        with pytest.raises(ServiceError, match="schedule"):
            _request(schedule="quantum")

    def test_json_round_trip(self):
        request = _request(schedule="timeshared")
        parsed = JobRequest.from_json(
            json.loads(json.dumps(request.as_dict()))
        )
        assert parsed.program == request.program
        assert parsed.schedule == "timeshared"
        assert parsed.signature() == request.signature()

    def test_schedule_is_signature_relevant(self):
        assert (
            _request(schedule="coresident").signature()
            != _request(schedule="timeshared").signature()
        )


class TestService:
    def test_program_job_completes_with_payload(self):
        with SynthesisService(workers=1) as service:
            job, coalesced = service.submit(_request())
            assert not coalesced
            finished = service.wait(job.id, timeout=120.0)
        assert finished.state is JobState.DONE
        payload = finished.result
        assert payload["design"]["kind"] == "program"
        assert payload["design"]["schedule"] == "coresident"
        assert set(payload["design"]["stages"]) == {
            "blur",
            "sobel",
            "threshold",
        }
        assert payload["predicted_cycles"] > 0
        assert payload["program"]["num_kernels"] >= 3
        assert "__kernel" in payload["program"]["kernel_source"]

    def test_identical_program_jobs_coalesce(self):
        with SynthesisService(workers=1) as service:
            first, _ = service.submit(_request())
            second, coalesced = service.submit(_request())
            assert coalesced and second.id == first.id
            different, other_coalesced = service.submit(
                _request(schedule="timeshared")
            )
            assert not other_coalesced
            assert different.id != first.id
            service.wait(first.id, timeout=120.0)
            service.wait(different.id, timeout=120.0)

    def test_program_job_flight_counts_engine_work(self, tmp_path):
        from repro.store import DesignStore

        store = DesignStore(tmp_path / "store")
        try:
            with SynthesisService(workers=1, store=store) as service:
                first, _ = service.submit(_request())
                service.wait(first.id, timeout=120.0)
                repeat, coalesced = service.submit(_request())
                assert not coalesced
                service.wait(repeat.id, timeout=120.0)
                engine = service.evaluator_stats()
        finally:
            store.close()
        assert first.flight["evaluations"] > 0
        assert repeat.flight["evaluations"] == 0
        assert repeat.flight["store_hits"] > 0
        assert engine["evaluated"] == first.flight["evaluations"]
