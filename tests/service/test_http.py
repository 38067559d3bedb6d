"""HTTP surface + client, end to end on a real socket (port 0).

Includes the acceptance flows: byte-identical repeat results, overload
(429 + Retry-After), and a server restart answering from the persistent
store without re-running the model; and the front door's transport:
keep-alive, concurrent pollers, disconnects, and prompt 4xx replies to
requests it cannot take.
"""

from __future__ import annotations

import http.client
import io
import json
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro import obs
from repro.errors import ServiceError, ServiceOverloadError
from repro.service import (
    JobFailedError,
    JobRequest,
    ServiceClient,
    SynthesisService,
    make_server,
    write_result_program,
)
from repro.service.http import _Handler
from repro.store import DesignStore

from tests.service.conftest import echo_pipeline

WAIT_S = 60.0


@pytest.fixture
def served():
    """A live server+client on an OS-assigned port; always torn down."""
    resources = []

    def build(**service_kw):
        service_kw.setdefault("workers", 2)
        service = SynthesisService(**service_kw)
        server = make_server(service, port=0)
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}")
        resources.append((server, service))
        return service, client

    yield build
    for server, service in resources:
        server.shutdown()
        server.server_close()
        service.shutdown(drain=False, timeout=10.0)


def _get_raw(client: ServiceClient, path: str):
    with urllib.request.urlopen(client.base_url + path, timeout=10) as r:
        return r.status, r.read()


def _address(client: ServiceClient):
    url = urllib.parse.urlsplit(client.base_url)
    return url.hostname, url.port


class TestRoutes:
    def test_health(self, served):
        _, client = served(pipeline=echo_pipeline)
        health = client.health()
        assert health["status"] == "ok"
        assert health["queue_capacity"] == 64

    def test_submit_and_wait(self, served):
        _, client = served(pipeline=echo_pipeline)
        job = client.submit(benchmark="jacobi-2d")
        assert job["state"] in ("queued", "running", "done")
        assert job["coalesced"] is False
        result = client.wait(job["id"], timeout_s=WAIT_S)
        assert result["echo"]["benchmark"] == "jacobi-2d"

    def test_job_status_view(self, served):
        _, client = served(pipeline=echo_pipeline)
        job = client.submit(benchmark="jacobi-2d", priority=2)
        status = client.job(job["id"])
        assert status["id"] == job["id"]
        assert status["request"]["priority"] == 2

    def test_unknown_job_404(self, served):
        _, client = served(pipeline=echo_pipeline)
        with pytest.raises(ServiceError, match="unknown job"):
            client.job("job-424242")
        with pytest.raises(ServiceError, match="unknown job"):
            client.result("job-424242")

    def test_unknown_route_404(self, served):
        _, client = served(pipeline=echo_pipeline)
        payload = client._call("GET", "/nope")
        assert payload["_status"] == 404
        assert "no such route" in payload["error"]

    def test_malformed_payload_400(self, served):
        _, client = served(pipeline=echo_pipeline)
        with pytest.raises(ServiceError, match="unknown job field"):
            client.submit(benchmark="jacobi-2d", bogus_field=1)
        with pytest.raises(ServiceError, match="design"):
            client.submit(benchmark="jacobi-2d", design="quantum")

    @pytest.mark.parametrize(
        "payload",
        [
            {"benchmark": "jacobi-2d", "iterations": "abc"},
            {"benchmark": "jacobi-2d", "iterations": 2.5},
            {"benchmark": "jacobi-2d", "iterations": True},
            {"benchmark": "jacobi-2d", "grid_shape": [0, -4]},
            {"benchmark": "jacobi-2d", "grid_shape": [None, 4]},
            {"benchmark": "jacobi-2d", "unroll": 0},
            {"benchmark": "jacobi-2d", "unroll": None},
            {"benchmark": "jacobi-2d", "fused_depth": -3},
            {"benchmark": "nope"},
            {"program": "nope"},
            {"source": "B[i] = A[i];"},
            {"source": 5, "grid_shape": [8], "iterations": 2},
            {"benchmark": "jacobi-2d", "name": 3},
            {"benchmark": "jacobi-2d", "aux": "power"},
            {"benchmark": "jacobi-2d", "field_map": [1, 2]},
            {"benchmark": "jacobi-2d", "timeout_s": True},
            {"benchmark": "jacobi-2d", "timeout_s": "5"},
            {"benchmark": "jacobi-2d", "priority": True},
            {"benchmark": "jacobi-2d", "priority": "7"},
            {"benchmark": "jacobi-2d", "priority": 2.7},
            {"benchmark": "jacobi-2d", "grid_shape": [64]},
            {"benchmark": "jacobi-2d", "tile_shape": [4, 4, 4, 4]},
            {"benchmark": "jacobi-2d", "counts": [2]},
            {"source": "B[i] = A[i];", "grid_shape": [64],
             "iterations": 2, "tile_shape": [8, 8]},
            {"program": "fdtd-two-field", "grid_shape": [64]},
            {"program": "fdtd-two-field", "tile_shape": [8, 8]},
            {"program": "fdtd-two-field", "counts": [2, 2]},
            {"program": "fdtd-two-field", "fused_depth": 2},
            {"program": "fdtd-two-field", "unroll": 2},
            {"program": "fdtd-two-field", "design": "baseline"},
        ],
        ids=lambda payload: json.dumps(payload, sort_keys=True),
    )
    def test_invalid_job_400_before_queueing(self, served, payload):
        service, client = served(pipeline=echo_pipeline)
        reply = client._call("POST", "/jobs", payload)
        assert reply["_status"] == 400
        assert service.stats.accepted == 0

    def test_source_job_payload_accepted(self, served):
        service, client = served(pipeline=echo_pipeline)
        job = client.submit(
            source="B[i] = 0.5f * (A[i-1] + A[i+1]);",
            name="smooth",
            field_map={"B": "A"},
            aux=[],
            grid_shape=[64],
            iterations=2,
        )
        assert client.wait(job["id"], timeout_s=WAIT_S)
        assert service.stats.accepted == 1

    def test_failed_job_409(self, served):
        def broken(_job, _evaluator):
            raise ServiceError("synthetic failure")

        _, client = served(pipeline=broken)
        job = client.submit(benchmark="jacobi-2d")
        with pytest.raises(JobFailedError) as excinfo:
            client.wait(job["id"], timeout_s=WAIT_S)
        assert "synthetic failure" in str(excinfo.value)
        assert excinfo.value.job["state"] == "failed"

    def test_cancel_via_delete(self, served):
        # One busy worker keeps the second job queued until the
        # cancellation lands.
        release = threading.Event()
        entered = threading.Event()

        def gated(job, _evaluator):
            entered.set()
            release.wait(WAIT_S)
            return {"ok": True}

        _, client = served(pipeline=gated, workers=1)
        blocker = client.submit(benchmark="jacobi-1d")
        assert entered.wait(WAIT_S)
        queued = client.submit(benchmark="jacobi-2d")
        cancelled = client.cancel(queued["id"])
        assert cancelled["id"] == queued["id"]
        release.set()
        with pytest.raises(JobFailedError, match="cancelled"):
            client.wait(queued["id"], timeout_s=WAIT_S)
        client.wait(blocker["id"], timeout_s=WAIT_S)

    def test_metricsz_reports_service_stats(self, served):
        _, client = served(pipeline=echo_pipeline)
        job = client.submit(benchmark="jacobi-2d")
        client.wait(job["id"], timeout_s=WAIT_S)
        metrics = client.metrics()
        assert metrics["service"]["completed"] == 1
        assert "evaluator" in metrics
        assert metrics["schema"].startswith("repro.run_report")


#: How long a request the door must reject may take to be answered.
REPLY_S = 5.0


def _assert_rejected(client: ServiceClient, request: bytes, status: int):
    """Send raw bytes; expect one JSON error reply, then a close."""
    with socket.create_connection(_address(client), timeout=REPLY_S) as raw:
        raw.sendall(request)
        reply = b""
        while chunk := raw.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(f"HTTP/1.1 {status} ".encode()), reply
    assert b"Connection: close" in head
    assert "error" in json.loads(body)
    # One bad request costs the server nothing lasting.
    assert client.health()["status"] == "ok"


class TestTransport:
    """Connection handling of the threaded front door."""

    def test_keep_alive_serves_many_requests_per_connection(self, served):
        service, client = served(pipeline=echo_pipeline)
        job, _ = service.submit(JobRequest(benchmark="jacobi-2d"))
        service.wait(job.id, timeout=WAIT_S)
        conn = http.client.HTTPConnection(*_address(client), timeout=10)
        try:
            for _ in range(10):
                conn.request("GET", f"/jobs/{job.id}")
                reply = conn.getresponse()
                payload = json.loads(reply.read())
                assert reply.status == 200
                assert payload["state"] == "done"
        finally:
            conn.close()

    def test_trace_headers_propagate_any_casing(self, served):
        service, client = served(pipeline=echo_pipeline)
        trace_id = "ab" * 16  # 32 hex chars, as mint() produces
        conn = http.client.HTTPConnection(*_address(client), timeout=10)
        try:
            conn.request(
                "POST",
                "/jobs",
                body=json.dumps({"benchmark": "jacobi-2d"}).encode(),
                headers={"x-repro-TRACE-id": trace_id},
            )
            reply = conn.getresponse()
            assert reply.status == 202
            job_id = json.loads(reply.read())["job"]["id"]
        finally:
            conn.close()
        job = service.job(job_id)
        assert job.trace is not None
        assert job.trace.trace_id == trace_id

    def test_oversized_body_413(self, served):
        # 64 MiB announced, one byte sent: refused on the header alone.
        _, client = served(pipeline=echo_pipeline)
        _assert_rejected(
            client,
            b"POST /jobs HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: 67108864\r\n\r\nx",
            413,
        )

    def test_malformed_request_line_400(self, served):
        _, client = served(pipeline=echo_pipeline)
        _assert_rejected(client, b"NOT A REQUEST\r\n\r\n", 400)

    @pytest.mark.parametrize("length", [b"abc", b"-1"])
    def test_bad_content_length_400(self, served, length):
        _, client = served(pipeline=echo_pipeline)
        _assert_rejected(
            client,
            b"POST /jobs HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: " + length + b"\r\n\r\n",
            400,
        )

    def test_client_disconnect_counted_not_crashed(self, served):
        obs.enable(capture_events=False)
        _, client = served(pipeline=echo_pipeline)
        counter = obs.get_registry().counter(
            "service.http.client_disconnects"
        )
        before = counter.value
        # Announce a body, then reset the connection instead of
        # sending it: the server is mid-request when the RST lands.
        for _ in range(3):
            with socket.create_connection(
                _address(client), timeout=10
            ) as raw:
                raw.sendall(
                    b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: 5\r\n\r\n"
                )
                raw.setsockopt(
                    socket.SOL_SOCKET,
                    socket.SO_LINGER,
                    b"\x01\x00\x00\x00\x00\x00\x00\x00",
                )
        deadline = time.monotonic() + WAIT_S
        while counter.value < before + 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert counter.value == before + 3
        # The server is still perfectly healthy afterwards.
        assert client.health()["status"] == "ok"

    def test_concurrent_pollers(self, served):
        service, client = served(pipeline=echo_pipeline)
        job, _ = service.submit(JobRequest(benchmark="jacobi-2d"))
        service.wait(job.id, timeout=WAIT_S)
        errors = []

        def poll():
            try:
                conn = http.client.HTTPConnection(
                    *_address(client), timeout=30
                )
                for _ in range(5):
                    conn.request("GET", f"/jobs/{job.id}")
                    reply = conn.getresponse()
                    assert reply.status == 200
                    json.loads(reply.read())
                conn.close()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=poll, daemon=True)
            for _ in range(32)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(WAIT_S)
        assert not errors


class TestOverload:
    def test_429_with_retry_after(self, served):
        release = threading.Event()
        entered = threading.Event()

        def gated(job, _evaluator):
            entered.set()
            release.wait(WAIT_S)
            return {"ok": True}

        _, client = served(pipeline=gated, workers=1, queue_depth=1)
        client.submit(benchmark="jacobi-1d")
        assert entered.wait(WAIT_S)
        client.submit(benchmark="jacobi-2d")
        with pytest.raises(ServiceOverloadError) as excinfo:
            client.submit(benchmark="jacobi-3d")
        assert excinfo.value.retry_after_s >= 1.0
        release.set()


class TestDeterminism:
    def test_repeat_results_are_byte_identical(self, served):
        _, client = served()
        request = dict(
            benchmark="jacobi-2d", grid_shape=[32, 32], iterations=4
        )
        first = client.submit(**request)
        client.wait(first["id"], timeout_s=120.0)
        second = client.submit(**request)
        client.wait(second["id"], timeout_s=120.0)
        assert first["id"] != second["id"]
        _, raw_first = _get_raw(client, f"/jobs/{first['id']}/result")
        _, raw_second = _get_raw(client, f"/jobs/{second['id']}/result")
        # The payloads differ only in the job id envelope.
        body_first = json.loads(raw_first)["result"]
        body_second = json.loads(raw_second)["result"]
        canon = lambda body: json.dumps(body, sort_keys=True)  # noqa: E731
        assert canon(body_first) == canon(body_second)

    def test_inflight_coalescing_over_http(self, served):
        release = threading.Event()
        entered = threading.Event()

        def gated(job, _evaluator):
            entered.set()
            release.wait(WAIT_S)
            return {"echo": job.request.content()}

        service, client = served(pipeline=gated, workers=1)
        first = client.submit(benchmark="jacobi-2d")
        assert entered.wait(WAIT_S)
        second = client.submit(benchmark="jacobi-2d")
        assert second["coalesced"] is True
        assert second["id"] == first["id"]
        assert service.stats.deduped == 1
        release.set()
        client.wait(first["id"], timeout_s=WAIT_S)


class TestRestartWarmPath:
    def test_restarted_server_answers_from_store(self, served, tmp_path):
        request = dict(
            benchmark="jacobi-2d", grid_shape=[32, 32], iterations=4
        )
        store = DesignStore(tmp_path / "results")
        service, client = served(store=store, workers=1)
        result_cold = client.synthesize(timeout_s=120.0, **request)
        assert service.evaluator.stats.evaluated > 0
        service.shutdown(drain=True, timeout=WAIT_S)
        store.close()

        # A brand-new process-equivalent: fresh store handle, fresh
        # service, same directory.
        store2 = DesignStore(tmp_path / "results")
        service2, client2 = served(store=store2, workers=1)
        result_warm = client2.synthesize(timeout_s=120.0, **request)
        assert service2.evaluator.stats.evaluated == 0
        assert service2.evaluator.stats.store_hits > 0
        assert json.dumps(result_warm, sort_keys=True) == json.dumps(
            result_cold, sort_keys=True
        )
        store2.close()


class TestWriteResultProgram:
    def test_writes_generated_sources(self, served, tmp_path):
        _, client = served()
        result = client.synthesize(
            timeout_s=120.0,
            benchmark="jacobi-2d",
            grid_shape=[32, 32],
            iterations=4,
        )
        paths = write_result_program(result, tmp_path, "jac2d")
        assert [p.name for p in paths] == ["jac2d.cl", "jac2d_host.c"]
        assert "__kernel" in paths[0].read_text()


def test_request_signature_used_for_http_dedup(served):
    """Scheduling knobs must not defeat HTTP-level coalescing."""
    release = threading.Event()
    entered = threading.Event()

    def gated(job, _evaluator):
        entered.set()
        release.wait(WAIT_S)
        return {"ok": True}

    _, client = served(pipeline=gated, workers=1)
    first = client.submit(benchmark="jacobi-2d", priority=0)
    assert entered.wait(WAIT_S)
    second = client.submit(
        benchmark="jacobi-2d", priority=5, timeout_s=99.0
    )
    assert second["coalesced"] is True
    assert second["id"] == first["id"]
    release.set()
    client.wait(first["id"], timeout_s=WAIT_S)


def test_job_request_fixture_alignment(small_request):
    """The conftest request matches what the HTTP layer builds."""
    via_json = JobRequest.from_json(
        {
            "benchmark": "jacobi-2d",
            "grid_shape": [32, 32],
            "iterations": 4,
        }
    )
    assert via_json.signature() == small_request.signature()


class TestDrainStatusCodes:
    """A drain refuses new work (503) but bad payloads stay 400."""

    def _post_raw(self, client, body: bytes):
        request = urllib.request.Request(
            client.base_url + "/jobs",
            data=body,
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=10) as reply:
                return reply.status, reply.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()

    def test_drain_rejects_valid_but_keeps_400_for_malformed(
        self, served
    ):
        release = threading.Event()
        entered = threading.Event()

        def gated(job, _evaluator):
            entered.set()
            while not release.wait(0.005):
                job.check_cancelled()
            return {"ok": True}

        service, client = served(pipeline=gated, workers=1)
        client.submit(benchmark="jacobi-2d")
        assert entered.wait(WAIT_S)
        drainer = threading.Thread(
            target=service.shutdown,
            kwargs={"drain": True, "timeout": WAIT_S},
            daemon=True,
        )
        drainer.start()
        deadline = WAIT_S
        while not service.draining and deadline > 0:
            threading.Event().wait(0.01)
            deadline -= 0.01
        assert service.draining
        rejected_before = service.stats.rejected

        # New valid work is refused: 503 with the lifecycle message.
        # A drain is not load shedding, so ``rejected`` (the admission
        # control counter) must not move.
        status, body = self._post_raw(
            client, json.dumps({"benchmark": "jacobi-1d"}).encode()
        )
        assert status == 503
        assert b"shutting down" in body
        assert service.stats.rejected == rejected_before

        # A malformed payload was never admissible in the first place:
        # the status is chosen by exception type, not by service state.
        status, body = self._post_raw(client, b"{not json")
        assert status == 400
        assert service.stats.rejected == rejected_before

        release.set()
        drainer.join(WAIT_S)
        assert not drainer.is_alive()


class TestClientValidation:
    def test_zero_submit_attempts_is_a_service_error(self, served):
        _, client = served(pipeline=echo_pipeline)
        with pytest.raises(ServiceError, match="max_submit_attempts"):
            client.synthesize(
                max_submit_attempts=0, benchmark="jacobi-2d"
            )

    def test_negative_submit_attempts_is_a_service_error(self, served):
        _, client = served(pipeline=echo_pipeline)
        with pytest.raises(ServiceError, match="got -3"):
            client.synthesize(
                max_submit_attempts=-3, benchmark="jacobi-2d"
            )


class TestClientDisconnect:
    """A client hanging up mid-reply is routine, never a traceback."""

    class _RstSocket:
        """Readable request; the write side was reset by the peer."""

        def __init__(self, data: bytes):
            self._data = data

        def makefile(self, mode, *_args, **_kwargs):
            assert "r" in mode
            return io.BytesIO(self._data)

        def sendall(self, _data):
            raise BrokenPipeError("peer reset the connection")

    def test_broken_pipe_mid_reply_is_counted_not_raised(self):
        obs.enable(capture_events=False)
        service = SynthesisService(workers=1, pipeline=echo_pipeline)
        fake_server = type("S", (), {"service": service})()
        counter = obs.get_registry().counter(
            "service.http.client_disconnects"
        )
        before = counter.value
        try:
            # Runs setup/handle/finish synchronously: any unguarded
            # BrokenPipeError would propagate right here.
            _Handler(
                self._RstSocket(
                    b"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n"
                ),
                ("127.0.0.1", 54321),
                fake_server,
            )
        finally:
            service.shutdown(drain=False, timeout=10.0)
        assert counter.value == before + 1
