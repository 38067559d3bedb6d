"""End-to-end telemetry: trace propagation, flight records, Prometheus.

The acceptance flow for the observability release: a client-minted
trace context must survive HTTP transport, the job queue, and the
worker thread pool, so that the search-tier and store spans of one job
form a single merged trace; every finished job must carry a flight
record; and a Prometheus scrape of a live service must parse cleanly —
all without perturbing synthesis results.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import obs
from repro.errors import ServiceError
from repro.obs.trace import TraceContext
from repro.service import (
    JobRequest,
    ServiceClient,
    SynthesisService,
    make_server,
)
from repro.store import DesignStore

from tests.service.conftest import echo_pipeline

WAIT_S = 60.0

REQUEST = dict(benchmark="jacobi-2d", grid_shape=[32, 32], iterations=4)


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


def _canon(payload) -> str:
    return json.dumps(payload, sort_keys=True)


class TestTracePropagation:
    def test_client_trace_spans_search_and_store_across_threads(
        self, served, tmp_path
    ):
        """The acceptance path: one trace_id from client to store spans."""
        obs.enable()
        store = DesignStore(tmp_path / "results")
        try:
            service, client = served(store=store, workers=1)
            ctx = TraceContext.mint(suite="acceptance")
            job = client.submit(trace=ctx, **REQUEST)
            client.wait(job["id"], timeout_s=120.0)

            trace = client.trace(job["id"])
            assert trace["otherData"]["trace_id"] == ctx.trace_id
            slices = [
                e for e in trace["traceEvents"] if e.get("ph") == "X"
            ]
            assert slices, "merged trace has no spans"
            names = {e["name"] for e in slices}
            assert "dse.explore" in names
            assert "store.lookup" in names
            # Every span in the merged trace carries the *client's*
            # trace id even though it ran on a service worker thread.
            assert all(
                e["args"]["trace_id"] == ctx.trace_id for e in slices
            )
            worker_tids = {e["tid"] for e in slices}
            assert threading.get_ident() not in worker_tids
        finally:
            store.close()

    def test_server_mints_when_client_sends_no_headers(self, served):
        """Bare HTTP posts still get a complete job trace while recording."""
        obs.enable()
        service, client = served(pipeline=echo_pipeline)
        job, _ = service.submit(JobRequest(benchmark="jacobi-2d"))
        assert job.trace is not None
        assert job.trace.baggage_dict() == {"origin": "service.submit"}

    def test_trace_endpoint_404_without_a_context(self, served):
        """No observability, no headers => an explanatory 404."""
        service, client = served(pipeline=echo_pipeline)
        job, _ = service.submit(JobRequest(benchmark="jacobi-2d"))
        assert job.trace is None  # obs disabled: nothing allocated
        with pytest.raises(ServiceError, match="no trace recorded"):
            client.trace(job.id)

    def test_trace_endpoint_404_for_unknown_job(self, served):
        _, client = served(pipeline=echo_pipeline)
        with pytest.raises(ServiceError, match="unknown job"):
            client.trace("job-424242")


class TestFlightRecords:
    def test_every_finished_job_has_an_accounting_record(
        self, served, tmp_path
    ):
        obs.enable()
        store = DesignStore(tmp_path / "results")
        try:
            service, client = served(store=store, workers=1)
            job = client.submit(**REQUEST)
            client.wait(job["id"], timeout_s=120.0)
            flight = client.flight(job["id"])
            assert flight["job_id"] == job["id"]
            assert flight["state"] == "done"
            assert flight["trace_id"]  # service- or client-minted
            assert flight["queue_wait_s"] >= 0.0
            assert flight["run_s"] > 0.0
            assert flight["wall_s"] >= flight["run_s"]
            assert flight["cpu_s"] >= 0.0
            assert flight["evaluations"] > 0  # cold store: real work
            assert flight["attempts"] == 1
            assert "peak_rss_delta_kb" in flight
        finally:
            store.close()

    def test_flight_rides_beside_the_result_not_inside(self, served):
        _, client = served(pipeline=echo_pipeline)
        job = client.submit(benchmark="jacobi-2d")
        result = client.wait(job["id"], timeout_s=WAIT_S)
        assert "flight" not in result
        assert client.flight(job["id"]) is not None

    def test_flights_land_in_the_telemetry_journal(self, served, tmp_path):
        journal = obs.TelemetryJournal(tmp_path / "telemetry.jsonl")
        service, client = served(
            pipeline=echo_pipeline, telemetry=journal
        )
        job = client.submit(benchmark="jacobi-2d")
        client.wait(job["id"], timeout_s=WAIT_S)
        service.shutdown(drain=True, timeout=WAIT_S)
        records = obs.read_telemetry(tmp_path / "telemetry.jsonl")
        flights = [r for r in records if r["kind"] == "flight"]
        assert [f["job_id"] for f in flights] == [job["id"]]
        # shutdown() closed the journal with a final metrics snapshot.
        assert any(r["kind"] == "snapshot" for r in records)


class TestPrometheusScrape:
    def test_scrape_parses_and_carries_slo_gauges(self, served):
        obs.enable()
        _, client = served(pipeline=echo_pipeline)
        job = client.submit(benchmark="jacobi-2d")
        client.wait(job["id"], timeout_s=WAIT_S)
        text = client.metrics_prometheus()
        parsed = obs.parse_prometheus(text)  # raises on bad exposition
        for family in (
            "repro_service_slo_queue_saturation",
            "repro_service_slo_reject_rate",
            "repro_service_slo_p99_job_wall_s",
            "repro_service_slo_p99_target_s",
            "repro_service_slo_p99_within_target",
        ):
            assert parsed[family]["type"] == "gauge"
        assert "repro_service_accepted_total" in parsed
        assert parsed["repro_service_job_wall_s"]["type"] == "summary"

    def test_json_metricsz_includes_slo_block(self, served):
        _, client = served(pipeline=echo_pipeline)
        report = client.metrics()
        assert "service.slo.p99_target_s" in report["slo"]

    def test_healthz_has_the_capacity_fields(self, served):
        _, client = served(pipeline=echo_pipeline)
        health = client.health()
        assert health["uptime_s"] >= 0.0
        assert health["workers_busy"] >= 0
        assert health["queue_depth"] >= 0
        assert health["telemetry_attached"] is False


class TestByteIdentity:
    def test_results_identical_with_and_without_telemetry(
        self, served, tmp_path
    ):
        """Full instrumentation must not perturb synthesis output."""
        # Run A: observability recording + telemetry journal attached.
        obs.enable()
        journal = obs.TelemetryJournal(tmp_path / "telemetry.jsonl")
        _, client_a = served(workers=1, telemetry=journal)
        result_a = client_a.synthesize(timeout_s=120.0, **REQUEST)

        # Run B: everything off — the plain service.
        obs.disable()
        obs.reset()
        _, client_b = served(workers=1)
        result_b = client_b.synthesize(timeout_s=120.0, **REQUEST)

        assert _canon(result_a) == _canon(result_b)
