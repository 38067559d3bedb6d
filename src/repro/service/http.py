"""Threaded stdlib HTTP front door over the synthesis service.

Routes (see ``docs/SERVICE.md`` for curl examples):

- ``POST /jobs`` — submit a synthesis request; ``202`` with the job
  status (``coalesced: true`` when attached to an identical in-flight
  job), ``429`` + ``Retry-After`` when admission control rejects,
  ``503`` while draining or stopped, ``400`` on a malformed payload
  (chosen by exception type — a bad payload stays a 400 even during a
  drain).
- ``GET /jobs/<id>`` — job status (including trace id + flight record).
- ``GET /jobs/<id>/result`` — ``200`` with the result payload once
  done (the flight record rides alongside, never inside, the result —
  results stay byte-identical whether telemetry is on or off); ``202``
  with the status while queued/running; ``409`` with the error for
  failed/cancelled jobs; ``404`` for unknown ids.
- ``GET /jobs/<id>/trace`` — the job's merged Chrome/Perfetto trace:
  every span recorded under the job's trace context, across worker and
  evaluator-pool threads; ``404`` when no trace was recorded.
- ``DELETE /jobs/<id>`` — request cancellation.
- ``GET /healthz`` — service liveness: status, uptime, queue depth,
  busy workers, counters.
- ``GET /metricsz`` — the observability run report (counters, derived
  rates such as ``service.dedup_rate``, histograms, span aggregates)
  plus the service's own stats block and derived SLO gauges;
  ``?format=prometheus`` renders the same registry in the Prometheus
  text exposition format for scrapers.

``POST /jobs`` honors the ``X-Repro-Trace-*`` headers
(:mod:`repro.obs.trace`): a client-minted trace context rides the
request into the job, so the spans the job produces carry the
client's trace id end to end.

All route logic lives in :mod:`repro.service.routes`; this module is
the :class:`http.server.ThreadingHTTPServer` binding of it, plus the
transport guarantees a router cannot give:

- a listen backlog of :data:`LISTEN_BACKLOG`, so hundreds of pollers
  can connect at once;
- a body cap: a ``Content-Length`` above :data:`MAX_BODY_BYTES` is
  answered ``413`` before any of the body is read;
- a JSON ``400`` with an ``HTTP/1.1`` status line for a malformed
  request line or a ``Content-Length`` that is not a non-negative
  integer (``http.server`` alone answers a bad request line with an
  HTML page and no status line).

Each of these error replies closes the connection.  A client hanging
up mid-request or mid-reply is counted, never a traceback.
"""

from __future__ import annotations

import pathlib
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro import obs
from repro.service.core import SynthesisService
from repro.service.routes import Response, handle_request, to_json_bytes

__all__ = [
    "LISTEN_BACKLOG",
    "MAX_BODY_BYTES",
    "ServiceHTTPServer",
    "make_server",
    "to_json_bytes",
    "write_result_program",
]

_log = obs.get_logger("service.http")

#: Accept-queue depth (``socketserver`` defaults to 5, which drops
#: connects from a burst of a few hundred pollers).
LISTEN_BACKLOG = 1024
#: Hard cap on one request body, bytes (kernel sources are small).
MAX_BODY_BYTES = 8 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to the server's service instance."""

    server_version = "repro-synthd/1.0"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> SynthesisService:
        return self.server.service  # type: ignore[attr-defined]

    # BaseHTTPRequestHandler logs to stderr by default; route through
    # the structured logger instead so REPRO_LOG_* applies.
    def log_message(self, fmt: str, *args) -> None:
        _log.debug("%s %s", self.address_string(), fmt % args)

    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionError:
            # The client hung up mid-request or mid-reply (poll loops
            # do).  Not a server error: count it, drop the connection,
            # and above all don't let the handler thread dump a raw
            # traceback.
            obs.inc("service.http.client_disconnects")
            _log.debug("client %s disconnected", self.address_string())

    def send_error(self, code: int, message=None, explain=None) -> None:
        """Answer a request rejected before routing: JSON, then close.

        ``http.server`` calls this for requests it cannot parse; on a
        malformed request line it would answer HTTP/0.9-style, with no
        status line at all.
        """
        self.request_version = self.protocol_version
        error = message or HTTPStatus(code).phrase
        self._send(
            Response(int(code), to_json_bytes({"error": error})), close=True
        )

    def _read_body(self) -> Optional[bytes]:
        """The request body, or ``None`` once an error reply went out."""
        raw = self.headers.get("Content-Length", "0")
        text = raw.strip()
        if not (text.isascii() and text.isdigit()):
            self.send_error(400, f"invalid Content-Length: {raw!r}")
            return None
        length = int(text)
        if length > MAX_BODY_BYTES:
            self.send_error(
                413, f"body too large: {length} > {MAX_BODY_BYTES} bytes"
            )
            return None
        return self.rfile.read(length)

    def _dispatch(self, method: str) -> None:
        body = self._read_body()
        if body is not None:
            self._send(
                handle_request(
                    self.service, method, self.path, self.headers, body
                )
            )

    def _send(self, response: Response, close: bool = False) -> None:
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        if response.retry_after_s is not None:
            self.send_header(
                "Retry-After",
                str(max(1, int(round(response.retry_after_s)))),
            )
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(response.body)
        obs.inc(f"service.http.{response.status}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib interface
        self._dispatch("POST")

    def do_GET(self) -> None:  # noqa: N802 - stdlib interface
        self._dispatch("GET")

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib interface
        self._dispatch("DELETE")


class ServiceHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server carrying its service instance."""

    daemon_threads = True
    request_queue_size = LISTEN_BACKLOG

    def __init__(self, address: Tuple[str, int], service: SynthesisService):
        super().__init__(address, _Handler)
        self.service = service


def make_server(
    service: SynthesisService,
    host: str = "127.0.0.1",
    port: int = 8349,
) -> ServiceHTTPServer:
    """Bind the JSON API; ``port=0`` picks a free port (tests).

    The caller drives the loop (``serve_forever``) and shutdown — see
    the ``serve`` CLI subcommand for the SIGTERM-drain wiring.
    """
    server = ServiceHTTPServer((host, port), service)
    _log.info(
        "synthesis service listening on http://%s:%d",
        *server.server_address[:2],
    )
    return server


def write_result_program(result: dict, out_dir, stem: str) -> list:
    """Drop a job result's generated sources into ``out_dir``.

    Shared by the ``submit --output`` CLI and tests; returns the
    written paths.
    """
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    program = result["program"]
    kernel = out / f"{stem}.cl"
    host = out / f"{stem}_host.c"
    kernel.write_text(program["kernel_source"])
    host.write_text(program["host_source"])
    return [kernel, host]
