"""Transport-agnostic routing core of the service's JSON API.

The HTTP front door (:class:`~repro.service.http.ServiceHTTPServer`)
delegates every parsed request to :func:`handle_request`, so route
behavior, status-code mapping, and (critically) the byte encoding of
result payloads live in exactly one place, and tests can drive the
whole API without a socket.

Status codes are chosen by **exception type**, never by service state:

- :class:`~repro.errors.ServiceOverloadError` → 429 + ``Retry-After``
  (counted in ``stats.rejected`` by the service itself);
- :class:`~repro.errors.ServiceClosedError` → 503 (draining/stopped —
  a lifecycle condition, not a client error);
- any other :class:`~repro.errors.ServiceError` → 400 (malformed
  payload — a bad request stays a 400 even while the service drains).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro import obs
from repro.errors import (
    ServiceClosedError,
    ServiceError,
    ServiceOverloadError,
)
from repro.obs import prom
from repro.obs.export import build_chrome_trace, run_report
from repro.obs.trace import TraceContext
from repro.service.jobs import JobRequest, JobState

_log = obs.get_logger("service.http")

_JOB_PATH = re.compile(r"^/jobs/(?P<id>[A-Za-z0-9_-]+)$")
_RESULT_PATH = re.compile(r"^/jobs/(?P<id>[A-Za-z0-9_-]+)/result$")
_TRACE_PATH = re.compile(r"^/jobs/(?P<id>[A-Za-z0-9_-]+)/trace$")

JSON_CONTENT_TYPE = "application/json"


def to_json_bytes(payload: Any) -> bytes:
    """Canonical response encoding (sorted keys → byte-stable)."""
    return (
        json.dumps(payload, indent=1, sort_keys=True) + "\n"
    ).encode("utf-8")


@dataclass(frozen=True)
class Response:
    """One fully-rendered API response, transport-independent."""

    status: int
    body: bytes
    content_type: str = JSON_CONTENT_TYPE
    retry_after_s: Optional[float] = None


def _json(
    status: int, payload: Any, retry_after_s: Optional[float] = None
) -> Response:
    return Response(
        status=status,
        body=to_json_bytes(payload),
        retry_after_s=retry_after_s,
    )


def handle_request(
    service,
    method: str,
    target: str,
    headers: Mapping[str, str],
    body: Optional[bytes] = None,
) -> Response:
    """Route one request against the service; never raises.

    Args:
        service: the :class:`~repro.service.core.SynthesisService`
            (or sharded subclass) answering the API.
        method: HTTP method, upper-case.
        target: request target (path, optionally ``?query``).
        headers: request headers (any casing; trace propagation does a
            case-insensitive lookup).
        body: raw request body bytes (POST only).
    """
    try:
        if method == "POST":
            return _post(service, target, headers, body or b"")
        if method == "GET":
            return _get(service, target)
        if method == "DELETE":
            return _delete(service, target)
        return _json(405, {"error": f"unsupported method: {method}"})
    except Exception as exc:  # a handler bug must not kill the loop
        _log.error("unhandled error on %s %s: %s", method, target, exc)
        return _json(
            500,
            {"error": f"internal error: {type(exc).__name__}: {exc}"},
        )


def _decode_body(body: bytes) -> Any:
    if not body:
        raise ServiceError("empty request body")
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceError(f"invalid JSON body: {exc}") from exc


def _post(
    service, target: str, headers: Mapping[str, str], body: bytes
) -> Response:
    if target.partition("?")[0].rstrip("/") != "/jobs":
        return _json(404, {"error": f"no such route: {target}"})
    try:
        request = JobRequest.from_json(_decode_body(body))
        trace = TraceContext.from_headers(headers)
        job, coalesced = service.submit(request, trace=trace)
    except ServiceOverloadError as exc:
        return _json(
            429,
            {"error": str(exc), "retry_after_s": exc.retry_after_s},
            retry_after_s=exc.retry_after_s,
        )
    except ServiceClosedError as exc:
        return _json(503, {"error": str(exc)})
    except ServiceError as exc:
        # A malformed payload is the client's fault whatever the
        # service lifecycle says: 400 even while draining.
        return _json(400, {"error": str(exc)})
    return _json(202, {"job": job.as_dict(), "coalesced": coalesced})


def _get(service, target: str) -> Response:
    path, _, query = target.partition("?")
    if path == "/healthz":
        return _json(200, service.health())
    if path == "/metricsz":
        if "format=prometheus" in query:
            text = prom.render_prometheus(
                obs.get_registry(),
                extra_gauges=service.slo_gauges(),
            )
            return Response(
                status=200,
                body=text.encode("utf-8"),
                content_type=prom.CONTENT_TYPE,
            )
        report = run_report()
        report["service"] = service.stats.as_dict()
        report["evaluator"] = service.evaluator_stats()
        report["slo"] = service.slo_gauges()
        return _json(200, report)
    match = _TRACE_PATH.match(path)
    if match:
        return _get_trace(service, match.group("id"))
    match = _RESULT_PATH.match(path)
    if match:
        return _get_result(service, match.group("id"))
    match = _JOB_PATH.match(path)
    if match:
        job = service.job(match.group("id"))
        if job is None:
            return _json(404, {"error": "unknown job"})
        return _json(200, job.as_dict())
    return _json(404, {"error": f"no such route: {path}"})


def _delete(service, target: str) -> Response:
    match = _JOB_PATH.match(target.partition("?")[0])
    if not match:
        return _json(404, {"error": f"no such route: {target}"})
    job = service.cancel(match.group("id"))
    if job is None:
        return _json(404, {"error": "unknown job"})
    return _json(200, job.as_dict())


def _get_trace(service, job_id: str) -> Response:
    """The job's merged Chrome trace (spans under its trace_id)."""
    job = service.job(job_id)
    if job is None:
        return _json(404, {"error": "unknown job"})
    if job.trace is None:
        return _json(
            404,
            {
                "error": (
                    "no trace recorded for this job (enable "
                    "observability or send X-Repro-Trace-Id)"
                )
            },
        )
    return _json(200, build_chrome_trace(trace_id=job.trace.trace_id))


def _get_result(service, job_id: str) -> Response:
    job = service.job(job_id)
    if job is None:
        return _json(404, {"error": "unknown job"})
    if job.state is JobState.DONE:
        # The flight record rides beside the result: the result
        # payload itself stays byte-identical with telemetry off.
        return _json(
            200,
            {
                "job_id": job.id,
                "result": job.result,
                "flight": job.flight,
            },
        )
    if job.state.finished:  # failed or cancelled
        return _json(
            409,
            {
                "job_id": job.id,
                "state": job.state.value,
                "error": job.error,
            },
        )
    return _json(202, job.as_dict())
