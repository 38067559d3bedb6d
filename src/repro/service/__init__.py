"""repro.service — synthesis-as-a-service.

The paper's push-button compile/DSE pipeline, packaged as a resident
service: a bounded priority job queue with admission control, a worker
pool sharing one warm :class:`~repro.dse.evaluator.CandidateEvaluator`
(and, optionally, a persistent :class:`~repro.store.DesignStore`),
request dedup/coalescing on content signatures, per-job timeouts,
cancellation, bounded retry, and graceful drain shutdown — exposed
over one threaded stdlib HTTP JSON API (:mod:`repro.service.http`)
with a small blocking client.

Start one in-process::

    from repro.service import JobRequest, SynthesisService

    with SynthesisService(workers=2) as service:
        job, _ = service.submit(JobRequest(benchmark="jacobi-2d"))
        service.wait(job.id)
        print(job.result["design"]["summary"])

or over HTTP (``python -m repro.experiments serve``), then talk to it
with :class:`~repro.service.client.ServiceClient` or curl.  Full API
and lifecycle semantics: ``docs/SERVICE.md``.
"""

from repro.service.client import JobFailedError, ServiceClient
from repro.service.core import (
    DEFAULT_TRANSIENT,
    ServiceStats,
    SynthesisService,
    program_result_payload,
    result_payload,
    run_synthesis_pipeline,
)
from repro.service.http import (
    ServiceHTTPServer,
    make_server,
    write_result_program,
)
from repro.service.jobs import Job, JobRequest, JobState
from repro.service.queue import JobQueue
from repro.service.routes import Response, handle_request
from repro.service.shard import ShardedSynthesisService

__all__ = [
    "DEFAULT_TRANSIENT",
    "Job",
    "JobFailedError",
    "JobQueue",
    "JobRequest",
    "JobState",
    "Response",
    "ServiceClient",
    "ServiceHTTPServer",
    "ServiceStats",
    "ShardedSynthesisService",
    "SynthesisService",
    "handle_request",
    "make_server",
    "program_result_payload",
    "result_payload",
    "run_synthesis_pipeline",
    "write_result_program",
]
