"""The long-running synthesis service: worker pool + job lifecycle.

:class:`SynthesisService` turns the one-shot compile pipeline
(frontend extract → DSE via the shared
:class:`~repro.dse.evaluator.CandidateEvaluator` → codegen emit) into
a resident, query-able service:

- **One warm engine for all jobs.**  Every job is scored by a single
  evaluator bound to the service's board, so signature memoization —
  and, with a :class:`~repro.store.DesignStore` attached, the
  persistent warm path — is amortized across requests and across
  process restarts.
- **Dedup / coalescing.**  A request whose content signature matches
  an in-flight job does not enqueue a second copy; it is attached to
  the existing job and both callers get the one result
  (``service.dedup`` counts these).  Repeat requests *after*
  completion run again, but resolve through the evaluator memo / store
  without re-running the model.
- **Admission control.**  The queue has a bounded depth; past it,
  submission fails with :class:`~repro.errors.ServiceOverloadError`
  carrying a load-derived retry-after estimate instead of blocking the
  caller.
- **Timeouts + cancellation.**  Jobs are cancellable while queued and
  while running: the evaluator's per-candidate trace hook doubles as a
  cancellation point, so a deadline cuts into a long exploration.
- **Bounded retry.**  Transient failures (:class:`StoreError`, OS
  errors, :class:`TransientServiceError`) are retried with exponential
  backoff up to ``max_retries`` times; model/design errors fail fast.
- **Graceful drain.**  ``shutdown(drain=True)`` stops admissions,
  lets queued + running jobs finish, flushes the store, and joins the
  workers; ``drain=False`` cancels everything still pending.

The HTTP surface over this engine lives in :mod:`repro.service.http`;
the in-process API is complete on its own (see ``tests/service/``).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Type

from repro import obs
from repro.api import ProgramSynthesisResult, SynthesisResult, synthesize
from repro.dse.evaluator import CandidateEvaluator
from repro.errors import (
    JobCancelledError,
    ReproError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadError,
    StoreError,
    TransientServiceError,
)
from repro.model.predictor import Fidelity
from repro.obs.record import (
    FlightRecord,
    TelemetryJournal,
    peak_rss_kb,
    thread_cpu_s,
)
from repro.obs.trace import TraceContext, activate as activate_trace
from repro.opencl.platform import ADM_PCIE_7V3, BoardSpec
from repro.service.jobs import Job, JobRequest, JobState
from repro.service.queue import JobQueue
from repro.store.backing import BackingStore

_log = obs.get_logger("service")

#: Exception types the worker retries (with backoff) by default.
DEFAULT_TRANSIENT: Tuple[Type[BaseException], ...] = (
    TransientServiceError,
    StoreError,
    OSError,
)


@dataclass
class ServiceStats:
    """Lifetime counters (mirrored into ``service.*`` obs metrics).

    Attributes:
        requests: submission attempts (accepted + deduped + rejected).
        accepted: jobs admitted to the queue.
        deduped: submissions coalesced onto an in-flight job.
        rejected: submissions refused by admission control.
        completed: jobs finished in ``DONE``.
        failed: jobs finished in ``FAILED``.
        cancelled: jobs finished in ``CANCELLED`` (timeouts included).
        timeouts: cancelled jobs whose cause was the deadline.
        retries: transient-failure retry attempts.
    """

    requests: int = 0
    accepted: int = 0
    deduped: int = 0
    rejected: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    timeouts: int = 0
    retries: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "requests": self.requests,
            "accepted": self.accepted,
            "deduped": self.deduped,
            "rejected": self.rejected,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "timeouts": self.timeouts,
            "retries": self.retries,
        }


def result_payload(synth: SynthesisResult) -> Dict[str, Any]:
    """JSON-able job result for one synthesis outcome.

    Deterministic for a given request: identical submissions produce
    byte-identical payloads once serialized with sorted keys.
    """
    return {
        "workload": synth.spec.describe(),
        "design": {
            "kind": synth.design.kind.value,
            "summary": synth.design.describe(),
            "fused_depth": synth.design.fused_depth,
            "parallelism": synth.design.parallelism,
            "unroll": synth.design.unroll,
        },
        "predicted_cycles": synth.predicted_cycles,
        "resources": synth.resources.as_dict(),
        "dse": {
            "evaluated": synth.dse.evaluated,
            "feasible": synth.dse.feasible,
        },
        "program": {
            "kernel_source": synth.program.kernel_source,
            "host_source": synth.program.host_source,
            "num_kernels": synth.program.num_kernels,
        },
    }


def program_result_payload(synth: ProgramSynthesisResult) -> Dict[str, Any]:
    """JSON-able job result for one program synthesis outcome."""
    design = synth.design
    return {
        "workload": synth.program_spec.describe(),
        "design": {
            "kind": "program",
            "summary": design.describe(),
            "schedule": design.schedule,
            "stages": {
                name: stage_design.describe()
                for name, stage_design in design.stage_designs
            },
        },
        "predicted_cycles": synth.predicted_cycles,
        "resources": synth.resources.as_dict(),
        "dse": {
            "evaluated": synth.dse.evaluated,
            "feasible": synth.dse.feasible,
        },
        "program": {
            "kernel_source": synth.pipeline.kernel_source,
            "host_source": synth.pipeline.host_source,
            "num_kernels": synth.pipeline.num_kernels,
            "forwarded_edges": len(synth.pipeline.forwarded),
        },
    }


def run_synthesis_pipeline(
    request: JobRequest,
    evaluator: CandidateEvaluator,
    job_id: str = "job",
) -> Dict[str, Any]:
    """The full facade pipeline for one request, instrumented.

    Module-level (not a service method) so worker *processes* of the
    sharded service run the exact same body against their own warm
    evaluator — byte-identical payloads by construction.  Each job
    runs the exhaustive search on the shared engine.
    """
    if request.program is not None:
        from repro.program.library import get_program

        program = get_program(
            request.program,
            grid=request.grid_shape,
            iterations=request.iterations,
        )
        with obs.span(
            "service.synthesize", job=job_id, design="program",
            schedule=request.schedule,
        ):
            synth = synthesize(
                program=program,
                schedule=request.schedule,
                evaluator=evaluator,
            )
        return program_result_payload(synth)
    with obs.span(
        "service.synthesize", job=job_id, design=request.design
    ):
        synth = synthesize(
            source=request.source,
            benchmark=request.benchmark,
            name=request.name,
            field_map=request.field_map,
            aux=request.aux,
            grid_shape=request.grid_shape,
            iterations=request.iterations,
            tile_shape=request.tile_shape,
            counts=request.counts,
            fused_depth=request.fused_depth,
            unroll=request.unroll,
            design=request.design,
            evaluator=evaluator,
        )
    return result_payload(synth)


class SynthesisService:
    """Resident synthesis engine: queue, workers, dedup, lifecycle.

    Args:
        board: platform every job is synthesized against.
        fidelity: analytical-model variant for the shared evaluator.
        store: optional persistent backing store; attached to the
            shared evaluator so evaluations survive restarts.  The
            service flushes it after every completed job but never
            closes it — ownership stays with the caller.
        workers: worker-thread count (jobs run concurrently, one
            evaluator shared by all).
        queue_depth: admission-control bound on waiting jobs.
        max_retries: transient-failure retries per job.
        retry_backoff_s: base backoff; attempt ``n`` sleeps
            ``retry_backoff_s * 2**(n-1)``.
        default_timeout_s: deadline for jobs that don't set their own.
        max_memo_entries: LRU bound for the evaluator memo (a resident
            server must not grow without bound).
        max_history: finished jobs kept for status queries; older ones
            are evicted oldest-first.
        transient: exception types treated as retryable.
        pipeline: override of the job body (tests inject slow/failing
            pipelines); receives ``(job, evaluator)`` and returns the
            JSON-able result payload.
        telemetry: optional durable telemetry journal; the service
            starts its periodic snapshotter, appends every finished
            job's flight record to it, and closes it (with a final
            snapshot) on shutdown.
        slo_p99_target_s: p99 job-latency objective backing the
            derived ``service.slo.*`` gauges (see :meth:`slo_gauges`).
    """

    def __init__(
        self,
        board: BoardSpec = ADM_PCIE_7V3,
        fidelity: Fidelity = Fidelity.REFINED,
        store: Optional[BackingStore] = None,
        workers: int = 2,
        queue_depth: int = 64,
        max_retries: int = 2,
        retry_backoff_s: float = 0.25,
        default_timeout_s: Optional[float] = None,
        max_memo_entries: Optional[int] = 4096,
        max_history: int = 1024,
        transient: Tuple[Type[BaseException], ...] = DEFAULT_TRANSIENT,
        pipeline=None,
        telemetry: Optional[TelemetryJournal] = None,
        slo_p99_target_s: float = 120.0,
    ):
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if max_history < 1:
            raise ServiceError(
                f"max_history must be >= 1, got {max_history}"
            )
        self.board = board
        self.store = store
        self.workers = workers
        self.telemetry = telemetry
        self.slo_p99_target_s = slo_p99_target_s
        self._started_m = time.monotonic()
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.default_timeout_s = default_timeout_s
        self.transient = tuple(transient)
        self.stats = ServiceStats()
        self._pipeline = pipeline or self._synthesize_pipeline
        self._active = threading.local()
        self.evaluator = CandidateEvaluator(
            board=board,
            fidelity=fidelity,
            store=store,
            trace=self._trace_hook,
            max_memo_entries=max_memo_entries,
        )
        self._queue = JobQueue(max_depth=queue_depth)
        self._lock = threading.Lock()
        self._jobs: "Dict[str, Job]" = {}
        self._order: List[str] = []
        self._inflight: Dict[str, str] = {}
        self._max_history = max_history
        self._next_id = 0
        self._running = 0
        self._avg_job_s = 1.0
        self._accepting = True
        self._stopped = threading.Event()
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"synth-worker-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()
        if self.telemetry is not None:
            self.telemetry.start()

    # -- submission -------------------------------------------------------------

    def submit(
        self,
        request: JobRequest,
        trace: Optional[TraceContext] = None,
    ) -> Tuple[Job, bool]:
        """Admit (or coalesce) a request.

        Args:
            request: the validated synthesis ask.
            trace: request-scoped trace context (propagated from the
                HTTP headers by the API layer).  When observability is
                recording and no context was supplied, the service
                mints one so every job trace is complete; when
                observability is off nothing is allocated.

        Returns:
            ``(job, coalesced)`` — ``coalesced`` is True when the
            request was attached to an identical in-flight job instead
            of enqueueing a new one.

        Raises:
            ServiceClosedError: the service is shutting down.
            ServiceOverloadError: admission control rejected it; retry
                after the error's ``retry_after_s``.
            ServiceError: the request is invalid.
        """
        if (
            request.timeout_s is None
            and self.default_timeout_s is not None
        ):
            request = dataclasses.replace(
                request, timeout_s=self.default_timeout_s
            )
        if trace is None and obs.enabled():
            trace = TraceContext.mint(origin="service.submit")
        signature = request.signature()
        obs.inc("service.requests")
        with self._lock:
            self.stats.requests += 1
            if not self._accepting:
                raise ServiceClosedError("service is shutting down")
            inflight_id = self._inflight.get(signature)
            if inflight_id is not None:
                job = self._jobs[inflight_id]
                if not job.state.finished:
                    job.coalesced += 1
                    self.stats.deduped += 1
                    obs.inc("service.dedup")
                    _log.debug(
                        "coalesced request onto %s (sig %s)",
                        job.id, signature[:12],
                    )
                    return job, True
            self._next_id += 1
            job = Job(
                id=f"job-{self._next_id:06d}",
                request=request,
                signature=signature,
                trace=trace,
            )
            try:
                self._queue.put(job, retry_after_s=self._retry_after())
            except ServiceOverloadError:
                # Only true admission-control rejections count as
                # ``rejected``; a closed-queue ServiceClosedError is a
                # lifecycle condition, not a client being turned away
                # by load, and propagates uncounted.
                self.stats.rejected += 1
                obs.inc("service.rejected")
                raise
            self._jobs[job.id] = job
            self._order.append(job.id)
            self._inflight[signature] = job.id
            self.stats.accepted += 1
            self._trim_history()
        obs.inc("service.accepted")
        obs.set_gauge("service.queue_depth", len(self._queue))
        return job, False

    def _retry_after(self) -> float:
        """Load-derived overload hint (call under ``self._lock``)."""
        backlog = len(self._queue) + self._running
        estimate = backlog * self._avg_job_s / max(1, self.workers)
        return min(60.0, max(1.0, estimate))

    def _trim_history(self) -> None:
        """Evict oldest *finished* jobs past the bound (under lock)."""
        while len(self._order) > self._max_history:
            for index, job_id in enumerate(self._order):
                job = self._jobs[job_id]
                if job.state.finished:
                    del self._order[index]
                    del self._jobs[job_id]
                    break
            else:
                return  # everything live; let history exceed the bound

    # -- queries ----------------------------------------------------------------

    def job(self, job_id: str) -> Optional[Job]:
        """Look up a job by id (``None`` when unknown/evicted)."""
        with self._lock:
            return self._jobs.get(job_id)

    def wait(
        self, job_id: str, timeout: Optional[float] = None
    ) -> Optional[Job]:
        """Block until a job finishes; ``None`` for unknown ids.

        Raises:
            ServiceError: the wait timed out.
        """
        job = self.job(job_id)
        if job is None:
            return None
        if not job.wait(timeout):
            raise ServiceError(
                f"timed out waiting for {job_id} after {timeout}s"
            )
        return job

    def cancel(self, job_id: str) -> Optional[Job]:
        """Request cancellation; returns the job (or ``None``)."""
        job = self.job(job_id)
        if job is not None and not job.state.finished:
            job.cancel()
            obs.inc("service.cancel_requests")
        return job

    def evaluator_stats(self) -> Dict[str, Any]:
        """Engine counters for health/metrics.

        Overridden by the sharded service, whose engines live in
        worker processes — transports must use this instead of
        reaching for ``self.evaluator`` directly.
        """
        return self.evaluator.stats.as_dict()

    def health(self) -> Dict[str, Any]:
        """Liveness/readiness view (the ``GET /healthz`` body)."""
        # Outside self._lock: the evaluator counters take the engine's
        # own locks.
        evaluator = self.evaluator_stats()
        with self._lock:
            status = "ok" if self._accepting else (
                "stopped" if self._stopped.is_set() else "draining"
            )
            return {
                "status": status,
                "board": self.board.name,
                "workers": self.workers,
                "workers_busy": self._running,
                "uptime_s": time.monotonic() - self._started_m,
                "queue_depth": len(self._queue),
                "queue_capacity": self._queue.max_depth,
                "running": self._running,
                "avg_job_s": self._avg_job_s,
                "store_attached": self.store is not None,
                "telemetry_attached": self.telemetry is not None,
                "evaluator": evaluator,
                "stats": self.stats.as_dict(),
            }

    def slo_gauges(self) -> Dict[str, float]:
        """Derived service-level-objective gauges, computed at read time.

        Exported by ``GET /metricsz?format=prometheus`` (and included
        in the JSON report) so a scraper can alert on saturation and
        latency without re-deriving them from raw counters:

        - ``service.slo.queue_saturation`` — waiting jobs / capacity.
        - ``service.slo.reject_rate`` — rejected / submissions.
        - ``service.slo.p99_job_wall_s`` — p99 of finished-job wall
          time (0 until a job has finished).
        - ``service.slo.p99_target_s`` / ``p99_within_target`` — the
          configured objective and whether p99 currently meets it.
        """
        with self._lock:
            depth = len(self._queue)
            capacity = self._queue.max_depth
            requests = self.stats.requests
            rejected = self.stats.rejected
        summary = obs.get_registry().histogram(
            "service.job_wall_s"
        ).summary()
        p99 = float(summary.get("p99", 0.0)) if summary.get("count") else 0.0
        return {
            "service.slo.queue_saturation": depth / capacity,
            "service.slo.reject_rate": (
                rejected / requests if requests else 0.0
            ),
            "service.slo.p99_job_wall_s": p99,
            "service.slo.p99_target_s": self.slo_p99_target_s,
            "service.slo.p99_within_target": float(
                p99 <= self.slo_p99_target_s
            ),
        }

    # -- the worker side --------------------------------------------------------

    def _trace_hook(self, _event) -> None:
        """Per-candidate cancellation point inside the shared engine.

        Each worker thread registers its current job in a
        ``threading.local`` slot; the evaluator invokes this hook from
        that same thread for every candidate it touches, so a cancel or
        deadline aborts a running exploration within one candidate.
        """
        job = getattr(self._active, "job", None)
        if job is not None:
            job.check_cancelled()

    def _synthesize_pipeline(
        self, job: Job, evaluator: CandidateEvaluator
    ) -> Dict[str, Any]:
        """Default job body: the shared module-level pipeline."""
        return run_synthesis_pipeline(job.request, evaluator, job_id=job.id)

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        with self._lock:
            if job.cancel_requested:
                self._finalize_locked(
                    job, JobState.CANCELLED,
                    error="cancelled while queued",
                )
                return
            job.state = JobState.RUNNING
            job.started_s = time.time()
            job.arm_deadline()
            self._running += 1
        obs.set_gauge("service.queue_depth", len(self._queue))
        obs.set_gauge("service.running", self._running)
        start = time.monotonic()
        # Flight-record baselines: thread CPU and peak RSS before the
        # job, plus a snapshot of the shared evaluator counters so the
        # deltas attribute work to this job (approximate when several
        # workers run concurrently — the counters are service-wide).
        job._run_started_m = start
        job._cpu_start_s = thread_cpu_s()
        job._rss_start_kb = peak_rss_kb()
        job._evals_start = self.evaluator_stats()
        self._active.job = job
        try:
            # Re-activate the request's trace context on this worker
            # thread: every span below (service.job, search.tier*,
            # store.*, model.*) records the job's trace_id.
            with activate_trace(job.trace):
                self._attempt_until_final(job)
        finally:
            self._active.job = None
            elapsed = time.monotonic() - start
            obs.observe("service.job_wall_s", elapsed)
            with self._lock:
                self._running -= 1
                self._avg_job_s = (
                    0.8 * self._avg_job_s + 0.2 * elapsed
                )
            obs.set_gauge("service.running", self._running)

    def _attempt_until_final(self, job: Job) -> None:
        """Run one job to a final state, retrying transient failures."""
        while True:
            job.attempts += 1
            try:
                with obs.span(
                    "service.job", job=job.id, attempt=job.attempts
                ):
                    job.check_cancelled()
                    result = self._pipeline(job, self.evaluator)
                self._finalize(job, JobState.DONE, result=result)
                return
            except JobCancelledError as exc:
                self._finalize(job, JobState.CANCELLED, error=str(exc))
                return
            except self.transient as exc:
                if job.attempts > self.max_retries:
                    self._finalize(
                        job,
                        JobState.FAILED,
                        error=(
                            f"transient failure persisted through "
                            f"{job.attempts} attempts: {exc}"
                        ),
                    )
                    return
                with self._lock:
                    self.stats.retries += 1
                obs.inc("service.retries")
                delay = self.retry_backoff_s * (
                    2 ** (job.attempts - 1)
                )
                _log.warning(
                    "%s attempt %d hit transient %s; retrying in %.2fs",
                    job.id, job.attempts, type(exc).__name__, delay,
                )
                try:
                    # Cancellable backoff: wakes on an explicit cancel
                    # and is bounded by the job's deadline, so a dead
                    # job never pins this worker for the full delay.
                    job.wait_backoff(delay)
                except JobCancelledError as cancelled:
                    self._finalize(
                        job, JobState.CANCELLED, error=str(cancelled)
                    )
                    return
            except ReproError as exc:
                self._finalize(
                    job,
                    JobState.FAILED,
                    error=f"{type(exc).__name__}: {exc}",
                )
                return
            except Exception as exc:  # never take a worker down
                _log.error("%s crashed: %s", job.id, exc)
                self._finalize(
                    job,
                    JobState.FAILED,
                    error=f"internal error: {type(exc).__name__}: {exc}",
                )
                return

    def _finalize(self, job: Job, state: JobState, **kw) -> None:
        with self._lock:
            self._finalize_locked(job, state, **kw)

    def _finalize_locked(
        self,
        job: Job,
        state: JobState,
        result: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
    ) -> None:
        job.state = state
        job.finished_s = time.time()
        job.result = result
        job.error = error
        job.flight = self._flight_record(job, state)
        if self._inflight.get(job.signature) == job.id:
            del self._inflight[job.signature]
        if state is JobState.DONE:
            self.stats.completed += 1
            obs.inc("service.completed")
        elif state is JobState.FAILED:
            self.stats.failed += 1
            obs.inc("service.failed")
        else:
            self.stats.cancelled += 1
            obs.inc("service.cancelled")
            if job.timed_out:
                self.stats.timeouts += 1
                obs.inc("service.timeouts")
        job.mark_finished()
        if state is JobState.DONE and self.store is not None:
            flush = getattr(self.store, "flush", None)
            if flush is not None:
                try:
                    flush()
                except StoreError as exc:  # durability is best-effort
                    _log.warning("store flush failed: %s", exc)
        if self.telemetry is not None:
            self.telemetry.record_flight(job.flight)
        _log.info(
            "%s -> %s (attempts=%d%s)",
            job.id, state.value, job.attempts,
            f", error={error}" if error else "",
        )

    def _flight_record(self, job: Job, state: JobState) -> Dict[str, Any]:
        """Resource accounting for a job reaching its terminal state.

        Called on the worker thread that ran the job (or the submitter
        for jobs cancelled while queued), so the thread-CPU delta is
        the job's own.  Set before :meth:`Job.mark_finished` flips the
        completion latch: a successful ``wait()`` always sees it.
        """
        now_m = time.monotonic()
        queue_wait = 0.0
        if job._enqueued_m is not None:
            queue_wait = (
                job._dequeued_m if job._dequeued_m is not None else now_m
            ) - job._enqueued_m
        run_s = (
            now_m - job._run_started_m
            if job._run_started_m is not None
            else 0.0
        )
        cpu_s, rss_delta = self._job_usage(job)
        evals = self.evaluator_stats()
        before = job._evals_start or {}
        def delta(key: str) -> int:
            return int(evals.get(key, 0)) - int(before.get(key, 0))
        obs.observe("service.queue_wait_s", queue_wait)
        return FlightRecord(
            job_id=job.id,
            state=state.value,
            trace_id=job.trace.trace_id if job.trace else None,
            queue_wait_s=queue_wait,
            run_s=run_s,
            wall_s=job.finished_s - job.created_s,
            cpu_s=cpu_s,
            peak_rss_delta_kb=rss_delta,
            evaluations=delta("evaluated"),
            cache_hits=delta("cache_hits"),
            store_hits=delta("store_hits"),
            coalesced=job.coalesced,
            attempts=job.attempts,
        ).as_dict()

    def _job_usage(self, job: Job) -> Tuple[float, Optional[int]]:
        """``(cpu_s, peak_rss_delta_kb)`` the job body has cost so far.

        Measured on the worker thread that runs the body, against the
        baselines :meth:`_run_job` stamped on the job.
        """
        cpu_s = (
            thread_cpu_s() - job._cpu_start_s
            if job._cpu_start_s is not None
            else 0.0
        )
        rss_now = peak_rss_kb()
        rss_delta = (
            rss_now - job._rss_start_kb
            if rss_now is not None and job._rss_start_kb is not None
            else None
        )
        return cpu_s, rss_delta

    # -- lifecycle --------------------------------------------------------------

    @property
    def draining(self) -> bool:
        """True once shutdown started (admissions closed)."""
        with self._lock:
            return not self._accepting

    def shutdown(
        self, drain: bool = True, timeout: Optional[float] = None
    ) -> None:
        """Stop the service.

        Args:
            drain: finish queued and running jobs first (graceful);
                ``False`` cancels everything still pending.
            timeout: per-worker join bound.
        """
        with self._lock:
            if self._stopped.is_set():
                return
            self._accepting = False
        _log.info(
            "shutdown requested (%s)", "drain" if drain else "abort"
        )
        stranded = self._queue.close(drain=drain)
        with self._lock:
            for job in stranded:
                self._finalize_locked(
                    job, JobState.CANCELLED, error="service shutdown"
                )
            running = [
                job
                for job in self._jobs.values()
                if job.state is JobState.RUNNING
            ]
        if not drain:
            for job in running:
                job.cancel()
        for thread in self._threads:
            thread.join(timeout)
        self._stopped.set()
        if self.store is not None:
            flush = getattr(self.store, "flush", None)
            if flush is not None:
                try:
                    flush()
                except StoreError as exc:
                    # The owner may have closed the store already;
                    # durability was covered by the per-job flushes.
                    _log.warning("final store flush failed: %s", exc)
        if self.telemetry is not None:
            self.telemetry.close()
        obs.set_gauge("service.queue_depth", 0)
        obs.set_gauge("service.running", 0)
        _log.info("shutdown complete: %s", self.stats.as_dict())

    def __enter__(self) -> "SynthesisService":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown(drain=True)
