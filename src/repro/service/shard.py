"""Process-sharded synthesis service: dispatcher + replica pool.

One Python process caps the service's throughput no matter how warm
the evaluator memo is — the analytical model is cheap, but scoring is
pure Python under one GIL.  :class:`ShardedSynthesisService` keeps the
whole dispatcher brain of :class:`~repro.service.core.SynthesisService`
(admission control, dedup/coalescing, priority queue, retries,
history, SLO gauges) and moves only the job *bodies* into N worker
processes:

- the **dispatcher** (this process) owns the queue and the job
  lifecycle; its worker threads become forwarding threads, each bound
  1:1 to a replica;
- each **replica** is a spawned process running a warm
  :class:`~repro.dse.evaluator.CandidateEvaluator`, with its own
  writer slot in the shared content-addressed
  :class:`~repro.store.DesignStore` (``journal-replica-<i>.jsonl``) —
  the store's signature keying is what makes concurrent and repeated
  evaluations exactly-once-equivalent: any replica computing the same
  design under the same context writes the same record under the same
  key;
- results, evaluator-counter deltas, and the job's trace spans ship
  back over a duplex pipe; the dispatcher re-injects spans into its
  recorder (remapped seqs, wall-clock-aligned timebase) so ``GET
  /jobs/<id>/trace`` shows replica work, and aggregates the counter
  deltas into per-replica ``service.replica.<i>.*`` metrics.

A replica runs only the job body,
:func:`~repro.service.core.run_synthesis_pipeline` — the same function
the single-process service runs — and hands back its payload or the
exception it raised, so result payloads are byte-identical to the
threaded path by construction, and the dispatcher's
:meth:`~repro.service.core.SynthesisService._attempt_until_final`
alone decides whether a failed attempt is cancelled, retried or
failed.

**Cancellation across the process boundary.** Each replica pair shares
a ``multiprocessing.Event``: the forwarding thread sets it when the
job is cancelled dispatcher-side.  The replica runs the body as a
:class:`~repro.service.jobs.Job` built from the shipped request, that
event and the remaining deadline, re-armed on the replica's monotonic
clock, and its engine's checkpoint checks that job at every batch
boundary, exactly like the in-process engine.

**Failure modes.** A replica that dies mid-job is restarted and the
job resurfaces as a :class:`~repro.errors.TransientServiceError`, so
the dispatcher's existing bounded-retry machinery re-dispatches it to
the fresh process.  The replica flushes its store journal after every
job, so at most the in-flight job's writes are lost — and those are
recomputed, never corrupted (content-addressed, torn-tail-tolerant).

Replicas are spawned (never forked): the dispatcher is multithreaded,
and ``fork`` in a threaded process is a deadlock lottery.  Their
stores keep :class:`~repro.store.DesignStore`'s default sync policy.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.errors import (
    JobCancelledError,
    ReproError,
    ServiceError,
    StoreError,
    TransientServiceError,
)
from repro.obs import core as obs_core
from repro.obs.record import TelemetryJournal, peak_rss_kb, thread_cpu_s
from repro.obs.spans import SpanRecord
from repro.obs.trace import activate as activate_trace
from repro.opencl.platform import ADM_PCIE_7V3, BoardSpec
from repro.service.core import SynthesisService, run_synthesis_pipeline
from repro.service.jobs import CurrentJob, Job

_log = obs.get_logger("service.shard")

#: How long a freshly spawned replica may take to import the framework
#: and report ready (cold numpy imports on a loaded CI box are slow).
SPAWN_TIMEOUT_S = 120.0

#: Forwarding threads poll the replica pipe at this period while a job
#: runs — it bounds how stale a dispatcher-side cancel can be.
POLL_PERIOD_S = 0.05

#: Backstop: if a replica blows through its deadline by this much
#: without cancelling itself, the dispatcher forces the cancel event.
DEADLINE_GRACE_S = 5.0


@dataclass(frozen=True)
class ReplicaConfig:
    """Everything a replica needs to build its engine (picklable)."""

    board: BoardSpec
    store_root: Optional[str]
    max_memo_entries: Optional[int]
    obs_enabled: bool
    obs_capture_spans: bool


def _replica_main(index: int, config: ReplicaConfig, conn, cancel_event):
    """Replica process entry point: warm engine + run-loop."""
    from repro.dse.evaluator import CandidateEvaluator
    from repro.store.backing import DesignStore

    if config.obs_enabled:
        # Mirror the dispatcher's recording mode so spans exist to
        # ship back; simulator event capture stays off (never shipped).
        obs.enable(
            capture_events=False,
            capture_spans=config.obs_capture_spans,
        )
    store = None
    if config.store_root:
        store = DesignStore(config.store_root, writer=f"replica-{index}")
    current = CurrentJob()
    evaluator = CandidateEvaluator(
        board=config.board,
        store=store,
        checkpoint=current.checkpoint,
        max_memo_entries=config.max_memo_entries,
    )
    try:
        conn.send({"op": "ready", "replica": index, "pid": os.getpid()})
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break  # dispatcher went away
            if not isinstance(message, dict) or message.get("op") != "run":
                break  # {"op": "stop"} or garbage: exit cleanly
            conn.send(
                _replica_run_one(
                    index, message, evaluator, current, cancel_event
                )
            )
    finally:
        if store is not None:
            try:
                store.close()
            except StoreError:
                pass
        try:
            conn.close()
        except OSError:
            pass


def _replica_run_one(
    index: int,
    message: Dict[str, Any],
    evaluator,
    current: CurrentJob,
    cancel_event,
) -> Dict[str, Any]:
    """Run one job body on the replica's warm engine; never raises.

    The reply's ``outcome`` is the body's payload or the exception it
    raised, as the dispatcher will re-raise it.
    """
    timeout_s = message["timeout_s"]
    job = current.job = Job(
        id=message["job_id"],
        request=message["request"],
        signature=message["signature"],
        trace=message["trace"],
        _cancel=cancel_event,
        _deadline=(
            None if timeout_s is None else time.monotonic() + timeout_s
        ),
    )
    before = evaluator.stats.as_dict()
    cpu_start_s = thread_cpu_s()
    rss_start_kb = peak_rss_kb()
    try:
        with activate_trace(job.trace):
            outcome = run_synthesis_pipeline(
                job.request, evaluator, job_id=job.id
            )
    except Exception as exc:  # the dispatcher classifies it
        outcome = _portable(exc)
    finally:
        current.job = None
    reply: Dict[str, Any] = {"replica": index, "outcome": outcome}
    # The job's own CPU and peak-RSS growth, for the dispatcher's
    # flight record (its forwarding thread only waits on the pipe).
    reply["cpu_s"] = thread_cpu_s() - cpu_start_s
    rss_end_kb = peak_rss_kb()
    reply["peak_rss_delta_kb"] = (
        rss_end_kb - rss_start_kb
        if rss_end_kb is not None and rss_start_kb is not None
        else None
    )
    if evaluator.store is not None:
        try:
            # Per-job durability, mirroring the dispatcher-side flush
            # the single-process service does on every DONE job.
            evaluator.store.flush()
        except StoreError as exc:
            _log.warning("replica %d store flush failed: %s", index, exc)
    after = evaluator.stats.as_dict()
    reply["evals"] = {
        key: after[key] - before.get(key, 0) for key in after
    }
    if job.trace is not None and obs.enabled() and obs.capture_spans():
        reply["spans"] = [
            span.as_dict()
            for span in obs.recorder.spans()
            if span.trace_id == job.trace.trace_id
        ]
        # Anchor for the dispatcher's timebase alignment: this
        # replica's "now" in both wall-clock and epoch-relative terms.
        reply["span_clock"] = {
            "wall": time.time(),
            "rel": time.perf_counter() - obs_core.epoch(),
        }
        obs.recorder.clear()
    return reply


def _portable(exc: Exception) -> Exception:
    """``exc`` if it survives the pipe's pickling, else a stand-in.

    The stand-in is a :class:`~repro.errors.ReproError` naming the
    original, so the job still fails with its type and message.
    """
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return ReproError(f"internal error: {type(exc).__name__}: {exc}")
    return exc


class _Replica:
    """Dispatcher-side handle for one worker process.

    Owned by exactly one forwarding thread after binding, so only
    ``jobs_done``/``restarts``/``evals_total`` (read by health under
    the service's replica lock) need care.
    """

    def __init__(self, index: int, config: ReplicaConfig, ctx):
        self.index = index
        self._config = config
        self._ctx = ctx
        self.jobs_done = 0
        self.restarts = 0
        self.evals_total: Dict[str, float] = {}
        self.process = None
        self.conn = None
        self.cancel_event = None
        self._spawn()

    def _spawn(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        self.cancel_event = self._ctx.Event()
        self.process = self._ctx.Process(
            target=_replica_main,
            args=(self.index, self._config, child_conn, self.cancel_event),
            name=f"synth-replica-{self.index}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        if not self.conn.poll(SPAWN_TIMEOUT_S):
            self._kill()
            raise ServiceError(
                f"replica {self.index} did not become ready "
                f"within {SPAWN_TIMEOUT_S:g}s"
            )
        boot = self.conn.recv()
        if not isinstance(boot, dict) or boot.get("op") != "ready":
            self._kill()
            raise ServiceError(
                f"replica {self.index} sent unexpected boot "
                f"message {boot!r}"
            )
        _log.info(
            "replica %d ready (pid %s)", self.index, boot.get("pid")
        )

    def run_job(self, job: Job) -> Dict[str, Any]:
        """Ship one job; forward cancellation; return the reply.

        Raises:
            TransientServiceError: the replica died (it has already
                been restarted) — the dispatcher's retry machinery
                re-dispatches the job to the fresh process.
        """
        timeout_s = None
        if job._deadline is not None:
            timeout_s = max(0.0, job._deadline - time.monotonic())
        # Fresh slate: a cancel left over from the previous job on
        # this replica must not kill this one.
        self.cancel_event.clear()
        try:
            self.conn.send(
                {
                    "op": "run",
                    "job_id": job.id,
                    "signature": job.signature,
                    "request": job.request,
                    "timeout_s": timeout_s,
                    "trace": job.trace,
                }
            )
        except (OSError, ValueError) as exc:
            self._restart()
            raise TransientServiceError(
                f"replica {self.index} unavailable for {job.id}: {exc}"
            ) from exc
        cancel_forwarded = False
        while True:
            if not cancel_forwarded and job.cancel_requested:
                self.cancel_event.set()
                cancel_forwarded = True
            if (
                not cancel_forwarded
                and job._deadline is not None
                and time.monotonic() > job._deadline + DEADLINE_GRACE_S
            ):
                # Backstop for a replica wedged outside any
                # cancellation point well past its deadline.
                self.cancel_event.set()
                cancel_forwarded = True
            try:
                if self.conn.poll(POLL_PERIOD_S):
                    reply = self.conn.recv()
                    self.jobs_done += 1
                    return reply
            except (EOFError, OSError) as exc:
                self._restart()
                raise TransientServiceError(
                    f"replica {self.index} died while running {job.id}"
                ) from exc
            if not self.process.is_alive():
                self._restart()
                raise TransientServiceError(
                    f"replica {self.index} exited while running {job.id}"
                )

    def _restart(self) -> None:
        self.restarts += 1
        obs.inc("service.replica.restarts")
        _log.warning("restarting replica %d", self.index)
        self._kill()
        self._spawn()

    def _kill(self) -> None:
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:
                pass
        if self.process is not None and self.process.is_alive():
            self.process.terminate()
        if self.process is not None:
            self.process.join(10.0)

    def stop(self, timeout_s: float = 10.0) -> None:
        """Graceful stop: ask, wait, then terminate."""
        if self.process is None:
            return
        try:
            self.conn.send({"op": "stop"})
        except (OSError, ValueError):
            pass
        self.process.join(timeout_s)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(5.0)
        try:
            self.conn.close()
        except OSError:
            pass
        self.process = None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class ShardedSynthesisService(SynthesisService):
    """The dispatcher: base-class brain, process-pool muscle.

    Inherits the whole job lifecycle from
    :class:`~repro.service.core.SynthesisService`; the base class's
    ``workers`` threads become forwarding threads, each bound to one
    replica process, and the job body is replaced by an RPC to that
    replica.  Both HTTP front doors, the client, dedup/coalescing, and
    the retry/cancel/SLO machinery work unchanged on top.

    Args:
        store_root: directory of the shared
            :class:`~repro.store.DesignStore`; each replica opens it
            with its own writer slot (multi-writer journals).  ``None``
            runs without persistence.
        worker_processes: replica count (and forwarding-thread count).
        Remaining arguments as the base class.  ``store=`` and
        ``pipeline=`` are owned by the sharding machinery and not
        accepted here.
    """

    def __init__(
        self,
        board: BoardSpec = ADM_PCIE_7V3,
        store_root=None,
        worker_processes: int = 2,
        queue_depth: int = 64,
        max_retries: int = 2,
        retry_backoff_s: float = 0.25,
        default_timeout_s: Optional[float] = None,
        max_memo_entries: Optional[int] = 4096,
        max_history: int = 1024,
        telemetry: Optional[TelemetryJournal] = None,
        slo_p99_target_s: float = 120.0,
    ):
        if worker_processes < 1:
            raise ServiceError(
                f"worker_processes must be >= 1, got {worker_processes}"
            )
        ctx = multiprocessing.get_context("spawn")
        config = ReplicaConfig(
            board=board,
            store_root=str(store_root) if store_root is not None else None,
            max_memo_entries=max_memo_entries,
            obs_enabled=obs.enabled(),
            obs_capture_spans=obs.capture_spans(),
        )
        self._replica_lock = threading.Lock()
        self._slot = threading.local()
        self._replicas: List[_Replica] = []
        self._replicas_stopped = False
        try:
            for index in range(worker_processes):
                self._replicas.append(_Replica(index, config, ctx))
        except BaseException:
            for replica in self._replicas:
                replica.stop(timeout_s=5.0)
            raise
        self._unbound = list(self._replicas)
        # The base class starts the forwarding threads, which is why
        # every replica must be ready first.
        super().__init__(
            board=board,
            store=None,  # replicas own the store; see class docstring
            workers=worker_processes,
            queue_depth=queue_depth,
            max_retries=max_retries,
            retry_backoff_s=retry_backoff_s,
            default_timeout_s=default_timeout_s,
            max_memo_entries=max_memo_entries,
            max_history=max_history,
            pipeline=self._remote_pipeline,
            telemetry=telemetry,
            slo_p99_target_s=slo_p99_target_s,
        )
        self.worker_processes = worker_processes
        obs.set_gauge("service.replicas", worker_processes)

    # -- forwarding ---------------------------------------------------------

    def _worker_loop(self) -> None:
        # Bind this forwarding thread to one replica for its lifetime:
        # jobs on one thread always hit the same warm memo, and the
        # pipe protocol stays strictly one-job-at-a-time per replica.
        with self._replica_lock:
            self._slot.replica = self._unbound.pop()
        super()._worker_loop()

    def _remote_pipeline(self, job: Job, _evaluator) -> Dict[str, Any]:
        """Job body: RPC to this thread's replica; re-raise its error."""
        replica: _Replica = self._slot.replica
        reply = replica.run_job(job)
        self._absorb_reply(replica, reply)
        job._replica_cpu_s += reply.get("cpu_s", 0.0)
        rss_kb = reply.get("peak_rss_delta_kb")
        if rss_kb is not None:
            job._replica_rss_kb = (job._replica_rss_kb or 0) + rss_kb
        outcome = reply["outcome"]
        if isinstance(outcome, JobCancelledError):
            # The replica checked its copy of the job; this check
            # marks the original ``timed_out`` when the deadline fired.
            job.check_cancelled()
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def _absorb_reply(
        self, replica: _Replica, reply: Dict[str, Any]
    ) -> None:
        """Fold one reply's telemetry into dispatcher-side state."""
        evals = reply.get("evals") or {}
        with self._replica_lock:
            for key, value in evals.items():
                replica.evals_total[key] = (
                    replica.evals_total.get(key, 0) + value
                )
        if obs.enabled():
            prefix = f"service.replica.{replica.index}"
            obs.inc(f"{prefix}.jobs")
            for key, value in evals.items():
                if not value:
                    continue
                if key == "wall_time_s":
                    obs.observe(f"{prefix}.wall_time_s", float(value))
                else:
                    obs.inc(f"{prefix}.{key}", int(value))
        self._inject_spans(reply)

    def _inject_spans(self, reply: Dict[str, Any]) -> None:
        """Graft the replica's job spans into this process's recorder.

        Sequence ids are remapped through :func:`obs.next_seq` (the
        replica's counter collides with ours); parent links inside the
        shipped batch follow the remap, while links to dispatcher-side
        seqs (the trace context's ``parent_seq``) pass through.  The
        replica timebase is aligned via the reply's wall-clock anchor,
        so the merged Chrome trace keeps one timeline.
        """
        spans = reply.get("spans") or []
        if not spans or not (obs.enabled() and obs.capture_spans()):
            return
        clock = reply.get("span_clock") or {}
        shift = 0.0
        if "wall" in clock and "rel" in clock:
            local_rel = time.perf_counter() - obs_core.epoch()
            shift = (
                (local_rel - time.time())
                + (clock["wall"] - clock["rel"])
            )
        seq_map = {data["seq"]: obs.next_seq() for data in spans}
        replica_tag = f"replica-{reply.get('replica', '?')}"
        for data in spans:
            parent = data.get("parent_seq")
            obs.recorder.add_span(
                SpanRecord(
                    name=data["name"],
                    start_s=data["start_s"] + shift,
                    end_s=data["end_s"] + shift,
                    seq=seq_map[data["seq"]],
                    parent_seq=seq_map.get(parent, parent),
                    thread=f"{replica_tag}:{data.get('thread', '?')}",
                    attrs=data.get("attrs") or {},
                    trace_id=data.get("trace_id"),
                )
            )

    # -- views ----------------------------------------------------------------

    def _job_usage(self, job: Job) -> Tuple[float, Optional[int]]:
        """What the replicas measured around the job body.

        The forwarding thread only waits on the replica pipe, so its
        own CPU time and this process's peak RSS say nothing about
        the job.
        """
        return job._replica_cpu_s, job._replica_rss_kb

    def evaluator_stats(self) -> Dict[str, Any]:
        """Aggregated engine counters across every replica."""
        totals = dict(self.evaluator.stats.as_dict())  # zero baseline
        with self._replica_lock:
            for replica in self._replicas:
                for key, value in replica.evals_total.items():
                    totals[key] = totals.get(key, 0) + value
        return totals

    def health(self) -> Dict[str, Any]:
        data = super().health()
        with self._replica_lock:
            data["replicas"] = [
                {
                    "index": replica.index,
                    "alive": replica.alive,
                    "pid": (
                        replica.process.pid if replica.process else None
                    ),
                    "jobs": replica.jobs_done,
                    "restarts": replica.restarts,
                }
                for replica in self._replicas
            ]
        data["worker_processes"] = len(self._replicas)
        return data

    # -- lifecycle --------------------------------------------------------------

    def shutdown(
        self, drain: bool = True, timeout: Optional[float] = None
    ) -> None:
        super().shutdown(drain=drain, timeout=timeout)
        if self._replicas_stopped:
            return
        self._replicas_stopped = True
        for replica in self._replicas:
            replica.stop()
        _log.info("all %d replicas stopped", len(self._replicas))
