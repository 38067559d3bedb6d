"""Job model for the synthesis service.

A :class:`JobRequest` is the validated, canonicalized form of one
synthesis ask — everything :func:`repro.api.synthesize` needs, in
JSON-able primitives.  Its :meth:`~JobRequest.signature` is a content
digest over exactly the fields that determine the synthesized output,
so two requests with equal signatures are interchangeable: the service
coalesces them onto one in-flight :class:`Job`, and repeat requests
after completion warm-start from the evaluator memo and the persistent
:class:`~repro.store.backing.DesignStore`.

Scheduling knobs (``priority``, ``timeout_s``) are deliberately *not*
part of the signature — they change when a job runs, never what it
produces.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import JobCancelledError, ServiceError
from repro.obs.trace import TraceContext
from repro.program.library import PROGRAM_BENCHMARKS
from repro.stencil.library import BENCHMARKS
from repro.store.backing import digest

#: Request fields that shape the synthesized output (signature inputs).
_CONTENT_FIELDS = (
    "benchmark",
    "source",
    "program",
    "schedule",
    "name",
    "field_map",
    "aux",
    "grid_shape",
    "iterations",
    "tile_shape",
    "counts",
    "fused_depth",
    "unroll",
    "design",
)
#: Scheduling-only fields accepted alongside the content fields.
_SCHED_FIELDS = ("priority", "timeout_s")
#: Content fields a job kind ignores, with their defaults as
#: :meth:`JobRequest.content` renders them: any other value would only
#: split the dedup signature of equal jobs.
_SOURCE_ONLY = {"name": "user-stencil", "field_map": None, "aux": []}
_IGNORED_DEFAULTS = {
    "benchmark": {"schedule": "coresident", **_SOURCE_ONLY},
    "source": {"schedule": "coresident"},
    "program": {
        **_SOURCE_ONLY,
        "tile_shape": None,
        "counts": None,
        "fused_depth": None,
        "unroll": 1,
        "design": "heterogeneous",
    },
}


class JobState(str, Enum):
    """Lifecycle of a job (see ``docs/SERVICE.md``)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def finished(self) -> bool:
        """True once the job can never run again."""
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


def _positive_int(name: str, value) -> int:
    # bool is an int subclass: JSON ``true`` must not pass as 1.
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ServiceError(
            f"{name} must be a positive integer, got {value!r}"
        )
    return value


def _optional_int(name: str, value) -> Optional[int]:
    return None if value is None else _positive_int(name, value)


def _int_tuple(name: str, value) -> Optional[Tuple[int, ...]]:
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or not value:
        raise ServiceError(f"{name} must be a non-empty list of ints")
    return tuple(_positive_int(name, v) for v in value)


def _priority(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(f"priority must be an integer, got {value!r}")
    return value


def _timeout(value) -> Optional[float]:
    if value is None:
        return None
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
        or value <= 0
    ):
        raise ServiceError(
            f"timeout_s must be a positive number of seconds, got {value!r}"
        )
    return value


@functools.lru_cache(maxsize=None)
def _library_ndim(benchmark: Optional[str], program: Optional[str]) -> int:
    """Grid dimensions of a library benchmark or program."""
    if benchmark is not None:
        return BENCHMARKS[benchmark]().ndim
    return PROGRAM_BENCHMARKS[program]().stages[0].spec.ndim


def _string(name: str, value) -> Optional[str]:
    if value is not None and not isinstance(value, str):
        raise ServiceError(f"{name} must be a string")
    return value


def _known(name: str, value, table) -> Optional[str]:
    if value is not None and (
        not isinstance(value, str) or value not in table
    ):
        raise ServiceError(
            f"unknown {name} {value!r} (expected one of: "
            f"{', '.join(sorted(table))})"
        )
    return value


def _strings(name: str, value) -> Tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(v, str) for v in value
    ):
        raise ServiceError(f"{name} must be a list of strings")
    return tuple(value)


def _string_map(name: str, value) -> Optional[Dict[str, str]]:
    if value is not None and not (
        isinstance(value, dict)
        and all(
            isinstance(k, str) and isinstance(v, str)
            for k, v in value.items()
        )
    ):
        raise ServiceError(f"{name} must map strings to strings")
    return value


@dataclass(frozen=True)
class JobRequest:
    """One validated synthesis request.

    Exactly one of ``benchmark`` / ``source`` / ``program`` must be
    set; the remaining fields mirror :func:`repro.api.synthesize` (see
    there for semantics).  ``program`` names a multi-stage program
    benchmark (:data:`repro.program.library.PROGRAM_BENCHMARKS`) and
    routes the job through the program-level search; ``schedule``
    picks its composition schedule.  ``priority`` orders the queue —
    higher runs first; ``timeout_s`` bounds the job's wall time once
    it starts.
    """

    benchmark: Optional[str] = None
    source: Optional[str] = None
    program: Optional[str] = None
    schedule: str = "coresident"
    name: str = "user-stencil"
    field_map: Optional[Mapping[str, str]] = None
    aux: Tuple[str, ...] = ()
    grid_shape: Optional[Tuple[int, ...]] = None
    iterations: Optional[int] = None
    tile_shape: Optional[Tuple[int, ...]] = None
    counts: Optional[Tuple[int, ...]] = None
    fused_depth: Optional[int] = None
    unroll: int = 1
    design: str = "heterogeneous"
    priority: int = 0
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        provided = sum(
            v is not None
            for v in (self.benchmark, self.source, self.program)
        )
        if provided != 1:
            raise ServiceError(
                "a job needs exactly one of 'benchmark', 'source', or "
                "'program'"
            )
        if self.schedule not in ("coresident", "timeshared"):
            raise ServiceError(
                f"unknown program schedule {self.schedule!r} (expected "
                "coresident/timeshared)"
            )
        if self.design not in ("baseline", "pipe-shared", "heterogeneous"):
            raise ServiceError(
                f"unknown design kind {self.design!r} (expected "
                "baseline/pipe-shared/heterogeneous)"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ServiceError("timeout_s must be positive")

    @classmethod
    def from_json(cls, payload: Any) -> "JobRequest":
        """Build a request from a decoded JSON object, strictly.

        Unknown keys are rejected — a typo'd field silently changing
        the dedup signature would be far worse than a 400.  So is every
        value a worker would only fail on later, after the job took a
        queue slot: integers that are not positive (or are bools),
        benchmark and program names outside the libraries, a
        non-string ``source``/``name``, an ``aux`` that is not a list
        of strings, a ``field_map`` that does not map strings to
        strings, a ``source`` job without ``grid_shape`` and
        ``iterations``, a ``priority`` that is not an integer, a
        ``timeout_s`` that is not a positive finite number,
        ``grid_shape``/``tile_shape``/``counts`` whose length is not
        the workload's dimension count (a ``source`` job's is its
        ``grid_shape``'s), and a field the job's kind ignores set to
        anything but its default, which would split the dedup
        signature of identical jobs: ``schedule`` on a ``benchmark``
        or ``source`` job, ``name``/``field_map``/``aux`` on a
        ``benchmark`` or ``program`` job, and the single-stencil
        fields (``tile_shape``, ``counts``, ``fused_depth``,
        ``unroll``, ``design``) on a ``program`` job.
        """
        if not isinstance(payload, dict):
            raise ServiceError("job payload must be a JSON object")
        unknown = (
            set(payload) - set(_CONTENT_FIELDS) - set(_SCHED_FIELDS)
        )
        if unknown:
            raise ServiceError(
                f"unknown job field(s): {', '.join(sorted(unknown))}"
            )
        source = _string("source", payload.get("source"))
        grid_shape = _int_tuple("grid_shape", payload.get("grid_shape"))
        iterations = _optional_int(
            "iterations", payload.get("iterations")
        )
        if source is not None and (grid_shape is None or iterations is None):
            raise ServiceError(
                "a 'source' job needs 'grid_shape' and 'iterations'"
            )
        try:
            request = cls(
                benchmark=_known(
                    "benchmark", payload.get("benchmark"), BENCHMARKS
                ),
                source=source,
                program=_known(
                    "program", payload.get("program"), PROGRAM_BENCHMARKS
                ),
                schedule=payload.get("schedule", "coresident"),
                name=_string("name", payload.get("name", "user-stencil")),
                field_map=_string_map(
                    "field_map", payload.get("field_map")
                ),
                aux=_strings("aux", payload.get("aux", ())),
                grid_shape=grid_shape,
                iterations=iterations,
                tile_shape=_int_tuple(
                    "tile_shape", payload.get("tile_shape")
                ),
                counts=_int_tuple("counts", payload.get("counts")),
                fused_depth=_optional_int(
                    "fused_depth", payload.get("fused_depth")
                ),
                unroll=_positive_int("unroll", payload.get("unroll", 1)),
                design=payload.get("design", "heterogeneous"),
                priority=_priority(payload.get("priority", 0)),
                timeout_s=_timeout(payload.get("timeout_s")),
            )
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"malformed job payload: {exc}") from exc
        kind = next(
            k for k in _IGNORED_DEFAULTS if getattr(request, k) is not None
        )
        content = request.content()
        ignored = [
            key
            for key, default in _IGNORED_DEFAULTS[kind].items()
            if content[key] != default
        ]
        if ignored:
            raise ServiceError(
                f"a '{kind}' job takes no {', '.join(ignored)}"
            )
        if request.source is not None:
            ndim = len(request.grid_shape)
        else:
            ndim = _library_ndim(request.benchmark, request.program)
        for key in ("grid_shape", "tile_shape", "counts"):
            shape = getattr(request, key)
            if shape is not None and len(shape) != ndim:
                raise ServiceError(
                    f"{key} has {len(shape)} entries; the workload has "
                    f"{ndim} dimensions"
                )
        return request

    def content(self) -> Dict[str, Any]:
        """The signature-relevant fields, JSON-canonicalizable."""
        return {
            "benchmark": self.benchmark,
            "source": self.source,
            "program": self.program,
            "schedule": self.schedule,
            "name": self.name,
            "field_map": (
                dict(sorted(self.field_map.items()))
                if self.field_map
                else None
            ),
            "aux": list(self.aux),
            "grid_shape": (
                list(self.grid_shape) if self.grid_shape else None
            ),
            "iterations": self.iterations,
            "tile_shape": (
                list(self.tile_shape) if self.tile_shape else None
            ),
            "counts": list(self.counts) if self.counts else None,
            "fused_depth": self.fused_depth,
            "unroll": self.unroll,
            "design": self.design,
        }

    def signature(self) -> str:
        """Content digest keying dedup/coalescing (see module doc)."""
        return digest(self.content())

    def as_dict(self) -> Dict[str, Any]:
        """Full JSON-able view (content + scheduling knobs)."""
        data = self.content()
        data["priority"] = self.priority
        data["timeout_s"] = self.timeout_s
        return data


@dataclass
class Job:
    """One unit of service work and its mutable lifecycle state.

    All mutation happens under the owning service's lock; readers get
    consistent snapshots via :meth:`as_dict`.
    """

    id: str
    request: JobRequest
    signature: str
    state: JobState = JobState.QUEUED
    created_s: float = field(default_factory=time.time)
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    attempts: int = 0
    error: Optional[str] = None
    timed_out: bool = False
    #: Requests that coalesced onto this job after submission.
    coalesced: int = 0
    result: Optional[Dict[str, Any]] = None
    #: Request-scoped trace context (client-minted or server-minted);
    #: re-activated on the worker thread so every span the job opens —
    #: across the evaluator's pool threads too — shares one trace_id.
    trace: Optional[TraceContext] = field(default=None, repr=False)
    #: Resource accounting, set atomically with the terminal state
    #: (before the completion latch flips), so a waiter never observes
    #: a finished job without its flight record.
    flight: Optional[Dict[str, Any]] = None
    _cancel: threading.Event = field(
        default_factory=threading.Event, repr=False
    )
    _done: threading.Event = field(
        default_factory=threading.Event, repr=False
    )
    #: Monotonic deadline, armed when the job starts running.
    _deadline: Optional[float] = field(default=None, repr=False)
    # Worker-side accounting stamps (monotonic / thread-CPU / RSS),
    # written by the queue and the worker, read when finalizing.
    _enqueued_m: Optional[float] = field(default=None, repr=False)
    _dequeued_m: Optional[float] = field(default=None, repr=False)
    _run_started_m: Optional[float] = field(default=None, repr=False)
    _cpu_start_s: Optional[float] = field(default=None, repr=False)
    _rss_start_kb: Optional[int] = field(default=None, repr=False)
    _evals_start: Optional[Dict[str, Any]] = field(
        default=None, repr=False
    )
    # What replica processes measured around the job body, summed
    # over attempts (the sharded service's flight-record source).
    _replica_cpu_s: float = field(default=0.0, repr=False)
    _replica_rss_kb: Optional[int] = field(default=None, repr=False)

    def cancel(self) -> None:
        """Request cancellation (takes effect at the next checkpoint)."""
        self._cancel.set()

    @property
    def cancel_requested(self) -> bool:
        return self._cancel.is_set()

    def arm_deadline(self) -> None:
        """Start the ``timeout_s`` clock (called when the job starts)."""
        if self.request.timeout_s is not None:
            self._deadline = time.monotonic() + self.request.timeout_s

    def check_cancelled(self) -> None:
        """Raise :class:`JobCancelledError` at a cancellation point.

        The service's pipeline calls this between stages and from the
        evaluator's per-candidate trace hook, so cancellation and
        timeouts cut into a running exploration rather than waiting it
        out.
        """
        if self._cancel.is_set():
            raise JobCancelledError(f"job {self.id} cancelled")
        if self._deadline is not None and time.monotonic() > self._deadline:
            self.timed_out = True
            raise JobCancelledError(
                f"job {self.id} exceeded its "
                f"{self.request.timeout_s:g}s timeout"
            )

    def wait_backoff(self, delay: float) -> None:
        """Sleep between retry attempts without ignoring cancellation.

        A plain ``time.sleep`` would let a cancelled or
        deadline-expired job pin a worker for the full backoff.  This
        waits on the cancel event instead (an explicit cancel wakes
        the worker immediately), bounds the wait by the remaining
        deadline, and re-checks via :meth:`check_cancelled` before the
        next attempt — raising :class:`JobCancelledError` rather than
        retrying a job that is already dead.
        """
        remaining = delay
        if self._deadline is not None:
            remaining = min(
                remaining, max(0.0, self._deadline - time.monotonic())
            )
        if remaining > 0:
            self._cancel.wait(remaining)
        self.check_cancelled()

    def mark_finished(self) -> None:
        """Flip the completion latch (after state is final)."""
        self._done.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job finishes; True if it did in time."""
        return self._done.wait(timeout)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able status view (the ``GET /jobs/<id>`` body)."""
        return {
            "id": self.id,
            "state": self.state.value,
            "signature": self.signature,
            "request": self.request.as_dict(),
            "created_s": self.created_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
            "attempts": self.attempts,
            "coalesced": self.coalesced,
            "timed_out": self.timed_out,
            "error": self.error,
            "has_result": self.result is not None,
            "trace_id": self.trace.trace_id if self.trace else None,
            "flight": self.flight,
        }
