"""Bounded priority queue with admission control for the service.

A thin, dependency-free scheduling core: jobs are ordered by
``(-priority, seq)`` — higher priority first, FIFO within a priority
level — the depth is bounded, and a full queue *rejects* instead of
blocking (the service turns the rejection into an HTTP 429 with a
``Retry-After`` estimate).  Closing the queue supports both drain
(workers keep popping until empty, then see ``None``) and abort
(remaining jobs are handed back to the closer for cancellation).
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import List, Optional

from repro.errors import (
    ServiceClosedError,
    ServiceError,
    ServiceOverloadError,
)
from repro.service.jobs import Job


class JobQueue:
    """Priority queue of :class:`Job` with bounded depth.

    Args:
        max_depth: admission-control bound; :meth:`put` on a full
            queue raises :class:`ServiceOverloadError`.
    """

    def __init__(self, max_depth: int = 64):
        if max_depth < 1:
            raise ServiceError(
                f"queue max_depth must be >= 1, got {max_depth}"
            )
        self.max_depth = max_depth
        self._heap: List = []
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def put(self, job: Job, retry_after_s: float = 1.0) -> None:
        """Admit a job, or reject with a retry hint.

        Raises:
            ServiceClosedError: the queue is closed (service shutting
                down) — mapped to HTTP 503, never counted as a client
                rejection.
            ServiceOverloadError: the queue is at ``max_depth``; the
                caller should surface ``retry_after_s`` to the client.
        """
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is shutting down")
            if len(self._heap) >= self.max_depth:
                raise ServiceOverloadError(
                    f"queue full ({self.max_depth} jobs waiting); "
                    f"retry in {retry_after_s:.1f}s",
                    retry_after_s=retry_after_s,
                )
            job._enqueued_m = time.monotonic()
            heapq.heappush(
                self._heap, (-job.request.priority, next(self._seq), job)
            )
            self._not_empty.notify()

    def get(self) -> Optional[Job]:
        """Pop the next job, blocking; ``None`` means "worker, exit".

        After :meth:`close(drain=True) <close>` the remaining jobs are
        still handed out until the queue empties; after an abort close
        the queue is already empty and every waiter wakes to ``None``.
        """
        with self._lock:
            while not self._heap and not self._closed:
                self._not_empty.wait()
            if not self._heap:
                return None
            job = heapq.heappop(self._heap)[2]
            # Queue-wait accounting for the job's flight record.
            job._dequeued_m = time.monotonic()
            return job

    def close(self, drain: bool = True) -> List[Job]:
        """Stop admissions; wake all waiters.

        Args:
            drain: keep handing out queued jobs (graceful shutdown).
                When ``False``, the queue is emptied and the stranded
                jobs are returned so the caller can cancel them.

        Returns:
            The jobs removed from the queue (empty when draining).
        """
        with self._lock:
            self._closed = True
            stranded: List[Job] = []
            if not drain:
                stranded = [item[2] for item in self._heap]
                self._heap.clear()
            self._not_empty.notify_all()
            return stranded
