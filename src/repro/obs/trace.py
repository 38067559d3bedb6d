"""Request-scoped trace contexts: one trace id across threads and hops.

A :class:`TraceContext` names one logical request — a ``trace_id``
minted where the request originates (the service client, an in-process
``submit``), an optional parent span sequence id, and a small string
``baggage`` map.  The context travels

- **over HTTP** as ``X-Repro-Trace-*`` headers
  (:meth:`TraceContext.to_headers` / :meth:`TraceContext.from_headers`),
- **across threads** by re-activation: :func:`activate` installs a
  context in the current thread's slot, and every span opened while it
  is active records its ``trace_id`` (and, for the thread's root span,
  parents to ``parent_seq``), so work fanned out over a worker pool
  still folds into one trace.

Everything here is allocation-free on the disabled path: no context is
ever minted or activated unless a caller explicitly does so, and
:func:`current` is a single ``threading.local`` attribute read.  The
hot evaluator path never touches this module when observability is off
(see ``tests/obs/test_trace.py::TestZeroCost``).
"""

from __future__ import annotations

import re
import threading
import urllib.parse
import uuid
from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Tuple

#: HTTP header carrying the 32-hex-char trace id.
TRACE_ID_HEADER = "X-Repro-Trace-Id"
#: HTTP header carrying the originating span's sequence id (optional).
PARENT_SPAN_HEADER = "X-Repro-Parent-Span"
#: HTTP header carrying url-encoded ``key=value`` baggage pairs.
BAGGAGE_HEADER = "X-Repro-Baggage"

_TRACE_ID = re.compile(r"^[0-9a-f]{32}$")


@dataclass(frozen=True)
class TraceContext:
    """One request's identity: trace id, parent span, baggage.

    Immutable; derive variants with :meth:`with_parent` /
    :meth:`with_baggage`.  ``parent_seq`` is meaningful only within the
    process whose span sequence numbers it refers to — a context
    arriving over HTTP drops it (the client's spans are not in this
    process's recorder).
    """

    trace_id: str
    parent_seq: Optional[int] = None
    baggage: Tuple[Tuple[str, str], ...] = field(default=())

    @classmethod
    def mint(cls, **baggage: str) -> "TraceContext":
        """A fresh context with a random 128-bit trace id."""
        return cls(
            trace_id=uuid.uuid4().hex,
            baggage=tuple(sorted(baggage.items())),
        )

    def with_parent(self, parent_seq: Optional[int]) -> "TraceContext":
        """The same trace, parented under span ``parent_seq``."""
        return replace(self, parent_seq=parent_seq)

    def baggage_dict(self) -> Dict[str, str]:
        return dict(self.baggage)

    # -- HTTP propagation -------------------------------------------------------

    def to_headers(self) -> Dict[str, str]:
        """Encode the context as HTTP request headers."""
        headers = {TRACE_ID_HEADER: self.trace_id}
        if self.parent_seq is not None:
            headers[PARENT_SPAN_HEADER] = str(self.parent_seq)
        if self.baggage:
            headers[BAGGAGE_HEADER] = ",".join(
                f"{urllib.parse.quote(k)}={urllib.parse.quote(v)}"
                for k, v in self.baggage
            )
        return headers

    @classmethod
    def from_headers(
        cls, headers: Mapping[str, str]
    ) -> Optional["TraceContext"]:
        """Decode a context from HTTP headers; ``None`` when absent.

        A malformed trace id is treated as absent rather than an error:
        telemetry must never fail a request.  ``parent_seq`` is
        intentionally dropped — the sender's span sequence ids mean
        nothing in this process.
        """
        trace_id = headers.get(TRACE_ID_HEADER)
        if trace_id is None:
            # Header lookups are case-insensitive on http.server's
            # message objects but not on plain dicts (tests).
            for key in headers:
                if key.lower() == TRACE_ID_HEADER.lower():
                    trace_id = headers[key]
                    break
        if not trace_id or not _TRACE_ID.match(trace_id.strip()):
            return None
        baggage = []
        raw = headers.get(BAGGAGE_HEADER, "") or ""
        for pair in raw.split(","):
            if "=" not in pair:
                continue
            key, _, value = pair.partition("=")
            baggage.append(
                (urllib.parse.unquote(key), urllib.parse.unquote(value))
            )
        return cls(
            trace_id=trace_id.strip(), baggage=tuple(sorted(baggage))
        )


# -- per-thread activation ----------------------------------------------------


class _ActiveContext(threading.local):
    ctx: Optional[TraceContext] = None


_active = _ActiveContext()


def current() -> Optional[TraceContext]:
    """The context active on this thread (``None`` outside a request)."""
    return _active.ctx


class _Activation:
    """Context manager installing (and restoring) the thread's context."""

    __slots__ = ("_ctx", "_prev")

    def __init__(self, ctx: TraceContext):
        self._ctx = ctx
        self._prev: Optional[TraceContext] = None

    def __enter__(self) -> TraceContext:
        self._prev = _active.ctx
        _active.ctx = self._ctx
        return self._ctx

    def __exit__(self, *_exc) -> bool:
        _active.ctx = self._prev
        return False


class _NoopActivation:
    """Shared do-nothing activation for the ``ctx is None`` fast path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *_exc) -> bool:
        return False


NOOP_ACTIVATION = _NoopActivation()


def activate(ctx: Optional[TraceContext]):
    """Install ``ctx`` on this thread for the ``with`` block.

    ``activate(None)`` returns a shared no-op, so callers can pass an
    optional context through unconditionally.
    """
    if ctx is None:
        return NOOP_ACTIVATION
    return _Activation(ctx)
