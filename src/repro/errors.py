"""Exception hierarchy for the stencil-synthesis framework.

Every error raised by this package derives from :class:`ReproError` so
callers can catch framework failures with a single ``except`` clause
while still distinguishing configuration problems from runtime ones.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SpecificationError(ReproError):
    """A stencil pattern, spec, or design parameter is malformed."""


class FrontendError(ReproError):
    """The OpenCL-subset frontend failed to parse or analyze a kernel."""


class ParseError(FrontendError):
    """Syntactic failure while parsing stencil source code."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class ExtractionError(FrontendError):
    """The feature extractor could not recover a stencil pattern."""


class ResourceError(ReproError):
    """A design exceeds the FPGA resource budget."""


class DesignSpaceError(ReproError):
    """The design-space exploration was given an infeasible space."""


class StoreError(ReproError):
    """The persistent design store hit corruption or an I/O failure.

    Every filesystem or decoding failure inside :mod:`repro.store` is
    re-raised as this type (with the original exception chained), so
    callers never see a bare ``OSError`` or ``json.JSONDecodeError``
    escape the store layer.
    """


class ServiceError(ReproError):
    """The synthesis service rejected or could not process a request."""


class ServiceClosedError(ServiceError):
    """The service is draining or stopped; submissions are refused.

    Distinct from a malformed request so transports can map it to the
    right status code (HTTP 503 + no ``rejected`` accounting) instead
    of conflating every :class:`ServiceError` raised during a drain
    with a client error.
    """


class ServiceOverloadError(ServiceError):
    """The service's admission control rejected a job: queue full.

    Attributes:
        retry_after_s: the server's estimate of when capacity frees up;
            surfaced over HTTP as a ``Retry-After`` header with a 429.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class JobCancelledError(ServiceError):
    """A job was cancelled (explicitly, or by its deadline)."""


class TransientServiceError(ServiceError):
    """A retryable failure inside a job (I/O hiccup, racing resource).

    The service worker retries jobs failing with this type (or another
    type in :data:`repro.service.core.DEFAULT_TRANSIENT`) with
    exponential backoff before declaring the job failed.
    """


class SimulationError(ReproError):
    """The execution simulator reached an inconsistent state."""


class PipeError(SimulationError):
    """Illegal operation on an OpenCL pipe (e.g. read past end)."""


class BackendUnavailable(SimulationError):
    """The JIT simulator backend cannot run this design here.

    Raised (and always caught — callers fall back to the numpy
    interpreter) when the JIT backend finds no working C compiler, no
    importable ``cffi``, an unsupported design or dtype, or a failed
    compilation.  Never fatal on the execution path.
    """


class CodegenError(ReproError):
    """The automatic code generator received an unsupported design."""
