"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GridError",
    "PipelineError",
    "PortError",
    "FilterError",
    "FormatError",
    "CodecError",
    "IntegrityError",
    "RPCError",
    "RPCRemoteError",
    "RPCTransportError",
    "RPCTimeoutError",
    "DeadlineExpiredError",
    "ServerOverloadedError",
    "CircuitOpenError",
    "StorageError",
    "NoSuchObjectError",
    "NoSuchBucketError",
    "SelectionError",
    "FAILOVER_ERRORS",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GridError(ReproError):
    """Invalid grid construction or incompatible grid operation."""


class PipelineError(ReproError):
    """Pipeline construction or execution failure."""


class PortError(PipelineError):
    """Invalid port index or connection."""


class FilterError(PipelineError):
    """A filter received input it cannot process."""


class FormatError(ReproError):
    """Malformed file or wire payload."""


class IntegrityError(FormatError):
    """A checksum did not match: the bytes were corrupted at rest or in flight.

    Subclasses :class:`FormatError` because corrupted data *is* a malformed
    payload — existing ``except FormatError`` handlers keep rejecting it —
    but the distinct type lets recovery code react specifically: the NDP
    client re-reads once (corruption is often transient) and then degrades
    to the baseline path instead of ever emitting wrong geometry.
    """


class CodecError(ReproError):
    """Compression or decompression failure."""


class RPCError(ReproError):
    """Base class for RPC-layer failures."""


class RPCRemoteError(RPCError):
    """The remote handler raised; carries the remote traceback text."""

    def __init__(self, method: str, remote_message: str):
        super().__init__(f"remote call {method!r} failed: {remote_message}")
        self.method = method
        self.remote_message = remote_message


class RPCTransportError(RPCError):
    """The transport failed (connection refused, truncated frame, ...)."""


class RPCTimeoutError(RPCTransportError):
    """A request exceeded its deadline (socket timeout or retry budget).

    Subclasses :class:`RPCTransportError` because a timeout is a transport
    failure: existing ``except RPCTransportError`` handlers keep working,
    and the resilient transport treats it as retryable when budget remains.
    """


class DeadlineExpiredError(RPCTimeoutError):
    """The request's propagated deadline expired before the work finished.

    Raised server-side (the request arrived already expired, or its budget
    ran out between processing phases) and mapped back to this type on the
    client.  Subclasses :class:`RPCTimeoutError`: to every existing
    handler a blown deadline is just another timeout.
    """


class ServerOverloadedError(RPCTransportError):
    """The server shed this request at admission instead of queueing it.

    Subclasses :class:`RPCTransportError` because overload is transient by
    definition: the resilient transport retries it with backoff (honouring
    :attr:`retry_after` as a floor) and :class:`FallbackPolicy` may degrade
    on it — exactly the treatment a flaky link gets.
    """

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class CircuitOpenError(RPCError):
    """The circuit breaker is open: the request was rejected locally.

    Deliberately *not* a :class:`RPCTransportError` — nothing touched the
    wire.  Carries the failure count and the simulated/real time until the
    breaker will probe again, when known.
    """

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class StorageError(ReproError):
    """Object-store failure."""


class NoSuchBucketError(StorageError):
    """The requested bucket does not exist."""


class NoSuchObjectError(StorageError):
    """The requested object does not exist."""


class SelectionError(ReproError):
    """Invalid sparse point selection."""


#: Failures of one site rather than of the request: another replica, or
#: the baseline read, may answer.  Everything else (bad params, remote
#: handler bugs) is deterministic and would fail identically elsewhere.
FAILOVER_ERRORS = (RPCTransportError, CircuitOpenError, IntegrityError)
