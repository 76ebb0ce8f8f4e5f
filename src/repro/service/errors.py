"""Structured errors of the solver service.

Every failure the service can report to a client — malformed payloads,
unknown solvers, unstable models, backpressure rejections, expired
deadlines — is a :class:`ServiceError` subclass carrying a stable
machine-readable ``code`` and the HTTP status it maps to.  The HTTP layer
turns any raised :class:`ServiceError` into a JSON body of the form::

    {"status": "error", "error": {"code": "...", "message": "..."}}

so clients switch on ``error.code`` (part of the protocol, never reworded)
rather than parsing messages.  :class:`QueueFullError` additionally carries a
``retry_after`` hint, surfaced both in the payload and as a ``Retry-After``
header.
"""

from __future__ import annotations

from ..exceptions import ReproError


class ServiceError(ReproError):
    """Base class of every client-reportable service failure.

    Subclasses pin ``code`` (the machine-readable identifier clients switch
    on) and ``http_status`` (the response status the HTTP layer uses).
    """

    code: str = "internal-error"
    http_status: int = 500

    def __init__(self, message: str, *, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after

    def payload(self) -> dict[str, object]:
        """The ``error`` object embedded in the JSON error response."""
        error: dict[str, object] = {"code": self.code, "message": str(self)}
        if self.retry_after is not None:
            error["retry_after"] = self.retry_after
        return error


class BadJSONError(ServiceError):
    """The request body was not valid JSON (or not a JSON object)."""

    code = "bad-json"
    http_status = 400


class BadRequestError(ServiceError):
    """The request JSON violated the schema (missing/ill-typed fields)."""

    code = "bad-request"
    http_status = 400


class UnknownSolverError(ServiceError):
    """The request named a solver absent from the registry."""

    code = "unknown-solver"
    http_status = 400


class UnknownPresetError(ServiceError):
    """The request named a scenario preset absent from the gallery."""

    code = "unknown-preset"
    http_status = 400


class UnstableModelError(ServiceError):
    """The requested model violates the stability condition (paper Eq. 11).

    The in-process facade reports unstable models as infinite metrics, but
    infinities do not survive strict JSON, so the service rejects them at
    admission with a structured error instead.
    """

    code = "unstable-model"
    http_status = 422


class PayloadTooLargeError(ServiceError):
    """The request body exceeded the configured size bound."""

    code = "payload-too-large"
    http_status = 413


class QueueFullError(ServiceError):
    """Admission control rejected the request: the work queue is at capacity.

    The front raises it when the target shard already has ``max_queue``
    requests in flight, a shard's scheduler when it holds ``max_queue``
    distinct pending computations.  Clients should back off for
    ``retry_after`` seconds (also sent as the ``Retry-After`` header) and
    retry.
    """

    code = "queue-full"
    http_status = 429


class LoadShedError(ServiceError):
    """Tiered admission control shed the request before it reached a shard.

    Under sustained overload the front sheds the cheapest-to-recompute
    query kinds first (steady-state before scenario before transient), so
    expensive work that is costly to redo keeps its queue slot the longest.
    The payload carries the target ``shard`` and the ``shed_tier`` (the query
    kind that was shed) so clients and dashboards can attribute rejections.
    """

    code = "load-shed"
    http_status = 429

    def __init__(
        self,
        message: str,
        *,
        shard: int,
        tier: str,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message, retry_after=retry_after)
        self.shard = shard
        self.tier = tier

    def payload(self) -> dict[str, object]:
        error = super().payload()
        error["shard"] = self.shard
        error["shed_tier"] = self.tier
        return error


class WorkerCrashedError(ServiceError):
    """The worker process owning the request's shard died mid-request.

    The pool restarts the worker (same shard, same ring position) in the
    background; the request itself is lost, so the error is marked
    ``retryable`` — an immediate retry lands on the replacement worker.
    """

    code = "worker-crashed"
    http_status = 503

    def __init__(
        self,
        message: str,
        *,
        shard: int,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message, retry_after=retry_after)
        self.shard = shard

    def payload(self) -> dict[str, object]:
        error = super().payload()
        error["shard"] = self.shard
        error["retryable"] = True
        return error


class DeadlineExceededError(ServiceError):
    """The per-request deadline expired before the solution was ready.

    The underlying computation is *not* cancelled — other coalesced waiters
    may still need it, and once finished it populates the cache, so an
    immediate retry usually succeeds instantly.
    """

    code = "deadline-exceeded"
    http_status = 504


class SolveFailedError(ServiceError):
    """Every solver in the requested fallback chain failed."""

    code = "solve-failed"
    http_status = 500


class ServiceClosedError(ServiceError):
    """The service is shutting down and no longer accepts work."""

    code = "shutting-down"
    http_status = 503


class NotFoundError(ServiceError):
    """No such endpoint."""

    code = "not-found"
    http_status = 404


class MethodNotAllowedError(ServiceError):
    """The endpoint exists but not for this HTTP method."""

    code = "method-not-allowed"
    http_status = 405
