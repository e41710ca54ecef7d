"""Exception hierarchy for the :mod:`repro` package.

Every error raised by library code derives from :class:`ReproError`, so
callers can catch one base class at API boundaries while still being able
to discriminate failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class SchemaError(ReproError):
    """A table does not conform to the expected :class:`TableSchema`."""


class NotFittedError(ReproError):
    """A stateful component was used before ``fit`` was called."""


class GraphConstructionError(ReproError):
    """The feature graph could not be constructed or validated."""


class TrainingError(ReproError):
    """Model training failed (diverged, empty data, bad configuration)."""


class ValidationError(ReproError):
    """Data-quality validation could not be performed."""


class RepairError(ReproError):
    """Repair-suggestion generation failed."""


class ConfigurationError(ReproError):
    """An invalid configuration value was supplied."""


class RuleConfigError(ConfigurationError):
    """A declarative rule set is malformed or incompatible with a pipeline.

    Raised while parsing rule JSON (unknown predicate, bad severity,
    duplicate id) or while compiling a :class:`~repro.rules.RuleSet`
    against a preprocessor (unknown column, kind mismatch). Distinct
    from :class:`ConfigurationError` so transports can map it to
    HTTP 422 (unprocessable configuration) rather than 400, and so
    clients never retry it as transient."""


class SerializationError(ReproError):
    """Model or state (de)serialization failed."""


class KernelExportError(ReproError):
    """A module could not be compiled into a pure-NumPy inference kernel."""


class ProtocolError(SerializationError):
    """A wire payload failed the ``schema_version``/``kind`` gate or is malformed."""


class FrameError(ProtocolError):
    """A binary columnar frame is malformed, truncated, or inconsistent."""


class FrameSizeError(FrameError):
    """A frame declares a size beyond the caller's permitted bounds.

    Distinct from :class:`FrameError` so transports can map it to
    HTTP 413 (too large) rather than 400 (malformed)."""


class TransientServiceError(ReproError):
    """A server-side interruption (e.g. a router with no healthy replica)
    hit an otherwise well-formed request; retrying is expected to succeed."""


class AdmissionError(ReproError):
    """The request scheduler's bounded queue refused a request.

    Backpressure, not failure: the pipeline's queue is at its configured
    depth and accepting more work would only grow latency unboundedly.
    Transports map this to HTTP 429 with a ``Retry-After`` header built
    from :attr:`retry_after` (seconds); retrying after that delay is
    expected to succeed once the queue drains."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class GatewayError(ReproError):
    """An HTTP serving request failed (client-side view of a gateway error).

    ``status`` carries the HTTP status code when the failure came from a
    gateway response (``None`` for client-side failures), letting
    callers distinguish negotiation refusals (415) from genuine errors.

    ``retry_after`` carries the parsed ``Retry-After`` header (seconds)
    when the gateway sent one — populated on 429 admission rejections so
    the client's bounded-backoff retry can honor the server's hint.
    """

    def __init__(
        self, message: str, status: int | None = None, retry_after: float | None = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after
