"""The ``/v1`` HTTP contract shared by every server in :mod:`repro.serve`.

Both servers — :class:`~repro.serve.transport.AsyncGateway` in front of
one :class:`ValidationService` and
:class:`~repro.serve.router.RouterGateway` in front of a fleet of them —
answer the same routes with the same payloads and the same errors, and
this module holds what they share: the route patterns, query-parameter
parsing, the health envelope, ``Accept-Encoding`` and ``Retry-After``
handling, and the exception → status mapping. The routes:

* ``GET  /v1/healthz`` — liveness + protocol version;
* ``GET  /v1/pipelines`` — :class:`ServiceStats` snapshot (per-pipeline
  residency and counters);
* ``GET  /v1/pipelines/{name}/monitor`` — the pipeline's
  :class:`~repro.monitor.monitor.MonitorSnapshot` (rolling-window drift
  scores, flag-rate control chart, recent alerts);
* ``GET  /v1/metrics`` — Prometheus text exposition of service stats
  and every live drift monitor;
* ``POST /v1/pipelines/{name}/validate`` — JSON records in, a
  :class:`ValidationReport` envelope out (sparse flagged-cell encoding
  by default; ``include_errors`` switches to dense);
* ``POST /v1/pipelines/{name}/repair`` — records in; repaired records,
  the :class:`RepairSummary`, and the pre-repair report out;
* ``POST /v1/pipelines/{name}/validate_stream`` — NDJSON chunks in
  (Content-Length or chunked transfer encoding), an NDJSON response
  out: one acknowledgement line per processed chunk, then the final
  :class:`StreamSummary` envelope. Rides
  :class:`~repro.runtime.streaming.StreamingValidator`, so memory stays
  bounded by the chunk size regardless of stream length;
* ``PUT/GET/DELETE /v1/pipelines/{name}/rules`` — attach, fetch, or
  detach a declarative :class:`~repro.rules.RuleSet`. Attached rules
  are compiled eagerly (malformed or pipeline-incompatible sets are
  refused with HTTP 422, never retried by clients) and every validate
  path — JSON, framed, streamed — then fuses rule verdicts into its
  reports.

Wire negotiation: every POST endpoint also speaks the binary columnar
frame codec (:mod:`repro.api.framing`, ``application/x-repro-frame``).
A framed *request* is selected by ``Content-Type`` — validate/repair
take one frame (rows as columns, options in the JSON sidecar), the
streaming endpoint takes back-to-back frames (one per chunk, exactly a
:class:`~repro.api.framing.FrameFileWriter` file). A framed *response*
is selected by ``Accept`` on validate (report frame) and repair
(repaired table + summary/report sidecar); the streaming response stays
NDJSON — acks and the summary are tiny. JSON remains the default and
compatibility tier. Additionally, JSON responses are gzip-compressed
when ``Accept-Encoding: gzip`` is present, and gzipped request bodies
(``Content-Encoding: gzip``) are accepted with ``max_body_bytes``
enforced on the *decompressed* size.

Parallelism: a gateway's scheduler admits every engine call (so
``/repair`` and streams answer 429 like ``/validate``), which then runs
on one pool of threads, one per CPU the process may use; a router fleet
spreads streams over hosts. A ``workers`` body field or query parameter
that an older client sends is ignored.

Errors come back as ``{"kind": "error", ...}`` envelopes with
conventional status codes (:func:`failure_status`): 400 malformed, 404
unknown, 413 oversized body, 415 unsupported encoding, 422 rule config,
429 admission (+ ``Retry-After``), 503 transient, and 500 internal.
"""

from __future__ import annotations

import math
import re
from urllib.parse import parse_qs

import repro
from repro.api import framing
from repro.api.protocol import envelope
from repro.exceptions import (
    AdmissionError,
    FrameSizeError,
    ReproError,
    RuleConfigError,
    TransientServiceError,
)

__all__ = [
    "accepts_gzip",
    "failure_status",
    "format_retry_after",
    "health_payload",
    "parse_query_flag",
]

_ROUTE = re.compile(r"^/v1/pipelines/(?P<name>[^/]+)/(?P<action>validate|repair|validate_stream)$")
_MONITOR_ROUTE = re.compile(r"^/v1/pipelines/(?P<name>[^/]+)/monitor$")
_RULES_ROUTE = re.compile(r"^/v1/pipelines/(?P<name>[^/]+)/rules$")


class _RequestError(Exception):
    """Internal: carry an HTTP status + message to the error encoder."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _error_payload(status: int, message: str) -> dict:
    payload = envelope("error")
    payload.update(status=status, error=message)
    return payload


def parse_query_flag(query: str, name: str) -> bool:
    """Parse a boolean query parameter (``?name=1``/``true``; absent = False)."""
    values = parse_qs(query).get(name)
    if not values:
        return False
    value = values[-1].strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off", ""):
        return False
    raise _RequestError(400, f"{name!r} must be a boolean flag, got {values[-1]!r}")


def format_retry_after(seconds: float) -> str:
    """RFC 9110 delta-seconds: whole seconds, rounded up, never ``0``.

    Retry-After does not speak fractions, and ``0`` would invite an
    immediate hammer — every server sends its hints through this one
    formatter.
    """
    return str(max(1, math.ceil(seconds)))


def accepts_gzip(header: str | None) -> bool:
    """True when an ``Accept-Encoding`` header admits gzip (q>0)."""
    for token in (header or "").split(","):
        name, _, params = token.partition(";")
        if name.strip().lower() != "gzip":
            continue
        params = params.replace(" ", "").lower()
        if params.startswith("q="):
            try:
                return float(params[2:]) > 0.0
            except ValueError:
                return True
        return True
    return False


def health_payload(service, draining: bool = False) -> dict:
    """A gateway's ``/v1/healthz`` envelope.

    ``draining=True`` reports ``status: "draining"`` — the gateway has
    begun ``close()`` and is finishing in-flight work. Servers pair it
    with HTTP 503 so load balancers and the router stop sending new
    traffic before the socket actually goes away.
    """
    payload = envelope("health")
    payload.update(
        status="draining" if draining else "ok",
        version=repro.__version__,
        pipelines=len(service.registered),
        # Capability advertisement for client-side negotiation: a
        # client probes this once, then speaks frames only to
        # gateways that list the frame content type (older gateways
        # lack the field entirely → JSON fallback).
        wire_formats=["application/json", framing.FRAME_CONTENT_TYPE],
        frame_version=framing.FRAME_VERSION,
    )
    return payload


def failure_status(exc: Exception) -> tuple[int, str, float | None]:
    """Map an exception to ``(HTTP status, message, Retry-After seconds)``.

    Every server answers through it, so all speak the same error
    contract. ``Retry-After`` is ``None`` except for admission
    rejections (429 backpressure). A 500 means the server should also
    log the traceback (the only non-client-caused branch).
    """
    if isinstance(exc, _RequestError):
        return exc.status, str(exc), None
    if isinstance(exc, AdmissionError):
        # The scheduler's bounded queue refused the request: pure
        # backpressure. 429 + Retry-After tells a well-behaved client
        # when the queue is expected to have drained.
        return 429, str(exc), max(exc.retry_after, 0.0)
    if isinstance(exc, TransientServiceError):
        # Well-formed request hit a server-side interruption (e.g. no
        # healthy replica behind a router); a retry is expected to
        # succeed, so signal retryable, not client error.
        return 503, str(exc), None
    if isinstance(exc, FrameSizeError):
        # A frame declaring more bytes than max_body_bytes permits —
        # the framed analogue of an oversized Content-Length. Checked
        # before FrameError's ReproError branch so it maps to 413,
        # not 400.
        return 413, str(exc), None
    if isinstance(exc, RuleConfigError):
        # Well-formed JSON describing an unusable rule set (unknown
        # predicate/column, unfitted category, severity conflict, …):
        # semantically unprocessable, not malformed — 422, checked
        # before the ReproError → 400 branch. Clients must never
        # retry it as transient.
        return 422, str(exc), None
    if isinstance(exc, ReproError):
        # Covers ProtocolError (bad envelopes) and SchemaError
        # (records that don't fit the pipeline) among others — all
        # client-caused.
        return 400, str(exc), None
    return 500, f"internal error: {exc}", None
