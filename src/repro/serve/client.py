"""Stdlib HTTP client for the validation servers.

A thin :class:`Client` over ``http.client`` that speaks the
:mod:`repro.api` protocol: requests go out as JSON records or binary
columnar frames, responses come back decoded into the same objects the
in-process API returns (:class:`ValidationReport`, :class:`RepairSummary`,
:class:`StreamSummary`, :class:`ServiceStats`).

Wire negotiation: with the default ``wire="auto"`` the client probes
``/v1/healthz`` once and, when the gateway advertises
``application/x-repro-frame``, sends :class:`~repro.data.table.Table`
payloads as binary frames (and asks for framed responses) — falling
back to JSON transparently for record-list payloads, older gateways,
or a 415 refusal. ``wire="json"`` pins the compatibility tier;
``wire="frame"`` requires frames and fails loudly when unavailable.

>>> client = Client(port=8080)                       # doctest: +SKIP
>>> report = client.validate("hotel", table)         # doctest: +SKIP
>>> report.is_problematic, report.flagged_rows       # doctest: +SKIP
"""

from __future__ import annotations

import gzip
import json
import threading
import time
from http.client import BadStatusLine, HTTPConnection, HTTPResponse, HTTPSConnection
from typing import Iterable, Iterator
from urllib.parse import quote, urlsplit

from repro.api import framing
from repro.api.protocol import check_envelope
from repro.api.requests import RepairRequest, ValidateRequest
from repro.core.repair import RepairSummary
from repro.core.validator import ValidationReport
from repro.data.table import Table
from repro.exceptions import FrameError, GatewayError
from repro.runtime.service import ServiceStats
from repro.runtime.streaming import StreamSummary

__all__ = ["Client"]


def _as_records(rows: "Table | list[dict]") -> list[dict]:
    return rows.to_records() if isinstance(rows, Table) else list(rows)


class Client:
    """Talks to an :class:`~repro.serve.transport.AsyncGateway` or a
    :class:`~repro.serve.router.RouterGateway` (same ``/v1`` protocol).

    Connections are pooled: each calling thread keeps one persistent
    keep-alive connection (the servers speak HTTP/1.1), so request
    latency is not dominated by TCP handshakes under load. A stale
    pooled socket — the server closed an idle keep-alive between
    requests — is detected (``BadStatusLine`` / connection reset before
    any response bytes arrive) and retried exactly once on a fresh
    connection; since no response ever started, the resend cannot
    double-execute a request, and status-level retries stay with the
    503/429 guard in :meth:`_retry_once_on_503`. Responses the server
    tags ``Connection: close`` (error envelopes) drop the socket instead
    of pooling it. :meth:`close` releases every pooled socket; the
    client is also a context manager.
    """

    #: scheme → default port, for URLs that do not spell one out
    _SCHEME_PORTS = {"http": 80, "https": 443}

    _WIRE_MODES = ("auto", "json", "frame")

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        timeout: float = 60.0,
        scheme: str = "http",
        wire: str = "auto",
    ) -> None:
        if scheme not in self._SCHEME_PORTS:
            raise GatewayError(
                f"unsupported URL scheme {scheme!r}; this client speaks http and https"
            )
        if wire not in self._WIRE_MODES:
            raise GatewayError(f"unknown wire mode {wire!r}; use auto, json, or frame")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.scheme = scheme
        self.wire = wire
        # None = not probed yet; True/False = gateway capability, cached
        # for the client's lifetime (capabilities don't change mid-run).
        self._gateway_speaks_frames: bool | None = None
        # Per-thread parked keep-alive connection (a Client may be used
        # from several threads at once; sharing one socket would
        # interleave their requests), plus a registry of every live
        # connection so close() can release them all.
        self._local = threading.local()
        self._conns: "set[HTTPConnection]" = set()
        self._conns_lock = threading.Lock()

    def close(self) -> None:
        """Release every pooled connection (all threads').

        Not a terminal state: a later request simply opens a fresh
        connection. Context-manager exit calls this.
        """
        with self._conns_lock:
            connections, self._conns = self._conns, set()
        for connection in connections:
            try:
                connection.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        # Drop every thread's parked reference in one move.
        self._local = threading.local()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @classmethod
    def from_url(cls, url: str, timeout: float = 60.0, wire: str = "auto") -> "Client":
        """Build from a gateway URL, honoring its scheme.

        ``https://host`` connects over TLS on 443 (not silently over
        plain HTTP on 80); an explicit ``:port`` always wins; schemes
        other than http/https raise :class:`GatewayError`. Scheme-less
        forms (``host`` or ``host:port``) are treated as plain HTTP to
        the named host — never silently redirected elsewhere.
        """
        parts = urlsplit(url)
        if parts.hostname is None and parts.scheme not in cls._SCHEME_PORTS:
            # "host" lands in path, "host:port" is misread as a scheme;
            # re-split as a network location to recover the real host.
            parts = urlsplit("//" + url)
        scheme = parts.scheme or "http"
        if scheme not in cls._SCHEME_PORTS:
            raise GatewayError(
                f"unsupported URL scheme {scheme!r} in {url!r}; "
                "this client speaks http and https"
            )
        if parts.hostname is None:
            raise GatewayError(f"no host in gateway URL {url!r}")
        try:
            port = parts.port
        except ValueError as exc:
            raise GatewayError(f"invalid port in gateway URL {url!r}: {exc}") from None
        return cls(
            host=parts.hostname,
            port=port or cls._SCHEME_PORTS[scheme],
            timeout=timeout,
            scheme=scheme,
            wire=wire,
        )

    # -- wire negotiation --------------------------------------------------
    def _use_frames(self, framable: bool = True) -> bool:
        """Decide the wire tier for one call.

        ``framable`` is False when the payload cannot ride a frame (bare
        record lists carry no schema to encode against) — those calls
        stay JSON regardless of mode, except ``wire="frame"`` which
        refuses rather than silently downgrade.
        """
        if self.wire == "json":
            return False
        if not framable:
            if self.wire == "frame":
                raise GatewayError(
                    "wire='frame' requires Table payloads (record lists carry "
                    "no schema to encode a frame against)"
                )
            return False
        if self.wire == "frame":
            return True
        if self._gateway_speaks_frames is None:
            try:
                health = self.healthz()
            except GatewayError:
                # Unreachable or unhealthy: let the actual call surface
                # the real error over the compatibility tier.
                return False
            formats = health.get("wire_formats")
            self._gateway_speaks_frames = isinstance(formats, list) and any(
                framing.matches_frame_content_type(str(f)) for f in formats
            )
        return self._gateway_speaks_frames

    def _frame_refused(self, exc: GatewayError) -> bool:
        """A 415 means the server does not speak frames: fall back once."""
        if self.wire == "auto" and exc.status == 415:
            self._gateway_speaks_frames = False
            return True
        return False

    # -- endpoints ---------------------------------------------------------
    def healthz(self) -> dict:
        return check_envelope(self._request("GET", "/v1/healthz"), "health")

    def pipelines(self) -> ServiceStats:
        """Service stats snapshot: per-pipeline residency + counters."""
        return ServiceStats.from_dict(self._request("GET", "/v1/pipelines"))

    def monitor(self, pipeline: str) -> "MonitorSnapshot":
        """Drift-monitor snapshot of one pipeline (scores, chart, alerts)."""
        from repro.monitor import MonitorSnapshot

        payload = self._request(
            "GET", f"/v1/pipelines/{quote(pipeline, safe='')}/monitor"
        )
        return MonitorSnapshot.from_dict(payload)

    def metrics(self) -> str:
        """The gateway's Prometheus text exposition, verbatim."""
        return self._request_raw("GET", "/v1/metrics")[0].decode("utf-8")

    def validate(
        self,
        pipeline: str,
        rows: "Table | list[dict]",
        include_errors: bool = False,
    ) -> ValidationReport:
        """Validate rows remotely; returns the decoded report.

        With ``include_errors=False`` (the wire-efficient default) the
        decoded report's flags, threshold, and verdict are exact, and its
        error values are populated only at flagged coordinates.
        Table payloads ride the binary frame tier when negotiated (see
        the module docstring); record lists always go as JSON.

        A 503 (the *retryable* signal, e.g. a router that momentarily
        has no healthy replica) is retried exactly once; every 4xx —
        including 422 rule-configuration rejections — is deterministic
        and surfaces immediately.
        """
        path = f"/v1/pipelines/{quote(pipeline, safe='')}/validate"
        if self._use_frames(framable=isinstance(rows, Table)):
            request = ValidateRequest(pipeline=pipeline, include_errors=include_errors)
            body = framing.encode_frame(table=rows, extra=request.to_options())
            try:
                raw, content_type = self._retry_once_on_503(
                    lambda: self._request_raw(
                        "POST", path, body=body, content_type=framing.FRAME_CONTENT_TYPE,
                        accept=framing.FRAME_CONTENT_TYPE,
                    )
                )
            except GatewayError as exc:
                if not self._frame_refused(exc):
                    raise
            else:
                return self._decode_report(raw, content_type)
        request = ValidateRequest(
            records=_as_records(rows),
            pipeline=pipeline,
            include_errors=include_errors,
        )
        payload = self._retry_once_on_503(
            lambda: self._request("POST", path, request.to_dict())
        )
        return ValidationReport.from_dict(payload)

    #: ceiling on how long a 429's Retry-After hint may stall the client
    RETRY_AFTER_CAP = 5.0

    @classmethod
    def _retry_once_on_503(cls, call):
        """Run ``call``, retrying exactly once on a transient status.

        503 is the server's retryable signal (TransientServiceError, e.g.
        a router whose replicas are all marked down until the next health
        probe) and is retried immediately. 429 is the
        scheduler's admission backpressure; the client honors the
        gateway's ``Retry-After`` hint — bounded by
        :attr:`RETRY_AFTER_CAP` so a hostile or confused server cannot
        stall the caller — then retries exactly once. Anything else —
        notably 422 rule-config rejections and all other 4xx — is
        deterministic: retrying would just repeat the failure, so it
        propagates unchanged.
        """
        try:
            return call()
        except GatewayError as exc:
            if exc.status == 503:
                return call()
            if exc.status == 429:
                delay = 1.0 if exc.retry_after is None else exc.retry_after
                time.sleep(min(max(delay, 0.0), cls.RETRY_AFTER_CAP))
                return call()
            raise

    # -- declarative rules -------------------------------------------------
    def set_rules(self, pipeline: str, rules) -> "RuleSet":
        """Attach a declarative rule set to a pipeline on the gateway.

        ``rules`` is a :class:`~repro.rules.RuleSet`, a rule-set payload
        dict, or a path to a JSON rule file. The gateway compiles it
        eagerly against the pipeline — incompatible sets come back as
        HTTP 422 (:class:`GatewayError` with ``status == 422``), which
        is deterministic and never retried. Returns the canonical stored
        form.
        """
        from repro.rules import RuleSet, resolve_ruleset

        ruleset = resolve_ruleset(rules)
        if ruleset is None:
            raise GatewayError("set_rules requires a rule set; use delete_rules to remove one")
        payload = self._request(
            "PUT", f"/v1/pipelines/{quote(pipeline, safe='')}/rules", ruleset.to_dict()
        )
        return RuleSet.from_dict(payload)

    def get_rules(self, pipeline: str) -> "RuleSet | None":
        """The rule set attached to a pipeline (``None`` when rules are off)."""
        from repro.rules import RuleSet

        try:
            payload = self._request(
                "GET", f"/v1/pipelines/{quote(pipeline, safe='')}/rules"
            )
        except GatewayError as exc:
            if exc.status == 404 and "no rule set attached" in str(exc):
                return None
            raise
        return RuleSet.from_dict(payload)

    def delete_rules(self, pipeline: str) -> bool:
        """Detach a pipeline's rule set; True when one was attached."""
        payload = self._request(
            "DELETE", f"/v1/pipelines/{quote(pipeline, safe='')}/rules"
        )
        return bool(check_envelope(payload, "rules_deleted").get("deleted"))

    def repair(
        self,
        pipeline: str,
        rows: "Table | list[dict]",
        iterations: int = 1,
        include_errors: bool = False,
        as_table: bool = False,
    ) -> tuple:
        """Repair rows remotely; returns (repaired rows, summary, report).

        Repaired rows come back as records by default; ``as_table=True``
        returns a :class:`Table` instead (decoded zero-copy from the
        frame tier when negotiated).
        """
        path = f"/v1/pipelines/{quote(pipeline, safe='')}/repair"
        if self._use_frames(framable=isinstance(rows, Table)):
            request = RepairRequest(
                pipeline=pipeline, iterations=iterations, include_errors=include_errors
            )
            body = framing.encode_frame(table=rows, extra=request.to_options())
            try:
                raw, content_type = self._request_raw(
                    "POST", path, body=body, content_type=framing.FRAME_CONTENT_TYPE,
                    accept=framing.FRAME_CONTENT_TYPE,
                )
            except GatewayError as exc:
                if not self._frame_refused(exc):
                    raise
            else:
                if framing.matches_frame_content_type(content_type):
                    frame = self._decode_frame_response(raw)
                    payload = check_envelope(frame.extra, "repair_response")
                    if frame.table is None:
                        raise GatewayError("framed repair response carries no table")
                    repaired = frame.table if as_table else frame.table.to_records()
                    return (
                        repaired,
                        RepairSummary.from_dict(payload["repair"]),
                        ValidationReport.from_dict(payload["report"]),
                    )
                raise GatewayError(
                    f"expected a framed repair response, got {content_type!r}"
                )
        request = RepairRequest(
            records=_as_records(rows),
            pipeline=pipeline,
            iterations=iterations,
            include_errors=include_errors,
        )
        payload = self._request("POST", path, request.to_dict())
        check_envelope(payload, "repair_response")
        records = payload["records"]
        if as_table:
            # Rebuild against the repaired records' own field set is not
            # possible client-side (no schema); as_table over JSON needs
            # the caller's schema — use the input table's when given.
            if not isinstance(rows, Table):
                raise GatewayError(
                    "as_table=True over the JSON tier requires a Table input "
                    "(the client needs its schema to rebuild the result)"
                )
            records = Table.from_records(rows.schema, records)
        return (
            records,
            RepairSummary.from_dict(payload["repair"]),
            ValidationReport.from_dict(payload["report"]),
        )

    def validate_stream(
        self,
        pipeline: str,
        chunks: "Iterable[Table | list[dict] | bytes]",
    ) -> StreamSummary:
        """Stream row chunks through ``/validate_stream``.

        Chunks are sent with chunked transfer encoding, so neither side
        ever holds the full stream; the gateway's per-chunk
        acknowledgements are consumed and the final :class:`StreamSummary`
        returned.

        ``bytes`` chunks are already-encoded frames, forwarded verbatim
        on the frame tier — so :func:`repro.api.framing.iter_file_frames`
        uploads a frame file with zero re-encoding. Table and record-list
        chunks go as NDJSON unless ``wire="frame"`` is pinned, which
        encodes each :class:`Table` chunk as a frame (record lists are
        then rejected: they carry no schema to encode against).
        """
        # Peek one chunk to pick the wire tier; an empty stream goes out
        # as an empty NDJSON body so the gateway's own 400 surfaces.
        chunk_iter = iter(chunks)
        sentinel = object()
        first = next(chunk_iter, sentinel)

        def rest() -> Iterator:
            if first is not sentinel:
                yield first
            yield from chunk_iter

        bytes_first = first is not sentinel and isinstance(
            first, (bytes, bytearray, memoryview)
        )
        # Stream negotiation is conservative: under "auto", frames are
        # used only for pre-encoded frame-bytes chunks (the tier is then
        # mandatory, not preferred). Table/record chunks stay NDJSON so
        # mixed streams keep their JSON-tier semantics; pin wire="frame"
        # to stream Table chunks as frames.
        if self.wire == "frame":
            use_frames = self._use_frames(framable=True)
        elif bytes_first:
            use_frames = self._use_frames(framable=True)
        else:
            use_frames = False

        if use_frames:
            content_type = framing.FRAME_CONTENT_TYPE

            def body() -> "Iterable[bytes]":
                for chunk in rest():
                    if isinstance(chunk, (bytes, bytearray, memoryview)):
                        yield bytes(chunk)
                    elif isinstance(chunk, Table):
                        yield framing.encode_frame(table=chunk)
                    else:
                        raise GatewayError(
                            "framed streams take Table or frame-bytes chunks; "
                            f"got {type(chunk).__name__} (use wire='json' for "
                            "record lists)"
                        )
        else:
            if bytes_first:
                raise GatewayError(
                    "frame-bytes chunks need the frame tier, but the gateway "
                    "does not speak it (or wire='json' is pinned)"
                )
            content_type = "application/x-ndjson"

            def body() -> "Iterable[bytes]":
                for chunk in rest():
                    yield json.dumps({"records": _as_records(chunk)}).encode("utf-8") + b"\n"

        path = f"/v1/pipelines/{quote(pipeline, safe='')}/validate_stream"
        # Streams always open a dedicated connection: the chunked body is
        # a one-shot generator, so a stale pooled socket could not be
        # retried transparently. On clean completion the (fully drained)
        # connection is parked for this thread's next request.
        connection = self._connect()
        try:
            try:
                connection.request(
                    "POST",
                    path,
                    body=body(),
                    headers={"Content-Type": content_type},
                    encode_chunked=True,
                )
            except (BrokenPipeError, ConnectionResetError):
                # The gateway rejects a bad stream as soon as it sees it
                # and stops reading; our remaining upload then fails at
                # the socket. Its error response is usually already in
                # the receive buffer — surface that instead of the pipe.
                pass
            response = connection.getresponse()
            if response.status >= 400:
                raise self._error_from(
                    response.status, response.read(), response.getheader("Retry-After")
                )
            summary: StreamSummary | None = None
            for raw in response:
                line = raw.strip()
                if not line:
                    continue
                payload = json.loads(line)
                kind = payload.get("kind")
                if kind == "stream_chunk":
                    continue
                if kind == "error":
                    raise GatewayError(
                        f"gateway error {payload.get('status')}: {payload.get('error')}",
                        status=payload.get("status"),
                    )
                summary = StreamSummary.from_dict(payload)
            if summary is None:
                raise GatewayError("stream response ended without a summary")
            # Line iteration stops at EOF without marking the response
            # closed; an explicit drain does, so the connection is truly
            # reusable when parked.
            response.read()
        except BaseException:
            self._discard(connection)
            raise
        if response.will_close or not response.isclosed():
            self._discard(connection)
        else:
            self._park(connection)
        return summary

    def validate_frame_file(self, pipeline: str, path) -> StreamSummary:
        """Stream a frame file through ``/validate_stream`` without decoding.

        Raw frames are read off disk and forwarded verbatim (see
        :func:`repro.api.framing.iter_file_frames`), so a file larger
        than RAM uploads in bounded memory on both ends. Requires the
        frame tier (``wire="json"`` or an old gateway raises).
        """
        if not self._use_frames(framable=True):
            raise GatewayError(
                "validate_frame_file needs the frame tier, but the gateway "
                "does not speak it (or wire='json' is pinned)"
            )
        return self.validate_stream(pipeline, framing.iter_file_frames(path))

    # -- plumbing ----------------------------------------------------------
    #: socket failures that mean a pooled keep-alive went stale under us
    #: (RemoteDisconnected subclasses both BadStatusLine and
    #: ConnectionResetError, so it is covered twice over)
    _STALE_SOCKET_ERRORS = (
        BadStatusLine,
        ConnectionResetError,
        BrokenPipeError,
        ConnectionAbortedError,
    )

    def _connect(self) -> HTTPConnection:
        if self.scheme == "https":
            connection = HTTPSConnection(self.host, self.port, timeout=self.timeout)
        else:
            connection = HTTPConnection(self.host, self.port, timeout=self.timeout)
        with self._conns_lock:
            self._conns.add(connection)
        return connection

    def _acquire(self) -> "tuple[HTTPConnection, bool]":
        """This thread's parked connection (reused=True) or a fresh one."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            self._local.connection = None
            return connection, True
        return self._connect(), False

    def _park(self, connection: HTTPConnection) -> None:
        """Keep a healthy connection for this thread's next request."""
        parked = getattr(self._local, "connection", None)
        if parked is not None and parked is not connection:
            self._discard(parked)
        self._local.connection = connection

    def _discard(self, connection: HTTPConnection) -> None:
        if getattr(self._local, "connection", None) is connection:
            self._local.connection = None
        with self._conns_lock:
            self._conns.discard(connection)
        try:
            connection.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    def _request(self, method: str, path: str, payload: dict | None = None) -> dict:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        content_type = None if body is None else "application/json"
        return json.loads(self._request_raw(method, path, body=body, content_type=content_type)[0])

    def _request_raw(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        content_type: str | None = None,
        accept: str | None = None,
    ) -> tuple[bytes, str]:
        """One request → (decompressed body bytes, response content type).

        Rides the calling thread's pooled connection. A stale socket is
        retried once on a fresh connection *only* when the failed
        attempt reused a pooled socket and died before any response
        bytes — the server demonstrably never answered, so the resend
        cannot double-execute even a non-idempotent body. A fresh
        connection failing, or any failure after the status line,
        propagates unchanged.
        """
        headers = {"Accept-Encoding": "gzip"}
        if content_type is not None:
            headers["Content-Type"] = content_type
        if accept is not None:
            headers["Accept"] = accept
        for attempt in (0, 1):
            connection, reused = self._acquire()
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                break
            except self._STALE_SOCKET_ERRORS:
                self._discard(connection)
                if not reused or attempt:
                    raise
        try:
            raw = self._read_response(response)
        except BaseException:
            self._discard(connection)
            raise
        if response.will_close:
            # The server is hanging up after this response (our gateways
            # do on every error envelope) — don't pool a dead socket.
            self._discard(connection)
        else:
            self._park(connection)
        if response.status >= 400:
            raise self._error_from(
                response.status, raw, response.getheader("Retry-After")
            )
        return raw, response.getheader("Content-Type") or ""

    @staticmethod
    def _read_response(response: HTTPResponse) -> bytes:
        raw = response.read()
        if (response.getheader("Content-Encoding") or "").strip().lower() == "gzip":
            try:
                raw = gzip.decompress(raw)
            except (OSError, EOFError) as exc:
                raise GatewayError(f"malformed gzip response body: {exc}") from None
        return raw

    def _decode_report(self, raw: bytes, content_type: str) -> ValidationReport:
        if framing.matches_frame_content_type(content_type):
            return framing.report_from_frame(self._decode_frame_response(raw))
        return ValidationReport.from_dict(json.loads(raw))

    @staticmethod
    def _decode_frame_response(raw: bytes) -> "framing.Frame":
        try:
            return framing.decode_frame(raw)
        except FrameError as exc:
            raise GatewayError(f"malformed frame response: {exc}") from exc

    @staticmethod
    def _error_from(
        status: int, raw: bytes, retry_after_header: str | None = None
    ) -> GatewayError:
        try:
            message = json.loads(raw).get("error", raw.decode("utf-8", "replace"))
        except (json.JSONDecodeError, AttributeError):
            message = raw.decode("utf-8", "replace")
        retry_after = None
        if retry_after_header is not None:
            # Only the delta-seconds form is parsed (what our gateways
            # send); an HTTP-date or garbage header degrades to None and
            # the retry guard falls back to its 1s default.
            try:
                retry_after = max(float(retry_after_header.strip()), 0.0)
            except ValueError:
                pass
        return GatewayError(
            f"gateway error {status}: {message}", status=status, retry_after=retry_after
        )
