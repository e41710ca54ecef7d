"""Asyncio HTTP front — the one HTTP/1.1 server of the serving stack.

:class:`_HTTPFront` holds the server machinery: start/serve_forever,
close with drain, one keep-alive connection loop, request-head parsing,
incremental body reading (Content-Length or chunked, gzip, the
``max_body_bytes`` bounds, the interim ``100 Continue`` a client may ask
for), blocking work on the process's compute pool, and the response
writers. No thread per connection: a single ``asyncio`` event loop
parses HTTP and hands compute off to the pool. Two servers subclass it,
and each supplies only its ``_route``:

* :class:`AsyncGateway` (here) answers every ``/v1`` route — health,
  pipeline stats, metrics, monitor, rules, validate, repair,
  validate_stream, on both the JSON and binary-frame wire tiers, with
  gzip negotiation — from a local :class:`ValidationService`;
* :class:`~repro.serve.router.RouterGateway` answers the same routes
  from a fleet of worker replicas.

In the gateway the event loop itself never blocks, and every engine
call is admitted by the :class:`~repro.serve.scheduler.RequestScheduler`
(the fat half): a full queue surfaces as HTTP 429 + ``Retry-After`` —
admission control instead of unbounded latency.

* **validate** requests are coalesced: concurrent small requests for
  the same pipeline become one fused engine slab, and each request's
  future resolves with its own bit-identical report;
* **repair** (its validate and its repair, as one call) and each chunk
  of a **validate_stream** body (NDJSON lines or back-to-back frames,
  split incrementally on the loop, so memory stays O(chunk)) are jobs
  that go to the compute pool at once — the NumPy kernels release the
  GIL, so they overlap while the loop keeps accepting connections.
  Decodes and encodes (:meth:`_HTTPFront._run`) share the pool.

``close()`` drains: the listener stops, in-flight requests get
``drain_timeout`` seconds to finish, idle keep-alive connections are
cancelled, the work the front put on the pool finishes, and only then
does the gateway release its scheduler.

Errors map to statuses through the shared contract,
:func:`repro.serve.gateway.failure_status`.
"""

from __future__ import annotations

import asyncio
import gzip
import json
import threading
import zlib
from concurrent.futures import Future, wait
from http import HTTPStatus
from typing import AsyncIterator
from urllib.parse import SplitResult, unquote, urlsplit

from repro.api import framing
from repro.api.protocol import SCHEMA_VERSION, envelope, fold_context_to_dict
from repro.api.requests import RepairRequest, ValidateRequest, _records_of
from repro.data.table import Table
from repro.exceptions import SchemaError, ValidationError
from repro.monitor.export import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.runtime.engine import compute_pool
from repro.runtime.streaming import EMPTY_STREAM_MESSAGE
from repro.serve.gateway import (
    _MONITOR_ROUTE,
    _ROUTE,
    _RULES_ROUTE,
    _RequestError,
    _error_payload,
    accepts_gzip,
    failure_status,
    format_retry_after,
    health_payload,
    parse_query_flag,
)
from repro.serve.scheduler import RequestScheduler
from repro.utils.logging import get_logger

__all__ = ["AsyncGateway"]

logger = get_logger("serve.transport")

#: per-line ceiling for the request line and each header line
_MAX_LINE = 65536
_MAX_HEADERS = 200
_BLOCK = 65536


class _Request:
    """One parsed request head; the body stays on the stream reader."""

    __slots__ = ("method", "target", "path", "query", "headers")

    def __init__(
        self, method: str, target: str, url: SplitResult, headers: "dict[str, str]"
    ) -> None:
        self.method = method
        self.target = target
        self.path = url.path
        self.query = url.query
        self.headers = headers

    def header(self, name: str) -> str | None:
        return self.headers.get(name)


async def _read_headers(reader: asyncio.StreamReader) -> "dict[str, str]":
    """A request's or response's header lines up to the blank one, names
    lower-cased: at most ``_MAX_HEADERS`` (431), each ``name: value`` (400).
    A line over the reader's limit raises ValueError."""
    headers: "dict[str, str]" = {}
    for _ in range(_MAX_HEADERS):
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            return headers
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise _RequestError(400, "malformed header line")
        headers[name.strip().lower()] = value.strip()
    raise _RequestError(431, "too many header fields")


def _limit_error(limit: int) -> _RequestError:
    return _RequestError(413, f"request body exceeds the configured limit ({limit} bytes)")


async def _iter_lines(blocks: AsyncIterator[bytes], limit: int) -> AsyncIterator[bytes]:
    """Split a body into its non-blank lines, incrementally.

    Complete lines are yielded first; only the leftover partial line
    counts against ``limit``, so a newline-free stream cannot grow the
    buffer without bound.
    """
    buffer = b""
    async for block in blocks:
        buffer += block
        while b"\n" in buffer:
            line, buffer = buffer.split(b"\n", 1)
            if line.strip():
                yield line
        if len(buffer) > limit:
            raise _limit_error(limit)
    if buffer.strip():
        yield buffer


class _BodyReader:
    """Incremental request-body access.

    Three layers: transport framing (Content-Length or chunked, with
    declared sizes checked *before* allocation), optional gzip inflation
    (the body limit re-imposed on the decompressed size), and a
    ``bound_total`` switch — on for endpoints that buffer the whole
    body, off for the streaming endpoint whose total length is unbounded
    by design while per-block memory stays capped. :meth:`read_raw`
    skips the inflation: the router forwards bodies as received.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        request: _Request,
        limit: int,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.request = request
        self.limit = limit
        #: whether body bytes were pulled off the socket at all — a
        #: request whose declared body was never consumed poisons
        #: keep-alive (the remainder would parse as the next request)
        self.started = False

    def declares_body(self) -> bool:
        headers = self.request.headers
        if "chunked" in (headers.get("transfer-encoding") or "").lower():
            return True
        try:
            return int(headers.get("content-length") or 0) > 0
        except ValueError:
            return True

    async def _start(self) -> None:
        """Mark the body consumed and answer ``Expect: 100-continue``.

        A client that asks waits for the interim response before it
        sends the body (curl does for bodies over 1 MiB). It goes out
        only once a route reads the body, so a request refused before
        that gets its final status and a closed connection instead.
        """
        if self.started:
            return
        self.started = True
        if (self.request.header("expect") or "").strip().lower() == "100-continue":
            self.writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            await self.writer.drain()

    async def read_all(self) -> bytes:
        return b"".join([block async for block in self.iter_blocks(bound_total=True)])

    async def read_raw(self, bound_total: bool) -> bytes:
        """The body exactly as received (still gzipped, if it was)."""
        await self._start()
        return b"".join([block async for block in self._iter_transport(bound_total)])

    async def iter_blocks(self, bound_total: bool) -> AsyncIterator[bytes]:
        await self._start()
        encoding = (self.request.header("content-encoding") or "").strip().lower()
        if encoding in ("", "identity"):
            async for block in self._iter_transport(bound_total):
                yield block
            return
        if encoding != "gzip":
            raise _RequestError(
                415, f"unsupported Content-Encoding {encoding!r}; use gzip or identity"
            )
        async for block in self._iter_gunzip(bound_total):
            yield block

    async def _iter_gunzip(self, bound_total: bool) -> AsyncIterator[bytes]:
        decompressor = zlib.decompressobj(16 + zlib.MAX_WBITS)  # gzip wrapper
        total = 0

        def bounded(piece: bytes) -> bytes:
            nonlocal total
            total += len(piece)
            if bound_total and total > self.limit:
                raise _limit_error(self.limit)
            return piece

        try:
            async for block in self._iter_transport(bound_total=False):
                data = decompressor.decompress(block, _BLOCK)
                while True:
                    if data:
                        yield bounded(data)
                    if not decompressor.unconsumed_tail:
                        break
                    data = decompressor.decompress(decompressor.unconsumed_tail, _BLOCK)
            tail = decompressor.flush()
        except zlib.error as exc:
            raise _RequestError(400, f"malformed gzip request body: {exc}") from None
        if tail:
            yield bounded(tail)
        if not decompressor.eof:
            raise _RequestError(400, "truncated gzip request body")

    async def _iter_transport(self, bound_total: bool) -> AsyncIterator[bytes]:
        transfer = (self.request.header("transfer-encoding") or "").lower()
        if "chunked" in transfer:
            async for block in self._iter_chunked(bound_total):
                yield block
            return
        try:
            remaining = int(self.request.header("content-length") or 0)
        except ValueError:
            raise _RequestError(400, "malformed Content-Length header") from None
        if bound_total and remaining > self.limit:
            raise _limit_error(self.limit)
        while remaining > 0:
            block = await self.reader.read(min(remaining, _BLOCK))
            if not block:
                break
            remaining -= len(block)
            yield block

    async def _iter_chunked(self, bound_total: bool) -> AsyncIterator[bytes]:
        total = 0
        while True:
            size_line = (await self.reader.readline()).strip()
            try:
                size = int(size_line.split(b";", 1)[0], 16)
            except ValueError:
                raise _RequestError(400, "malformed chunked transfer encoding") from None
            if size == 0:
                # Consume optional trailers up to the terminating blank line.
                while (await self.reader.readline()).strip():
                    pass
                return
            if size > self.limit:
                raise _limit_error(self.limit)
            if bound_total:
                total += size
                if total > self.limit:
                    raise _limit_error(self.limit)
            yield await self.reader.readexactly(size)
            await self.reader.readexactly(2)  # trailing CRLF


class _HTTPFront:
    """The event-loop HTTP/1.1 server under both serving fronts.

    ``start()`` serves from a daemon thread and returns once bound,
    ``serve_forever()`` also blocks until the server stops, and
    ``port=0`` binds an ephemeral port (readable once the server is up).
    ``max_body_bytes`` bounds what a request may make the server buffer,
    refused with HTTP 413 before any allocation: the whole body for the
    buffered endpoints, each transfer chunk, NDJSON line or binary frame
    for streaming uploads — whose *total* length stays unbounded by
    design. For gzipped bodies the bound applies to the decompressed
    size. Blocking work (:meth:`_run`) goes to the process's compute
    pool: decodes, encodes and the router's range parses and folds, but
    never a socket call (the router's upstream I/O is on the loop too).
    A subclass implements :meth:`_route` and may override
    :meth:`_release`.
    """

    #: default request-body ceiling: 64 MiB
    DEFAULT_MAX_BODY_BYTES = 64 * 1024 * 1024

    #: how long close() waits for in-flight requests
    DEFAULT_DRAIN_TIMEOUT = 10.0

    #: name of the serving thread
    _thread_name = "repro-aserve"

    def __init__(self, host: str, port: int, max_body_bytes: int | None) -> None:
        self.host = host
        self._requested_port = port
        self._port: int | None = None
        self.max_body_bytes = (
            self.DEFAULT_MAX_BODY_BYTES if max_body_bytes is None else int(max_body_bytes)
        )
        if self.max_body_bytes < 1:
            raise ValueError(f"max_body_bytes must be positive, got {max_body_bytes}")
        #: what :meth:`_run` put on the compute pool and is not done yet
        self._jobs: "set[Future]" = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._stopped = threading.Event()
        self._startup_error: BaseException | None = None
        self._active = 0
        self._conn_tasks: "set[asyncio.Task]" = set()
        self._closed = False
        self._draining = False
        self._drain_timeout = self.DEFAULT_DRAIN_TIMEOUT

    # -- lifecycle ---------------------------------------------------------
    @property
    def port(self) -> int:
        return self._requested_port if self._port is None else self._port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self):
        """Serve from a background daemon thread; returns once bound."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run_loop, name=self._thread_name, daemon=True
            )
            self._thread.start()
            self._ready.wait(timeout=30.0)
            if self._startup_error is not None:
                raise self._startup_error
        return self

    def serve_forever(self) -> None:
        """:meth:`start`, then block until the server stops: :meth:`close`
        from another thread, or a signal handler raising on this one."""
        self.start()
        self._stopped.wait()
        if self._startup_error is not None:
            raise self._startup_error

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced to start()
            self._startup_error = exc
        finally:
            self._ready.set()
            self._stopped.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self._requested_port,
            limit=_MAX_LINE * 2,
        )
        self._port = server.sockets[0].getsockname()[1]
        logger.info(
            "%s serving on %s (schema_version %d)",
            type(self).__name__, self.url, SCHEMA_VERSION,
        )
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            # Drain: give in-flight requests their budget, then cancel
            # whatever is left (idle keep-alive readers included).
            deadline = self._loop.time() + self._drain_timeout
            while self._active > 0 and self._loop.time() < deadline:
                await asyncio.sleep(0.02)
            if self._active > 0:
                logger.warning(
                    "%s close: %d request(s) still in flight after %.1fs drain",
                    type(self).__name__, self._active, self._drain_timeout,
                )
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    def close(self, drain_timeout: float | None = None) -> None:
        """Graceful shutdown: stop listening, drain, release resources."""
        if self._closed:
            return
        self._closed = True
        # Health checks answer 503 "draining" from here on: keep-alive
        # connections still served during the drain window tell their
        # router/load balancer to take this server out of rotation.
        self._draining = True
        self._drain_timeout = (
            self.DEFAULT_DRAIN_TIMEOUT if drain_timeout is None else float(drain_timeout)
        )
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # loop already gone
                pass
            self._stopped.wait(timeout=self._drain_timeout + 30.0)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        wait(self._jobs.copy())  # this front's work only: the pool is shared
        self._release()

    def _release(self) -> None:
        """Free what the subclass owns, once nothing is served any more."""

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- connection handling -----------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                request = await self._read_head(reader, writer)
                if request is None:
                    break
                self._active += 1
                try:
                    keep_alive = await self._dispatch(request, reader, writer)
                finally:
                    self._active -= 1
                if not keep_alive:
                    break
                await writer.drain()
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _read_head(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> _Request | None:
        """One request head; None at EOF or once a malformed head is answered."""
        what = "request line"
        try:
            line = await reader.readline()
            if not line or not line.strip():
                return None  # EOF or idle close
            parts = line.decode("latin-1").split(None, 2)
            if len(parts) != 3:
                raise _RequestError(400, "malformed request line")
            method, target, version = parts
            if not version.strip().startswith("HTTP/1."):
                raise _RequestError(400, f"unsupported protocol {version.strip()!r}")
            try:
                url = urlsplit(target)
            except ValueError:  # e.g. an unclosed IPv6 bracket: "//[x"
                raise _RequestError(400, "malformed request target") from None
            what = "header line"
            headers = await _read_headers(reader)
        except (ValueError, asyncio.LimitOverrunError):
            await self._send_error(writer, None, _RequestError(400, f"{what} too long"))
            return None
        except _RequestError as exc:
            await self._send_error(writer, None, exc)
            return None
        return _Request(method.upper(), target, url, headers)

    async def _dispatch(
        self, request: _Request, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Route one request; returns whether the connection may persist."""
        body = _BodyReader(reader, writer, request, self.max_body_bytes)
        try:
            keep_alive = await self._route(request, body, writer)
        except Exception as exc:
            await self._send_error(writer, request, exc)
            return False
        if keep_alive is False:
            return False
        if (request.header("connection") or "").strip().lower() == "close":
            return False
        if body.declares_body() and not body.started:
            # Unconsumed body bytes would misparse as the next request.
            return False
        return True

    async def _route(self, request: _Request, body: _BodyReader, writer) -> "bool | None":
        """Answer one request; returning False hangs up after the response."""
        raise NotImplementedError

    async def _run(self, fn, *args):
        """Run blocking work on the compute pool, off the event loop."""
        future = compute_pool().submit(fn, *args)
        self._jobs.add(future)
        future.add_done_callback(self._jobs.discard)
        return await asyncio.wrap_future(future)

    # -- response writing --------------------------------------------------
    async def _send_json(
        self, writer, request: _Request | None, status: int, payload: dict,
        retry_after: float | None = None, close: bool = False,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        extra = []
        if retry_after is not None:
            extra.append(("Retry-After", format_retry_after(retry_after)))
        # Compress only when asked and worthwhile: tiny payloads (acks,
        # health checks, errors) cost more in header bytes + CPU than
        # they save. mtime=0 keeps equal payloads byte-identical.
        gzip_ok = request is not None and accepts_gzip(request.header("accept-encoding"))
        if len(body) >= 256 and gzip_ok:
            body = gzip.compress(body, mtime=0)
            extra.append(("Content-Encoding", "gzip"))
        extra.append(("Vary", "Accept-Encoding"))
        await self._write(writer, status, body, "application/json", extra, close)

    async def _send_body(
        self, writer, request: _Request, status: int, body: bytes, content_type: str
    ) -> None:
        await self._write(writer, status, body, content_type, [], False)

    async def _write(
        self, writer, status: int, body: bytes, content_type: str | None,
        extra: "list[tuple[str, str]]", close: bool,
    ) -> None:
        try:
            reason = HTTPStatus(status).phrase
        except ValueError:
            reason = "Unknown"
        head = [f"HTTP/1.1 {status} {reason}"]
        if content_type is not None:
            head.append(f"Content-Type: {content_type}")
        head.append(f"Content-Length: {len(body)}")
        head.extend(f"{name}: {value}" for name, value in extra)
        head.append(f"Connection: {'close' if close else 'keep-alive'}")
        blob = ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
        writer.write(blob)
        await writer.drain()

    async def _send_error(
        self, writer, request: _Request | None, exc: Exception
    ) -> None:
        status, message, retry_after = failure_status(exc)
        # A _RequestError 5xx is a replica's answer the router relays;
        # the replica logged its own traceback.
        if status == 500 and not isinstance(exc, _RequestError):
            path = "?" if request is None else request.path
            logger.exception("internal error serving %s", path)
        try:
            # close=True: the request body may not have been fully read,
            # and its remainder would misparse as the next request.
            await self._send_json(
                writer, request, status, _error_payload(status, message),
                retry_after=retry_after, close=True,
            )
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass


class AsyncGateway(_HTTPFront):
    """Event-loop HTTP front over a :class:`ValidationService`.

    >>> with AsyncGateway(service, port=0) as gateway:    # doctest: +SKIP
    ...     print(gateway.url)                            # doctest: +SKIP

    ``host``/``port``/``max_body_bytes`` and the lifecycle are the
    shared front's (:class:`_HTTPFront`). The scheduler knobs
    (``batch_window_ms``, ``max_batch_rows``, ``max_queue_depth``,
    ``qos_weights``) configure the gateway's own
    :class:`RequestScheduler`, the one queue its engine calls take;
    :meth:`close` drains it after the front stops.
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 8080,
        max_body_bytes: int | None = None,
        batch_window_ms: float = 2.0,
        max_batch_rows: int = 8192,
        max_queue_depth: int = 1024,
        qos_weights: "dict[str, float] | None" = None,
    ) -> None:
        super().__init__(host, port, max_body_bytes)
        self.service = service
        self.scheduler = RequestScheduler(
            service,
            batch_window_ms=batch_window_ms,
            max_batch_rows=max_batch_rows,
            max_queue_depth=max_queue_depth,
            qos_weights=qos_weights,
        )

    def _release(self) -> None:
        self.scheduler.close(drain=True)

    # -- service facade ----------------------------------------------------
    def healthz(self) -> dict:
        return health_payload(self.service, draining=self._draining)

    def metrics_text(self) -> str:
        """Prometheus text: service stats, drift monitors, scheduler gauges."""
        return render_prometheus(
            self.service.stats_snapshot(),
            self.service.monitor_snapshots(),
            scheduler=self.scheduler.stats_snapshot(),
        )

    # -- routing -----------------------------------------------------------
    async def _route(self, request: _Request, body: _BodyReader, writer) -> None:
        method, path = request.method, request.path
        if method == "GET":
            if path == "/v1/healthz":
                payload = self.healthz()
                await self._send_json(
                    writer, request, 200 if payload["status"] == "ok" else 503, payload
                )
            elif path == "/v1/pipelines":
                await self._send_json(
                    writer, request, 200, self.service.stats_snapshot().to_dict()
                )
            elif path == "/v1/metrics":
                await self._send_body(
                    writer, request, 200,
                    self.metrics_text().encode("utf-8"), PROMETHEUS_CONTENT_TYPE,
                )
            elif (match := _MONITOR_ROUTE.match(path)) is not None:
                await self._handle_monitor(writer, request, unquote(match["name"]))
            elif (match := _RULES_ROUTE.match(path)) is not None:
                await self._handle_get_rules(writer, request, unquote(match["name"]))
            else:
                raise _RequestError(404, f"no such route: GET {path}")
        elif method in ("PUT", "DELETE"):
            match = _RULES_ROUTE.match(path)
            if match is None:
                raise _RequestError(404, f"no such route: {method} {path}")
            name = unquote(match["name"])
            self._require_pipeline(name)
            if method == "DELETE":
                payload = envelope("rules_deleted")
                payload.update(pipeline=name, deleted=self.service.clear_rules(name))
                await self._send_json(writer, request, 200, payload)
                return
            payload = await self._read_json(body)
            if not isinstance(payload, dict):
                raise _RequestError(400, "rule set body must be a JSON object")
            await self._run(self.service.set_rules, name, payload)
            await self._send_json(
                writer, request, 200, self.service.get_rules(name).to_dict()
            )
        elif method == "POST":
            match = _ROUTE.match(path)
            if match is None:
                raise _RequestError(404, f"no such route: POST {path}")
            name = unquote(match["name"])
            self._require_pipeline(name)
            action = match["action"]
            if action == "validate":
                await self._handle_validate(writer, request, body, name)
            elif action == "repair":
                await self._handle_repair(writer, request, body, name)
            else:
                await self._handle_validate_stream(
                    writer, request, body, name,
                    parse_query_flag(request.query, "partials"),
                )
        else:
            raise _RequestError(405, f"method {method} not supported")

    def _require_pipeline(self, name: str) -> None:
        if name not in self.service.registered:
            raise _RequestError(404, f"unknown pipeline {name!r}")

    # -- GET endpoints -----------------------------------------------------
    async def _handle_monitor(self, writer, request: _Request, name: str) -> None:
        self._require_pipeline(name)
        snapshot = self.service.monitor_snapshot(name)
        if snapshot is None:
            raise _RequestError(
                404,
                f"no drift monitor for pipeline {name!r} (monitoring disabled "
                "or the archive predates monitoring baselines)",
            )
        await self._send_json(writer, request, 200, snapshot.to_dict())

    async def _handle_get_rules(self, writer, request: _Request, name: str) -> None:
        self._require_pipeline(name)
        ruleset = self.service.get_rules(name)
        if ruleset is None:
            raise _RequestError(404, f"no rule set attached to pipeline {name!r}")
        await self._send_json(writer, request, 200, ruleset.to_dict())

    # -- POST endpoints ----------------------------------------------------
    def _frame_request(self, request: _Request) -> bool:
        return framing.matches_frame_content_type(request.header("content-type"))

    def _accepts_frame(self, request: _Request) -> bool:
        return framing.matches_frame_content_type(request.header("accept"))

    async def _read_json(self, body: _BodyReader) -> object:
        raw = await body.read_all()
        if not raw:
            raise _RequestError(400, "empty request body")
        try:
            return json.loads(raw)
        except ValueError as exc:  # JSONDecodeError, or a body that is not UTF-8
            raise _RequestError(400, f"malformed JSON body: {exc}") from exc

    async def _read_request(self, request: _Request, body: _BodyReader, name: str, kind):
        """Parse a validate/repair body on either wire tier.

        Returns ``(options, table)``: the ``kind`` request object
        (:class:`ValidateRequest` or :class:`RepairRequest`) and the rows.
        A frame carries its rows as columns and its options in the JSON
        sidecar; a JSON body carries records.
        """
        table = None
        if self._frame_request(request):
            schema = self.service.get(name).preprocessor.schema
            frame = await self._run(framing.decode_frame, await body.read_all(), schema)
            if frame.table is None:
                raise _RequestError(400, "framed request carries no table payload")
            if frame.table.n_rows == 0:
                raise _RequestError(400, "framed request table must not be empty")
            options = kind.from_options(frame.extra, pipeline=name)
            table = frame.table
        else:
            options = kind.from_payload(await self._read_json(body), pipeline=name)
        if options.pipeline != name:
            raise _RequestError(
                400, f"request pipeline {options.pipeline!r} does not match URL {name!r}"
            )
        if table is not None:
            return options, table
        if not options.records:
            raise _RequestError(400, "'records' must not be empty")
        schema = self.service.get(name).preprocessor.schema
        try:
            return options, await self._run(Table.from_records, schema, options.records)
        except (SchemaError, TypeError, ValueError) as exc:
            raise _RequestError(400, f"records do not fit pipeline schema: {exc}") from exc

    async def _handle_validate(
        self, writer, request: _Request, body: _BodyReader, name: str
    ) -> None:
        vreq, table = await self._read_request(request, body, name, ValidateRequest)
        # The coalescing path: submit() is just an enqueue (raises
        # AdmissionError → 429 when the queue is full); the concurrent
        # future resolves on a pool thread and wrap_future bridges it
        # back to the loop without blocking it.
        report = await asyncio.wrap_future(self.scheduler.submit(name, table))
        errors = "dense" if vreq.include_errors else "sparse"
        if self._accepts_frame(request):
            payload = await self._run(framing.report_to_frame, report, errors)
            await self._send_body(writer, request, 200, payload, framing.FRAME_CONTENT_TYPE)
        else:
            await self._send_json(writer, request, 200, report.to_dict(errors=errors))

    async def _handle_repair(
        self, writer, request: _Request, body: _BodyReader, name: str
    ) -> None:
        rreq, table = await self._read_request(request, body, name, RepairRequest)

        def validate_and_repair():
            report = self.service.validate(name, table)
            return report, self.service.repair(name, table, report, rreq.iterations)

        report, (repaired, summary) = await asyncio.wrap_future(
            self.scheduler.submit_job(name, table.n_rows, validate_and_repair)
        )
        errors = "dense" if rreq.include_errors else "sparse"
        if self._accepts_frame(request):
            # The repaired rows travel as binary columns; the summary and
            # pre-repair report ride the frame's JSON sidecar.
            extra = envelope("repair_response")
            extra.update(repair=summary.to_dict(), report=report.to_dict(errors=errors))
            payload = await self._run(
                lambda: framing.encode_frame(table=repaired, extra=extra)
            )
            await self._send_body(writer, request, 200, payload, framing.FRAME_CONTENT_TYPE)
            return
        payload = envelope("repair_response")
        payload.update(
            report=report.to_dict(errors=errors),
            repair=summary.to_dict(),
            records=repaired.to_records(),
        )
        await self._send_json(writer, request, 200, payload)

    # -- streaming endpoint ------------------------------------------------
    async def _iter_stream_tables(
        self, body: _BodyReader, schema, framed: bool
    ) -> AsyncIterator[Table]:
        """Split the body into chunk tables, incrementally (O(chunk) memory).

        A framed body is a back-to-back frame sequence (exactly what
        ``FrameFileWriter`` produces), one chunk per frame; frames are
        self-delimiting and ``max_body_bytes`` bounds each one, never
        the stream total. An NDJSON body carries one record list per
        line. Each chunk decodes on the compute pool, as a ``/validate``
        body does, so a large chunk never stalls the gateway's other
        connections.
        """
        if framed:
            splitter = framing.FrameSplitter(self.max_body_bytes)
            async for block in body.iter_blocks(bound_total=False):
                for raw in splitter.push(block):
                    frame = await self._run(framing.decode_frame, raw, schema)
                    if frame.table is None:
                        raise _RequestError(400, "framed stream chunk carries no table")
                    yield frame.table
            splitter.finish()
        else:
            lines = _iter_lines(body.iter_blocks(bound_total=False), self.max_body_bytes)
            async for line in lines:
                yield await self._run(self._ndjson_table, schema, line)

    @staticmethod
    def _ndjson_table(schema, line: bytes) -> Table:
        try:
            payload = json.loads(line)
        except ValueError as exc:  # JSONDecodeError, or a line that is not UTF-8
            raise _RequestError(400, f"malformed NDJSON chunk: {exc}") from exc
        # ``{"records": [...]}`` or the bare list: either way the rows
        # must be row objects, exactly as in a /validate body.
        if not isinstance(payload, dict):
            payload = {"records": payload}
        return Table.from_records(schema, _records_of(payload))

    async def _handle_validate_stream(
        self, writer, request: _Request, body: _BodyReader, name: str,
        emit_partials: bool = False,
    ) -> None:
        validator = self.service.validator_for(name)
        schema = validator.validator.preprocessor.schema
        framed = self._frame_request(request)
        acks: "list[dict]" = []
        partials = []
        offset = 0
        async for table in self._iter_stream_tables(body, schema, framed):
            job = self.scheduler.submit_job(
                name, table.n_rows, validator.validate_chunk, table, offset
            )
            partial = await asyncio.wrap_future(job)
            offset += partial.n_rows
            if emit_partials:
                # ``?partials=1`` (the router's scatter path): each ack
                # line is the full wire-encoded partial report, so a
                # merger with no live validator can fold them.
                acks.append(partial.to_dict())
            else:
                ack = envelope("stream_chunk")
                ack.update(
                    offset=int(partial.offset),
                    n_rows=int(partial.n_rows),
                    n_flagged=int(partial.n_flagged),
                )
                acks.append(ack)
                partials.append(partial)
        if emit_partials:
            # The merger folds under the state these partials were judged
            # with, so that state, not a summary, ends the sub-stream. It
            # also judges emptiness over the whole stream: a range of
            # zero-row chunks is answered, only one without chunks is not.
            if not acks:
                raise _RequestError(400, EMPTY_STREAM_MESSAGE)
            tail = fold_context_to_dict(validator.fold_context())
        else:
            try:
                tail = validator.fold(iter(partials)).to_dict()
            except ValidationError as exc:
                raise _RequestError(400, str(exc)) from exc
        self.service.count_validation(name, offset)

        # Nothing is written until the whole body is consumed: clients
        # send the body before reading, so acks interleaved with a long
        # upload would fill both socket buffers; deferring also lets a
        # mid-stream failure answer with a clean 400.
        lines = [json.dumps(ack).encode("utf-8") for ack in acks]
        lines.append(json.dumps(tail).encode("utf-8"))
        await self._send_body(
            writer, request, 200, b"\n".join(lines) + b"\n", "application/x-ndjson"
        )

