"""Multi-node router tier: one stdlib process fronting N gateway replicas.

A :class:`RouterGateway` speaks the exact ``/v1`` protocol of a single
gateway — :class:`~repro.serve.client.Client` needs no API change — but
executes it across a fleet of worker replicas (usually ``repro-serve``
processes started by :class:`~repro.serve.fleet.GatewayFleet`):

* **consistent-hash pipelining** — each pipeline name hashes onto the
  replica ring, so its scheduler coalescing and drift-monitor windows
  stay replica-local. ``validate``/``repair``/``monitor``/``rules``
  requests are proxied to the pipeline's home replica (bytes through,
  both wire tiers, gzip opaque); a dead home fails over to the next
  ring candidate — safe, validation is stateless computation;
* **stream scatter** — a large ``/validate_stream`` body is split at
  its existing chunk boundaries (NDJSON lines or binary frames), and
  balanced contiguous chunk ranges are dispatched to the healthy
  replicas as ``?partials=1`` sub-streams. Each comes back as
  wire-encoded :class:`~repro.runtime.streaming.PartialReport` lines
  plus one ``fold_context`` line: the threshold, dataset rule, feature
  names and rule set the replica judged its range with. Offsets are
  re-globalized in chunk order, and the exact
  :func:`~repro.runtime.streaming.fold_partials` /
  ``fold_rule_partials`` merge under that context reproduces the
  single-node summary bit for bit (client chunk boundaries are
  preserved, so even ``n_chunks`` and the float fold order match). The
  router keeps no copy of that state: ranges whose contexts differ
  (a rules write or re-registration reached some replicas only) fold
  to no exact answer, so the client gets a retryable 503. Each chunk
  range travels to its replica as the HTTP body of that sub-stream,
  wherever the replica runs. A replica dying mid-scatter gets its
  chunk range re-scattered onto survivors; only when no replica is
  left does the client see a retryable 503. A replica answering 5xx is
  not evicted — the range moves on, and a 5xx that every replica
  repeats is relayed;
* **health-checked membership** — a prober rides each replica's
  ``GET /v1/healthz``: anything but ``200 {"status": "ok"}`` within
  :attr:`RouterGateway.HEALTH_TIMEOUT` (including the 503
  ``"draining"`` a closing gateway reports) evicts the replica from the
  ring lookup, and a restarted replica at the same address is
  re-admitted automatically. The ring itself never changes, so
  eviction/re-admission moves no other pipeline's home;
* **fleet observability** — ``GET /v1/metrics`` scrapes every healthy
  replica, regroups each metric under one ``HELP``/``TYPE`` block with
  a ``replica`` label per sample, and prepends the router's own
  ``repro_router_*`` gauge family; ``GET /v1/pipelines`` sums
  :class:`~repro.runtime.service.ServiceStats` counters fleet-wide.

The router rides the same asyncio front as a worker gateway
(:class:`~repro.serve.transport._HTTPFront`: connection loop, body
reader, response writers, drain on close) and supplies only its routes.
All of its socket I/O runs on that front's event loop: an upstream call
is a coroutine over asyncio streams that reuses the replica's idle
keep-alive connections, the prober is a task that probes every replica
at once, and a scatter's chunk ranges are gathered there. Only CPU work,
parsing a range's partials and the fold, goes to the compute pool.
The router's state is touched on the loop alone, so it takes no lock.
The scatter path buffers one request's chunk list in router memory
(unlike a single gateway, which streams).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable
from urllib.parse import quote, unquote

import repro
from repro.api import framing
from repro.api.protocol import envelope, fold_context_from_dict
from repro.exceptions import AdmissionError, TransientServiceError
from repro.monitor.export import PROMETHEUS_CONTENT_TYPE
from repro.runtime.streaming import EMPTY_STREAM_MESSAGE, PartialReport, fold_partials
from repro.serve.gateway import (
    _MONITOR_ROUTE,
    _ROUTE,
    _RULES_ROUTE,
    _RequestError,
    parse_query_flag,
)
from repro.serve.transport import _MAX_LINE, _HTTPFront, _iter_lines, _read_headers
from repro.utils.logging import get_logger

__all__ = ["RouterGateway", "RouterTarget"]

logger = get_logger("serve.router")

#: headers forwarded verbatim on proxied requests (wire negotiation and
#: compression stay end-to-end; everything else is hop-local)
_FORWARD_REQUEST_HEADERS = ("Content-Type", "Content-Encoding", "Accept", "Accept-Encoding")
#: headers relayed back from a proxied worker response (and Content-Type)
_RELAY_RESPONSE_HEADERS = ("Content-Encoding", "Retry-After", "Vary")

_SAMPLE_LINE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$")

#: a failed upstream call: OSError (``_request`` raises every transport or
#: response fault as one) or a probe's deadline, no OSError before 3.11
_UPSTREAM_ERRORS = (OSError, asyncio.TimeoutError)


def _forward_headers(request) -> dict:
    """The :data:`_FORWARD_REQUEST_HEADERS` a client request carries."""
    return {
        key: request.header(key.lower())
        for key in _FORWARD_REQUEST_HEADERS
        if request.header(key.lower()) is not None
    }


def _chunk_ranges(n_chunks: int, n_replicas: int) -> "list[tuple[int, int]]":
    """At most ``n_replicas`` balanced contiguous ``(start, stop)`` ranges
    of chunk indices, in order, covering ``range(n_chunks)``."""
    n_ranges = min(n_chunks, n_replicas)
    ranges, start = [], 0
    for index in range(n_ranges):
        stop = start + n_chunks // n_ranges + (index < n_chunks % n_ranges)
        ranges.append((start, stop))
        start = stop
    return ranges


@dataclass
class RouterTarget:
    """One worker replica address plus its last observed health."""

    name: str
    host: str
    port: int
    #: optimistic until the first probe says otherwise — requests can
    #: flow the moment the router is up; a dead replica is corrected by
    #: the prober or by the first failed proxy attempt.
    alive: bool = True
    #: last healthz envelope the prober saw (None before first contact)
    last_payload: dict | None = None


class _HashRing:
    """Consistent-hash ring over replica names (md5, virtual nodes).

    Dead replicas are skipped at *lookup*, never removed from the ring,
    so an eviction moves only the evicted replica's keys and a
    re-admission restores the original placement exactly.
    """

    def __init__(self, names: Iterable[str], vnodes: int = 64) -> None:
        points: list[tuple[int, str]] = []
        for name in names:
            for vnode in range(vnodes):
                digest = hashlib.md5(f"{name}#{vnode}".encode("utf-8")).digest()
                points.append((int.from_bytes(digest[:8], "big"), name))
        points.sort()
        self._points = points
        self._hashes = [point for point, _ in points]

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(hashlib.md5(key.encode("utf-8")).digest()[:8], "big")

    def order(self, key: str, alive: "set[str] | None" = None) -> list[str]:
        """All distinct names in ring order from ``key``'s point.

        ``alive`` filters the result *after* the walk: the preference
        order among living replicas is independent of who is dead.
        """
        if not self._points:
            return []
        start = bisect_right(self._hashes, self._hash(key)) % len(self._points)
        seen: set[str] = set()
        ordered: list[str] = []
        for step in range(len(self._points)):
            name = self._points[(start + step) % len(self._points)][1]
            if name not in seen:
                seen.add(name)
                ordered.append(name)
        if alive is None:
            return ordered
        return [name for name in ordered if name in alive]

    def route(self, key: str, alive: "set[str] | None" = None) -> str | None:
        ordered = self.order(key, alive)
        return ordered[0] if ordered else None


class RouterGateway(_HTTPFront):
    """The router process: health-checked fan-out over worker replicas.

    >>> router = RouterGateway(fleet.targets(), port=0)          # doctest: +SKIP
    >>> with router:                                            # doctest: +SKIP
    ...     report = Client(port=router.port).validate("demo", table)  # doctest: +SKIP

    ``targets`` is any iterable of :class:`RouterTarget`,
    ``(name, host, port)`` tuples, or objects with ``.name``/``.host``/
    ``.port`` (a :class:`~repro.serve.fleet.WorkerHandle` works as is).
    ``health_interval`` (seconds) paces the prober task, 0 turns it off;
    ``check_workers()`` runs one probe round on demand (used by tests and
    by callers that manage their own cadence).
    ``host``/``port``/``max_body_bytes`` and the lifecycle are the
    shared front's (see the module docstring).
    """

    _thread_name = "repro-router"

    #: seconds a health probe may take before its replica counts as down
    HEALTH_TIMEOUT = 2.0
    #: idle keep-alive connections kept per replica; a burst's extra
    #: connections close as their responses finish
    MAX_IDLE = 8

    def __init__(
        self,
        targets: Iterable,
        host: str = "127.0.0.1",
        port: int = 8080,
        max_body_bytes: int | None = None,
        health_interval: float = 1.0,
    ) -> None:
        self.targets: dict[str, RouterTarget] = {}
        for spec in targets:
            target = self._as_target(spec)
            if target.name in self.targets:
                raise ValueError(f"duplicate replica name {target.name!r}")
            self.targets[target.name] = target
        if not self.targets:
            raise ValueError("RouterGateway needs at least one replica target")
        super().__init__(host, port, max_body_bytes)
        self.health_interval = float(health_interval)
        self._ring = _HashRing(self.targets)
        self._counters = {
            "evictions": 0,
            "readmissions": 0,
            "streams_scattered": 0,
            "rescatters": 0,
            "proxy_retries": 0,
        }
        self._replica_requests = {name: 0 for name in self.targets}
        #: per replica, its idle keep-alive connections (reader, writer)
        self._idle: "dict[str, list]" = {name: [] for name in self.targets}

    @staticmethod
    def _as_target(spec) -> RouterTarget:
        if isinstance(spec, RouterTarget):
            return spec
        if isinstance(spec, (tuple, list)) and len(spec) == 3:
            name, host, port = spec
            return RouterTarget(name=str(name), host=str(host), port=int(port))
        return RouterTarget(name=str(spec.name), host=str(spec.host), port=int(spec.port))

    # -- membership --------------------------------------------------------
    def alive_names(self) -> set:
        return {name for name, target in self.targets.items() if target.alive}

    def scatter_order(self, name: str) -> list[str]:
        """Healthy replicas in the pipeline's ring order (home first)."""
        return self._ring.order(name, self.alive_names())

    def _mark_dead(self, name: str) -> None:
        target = self.targets[name]
        if target.alive:
            target.alive = False
            self._counters["evictions"] += 1
            logger.warning("replica %s evicted (transport error)", name)

    async def _probe(self, target: RouterTarget) -> bool:
        try:
            status, _, raw = await asyncio.wait_for(
                self._request(target, "GET", "/v1/healthz"), self.HEALTH_TIMEOUT
            )
            payload = json.loads(raw) if raw else {}
        except (*_UPSTREAM_ERRORS, ValueError):
            return False
        target.last_payload = payload if isinstance(payload, dict) else None
        # A draining gateway answers 503 {"status": "draining"}:
        # unhealthy for routing purposes even though it still speaks.
        return status == 200 and isinstance(payload, dict) and payload.get("status") == "ok"

    async def _check_workers(self) -> dict:
        names = list(self.targets)
        probes = await asyncio.gather(*(self._probe(self.targets[name]) for name in names))
        results = dict(zip(names, probes))
        for name, healthy in results.items():
            target = self.targets[name]
            if target.alive and not healthy:
                self._counters["evictions"] += 1
                logger.warning("replica %s evicted (health probe)", name)
            elif not target.alive and healthy:
                self._counters["readmissions"] += 1
                logger.info("replica %s re-admitted", name)
            target.alive = healthy
        return results

    def check_workers(self) -> dict:
        """One probe round; returns ``{name: healthy}``.

        Every replica is probed at once, each within
        :attr:`HEALTH_TIMEOUT`. Transitions are counted
        (``repro_router_evictions_total`` / ``..._readmissions_total``)
        and logged. The round runs on the router's event loop, so the
        router must be started and this called from another thread; the
        prober task runs the same round every ``health_interval`` seconds.
        """
        if self._loop is None:
            raise RuntimeError("check_workers() needs a started router")
        return asyncio.run_coroutine_threadsafe(self._check_workers(), self._loop).result()

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.health_interval)
            try:
                await self._check_workers()
            except Exception:  # pragma: no cover - prober must never die
                logger.exception("health probe round failed")

    # -- upstream requests -------------------------------------------------
    async def _request(
        self, target: RouterTarget, method: str, path: str,
        body: bytes | None = None, headers: dict | None = None,
    ) -> "tuple[int, dict, bytes]":
        """One upstream round-trip: (status, headers lower-cased, body).

        It rides an idle keep-alive connection of the replica if one is
        left (at most :attr:`MAX_IDLE` wait there), and is resent once,
        on a fresh connection, only when that one dies before the status
        line (closed while idle), as the client does. Every other failure
        raises OSError, a response cut mid-body, without
        ``Content-Length`` or over a request head's bounds included: the
        replica may have run the request. No deadline: a replica that
        accepts and never answers holds the call.
        """
        body = body or b""
        lines = [f"{method} {path} HTTP/1.1", f"Host: {target.host}:{target.port}",
                 f"Content-Length: {len(body)}"]
        lines.extend(f"{key}: {value}" for key, value in (headers or {}).items())
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        idle = self._idle[target.name]
        for attempt in (0, 1):
            reused = bool(idle) and not attempt
            if reused:
                reader, writer = idle.pop()
            else:
                reader, writer = await asyncio.open_connection(
                    target.host, target.port, limit=_MAX_LINE * 2
                )
            status_line = b""
            try:
                writer.writelines((head, body))  # no second copy of the body outlives the write
                await writer.drain()
                status_line = await reader.readline()
                if not status_line:
                    raise ConnectionResetError(f"replica {target.name} hung up before answering")
                status = int(status_line.split()[1])
                response = await _read_headers(reader)
                raw = await reader.readexactly(int(response["content-length"]))
                break
            except BaseException as exc:
                writer.close()
                if reused and not status_line and isinstance(exc, ConnectionError):
                    continue
                if isinstance(
                    exc, (LookupError, ValueError, _RequestError, asyncio.IncompleteReadError)
                ):
                    raise ConnectionError(
                        f"replica {target.name} sent a malformed or cut response: {exc!r}"
                    ) from None
                raise
        if response.get("connection", "").lower() == "close" or len(idle) >= self.MAX_IDLE:
            writer.close()
        else:
            idle.append((reader, writer))
        return status, response, raw

    async def proxy(
        self, key: str, method: str, path: str, body: bytes | None, headers: dict
    ) -> "tuple[int, dict, bytes]":
        """Send to the key's home replica; fail over along the ring."""
        candidates = self._ring.order(key, self.alive_names())
        if not candidates:
            raise TransientServiceError("no healthy replicas available")
        last_error: Exception | None = None
        for position, name in enumerate(candidates):
            if position:
                self._counters["proxy_retries"] += 1
            try:
                result = await self._request(self.targets[name], method, path, body, headers)
            except _UPSTREAM_ERRORS as exc:
                self._mark_dead(name)
                last_error = exc
                continue
            self._replica_requests[name] += 1
            return result
        raise TransientServiceError(
            f"all {len(candidates)} replica(s) failed for {method} {path}: {last_error}"
        )

    async def fanout_rules(
        self, name: str, method: str, path: str, body: bytes | None, headers: dict
    ) -> "tuple[int, dict, bytes]":
        """Apply a rules write on every healthy replica; answer with the
        home replica's canonical response."""
        candidates = self._ring.order(name, self.alive_names())
        if not candidates:
            raise TransientServiceError("no healthy replicas available")
        home_result = None
        for replica in candidates:
            try:
                result = await self._request(self.targets[replica], method, path, body, headers)
            except _UPSTREAM_ERRORS:
                self._mark_dead(replica)
                continue
            self._replica_requests[replica] += 1
            if home_result is None:
                home_result = result
        if home_result is None:
            raise TransientServiceError(
                f"all {len(candidates)} replica(s) failed for {method} {path}"
            )
        return home_result

    # -- scatter -----------------------------------------------------------
    async def _scatter(
        self, name: str, chunks: "list[bytes]", content_type: str
    ) -> "tuple[list[PartialReport], dict]":
        """Scatter pre-split chunk bodies across the healthy replicas.

        Returns the decoded partials in global chunk order, offsets
        re-globalized, and the fold context every range was judged with.
        Each chunk range is one upstream POST; the ranges are gathered
        here on the event loop, and only their parses use the compute pool.
        """
        order = self.scatter_order(name)
        if not order:
            raise TransientServiceError("no healthy replicas available")
        path = f"/v1/pipelines/{quote(name, safe='')}/validate_stream?partials=1"
        headers = {"Content-Type": content_type}
        ranges = await asyncio.gather(
            *(
                self._scatter_range(
                    name, path, b"".join(chunks[start:stop]), headers, replica, stop - start
                )
                for (start, stop), replica in zip(_chunk_ranges(len(chunks), len(order)), order)
            ),
            return_exceptions=True,
        )
        # Any failure (client 4xx propagated, or all replicas exhausted)
        # surfaces from the first range that raised.
        for chunk_range in ranges:
            if isinstance(chunk_range, BaseException):
                raise chunk_range
        contexts = [context for _, context in ranges]
        if any(context != contexts[0] for context in contexts[1:]):
            # The ranges were judged under different thresholds or rule
            # sets: no fold of them is the single-node answer.
            raise TransientServiceError(
                f"replicas disagree on the threshold or rule set of pipeline {name!r}"
            )
        partials = [partial for chunk_range, _ in ranges for partial in chunk_range]
        offset = 0
        for partial in partials:
            partial.offset = offset
            offset += partial.n_rows
        self._counters["streams_scattered"] += 1
        return partials, fold_context_from_dict(contexts[0])

    async def _scatter_range(
        self,
        name: str,
        path: str,
        body: bytes,
        headers: dict,
        first_replica: str,
        n_chunks: int,
    ) -> "tuple[list[PartialReport], dict]":
        """Send one chunk range, moving it along the ring on failure.

        Only a transport error evicts the replica (the prober re-admits
        it). A 5xx may be the request's own doing, so the range moves on
        but the replica stays in the ring; when every replica answered
        5xx, the last answer is relayed. A 4xx is the client's and is
        relayed at once; a 429 keeps the replica's ``Retry-After``.
        """
        tried: set = set()
        replica = first_replica
        last_error: object = None
        answer: "tuple[int, str] | None" = None  # last 5xx (status, message)
        while replica is not None:
            try:
                status, answer_headers, raw = await self._request(
                    self.targets[replica], "POST", path, body, headers
                )
            except _UPSTREAM_ERRORS as exc:
                self._mark_dead(replica)
                last_error = exc
            else:
                if status == 200:
                    partials, context = await self._run(self._parse_range, raw)
                    if len(partials) == n_chunks and context is not None:
                        self._replica_requests[replica] += 1
                        return partials, context
                    # Never merge a wrong-shaped range, or one without the
                    # context it was judged with: retry it elsewhere.
                    last_error = (
                        f"replica {replica} returned {len(partials)} partial(s) "
                        f"for {n_chunks} chunk(s)"
                        + ("" if context is not None else " without a fold context")
                    )
                elif status == 429:  # the replica's queue is full: relay its hint
                    hint = answer_headers.get("retry-after", "")
                    raise AdmissionError(
                        self._error_message(raw, status),
                        retry_after=float(hint) if hint.isdigit() else 1.0,
                    )
                elif 400 <= status < 500:
                    # Client-caused (malformed chunk, schema mismatch, …):
                    # every replica would refuse identically — propagate.
                    raise _RequestError(status, self._error_message(raw, status))
                else:
                    answer = (status, self._error_message(raw, status))
                    last_error = f"replica {replica} answered {status}"
            tried.add(replica)
            survivors = [
                candidate
                for candidate in self._ring.order(name, self.alive_names())
                if candidate not in tried
            ]
            replica = survivors[0] if survivors else None
            if replica is not None:
                self._counters["rescatters"] += 1
        if answer is not None:
            raise _RequestError(*answer)
        raise TransientServiceError(
            f"stream scatter failed on every replica ({last_error})"
        )

    @staticmethod
    def _error_message(raw: bytes, status: int) -> str:
        try:
            payload = json.loads(raw)
            message = payload.get("error")
            if isinstance(message, str):
                return message
        except (ValueError, AttributeError):
            pass
        return f"upstream replica answered HTTP {status}"

    @staticmethod
    def _parse_range(raw: bytes) -> "tuple[list[PartialReport], dict | None]":
        """A ``?partials=1`` answer: its partials and its ``fold_context``
        payload (``None`` when the line is missing)."""
        partials, context = [], None
        for line in raw.splitlines():
            if not line.strip():
                continue
            payload = json.loads(line)
            if payload.get("kind") == "partial_report":
                partials.append(PartialReport.from_dict(payload))
            elif payload.get("kind") == "fold_context":
                context = payload
        return partials, context

    # -- aggregated read endpoints ------------------------------------------
    def healthz(self) -> dict:
        healthy = self.alive_names()
        if self._draining:
            status = "draining"
        elif healthy:
            status = "ok"
        else:
            status = "degraded"
        pipelines = 0
        for target in self.targets.values():
            payload = target.last_payload
            if isinstance(payload, dict):
                pipelines = max(pipelines, int(payload.get("pipelines", 0) or 0))
        payload = envelope("health")
        payload.update(
            status=status,
            version=repro.__version__,
            role="router",
            replicas=len(self.targets),
            healthy_replicas=len(healthy),
            pipelines=pipelines,
            wire_formats=["application/json", framing.FRAME_CONTENT_TYPE],
            frame_version=framing.FRAME_VERSION,
        )
        return payload

    async def _scrape(self, path: str) -> "list[tuple[str, bytes]]":
        """``GET path`` on every healthy replica at once: the 200 bodies by
        replica name, in name order. A transport error evicts its replica."""

        async def get(name: str) -> "bytes | None":
            try:
                status, _, raw = await self._request(self.targets[name], "GET", path)
            except _UPSTREAM_ERRORS:
                self._mark_dead(name)
                return None
            return raw if status == 200 else None

        names = sorted(self.alive_names())
        bodies = await asyncio.gather(*map(get, names))
        return [(name, raw) for name, raw in zip(names, bodies) if raw is not None]

    async def pipelines_payload(self) -> dict:
        """Fleet-wide :class:`ServiceStats`: counters summed, residency
        OR-ed, ``registered`` maxed (every replica registers the same
        set)."""
        merged: dict | None = None
        for _, raw in await self._scrape("/v1/pipelines"):
            payload = json.loads(raw)
            if merged is None:
                merged = payload
                continue
            merged["registered"] = max(merged["registered"], payload["registered"])
            for key in ("resident", "loads", "evictions", "hits", "validations",
                        "repairs", "rows_validated"):
                merged[key] = merged.get(key, 0) + payload.get(key, 0)
            for pipeline, entry in payload.get("pipelines", {}).items():
                into = merged.setdefault("pipelines", {}).setdefault(pipeline, {})
                for field_name, value in entry.items():
                    if isinstance(value, bool):
                        into[field_name] = bool(into.get(field_name, False)) or value
                    elif isinstance(value, int):
                        into[field_name] = int(into.get(field_name, 0)) + value
                    elif field_name not in into:
                        into[field_name] = value
        if merged is None:
            raise TransientServiceError("no healthy replicas available")
        return merged

    async def metrics_text(self) -> str:
        """Fleet Prometheus exposition: the ``repro_router_*`` family
        first, then every replica metric regrouped under one HELP/TYPE
        block with a ``replica`` label on each sample."""
        counters = self._counters
        alive = self.alive_names()
        lines: list[str] = []

        def gauge(name: str, help_text: str, value, kind: str = "gauge") -> None:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            lines.append(f"{name} {value}")

        gauge("repro_router_replicas", "Worker replicas configured on the router.",
              len(self.targets))
        gauge("repro_router_replicas_healthy", "Worker replicas currently routable.",
              len(alive))
        lines.append("# HELP repro_router_replica_up Per-replica health (1 routable, 0 evicted).")
        lines.append("# TYPE repro_router_replica_up gauge")
        for name in self.targets:
            lines.append(f'repro_router_replica_up{{replica="{name}"}} {int(name in alive)}')
        lines.append("# HELP repro_router_requests_total Requests routed, per replica.")
        lines.append("# TYPE repro_router_requests_total counter")
        for name, count in self._replica_requests.items():
            lines.append(f'repro_router_requests_total{{replica="{name}"}} {count}')
        gauge("repro_router_evictions_total",
              "Replica evictions (failed probe or transport error).", counters["evictions"], "counter")
        gauge("repro_router_readmissions_total",
              "Replicas re-admitted after recovery.", counters["readmissions"], "counter")
        gauge("repro_router_streams_scattered_total",
              "validate_stream requests scattered across the fleet.",
              counters["streams_scattered"], "counter")
        gauge("repro_router_rescatters_total",
              "Chunk ranges re-scattered after a replica failure.",
              counters["rescatters"], "counter")
        gauge("repro_router_proxy_retries_total",
              "Proxied requests retried on a failover replica.",
              counters["proxy_retries"], "counter")

        # Prometheus requires all samples of one metric in one block —
        # regroup across replicas, in first-seen order, instead of
        # concatenating expositions. The first HELP and TYPE text wins.
        metrics: dict[str, dict] = {}
        for name, raw in await self._scrape("/v1/metrics"):
            for line in raw.decode("utf-8", "replace").splitlines():
                if line.startswith("# HELP ") or line.startswith("# TYPE "):
                    metric, _, text = line[7:].partition(" ")
                    metrics.setdefault(metric, {"samples": []}).setdefault(line[2:6], text)
                elif line and not line.startswith("#"):
                    match = _SAMPLE_LINE.match(line)
                    if match is None:
                        continue
                    metric, labels, value = match.groups()
                    labeled = f'replica="{name}"' + (f",{labels}" if labels else "")
                    metrics.setdefault(metric, {"samples": []})["samples"].append(
                        f"{metric}{{{labeled}}} {value}"
                    )
        for metric, entry in metrics.items():
            lines.extend(
                f"# {keyword} {metric} {entry[keyword]}"
                for keyword in ("HELP", "TYPE")
                if keyword in entry
            )
            lines.extend(entry["samples"])
        return "\n".join(lines) + "\n"

    # -- routing -----------------------------------------------------------
    async def _route(self, request, body, writer) -> bool:
        """Answer one request from the fleet; returns False after relaying
        an error, which hangs up like a worker gateway does."""
        method, path = request.method, request.path
        if method == "GET":
            if path == "/v1/healthz":
                payload = self.healthz()
                await self._send_json(
                    writer, request, 200 if payload["status"] == "ok" else 503, payload
                )
            elif path == "/v1/metrics":
                text = await self.metrics_text()
                await self._send_body(
                    writer, request, 200, text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE
                )
            elif path == "/v1/pipelines":
                await self._send_json(writer, request, 200, await self.pipelines_payload())
            else:
                match = _MONITOR_ROUTE.match(path) or _RULES_ROUTE.match(path)
                if match is None:
                    raise _RequestError(404, f"no such route: GET {path}")
                # Monitor windows and rule sets live on the pipeline's
                # home replica; proxy the request there verbatim.
                return await self._proxy_relay(writer, request, unquote(match["name"]), None)
            return True
        if method in ("PUT", "DELETE"):
            match = _RULES_ROUTE.match(path)
            if match is None:
                raise _RequestError(404, f"no such route: {method} {path}")
            raw = await body.read_raw(bound_total=True) if method == "PUT" else None
            # Rule writes fan out to *every* healthy replica: the scatter
            # path may execute a stream on any of them, and all must
            # agree on the attached rule set.
            result = await self.fanout_rules(
                unquote(match["name"]), method, request.target, raw, _forward_headers(request)
            )
            return await self._relay(writer, result)
        if method == "POST":
            match = _ROUTE.match(path)
            if match is None:
                raise _RequestError(404, f"no such route: POST {path}")
            name = unquote(match["name"])
            if match["action"] == "validate_stream":
                return await self._route_stream(writer, request, body, name)
            # validate/repair: home-replica proxy with ring failover. The
            # body travels raw (still gzipped if the client sent gzip) —
            # the worker does all decoding.
            raw = await body.read_raw(bound_total=True)
            return await self._proxy_relay(writer, request, name, raw)
        raise _RequestError(405, f"method {method} not supported")

    async def _proxy_relay(self, writer, request, name: str, raw: bytes | None) -> bool:
        """Proxy the request as received to ``name``'s home replica."""
        result = await self.proxy(
            name, request.method, request.target, raw, _forward_headers(request)
        )
        return await self._relay(writer, result)

    async def _relay(self, writer, result: "tuple[int, dict, bytes]") -> bool:
        status, headers, raw = result
        relayed = [
            (key, headers[key.lower()])
            for key in _RELAY_RESPONSE_HEADERS
            if key.lower() in headers
        ]
        # Mirror the worker gateways: an error response may leave
        # request-body bytes unread on the wire, so hang up rather than
        # misparse them as the next request.
        close = status >= 400
        await self._write(writer, status, raw, headers.get("content-type"), relayed, close)
        return not close

    async def _route_stream(self, writer, request, body, name: str) -> bool:
        """The scatter path: split, scatter, fold, answer like one gateway."""
        if (
            parse_query_flag(request.query, "partials")  # the caller is itself a merger
            or len(self.scatter_order(name)) < 2          # nothing to scatter across
        ):
            return await self._proxy_relay(
                writer, request, name, await body.read_raw(bound_total=False)
            )

        # Split the body at its existing chunk boundaries. Preserving
        # the client's chunking is what makes the merged summary
        # bit-identical to single-node — n_chunks, per-chunk rule
        # outputs, and the float fold order all line up.
        blocks = body.iter_blocks(bound_total=False)
        if framing.matches_frame_content_type(request.header("content-type")):
            splitter = framing.FrameSplitter(self.max_body_bytes)
            chunks: list[bytes] = []
            async for block in blocks:
                chunks.extend(splitter.push(block))
            splitter.finish()
            content_type = framing.FRAME_CONTENT_TYPE
        else:
            chunks = [line + b"\n" async for line in _iter_lines(blocks, self.max_body_bytes)]
            content_type = "application/x-ndjson"
        if not chunks:
            raise _RequestError(400, EMPTY_STREAM_MESSAGE)

        partials, context = await self._scatter(name, chunks, content_type)
        summary = await self._run(lambda: fold_partials(partials, **context))

        # Same response body as a single gateway: one ack line per
        # client chunk (global offsets), then the summary envelope.
        lines = []
        for partial in partials:
            ack = envelope("stream_chunk")
            ack.update(
                offset=int(partial.offset),
                n_rows=int(partial.n_rows),
                n_flagged=int(partial.n_flagged),
            )
            lines.append(json.dumps(ack).encode("utf-8"))
        lines.append(json.dumps(summary.to_dict()).encode("utf-8"))
        await self._send_body(
            writer, request, 200, b"\n".join(lines) + b"\n", "application/x-ndjson"
        )
        return True

    # -- lifecycle ---------------------------------------------------------
    async def _main(self) -> None:
        # The prober runs while the router serves; the idle upstream
        # connections close once it stops.
        prober = (
            asyncio.create_task(self._health_loop()) if self.health_interval > 0 else None
        )
        try:
            await super()._main()
        finally:
            if prober is not None:
                prober.cancel()
                await asyncio.gather(prober, return_exceptions=True)
            for connections in self._idle.values():
                for _, writer in connections:
                    writer.close()
                connections.clear()
