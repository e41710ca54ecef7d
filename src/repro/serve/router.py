"""Multi-node router tier: one stdlib process fronting N gateway replicas.

A :class:`RouterGateway` speaks the exact ``/v1`` protocol of a single
gateway — :class:`~repro.serve.client.Client` needs no API change — but
executes it across a fleet of worker replicas (usually
:class:`~repro.serve.transport.AsyncGateway` processes spawned by
:class:`~repro.serve.fleet.GatewayFleet`):

* **consistent-hash pipelining** — each pipeline name hashes onto the
  replica ring, so its scheduler coalescing and drift-monitor windows
  stay replica-local. ``validate``/``repair``/``monitor``/``rules``
  requests are proxied to the pipeline's home replica (bytes through,
  both wire tiers, gzip opaque); a dead home fails over to the next
  ring candidate — safe, validation is stateless computation;
* **stream scatter** — a large ``/validate_stream`` body is split at
  its existing chunk boundaries (NDJSON lines or binary frames),
  contiguous chunk ranges are planned with
  :class:`~repro.runtime.sharding.ShardPlanner` and dispatched to the
  healthy replicas as ``?partials=1`` sub-streams; the wire-encoded
  :class:`~repro.runtime.streaming.PartialReport` lines come back,
  offsets are re-globalized in chunk order, and the exact
  :func:`~repro.runtime.streaming.fold_partials` /
  ``fold_rule_partials`` merge reproduces the single-node summary bit
  for bit (client chunk boundaries are preserved, so even ``n_chunks``
  and the float fold order match). Each chunk range travels to its
  replica as the HTTP body of that sub-stream, wherever the replica
  runs. A replica dying mid-scatter gets its chunk range re-scattered
  onto survivors; only when no replica is left does the client see a
  retryable 503;
* **health-checked membership** — a prober rides each replica's
  ``GET /v1/healthz``: anything but ``200 {"status": "ok"}`` (including
  the 503 ``"draining"`` a closing gateway reports) evicts the replica
  from the ring lookup, and a restarted replica at the same address is
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
Its upstream calls are blocking ``http.client`` round-trips run on the
front's executor; a scatter's chunk ranges are gathered on the event
loop. The scatter path buffers one request's chunk list in router memory
(unlike a single gateway, which streams); ``archives`` supplies the
pipeline weight archives the merge context is read from — pipelines the
router has no archive for are proxied whole to their home replica.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import re
import threading
from bisect import bisect_right
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException
from pathlib import Path
from typing import Iterable
from urllib.parse import quote, unquote

import repro
from repro.api import framing
from repro.api.protocol import envelope
from repro.exceptions import TransientServiceError, ValidationError
from repro.monitor.export import PROMETHEUS_CONTENT_TYPE
from repro.runtime.sharding import ShardPlanner, _context_from_archive
from repro.runtime.streaming import EMPTY_STREAM_MESSAGE, PartialReport, fold_partials
from repro.serve.gateway import (
    _MONITOR_ROUTE,
    _ROUTE,
    _RULES_ROUTE,
    _RequestError,
    parse_query_flag,
    parse_query_workers,
)
from repro.serve.transport import _FrameSplitter, _HTTPFront, _iter_lines
from repro.utils.logging import get_logger

__all__ = ["RouterGateway", "RouterTarget"]

logger = get_logger("serve.router")

#: headers forwarded verbatim on proxied requests (wire negotiation and
#: compression stay end-to-end; everything else is hop-local)
_FORWARD_REQUEST_HEADERS = ("Content-Type", "Content-Encoding", "Accept", "Accept-Encoding")
#: headers relayed back from a proxied worker response (and Content-Type)
_RELAY_RESPONSE_HEADERS = ("Content-Encoding", "Retry-After", "Vary")

_SAMPLE_LINE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$")

_MISSING = object()


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

    >>> router = RouterGateway(fleet.targets(), port=0,         # doctest: +SKIP
    ...                        archives={"demo": "demo.npz"})   # doctest: +SKIP
    >>> with router:                                            # doctest: +SKIP
    ...     report = Client(port=router.port).validate("demo", table)  # doctest: +SKIP

    ``targets`` is any iterable of :class:`RouterTarget`,
    ``(name, host, port)`` tuples, or objects with ``.name``/``.host``/
    ``.port`` (a :class:`~repro.serve.fleet.WorkerHandle` works as is).
    ``archives`` maps pipeline name → weight archive; it powers the
    scatter path's merge context — pipelines without one are proxied
    whole. ``health_interval`` (seconds) paces the background prober;
    ``check_workers()`` runs one probe round synchronously (used by
    tests and by callers that manage their own cadence).
    ``host``/``port``/``max_body_bytes`` and the lifecycle are the
    shared front's (see the module docstring).
    """

    _thread_name = "repro-router"

    def __init__(
        self,
        targets: Iterable,
        host: str = "127.0.0.1",
        port: int = 8080,
        max_body_bytes: int | None = None,
        archives: "dict[str, str | Path] | None" = None,
        health_interval: float = 1.0,
        health_timeout: float = 2.0,
        upstream_timeout: float | None = None,
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
        self.health_timeout = float(health_timeout)
        self.upstream_timeout = upstream_timeout
        self._ring = _HashRing(self.targets)
        self._planner = ShardPlanner(chunk_size=1)  # plan over chunk indices
        self._archives = {
            name: Path(archive) for name, archive in (archives or {}).items()
        }
        self._contexts: dict = {}
        self._rulesets: dict = {}
        self._state_lock = threading.Lock()
        self._counters = {
            "evictions": 0,
            "readmissions": 0,
            "streams_scattered": 0,
            "rescatters": 0,
            "proxy_retries": 0,
        }
        self._replica_requests = {name: 0 for name in self.targets}
        self._conn_local = threading.local()
        self._health_thread: threading.Thread | None = None
        self._health_stop = threading.Event()

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
        with self._state_lock:
            if target.alive:
                target.alive = False
                self._counters["evictions"] += 1
                logger.warning("replica %s evicted (request failure)", name)

    def _probe(self, target: RouterTarget) -> bool:
        connection = HTTPConnection(target.host, target.port, timeout=self.health_timeout)
        try:
            connection.request("GET", "/v1/healthz")
            response = connection.getresponse()
            raw = response.read()
            payload = json.loads(raw) if raw else {}
            target.last_payload = payload if isinstance(payload, dict) else None
            # A draining gateway answers 503 {"status": "draining"}:
            # unhealthy for routing purposes even though it still speaks.
            return response.status == 200 and payload.get("status") == "ok"
        except (OSError, HTTPException, ValueError):
            return False
        finally:
            connection.close()

    def check_workers(self) -> dict:
        """One synchronous probe round; returns ``{name: healthy}``.

        Transitions are counted (``repro_router_evictions_total`` /
        ``..._readmissions_total``) and logged. The background prober
        calls this every ``health_interval`` seconds; tests call it
        directly for deterministic eviction/re-admission assertions.
        """
        results = {}
        for name, target in self.targets.items():
            healthy = self._probe(target)
            with self._state_lock:
                if target.alive and not healthy:
                    self._counters["evictions"] += 1
                    logger.warning("replica %s evicted (health probe)", name)
                elif not target.alive and healthy:
                    self._counters["readmissions"] += 1
                    logger.info("replica %s re-admitted", name)
                target.alive = healthy
            results[name] = healthy
        return results

    def _health_loop(self) -> None:
        while not self._health_stop.wait(self.health_interval):
            try:
                self.check_workers()
            except Exception:  # pragma: no cover - prober must never die
                logger.exception("health probe round failed")

    # -- upstream requests -------------------------------------------------
    def _thread_conns(self) -> dict:
        conns = getattr(self._conn_local, "conns", None)
        if conns is None:
            conns = self._conn_local.conns = {}
        return conns

    def _request(
        self,
        target: RouterTarget,
        method: str,
        path: str,
        body: bytes | None = None,
        headers: dict | None = None,
    ) -> "tuple[int, object, bytes]":
        """One upstream round-trip with per-thread connection reuse.

        A stale pooled socket is retried once with a fresh connection —
        safe here even for POST: every routed body is fully buffered and
        validation is stateless computation.
        """
        conns = self._thread_conns()
        for attempt in (0, 1):
            connection = conns.pop(target.name, None)
            reused = connection is not None
            if connection is None:
                connection = HTTPConnection(
                    target.host, target.port, timeout=self.upstream_timeout
                )
            try:
                connection.request(method, path, body=body, headers=headers or {})
                response = connection.getresponse()
                raw = response.read()
            except (OSError, HTTPException):
                connection.close()
                if not reused or attempt:
                    raise
                continue
            if response.will_close:
                connection.close()
            else:
                conns[target.name] = connection
            return response.status, response.headers, raw
        raise AssertionError("unreachable")  # pragma: no cover

    def _count(self, key: str, replica: str | None = None) -> None:
        with self._state_lock:
            if key:
                self._counters[key] += 1
            if replica is not None:
                self._replica_requests[replica] += 1

    def proxy(
        self,
        key: str,
        method: str,
        path: str,
        body: bytes | None,
        headers: dict | None,
    ) -> "tuple[int, object, bytes]":
        """Send to the key's home replica; fail over along the ring."""
        candidates = self._ring.order(key, self.alive_names())
        if not candidates:
            raise TransientServiceError("no healthy replicas available")
        last_error: Exception | None = None
        for position, name in enumerate(candidates):
            if position:
                self._count("proxy_retries")
            try:
                result = self._request(self.targets[name], method, path, body, headers)
            except (OSError, HTTPException) as exc:
                self._mark_dead(name)
                last_error = exc
                continue
            self._count("", replica=name)
            return result
        raise TransientServiceError(
            f"all {len(candidates)} replica(s) failed for {method} {path}: {last_error}"
        )

    def fanout_rules(
        self, name: str, method: str, path: str, body: bytes | None
    ) -> "tuple[int, object, bytes]":
        """Apply a rules write on every healthy replica; answer with the
        home replica's canonical response and refresh the fold cache."""
        candidates = self._ring.order(name, self.alive_names())
        if not candidates:
            raise TransientServiceError("no healthy replicas available")
        headers = {"Content-Type": "application/json"} if body is not None else {}
        home_result = None
        for replica in candidates:
            try:
                result = self._request(self.targets[replica], method, path, body, headers)
            except (OSError, HTTPException):
                self._mark_dead(replica)
                continue
            self._count("", replica=replica)
            if home_result is None:
                home_result = result
        if home_result is None:
            raise TransientServiceError(
                f"all {len(candidates)} replica(s) failed for {method} {path}"
            )
        status, _, raw = home_result
        if 200 <= status < 300:
            with self._state_lock:
                if method == "DELETE":
                    self._rulesets[name] = None
                else:
                    try:
                        from repro.rules import RuleSet

                        self._rulesets[name] = RuleSet.from_payload(json.loads(raw))
                    except Exception:
                        # Never let a cache refresh break the write path;
                        # the lazy fetch will repopulate it.
                        self._rulesets.pop(name, None)
        return home_result

    # -- scatter -----------------------------------------------------------
    def merge_context(self, name: str):
        """The archive-derived fold context for a pipeline (cached)."""
        with self._state_lock:
            context = self._contexts.get(name, _MISSING)
        if context is not _MISSING:
            return context
        archive = self._archives.get(name)
        context = None
        if archive is not None:
            try:
                context = _context_from_archive(archive)
            except Exception as exc:
                logger.warning("no merge context for %r (%s); proxying streams", name, exc)
        with self._state_lock:
            self._contexts[name] = context
        return context

    def ruleset_for(self, name: str, expect_rules: bool = False):
        """The pipeline's attached rule set, fetched lazily from its home
        replica and cached. ``expect_rules=True`` (partials carried rule
        outputs) forces a re-fetch when the cache says None — rules were
        attached behind the router's back."""
        with self._state_lock:
            cached = self._rulesets.get(name, _MISSING)
        if cached is not _MISSING and not (expect_rules and cached is None):
            return cached
        ruleset = self._fetch_ruleset(name)
        with self._state_lock:
            self._rulesets[name] = ruleset
        return ruleset

    def _fetch_ruleset(self, name: str):
        try:
            status, _, raw = self.proxy(
                name, "GET", f"/v1/pipelines/{quote(name, safe='')}/rules", None, None
            )
        except TransientServiceError:
            return None
        if status != 200:
            return None
        try:
            from repro.rules import RuleSet

            return RuleSet.from_payload(json.loads(raw))
        except Exception as exc:
            logger.warning("could not decode rule set for %r: %s", name, exc)
            return None

    async def _scatter(
        self, name: str, chunks: "list[bytes]", content_type: str
    ) -> "list[PartialReport]":
        """Scatter pre-split chunk bodies across the healthy replicas and
        return the decoded partials in global chunk order, offsets
        re-globalized.

        Each chunk range is one blocking upstream POST on the executor;
        the ranges are gathered here on the event loop, so no executor
        task ever waits on another.
        """
        order = self.scatter_order(name)
        if not order:
            raise TransientServiceError("no healthy replicas available")
        plan = self._planner.plan(len(chunks), len(order))
        path = f"/v1/pipelines/{quote(name, safe='')}/validate_stream?partials=1"
        headers = {"Content-Type": content_type}
        ranges = await asyncio.gather(
            *(
                self._run(
                    self._scatter_range,
                    name,
                    path,
                    b"".join(chunks[shard.offset : shard.stop]),
                    headers,
                    replica,
                    shard.n_rows,  # chunk count for this range (chunk_size=1 planner)
                )
                for shard, replica in zip(plan, order)
            ),
            return_exceptions=True,
        )
        # Any failure (client 4xx propagated, or all replicas exhausted)
        # surfaces from the first range that raised.
        for chunk_range in ranges:
            if isinstance(chunk_range, BaseException):
                raise chunk_range
        partials = [partial for chunk_range in ranges for partial in chunk_range]
        offset = 0
        for partial in partials:
            partial.offset = offset
            offset += partial.n_rows
        self._count("streams_scattered")
        return partials

    def _fold(self, name: str, partials: "list[PartialReport]", context):
        """Merge scattered partials into the exact single-node summary."""
        ruleset = self.ruleset_for(
            name, expect_rules=any(partial.rule_partial is not None for partial in partials)
        )
        try:
            return fold_partials(
                partials,
                threshold=context.threshold,
                rule=context.rule,
                feature_names=context.feature_names,
                rules=ruleset,
            )
        except ValidationError as exc:
            raise _RequestError(400, str(exc)) from exc

    def _scatter_range(
        self,
        name: str,
        path: str,
        body: bytes,
        headers: dict,
        first_replica: str,
        n_chunks: int,
    ) -> "list[PartialReport]":
        tried: set = set()
        replica = first_replica
        last_error: object = None
        while replica is not None:
            failed = False
            try:
                status, _, raw = self._request(
                    self.targets[replica], "POST", path, body, headers
                )
            except (OSError, HTTPException) as exc:
                last_error, failed = exc, True
            else:
                if status == 200:
                    partials = self._parse_partials(raw)
                    if len(partials) == n_chunks:
                        self._count("", replica=replica)
                        return partials
                    # A replica answering with the wrong partial count is
                    # as good as dead for this request: never merge a
                    # wrong-shaped range, retry it elsewhere.
                    last_error = (
                        f"replica {replica} returned {len(partials)} partial(s) "
                        f"for {n_chunks} chunk(s)"
                    )
                    failed = True
                elif 400 <= status < 500:
                    # Client-caused (malformed chunk, schema mismatch, …):
                    # every replica would refuse identically — propagate.
                    raise _RequestError(status, self._error_message(raw, status))
                else:
                    last_error, failed = f"replica {replica} answered {status}", True
            if failed:
                self._mark_dead(replica)
                tried.add(replica)
                survivors = [
                    candidate
                    for candidate in self._ring.order(name, self.alive_names())
                    if candidate not in tried
                ]
                replica = survivors[0] if survivors else None
                if replica is not None:
                    self._count("rescatters")
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
    def _parse_partials(raw: bytes) -> "list[PartialReport]":
        partials = []
        for line in raw.splitlines():
            if not line.strip():
                continue
            payload = json.loads(line)
            if payload.get("kind") == "partial_report":
                partials.append(PartialReport.from_dict(payload))
        return partials

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
            pipelines=pipelines or len(self._archives),
            wire_formats=["application/json", framing.FRAME_CONTENT_TYPE],
            frame_version=framing.FRAME_VERSION,
        )
        return payload

    def pipelines_payload(self) -> dict:
        """Fleet-wide :class:`ServiceStats`: counters summed, residency
        OR-ed, ``registered`` maxed (every replica registers the same
        set)."""
        merged: dict | None = None
        for name in sorted(self.alive_names()):
            try:
                status, _, raw = self._request(self.targets[name], "GET", "/v1/pipelines")
            except (OSError, HTTPException):
                self._mark_dead(name)
                continue
            if status != 200:
                continue
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

    def metrics_text(self) -> str:
        """Fleet Prometheus exposition: the ``repro_router_*`` family
        first, then every replica metric regrouped under one HELP/TYPE
        block with a ``replica`` label on each sample."""
        with self._state_lock:
            counters = dict(self._counters)
            replica_requests = dict(self._replica_requests)
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
        for name, count in replica_requests.items():
            lines.append(f'repro_router_requests_total{{replica="{name}"}} {count}')
        gauge("repro_router_evictions_total",
              "Replica evictions (failed probe or request).", counters["evictions"], "counter")
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
        # regroup across replicas instead of concatenating expositions.
        order: list[str] = []
        metrics: dict[str, dict] = {}
        for name in sorted(alive):
            try:
                status, _, raw = self._request(self.targets[name], "GET", "/v1/metrics")
            except (OSError, HTTPException):
                self._mark_dead(name)
                continue
            if status != 200:
                continue
            for line in raw.decode("utf-8", "replace").splitlines():
                if line.startswith("# HELP ") or line.startswith("# TYPE "):
                    keyword = line[2:6]
                    rest = line[7:]
                    metric, _, text = rest.partition(" ")
                    entry = metrics.get(metric)
                    if entry is None:
                        entry = metrics[metric] = {"help": None, "type": None, "samples": []}
                        order.append(metric)
                    key = "help" if keyword == "HELP" else "type"
                    if entry[key] is None:
                        entry[key] = text
                elif line and not line.startswith("#"):
                    match = _SAMPLE_LINE.match(line)
                    if match is None:
                        continue
                    metric, labels, value = match.groups()
                    entry = metrics.get(metric)
                    if entry is None:
                        entry = metrics[metric] = {"help": None, "type": None, "samples": []}
                        order.append(metric)
                    labeled = f'replica="{name}"' + (f",{labels}" if labels else "")
                    entry["samples"].append(f"{metric}{{{labeled}}} {value}")
        for metric in order:
            entry = metrics[metric]
            if entry["help"] is not None:
                lines.append(f"# HELP {metric} {entry['help']}")
            if entry["type"] is not None:
                lines.append(f"# TYPE {metric} {entry['type']}")
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
                text = await self._run(self.metrics_text)
                await self._send_body(
                    writer, request, 200, text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE
                )
            elif path == "/v1/pipelines":
                await self._send_json(writer, request, 200, await self._run(self.pipelines_payload))
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
            result = await self._run(
                self.fanout_rules, unquote(match["name"]), method, request.target, raw
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
        headers = {}
        for key in _FORWARD_REQUEST_HEADERS:
            value = request.header(key.lower())
            if value is not None:
                headers[key] = value
        result = await self._run(
            self.proxy, name, request.method, request.target, raw, headers
        )
        return await self._relay(writer, result)

    async def _relay(self, writer, result: "tuple[int, object, bytes]") -> bool:
        status, headers, raw = result
        relayed = [
            (key, headers.get(key))
            for key in _RELAY_RESPONSE_HEADERS
            if headers.get(key) is not None
        ]
        # Mirror the worker gateways: an error response may leave
        # request-body bytes unread on the wire, so hang up rather than
        # misparse them as the next request.
        close = status >= 400
        await self._write(writer, status, raw, headers.get("Content-Type"), relayed, close)
        return not close

    async def _route_stream(self, writer, request, body, name: str) -> bool:
        """The scatter path: split, scatter, fold, answer like one gateway."""
        # A malformed ``?workers=`` is a 400 here as on a gateway; a
        # well-formed one scatters like any other stream.
        parse_query_workers(request.query)
        emit_partials = parse_query_flag(request.query, "partials")
        order = self.scatter_order(name)
        context = await self._run(self.merge_context, name)
        if (
            emit_partials          # the caller is itself a merger
            or len(order) < 2      # nothing to scatter across
            or context is None     # no archive → no local merge context
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
            splitter = _FrameSplitter(self.max_body_bytes)
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

        partials = await self._scatter(name, chunks, content_type)
        summary = await self._run(self._fold, name, partials, context)

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
        # The prober runs while the router serves, whichever of start()
        # or serve_forever() brought it up.
        if self._health_thread is None and self.health_interval > 0:
            self._health_thread = threading.Thread(
                target=self._health_loop, name="repro-router-health", daemon=True
            )
            self._health_thread.start()
        await super()._main()

    def _release(self) -> None:
        self._health_stop.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=5.0)
            self._health_thread = None
