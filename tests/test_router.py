"""Router tier tests: consistent hashing, health-checked membership,
scatter/merge parity, failover, fleet processes.

The acceptance bar mirrors the serving stack's standing invariant: a
2-replica router fleet must produce **bit-identical** results to a
single-node gateway — reports, fused rule reports, stream summaries
(``n_chunks`` and float fold order included) — across all 20 seeded
corruption scenarios on both the JSON and the binary frame tier. On top
of that, the distributed failure contract: a draining or dead worker is
evicted (and re-admitted on recovery) without moving any other
pipeline's home replica; a worker dying mid-stream re-scatters its
chunk range onto survivors or, with nobody left, surfaces a retryable
503 — never a wrong or partial report; a worker answering 5xx is
skipped but stays in the ring, and a 5xx every worker repeats is
relayed. The router keeps no copy of a pipeline's threshold or rule
set: it folds each scatter under the fold context its ranges return, so
state changed on the replicas behind its back still folds to the
single-node answer, and ranges that disagree get a retryable 503. An
upstream request is resent only when its pooled socket went stale
before the status line. Upstream calls and health probes run on the
router's event loop and share its idle connections: a hung replica
fails its probe on time, a prober running beside traffic changes no
answer, and no upstream call takes a thread. The router serves on the same
asyncio front as a gateway, so drain-on-close, relayed keep-alive and
gzipped bodies are pinned here too.

In-process ``AsyncGateway`` replicas back most tests (the router only
needs URLs, keeping the 20-scenario sweep fast). :class:`GatewayFleet`
tests run real ``repro-serve`` replica processes: the kill/restart
drill, a graceful close (every replica exits 0), a replica that fails
startup, a SIGKILLed fleet owner whose replicas must still stop, and
the ``--replicas`` CLI stopping on SIGTERM.
"""

from __future__ import annotations

import asyncio
import gzip
import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from http.client import HTTPConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.api.protocol import fold_context_from_dict
from repro.exceptions import GatewayError, ReproError
from repro.runtime import ValidationService
from repro.serve import AsyncGateway, Client, GatewayFleet, RouterGateway
from repro.serve.router import _HashRing
from tests.test_differential import (
    CHUNK_SIZE,
    N_SCENARIOS,
    RULES_DOC,
    assert_reports_identical,
    make_clean,
    make_scenario,
)
from tests.test_serve import post_raw, start_serve_process, stream_lines

from repro.core import DQuaG, DQuaGConfig


@pytest.fixture(scope="module")
def archive():
    """A fitted pipeline saved to disk — the replicas and the single-node
    reference all load this one file."""
    with _saved_pipeline(seed=0) as path:
        yield path


@contextmanager
def _saved_pipeline(seed: int):
    fitted = DQuaG(DQuaGConfig(hidden_dim=16, epochs=6, batch_size=64)).fit(
        make_clean(500, seed=seed), rng=seed
    )
    handle, path = tempfile.mkstemp(prefix="repro-router-", suffix=".npz")
    os.close(handle)
    fitted.save(path)
    try:
        yield path
    finally:
        os.unlink(path)


@contextmanager
def _serving(archive):
    """Single-node reference + a 2-replica router, all from one archive."""
    services, gateways = [], []
    for _ in range(3):  # [0] = single-node reference, [1:] = replicas
        service = ValidationService(capacity=2)
        service.register("demo", archive)
        services.append(service)
        gateways.append(AsyncGateway(service, port=0).start())
    router = RouterGateway(
        [(f"replica-{i}", "127.0.0.1", gw.port) for i, gw in enumerate(gateways[1:])],
        port=0,
        health_interval=0,  # tests drive check_workers() deterministically
    ).start()
    single, routed = Client(port=gateways[0].port), Client(port=router.port)
    try:
        yield SimpleNamespace(
            router=router,
            single=single,
            routed=routed,
            gateways=gateways,
            services=services,
            replica_ports=[gw.port for gw in gateways[1:]],
        )
    finally:
        single.close()
        routed.close()
        router.close()
        for gateway in gateways:
            gateway.close()
        for service in services:
            service.close()


@pytest.fixture(scope="module")
def cluster(archive):
    with _serving(archive) as served:
        yield served


@pytest.fixture
def fresh_cluster(archive):
    """A private ``cluster`` for tests that change replica state behind
    the router's back."""
    with _serving(archive) as served:
        yield served


class _StubWorker:
    """A scriptable fake replica: healthz answers whatever the test sets;
    POST bodies are read then the socket is torn down mid-response
    (the 'worker died under a scattered stream' failure): before any
    response byte, or with ``cut_body`` after 10 of a 100-byte body."""

    def __init__(self, status: str = "ok", cut_body: bool = False):
        stub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args):  # noqa: A002
                pass

            def do_GET(self):
                payload = {"kind": "health", "status": stub.status, "pipelines": 1}
                body = json.dumps(payload).encode()
                self.send_response(200 if stub.status == "ok" else 503)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_POST(self):
                length = int(self.headers.get("Content-Length") or 0)
                if length:
                    self.rfile.read(length)
                stub.posts += 1
                if stub.cut_body:
                    self.send_response(200)
                    self.send_header("Content-Length", "100")
                    self.end_headers()
                    self.wfile.write(b"x" * 10)
                # die mid-request
                self.connection.close()
                self.close_connection = True

        self.status = status
        self.cut_body = cut_body
        self.posts = 0
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = True
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    def close(self):
        self._server.shutdown()
        self._server.server_close()


class TestHashRing:
    def test_route_is_deterministic_and_balanced(self):
        ring = _HashRing([f"replica-{i}" for i in range(4)])
        keys = [f"pipeline-{i}" for i in range(200)]
        homes = [ring.route(key) for key in keys]
        assert homes == [ring.route(key) for key in keys]
        counts = {name: homes.count(name) for name in set(homes)}
        assert len(counts) == 4  # every replica owns some keys
        assert min(counts.values()) > 0

    def test_dead_replica_does_not_move_other_keys(self):
        names = [f"replica-{i}" for i in range(4)]
        ring = _HashRing(names)
        keys = [f"pipeline-{i}" for i in range(200)]
        before = {key: ring.route(key) for key in keys}
        alive = set(names) - {"replica-2"}
        for key, home in before.items():
            after = ring.route(key, alive)
            if home != "replica-2":
                assert after == home  # eviction moved nobody else
            else:
                assert after in alive
        # re-admission restores the original placement exactly
        assert {key: ring.route(key, set(names)) for key in keys} == before

    def test_order_prefers_home_then_failovers(self):
        ring = _HashRing(["a", "b", "c"])
        order = ring.order("demo")
        assert sorted(order) == ["a", "b", "c"]
        assert ring.route("demo") == order[0]
        assert ring.order("demo", set(order[1:])) == order[1:]


def _fail_chunks(monkeypatch, cluster, replicas) -> None:
    """Make the named ``cluster`` replicas answer every stream chunk with
    a 500: their validation core raises, their sockets stay healthy."""
    for replica in replicas:
        port = cluster.router.targets[replica].port
        service = next(gw.service for gw in cluster.gateways if gw.port == port)
        build = service.validator_for

        def broken(name, build=build):
            validator = build(name)

            def validate_chunk(table, offset=0):
                raise RuntimeError("injected chunk failure")

            validator.validate_chunk = validate_chunk
            return validator

        monkeypatch.setattr(service, "validator_for", broken)


class TestParity:
    """Router-fronted results must be bit-identical to single-node."""

    @pytest.mark.parametrize("index", range(N_SCENARIOS))
    def test_validate_and_stream_identical_across_tiers(self, index, cluster):
        table = make_scenario(index)
        reference = cluster.single.validate("demo", table, include_errors=True)

        routed = cluster.routed.validate("demo", table, include_errors=True)
        assert_reports_identical(reference, routed, "router-json")

        with Client(port=cluster.router.port, wire="frame") as framed_client:
            framed = framed_client.validate("demo", table, include_errors=True)
        assert_reports_identical(reference, framed, "router-frame")

        chunks = [
            table.slice_rows(start, start + CHUNK_SIZE)
            for start in range(0, table.n_rows, CHUNK_SIZE)
        ]
        single_stream = cluster.single.validate_stream("demo", chunks)
        routed_stream = cluster.routed.validate_stream("demo", chunks)
        # dict equality pins everything: flags, error sums (float fold
        # order), verdicts, and the client's chunk partition (n_chunks).
        assert routed_stream.to_dict() == single_stream.to_dict()

        if index % 5 == 0:  # frame-tier streams: sample the scenarios
            with Client(port=cluster.router.port, wire="frame") as framed_client:
                frame_stream = framed_client.validate_stream("demo", chunks)
            assert frame_stream.to_dict() == single_stream.to_dict()

    def test_scatter_used_not_proxied(self, cluster):
        before = cluster.router._counters["streams_scattered"]
        table = make_scenario(1)
        chunks = [
            table.slice_rows(start, start + CHUNK_SIZE)
            for start in range(0, table.n_rows, CHUNK_SIZE)
        ]
        cluster.routed.validate_stream("demo", chunks)
        assert cluster.router._counters["streams_scattered"] == before + 1

    def test_workers_stream_scatters_like_any_stream(self, cluster):
        table = make_scenario(2)
        chunks = [
            table.slice_rows(start, start + CHUNK_SIZE)
            for start in range(0, table.n_rows, CHUNK_SIZE)
        ]
        single_port = cluster.gateways[0].port
        plain = stream_lines(single_port, chunks)
        assert stream_lines(single_port, chunks, "?workers=2") == plain
        before = cluster.router._counters["streams_scattered"]
        assert stream_lines(cluster.router.port, chunks, "?workers=2") == plain
        assert cluster.router._counters["streams_scattered"] == before + 1

    @pytest.mark.parametrize("front", ["gateway", "router"])
    @pytest.mark.parametrize(
        "field, query",
        [(0, ""), ("lots", ""), (None, "?workers=banana")],
        ids=["zero-field", "lots-field", "banana-query"],
    )
    def test_workers_from_older_clients_are_ignored(self, cluster, front, field, query):
        """A ``workers`` body field or ``?workers=`` parameter, well-formed
        or not, answers exactly like the request without it: a validate
        byte for byte, and a stream scattered through the router too."""
        port = (cluster.gateways[0] if front == "gateway" else cluster.router).port
        table = make_scenario(3)

        def validate(payload: dict, suffix: str = "") -> "tuple[int, bytes]":
            connection = HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                connection.request(
                    "POST", "/v1/pipelines/demo/validate" + suffix, body=json.dumps(payload),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                return response.status, response.read()
            finally:
                connection.close()

        plain = validate({"records": table.to_records()})
        assert plain[0] == 200
        older = {"records": table.to_records()}
        if field is not None:
            older["workers"] = field
        assert validate(older, query) == plain
        if query:
            chunks = [
                table.slice_rows(start, start + CHUNK_SIZE)
                for start in range(0, table.n_rows, CHUNK_SIZE)
            ]
            assert stream_lines(port, chunks, query) == stream_lines(port, chunks)

    def test_malformed_stream_line_is_400_and_evicts_nobody(self, cluster):
        # A replica refusing a client's range with a 400 is propagated,
        # never counted as a replica failure: a 500 here would evict
        # each replica in turn and empty the ring.
        router = cluster.router
        before = dict(router._counters)
        body = (
            json.dumps({"records": make_scenario(0).slice_rows(0, 4).to_records()})
            + "\n"
            + json.dumps({"records": [1, 2]})
            + "\n"
        )
        status, payload = post_raw(
            router.port, "/v1/pipelines/demo/validate_stream", body.encode(),
            "application/x-ndjson",
        )
        assert status == 400, payload
        assert "list of row objects" in payload["error"]
        assert router._counters["evictions"] == before["evictions"]
        assert router._counters["rescatters"] == before["rescatters"]
        assert router.alive_names() == {"replica-0", "replica-1"}
        assert router.check_workers() == {"replica-0": True, "replica-1": True}

    def test_rules_fan_out_and_fold_identically(self, cluster):
        table = make_scenario(3)
        chunks = [
            table.slice_rows(start, start + CHUNK_SIZE)
            for start in range(0, table.n_rows, CHUNK_SIZE)
        ]
        cluster.single.set_rules("demo", RULES_DOC)
        try:
            # One PUT through the router lands on every replica (the
            # scatter path may run a range on any of them).
            cluster.routed.set_rules("demo", RULES_DOC)
            for port in cluster.replica_ports:
                with Client(port=port) as replica:
                    attached = replica.get_rules("demo")
                assert attached is not None and attached.name == RULES_DOC["name"]

            reference = cluster.single.validate_stream("demo", chunks)
            routed = cluster.routed.validate_stream("demo", chunks)
            assert routed.to_dict() == reference.to_dict()
            assert routed.rule_report is not None

            cluster.routed.delete_rules("demo")
            for port in cluster.replica_ports:
                with Client(port=port) as replica:
                    assert replica.get_rules("demo") is None
        finally:
            cluster.single.delete_rules("demo")
            cluster.routed.delete_rules("demo")

    def test_partials_substream_ends_with_its_fold_context(self, cluster):
        chunks = _chunks(make_scenario(0))
        replica = cluster.replica_ports[0]
        lines = [json.loads(line) for line in stream_lines(replica, chunks, "?partials=1")]
        assert [line["kind"] for line in lines] == ["partial_report"] * len(chunks) + ["fold_context"]
        context = fold_context_from_dict(lines[-1])
        assert context["rules"] is None
        assert context["threshold"] == cluster.single.validate_stream("demo", chunks).threshold
        status, payload = post_raw(
            replica, "/v1/pipelines/demo/validate_stream?partials=1", b"", "application/x-ndjson"
        )
        assert status == 400 and "empty stream" in payload["error"]

    def test_stream_with_an_empty_first_chunk_matches_single_node(self, cluster):
        # The range holding only the zero-row chunk is no empty stream:
        # the stream as a whole has rows.
        rows = make_scenario(0).slice_rows(0, 4).to_records()
        body = (json.dumps({"records": []}) + "\n" + json.dumps({"records": rows}) + "\n").encode()
        scattered = cluster.router._counters["streams_scattered"]
        replies = [
            _post(port, "/v1/pipelines/demo/validate_stream", body,
                  {"Content-Type": "application/x-ndjson"})
            for port in (cluster.gateways[0].port, cluster.router.port)
        ]
        assert [status for status, _ in replies] == [200, 200], replies
        single, routed = ([json.loads(line) for line in raw.splitlines()] for _, raw in replies)
        assert routed == single
        assert cluster.router._counters["streams_scattered"] == scattered + 1

    def test_error_contract_proxied_verbatim(self, cluster):
        with pytest.raises(GatewayError) as excinfo:
            cluster.routed.validate("nope", make_scenario(0))
        assert excinfo.value.status == 404
        with pytest.raises(GatewayError) as excinfo:
            cluster.routed.validate_stream("demo", [])
        assert excinfo.value.status == 400


#: a rule set other than ``RULES_DOC``: a fold under one of them cannot
#: read partials computed under the other
RULES_V2 = {
    "name": "differential-checks-v2",
    "rules": [
        {"id": "x-range-v2", "severity": "error",
         "predicate": {"type": "range", "column": "x", "min": 0.2, "max": 0.8}},
    ],
}


def _chunks(table) -> list:
    return [
        table.slice_rows(start, start + CHUNK_SIZE)
        for start in range(0, table.n_rows, CHUNK_SIZE)
    ]


class TestReplicaState:
    """State changed on the replicas, not through the router, must fold
    to what a single gateway in the same state answers."""

    def test_rules_detached_on_the_replicas(self, fresh_cluster):
        chunks = _chunks(make_scenario(3))
        fresh_cluster.routed.set_rules("demo", RULES_DOC)
        fresh_cluster.routed.validate_stream("demo", chunks)
        for gateway in fresh_cluster.gateways:
            with Client(port=gateway.port) as client:
                client.delete_rules("demo")
        routed = fresh_cluster.routed.validate_stream("demo", chunks)
        assert routed.rule_report is None
        assert routed.to_dict() == fresh_cluster.single.validate_stream("demo", chunks).to_dict()

    def test_other_rules_attached_on_the_replicas(self, fresh_cluster):
        chunks = _chunks(make_scenario(3))
        fresh_cluster.routed.set_rules("demo", RULES_DOC)
        for gateway in fresh_cluster.gateways:
            with Client(port=gateway.port) as client:
                client.set_rules("demo", RULES_V2)
        routed = fresh_cluster.routed.validate_stream("demo", chunks)
        assert [outcome.rule_id for outcome in routed.rule_report.outcomes] == ["x-range-v2"]
        assert routed.to_dict() == fresh_cluster.single.validate_stream("demo", chunks).to_dict()

    def test_every_gateway_reregistered_on_retrained_weights(self, fresh_cluster):
        chunks = _chunks(make_scenario(5))
        before = fresh_cluster.routed.validate_stream("demo", chunks)
        with _saved_pipeline(seed=1) as retrained:
            for service in fresh_cluster.services:
                service.register("demo", retrained)
            single = fresh_cluster.single.validate_stream("demo", chunks)
            routed = fresh_cluster.routed.validate_stream("demo", chunks)
        assert single.threshold != before.threshold
        assert routed.to_dict() == single.to_dict()

    def test_replicas_disagreeing_on_rules_get_retryable_503(self, fresh_cluster):
        router = fresh_cluster.router
        chunks = _chunks(make_scenario(3))
        assert len(chunks) >= 2  # both replicas judge a range
        with Client(port=fresh_cluster.replica_ports[0]) as replica:
            replica.set_rules("demo", RULES_DOC)
        before = dict(router._counters)
        status, raw = _post(
            router.port, "/v1/pipelines/demo/validate_stream", _ndjson_body(chunks),
            {"Content-Type": "application/x-ndjson"},
        )
        assert status == 503, raw
        assert "disagree" in json.loads(raw)["error"]
        assert router._counters["evictions"] == before["evictions"]
        assert router._counters["streams_scattered"] == before["streams_scattered"]
        assert router.alive_names() == {"replica-0", "replica-1"}


class TestMembership:
    def test_draining_replica_is_evicted_then_readmitted(self, cluster):
        """Satellite pin: a worker reporting 503 'draining' on healthz is
        evicted by the router, and re-admitted once healthy again."""
        gateway = cluster.gateways[1]  # replica-0
        health = cluster.router.check_workers()
        assert health == {"replica-0": True, "replica-1": True}
        evictions = cluster.router._counters["evictions"]
        try:
            gateway._draining = True  # the close() drain window, held open
            # the wire actually reports 503 + "draining"
            conn = HTTPConnection("127.0.0.1", gateway.port)
            conn.request("GET", "/v1/healthz")
            response = conn.getresponse()
            payload = json.loads(response.read())
            conn.close()
            assert response.status == 503
            assert payload["status"] == "draining"

            assert cluster.router.check_workers() == {
                "replica-0": False,
                "replica-1": True,
            }
            assert cluster.router._counters["evictions"] == evictions + 1
            assert "replica-0" not in cluster.router.alive_names()
            # traffic still flows through the survivor
            cluster.routed.validate("demo", make_clean(64, seed=5))
        finally:
            gateway._draining = False
        assert cluster.router.check_workers()["replica-0"] is True
        assert cluster.router._counters["readmissions"] >= 1

    def test_healthz_degrades_when_no_replica_is_routable(self):
        stub = _StubWorker(status="draining")
        router = RouterGateway(
            [("only", "127.0.0.1", stub.port)], port=0, health_interval=0
        ).start()
        try:
            router.check_workers()
            payload = router.healthz()
            assert payload["status"] == "degraded"
            assert payload["healthy_replicas"] == 0
            conn = HTTPConnection("127.0.0.1", router.port)
            conn.request("GET", "/v1/healthz")
            response = conn.getresponse()
            assert response.status == 503
            response.read()
            conn.close()
        finally:
            router.close()
            stub.close()

    def test_hung_replica_fails_its_probe_on_time(self, cluster):
        # A listener that never accepts: the kernel completes each TCP
        # handshake, and nothing ever answers the probe.
        with socket.socket() as hung:
            hung.bind(("127.0.0.1", 0))
            hung.listen()
            router = RouterGateway(
                [("hung", "127.0.0.1", hung.getsockname()[1]),
                 ("live", "127.0.0.1", cluster.replica_ports[0])],
                port=0, health_interval=0,
            ).start()
            try:
                started = time.monotonic()
                assert router.check_workers() == {"hung": False, "live": True}
                assert time.monotonic() - started < RouterGateway.HEALTH_TIMEOUT + 1.0
                assert router.alive_names() == {"live"}
            finally:
                router.close()

    def test_prober_runs_beside_traffic(self, cluster):
        """Probes and requests share each replica's idle connections; a
        round every 50 ms changes no answer and evicts nobody."""
        router = RouterGateway(
            [(f"replica-{i}", "127.0.0.1", port) for i, port in enumerate(cluster.replica_ports)],
            port=0, health_interval=0.05,
        ).start()
        try:
            for index in (0, 3, 6):
                table = make_scenario(index)
                chunks = _chunks(table)
                reference = cluster.single.validate("demo", table, include_errors=True)
                single_stream = cluster.single.validate_stream("demo", chunks).to_dict()
                for wire in ("json", "frame"):
                    with Client(port=router.port, wire=wire) as client:
                        assert client.validate_stream("demo", chunks).to_dict() == single_stream
                        routed = client.validate("demo", table, include_errors=True)
                        assert_reports_identical(reference, routed, f"prober-{wire}")
            assert router._counters["streams_scattered"] == 6
            assert all(target.last_payload is not None for target in router.targets.values())
            assert router._counters["evictions"] == 0
            assert router._counters["readmissions"] == 0
        finally:
            router.close()

    def test_upstream_io_starts_no_thread(self, cluster, monkeypatch):
        """Proxied calls and rule fan-outs run on the router's loop, and
        so does the prober: no prober thread, no job on the compute pool."""
        router = RouterGateway(
            [(f"replica-{i}", "127.0.0.1", port) for i, port in enumerate(cluster.replica_ports)],
            port=0, health_interval=0.05,
        ).start()
        jobs = []

        async def recorded(fn, *args):
            jobs.append(fn)

        monkeypatch.setattr(router, "_run", recorded)  # the router's only way to the pool
        table = make_clean(32, seed=7)
        reference = cluster.single.validate("demo", table, include_errors=True)

        def validate(_):
            with Client(port=router.port) as client:
                return client.validate("demo", table, include_errors=True)

        # The replicas share this process's compute pool: their threads
        # may start meanwhile; the router's own must not.
        def others():
            return {t for t in threading.enumerate() if not t.name.startswith("repro-compute")}

        before = others()
        try:
            with ThreadPoolExecutor(8) as pool:
                for routed in pool.map(validate, range(16)):
                    assert_reports_identical(reference, routed, "concurrent")
            with Client(port=router.port) as client:
                client.set_rules("demo", RULES_DOC)
                assert client.get_rules("demo").name == RULES_DOC["name"]
            time.sleep(0.2)  # a few probe rounds
            assert others() <= before
            assert not jobs
        finally:
            router.close()
            cluster.routed.delete_rules("demo")

    def test_burst_leaves_at_most_max_idle_connections(self, cluster):
        """A 64-way burst opens an upstream connection per call in
        flight; once it is answered, each replica keeps at most
        ``MAX_IDLE`` of them and the rest are closed."""
        router = RouterGateway(
            [(f"replica-{i}", "127.0.0.1", port) for i, port in enumerate(cluster.replica_ports)],
            port=0, health_interval=0,
        ).start()
        table = make_clean(32, seed=8)
        reference = cluster.single.validate("demo", table, include_errors=True)
        burst = threading.Barrier(64)

        def validate(_):
            with Client(port=router.port) as client:
                burst.wait(timeout=60)
                return client.validate("demo", table, include_errors=True)

        try:
            with ThreadPoolExecutor(64) as pool:
                for routed in pool.map(validate, range(64)):
                    assert_reports_identical(reference, routed, "burst")
            assert all(len(idle) <= RouterGateway.MAX_IDLE for idle in router._idle.values())
        finally:
            router.close()


class TestFailover:
    def test_worker_dying_midstream_rescatters_exactly(self, cluster):
        """Satellite pin: kill a worker mid-stream — the request completes
        via re-scatter with a bit-identical report, never a partial one."""
        stub = _StubWorker(status="ok")  # healthy on probes, dies on POST
        targets = [
            (f"replica-{i}", "127.0.0.1", port)
            for i, port in enumerate(cluster.replica_ports)
        ] + [("doomed", "127.0.0.1", stub.port)]
        router = RouterGateway(
            targets, port=0, health_interval=0
        ).start()
        client = Client(port=router.port)
        try:
            table = make_scenario(2)
            chunks = [
                table.slice_rows(start, start + CHUNK_SIZE)
                for start in range(0, table.n_rows, CHUNK_SIZE)
            ]
            assert len(chunks) >= 3  # every replica owns at least one range
            reference = cluster.single.validate_stream("demo", chunks)
            routed = client.validate_stream("demo", chunks)
            assert routed.to_dict() == reference.to_dict()
            assert stub.posts >= 1  # the doomed worker really was hit
            assert router._counters["rescatters"] >= 1
            assert "doomed" not in router.alive_names()
        finally:
            client.close()
            router.close()
            stub.close()

    def test_home_replica_5xx_rescatters_without_evicting(self, cluster, monkeypatch):
        router = cluster.router
        home = router.scatter_order("demo")[0]
        _fail_chunks(monkeypatch, cluster, [home])
        table = make_scenario(4)
        chunks = [
            table.slice_rows(start, start + CHUNK_SIZE)
            for start in range(0, table.n_rows, CHUNK_SIZE)
        ]
        reference = cluster.single.validate_stream("demo", chunks)
        before = dict(router._counters)
        routed = cluster.routed.validate_stream("demo", chunks)
        assert routed.to_dict() == reference.to_dict()
        assert router._counters["rescatters"] == before["rescatters"] + 1
        assert router._counters["evictions"] == before["evictions"]
        assert router.alive_names() == {"replica-0", "replica-1"}

    def test_5xx_on_every_replica_is_relayed_and_evicts_nobody(self, cluster, monkeypatch):
        router = cluster.router
        _fail_chunks(monkeypatch, cluster, ["replica-0", "replica-1"])
        table = make_scenario(4)
        chunks = [
            table.slice_rows(start, start + CHUNK_SIZE)
            for start in range(0, table.n_rows, CHUNK_SIZE)
        ]
        before = dict(router._counters)
        with pytest.raises(GatewayError) as excinfo:
            cluster.routed.validate_stream("demo", chunks)
        assert excinfo.value.status == 500  # relayed, not a 503 from an empty ring
        assert "injected chunk failure" in str(excinfo.value)
        assert router._counters["evictions"] == before["evictions"]
        assert router.alive_names() == {"replica-0", "replica-1"}
        assert router.check_workers() == {"replica-0": True, "replica-1": True}

    def test_full_replica_queue_relays_its_429_and_retry_after(self, archive):
        """A replica may refuse a scatter range once its queue is full:
        the stream answers 429 with that replica's ``Retry-After``, evicts
        nobody, and returns no partial fold."""
        services = [ValidationService(capacity=2) for _ in range(2)]
        for service in services:
            service.register("demo", archive)
        # A 60 s window parks a validate on replica-0 and fills its
        # 1-deep queue; its hint is then one window.
        gateways = [
            AsyncGateway(service, port=0, batch_window_ms=60_000.0, max_queue_depth=depth).start()
            for service, depth in zip(services, (1, 1024))
        ]
        router = RouterGateway(
            [(f"replica-{i}", "127.0.0.1", gw.port) for i, gw in enumerate(gateways)],
            port=0, health_interval=0,
        ).start()
        table = make_scenario(5)
        body = b"".join(
            json.dumps({"records": table.slice_rows(start, start + CHUNK_SIZE).to_records()})
            .encode() + b"\n"
            for start in range(0, table.n_rows, CHUNK_SIZE)
        )

        def park():
            try:
                post_raw(gateways[0].port, "/v1/pipelines/demo/validate",
                         json.dumps({"records": table.to_records()[:4]}).encode(),
                         "application/json")
            except (OSError, http.client.HTTPException):
                pass  # hung up by the gateway's close below

        parked = threading.Thread(target=park, daemon=True)
        try:
            parked.start()
            deadline = time.monotonic() + 10
            while gateways[0].scheduler.stats_snapshot().queue_depth < 1:
                assert time.monotonic() < deadline, "the parked validate never queued"
                time.sleep(0.01)
            connection = HTTPConnection("127.0.0.1", router.port, timeout=30)
            try:
                connection.request(
                    "POST", "/v1/pipelines/demo/validate_stream", body=body,
                    headers={"Content-Type": "application/x-ndjson"},
                )
                response = connection.getresponse()
                payload = json.loads(response.read())
            finally:
                connection.close()
            assert response.status == 429, payload
            assert response.getheader("Retry-After") == "60"
            assert payload["kind"] == "error"
            assert router._counters["evictions"] == 0
            assert router.alive_names() == {"replica-0", "replica-1"}
        finally:
            router.close()
            for gateway in gateways:
                gateway.close(drain_timeout=0.5)
            parked.join(timeout=10)
            for service in services:
                service.close()

    def test_response_cut_mid_body_is_sent_once(self):
        # The replica may have run a request whose response it cut (its
        # drift monitor saw the chunks), so that is not resent; only a
        # pooled socket gone stale before the status line is.
        stub = _StubWorker(status="ok", cut_body=True)
        router = RouterGateway([("stub", "127.0.0.1", stub.port)], port=0, health_interval=0)
        target = router.targets["stub"]

        async def exchange():
            assert (await router._request(target, "GET", "/v1/healthz"))[0] == 200  # pools it
            with pytest.raises((http.client.HTTPException, OSError)):
                await router._request(target, "POST", "/v1/pipelines/demo/validate_stream", b"{}\n")

        try:
            asyncio.run(exchange())
            assert stub.posts == 1
        finally:
            router.close()
            stub.close()

    def test_every_replica_dead_yields_retryable_503(self):
        stubs = [_StubWorker(status="ok") for _ in range(2)]
        router = RouterGateway(
            [(f"stub-{i}", "127.0.0.1", stub.port) for i, stub in enumerate(stubs)],
            port=0,
                health_interval=0,
        ).start()
        client = Client(port=router.port)
        try:
            table = make_clean(600, seed=9)
            chunks = [
                table.slice_rows(start, start + CHUNK_SIZE)
                for start in range(0, table.n_rows, CHUNK_SIZE)
            ]
            with pytest.raises(GatewayError) as excinfo:
                client.validate_stream("demo", chunks)
            assert excinfo.value.status == 503  # retryable, never partial
            # dead replicas also fail plain validates with 503
            with pytest.raises(GatewayError) as excinfo:
                client.validate("demo", make_clean(32, seed=3))
            assert excinfo.value.status == 503
        finally:
            client.close()
            router.close()
            for stub in stubs:
                stub.close()


class TestObservability:
    def test_metrics_grouped_with_replica_label(self, cluster):
        cluster.routed.validate("demo", make_clean(64, seed=11))
        text = cluster.routed.metrics()
        # the router's own gauge family
        assert "repro_router_replicas 2" in text
        assert "repro_router_replicas_healthy" in text
        assert 'repro_router_replica_up{replica="replica-0"} 1' in text
        assert 'repro_router_requests_total{replica=' in text
        assert "repro_router_streams_scattered_total" in text
        # replica metrics: every sample labeled, each metric declared once
        assert 'replica="replica-0"' in text and 'replica="replica-1"' in text
        for line in text.splitlines():
            if line.startswith("repro_service_") or line.startswith("repro_pipeline_"):
                assert 'replica="' in line, line
        declared = [
            line.split()[2] for line in text.splitlines() if line.startswith("# TYPE ")
        ]
        assert len(declared) == len(set(declared))  # one HELP/TYPE block per metric

    def test_pipelines_aggregates_fleet_counters(self, cluster):
        cluster.routed.validate("demo", make_clean(64, seed=12))
        stats = cluster.routed.pipelines()
        assert stats.registered == 1  # max, not sum: same registry everywhere
        assert stats.validations >= 1
        assert "demo" in stats.pipelines
        per_replica_total = 0
        for port in cluster.replica_ports:
            with Client(port=port) as replica:
                per_replica_total += replica.pipelines().rows_validated
        assert stats.rows_validated == per_replica_total


def _ndjson_body(chunks) -> bytes:
    """An NDJSON ``validate_stream`` body: one record-list line per chunk."""
    return b"".join(
        json.dumps({"records": chunk.to_records()}).encode("utf-8") + b"\n"
        for chunk in chunks
    )


def _post(
    port: int, path: str, body: bytes, headers: dict, method: str = "POST"
) -> "tuple[int, bytes]":
    """One POST (or ``method``) on a fresh connection; returns (status, body)."""
    conn = HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class TestSharedFront:
    """The router rides the gateway's asyncio front: drain on close,
    keep-alive accounting on relayed responses, and gzip on both the
    proxied and the scattered path."""

    def test_close_drains_in_flight_scattered_stream(self, cluster):
        router = RouterGateway(
            [(f"replica-{i}", "127.0.0.1", port) for i, port in enumerate(cluster.replica_ports)],
            port=0,
                health_interval=0,
        ).start()
        table = make_clean(12_000, seed=31)
        chunks = [
            table.slice_rows(start, start + CHUNK_SIZE)
            for start in range(0, table.n_rows, CHUNK_SIZE)
        ]
        reference = cluster.single.validate_stream("demo", chunks)
        result: dict = {}

        def stream():
            # A raw connection: the stream is the only request, so the
            # in-flight poll below cannot fire on anything else.
            try:
                result["reply"] = _post(
                    router.port,
                    "/v1/pipelines/demo/validate_stream",
                    _ndjson_body(chunks),
                    {"Content-Type": "application/x-ndjson"},
                )
            except Exception as exc:  # pragma: no cover - failure detail
                result["error"] = exc

        worker = threading.Thread(target=stream)
        worker.start()
        deadline = time.monotonic() + 30
        while router._active == 0 and worker.is_alive() and time.monotonic() < deadline:
            time.sleep(0.002)
        router.close()  # default drain: must not sever the in-flight stream
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert "error" not in result, result.get("error")
        status, raw = result["reply"]
        assert status == 200
        summary = json.loads(raw.splitlines()[-1])
        assert summary == reference.to_dict()
        assert router._counters["streams_scattered"] == 1

    def test_close_without_serving_returns_promptly(self, cluster):
        router = RouterGateway(
            [("replica-0", "127.0.0.1", cluster.replica_ports[0])], port=0
        )
        started = time.monotonic()
        router.close()
        router.close()  # a second close does nothing
        assert time.monotonic() - started < 5.0

    def test_relayed_error_closes_and_success_keeps_alive(self, cluster):
        body = json.dumps({"records": make_clean(8, seed=4).to_records()}).encode()
        address = ("127.0.0.1", cluster.router.port)
        with socket.create_connection(address, timeout=30) as sock:
            for name, status, connection in (("demo", 200, "keep-alive"), ("nope", 404, "close")):
                sock.sendall(
                    (
                        f"POST /v1/pipelines/{name}/validate HTTP/1.1\r\n"
                        "Host: 127.0.0.1\r\nContent-Type: application/json\r\n"
                        f"Content-Length: {len(body)}\r\n\r\n"
                    ).encode("ascii")
                    + body
                )
                response = http.client.HTTPResponse(sock)
                response.begin()
                response.read()
                assert response.status == status
                assert response.getheader("Connection") == connection
            # the 200 kept the socket open for the 404, which hung it up
            assert sock.recv(1) == b""

    def test_gzipped_bodies_match_single_node_on_both_paths(self, cluster):
        table = make_scenario(4)
        gzipped = {"Content-Encoding": "gzip"}
        validate = gzip.compress(json.dumps({"records": table.to_records()}).encode())
        replies = [
            _post(port, "/v1/pipelines/demo/validate", validate,
                  {"Content-Type": "application/json", **gzipped})
            for port in (cluster.gateways[0].port, cluster.router.port)
        ]
        assert [status for status, _ in replies] == [200, 200]
        assert json.loads(replies[1][1]) == json.loads(replies[0][1])

        chunks = [
            table.slice_rows(start, start + CHUNK_SIZE)
            for start in range(0, table.n_rows, CHUNK_SIZE)
        ]
        stream = gzip.compress(_ndjson_body(chunks))
        scattered = cluster.router._counters["streams_scattered"]
        replies = [
            _post(port, "/v1/pipelines/demo/validate_stream", stream,
                  {"Content-Type": "application/x-ndjson", **gzipped})
            for port in (cluster.gateways[0].port, cluster.router.port)
        ]
        assert [status for status, _ in replies] == [200, 200]
        single, routed = ([json.loads(line) for line in raw.splitlines()] for _, raw in replies)
        assert routed == single  # every ack line and the summary
        assert len(single) == len(chunks) + 1
        assert cluster.router._counters["streams_scattered"] == scattered + 1

        rules = gzip.compress(json.dumps(RULES_DOC).encode())
        try:
            replies = [
                _post(port, "/v1/pipelines/demo/rules", rules,
                      {"Content-Type": "application/json", **gzipped}, method="PUT")
                for port in (cluster.gateways[0].port, cluster.router.port)
            ]
            assert [status for status, _ in replies] == [200, 200], replies
            attached = json.loads(replies[0][1])
            assert json.loads(replies[1][1]) == attached
            for port in cluster.replica_ports:
                with Client(port=port) as replica:
                    assert replica._request("GET", "/v1/pipelines/demo/rules") == attached
        finally:
            cluster.single.delete_rules("demo")
            cluster.routed.delete_rules("demo")


def _answers(port: int) -> bool:
    """Whether anything accepts a TCP connection on ``port``."""
    try:
        socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
        return True
    except OSError:
        return False


#: A fleet owner run with PYTHONPATH unset: argv[1] is the directory
#: ``repro`` is imported from, argv[2] the archive. It prints its one
#: replica's port and waits to be killed.
_FLEET_OWNER = """
import signal
import sys

sys.path.insert(0, sys.argv[1])
from repro.serve import GatewayFleet

fleet = GatewayFleet(["--pipeline", "demo=" + sys.argv[2], "--monitor-window", "0"], replicas=1)
print(fleet.start().targets()[0].port, flush=True)
signal.pause()
"""


class TestFleetProcesses:
    def test_spawned_fleet_serves_kills_and_readmits(self, archive):
        """End-to-end over real replica processes: start 2 ``repro-serve``
        replicas, serve through the router, SIGKILL one (evicted;
        traffic flows on), restart it (re-admitted at its old port)."""
        fleet = GatewayFleet(["--pipeline", f"demo={archive}", "--monitor-window", "0"], replicas=2)
        with fleet:
            router = RouterGateway(
                fleet.targets(), port=0, health_interval=0
            ).start()
            client = Client(port=router.port)
            try:
                assert router.check_workers() == {"replica-0": True, "replica-1": True}
                payload = client.healthz()
                assert payload["status"] == "ok"
                assert payload["role"] == "router"
                assert payload["healthy_replicas"] == 2

                table = make_clean(300, seed=21)
                report = client.validate("demo", table, include_errors=True)

                port = fleet.targets()[0].port
                fleet.kill_worker(0)
                health = router.check_workers()
                assert health["replica-0"] is False and health["replica-1"] is True
                survivor = client.validate("demo", table, include_errors=True)
                assert_reports_identical(report, survivor, "post-kill")

                assert fleet.restart_worker(0).port == port
                assert router.check_workers()["replica-0"] is True
                assert client.healthz()["healthy_replicas"] == 2
            finally:
                client.close()
                router.close()

    def test_close_drains_every_replica(self, archive):
        """``close()`` ends every replica with exit code 0 (drained, not
        killed) — also one that was already stopping on its own SIGTERM,
        as when a service manager signals every process at once, and then
        gets the fleet's stop on top of it."""
        with GatewayFleet(["--pipeline", f"demo={archive}"], replicas=2) as fleet:
            replicas = fleet.targets()
            for replica in replicas:
                with Client(port=replica.port) as client:
                    assert client.healthz()["status"] == "ok"
            replicas[1].process.send_signal(signal.SIGTERM)
        assert [replica.process.returncode for replica in replicas] == [0, 0]
        assert not any(_answers(replica.port) for replica in replicas)

    @pytest.mark.parametrize("failure", ["unknown rule column", "start deadline"])
    def test_replica_that_fails_startup_fails_start(self, archive, tmp_path, monkeypatch, failure):
        """A replica that exits before serving (here: its rules name an
        unknown column), or has not served by the start deadline, fails
        ``start()`` with its exit code, and no replica is left running."""
        args, code = ["--pipeline", f"demo={archive}"], -signal.SIGKILL
        if failure == "unknown rule column":
            rules = tmp_path / "bad_rules.json"
            rules.write_text(json.dumps(
                {"rules": [{"id": "ghost", "predicate": {"type": "not_null", "column": "ghost"}}]}
            ))
            args, code = [*args, "--rules", str(rules)], 1
        else:
            monkeypatch.setattr(GatewayFleet, "START_TIMEOUT", 0.05)
        spawned = []
        spawn = GatewayFleet._spawn

        def spy(self, *spawn_args, **spawn_kwargs):
            spawned.append(spawn(self, *spawn_args, **spawn_kwargs))
            return spawned[-1]

        monkeypatch.setattr(GatewayFleet, "_spawn", spy)
        fleet = GatewayFleet(args, replicas=2)
        with pytest.raises(ReproError, match=f"replica-0 exited with code {code} before serving"):
            fleet.start()
        assert len(spawned) == 2
        assert all(replica.process.poll() is not None for replica in spawned)
        assert fleet.targets() == []

    def test_replicas_stop_when_their_fleet_process_is_killed(self, archive):
        """A SIGKILLed fleet owner cannot stop its replicas; EOF on their
        stdin does. The owner found ``repro`` through ``sys.path`` alone,
        so the replica has to be given that directory too."""
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        src = str(Path(repro.__file__).resolve().parents[1])
        owner = subprocess.Popen(
            [sys.executable, "-c", _FLEET_OWNER, src, archive],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            line = owner.stdout.readline()
            assert line.strip().isdigit(), f"fleet owner exited with code {owner.wait()}"
            port = int(line)
            with Client(port=port) as client:
                assert client.healthz()["status"] == "ok"
        finally:
            owner.kill()
            owner.wait()
            owner.stdout.close()
        deadline = time.monotonic() + 10.0
        while _answers(port):
            assert time.monotonic() < deadline, f"replica on port {port} outlived its fleet"
            time.sleep(0.1)

    def test_router_cli_sigterm_stops_router_and_replicas(self, archive):
        process, line = start_serve_process(
            ["--pipeline", f"demo={archive}", "--replicas", "2", "--monitor-window", "0"]
        )
        try:
            port = int(line.split(" (router over ")[0].rsplit(":", 1)[1])
            replica_ports = [int(found) for found in re.findall(r"replica-\d+@[^,)]*:(\d+)", line)]
            assert port != 0 and len(replica_ports) == 2
            with Client(port=port) as client:
                assert client.healthz()["healthy_replicas"] == 2
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
        assert not any(_answers(replica_port) for replica_port in replica_ports)
