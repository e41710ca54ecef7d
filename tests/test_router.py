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
503 — never a wrong or partial report. The router serves on the same
asyncio front as a gateway, so drain-on-close, relayed keep-alive and
gzipped bodies are pinned here too.

In-process ``AsyncGateway`` replicas back most tests (the router only
needs URLs, keeping the 20-scenario sweep fast); one test spawns a real
2-process :class:`GatewayFleet` end to end.
"""

from __future__ import annotations

import gzip
import http.client
import json
import os
import socket
import tempfile
import threading
import time
from http.client import HTTPConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import numpy as np
import pytest

from repro.exceptions import GatewayError
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
from tests.test_serve import post_raw, stream_lines

from repro.core import DQuaG, DQuaGConfig


@pytest.fixture(scope="module")
def archive():
    """A fitted pipeline saved to disk — replicas, the single-node
    reference, and the router's merge context all load this one file."""
    fitted = DQuaG(DQuaGConfig(hidden_dim=16, epochs=6, batch_size=64)).fit(
        make_clean(500, seed=0), rng=0
    )
    handle, path = tempfile.mkstemp(prefix="repro-router-", suffix=".npz")
    os.close(handle)
    fitted.save(path)
    yield path
    os.unlink(path)


@pytest.fixture(scope="module")
def cluster(archive):
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
        archives={"demo": archive},
        health_interval=0,  # tests drive check_workers() deterministically
    ).start()
    yield SimpleNamespace(
        router=router,
        single=Client(port=gateways[0].port),
        routed=Client(port=router.port),
        gateways=gateways,
        replica_ports=[gw.port for gw in gateways[1:]],
    )
    router.close()
    for gateway in gateways:
        gateway.close()
    for service in services:
        service.close()


class _StubWorker:
    """A scriptable fake replica: healthz answers whatever the test sets;
    POST bodies are read then the socket is torn down mid-response
    (the 'worker died under a scattered stream' failure)."""

    def __init__(self, status: str = "ok"):
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
                # die mid-request: no response bytes at all
                self.connection.close()
                self.close_connection = True

        self.status = status
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


class TestParity:
    """Router-fronted results must be bit-identical to single-node."""

    @pytest.mark.parametrize("index", range(N_SCENARIOS))
    def test_validate_and_stream_identical_across_tiers(self, index, cluster):
        table = make_scenario(index)
        reference = cluster.single.validate("demo", table, include_errors=True)

        routed = cluster.routed.validate("demo", table, include_errors=True)
        assert_reports_identical(reference, routed, "router-json")

        framed = Client(port=cluster.router.port, wire="frame").validate(
            "demo", table, include_errors=True
        )
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
            frame_stream = Client(port=cluster.router.port, wire="frame").validate_stream(
                "demo", chunks
            )
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

    def test_bad_workers_query_rejected_by_router(self, cluster):
        connection = HTTPConnection("127.0.0.1", cluster.router.port, timeout=30)
        try:
            connection.request(
                "POST",
                "/v1/pipelines/demo/validate_stream?workers=banana",
                body=json.dumps({"records": make_scenario(0).slice_rows(0, 4).to_records()})
                + "\n",
                headers={"Content-Type": "application/x-ndjson"},
            )
            assert connection.getresponse().status == 400
        finally:
            connection.close()

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
                attached = Client(port=port).get_rules("demo")
                assert attached is not None and attached.name == RULES_DOC["name"]

            reference = cluster.single.validate_stream("demo", chunks)
            routed = cluster.routed.validate_stream("demo", chunks)
            assert routed.to_dict() == reference.to_dict()
            assert routed.rule_report is not None

            cluster.routed.delete_rules("demo")
            for port in cluster.replica_ports:
                assert Client(port=port).get_rules("demo") is None
        finally:
            cluster.single.delete_rules("demo")
            cluster.routed.delete_rules("demo")

    def test_error_contract_proxied_verbatim(self, cluster):
        with pytest.raises(GatewayError) as excinfo:
            cluster.routed.validate("nope", make_scenario(0))
        assert excinfo.value.status == 404
        with pytest.raises(GatewayError) as excinfo:
            cluster.routed.validate_stream("demo", [])
        assert excinfo.value.status == 400


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

    def test_healthz_degrades_when_no_replica_is_routable(self, archive):
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


class TestFailover:
    def test_worker_dying_midstream_rescatters_exactly(self, cluster, archive):
        """Satellite pin: kill a worker mid-stream — the request completes
        via re-scatter with a bit-identical report, never a partial one."""
        stub = _StubWorker(status="ok")  # healthy on probes, dies on POST
        targets = [
            (f"replica-{i}", "127.0.0.1", port)
            for i, port in enumerate(cluster.replica_ports)
        ] + [("doomed", "127.0.0.1", stub.port)]
        router = RouterGateway(
            targets, port=0, archives={"demo": archive}, health_interval=0
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
            router.close()
            stub.close()

    def test_every_replica_dead_yields_retryable_503(self, archive):
        stubs = [_StubWorker(status="ok") for _ in range(2)]
        router = RouterGateway(
            [(f"stub-{i}", "127.0.0.1", stub.port) for i, stub in enumerate(stubs)],
            port=0,
            archives={"demo": archive},
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
        stats = cluster.routed.pipelines()
        assert stats.registered == 1  # max, not sum: same registry everywhere
        assert stats.validations >= 1
        assert "demo" in stats.pipelines
        per_replica_total = 0
        for port in cluster.replica_ports:
            per_replica_total += Client(port=port).pipelines().rows_validated
        assert stats.rows_validated == per_replica_total


def _ndjson_body(chunks) -> bytes:
    """An NDJSON ``validate_stream`` body: one record-list line per chunk."""
    return b"".join(
        json.dumps({"records": chunk.to_records()}).encode("utf-8") + b"\n"
        for chunk in chunks
    )


def _post(port: int, path: str, body: bytes, headers: dict) -> "tuple[int, bytes]":
    """One POST on a fresh connection; returns (status, body)."""
    conn = HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class TestSharedFront:
    """The router rides the gateway's asyncio front: drain on close,
    keep-alive accounting on relayed responses, and gzip on both the
    proxied and the scattered path."""

    def test_close_drains_in_flight_scattered_stream(self, cluster, archive):
        router = RouterGateway(
            [(f"replica-{i}", "127.0.0.1", port) for i, port in enumerate(cluster.replica_ports)],
            port=0,
            archives={"demo": archive},
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


class TestFleetProcesses:
    def test_spawned_fleet_serves_kills_and_readmits(self, archive):
        """End-to-end over real worker processes: spawn 2 replicas from
        the archive, serve through the router, hard-kill one worker
        (evicted; traffic flows on), restart it (re-admitted)."""
        fleet = GatewayFleet({"demo": archive}, replicas=2, monitor_window=0)
        with fleet:
            router = RouterGateway(
                fleet.targets(), port=0, archives={"demo": archive}, health_interval=0
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

                fleet.kill_worker(0)
                health = router.check_workers()
                assert health["replica-0"] is False and health["replica-1"] is True
                survivor = client.validate("demo", table, include_errors=True)
                assert_reports_identical(report, survivor, "post-kill")

                fleet.restart_worker(0)
                assert router.check_workers()["replica-0"] is True
                assert client.healthz()["healthy_replicas"] == 2
            finally:
                router.close()
