"""End-to-end tests for the asyncio gateway (repro.serve.transport).

A real ``asyncio.start_server`` loop is bound to an ephemeral port with
the micro-batching :class:`RequestScheduler` behind it; requests travel
over actual sockets via the stdlib client. The acceptance bar mirrors
``test_serve``: every report obtained over HTTP — JSON tier or binary
frame tier, coalesced or solo — must be bit-identical to the in-process
result. On top of that: admission control surfaces as 429 +
``Retry-After`` (which the client honors), shutdown drains in-flight
work, ``/v1/metrics`` exports the scheduler gauges, ``Expect:
100-continue`` uploads get their interim response, and a
100-concurrent-client stress run produces no 5xx with bounded tail
latency.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api.requests import ValidateRequest
from repro.core.validator import ValidationReport
from repro.exceptions import GatewayError
from repro.runtime import ValidationService
from repro.serve import AsyncGateway, Client, RouterGateway
from repro.serve.cli import DEMO_RECORD, fit_demo_pipeline
from tests.test_serve import make_batch


@pytest.fixture(scope="module")
def served():
    pipeline = fit_demo_pipeline()
    service = ValidationService(capacity=2)
    service.add("demo", pipeline)
    with AsyncGateway(service, port=0, batch_window_ms=2.0) as gateway:
        yield pipeline, gateway, Client(port=gateway.port)
    service.close()


def assert_reports_identical(local, remote, dense=False):
    np.testing.assert_array_equal(remote.row_flags, local.row_flags)
    np.testing.assert_array_equal(remote.cell_flags, local.cell_flags)
    assert remote.threshold == local.threshold
    assert remote.flagged_fraction == local.flagged_fraction
    assert remote.is_problematic == local.is_problematic
    assert remote.feature_names == local.feature_names
    if dense:
        np.testing.assert_array_equal(remote.sample_errors, local.sample_errors)
        np.testing.assert_array_equal(remote.cell_errors, local.cell_errors)
    else:
        np.testing.assert_array_equal(
            remote.sample_errors[local.row_flags], local.sample_errors[local.row_flags]
        )


class TestEndpoints:
    def test_healthz(self, served):
        _, _, client = served
        payload = client.healthz()
        assert payload["status"] == "ok" and payload["pipelines"] == 1

    def test_json_report_identical_to_in_process(self, served):
        pipeline, _, client = served
        batch = make_batch(pipeline, 400, seed=5, corrupt=50)
        local = pipeline.validate(batch)
        remote = client.validate("demo", batch, include_errors=True)
        assert_reports_identical(local, remote, dense=True)

    def test_frame_tier_identical_to_in_process(self, served):
        pipeline, gateway, _ = served
        frame_client = Client(port=gateway.port, wire="frame")
        batch = make_batch(pipeline, 300, seed=6, corrupt=30)
        local = pipeline.validate(batch)
        remote = frame_client.validate("demo", batch, include_errors=True)
        assert_reports_identical(local, remote, dense=True)

    def test_sharded_validate_over_async_loop(self, served):
        pipeline, _, client = served
        batch = make_batch(pipeline, 600, seed=7, corrupt=80)
        local = pipeline.validate(batch)
        # The field is sent raw: the wire still accepts ``workers``.
        request = ValidateRequest(
            records=batch.to_records(), pipeline="demo", include_errors=True, workers=2
        )
        remote = ValidationReport.from_dict(
            client._request("POST", "/v1/pipelines/demo/validate", request.to_dict())
        )
        assert_reports_identical(local, remote, dense=True)

    def test_repair_matches_in_process(self, served):
        pipeline, _, client = served
        batch = make_batch(pipeline, 300, seed=8, corrupt=40)
        records, summary, report = client.repair("demo", batch, iterations=2)
        local_report = pipeline.validate(batch)
        repaired, local_summary = pipeline.repair(batch, report=local_report, iterations=2)
        assert records == repaired.to_records()
        assert summary.n_cells_repaired == local_summary.n_cells_repaired
        np.testing.assert_array_equal(report.row_flags, local_report.row_flags)

    def test_validate_stream_ndjson_and_frames(self, served):
        pipeline, gateway, client = served
        batch = make_batch(pipeline, 500, seed=9, corrupt=60)
        local = pipeline.validate(batch)
        chunks = [
            batch.take(np.arange(i, min(i + 128, batch.n_rows)))
            for i in range(0, batch.n_rows, 128)
        ]
        summary = client.validate_stream("demo", chunks)
        assert summary.n_rows == batch.n_rows
        assert summary.n_chunks == len(chunks)
        assert summary.n_flagged == local.n_flagged
        np.testing.assert_array_equal(summary.flagged_rows, local.flagged_rows)
        frame_client = Client(port=gateway.port, wire="frame")
        framed = frame_client.validate_stream("demo", chunks)
        assert framed.to_dict() == summary.to_dict()

    def test_rules_roundtrip(self, served):
        pipeline, _, client = served
        doc = {
            "rules": [
                {"id": "x-range", "severity": "error",
                 "predicate": {"type": "range", "column": "x", "min": 0.0, "max": 1.0}},
            ],
        }
        try:
            installed = client.set_rules("demo", doc)
            assert [r.id for r in installed.rules] == ["x-range"]
            fetched = client.get_rules("demo")
            assert [r.id for r in fetched.rules] == ["x-range"]
            report = client.validate("demo", make_batch(pipeline, 40, seed=10))
            assert report.rule_report is not None
        finally:
            assert client.delete_rules("demo") in (True, False)
        assert client.get_rules("demo") is None

    def test_bare_curl_style_json_request(self, served):
        _, gateway, _ = served
        connection = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=30)
        try:
            connection.request(
                "POST",
                "/v1/pipelines/demo/validate",
                body=json.dumps({"records": [DEMO_RECORD]}),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 200
        assert payload["n_rows"] == 1

    def test_unknown_pipeline_is_404(self, served):
        pipeline, _, client = served
        with pytest.raises(GatewayError) as excinfo:
            client.validate("nope", make_batch(pipeline, 4, seed=0))
        assert excinfo.value.status == 404

    def test_malformed_json_is_400(self, served):
        _, gateway, _ = served
        connection = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=30)
        try:
            connection.request(
                "POST",
                "/v1/pipelines/demo/validate",
                body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            response.read()
        finally:
            connection.close()
        assert response.status == 400

    def test_metrics_exports_scheduler_gauges(self, served):
        pipeline, _, client = served
        client.validate("demo", make_batch(pipeline, 20, seed=11))
        text = client.metrics()
        for gauge in (
            "repro_scheduler_queue_depth",
            "repro_scheduler_in_flight_batches",
            "repro_scheduler_requests_submitted_total",
            "repro_scheduler_requests_rejected_total",
            "repro_scheduler_batch_fill_ratio",
            'repro_scheduler_batch_size_bucket{le="+Inf"}',
            "repro_scheduler_batch_size_count",
        ):
            assert gauge in text, gauge
        assert "repro_pipeline_validations_total" in text

    def test_monitor_endpoint(self, served):
        pipeline, _, client = served
        client.validate("demo", make_batch(pipeline, 30, seed=12))
        snapshot = client.monitor("demo")
        assert snapshot.total_observations >= 1
        assert snapshot.total_rows >= 30


class TestCoalescing:
    def test_concurrent_requests_coalesce_and_stay_exact(self, served):
        pipeline, gateway, _ = served
        tables = [make_batch(pipeline, 6 + i, seed=20 + i, corrupt=i % 3) for i in range(16)]
        local = [pipeline.validate(t) for t in tables]
        before = gateway.scheduler.stats_snapshot()
        with ThreadPoolExecutor(max_workers=16) as pool:
            client = Client(port=gateway.port)
            remote = list(
                pool.map(lambda t: client.validate("demo", t, include_errors=True), tables)
            )
        for a, b in zip(local, remote):
            assert_reports_identical(a, b, dense=True)
        after = gateway.scheduler.stats_snapshot()
        assert after.completed - before.completed == len(tables)
        # 16 concurrent small requests under a 2ms window: at least one
        # slab must have fused more than one request.
        assert after.batches - before.batches < len(tables)


class TestAdmissionControl:
    def test_full_queue_yields_429_with_retry_after(self):
        pipeline = fit_demo_pipeline()
        service = ValidationService(capacity=2)
        service.add("demo", pipeline)
        gateway = AsyncGateway(
            service, port=0, batch_window_ms=60_000.0, max_queue_depth=1
        )
        gateway.start()
        payload = json.dumps(
            {"records": [DEMO_RECORD] * 4}
        ).encode()

        def occupy():
            connection = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=120)
            try:
                connection.request(
                    "POST", "/v1/pipelines/demo/validate", body=payload,
                    headers={"Content-Type": "application/json"},
                )
                connection.getresponse().read()
            except Exception:
                pass  # torn down by the gateway's shutdown below
            finally:
                connection.close()

        occupier = threading.Thread(target=occupy, daemon=True)
        try:
            occupier.start()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if gateway.scheduler.stats_snapshot().queue_depth >= 1:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("occupier request never reached the scheduler queue")
            connection = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=30)
            try:
                connection.request(
                    "POST", "/v1/pipelines/demo/validate", body=payload,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                response.read()
                assert response.status == 429
                retry_after = response.getheader("Retry-After")
                assert retry_after is not None and int(retry_after) >= 1
            finally:
                connection.close()
            assert gateway.scheduler.stats_snapshot().rejected >= 1
        finally:
            gateway.close(drain_timeout=0.5)
            occupier.join(timeout=10)
            service.close()

    def test_client_retries_once_on_429_honoring_retry_after(self):
        calls = {"n": 0}
        started = time.monotonic()

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise GatewayError(
                    "gateway error 429: queue full", status=429, retry_after=0.05
                )
            return "ok"

        assert Client._retry_once_on_503(flaky) == "ok"
        assert calls["n"] == 2
        assert time.monotonic() - started >= 0.05

    def test_client_caps_hostile_retry_after(self, monkeypatch):
        slept = []
        monkeypatch.setattr(time, "sleep", lambda s: slept.append(s))
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise GatewayError("gateway error 429: queue full",
                                   status=429, retry_after=10_000.0)
            return "ok"

        assert Client._retry_once_on_503(flaky) == "ok"
        assert slept == [Client.RETRY_AFTER_CAP]

    def test_client_gives_up_after_second_429(self):
        calls = {"n": 0}

        def dead():
            calls["n"] += 1
            raise GatewayError("gateway error 429: queue full", status=429, retry_after=0.0)

        with pytest.raises(GatewayError):
            Client._retry_once_on_503(dead)
        assert calls["n"] == 2


class TestShutdown:
    def test_close_is_idempotent_and_refuses_new_connections(self):
        pipeline = fit_demo_pipeline()
        service = ValidationService(capacity=2)
        service.add("demo", pipeline)
        gateway = AsyncGateway(service, port=0)
        gateway.start()
        port = gateway.port
        client = Client(port=port)
        assert client.healthz()["status"] == "ok"
        gateway.close()
        gateway.close()  # second close is a no-op, not a hang
        with pytest.raises((ConnectionError, OSError, GatewayError)):
            Client(port=port, timeout=2.0).healthz()
        service.close()

    def test_close_drains_in_flight_request(self):
        pipeline = fit_demo_pipeline()
        service = ValidationService(capacity=2)
        service.add("demo", pipeline)
        gateway = AsyncGateway(service, port=0, batch_window_ms=0.0)
        gateway.start()
        batch = make_batch(pipeline, 50_000, seed=1)
        result: dict = {}

        def request():
            # wire="frame" sends no /v1/healthz negotiation probe first,
            # so the request the poll below sees in flight is this
            # validate itself: close() would hang up a connection idling
            # between the probe and the validate, refusing the latter.
            try:
                result["report"] = Client(
                    port=gateway.port, timeout=60, wire="frame"
                ).validate("demo", batch)
            except Exception as exc:  # pragma: no cover - failure detail
                result["error"] = exc

        worker = threading.Thread(target=request)
        worker.start()
        # Close only once the request is in flight: a fixed sleep could
        # close before the client connected, which tests nothing.
        deadline = time.monotonic() + 30
        while gateway._active == 0 and worker.is_alive() and time.monotonic() < deadline:
            time.sleep(0.002)
        gateway.close()  # default drain: must not sever the in-flight reply
        worker.join(timeout=60)
        service.close()
        assert "error" not in result, result.get("error")
        assert result["report"].row_flags.shape == (batch.n_rows,)


class TestClientPooling:
    """Bugfix pins for the persistent-connection client: one keep-alive
    socket per thread reused across requests, transparent reconnect
    when the parked socket has gone stale, explicit ``close()``."""

    def test_connection_reused_across_requests(self, served):
        pipeline, gateway, _ = served
        client = Client(port=gateway.port)
        try:
            client.healthz()
            first = client._local.connection
            assert first is not None
            client.validate("demo", make_batch(pipeline, 8, seed=40))
            client.healthz()
            assert client._local.connection is first  # same parked socket
        finally:
            client.close()

    def test_stale_parked_socket_reconnects_transparently(self, served):
        pipeline, gateway, _ = served
        client = Client(port=gateway.port)
        try:
            client.healthz()
            parked = client._local.connection
            # Simulate the server reaping the idle keep-alive socket: the
            # next write on it dies with EPIPE/ECONNRESET.
            parked.sock.shutdown(socket.SHUT_RDWR)
            report = client.validate("demo", make_batch(pipeline, 8, seed=41))
            assert report.row_flags.shape == (8,)
            assert client._local.connection is not parked  # fresh socket
        finally:
            client.close()

    def test_close_then_reuse_reopens(self, served):
        pipeline, gateway, _ = served
        client = Client(port=gateway.port)
        client.healthz()
        client.close()
        assert getattr(client._local, "connection", None) is None
        assert client.healthz()["status"] == "ok"  # reopens on demand
        client.close()

    def test_context_manager_closes_pool(self, served):
        _, gateway, _ = served
        with Client(port=gateway.port) as client:
            client.healthz()
            assert client._conns
        assert not client._conns

    def test_threads_get_independent_connections(self, served):
        _, gateway, _ = served
        client = Client(port=gateway.port)
        conns = {}
        try:

            def probe(key):
                client.healthz()
                conns[key] = client._local.connection

            threads = [
                threading.Thread(target=probe, args=(i,)) for i in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert len({id(c) for c in conns.values()}) == 3
        finally:
            client.close()


class TestDrainingHealth:
    def test_healthz_reports_draining_with_503(self):
        """Bugfix pin: once drain begins, ``/v1/healthz`` must say so
        (503 + ``"draining"``) so load balancers stop routing here."""
        pipeline = fit_demo_pipeline()
        service = ValidationService(capacity=2)
        service.add("demo", pipeline)
        gateway = AsyncGateway(service, port=0)
        gateway.start()
        try:
            assert Client(port=gateway.port).healthz()["status"] == "ok"
            gateway._draining = True  # the close() drain window
            conn = http.client.HTTPConnection("127.0.0.1", gateway.port)
            conn.request("GET", "/v1/healthz")
            response = conn.getresponse()
            payload = json.loads(response.read())
            conn.close()
            assert response.status == 503
            assert payload["status"] == "draining"
            gateway._draining = False
        finally:
            gateway.close()
        service.close()

    def test_retry_after_header_is_rfc_whole_seconds(self):
        from repro.serve.gateway import format_retry_after

        assert format_retry_after(0.001) == "1"  # never "0": that invites
        assert format_retry_after(0.8) == "1"  # an immediate stampede
        assert format_retry_after(2.0) == "2"
        assert format_retry_after(2.2) == "3"  # round up, not down


class TestExpectContinue:
    """Bugfix pin: a client that sends ``Expect: 100-continue`` holds its
    body back until the interim ``100 Continue`` arrives (curl does for
    bodies over 1 MiB). Without it every such upload stalls for the
    client's wait timeout, on the gateway and on the router alike."""

    @pytest.fixture(params=["gateway", "router"])
    def front_port(self, request, served):
        _, gateway, _ = served
        if request.param == "gateway":
            yield gateway.port
            return
        router = RouterGateway(
            [("replica-0", "127.0.0.1", gateway.port)], port=0, health_interval=0
        ).start()
        try:
            yield router.port
        finally:
            router.close()

    @staticmethod
    def _send_head(sock, path: str, body: bytes) -> None:
        sock.sendall(
            (
                f"POST {path} HTTP/1.1\r\n"
                "Host: 127.0.0.1\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Expect: 100-continue\r\n\r\n"
            ).encode("ascii")
        )

    def test_interim_response_then_final_200(self, front_port):
        body = json.dumps({"records": [DEMO_RECORD] * 3}).encode()
        with socket.create_connection(("127.0.0.1", front_port), timeout=5.0) as sock:
            self._send_head(sock, "/v1/pipelines/demo/validate", body)
            interim = b""
            while b"\r\n\r\n" not in interim:
                piece = sock.recv(4096)  # times out after 5 s without it
                assert piece, "connection closed before the interim response"
                interim += piece
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            response = http.client.HTTPResponse(sock)
            response.begin()
            payload = json.loads(response.read())
        assert response.status == 200
        assert payload["n_rows"] == 3

    def test_request_refused_before_its_body_gets_no_interim(self, served):
        _, gateway, _ = served
        body = json.dumps({"records": [DEMO_RECORD]}).encode()
        with socket.create_connection(("127.0.0.1", gateway.port), timeout=5.0) as sock:
            self._send_head(sock, "/v1/pipelines/nope/validate", body)
            response = http.client.HTTPResponse(sock)
            response.begin()
            response.read()
            assert response.status == 404
            assert response.getheader("Connection") == "close"
            assert sock.recv(4096) == b""  # the server hung up


class TestMalformedTarget:
    """Bugfix pin: a request target that ``urlsplit`` rejects (here an
    unclosed IPv6 bracket) is answered 400 with the JSON error envelope
    on the gateway and the router alike. It used to escape the
    connection handler, which closed the socket without a byte sent."""

    @pytest.fixture(params=["gateway", "router"])
    def front_port(self, request, served):
        _, gateway, _ = served
        if request.param == "gateway":
            yield gateway.port
            return
        router = RouterGateway(
            [("replica-0", "127.0.0.1", gateway.port)], port=0, health_interval=0
        ).start()
        try:
            yield router.port
        finally:
            router.close()

    def test_answered_400_with_the_error_envelope(self, front_port):
        with socket.create_connection(("127.0.0.1", front_port), timeout=5.0) as sock:
            sock.sendall(b"GET //[x HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n")
            reply = b""
            while piece := sock.recv(4096):  # the server hangs up after the 400
                reply += piece
        assert reply.startswith(b"HTTP/1.1 400")
        payload = json.loads(reply.partition(b"\r\n\r\n")[2])
        assert payload["kind"] == "error"
        assert payload["error"] == "malformed request target"


class TestStress:
    N_CLIENTS = 100
    REQUESTS_PER_CLIENT = 3

    def test_hundred_concurrent_clients_no_5xx_bounded_p99(self, served):
        pipeline, gateway, _ = served
        batch = make_batch(pipeline, 16, seed=33)
        local = pipeline.validate(batch)
        latencies: list[float] = []
        failures: list[BaseException] = []
        lock = threading.Lock()
        barrier = threading.Barrier(self.N_CLIENTS)

        def hammer():
            client = Client(port=gateway.port, timeout=60)
            barrier.wait(timeout=60)
            for _ in range(self.REQUESTS_PER_CLIENT):
                started = time.monotonic()
                try:
                    report = client.validate("demo", batch)
                except BaseException as exc:
                    with lock:
                        failures.append(exc)
                    return
                elapsed = time.monotonic() - started
                with lock:
                    latencies.append(elapsed)
                assert report.is_problematic == local.is_problematic

        threads = [threading.Thread(target=hammer) for _ in range(self.N_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        server_errors = [
            exc for exc in failures
            if isinstance(exc, GatewayError) and (exc.status or 0) >= 500
        ]
        assert not server_errors, server_errors[:3]
        assert not failures, failures[:3]
        assert len(latencies) == self.N_CLIENTS * self.REQUESTS_PER_CLIENT
        latencies.sort()
        p99 = latencies[int(len(latencies) * 0.99) - 1]
        # Generous CI bound: the point is no collapse under concurrency,
        # not an absolute latency SLO.
        assert p99 < 30.0, f"p99 {p99:.2f}s"
        stats = gateway.scheduler.stats_snapshot()
        assert stats.failed == 0
        assert stats.mean_batch_size > 1.0  # the stampede actually coalesced
