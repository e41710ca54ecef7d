"""End-to-end tests for the HTTP serving gateway (repro.serve).

A real :class:`AsyncGateway` is bound to an ephemeral port; requests
travel over actual sockets via the stdlib client. The acceptance bar:
a report obtained over HTTP must reconstruct flags, threshold, and
verdict identical to calling ``DQuaG.validate`` in-process.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import framing
from repro.api.requests import ValidateRequest
from repro.core import DQuaG
from repro.core.validator import ValidationReport
from repro.data import Table
from repro.exceptions import GatewayError
from repro.runtime import StreamSummary, ValidationService
from repro.serve import AsyncGateway, Client
from repro.serve.cli import DEMO_RECORD, fit_demo_pipeline


def stream_lines(port: int, chunks, query: str = "") -> "list[bytes]":
    """POST ``chunks`` as an NDJSON stream to ``/validate_stream`` (plus
    ``query``); returns the response lines, asserting a 200."""
    body = b"".join(
        json.dumps({"records": chunk.to_records()}).encode("utf-8") + b"\n" for chunk in chunks
    )
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request(
            "POST",
            "/v1/pipelines/demo/validate_stream" + query,
            body=body,
            headers={"Content-Type": "application/x-ndjson"},
        )
        response = connection.getresponse()
        raw = response.read()
        assert response.status == 200, raw
        return raw.splitlines()
    finally:
        connection.close()


def post_raw(port: int, path: str, body: bytes, content_type: str) -> "tuple[int, dict]":
    """POST ``body`` as is; returns the status and the decoded JSON reply."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request("POST", path, body=body, headers={"Content-Type": content_type})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def start_serve_process(args: "list[str]") -> "tuple[subprocess.Popen, str]":
    """Run ``python -m repro.serve --port 0 ARGS`` until it prints its
    ``serving … on URL`` line; returns the process and that line."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0", *args],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    deadline = threading.Timer(120.0, process.kill)  # a hung server fails, not hangs
    deadline.start()
    try:
        for line in process.stdout:
            if line.startswith("serving "):
                return process, line.rstrip()
    finally:
        deadline.cancel()
    raise AssertionError(f"repro-serve exited with code {process.wait()} before serving")


def make_batch(pipeline: DQuaG, n: int, seed: int, corrupt: int = 0) -> Table:
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.1, 0.9, n)
    y = 2.0 * x + rng.normal(0, 0.01, n)
    if corrupt:
        y[:corrupt] += 5.0
    return Table(
        pipeline.preprocessor.schema,
        {
            "x": x,
            "y": y,
            "z": 1.0 - x + rng.normal(0, 0.01, n),
            "c": np.where(x > 0.5, "hi", "lo"),
        },
    )


@pytest.fixture(scope="module")
def served():
    pipeline = fit_demo_pipeline()
    service = ValidationService(capacity=2)
    service.add("demo", pipeline)
    with AsyncGateway(service, port=0) as gateway, Client(port=gateway.port) as client:
        yield pipeline, gateway, client
    service.close()


class TestEndpoints:
    def test_healthz(self, served):
        _, _, client = served
        payload = client.healthz()
        assert payload["status"] == "ok" and payload["pipelines"] == 1

    def test_http_report_identical_to_in_process(self, served):
        pipeline, _, client = served
        batch = make_batch(pipeline, 400, seed=5, corrupt=50)
        local = pipeline.validate(batch)
        remote = client.validate("demo", batch)
        np.testing.assert_array_equal(remote.row_flags, local.row_flags)
        np.testing.assert_array_equal(remote.cell_flags, local.cell_flags)
        assert remote.threshold == local.threshold
        assert remote.flagged_fraction == local.flagged_fraction
        assert remote.is_problematic == local.is_problematic
        assert remote.feature_names == local.feature_names
        # Sparse default: error values are exact at flagged coordinates.
        np.testing.assert_array_equal(
            remote.sample_errors[local.row_flags], local.sample_errors[local.row_flags]
        )

    def test_dense_errors_on_request(self, served):
        pipeline, _, client = served
        batch = make_batch(pipeline, 200, seed=6)
        local = pipeline.validate(batch)
        remote = client.validate("demo", batch, include_errors=True)
        np.testing.assert_array_equal(remote.sample_errors, local.sample_errors)
        np.testing.assert_array_equal(remote.cell_errors, local.cell_errors)

    def test_repair_matches_in_process(self, served):
        pipeline, _, client = served
        batch = make_batch(pipeline, 300, seed=7, corrupt=40)
        records, summary, report = client.repair("demo", batch, iterations=2)
        local_report = pipeline.validate(batch)
        local_repaired, local_summary = pipeline.repair(batch, report=local_report, iterations=2)
        assert records == local_repaired.to_records()
        assert summary.n_cells_repaired == local_summary.n_cells_repaired
        assert summary.repairs_by_column == local_summary.repairs_by_column
        np.testing.assert_array_equal(report.row_flags, local_report.row_flags)

    def test_validate_stream_chunked(self, served):
        pipeline, _, client = served
        batch = make_batch(pipeline, 500, seed=8, corrupt=60)
        local = pipeline.validate(batch)
        chunks = [batch.take(np.arange(i, min(i + 128, batch.n_rows))) for i in range(0, batch.n_rows, 128)]
        rows_before = client.pipelines().pipelines["demo"]["rows_validated"]
        summary = client.validate_stream("demo", chunks)
        assert summary.n_rows == batch.n_rows
        assert summary.n_chunks == len(chunks)
        assert summary.n_flagged == local.n_flagged
        np.testing.assert_array_equal(summary.flagged_rows, local.flagged_rows)
        assert summary.is_problematic == local.is_problematic
        # Streamed traffic is counted in the per-pipeline stats too.
        rows_after = client.pipelines().pipelines["demo"]["rows_validated"]
        assert rows_after == rows_before + batch.n_rows

    def test_pipeline_stats_counters(self, served):
        pipeline, _, client = served
        client.validate("demo", make_batch(pipeline, 50, seed=9))
        stats = client.pipelines()
        demo = stats.pipelines["demo"]
        assert demo["resident"] and demo["pinned"]
        assert demo["validations"] >= 1 and demo["rows_validated"] >= 50
        assert stats.registered == 1

    def test_bare_curl_style_request(self, served):
        # What the README's curl example sends: no envelope, raw records.
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
            assert response.status == 200
            payload = json.loads(response.read())
            assert payload["kind"] == "validation_report"
            assert payload["n_rows"] == 1
        finally:
            connection.close()


class TestShardedOverHTTP:
    def test_validate_with_workers_identical_to_in_process(self, served):
        pipeline, _, client = served
        batch = make_batch(pipeline, 400, seed=21, corrupt=50)
        local = pipeline.validate(batch)
        # An older client's ``workers`` field is ignored.
        payload = ValidateRequest(records=batch.to_records(), pipeline="demo").to_dict()
        payload["workers"] = 2
        remote = ValidationReport.from_dict(
            client._request("POST", "/v1/pipelines/demo/validate", payload)
        )
        np.testing.assert_array_equal(remote.row_flags, local.row_flags)
        np.testing.assert_array_equal(remote.cell_flags, local.cell_flags)
        assert remote.threshold == local.threshold
        assert remote.is_problematic == local.is_problematic

    def test_stream_with_workers_matches_local_flags(self, served):
        pipeline, _, client = served
        batch = make_batch(pipeline, 500, seed=22, corrupt=40)
        local = pipeline.validate(batch)
        chunks = [
            batch.take(np.arange(i, min(i + 100, batch.n_rows)))
            for i in range(0, batch.n_rows, 100)
        ]
        # An older client's ``?workers=`` is ignored.
        lines = stream_lines(client.port, chunks, "?workers=2")
        summary = StreamSummary.from_dict(json.loads(lines[-1]))
        assert summary.n_rows == batch.n_rows
        assert summary.n_flagged == local.n_flagged
        np.testing.assert_array_equal(summary.flagged_rows, local.flagged_rows)
        assert summary.is_problematic == local.is_problematic

    def test_workers_stream_answers_like_any_stream(self, served):
        pipeline, gateway, _ = served
        batch = make_batch(pipeline, 350, seed=23, corrupt=30)
        chunks = [batch.slice_rows(start, start + 100) for start in range(0, batch.n_rows, 100)]
        plain = stream_lines(gateway.port, chunks)
        assert stream_lines(gateway.port, chunks, "?workers=2") == plain
        # Per-chunk acks in the caller's chunking, then the summary.
        assert len(plain) == len(chunks) + 1
        assert json.loads(plain[-1])["n_chunks"] == len(chunks)


class TestClientFromUrl:
    def test_http_url_with_explicit_port(self):
        client = Client.from_url("http://gateway.internal:8731")
        assert (client.scheme, client.host, client.port) == ("http", "gateway.internal", 8731)

    def test_http_url_defaults_to_port_80(self):
        client = Client.from_url("http://gateway.internal")
        assert (client.scheme, client.port) == ("http", 80)

    def test_https_url_keeps_scheme_and_defaults_to_443(self):
        # Regression: an https:// URL used to silently connect over
        # plain HTTP on port 80.
        client = Client.from_url("https://gateway.internal")
        assert (client.scheme, client.port) == ("https", 443)
        client = Client.from_url("https://gateway.internal:8443")
        assert (client.scheme, client.port) == ("https", 8443)

    def test_scheme_less_url_targets_named_host(self):
        # "host" and "host:port" must reach the named host over HTTP —
        # not fall back to 127.0.0.1, and not be misread as a scheme.
        client = Client.from_url("gateway.internal")
        assert (client.scheme, client.host, client.port) == ("http", "gateway.internal", 80)
        client = Client.from_url("gateway.internal:8443")
        assert (client.scheme, client.host, client.port) == ("http", "gateway.internal", 8443)

    def test_hostless_url_rejected(self):
        with pytest.raises(GatewayError, match="no host"):
            Client.from_url("http://")

    def test_invalid_port_raises_gateway_error(self):
        with pytest.raises(GatewayError, match="invalid port"):
            Client.from_url("gateway.internal:8o80")
        with pytest.raises(GatewayError, match="invalid port"):
            Client.from_url("http://gateway.internal:99999")

    def test_unsupported_scheme_rejected(self):
        with pytest.raises(GatewayError, match="unsupported URL scheme"):
            Client.from_url("ftp://gateway.internal")
        with pytest.raises(GatewayError, match="unsupported URL scheme"):
            Client(scheme="gopher")

    def test_https_client_connects_with_tls(self):
        import http.client as http_client

        connection = Client.from_url("https://gateway.internal")._connect()
        assert isinstance(connection, http_client.HTTPSConnection)


class TestBodyLimits:
    @pytest.fixture(scope="class")
    def small_gateway(self, served):
        pipeline, _, _ = served
        service = ValidationService(capacity=1)
        service.add("demo", pipeline)
        with AsyncGateway(service, port=0, max_body_bytes=4096) as gateway:
            with Client(port=gateway.port) as client:
                yield pipeline, gateway, client
        service.close()

    def test_small_requests_still_pass(self, small_gateway):
        pipeline, _, client = small_gateway
        report = client.validate("demo", make_batch(pipeline, 5, seed=1))
        assert report.row_flags.shape == (5,)

    def test_oversized_content_length_refused_413(self, small_gateway):
        pipeline, _, client = small_gateway
        with pytest.raises(GatewayError, match="413"):
            client.validate("demo", make_batch(pipeline, 2000, seed=2))

    def test_hostile_content_length_header_refused_before_read(self, small_gateway):
        # A forged huge Content-Length must be refused outright — the
        # server must not wait for (or try to buffer) a terabyte body.
        _, gateway, _ = small_gateway
        connection = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=30)
        try:
            connection.putrequest("POST", "/v1/pipelines/demo/validate")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", str(1024**4))
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 413
            assert json.loads(response.read())["kind"] == "error"
        finally:
            connection.close()

    def test_oversized_stream_chunk_refused_413(self, small_gateway):
        # Each 200-row NDJSON line far exceeds the 4 KiB limit: the
        # per-chunk guard refuses it before buffering.
        pipeline, _, client = small_gateway
        chunks = [make_batch(pipeline, 200, seed=3) for _ in range(10)]
        with pytest.raises(GatewayError, match="413"):
            client.validate_stream("demo", chunks)

    def test_long_stream_of_small_chunks_is_not_capped(self, small_gateway):
        # The stream endpoint is consumed incrementally, so the limit
        # bounds each chunk/line — not the cumulative stream length.
        pipeline, _, client = small_gateway
        chunks = [make_batch(pipeline, 8, seed=s) for s in range(30)]  # ~25 KiB total
        summary = client.validate_stream("demo", chunks)
        assert summary.n_rows == 240
        assert summary.n_chunks == 30

    def test_content_length_stream_body_over_limit_with_small_lines(self, small_gateway):
        # A plain (non-chunked) body: multiple small NDJSON lines whose
        # total exceeds the limit must pass — only a single line may not
        # outgrow it.
        pipeline, gateway, _ = small_gateway
        lines = b"".join(
            json.dumps({"records": make_batch(pipeline, 8, seed=s).to_records()}).encode()
            + b"\n"
            for s in range(10)
        )
        assert len(lines) > 4096  # over the gateway's whole-body limit
        connection = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=30)
        try:
            connection.request(
                "POST",
                "/v1/pipelines/demo/validate_stream",
                body=lines,
                headers={"Content-Type": "application/x-ndjson"},
            )
            response = connection.getresponse()
            assert response.status == 200
            payloads = [json.loads(raw) for raw in response.read().splitlines() if raw.strip()]
            assert payloads[-1]["kind"] == "stream_summary"
            assert payloads[-1]["n_rows"] == 80
        finally:
            connection.close()

    def test_invalid_max_body_bytes_rejected(self, served):
        _, gateway, _ = served
        with pytest.raises(ValueError):
            AsyncGateway(gateway.service, port=0, max_body_bytes=0)


class TestErrorHandling:
    def test_unknown_pipeline_404(self, served):
        pipeline, _, client = served
        with pytest.raises(GatewayError, match="404"):
            client.validate("nope", make_batch(pipeline, 10, seed=1))

    def test_unknown_route_404(self, served):
        _, _, client = served
        with pytest.raises(GatewayError, match="404"):
            client._request("GET", "/v2/healthz")

    def test_schema_mismatch_400(self, served):
        _, _, client = served
        with pytest.raises(GatewayError, match="400"):
            client.validate("demo", [{"bogus_column": 1.0}])

    def test_empty_records_400(self, served):
        _, _, client = served
        with pytest.raises(GatewayError, match="400"):
            client.validate("demo", [])

    def test_malformed_json_400(self, served):
        _, gateway, _ = served
        # Not JSON, then bodies that are not UTF-8 (one 0xff byte) on
        # each endpoint that reads JSON or NDJSON.
        for method, path, body, content_type in (
            ("POST", "/v1/pipelines/demo/validate", b"{not json", "application/json"),
            ("POST", "/v1/pipelines/demo/validate", b'{"records": "\xff"}', "application/json"),
            ("PUT", "/v1/pipelines/demo/rules", b'{"name": "\xff"}', "application/json"),
            ("POST", "/v1/pipelines/demo/validate_stream", b'{"records": "\xff"}\n',
             "application/x-ndjson"),
        ):
            connection = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=30)
            try:
                connection.request(method, path, body=body, headers={"Content-Type": content_type})
                response = connection.getresponse()
                assert response.status == 400, (method, path)
                assert json.loads(response.read())["kind"] == "error"
            finally:
                connection.close()

    def test_schema_version_gate_on_requests(self, served):
        _, gateway, _ = served
        body = json.dumps(
            {"schema_version": 99, "kind": "validate_request", "records": [DEMO_RECORD]}
        )
        connection = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=30)
        try:
            connection.request(
                "POST", "/v1/pipelines/demo/validate", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            assert "schema_version" in json.loads(response.read())["error"]
        finally:
            connection.close()

    def test_pipeline_name_mismatch_400(self, served):
        _, _, client = served
        request_payload = {"records": [DEMO_RECORD], "pipeline": "other"}
        with pytest.raises(GatewayError, match="does not match"):
            client._request("POST", "/v1/pipelines/demo/validate", request_payload)

    def test_empty_stream_400(self, served):
        _, _, client = served
        with pytest.raises(GatewayError, match="400"):
            client.validate_stream("demo", [])

    def test_mid_stream_error_returns_400(self, served):
        # Responses are deferred until the body is consumed, so even an
        # error on a later chunk comes back as a clean status code.
        pipeline, _, client = served
        good = make_batch(pipeline, 64, seed=2)

        def chunks():
            yield good
            yield [{"bogus_column": 1.0}]

        with pytest.raises(GatewayError, match="400"):
            client.validate_stream("demo", chunks())

    @pytest.mark.parametrize(
        "line", [{"records": [1, 2]}, [["a"]]], ids=["enveloped", "bare-list"]
    )
    def test_non_object_stream_records_rejected(self, served, line):
        # A stream line's records are checked like a /validate body's:
        # a list of row objects, or the whole stream is a 400.
        _, gateway, _ = served
        status, payload = post_raw(
            gateway.port,
            "/v1/pipelines/demo/validate_stream",
            (json.dumps({"records": [DEMO_RECORD]}) + "\n" + json.dumps(line) + "\n").encode(),
            "application/x-ndjson",
        )
        assert status == 400, payload
        assert "list of row objects" in payload["error"]

    @pytest.mark.parametrize("iterations", ["banana", [1], 2.9, True])
    def test_malformed_repair_iterations_rejected(self, served, iterations):
        # Strictly an integer, on both wire tiers.
        pipeline, gateway, _ = served
        batch = make_batch(pipeline, 4, seed=31)
        bodies = [
            (
                json.dumps({"records": batch.to_records(), "iterations": iterations}).encode(),
                "application/json",
            ),
            (
                framing.encode_frame(table=batch, extra={"iterations": iterations}),
                framing.FRAME_CONTENT_TYPE,
            ),
        ]
        for body, content_type in bodies:
            status, payload = post_raw(
                gateway.port, "/v1/pipelines/demo/repair", body, content_type
            )
            assert status == 400, (content_type, payload)
            assert "'iterations' must be an integer" in payload["error"]

    def test_long_stream_does_not_deadlock(self, served):
        # Many chunks: the upload must complete even though the gateway
        # produces one ack line per chunk (acks are deferred, not
        # interleaved with the upload).
        pipeline, _, client = served
        batch = make_batch(pipeline, 600, seed=3)
        chunks = [batch.take(np.arange(i, i + 4)) for i in range(0, batch.n_rows, 4)]
        summary = client.validate_stream("demo", chunks)
        assert summary.n_chunks == 150 and summary.n_rows == batch.n_rows


class TestServeProcess:
    def test_port_zero_is_printed_and_sigterm_drains(self, served, tmp_path):
        """``repro-serve --port 0`` prints the port it bound, and SIGTERM
        stops it with the same drain as SIGINT: exit code 0."""
        pipeline, _, _ = served
        archive = tmp_path / "demo.npz"
        pipeline.save(archive)
        process, line = start_serve_process(["--pipeline", f"demo={archive}"])
        try:
            port = int(line.rsplit(":", 1)[1])
            assert port != 0
            with Client(port=port) as client:
                assert client.validate("demo", [DEMO_RECORD]).row_flags.size == 1
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
