"""Shared-memory byte-slab tests: slab lifecycle, orphan reaping, the
gateway's ``X-Repro-Shm`` ingest and the router's same-host scatter.

The standing invariant mirrors every other serving-tier suite: shared
memory is an *optimization* — a stream handed over in a slab must
answer byte-identically to the same stream sent as an HTTP body, and no
request may ever fail because shm is unavailable or refused. The
lifecycle half pins the crash-safety contract: double-close is
idempotent, dropped references unlink via finalizers, and a dead
creator's segments are reaped by the next process's availability probe.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from http.client import HTTPConnection
from pathlib import Path

import numpy as np
import pytest

from repro.core import DQuaG, DQuaGConfig
from repro.runtime import ValidationService, shm
from repro.runtime.shm import SLAB_PREFIX, SharedSlab, reap_orphans, shm_available
from tests.test_sharding import make_table

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable on this platform"
)

_SHM_DIR = Path("/dev/shm")


def slab_entries() -> set:
    """The repro slab segments currently present in /dev/shm."""
    if not _SHM_DIR.is_dir():
        return set()
    return {entry.name for entry in _SHM_DIR.iterdir() if entry.name.startswith(SLAB_PREFIX)}


def leak_dead_slab() -> str:
    """A slab whose creator died hard: a child creates one and exits via
    ``os._exit`` (skipping every finalizer) — the crashed-creator case
    reap_orphans is for. Returns the leaked segment's name."""
    script = (
        "import os, sys\n"
        "from repro.runtime.shm import SharedSlab\n"
        "slab = SharedSlab.create_bytes(256)\n"
        "print(slab.name, flush=True)\n"
        "os._exit(1)\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    name = result.stdout.strip()
    assert name.startswith(SLAB_PREFIX), result.stderr
    assert name in slab_entries()  # leaked: the child never unlinked
    return name


@pytest.fixture(scope="module")
def fitted():
    train = make_table(500, seed=0)
    pipeline = DQuaG(DQuaGConfig(hidden_dim=16, epochs=6, batch_size=64)).fit(train, rng=0)
    return pipeline, make_table(1100, seed=2)


# ---------------------------------------------------------------------------
# slab lifecycle
# ---------------------------------------------------------------------------
class TestSharedSlab:
    def test_byte_slab_roundtrip_and_no_matrix_view(self):
        payload = b"x" * 100
        with SharedSlab.create_bytes(len(payload)) as slab:
            slab.buf[: len(payload)] = payload
            attached = SharedSlab.attach_bytes(slab.name)
            try:
                assert bytes(attached.buf[: len(payload)]) == payload
                assert not hasattr(attached, "matrix")
            finally:
                attached.close()

    def test_double_close_is_idempotent(self):
        slab = SharedSlab.create_bytes(64)
        assert not slab.closed
        slab.close()
        assert slab.closed
        slab.close()  # second close: no-op, no raise
        assert slab.closed
        assert slab.name not in slab_entries()

    def test_dropped_reference_unlinks_via_finalizer(self):
        slab = SharedSlab.create_bytes(128)
        name = slab.name
        assert name in slab_entries()
        del slab
        import gc

        gc.collect()
        assert name not in slab_entries()

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(ValueError):
            SharedSlab.create_bytes(0)
        with pytest.raises(ValueError):
            SharedSlab.create_bytes(-8)


# ---------------------------------------------------------------------------
# orphan reaping
# ---------------------------------------------------------------------------
class TestOrphanReaping:
    def test_dead_creator_segment_is_reaped(self):
        name = leak_dead_slab()
        assert reap_orphans() >= 1
        assert name not in slab_entries()

    def test_live_creator_segment_survives_reaping(self):
        with SharedSlab.create_bytes(128) as slab:
            reap_orphans()
            assert slab.name in slab_entries()
        assert slab.name not in slab_entries()

    def test_availability_probe_reaps_orphans(self, monkeypatch):
        # The probe runs once per process, before a router's first slab
        # and when a gateway enables shm ingest; a fresh process (here: a
        # reset probe cache) must sweep what a crashed one left behind.
        name = leak_dead_slab()
        monkeypatch.setattr(shm, "_available", None)
        assert shm_available()
        assert name not in slab_entries()


# ---------------------------------------------------------------------------
# gateway slab ingest (X-Repro-Shm) end to end
# ---------------------------------------------------------------------------
class TestGatewayShmIngest:
    @pytest.fixture(scope="class")
    def served(self, fitted):
        from repro.serve import AsyncGateway

        pipeline, table = fitted
        service = ValidationService(capacity=2)
        service.add("demo", pipeline)
        gateway = AsyncGateway(service, port=0, shm_ingest=True).start()
        yield gateway, table
        gateway.close()
        service.close()

    @staticmethod
    def ndjson_stream(table, chunk_rows: int = 200) -> bytes:
        lines = []
        for start in range(0, table.n_rows, chunk_rows):
            chunk = table.slice_rows(start, min(start + chunk_rows, table.n_rows))
            records = [
                {name: chunk.column(name)[i] for name in chunk.schema.names}
                for i in range(chunk.n_rows)
            ]
            for record in records:
                for key, value in record.items():
                    if isinstance(value, (np.floating, np.integer)):
                        record[key] = float(value)
            lines.append(json.dumps({"records": records}))
        return ("\n".join(lines) + "\n").encode("utf-8")

    def test_slab_request_matches_plain_body(self, served):
        gateway, table = served
        assert gateway.shm_ingest
        body = self.ndjson_stream(table)

        conn = HTTPConnection("127.0.0.1", gateway.port, timeout=30)
        try:
            conn.request(
                "POST", "/v1/pipelines/demo/validate_stream", body=body,
                headers={"Content-Type": "application/x-ndjson"},
            )
            plain = conn.getresponse()
            plain_lines = plain.read().decode().strip().splitlines()
            assert plain.status == 200

            slab = SharedSlab.create_bytes(len(body))
            try:
                slab.buf[: len(body)] = body
                conn.request(
                    "POST", "/v1/pipelines/demo/validate_stream", body=None,
                    headers={
                        "Content-Type": "application/x-ndjson",
                        "X-Repro-Shm": f"{slab.name};{len(body)}",
                    },
                )
                shm_response = conn.getresponse()
                shm_lines = shm_response.read().decode().strip().splitlines()
                assert shm_response.status == 200
            finally:
                slab.close()
        finally:
            conn.close()
        # every ack line and the final summary: byte-identical streams
        assert shm_lines == plain_lines

    def test_healthz_advertises_ingest(self, served):
        gateway, _ = served
        conn = HTTPConnection("127.0.0.1", gateway.port, timeout=10)
        try:
            conn.request("GET", "/v1/healthz")
            payload = json.loads(conn.getresponse().read())
        finally:
            conn.close()
        assert payload["shm_ingest"] is True

    def test_slab_header_refused_when_ingest_disabled(self, fitted):
        from repro.serve import AsyncGateway

        pipeline, table = fitted
        service = ValidationService(capacity=2)
        service.add("demo", pipeline)
        gateway = AsyncGateway(service, port=0, shm_ingest=False).start()
        try:
            conn = HTTPConnection("127.0.0.1", gateway.port, timeout=10)
            try:
                conn.request(
                    "GET", "/v1/healthz"
                )
                health = json.loads(conn.getresponse().read())
                assert "shm_ingest" not in health  # rev-4 shape when disabled
                conn.request(
                    "POST", "/v1/pipelines/demo/validate_stream", body=None,
                    headers={
                        "Content-Type": "application/x-ndjson",
                        "X-Repro-Shm": "repro-slab-0-deadbeef;64",
                    },
                )
                response = conn.getresponse()
                body = response.read()
                assert response.status == 400
                assert b"not enabled" in body
            finally:
                conn.close()
        finally:
            gateway.close()
            service.close()

    def test_unattachable_slab_is_400_not_crash(self, served):
        gateway, _ = served
        conn = HTTPConnection("127.0.0.1", gateway.port, timeout=10)
        try:
            conn.request(
                "POST", "/v1/pipelines/demo/validate_stream", body=None,
                headers={
                    "Content-Type": "application/x-ndjson",
                    "X-Repro-Shm": "repro-slab-0-000000000000;64",
                },
            )
            response = conn.getresponse()
            body = response.read()
            assert response.status == 400
            assert b"attach" in body
        finally:
            conn.close()


# ---------------------------------------------------------------------------
# router slab scatter end to end (same-host replicas)
# ---------------------------------------------------------------------------
class TestRouterShmScatter:
    def test_scatter_lands_in_slabs_with_identical_summary(self, fitted, tmp_path):
        from repro.serve import AsyncGateway, Client, RouterGateway

        pipeline, table = fitted
        archive = tmp_path / "demo.npz"
        pipeline.save(archive)

        services, gateways = [], []
        for _ in range(3):  # [0] = single-node reference, [1:] = replicas
            service = ValidationService(capacity=2)
            service.register("demo", str(archive))
            services.append(service)
            gateways.append(AsyncGateway(service, port=0, shm_ingest=True).start())
        router = RouterGateway(
            [(f"replica-{i}", "127.0.0.1", gw.port) for i, gw in enumerate(gateways[1:])],
            port=0,
            archives={"demo": str(archive)},
            health_interval=0,
        ).start()
        try:
            router.check_workers()  # populate last_payload → shm advertisement
            chunks = [
                table.slice_rows(start, min(start + 200, table.n_rows))
                for start in range(0, table.n_rows, 200)
            ]
            single = Client(port=gateways[0].port).validate_stream("demo", chunks)
            routed = Client(port=router.port).validate_stream("demo", chunks)
            assert routed.to_dict() == single.to_dict()
            assert router._counters["shm_scatters"] >= 2  # one per replica range
            assert router._counters["shm_fallbacks"] == 0
        finally:
            router.close()
            for gateway in gateways:
                gateway.close()
            for service in services:
                service.close()

    def test_disabled_router_never_uses_slabs(self, fitted, tmp_path):
        from repro.serve import AsyncGateway, Client, RouterGateway

        pipeline, table = fitted
        archive = tmp_path / "demo.npz"
        pipeline.save(archive)
        services, gateways = [], []
        for _ in range(2):
            service = ValidationService(capacity=2)
            service.register("demo", str(archive))
            services.append(service)
            gateways.append(AsyncGateway(service, port=0, shm_ingest=True).start())
        router = RouterGateway(
            [(f"replica-{i}", "127.0.0.1", gw.port) for i, gw in enumerate(gateways)],
            port=0,
            archives={"demo": str(archive)},
            health_interval=0,
            use_shm=False,
        ).start()
        try:
            router.check_workers()
            chunks = [
                table.slice_rows(start, min(start + 200, table.n_rows))
                for start in range(0, table.n_rows, 200)
            ]
            Client(port=router.port).validate_stream("demo", chunks)
            assert router._counters["shm_scatters"] == 0
        finally:
            router.close()
            for gateway in gateways:
                gateway.close()
            for service in services:
                service.close()
