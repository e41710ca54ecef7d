"""Router-tier benchmarks — fleet throughput over one gateway.

Quantifies what the multi-node tier buys: N worker processes each run
their own engine (no shared GIL), and the router consistent-hashes
pipelines across them, so a stampede spread over several pipelines
fans out over real cores instead of contending inside one process.

* ``test_router_fleet_throughput`` — RPS and latency percentiles of a
  single async gateway vs a 4-replica router fleet serving the same
  pipelines. The >=2x acceptance bar is asserted at standard scale and
  above on multi-core hosts; a smoke run gates on **parity** instead
  (router-fronted reports bit-identical to single-node) and records
  the numbers.

Run with ``REPRO_SCALE=smoke`` for a CI-sized pass. Machine-readable
snapshots land in ``results/BENCH_router.json``.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time

import numpy as np
import pytest

from repro.experiments.reporting import ResultTable
from repro.runtime import ValidationService
from repro.serve import AsyncGateway, Client, GatewayFleet, RouterGateway
from repro.serve.cli import fit_demo_pipeline

from benchmarks.conftest import emit_result
from tests.test_serve import make_batch

ACCEPTANCE_SPEEDUP = 2.0
REPLICAS = 4
N_PIPELINES = 8  # spread across the ring so every replica owns traffic
ROWS_PER_REQUEST = 16


@pytest.fixture(scope="module")
def demo_archive():
    pipeline = fit_demo_pipeline()
    handle, path = tempfile.mkstemp(prefix="repro-bench-router-", suffix=".npz")
    os.close(handle)
    pipeline.save(path)
    yield pipeline, path
    os.unlink(path)


def run_stampede(port: int, pipelines: list, n_clients: int, per_client: int, batch) -> dict:
    """Hammer one port with ``n_clients`` clients spread over pipelines."""
    latencies: list[float] = []
    errors: list[BaseException] = []
    lock = threading.Lock()
    barrier = threading.Barrier(n_clients + 1)

    def worker(index: int):
        client = Client(port=port, timeout=120)
        name = pipelines[index % len(pipelines)]
        barrier.wait(timeout=120)
        for _ in range(per_client):
            started = time.perf_counter()
            try:
                client.validate(name, batch)
            except BaseException as exc:
                with lock:
                    errors.append(exc)
                return
            elapsed = time.perf_counter() - started
            with lock:
                latencies.append(elapsed)
        client.close()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_clients)]
    for t in threads:
        t.start()
    barrier.wait(timeout=120)
    started = time.perf_counter()
    for t in threads:
        t.join(timeout=600)
    wall = time.perf_counter() - started

    assert not errors, errors[:3]
    n = len(latencies)
    assert n == n_clients * per_client
    latencies.sort()
    return {
        "wall_seconds": wall,
        "rps": n / wall,
        "p50_ms": latencies[n // 2] * 1000.0,
        "p99_ms": latencies[max(0, int(n * 0.99) - 1)] * 1000.0,
        "requests": n,
    }


def test_router_fleet_throughput(demo_archive, scale):
    """Single async gateway vs a 4-replica router-fronted fleet."""
    pipeline, archive = demo_archive
    cpu_count = os.cpu_count() or 1
    if scale.name == "smoke":
        n_clients, per_client = 16, 3
    else:
        n_clients, per_client = 64, 6
    names = [f"demo-{i}" for i in range(N_PIPELINES)]
    batch = make_batch(pipeline, ROWS_PER_REQUEST, seed=0)
    reference = pipeline.validate(batch)

    measured: dict[str, dict] = {}

    service = ValidationService(capacity=N_PIPELINES)
    for name in names:
        service.register(name, archive)
    try:
        with AsyncGateway(service, port=0, batch_window_ms=2.0) as gateway:
            measured["single"] = run_stampede(
                gateway.port, names, n_clients, per_client, batch
            )
    finally:
        service.close()

    replica_args = [f"--pipeline={name}={archive}" for name in names]
    with GatewayFleet(
        [*replica_args, "--capacity", str(N_PIPELINES)], replicas=REPLICAS
    ) as fleet:
        router = RouterGateway(fleet.targets(), port=0).start()
        try:
            # Parity gate: the routed report is bit-identical to local.
            routed = Client(port=router.port).validate(
                names[0], batch, include_errors=True
            )
            np.testing.assert_array_equal(routed.row_flags, reference.row_flags)
            np.testing.assert_array_equal(routed.sample_errors, reference.sample_errors)
            assert routed.is_problematic == reference.is_problematic

            measured["router"] = run_stampede(
                router.port, names, n_clients, per_client, batch
            )
            metrics = Client(port=router.port).metrics()
            assert "repro_router_replicas_healthy 4" in metrics
        finally:
            router.close()

    speedup = measured["router"]["rps"] / measured["single"]["rps"]
    table = ResultTable(
        f"Router fleet — {REPLICAS} replicas x {N_PIPELINES} pipelines, "
        f"{n_clients} clients x {per_client} requests of {ROWS_PER_REQUEST} rows "
        f"({cpu_count} CPUs, scale={scale.name})",
        ["topology", "RPS", "p50 ms", "p99 ms", "speedup"],
    )
    table.add_row(
        "single gateway", f"{measured['single']['rps']:.0f}",
        f"{measured['single']['p50_ms']:.1f}", f"{measured['single']['p99_ms']:.1f}", 1.0,
    )
    table.add_row(
        f"router + {REPLICAS} replicas", f"{measured['router']['rps']:.0f}",
        f"{measured['router']['p50_ms']:.1f}", f"{measured['router']['p99_ms']:.1f}",
        f"{speedup:.2f}",
    )
    emit_result(
        "router",
        table.render(),
        data={
            "scale": scale.name,
            "cpu_count": cpu_count,
            "replicas": REPLICAS,
            "n_pipelines": N_PIPELINES,
            "n_clients": n_clients,
            "per_client": per_client,
            "rows_per_request": ROWS_PER_REQUEST,
            "single": measured["single"],
            "router": measured["router"],
            "speedup": speedup,
        },
    )

    # The tail must stay bounded at any scale.
    assert measured["router"]["p99_ms"] < 30_000.0

    if cpu_count < 4:
        pytest.skip("acceptance bar needs a 4+ core host; numbers recorded")
    if scale.name == "smoke":
        pytest.skip(
            "acceptance bar asserted at standard scale and above; parity gated"
        )
    assert speedup >= ACCEPTANCE_SPEEDUP, (
        f"router fleet speedup {speedup:.2f}x with {REPLICAS} replicas is below "
        f"the {ACCEPTANCE_SPEEDUP}x acceptance bar"
    )
