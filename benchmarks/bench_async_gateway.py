"""Async-gateway benchmark — absolute throughput under fan-in.

Measures the asyncio transport + :class:`RequestScheduler` on the
many-small-requests serving shape: a stampede of concurrent clients
each validating a handful of rows, which the gateway coalesces into
fused slabs under the ``--batch-window-ms`` latency budget.

* ``test_gateway_fanin_throughput`` — RPS and p50/p99 latency of one
  ``AsyncGateway`` at high client concurrency, recorded at every scale.
  Asserted at any scale: the stampede actually coalesces (mean batch
  size > 1) and the tail stays bounded.

Run with ``REPRO_SCALE=smoke`` for a CI-sized pass. Machine-readable
snapshots land in ``results/BENCH_async_gateway.json``.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.experiments.reporting import ResultTable
from repro.runtime import ValidationService
from repro.serve import AsyncGateway, Client
from repro.serve.cli import fit_demo_pipeline

from benchmarks.conftest import emit_result
from tests.test_serve import make_batch

ROWS_PER_REQUEST = 16


@pytest.fixture(scope="module")
def demo_pipeline():
    return fit_demo_pipeline()


def run_stampede(port: int, n_clients: int, per_client: int, batch) -> dict:
    """Hammer one gateway with ``n_clients`` concurrent clients."""
    latencies: list[float] = []
    errors: list[BaseException] = []
    lock = threading.Lock()
    barrier = threading.Barrier(n_clients + 1)

    def worker():
        client = Client(port=port, timeout=120)
        barrier.wait(timeout=120)
        for _ in range(per_client):
            started = time.perf_counter()
            try:
                client.validate("demo", batch)
            except BaseException as exc:
                with lock:
                    errors.append(exc)
                return
            elapsed = time.perf_counter() - started
            with lock:
                latencies.append(elapsed)

    threads = [threading.Thread(target=worker) for _ in range(n_clients)]
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


def test_gateway_fanin_throughput(demo_pipeline, scale):
    """Async micro-batched fan-in: RPS, p50 and p99 of one gateway."""
    cpu_count = os.cpu_count() or 1
    if scale.name == "smoke":
        n_clients, per_client = 32, 3
    else:
        n_clients, per_client = 100, 5
    batch = make_batch(demo_pipeline, ROWS_PER_REQUEST, seed=0)

    service = ValidationService(capacity=2)
    service.add("demo", demo_pipeline)
    try:
        with AsyncGateway(service, port=0, batch_window_ms=2.0) as gateway:
            measured = run_stampede(gateway.port, n_clients, per_client, batch)
            sched = gateway.scheduler.stats_snapshot()
            measured["mean_batch_size"] = sched.mean_batch_size
            measured["batches"] = sched.batches
    finally:
        service.close()

    table = ResultTable(
        f"Async gateway — {n_clients} concurrent clients x {per_client} requests "
        f"of {ROWS_PER_REQUEST} rows ({cpu_count} CPUs, scale={scale.name})",
        ["gateway", "RPS", "p50 ms", "p99 ms", "mean batch"],
    )
    table.add_row(
        "async+scheduler", f"{measured['rps']:.0f}",
        f"{measured['p50_ms']:.1f}", f"{measured['p99_ms']:.1f}",
        f"{measured['mean_batch_size']:.1f}",
    )
    emit_result(
        "async_gateway",
        table.render(),
        data={
            "scale": scale.name,
            "cpu_count": cpu_count,
            "n_clients": n_clients,
            "per_client": per_client,
            "rows_per_request": ROWS_PER_REQUEST,
            "async": measured,
        },
    )

    # The stampede must coalesce and the tail must stay bounded at any scale.
    assert measured["mean_batch_size"] > 1.0
    assert measured["p99_ms"] < 30_000.0
