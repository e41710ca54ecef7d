"""Continuous drift monitoring over the serving stack.

A fitted pipeline freezes its clean training distribution as a
monitoring baseline; a :class:`DriftMonitor` then watches everything the
pipeline validates and raises :class:`DriftAlert`s when the data shifts.
This example shows all three layers:

1. ``pipeline.monitor()`` — the in-process monitor riding the
   streaming validator (clean traffic quiet, shifted traffic alerts);
2. ``ValidationService`` — per-pipeline monitors updated automatically
   by every validate call;
3. the HTTP gateway — ``GET /v1/pipelines/{name}/monitor`` and the
   Prometheus ``GET /v1/metrics`` exposition.

Run with ``PYTHONPATH=src python examples/drift_monitoring.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core import DQuaG, DQuaGConfig
from repro.data import ColumnKind, ColumnSpec, Table, TableSchema
from repro.runtime import ValidationService
from repro.serve import AsyncGateway, Client


def make_table(n: int, seed: int, shift: float = 0.0) -> Table:
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.1, 0.9, n)
    schema = TableSchema(
        [
            ColumnSpec("x", ColumnKind.NUMERIC, "driver"),
            ColumnSpec("y", ColumnKind.NUMERIC, "2x + noise"),
            ColumnSpec("z", ColumnKind.NUMERIC, "1 - x + noise"),
            ColumnSpec("c", ColumnKind.CATEGORICAL, "band of x", categories=("lo", "hi")),
        ]
    )
    return Table(
        schema,
        {
            "x": x + shift,
            "y": 2.0 * (x + shift) + rng.normal(0, 0.01, n),
            "z": 1.0 - x + rng.normal(0, 0.01, n),
            "c": np.where(x > 0.5, "hi", "lo"),
        },
    )


def main() -> None:
    print("fitting a small pipeline (the baseline is frozen at fit time)...")
    config = DQuaGConfig(hidden_dim=16, epochs=8, batch_size=64)
    pipeline = DQuaG(config).fit(make_table(600, seed=0), rng=0)

    # -- 1. in-process: monitor + streaming validator ----------------------
    monitor = pipeline.monitor(window_chunks=16)
    streaming = pipeline.streaming_validator(chunk_size=256, monitor=monitor)

    print("\nstreaming in-distribution chunks...")
    streaming.validate_table(make_table(1500, seed=1))
    print("  ", monitor.snapshot().summary())

    print("streaming a shifted distribution (x + 0.5)...")
    streaming.validate_table(make_table(1500, seed=2, shift=0.5))
    snapshot = monitor.snapshot()
    print("  ", snapshot.summary())
    for alert in snapshot.alerts:
        print("   ALERT:", alert.message)

    # -- 2. the serving layer ---------------------------------------------
    print("\nserving with per-pipeline monitors...")
    service = ValidationService(capacity=4, monitor_window=16)
    service.add("demo", pipeline)
    service.validate("demo", make_table(400, seed=3))
    print("  ", service.monitor_snapshot("demo").summary())

    # -- 3. over HTTP -------------------------------------------------------
    with AsyncGateway(service, port=0) as gateway:
        client = Client(port=gateway.port)
        for i in range(4):
            client.validate("demo", make_table(300, seed=10 + i, shift=0.5))
        snapshot = client.monitor("demo")
        print("\nGET /v1/pipelines/demo/monitor ->", snapshot.summary())
        print("drifted columns:", snapshot.drifted_columns)
        metrics = client.metrics()
        print("\nGET /v1/metrics (drift lines):")
        for line in metrics.splitlines():
            if "drift" in line and not line.startswith("#"):
                print("  ", line)
    service.close()


if __name__ == "__main__":
    main()
