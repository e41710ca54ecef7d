"""Serving validation over HTTP: gateway, client, and raw curl-style calls.

Fits a small pipeline, serves it through the stdlib HTTP gateway on an
ephemeral port, and exercises every ``/v1`` endpoint — including the
chunked streaming one — from the stdlib client::

    PYTHONPATH=src python examples/http_serving.py
"""

from __future__ import annotations

import http.client
import json

import numpy as np

from repro.data import Table
from repro.errors import NumericAnomalyInjector
from repro.runtime import ValidationService
from repro.serve import AsyncGateway, Client
from repro.serve.cli import DEMO_RECORD, fit_demo_pipeline
from repro.utils.logging import configure_demo_logging


def make_holdout(pipeline, n: int = 600) -> Table:
    rng = np.random.default_rng(3)
    x = rng.uniform(0.1, 0.9, n)
    return Table(
        pipeline.preprocessor.schema,
        {
            "x": x,
            "y": 2.0 * x + rng.normal(0, 0.01, n),
            "z": 1.0 - x + rng.normal(0, 0.01, n),
            "c": np.where(x > 0.5, "hi", "lo"),
        },
    )


def main() -> None:
    configure_demo_logging()

    print("fitting demo pipeline...")
    pipeline = fit_demo_pipeline()
    holdout = make_holdout(pipeline)
    dirty, _ = NumericAnomalyInjector(["y"], fraction=0.15).inject(holdout, rng=4)

    service = ValidationService(capacity=4)
    service.add("demo", pipeline)

    # port=0 binds an ephemeral port; a real deployment would run
    # `repro-serve --pipeline demo=model.npz --port 8080` instead.
    with AsyncGateway(service, port=0) as gateway:
        print(f"\ngateway listening on {gateway.url}")
        client = Client(port=gateway.port)

        # 1. Health + registered pipelines.
        print(f"healthz   → {client.healthz()}")

        # 2. Validate: the decoded report carries the same flags,
        #    threshold, and verdict as the in-process call.
        remote = client.validate("demo", dirty)
        local = pipeline.validate(dirty)
        assert (remote.row_flags == local.row_flags).all()
        assert remote.threshold == local.threshold
        print(f"validate  → {remote.summary()}   (identical to in-process)")

        # 3. Repair over the wire: repaired rows come back as records.
        records, summary, _ = client.repair("demo", dirty, iterations=2)
        print(f"repair    → {summary}  ({len(records)} rows returned)")

        # 4. Streaming: chunked NDJSON both ways, bounded memory.
        chunks = (dirty.take(np.arange(i, min(i + 100, dirty.n_rows)))
                  for i in range(0, dirty.n_rows, 100))
        stream = client.validate_stream("demo", chunks)
        print(f"stream    → {stream.summary()}")

        # 5. What curl sends: a bare JSON body, no protocol envelope.
        connection = http.client.HTTPConnection("127.0.0.1", gateway.port)
        connection.request(
            "POST",
            "/v1/pipelines/demo/validate",
            body=json.dumps({"records": [DEMO_RECORD, {"x": 0.5, "y": 9.9, "z": 0.5, "c": "lo"}]}),
            headers={"Content-Type": "application/json"},
        )
        payload = json.loads(connection.getresponse().read())
        connection.close()
        print(f"curl-style → kind={payload['kind']} n_flagged={payload['n_flagged']}")

        # 6. Per-pipeline serving stats.
        stats = client.pipelines()
        print(f"stats     → {stats.pipelines['demo']}")

    service.close()
    print("\ngateway closed.")


if __name__ == "__main__":
    main()
