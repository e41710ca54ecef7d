"""``repro-serve`` — serve saved DQuaG pipelines over HTTP.

Examples::

    repro-serve --pipeline hotel=models/hotel.npz --port 8080
    repro-serve --demo --port 8080          # fit a tiny synthetic pipeline
    python -m repro.serve --demo            # same, without installation
    repro-serve --demo --rules checks.json  # attach declarative rules
    repro-serve --pipeline hotel=m.npz --rules hotel=checks.json
    repro-serve --demo --batch-window-ms 5 --max-batch-rows 16384
    repro-serve --demo --replicas 2         # router tier over 2 worker replicas

The server is the :class:`~repro.serve.transport.AsyncGateway`: an
asyncio event loop fronting a dynamic micro-batching
:class:`~repro.serve.scheduler.RequestScheduler` that coalesces
concurrent small validate requests into fused engine slabs
(``--batch-window-ms`` / ``--max-batch-rows``) with bounded-queue
admission control (``--max-queue-depth`` → HTTP 429 + ``Retry-After``)
and per-pipeline QoS weights (``--qos-weight``). ``--replicas N``
switches to router mode: N ``AsyncGateway`` worker processes are
spawned and warmed from the weight archives
(:class:`~repro.serve.fleet.GatewayFleet`) and a
:class:`~repro.serve.router.RouterGateway` on ``--port`` fronts them on
the same asyncio front — same protocol, same client, fleet-wide
capacity.

Then::

    curl http://127.0.0.1:8080/v1/healthz
    curl -X POST http://127.0.0.1:8080/v1/pipelines/hotel/validate \
         -H 'Content-Type: application/json' \
         -d '{"records": [{"adr": 310.0, "country": "PRT", ...}]}'

Bulk ingest can skip JSON entirely — the same endpoints accept the
binary columnar frame tier (see ``repro.api.framing``)::

    python -c "from repro.data import Table; ...; t.to_frame_file('slab.rprf')"
    curl -X POST http://127.0.0.1:8080/v1/pipelines/hotel/validate \
         -H 'Content-Type: application/x-repro-frame' \
         -H 'Accept: application/x-repro-frame' \
         --data-binary @slab.rprf
"""

from __future__ import annotations

import argparse
import sys

from repro.exceptions import ReproError
from repro.runtime.service import ValidationService
from repro.serve.transport import AsyncGateway
from repro.utils.logging import configure_demo_logging

__all__ = ["main", "fit_demo_pipeline", "DEMO_RECORD"]

#: A row that fits the --demo pipeline's schema (handy for smoke tests).
DEMO_RECORD = {"x": 0.5, "y": 1.0, "z": 0.5, "c": "lo"}


def fit_demo_pipeline():
    """Fit a small synthetic pipeline (columns x, y=2x, z=1-x, c=band(x)).

    Used by ``--demo`` and the CI serve smoke job: it gives the gateway
    something to serve without shipping a weight archive.
    """
    import numpy as np

    from repro.core import DQuaG, DQuaGConfig
    from repro.data import ColumnKind, ColumnSpec, Table, TableSchema

    rng = np.random.default_rng(0)
    x = rng.uniform(0.1, 0.9, 500)
    schema = TableSchema(
        [
            ColumnSpec("x", ColumnKind.NUMERIC, "driver"),
            ColumnSpec("y", ColumnKind.NUMERIC, "2x + noise"),
            ColumnSpec("z", ColumnKind.NUMERIC, "1 - x + noise"),
            ColumnSpec("c", ColumnKind.CATEGORICAL, "band of x", categories=("lo", "hi")),
        ]
    )
    clean = Table(
        schema,
        {
            "x": x,
            "y": 2.0 * x + rng.normal(0, 0.01, x.size),
            "z": 1.0 - x + rng.normal(0, 0.01, x.size),
            "c": np.where(x > 0.5, "hi", "lo"),
        },
    )
    config = DQuaGConfig(hidden_dim=16, epochs=6, batch_size=64)
    return DQuaG(config).fit(clean, rng=0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve saved DQuaG pipelines over HTTP (stdlib only).",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8080, help="bind port (0 = ephemeral)")
    parser.add_argument(
        "--pipeline",
        action="append",
        default=[],
        metavar="NAME=ARCHIVE",
        help="register a saved pipeline archive under NAME (repeatable)",
    )
    parser.add_argument(
        "--demo",
        action="store_true",
        help="fit a small synthetic pipeline and serve it as 'demo'",
    )
    parser.add_argument(
        "--rules",
        action="append",
        default=[],
        metavar="[NAME=]FILE",
        help="attach a declarative rule-set JSON file to pipeline NAME "
        "(repeatable); a bare FILE applies to every served pipeline",
    )
    parser.add_argument("--capacity", type=int, default=8, help="LRU capacity for archive-backed pipelines")
    parser.add_argument(
        "--monitor-window",
        type=int,
        default=None,
        help="drift-monitor rolling window in chunks (default: 32; 0 disables "
        "monitoring and the /monitor endpoint)",
    )
    parser.add_argument(
        "--max-body-mb",
        type=float,
        default=None,
        help="request-body size limit in MiB; oversized requests get HTTP 413 "
        "(default: 64)",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=None,
        metavar="N",
        help="router mode: spawn N worker replicas from the weight "
        "archives and front them with a consistent-hash router on --port",
    )
    parser.add_argument(
        "--batch-window-ms",
        type=float,
        default=2.0,
        help="micro-batching latency budget: how long a validate request may "
        "wait for co-batchable traffic (default: 2.0)",
    )
    parser.add_argument(
        "--max-batch-rows",
        type=int,
        default=8192,
        help="row ceiling per fused engine slab (default: 8192)",
    )
    parser.add_argument(
        "--max-queue-depth",
        type=int,
        default=1024,
        help="admission bound in pending requests per pipeline; beyond it "
        "requests get HTTP 429 + Retry-After (default: 1024)",
    )
    parser.add_argument(
        "--qos-weight",
        action="append",
        default=[],
        metavar="NAME=WEIGHT",
        help="QoS weight for a pipeline's scheduler queue (repeatable; "
        "unlisted pipelines weigh 1.0)",
    )
    parser.add_argument("--verbose", action="store_true", help="enable INFO logging")
    args = parser.parse_args(argv)

    if args.verbose:
        configure_demo_logging()

    if args.monitor_window is not None and args.monitor_window < 0:
        parser.error(f"--monitor-window must be >= 0, got {args.monitor_window}")
    if args.max_body_mb is not None and args.max_body_mb <= 0:
        parser.error(f"--max-body-mb must be positive, got {args.max_body_mb}")
    max_body_bytes = (
        None if args.max_body_mb is None else int(args.max_body_mb * 1024 * 1024)
    )
    qos_weights: dict[str, float] = {}
    for spec in args.qos_weight:
        name, separator, weight = spec.partition("=")
        if not separator or not name:
            parser.error(f"--qos-weight expects NAME=WEIGHT, got {spec!r}")
        try:
            qos_weights[name] = float(weight)
        except ValueError:
            parser.error(f"--qos-weight weight must be a number, got {spec!r}")
    if args.batch_window_ms < 0:
        parser.error(f"--batch-window-ms must be >= 0, got {args.batch_window_ms}")
    if args.max_batch_rows < 1:
        parser.error(f"--max-batch-rows must be positive, got {args.max_batch_rows}")
    if args.max_queue_depth < 1:
        parser.error(f"--max-queue-depth must be positive, got {args.max_queue_depth}")

    if args.replicas is not None and args.replicas < 1:
        parser.error(f"--replicas must be positive, got {args.replicas}")

    archives: dict[str, str] = {}
    for spec in args.pipeline:
        name, separator, archive = spec.partition("=")
        if not separator or not name or not archive:
            parser.error(f"--pipeline expects NAME=ARCHIVE, got {spec!r}")
        archives[name] = archive
    names = sorted({*archives, *(["demo"] if args.demo else [])})
    if not names:
        parser.error("nothing to serve: pass --pipeline NAME=ARCHIVE and/or --demo")
    # A bare FILE applies to every served pipeline; the last rule file
    # named for a pipeline wins.
    rules: dict[str, str] = {}
    for spec in args.rules:
        name, separator, rule_file = spec.partition("=")
        if separator and (not name or not rule_file):
            parser.error(f"--rules expects [NAME=]FILE, got {spec!r}")
        if separator and name not in names:
            parser.error(f"--rules names unknown pipeline {name!r}; registered: {names}")
        for target in ([name] if separator else names):
            rules[target] = rule_file if separator else spec

    if args.replicas is not None:
        return _serve_fleet(args, archives, rules, max_body_bytes, qos_weights)

    service = ValidationService(
        capacity=args.capacity,
        monitor_window=32 if args.monitor_window is None else args.monitor_window,
    )
    try:
        for name, archive in archives.items():
            service.register(name, archive)
        if args.demo:
            print("fitting demo pipeline...", flush=True)
            service.add("demo", fit_demo_pipeline())
        # set_rules compiles eagerly, so an incompatible rule file fails
        # startup rather than requests.
        for target, rule_file in rules.items():
            service.set_rules(target, rule_file)
            print(f"attached rules {rule_file} -> {target}", flush=True)

        gateway = AsyncGateway(
            service,
            host=args.host,
            port=args.port,
            max_body_bytes=max_body_bytes,
            batch_window_ms=args.batch_window_ms,
            max_batch_rows=args.max_batch_rows,
            max_queue_depth=args.max_queue_depth,
            qos_weights=qos_weights or None,
        )
        print(f"serving {service.registered} on {gateway.url}", flush=True)
        try:
            gateway.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            gateway.close()
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        service.close()


def _serve_fleet(args, archives, rules, max_body_bytes, qos_weights) -> int:
    """``--replicas N``: spawn a worker fleet and front it with a router."""
    import os
    import tempfile

    from repro.serve.fleet import GatewayFleet
    from repro.serve.router import RouterGateway

    demo_archive: str | None = None
    try:
        if args.demo:
            # Workers rebuild pipelines from archives (nothing live
            # crosses the spawn boundary), so the demo fit is saved to a
            # temp archive every replica — and the router's merge
            # context — loads from.
            print("fitting demo pipeline...", flush=True)
            handle, demo_archive = tempfile.mkstemp(prefix="repro-fleet-demo-", suffix=".npz")
            os.close(handle)
            fit_demo_pipeline().save(demo_archive)
            archives["demo"] = demo_archive

        fleet = GatewayFleet(
            archives,
            replicas=args.replicas,
            host=args.host,
            rules=rules or None,
            capacity=args.capacity,
            monitor_window=32 if args.monitor_window is None else args.monitor_window,
            max_body_bytes=max_body_bytes,
            batch_window_ms=args.batch_window_ms,
            max_batch_rows=args.max_batch_rows,
            max_queue_depth=args.max_queue_depth,
            qos_weights=qos_weights or None,
        )
        print(f"spawning {args.replicas} worker replica(s)...", flush=True)
        with fleet:
            router = RouterGateway(
                fleet.targets(),
                host=args.host,
                port=args.port,
                max_body_bytes=max_body_bytes,
                archives=archives,
            )
            workers = ", ".join(f"{w.name}@{w.host}:{w.port}" for w in fleet.targets())
            print(
                f"serving {sorted(archives)} on {router.url} "
                f"(router over {workers})",
                flush=True,
            )
            try:
                router.serve_forever()
            except KeyboardInterrupt:
                pass
            finally:
                router.close()
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if demo_archive is not None:
            try:
                os.unlink(demo_archive)
            except OSError:
                pass


if __name__ == "__main__":
    sys.exit(main())
