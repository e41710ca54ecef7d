"""Spawn and supervise N gateway worker replicas from weight archives.

:class:`GatewayFleet` is the process half of the router tier: it spawns
``replicas`` worker processes (``spawn`` context — nothing live is
pickled; each worker rebuilds its pipelines from the weight archives),
waits until every worker has warmed its pipelines and bound its
:class:`~repro.serve.transport.AsyncGateway` port, and hands the
resulting addresses to a :class:`~repro.serve.router.RouterGateway`
via :meth:`targets`. The router reaches a worker only over HTTP —
proxied requests and scattered chunk ranges alike — so nothing a
worker serves depends on sharing the router's host.

Workers are independent full gateways: each owns a
:class:`~repro.runtime.service.ValidationService`, a micro-batching
scheduler, and its own drift monitors (replica-local by design — the
router pins a pipeline's traffic to its home replica). ``kill()`` and
``restart()`` exist for failover drills: a restarted worker re-binds
the same port, so the router's health prober re-admits it at the same
ring position.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path

from repro.exceptions import ReproError
from repro.utils.logging import get_logger

__all__ = ["GatewayFleet", "WorkerHandle"]

logger = get_logger("serve.fleet")


def _fleet_worker_main(spec: dict, conn) -> None:
    """Worker process entry point (module-level: spawn-picklable).

    Builds a service from ``spec``, registers + warms every archive,
    attaches rule files, starts an ``AsyncGateway``, reports
    ``("ready", port)`` and then blocks until the parent sends
    ``"stop"`` (or the pipe dies with it).
    """
    try:
        from repro.runtime.service import ValidationService
        from repro.serve.transport import AsyncGateway

        service = ValidationService(
            capacity=spec.get("capacity", 8),
            monitor_window=spec.get("monitor_window", 32),
        )
        for name, archive in spec["archives"].items():
            service.register(name, archive)
        for name, rules in (spec.get("rules") or {}).items():
            service.set_rules(name, rules)
        for name in spec["archives"]:
            service.get(name)  # warm: load weights before accepting traffic
        gateway = AsyncGateway(
            service,
            host=spec.get("host", "127.0.0.1"),
            port=spec.get("port", 0),
            max_body_bytes=spec.get("max_body_bytes"),
            batch_window_ms=spec.get("batch_window_ms", 2.0),
            max_batch_rows=spec.get("max_batch_rows", 8192),
            max_queue_depth=spec.get("max_queue_depth", 1024),
            qos_weights=spec.get("qos_weights"),
        )
        gateway.start()
        conn.send(("ready", gateway.port))
    except Exception as exc:  # startup failure → parent raises ReproError
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass
        return
    try:
        while True:
            message = conn.recv()
            if message == "stop":
                break
    except (EOFError, OSError):
        pass  # parent died or closed the pipe: shut down anyway
    gateway.close()
    service.close()
    try:
        conn.send(("stopped", None))
    except (BrokenPipeError, OSError):
        pass


@dataclass
class WorkerHandle:
    """One live worker replica: its process, control pipe, and address.

    Satisfies the ``.name``/``.host``/``.port`` target contract of
    :class:`~repro.serve.router.RouterGateway`.
    """

    name: str
    host: str
    port: int
    process: object = field(repr=False, default=None)
    conn: object = field(repr=False, default=None)

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class GatewayFleet:
    """Spawn, address, and tear down N worker gateway replicas.

    >>> fleet = GatewayFleet({"demo": "demo.npz"}, replicas=2)  # doctest: +SKIP
    >>> with fleet:                                             # doctest: +SKIP
    ...     router = RouterGateway(fleet.targets(), port=0,     # doctest: +SKIP
    ...                            archives=fleet.archives)     # doctest: +SKIP

    ``archives`` maps pipeline name → saved weight archive; every
    replica registers and warms the same set.
    ``rules`` maps pipeline name → rule-set file/dict, attached on every
    replica at startup. Remaining ``gateway_options`` are forwarded into
    each worker's ``AsyncGateway``/service spec (``capacity``,
    ``monitor_window``, ``batch_window_ms``, ``max_batch_rows``,
    ``max_queue_depth``, ``qos_weights``, ``max_body_bytes``).
    """

    DEFAULT_START_TIMEOUT = 120.0

    def __init__(
        self,
        archives: "dict[str, str | Path]",
        replicas: int = 2,
        host: str = "127.0.0.1",
        rules: "dict[str, object] | None" = None,
        mp_context: str = "spawn",
        start_timeout: float | None = None,
        **gateway_options,
    ) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be positive, got {replicas}")
        self.archives = {name: str(Path(archive)) for name, archive in archives.items()}
        if not self.archives:
            raise ValueError("GatewayFleet needs at least one pipeline archive")
        for name, archive in self.archives.items():
            if not Path(archive).exists():
                raise ReproError(f"no such pipeline archive for {name!r}: {archive}")
        self.replicas = replicas
        self.host = host
        self.rules = dict(rules or {})
        self.start_timeout = (
            self.DEFAULT_START_TIMEOUT if start_timeout is None else float(start_timeout)
        )
        self._gateway_options = gateway_options
        self._mp = get_context(mp_context)
        self.workers: list[WorkerHandle] = []
        self._lock = threading.Lock()
        self._started = False

    def _spec(self, port: int = 0) -> dict:
        spec = {
            "archives": self.archives,
            "rules": self.rules,
            "host": self.host,
            "port": port,
        }
        spec.update(self._gateway_options)
        return spec

    def _spawn(self, name: str, port: int = 0) -> WorkerHandle:
        parent_conn, child_conn = self._mp.Pipe()
        process = self._mp.Process(
            target=_fleet_worker_main,
            args=(self._spec(port), child_conn),
            name=f"repro-{name}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return WorkerHandle(
            name=name, host=self.host, port=port, process=process, conn=parent_conn
        )

    def _await_ready(self, handle: WorkerHandle, deadline: float) -> None:
        timeout = max(0.0, deadline - time.monotonic())
        if not handle.conn.poll(timeout):
            raise ReproError(
                f"worker {handle.name} did not come up within {self.start_timeout:.0f}s"
            )
        kind, value = handle.conn.recv()
        if kind == "error":
            raise ReproError(f"worker {handle.name} failed to start: {value}")
        handle.port = int(value)
        logger.info("worker %s ready on %s:%d", handle.name, handle.host, handle.port)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "GatewayFleet":
        """Spawn all replicas concurrently; block until every port is up."""
        with self._lock:
            if self._started:
                return self
            self._started = True
            deadline = time.monotonic() + self.start_timeout
            self.workers = [self._spawn(f"replica-{i}") for i in range(self.replicas)]
            try:
                for handle in self.workers:
                    self._await_ready(handle, deadline)
            except Exception:
                self._terminate_all()
                raise
        return self

    def targets(self) -> "list[WorkerHandle]":
        """The live worker addresses, in replica order (router input)."""
        return list(self.workers)

    def stop_worker(self, index: int, timeout: float = 15.0) -> None:
        """Graceful worker shutdown (drains its gateway first)."""
        handle = self.workers[index]
        try:
            handle.conn.send("stop")
            if handle.conn.poll(timeout):
                handle.conn.recv()  # ("stopped", None)
        except (BrokenPipeError, OSError, EOFError):
            pass
        handle.process.join(timeout)
        if handle.process.is_alive():
            handle.process.terminate()
            handle.process.join(5.0)

    def kill_worker(self, index: int) -> None:
        """Hard-kill a worker (failover drills: no drain, no goodbye)."""
        handle = self.workers[index]
        handle.process.terminate()
        handle.process.join(10.0)
        try:
            handle.conn.close()
        except OSError:
            pass

    def restart_worker(self, index: int, timeout: float | None = None) -> WorkerHandle:
        """Respawn a (dead) worker on its old port so the router's health
        prober re-admits it at the same ring position."""
        old = self.workers[index]
        if old.process.is_alive():
            self.kill_worker(index)
        handle = self._spawn(old.name, port=old.port)
        deadline = time.monotonic() + (self.start_timeout if timeout is None else timeout)
        try:
            self._await_ready(handle, deadline)
        except Exception:
            handle.process.terminate()
            raise
        self.workers[index] = handle
        return handle

    def _terminate_all(self) -> None:
        for handle in self.workers:
            if handle.process is not None and handle.process.is_alive():
                handle.process.terminate()
        for handle in self.workers:
            if handle.process is not None:
                handle.process.join(5.0)

    def close(self) -> None:
        """Stop every worker gracefully; escalate to terminate on timeout."""
        with self._lock:
            for index, handle in enumerate(self.workers):
                if handle.process is not None and handle.process.is_alive():
                    try:
                        self.stop_worker(index)
                    except Exception:  # pragma: no cover - best-effort teardown
                        logger.exception("stopping worker %s failed", handle.name)
            self._terminate_all()
            self.workers = []
            self._started = False

    def __enter__(self) -> "GatewayFleet":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
