"""Start and supervise N ``repro-serve`` replicas for the router tier.

:class:`GatewayFleet` is the process half of the router tier. Each
replica is a subprocess that runs :func:`repro.serve.cli.main`, the
same code a single gateway runs, on the ``repro-serve`` argument list
the fleet was given plus ``--host`` and ``--port 0``. The fleet learns
a replica's port, and that it is ready, from the replica's
``serving … on URL`` line, and hands the addresses to a
:class:`~repro.serve.router.RouterGateway` via :meth:`targets`. The
router reaches a replica only over HTTP — proxied requests and
scattered chunk ranges alike — so nothing a replica serves depends on
sharing the router's host.

A replica's stdin is a pipe only the fleet holds. EOF on it — the fleet
closed it, or the fleet's process died, SIGKILL included — makes the
replica send itself SIGTERM, which ``repro-serve`` answers with the
same drain as SIGINT. ``kill_worker()`` and ``restart_worker()`` exist
for failover drills: a restarted replica re-binds its old port, so the
router's health prober re-admits it at the same ring position. It
starts from the fleet's arguments only: rules PUT since then are not
on it.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.exceptions import ReproError
from repro.utils.logging import get_logger

__all__ = ["GatewayFleet", "WorkerHandle"]

logger = get_logger("serve.fleet")

#: What a replica process runs: ``repro-serve`` on its arguments.
_REPLICA = (
    "import sys; from repro.serve.fleet import _replica_main; "
    "sys.exit(_replica_main(sys.argv[1:]))"
)


def _replica_main(argv: "list[str]") -> int:
    """``repro-serve`` that SIGTERMs itself when its stdin reaches EOF."""
    from repro.serve.cli import main

    def watch_stdin() -> None:
        while os.read(0, 4096):  # raw reads: no stdin buffer lock held at exit
            pass
        os.kill(os.getpid(), signal.SIGTERM)

    threading.Thread(target=watch_stdin, name="repro-fleet-stdin", daemon=True).start()
    return main(argv)


def _read_stdout(handle: "WorkerHandle") -> None:
    """Take a replica's port from its ``serving … on URL`` line, and log
    everything it prints, so that no print blocks on a full pipe."""
    with handle.process.stdout as stdout:
        for line in stdout:
            if not handle.port and line.startswith("serving "):
                handle.port = int(line.rsplit(":", 1)[1])
                handle.ready.set()
            logger.info("%s: %s", handle.name, line.rstrip())
    handle.ready.set()  # EOF: the replica has exited


@dataclass
class WorkerHandle:
    """One replica: its process and address (``port`` is 0 until it
    serves; ``ready`` is set once it serves or has exited).

    Satisfies the ``.name``/``.host``/``.port`` target contract of
    :class:`~repro.serve.router.RouterGateway`.
    """

    name: str
    host: str
    port: int
    process: "subprocess.Popen | None" = field(repr=False, default=None)
    ready: threading.Event = field(repr=False, compare=False, default_factory=threading.Event)

    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None


class GatewayFleet:
    """Start, address, and tear down N ``repro-serve`` replicas.

    >>> fleet = GatewayFleet(["--pipeline", "demo=demo.npz"], replicas=2)  # doctest: +SKIP
    >>> with fleet:                                                        # doctest: +SKIP
    ...     router = RouterGateway(fleet.targets(), port=0)                # doctest: +SKIP

    ``args`` is the ``repro-serve`` argument list every replica runs
    with (pipelines, rules, scheduler and service options); the fleet
    adds ``--host host`` and ``--port``.
    """

    #: seconds a replica may take to print its ``serving`` line
    START_TIMEOUT = 120.0

    def __init__(self, args: "list[str]", replicas: int = 2, host: str = "127.0.0.1") -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be positive, got {replicas}")
        self.args = list(args)
        self.replicas = replicas
        self.host = host
        self.workers: list[WorkerHandle] = []
        self._lock = threading.Lock()

    def _spawn(self, name: str, port: int = 0) -> WorkerHandle:
        # A replica imports repro from where this process did, even when
        # that directory reached sys.path some other way than PYTHONPATH.
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        process = subprocess.Popen(
            [sys.executable, "-c", _REPLICA, *self.args, "--host", self.host, "--port", str(port)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        handle = WorkerHandle(name=name, host=self.host, port=0, process=process)
        threading.Thread(target=_read_stdout, args=(handle,), daemon=True).start()
        return handle

    def _await_serving(self, handle: WorkerHandle) -> None:
        """Block until the replica serves. One that exits first, or has not
        served within :attr:`START_TIMEOUT` seconds (it is killed then),
        fails the start."""
        if not (handle.ready.wait(self.START_TIMEOUT) and handle.port):
            handle.process.kill()
            code = handle.process.wait()
            raise ReproError(f"{handle.name} exited with code {code} before serving")

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "GatewayFleet":
        """Start all replicas concurrently; block until every one serves."""
        with self._lock:
            if not self.workers:
                self.workers = [self._spawn(f"replica-{i}") for i in range(self.replicas)]
                try:
                    for handle in self.workers:
                        self._await_serving(handle)
                except BaseException:
                    self._stop_all()
                    raise
        return self

    def targets(self) -> "list[WorkerHandle]":
        """The live replica addresses, in replica order (router input)."""
        return list(self.workers)

    def stop_worker(self, index: int, timeout: float = 15.0) -> None:
        """Stop one replica gracefully: close its stdin, so it drains."""
        process = self.workers[index].process
        process.stdin.close()
        try:
            process.wait(timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()

    def kill_worker(self, index: int) -> None:
        """SIGKILL one replica (failover drills: no drain, no goodbye)."""
        process = self.workers[index].process
        process.kill()
        process.wait()
        process.stdin.close()

    def restart_worker(self, index: int) -> WorkerHandle:
        """Start a (dead) replica again on its old port, so the router's
        health prober re-admits it at the same ring position."""
        old = self.workers[index]
        if old.alive():
            self.kill_worker(index)
        self.workers[index] = self._spawn(old.name, port=old.port)
        try:
            self._await_serving(self.workers[index])
        except BaseException:
            self.kill_worker(index)
            raise
        return self.workers[index]

    def _stop_all(self) -> None:
        for handle in self.workers:  # every replica drains at once
            handle.process.stdin.close()
        for index in range(len(self.workers)):
            self.stop_worker(index)
        self.workers = []

    def close(self) -> None:
        """Stop every replica gracefully (each drains, then exits 0)."""
        with self._lock:
            self._stop_all()

    def __enter__(self) -> "GatewayFleet":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
