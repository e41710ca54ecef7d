"""Benchmark helpers that do not depend on the ``repro`` package.

Percentiles with their sample support, the open-loop arrival schedule,
Prometheus scrape diffs, a span recorder, process-tree memory readings,
the spawned-server handle and the reproducibility record all live here,
so ``perfbench/test_perfbench.py`` can test them without fitting a model.
"""

from __future__ import annotations

import math
import os
import platform
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: percentiles a tail may be reported at, highest first
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)

#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10


# -- percentiles ----------------------------------------------------------
def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``%
    of the samples at or below it. ``inf`` entries (failed requests)
    rank above every real sample."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def _rank(n: int, q: float) -> int:
    # The epsilon keeps e.g. 99.9% of 10000 at rank 9990 despite rounding.
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples rank above the nearest-rank ``q``-th percentile."""
    return n - _rank(n, q)


def supported_tail(n: int, candidates=TAIL_PERCENTILES, min_beyond: int = MIN_BEYOND) -> float | None:
    """The highest candidate percentile with ``min_beyond`` samples beyond it."""
    for q in candidates:
        if samples_beyond(n, q) >= min_beyond:
            return q
    return None


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def round_medians(values, rounds) -> list[float]:
    """The median of each round's ``values``, in order of first
    appearance; ``rounds[i]`` names the round ``values[i]`` belongs to.

    A timed figure is the best of these: on a shared host a whole round
    (a few seconds) can run slow, and the best round's median is the one
    that such a slow stretch leaves alone."""
    if len(values) != len(rounds):
        raise ValueError("one round label per value")
    grouped: dict = {}
    for value, label in zip(values, rounds):
        grouped.setdefault(label, []).append(value)
    return [median(group) for group in grouped.values()]


# -- open-loop schedule ---------------------------------------------------
def open_loop_schedule(rate: float, duration: float, start: float = 0.0) -> list[float]:
    """Due times of a fixed-rate open loop: ``start + i / rate`` for every
    ``i`` whose due time falls inside ``[start, start + duration)``."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    count = math.ceil(duration * rate - 1e-9)
    return [start + i / rate for i in range(count)]


def lateness(due: float, sent: float) -> float:
    """How late a request left relative to its due time (never negative)."""
    return max(0.0, sent - due)


# -- Prometheus scrapes ---------------------------------------------------
def parse_prometheus(text: str) -> dict:
    """Map ``(metric, ((label, value), ...))`` to its sample value."""
    samples: dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        labels: tuple = ()
        name = head
        if "{" in head:
            name, _, rest = head.partition("{")
            pairs = []
            for part in rest.rstrip("}").split(","):
                if not part:
                    continue
                key, _, raw = part.partition("=")
                pairs.append((key.strip(), raw.strip().strip('"')))
            labels = tuple(sorted(pairs))
        samples[(name, labels)] = float(value)
    return samples


def scrape_diff(before: dict, after: dict) -> dict:
    """Per-sample ``after - before`` (a sample new in ``after`` counts from 0)."""
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def metric_sum(samples: dict, name: str, **labels) -> float:
    """Sum of every sample of ``name`` whose labels include ``labels``."""
    total = 0.0
    for (metric, sample_labels), value in samples.items():
        if metric != name:
            continue
        present = dict(sample_labels)
        if all(present.get(k) == v for k, v in labels.items()):
            total += value
    return total


def metric_by_label(samples: dict, name: str, label: str) -> dict:
    """``{label value: sample}`` for every sample of ``name`` carrying ``label``."""
    out: dict = {}
    for (metric, sample_labels), value in samples.items():
        if metric == name:
            present = dict(sample_labels)
            if label in present:
                out[present[label]] = out.get(present[label], 0.0) + value
    return out


# -- span recorder ---------------------------------------------------------
@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(child.duration for child in self.children)


class Tracer:
    """In-memory span recorder for the traced run.

    ``span(name)`` records start, end and the enclosing span on a
    monotonic clock; ``total(name)`` and ``self_total(name)`` sum what
    was recorded. A disabled tracer records nothing and costs one
    attribute check per span.
    """

    def __init__(self, enabled: bool = True, clock=time.perf_counter) -> None:
        self.enabled = enabled
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        record = Span(name, self.clock(), parent=parent)
        if parent is not None:
            parent.children.append(record)
        self._stack.append(record)
        try:
            yield
        finally:
            record.end = self.clock()
            self._stack.pop()
            self.spans.append(record)

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_total(self, name: str) -> float:
        return sum(s.self_time for s in self.spans if s.name == name)


# -- process memory ---------------------------------------------------------
def _status_field(pid: int, field_name: str) -> int | None:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field_name + ":"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return None
    return None


def vmhwm_kib(pid: int) -> int | None:
    """Peak resident set size of ``pid`` in KiB (``VmHWM``)."""
    return _status_field(pid, "VmHWM")


def children_of(pid: int) -> list[int]:
    """Direct children of ``pid``, read from ``/proc``."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except (FileNotFoundError, ProcessLookupError, PermissionError):
            continue
        # The command name may hold spaces; fields resume after ')'.
        fields = stat.rpartition(")")[2].split()
        if len(fields) > 1 and int(fields[1]) == pid:
            kids.append(int(entry))
    return kids


def process_tree(pid: int) -> list[int]:
    """``pid`` and all its live descendants."""
    tree, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        tree.append(current)
        frontier.extend(children_of(current))
    return tree


def tree_peak_rss_mib(pid: int) -> float:
    """Sum of the peak RSS of every process in ``pid``'s tree, in MiB."""
    return sum(vmhwm_kib(p) or 0 for p in process_tree(pid)) / 1024.0


# -- spawned server -------------------------------------------------------------
def free_port() -> int:
    """A TCP port on 127.0.0.1 that nothing listens on right now."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class ServerProcess:
    """One ``python -m repro.serve`` process tree, stopped on ``close()``.

    The server is given a free local port; ``start`` returns once
    ``/v1/healthz`` answers 200. ``close`` sends SIGINT
    (the CLI's graceful shutdown), then SIGKILLs the whole session if it
    has not ended, and waits until every process of the tree is gone.
    """

    def __init__(self, args: list[str], env: dict, cwd: Path, log_path: Path) -> None:
        self.args = args
        self.env = env
        self.cwd = cwd
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.url: str | None = None
        self._log = None

    def start(self, timeout: float = 60.0) -> "ServerProcess":
        port = free_port()
        self.url = f"http://127.0.0.1:{port}"
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", str(port), *self.args],
            cwd=self.cwd,
            env=self.env,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited before serving (see {self.log_path})")
            try:
                with urllib.request.urlopen(self.url + "/v1/healthz", timeout=5) as resp:
                    if resp.status == 200:
                        return self
            except (urllib.error.URLError, OSError):
                pass
            if time.monotonic() > deadline:
                raise TimeoutError("server never answered /v1/healthz with 200")
            time.sleep(0.01)

    @property
    def pid(self) -> int:
        return self.proc.pid

    @property
    def port(self) -> int:
        return int(self.url.rsplit(":", 1)[1])

    def get(self, path: str, timeout: float = 30.0) -> bytes:
        with urllib.request.urlopen(self.url + path, timeout=timeout) as resp:
            return resp.read()

    def scrape(self) -> dict:
        return parse_prometheus(self.get("/v1/metrics").decode("utf-8"))

    def peak_rss_mib(self) -> float:
        return tree_peak_rss_mib(self.pid)

    def close(self, timeout: float = 30.0) -> None:
        if self.proc is None:
            return
        tree = process_tree(self.proc.pid) if self.proc.poll() is None else []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        # Grandchildren are not ours to reap: wait until each has exited
        # (a zombie no longer reports VmHWM).
        deadline = time.monotonic() + timeout
        while any(vmhwm_kib(p) is not None for p in tree):
            if time.monotonic() > deadline:
                break
            time.sleep(0.02)
        if self._log is not None:
            self._log.close()
        self.proc = None


def stop_children() -> None:
    """Stop and reap every child process still running.

    Opening a shared-memory segment makes ``multiprocessing`` start a
    resource-tracker child, which would otherwise outlive the run; it is
    asked to stop first, anything else left is killed.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()
    for pid in children_of(os.getpid()):
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


# -- reproducibility record -----------------------------------------------
def blas_record() -> dict:
    """BLAS vendor/version as NumPy was built, plus the thread setting."""
    import numpy as np

    record = {"vendor": "unknown", "version": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record = {"vendor": blas.get("name", "unknown"), "version": blas.get("version", "unknown")}
    except (TypeError, KeyError):
        pass
    threads = None
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var):
            threads = f"{var}={os.environ[var]}"
            break
    record["threads"] = threads or f"library default (nproc={os.cpu_count()})"
    return record


def environment_record() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "blas": blas_record(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }
