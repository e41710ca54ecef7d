"""Open- and closed-loop HTTP load generators over raw keep-alive connections.

``repro.serve.Client`` retries a 429 or 503 once without telling its
caller, which would hide refusals. These generators speak HTTP through
``http.client`` directly: every 429, 503, other error status, timeout
or reset is recorded as a failed request, and nothing is retried.

Each connection has its own thread. In the open loop a thread takes the
next request from the shared schedule, sleeps until it is due, sends it
and waits for the reply, so at most ``connections`` requests are in
flight and a request that finds every connection busy leaves late.
Latency is timed from the due time, which charges that wait to the
system. Separately, the oversleep of requests that were waited for
measures how late the generator itself ran, so a stalled generator is
not read as a slow server.

In the closed loop each connection sends its next request as soon as
the previous reply arrives, so the rate is the one the server sustains.
"""

from __future__ import annotations

import http.client
import math
import threading
import time
from dataclasses import dataclass

from perfbench.common import (
    MIN_BEYOND,
    lateness,
    median,
    open_loop_schedule,
    percentile,
    samples_beyond,
    supported_tail,
)

HEADERS = {"Content-Type": "application/json", "Connection": "keep-alive"}


@dataclass
class Sent:
    index: int
    body: int
    due: float
    sent: float
    done: float
    status: object  # HTTP status, or the exception name of a transport failure
    #: oversleep of a request the generator waited for; None when the
    #: request was already overdue (all connections were busy) or was
    #: sent by the closed loop
    oversleep: float | None
    response: bytes | None = None

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency(self) -> float:
        """Seconds from due time to reply; a failure never meets a limit."""
        return self.done - self.due if self.ok else math.inf


def _post(conn: http.client.HTTPConnection, path: str, body: bytes) -> tuple:
    """POST ``body`` once; returns ``(status, reply body)``. After a
    refusal or a transport failure the connection is closed, and the
    next request opens a fresh one."""
    try:
        conn.request("POST", path, body=body, headers=HEADERS)
        reply = conn.getresponse()
        data = reply.read()
    except (OSError, http.client.HTTPException) as exc:
        conn.close()
        return type(exc).__name__, None
    if reply.status != 200 or reply.will_close:
        conn.close()
    return reply.status, data


def _run_workers(worker, connections: int, limit: float) -> None:
    threads = [threading.Thread(target=worker, daemon=True) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=limit)
        if thread.is_alive():
            raise TimeoutError("load generator thread did not finish")


def run_open_loop(
    host: str,
    port: int,
    path: str,
    bodies: list,
    rate: float,
    duration: float,
    connections: int = 2,
    timeout: float = 10.0,
    keep_every: int = 0,
    first_body: int = 0,
) -> list:
    """Send ``bodies`` (cycled) at ``rate`` per second for ``duration``
    seconds; returns one :class:`Sent` per scheduled request. Replies of
    every ``keep_every``-th request are kept for output checks."""
    schedule = open_loop_schedule(rate, duration)
    lock = threading.Lock()
    cursor = [0]
    results: list = [None] * len(schedule)
    start = time.perf_counter() + 0.05

    def worker() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    if index >= len(schedule):
                        return
                    cursor[0] += 1
                due = start + schedule[index]
                now = time.perf_counter()
                oversleep = None
                if now < due:
                    time.sleep(due - now)
                    now = time.perf_counter()
                    oversleep = lateness(due, now)
                body = (first_body + index) % len(bodies)
                status, data = _post(conn, path, bodies[body])
                keep = status == 200 and keep_every and index % keep_every == 0
                results[index] = Sent(index, body, due, now, time.perf_counter(), status,
                                      oversleep, data if keep else None)
        finally:
            conn.close()

    _run_workers(worker, connections, duration + 4 * timeout + 30)
    return results


def run_closed_loop(
    host: str,
    port: int,
    path: str,
    bodies: list,
    duration: float,
    connections: int = 2,
    timeout: float = 10.0,
    keep_every: int = 0,
    first_body: int = 0,
) -> list:
    """Keep one request in flight on each of ``connections`` for
    ``duration`` seconds; returns one :class:`Sent` per request, in send
    order, each due when it was sent."""
    lock = threading.Lock()
    cursor = [0]
    results: list = []
    end = time.perf_counter() + duration

    def worker() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            while True:
                now = time.perf_counter()
                if now >= end:
                    return
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                body = (first_body + index) % len(bodies)
                status, data = _post(conn, path, bodies[body])
                keep = status == 200 and keep_every and index % keep_every == 0
                sent = Sent(index, body, now, now, time.perf_counter(), status, None,
                            data if keep else None)
                with lock:
                    results.append(sent)
        finally:
            conn.close()

    _run_workers(worker, connections, duration + 4 * timeout + 30)
    return sorted(results, key=lambda s: s.index)


def summarize_phase(segments: list, slo_s: float, rows_per_request: int) -> dict:
    """Latency percentiles, failures, SLO verdict and served rates of one
    phase, from the request lists of its contiguous ``segments``.

    The SLO holds when the p99 latency, with every failure counted as a
    miss, is within ``slo_s`` and no segment's backlog grows: the median
    send delay over a segment's last quarter stays within ``slo_s``.
    A p99 with fewer than ``MIN_BEYOND`` samples beyond it is close to
    the maximum, so it is not reported; the highest percentile that has
    them is, and the verdict is marked unsupported. Rates divide by the
    summed span of the segments, due time of the first request to reply
    of the last.
    """
    sent = [s for segment in segments for s in segment]
    latencies = [s.latency for s in sent]
    backlog_grows = False
    span = 0.0
    for segment in segments:
        delays = [s.sent - s.due for s in segment]
        backlog_grows |= median(delays[-max(1, len(delays) // 4):]) > slo_s
        span += max(s.done for s in segment) - min(s.due for s in segment)
    n = len(sent)
    p99 = percentile(latencies, 99.0)
    p99_supported = samples_beyond(n, 99.0) >= MIN_BEYOND
    tail = supported_tail(n)
    good = sum(1 for s in sent if s.ok and s.latency <= slo_s)
    served = sum(1 for s in sent if s.ok)
    return {
        "n": n,
        "failed": n - served,
        "rejected_429": sum(1 for s in sent if s.status == 429),
        "p50_ms": percentile(latencies, 50.0) * 1000.0,
        "p99_ms": p99 * 1000.0 if p99_supported else None,
        "p99_samples_beyond": samples_beyond(n, 99.0),
        "tail_percentile": tail,
        "tail_ms": percentile(latencies, tail) * 1000.0 if tail else None,
        "slo_misses": n - good,
        "backlog_grows": backlog_grows,
        "meets_slo": p99 <= slo_s and not backlog_grows,
        "slo_verdict_supported": p99_supported,
        "goodput_rows_per_s": good * rows_per_request / span,
        "served_rows_per_s": served * rows_per_request / span,
    }


def generator_lateness(sent: list) -> list:
    """Oversleep of every request the generator waited for, in seconds."""
    return [s.oversleep for s in sent if s.oversleep is not None]
