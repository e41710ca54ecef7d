"""Dynamic micro-batching request scheduler — the fat half of the gateway.

Model servers survive high request concurrency not by running one engine
call per connection but by **coalescing** many small requests into one
engine slab: the per-call fixed costs (Python dispatch, kernel warm-up,
BLAS setup) are paid once per *batch* instead of once per *request*, and
the engine's matmuls finally see batch dimensions they are efficient at.
A slab is one call of the validation core,
:meth:`StreamingValidator.validate_many
<repro.runtime.streaming.StreamingValidator.validate_many>`: one engine
pass, cut back at the exact request row offsets into per-request reports.
The §3.2.1 decision rules are row-local except the batch-level verdict,
which the core computes from each request's own rows, so every report is
**bit-identical** to validating that request alone (the invariant the
differential suite pins).

:class:`RequestScheduler` is that coalescing layer:

* requests enter per-pipeline **bounded queues** via :meth:`submit`
  (admission control: a full queue raises
  :class:`~repro.exceptions.AdmissionError`, which transports map to
  HTTP 429 + ``Retry-After`` — backpressure instead of unbounded latency);
* a dispatcher thread composes batches under a **latency budget**: a
  request waits at most ``batch_window_ms`` for co-batchable traffic,
  and a batch closes early at ``max_batch_rows``;
* pipelines compete by **QoS weight** (weighted-by-waiting-time: a
  weight-2 pipeline is served like one that has waited twice as long);
* fused slabs execute on the process's
  :func:`~repro.runtime.engine.compute_pool`, so batches for different
  pipelines overlap, and the engine's fan-out claims its idle threads;
* calls that never coalesce (a repair, a stream chunk) are admitted by
  :meth:`submit_job` and go to the pool at once, with no window;
* :meth:`close` **drains**: pending requests are dispatched immediately
  (no window wait) and in-flight batches and jobs complete first.

A single-request batch is the core's one-shot case, exactly what
:meth:`~repro.runtime.service.ValidationService.validate` runs — under
low concurrency the scheduler adds one queue hop and nothing else.

It is the one request queue of a serving process: each
:class:`~repro.serve.transport.AsyncGateway` builds and closes its own,
and the service it runs on dispatches nothing itself.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro.core.validator import ValidationReport
from repro.data.table import Table
from repro.exceptions import AdmissionError, ReproError
from repro.runtime.engine import compute_pool
from repro.utils.logging import get_logger

__all__ = ["BATCH_SIZE_BUCKETS", "RequestScheduler", "SchedulerStats"]

logger = get_logger("serve.scheduler")

#: coalesced-batch size histogram: upper bounds in requests/batch
#: (cumulative, Prometheus-style; the implicit last bucket is +Inf)
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)


@dataclass
class SchedulerStats:
    """Point-in-time scheduler counters + gauges (see ``/v1/metrics``)."""

    #: pending requests (jobs until they start), per pipeline and summed
    queue_depths: dict[str, int] = field(default_factory=dict)
    queue_depth: int = 0
    #: batches dispatched to the compute pool and jobs admitted to it
    in_flight: int = 0
    #: lifetime request counters
    submitted: int = 0
    rejected: int = 0
    completed: int = 0
    failed: int = 0
    #: lifetime batch counters (a job is a batch of one)
    batches: int = 0
    rows: int = 0
    #: cumulative batch-size histogram, bucket upper bound → batches with
    #: size <= bound (last entry is the +Inf bucket == ``batches``)
    batch_size_hist: dict[int, int] = field(default_factory=dict)
    #: configuration echoes, so one scrape shows the knobs in force
    batch_window_ms: float = 0.0
    max_batch_rows: int = 0
    max_queue_depth: int = 0

    @property
    def fill_ratio(self) -> float:
        """Mean slab occupancy: rows dispatched / (batches × max_batch_rows)."""
        if self.batches == 0 or self.max_batch_rows == 0:
            return 0.0
        return self.rows / (self.batches * self.max_batch_rows)

    @property
    def mean_batch_size(self) -> float:
        """Mean coalesced requests per dispatched batch."""
        return 0.0 if self.batches == 0 else self.completed_or_failed / self.batches

    @property
    def completed_or_failed(self) -> int:
        return self.completed + self.failed

    def to_dict(self) -> dict:
        return {
            "queue_depth": self.queue_depth,
            "queue_depths": dict(self.queue_depths),
            "in_flight": self.in_flight,
            "submitted": self.submitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "failed": self.failed,
            "batches": self.batches,
            "rows": self.rows,
            "batch_size_hist": {str(k): v for k, v in self.batch_size_hist.items()},
            "fill_ratio": self.fill_ratio,
            "mean_batch_size": self.mean_batch_size,
            "batch_window_ms": self.batch_window_ms,
            "max_batch_rows": self.max_batch_rows,
            "max_queue_depth": self.max_queue_depth,
        }


class _Pending:
    """One enqueued validate request awaiting its batch."""

    __slots__ = ("table", "future", "enqueued_at", "n_rows")

    def __init__(self, table: Table, future: "Future[ValidationReport]", enqueued_at: float):
        self.table = table
        self.future = future
        self.enqueued_at = enqueued_at
        self.n_rows = table.n_rows


class RequestScheduler:
    """Coalesce per-pipeline validate requests into fused engine slabs.

    Parameters
    ----------
    service:
        The :class:`~repro.runtime.service.ValidationService` slabs run
        on. Counters and the drift monitor see coalesced traffic exactly
        as they would per-request traffic (same validation/row counts).
    batch_window_ms:
        Latency budget: how long the oldest queued request may wait for
        co-batchable traffic before its batch dispatches anyway.
    max_batch_rows:
        Row ceiling per fused slab; a batch closes early when the next
        request would overflow it (a single oversized request still
        dispatches, alone).
    max_queue_depth:
        Admission bound, in pending requests per pipeline; beyond it
        :meth:`submit` and :meth:`submit_job` raise :class:`AdmissionError`.
    qos_weights:
        Pipeline name → weight. When several pipelines have dispatchable
        batches, the one with the highest ``weight × effective-wait``
        goes first; unlisted pipelines weigh 1.0.
    clock:
        Injectable monotonic clock (tests).
    """

    def __init__(
        self,
        service,
        batch_window_ms: float = 2.0,
        max_batch_rows: int = 8192,
        max_queue_depth: int = 1024,
        qos_weights: "dict[str, float] | None" = None,
        clock=time.monotonic,
    ) -> None:
        if batch_window_ms < 0:
            raise ValueError(f"batch_window_ms must be >= 0, got {batch_window_ms}")
        if max_batch_rows < 1:
            raise ValueError(f"max_batch_rows must be positive, got {max_batch_rows}")
        if max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be positive, got {max_queue_depth}")
        for name, weight in (qos_weights or {}).items():
            if not float(weight) > 0:
                raise ValueError(f"QoS weight for {name!r} must be positive, got {weight}")
        self.service = service
        self.batch_window = batch_window_ms / 1000.0
        self.max_batch_rows = int(max_batch_rows)
        self.max_queue_depth = int(max_queue_depth)
        self.qos_weights = {name: float(w) for name, w in (qos_weights or {}).items()}
        self._clock = clock
        self._cv = threading.Condition()
        self._queues: "dict[str, deque[_Pending]]" = {}
        #: per pipeline: jobs admitted to the pool that have not started
        self._waiting: "Counter[str]" = Counter()
        self._closed = False
        # -- counters (all guarded by _cv) --
        self._in_flight = 0
        self._submitted = 0
        self._rejected = 0
        self._completed = 0
        self._failed = 0
        self._batches = 0
        self._rows = 0
        self._hist = [0] * (len(BATCH_SIZE_BUCKETS) + 1)
        self._dispatcher = threading.Thread(
            target=self._run, name="repro-scheduler", daemon=True
        )
        self._dispatcher.start()

    # -- admission ---------------------------------------------------------
    def submit(self, name: str, table: Table) -> "Future[ValidationReport]":
        """Enqueue one validate request; resolves to its own report.

        Raises :class:`AdmissionError` when the pipeline's queue is at
        ``max_queue_depth`` (the transports' 429), :class:`ReproError`
        after :meth:`close`.
        """
        future: "Future[ValidationReport]" = Future()
        with self._cv:
            self._admit_locked(name)
            self._queues.setdefault(name, deque()).append(_Pending(table, future, self._clock()))
            self._cv.notify()
        return future

    def submit_job(self, name: str, n_rows: int, fn, *args) -> Future:
        """Run ``fn(*args)`` on the pool now, admitted like :meth:`submit`:
        it is pending until it starts and a batch of ``n_rows`` once run."""
        future: Future = Future()
        with self._cv:
            self._admit_locked(name)
            # Under the lock: the job's start (which takes it) sees it counted.
            compute_pool().submit(self._run_job, name, n_rows, future, fn, args)
            self._waiting[name] += 1
            self._in_flight += 1
        return future

    def _admit_locked(self, name: str) -> None:
        if self._closed:
            raise ReproError("request scheduler is closed")
        depth = len(self._queues.get(name, ())) + self._waiting[name]
        if depth >= self.max_queue_depth:
            self._rejected += 1
            raise AdmissionError(
                f"pipeline {name!r} has {depth} requests queued "
                f"(limit {self.max_queue_depth}); retry after the queue drains",
                retry_after=self._retry_after_locked(),
            )
        self._submitted += 1

    def _retry_after_locked(self) -> float:
        # A conservative drain hint: every queued slab's worth of
        # requests costs at least one window, and batches and jobs on
        # the pool occupy its threads ahead of the queue — a retry
        # cannot land before they finish, so they count toward the
        # estimate too. Transports round this up to RFC whole seconds
        # for the Retry-After header.
        backlog = sum(len(q) for q in self._queues.values()) + sum(self._waiting.values())
        slabs = max(1, backlog // max(1, self.max_queue_depth // 4)) + self._in_flight
        return max(self.batch_window, 0.05) * slabs

    # -- dispatch loop -----------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cv:
                while True:
                    if self._closed and not any(self._queues.values()):
                        return
                    now = self._clock()
                    name = self._select_ready(now)
                    if name is not None:
                        batch = self._pop_batch_locked(name)
                        self._in_flight += 1
                        break
                    self._cv.wait(self._next_deadline_locked(now))
            compute_pool().submit(self._run_batch, name, batch)

    def _select_ready(self, now: float) -> str | None:
        """The highest-QoS-score pipeline whose batch should dispatch now.

        A pipeline is dispatchable when its oldest request has waited out
        the batch window, its queued rows already fill a slab, or the
        scheduler is draining. Score = weight × (wait + window), so at
        equal wait a higher QoS weight is served first, and no pipeline
        starves (its wait term grows without bound).
        """
        best: str | None = None
        best_score = -1.0
        for name, queue in self._queues.items():
            if not queue:
                continue
            waited = now - queue[0].enqueued_at
            rows = 0
            for pending in queue:
                rows += pending.n_rows
                if rows >= self.max_batch_rows:
                    break
            if not (self._closed or waited >= self.batch_window or rows >= self.max_batch_rows):
                continue
            score = self.qos_weights.get(name, 1.0) * (waited + self.batch_window + 1e-9)
            if score > best_score or (score == best_score and (best is None or name < best)):
                best, best_score = name, score
        return best

    def _next_deadline_locked(self, now: float) -> float | None:
        deadlines = [
            queue[0].enqueued_at + self.batch_window - now
            for queue in self._queues.values()
            if queue
        ]
        if not deadlines:
            return None
        return max(min(deadlines), 0.0)

    def _pop_batch_locked(self, name: str) -> "list[_Pending]":
        queue = self._queues[name]
        batch = [queue.popleft()]
        rows = batch[0].n_rows
        while queue and rows + queue[0].n_rows <= self.max_batch_rows:
            pending = queue.popleft()
            rows += pending.n_rows
            batch.append(pending)
        return batch

    # -- slab execution ----------------------------------------------------
    def _run_batch(self, name: str, batch: "list[_Pending]") -> None:
        failed = 0
        try:
            try:
                reports = self._validate_batch(name, batch)
            except Exception:
                if len(batch) == 1:
                    raise
                # One poisoned request must not fail its batch-mates:
                # fall back to per-request validation, so exactly the
                # offending request(s) carry the error.
                reports = None
            if reports is None:
                for pending in batch:
                    try:
                        report = self.service.validate(name, pending.table)
                    except Exception as exc:
                        failed += 1
                        pending.future.set_exception(exc)
                    else:
                        pending.future.set_result(report)
            else:
                for pending, report in zip(batch, reports):
                    pending.future.set_result(report)
        except Exception as exc:
            for pending in batch:
                if not pending.future.done():
                    failed += 1
                    pending.future.set_exception(exc)
        finally:
            self._finish(len(batch), sum(p.n_rows for p in batch), failed)

    def _run_job(self, name: str, n_rows: int, future: Future, fn, args) -> None:
        with self._cv:
            self._waiting[name] -= 1
        failed = 0
        try:
            if future.set_running_or_notify_cancel():  # False: its caller left
                future.set_result(fn(*args))
        except Exception as exc:
            failed = 1
            future.set_exception(exc)
        finally:
            self._finish(1, n_rows, failed)

    def _finish(self, size: int, n_rows: int, failed: int) -> None:
        """Count one batch of ``size`` requests that left the pool."""
        with self._cv:
            self._in_flight -= 1
            self._batches += 1
            self._rows += n_rows
            self._failed += failed
            self._completed += size - failed
            for i, bound in enumerate(BATCH_SIZE_BUCKETS):
                if size <= bound:
                    self._hist[i] += 1
            self._hist[-1] += 1  # +Inf
            self._cv.notify_all()

    def _validate_batch(self, name: str, batch: "list[_Pending]") -> "list[ValidationReport]":
        """Run one coalesced batch; returns per-request reports in order.

        One :meth:`~repro.runtime.streaming.StreamingValidator.validate_many`
        call: the slab is preprocessed and run through the engine once,
        rule plans are evaluated per request so batch-scoped predicates
        (``unique``) keep per-request semantics, and the drift monitor
        observes the fused matrix once (same rows, same flags — one
        histogram pass instead of N).
        """
        reports = self.service.validator_for(name).validate_many([p.table for p in batch])
        self.service.count_validation(
            name, sum(p.n_rows for p in batch), validations=len(batch)
        )
        return reports

    # -- introspection -----------------------------------------------------
    def stats_snapshot(self) -> SchedulerStats:
        with self._cv:
            hist = {
                bound: self._hist[i] for i, bound in enumerate(BATCH_SIZE_BUCKETS)
            }
            # Counter addition keeps the positive depths only.
            depths = Counter({n: len(q) for n, q in self._queues.items()}) + self._waiting
            return SchedulerStats(
                queue_depths=dict(depths),
                queue_depth=sum(depths.values()),
                in_flight=self._in_flight,
                submitted=self._submitted,
                rejected=self._rejected,
                completed=self._completed,
                failed=self._failed,
                batches=self._batches,
                rows=self._rows,
                batch_size_hist=hist,
                batch_window_ms=self.batch_window * 1000.0,
                max_batch_rows=self.max_batch_rows,
                max_queue_depth=self.max_queue_depth,
            )

    # -- lifecycle ---------------------------------------------------------
    def close(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Stop accepting work and shut the dispatcher down.

        With ``drain=True`` (default) every queued request is dispatched
        immediately — the batch window no longer applies — so every
        previously-returned future resolves; ``drain=False`` fails queued
        requests with :class:`ReproError` instead. Either way it returns
        once every in-flight slab and job has finished.
        """
        with self._cv:
            if self._closed:
                return
            self._closed = True
            if not drain:
                for queue in self._queues.values():
                    while queue:
                        pending = queue.popleft()
                        self._failed += 1
                        pending.future.set_exception(
                            ReproError("request scheduler closed before dispatch")
                        )
            self._cv.notify_all()
        self._dispatcher.join(timeout)
        if self._dispatcher.is_alive():  # pragma: no cover - defensive
            logger.warning("scheduler dispatcher did not drain within %ss", timeout)
        with self._cv:
            self._cv.wait_for(lambda: not self._in_flight)

    def __enter__(self) -> "RequestScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
