"""Dynamic micro-batching request scheduler — the fat half of the gateway.

Model servers survive high request concurrency not by running one engine
call per connection but by **coalescing** many small requests into one
engine slab: the per-call fixed costs (Python dispatch, kernel warm-up,
BLAS setup) are paid once per *batch* instead of once per *request*, and
the engine's matmuls finally see batch dimensions they are efficient at.
The §3.2.1 decision rules are row-local except the batch-level verdict,
so a fused slab splits back into per-request reports **bit-identically**
(the invariant the differential suite pins): row-local fields are sliced
at the exact request row offsets and the batch verdict is recomputed from
each request's own rows.

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
* fused slabs execute on a small thread pool (the NumPy kernels release
  the GIL, so batches for different pipelines overlap on multicore);
* :meth:`close` **drains**: pending requests are dispatched immediately
  (no window wait) and in-flight batches complete before shutdown.

Single-request batches take the plain
:meth:`~repro.runtime.service.ValidationService.validate` path — under
low concurrency the scheduler adds one queue hop and nothing else.

:class:`~repro.serve.transport.AsyncGateway` always rides it, and so do
:meth:`ValidationService.submit`/``submit_many`` once it is attached via
:meth:`~repro.runtime.service.ValidationService.attach_scheduler` (the
gateway attaches its own).
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.validator import ValidationReport
from repro.data.table import Table
from repro.exceptions import AdmissionError, ReproError
from repro.utils.logging import get_logger

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "RequestScheduler",
    "SchedulerStats",
    "split_fused_report",
]

logger = get_logger("serve.scheduler")

#: coalesced-batch size histogram: upper bounds in requests/batch
#: (cumulative, Prometheus-style; the implicit last bucket is +Inf)
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)


def split_fused_report(
    fused: ValidationReport, spans: "list[tuple[int, int]]", rule
) -> "list[ValidationReport]":
    """Split one fused report back into per-request reports.

    ``spans`` are the ``[start, stop)`` row ranges the requests occupy in
    the fused slab. Row-local fields (errors, flags) are sliced views —
    bit-identical to validating each request alone, because every §3.2.1
    decision except the batch verdict is row-local. The batch-level
    verdict (``flagged_fraction`` / ``is_problematic``) is recomputed
    from each request's own rows via ``rule``, exactly as a solo validate
    would.
    """
    reports: list[ValidationReport] = []
    for start, stop in spans:
        row_flags = fused.row_flags[start:stop]
        fraction = float(row_flags.mean()) if row_flags.size else 0.0
        reports.append(
            ValidationReport(
                sample_errors=fused.sample_errors[start:stop],
                cell_errors=fused.cell_errors[start:stop],
                row_flags=row_flags,
                cell_flags=fused.cell_flags[start:stop],
                threshold=fused.threshold,
                flagged_fraction=fraction,
                is_problematic=rule.is_problematic(fraction),
                feature_names=fused.feature_names,
            )
        )
    return reports


@dataclass
class SchedulerStats:
    """Point-in-time scheduler counters + gauges (see ``/v1/metrics``)."""

    #: pending requests, per pipeline and summed
    queue_depths: dict[str, int] = field(default_factory=dict)
    queue_depth: int = 0
    #: batches currently executing on the slab pool
    in_flight: int = 0
    #: lifetime request counters
    submitted: int = 0
    rejected: int = 0
    completed: int = 0
    failed: int = 0
    #: lifetime batch counters
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
        :meth:`submit` raises :class:`AdmissionError`.
    qos_weights:
        Pipeline name → weight. When several pipelines have dispatchable
        batches, the one with the highest ``weight × effective-wait``
        goes first; unlisted pipelines weigh 1.0.
    slab_workers:
        Threads executing fused slabs (default: up to 4). The kernels
        release the GIL, so slabs genuinely overlap.
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
        slab_workers: int | None = None,
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
        workers = (
            min(4, os.cpu_count() or 1) if slab_workers is None else max(1, int(slab_workers))
        )
        self._executor = ThreadPoolExecutor(workers, thread_name_prefix="repro-slab")
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
            if self._closed:
                raise ReproError("request scheduler is closed")
            queue = self._queues.setdefault(name, deque())
            if len(queue) >= self.max_queue_depth:
                self._rejected += 1
                raise AdmissionError(
                    f"pipeline {name!r} has {len(queue)} requests queued "
                    f"(limit {self.max_queue_depth}); retry after the queue drains",
                    retry_after=self._retry_after_locked(),
                )
            queue.append(_Pending(table, future, self._clock()))
            self._submitted += 1
            self._cv.notify()
        return future

    def submit_many(
        self, requests: "list[tuple[str, Table]]"
    ) -> "list[Future[ValidationReport]]":
        """Enqueue many (pipeline, table) pairs; one future each."""
        return [self.submit(name, table) for name, table in requests]

    def _retry_after_locked(self) -> float:
        # A conservative drain hint: every queued slab's worth of rows
        # costs at least one window, and batches already dispatched to
        # slab threads occupy workers ahead of the queue — a retry
        # cannot land before they finish, so in-flight slabs count
        # toward the estimate too. Transports round this up to RFC
        # whole seconds for the Retry-After header.
        backlog = sum(len(q) for q in self._queues.values())
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
            self._executor.submit(self._run_batch, name, batch)

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
            with self._cv:
                self._in_flight -= 1
                self._batches += 1
                self._rows += sum(p.n_rows for p in batch)
                self._failed += failed
                self._completed += len(batch) - failed
                self._observe_batch_size(len(batch))
                self._cv.notify_all()

    def _observe_batch_size(self, size: int) -> None:
        for i, bound in enumerate(BATCH_SIZE_BUCKETS):
            if size <= bound:
                self._hist[i] += 1
        self._hist[-1] += 1  # +Inf

    def _validate_batch(self, name: str, batch: "list[_Pending]") -> "list[ValidationReport]":
        """Run one coalesced batch; returns per-request reports in order.

        Single-request batches take the service's ordinary validate path
        — identical semantics, no concat. Fused slabs preprocess and run
        the engine exactly once; rule plans are evaluated per request
        slice so batch-scoped predicates (``unique``) keep per-request
        semantics; the drift monitor observes the fused matrix once
        (same rows, same flags — one histogram pass instead of N).
        """
        if len(batch) == 1:
            return [self.service.validate(name, batch[0].table)]
        fused = Table.concat([p.table for p in batch])
        validator = self.service.get(name)._require_validator()
        matrix, report = validator.validate_with_matrix(fused)
        spans: list[tuple[int, int]] = []
        offset = 0
        for pending in batch:
            spans.append((offset, offset + pending.n_rows))
            offset += pending.n_rows
        reports = split_fused_report(report, spans, validator.rule)
        plan = self.service.rule_plan_for(name)
        if plan is not None:
            from repro.rules import apply_rules

            reports = [
                apply_rules(sub, matrix[start:stop], plan)
                for sub, (start, stop) in zip(reports, spans)
            ]
        self.service.count_validation(name, fused.n_rows, validations=len(batch))
        self.service.observe_validation(name, matrix, report)
        return reports

    # -- introspection -----------------------------------------------------
    def stats_snapshot(self) -> SchedulerStats:
        with self._cv:
            hist = {
                bound: self._hist[i] for i, bound in enumerate(BATCH_SIZE_BUCKETS)
            }
            return SchedulerStats(
                queue_depths={n: len(q) for n, q in self._queues.items() if q},
                queue_depth=sum(len(q) for q in self._queues.values()),
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
        immediately — the batch window no longer applies — and in-flight
        slabs run to completion, so every previously-returned future
        resolves. ``drain=False`` fails queued requests with
        :class:`ReproError` instead (in-flight slabs still complete).
        """
        with self._cv:
            if self._closed:
                drained_already = True
            else:
                drained_already = False
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
        if drained_already:
            return
        self._dispatcher.join(timeout)
        if self._dispatcher.is_alive():  # pragma: no cover - defensive
            logger.warning("scheduler dispatcher did not drain within %ss", timeout)
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "RequestScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
