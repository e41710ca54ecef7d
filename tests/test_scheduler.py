"""Unit tests for the dynamic micro-batching request scheduler.

The acceptance bar: a report resolved through a coalesced batch must be
**bit-identical** to the report ``ValidationService.validate`` returns
for the same table alone — flags, errors, threshold, and the
per-request batch verdict. Plus the scheduling contract itself:
admission control (bounded queues → :class:`AdmissionError`), QoS
weighting, drain-on-close, and the stats counters ``/v1/metrics``
exports.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future

import numpy as np
import pytest

from repro.exceptions import AdmissionError, ReproError
from repro.runtime import ValidationService
from repro.serve.scheduler import BATCH_SIZE_BUCKETS, RequestScheduler, _Pending
from tests.test_serve import fit_demo_pipeline, make_batch


@pytest.fixture(scope="module")
def demo():
    pipeline = fit_demo_pipeline()
    service = ValidationService(capacity=2)
    service.add("demo", pipeline)
    yield pipeline, service
    service.close()


def assert_reports_identical(a, b):
    np.testing.assert_array_equal(a.row_flags, b.row_flags)
    np.testing.assert_array_equal(a.cell_flags, b.cell_flags)
    np.testing.assert_array_equal(a.sample_errors, b.sample_errors)
    np.testing.assert_array_equal(a.cell_errors, b.cell_errors)
    assert a.threshold == b.threshold
    assert a.flagged_fraction == b.flagged_fraction
    assert a.is_problematic == b.is_problematic
    assert a.feature_names == b.feature_names


class TestCoalescingParity:
    def test_fused_reports_bit_identical_to_solo(self, demo):
        pipeline, service = demo
        tables = [make_batch(pipeline, 7 + i, seed=i, corrupt=i % 3) for i in range(10)]
        solo = [service.validate("demo", t) for t in tables]
        with RequestScheduler(service, batch_window_ms=25.0, max_batch_rows=10_000) as sched:
            futures = [sched.submit("demo", t) for t in tables]
            fused = [f.result(timeout=30) for f in futures]
            stats = sched.stats_snapshot()
        for a, b in zip(solo, fused):
            assert_reports_identical(a, b)
        # The point of the exercise: requests actually coalesced.
        assert stats.batches < len(tables)
        assert stats.completed == len(tables)

    def test_validate_many_recomputes_verdict_per_request(self, demo):
        pipeline, service = demo
        # One heavily corrupted request + one clean request: fused, the
        # batch verdict would smear; per request, each gets its own.
        dirty = make_batch(pipeline, 50, seed=1, corrupt=40)
        clean = make_batch(pipeline, 50, seed=2)
        parts = pipeline.streaming_validator().validate_many([dirty, clean])
        solo_dirty = pipeline.validate(dirty)
        solo_clean = pipeline.validate(clean)
        assert parts[0].flagged_fraction == solo_dirty.flagged_fraction
        assert parts[0].is_problematic == solo_dirty.is_problematic
        assert parts[1].flagged_fraction == solo_clean.flagged_fraction
        assert parts[1].is_problematic == solo_clean.is_problematic

    def test_singleton_batch_takes_plain_validate_path(self, demo):
        pipeline, service = demo
        table = make_batch(pipeline, 64, seed=9)
        solo = service.validate("demo", table)
        with RequestScheduler(service, batch_window_ms=0.0) as sched:
            report = sched.submit("demo", table).result(timeout=30)
        assert_reports_identical(solo, report)

    def test_unique_rule_stays_request_scoped(self, demo):
        pipeline, service = demo
        # 'unique' is a batch-scoped predicate: values duplicated *across*
        # two coalesced requests must not be flagged, because each request
        # alone contains no duplicates.
        service.set_rules("demo", {
            "rules": [{"id": "x-unique", "severity": "warn",
                       "predicate": {"type": "unique", "column": "x"}}],
        })
        try:
            table = make_batch(pipeline, 20, seed=3)
            solo = service.validate("demo", table)
            with RequestScheduler(service, batch_window_ms=25.0) as sched:
                # The same table twice: every x value duplicates across
                # requests, none within one.
                futures = [sched.submit("demo", table) for _ in range(2)]
                reports = [f.result(timeout=30) for f in futures]
                assert sched.stats_snapshot().batches == 1
            for report in reports:
                assert report.rule_report is not None
                assert report.rule_report.to_dict() == solo.rule_report.to_dict()
                assert_reports_identical(solo, report)
        finally:
            service.clear_rules("demo")

    def test_service_counters_see_per_request_traffic(self, demo):
        pipeline, service = demo
        before = service.stats_snapshot().pipelines["demo"]
        tables = [make_batch(pipeline, 10, seed=i) for i in range(4)]
        with RequestScheduler(service, batch_window_ms=25.0) as sched:
            for f in [sched.submit("demo", t) for t in tables]:
                f.result(timeout=30)
        after = service.stats_snapshot().pipelines["demo"]
        assert after["validations"] - before["validations"] == 4
        assert after["rows_validated"] - before["rows_validated"] == 40


class TestAdmission:
    def test_full_queue_raises_admission_error(self, demo):
        pipeline, service = demo
        table = make_batch(pipeline, 5, seed=0)
        # A huge window keeps requests parked in the queue, so the bound
        # is observable without racing the dispatcher.
        sched = RequestScheduler(
            service, batch_window_ms=60_000.0, max_queue_depth=2
        )
        try:
            first = sched.submit("demo", table)
            second = sched.submit("demo", table)
            with pytest.raises(AdmissionError) as excinfo:
                sched.submit("demo", table)
            assert excinfo.value.retry_after > 0
            assert sched.stats_snapshot().rejected == 1
        finally:
            sched.close()  # drain: the window stops applying
        assert first.result(timeout=5) is not None
        assert second.result(timeout=5) is not None

    def test_submit_after_close_raises(self, demo):
        pipeline, service = demo
        sched = RequestScheduler(service)
        sched.close()
        with pytest.raises(ReproError):
            sched.submit("demo", make_batch(pipeline, 3, seed=0))

    def test_close_without_drain_fails_queued_futures(self, demo):
        pipeline, service = demo
        table = make_batch(pipeline, 5, seed=0)
        sched = RequestScheduler(service, batch_window_ms=60_000.0)
        future = sched.submit("demo", table)
        sched.close(drain=False)
        with pytest.raises(ReproError):
            future.result(timeout=5)

    def test_retry_after_counts_in_flight_slabs(self, demo):
        """Bugfix pin: batches already on the compute pool occupy workers
        ahead of the queue, so the Retry-After hint must grow with
        ``_in_flight`` — a retry cannot land before they finish."""
        pipeline, service = demo
        sched = RequestScheduler(service, batch_window_ms=100.0, max_queue_depth=8)
        try:
            with sched._cv:
                idle = sched._retry_after_locked()
                sched._in_flight = 3
                busy = sched._retry_after_locked()
                sched._in_flight = 0
            assert idle >= sched.batch_window
            assert busy == pytest.approx(idle + 3 * max(sched.batch_window, 0.05))
        finally:
            sched.close()

    def test_row_ceiling_dispatches_early(self, demo):
        pipeline, service = demo
        # Two 20-row requests fill the 40-row slab well before the (long)
        # window expires: the batch must dispatch on the row trigger.
        sched = RequestScheduler(
            service, batch_window_ms=60_000.0, max_batch_rows=40
        )
        try:
            futures = [
                sched.submit("demo", make_batch(pipeline, 20, seed=i)) for i in range(2)
            ]
            for f in futures:
                assert f.result(timeout=10) is not None
            assert sched.stats_snapshot().batches == 1
        finally:
            sched.close()


class TestQoS:
    def _park(self, sched, name, table, enqueued_at):
        with sched._cv:
            sched._queues.setdefault(name, deque()).append(
                _Pending(table, Future(), enqueued_at)
            )

    def test_weight_breaks_equal_wait_ties(self, demo):
        pipeline, service = demo
        table = make_batch(pipeline, 4, seed=0)
        # The pinned clock keeps the live dispatcher seeing zero wait, so
        # the parked entries stay queued while _select_ready is probed.
        sched = RequestScheduler(
            service, batch_window_ms=60_000.0, qos_weights={"gold": 2.0},
            clock=lambda: 0.0,
        )
        try:
            self._park(sched, "bronze", table, enqueued_at=0.0)
            self._park(sched, "gold", table, enqueued_at=0.0)
            with sched._cv:
                # Both waited past the window (100s > 60s), both
                # dispatchable at equal wait; gold's weight doubles its
                # score and wins.
                assert sched._select_ready(now=100.0) == "gold"
        finally:
            sched.close(drain=False)

    def test_longer_wait_beats_weight(self, demo):
        pipeline, service = demo
        table = make_batch(pipeline, 4, seed=0)
        sched = RequestScheduler(
            service, batch_window_ms=1.0, qos_weights={"gold": 2.0},
            clock=lambda: 0.0,
        )
        try:
            # bronze has waited 10x gold's wait (plus the window term):
            # weight 2 cannot starve it.
            self._park(sched, "bronze", table, enqueued_at=0.0)
            self._park(sched, "gold", table, enqueued_at=90.0)
            with sched._cv:
                assert sched._select_ready(now=100.0) == "bronze"
        finally:
            sched.close(drain=False)


class TestStats:
    def test_batch_size_histogram_is_cumulative(self, demo):
        pipeline, service = demo
        tables = [make_batch(pipeline, 5, seed=i) for i in range(3)]
        with RequestScheduler(service, batch_window_ms=25.0) as sched:
            for f in [sched.submit("demo", t) for t in tables]:
                f.result(timeout=30)
            stats = sched.stats_snapshot()
        hist = stats.batch_size_hist
        assert sorted(hist) == sorted(BATCH_SIZE_BUCKETS)
        counts = [hist[bound] for bound in BATCH_SIZE_BUCKETS]
        assert counts == sorted(counts)  # cumulative: monotone in the bound
        assert counts[-1] == stats.batches
        assert 0.0 < stats.fill_ratio <= 1.0
        assert stats.mean_batch_size >= 1.0
        payload = stats.to_dict()
        assert payload["completed"] == 3
        assert payload["rejected"] == 0

    def test_poisoned_request_fails_alone(self, demo):
        import unittest.mock as mock

        pipeline, service = demo
        good = make_batch(pipeline, 5, seed=0)
        marker = make_batch(pipeline, 5, seed=1)
        original_validate = service.validate

        def flaky_validate(name, table):
            if table is marker:
                raise ReproError("poisoned request")
            return original_validate(name, table)

        sched = RequestScheduler(service, batch_window_ms=25.0)
        original_batch = sched._validate_batch

        def flaky_batch(name, batch):
            # Force the fused slab to fail so the per-request isolation
            # fallback runs; singletons keep the real path.
            if len(batch) > 1:
                raise ReproError("fused slab failed")
            return original_batch(name, batch)

        try:
            with mock.patch.object(service, "validate", side_effect=flaky_validate):
                with mock.patch.object(sched, "_validate_batch", side_effect=flaky_batch):
                    good_future, bad_future = [
                        sched.submit("demo", table) for table in (good, marker)
                    ]
                    report = good_future.result(timeout=30)
                    with pytest.raises(ReproError, match="poisoned request"):
                        bad_future.result(timeout=30)
            stats = sched.stats_snapshot()
        finally:
            sched.close()
        assert report.row_flags.shape == (5,)
        assert stats.failed == 1
        assert stats.completed == 1


class TestServiceIntegration:
    def test_concurrent_submitters_all_resolve(self, demo):
        pipeline, service = demo
        tables = [make_batch(pipeline, 8, seed=i) for i in range(24)]
        solo = [service.validate("demo", t) for t in tables]
        results: "list" = [None] * len(tables)
        with RequestScheduler(service, batch_window_ms=10.0) as sched:
            def worker(i):
                results[i] = sched.submit("demo", tables[i]).result(timeout=30)

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(tables))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        for a, b in zip(solo, results):
            assert_reports_identical(a, b)

    def test_jobs_beside_validates_leave_no_count_behind(self, demo):
        """Jobs and coalesced validates from more threads than CPUs, with
        a switch interval short enough to interleave every count update:
        each resolves to its solo report, and close() finds nothing
        pending or in flight (a lost update would hang it)."""
        import sys

        pipeline, service = demo
        tables = [make_batch(pipeline, 8, seed=i) for i in range(24)]
        solo = [service.validate("demo", t) for t in tables]
        results: "list" = [None] * len(tables)
        sched = RequestScheduler(service, batch_window_ms=1.0)

        def worker(i):
            if i % 2:
                job = sched.submit_job("demo", 8, service.validate, "demo", tables[i])
            else:
                job = sched.submit("demo", tables[i])
            results[i] = job.result(timeout=30)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(tables))]
            threads.append(threading.Thread(target=sched.close))
            for t in threads[:-1]:
                t.start()
            for t in threads[:-1]:
                t.join(timeout=60)
            threads[-1].start()
            threads[-1].join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(previous)
        for a, b in zip(solo, results):
            assert_reports_identical(a, b)
        stats = sched.stats_snapshot()
        assert (stats.queue_depth, stats.in_flight, stats.failed) == (0, 0, 0)
        assert stats.completed == len(tables)
