"""Concurrency stress: the service under concurrent validates vs re-register/evict.

The PR-3 generation counters stopped a re-register() race from
resurrecting stale *weights*; drift monitors are keyed by the same
generations and must obey the same law. These tests hammer
``validate`` from four threads + ``stats_snapshot()`` +
``monitor_snapshot()`` against concurrent re-registration and eviction
and assert that

* no validation is ever lost or double-counted,
* nothing deadlocks (every join is time-bounded),
* a monitor from before a re-registration is never resurrected after it.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import DQuaG, DQuaGConfig
from repro.data import ColumnKind, ColumnSpec, Table, TableSchema
from repro.runtime import ValidationService

JOIN_TIMEOUT = 60.0


def make_table(n: int, seed: int) -> Table:
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.1, 0.9, n)
    schema = TableSchema(
        [
            ColumnSpec("x", ColumnKind.NUMERIC, "driver"),
            ColumnSpec("y", ColumnKind.NUMERIC, "2x + noise"),
            ColumnSpec("c", ColumnKind.CATEGORICAL, "band", categories=("lo", "hi")),
        ]
    )
    return Table(
        schema,
        {
            "x": x,
            "y": 2.0 * x + rng.normal(0, 0.01, n),
            "c": np.where(x > 0.5, "hi", "lo"),
        },
    )


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    config = DQuaGConfig(hidden_dim=8, epochs=2, batch_size=32, feature_embedding_dim=3)
    pipeline = DQuaG(config).fit(make_table(200, seed=0), rng=0)
    path = tmp_path_factory.mktemp("stress") / "pipeline.npz"
    pipeline.save(path)
    return path


class TestServiceStress:
    def test_counts_survive_reregister_and_evict_races(self, archive):
        n_submitters, batches_each, batch_rows = 4, 25, 50
        with ValidationService(capacity=2, monitor_window=8) as service:
            service.register("p", archive)
            stop = threading.Event()
            errors: list[BaseException] = []
            reports = []

            def submitter(worker: int) -> None:
                try:
                    for i in range(batches_each):
                        batch = make_table(batch_rows, seed=1000 * worker + i)
                        reports.append(service.validate("p", batch))
                except BaseException as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            def churner() -> None:
                try:
                    while not stop.is_set():
                        service.register("p", archive)  # same path, new generation
                        service.evict("p")
                except BaseException as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            def reader() -> None:
                try:
                    while not stop.is_set():
                        stats = service.stats_snapshot()
                        assert stats.validations >= 0
                        snapshot = service.monitor_snapshot("p")
                        if snapshot is not None:
                            assert snapshot.window_rows <= snapshot.total_rows
                except BaseException as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=submitter, args=(w,)) for w in range(n_submitters)
            ] + [threading.Thread(target=churner), threading.Thread(target=reader)]
            for thread in threads:
                thread.start()
            for thread in threads[:n_submitters]:
                thread.join(timeout=JOIN_TIMEOUT)
                assert not thread.is_alive(), "submitter deadlocked"
            stop.set()
            for thread in threads[n_submitters:]:
                thread.join(timeout=JOIN_TIMEOUT)
                assert not thread.is_alive(), "background thread deadlocked"

            assert not errors, errors
            assert len(reports) == n_submitters * batches_each

            stats = service.stats_snapshot()
            expected_rows = n_submitters * batches_each * batch_rows
            assert stats.validations == n_submitters * batches_each
            assert stats.rows_validated == expected_rows
            assert stats.pipelines["p"]["validations"] == n_submitters * batches_each
            assert stats.pipelines["p"]["rows_validated"] == expected_rows

    def test_reregister_never_resurrects_a_stale_monitor(self, archive):
        with ValidationService(capacity=2, monitor_window=8) as service:
            service.register("p", archive)
            service.validate("p", make_table(60, seed=1))
            before = service.monitor_for("p")
            assert before is not None and before.snapshot().total_rows == 60

            service.register("p", archive)
            after = service.monitor_for("p")
            assert after is not None and after is not before
            # The fresh monitor starts from zero — no stale counts leak in.
            assert after.snapshot().total_rows == 0
            service.validate("p", make_table(40, seed=2))
            assert service.monitor_for("p") is after
            assert after.snapshot().total_rows == 40
            # Late observations into the abandoned monitor are harmless:
            # nothing reads it anymore.
            before.observe_table(make_table(10, seed=3))
            assert service.monitor_for("p").snapshot().total_rows == 40

    def test_monitor_builds_race_to_one_winner(self, archive):
        """Concurrent first-touch builds converge on a single monitor."""
        with ValidationService(capacity=2, monitor_window=8) as service:
            service.register("p", archive)
            barrier = threading.Barrier(8)
            winners = []
            winners_lock = threading.Lock()

            def build() -> None:
                barrier.wait(timeout=JOIN_TIMEOUT)
                monitor = service.monitor_for("p")
                with winners_lock:
                    winners.append(monitor)

            threads = [threading.Thread(target=build) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=JOIN_TIMEOUT)
                assert not thread.is_alive(), "monitor build deadlocked"
            assert len(winners) == 8
            assert all(monitor is winners[0] for monitor in winners)

    def test_eviction_under_load_keeps_lifetime_counters(self, archive):
        with ValidationService(capacity=1, monitor_window=4) as service:
            service.register("p", archive)
            total = 0
            for i in range(10):
                batch = make_table(30, seed=200 + i)
                service.validate("p", batch)
                total += batch.n_rows
                service.evict("p")  # evict between every request
            stats = service.stats_snapshot()
            assert stats.pipelines["p"]["rows_validated"] == total
            # The monitor survives eviction (weights did not change).
            assert service.monitor_for("p").snapshot().total_rows == total
