"""Drift monitoring: scores, baselines, the monitor, and its wiring
through pipeline, service, and gateway.

The acceptance bar from the monitoring PR: a table drawn from a shifted
distribution raises a DriftAlert visible through
``GET /v1/pipelines/{name}/monitor`` and ``/v1/metrics``, while
in-distribution streams stay quiet.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import DQuaG, DQuaGConfig
from repro.data import ColumnKind, ColumnSpec, Table, TableSchema
from repro.exceptions import GatewayError, ReproError
from repro.monitor import (
    DriftAlert,
    DriftMonitor,
    EwmaChart,
    MonitorBaseline,
    MonitorSnapshot,
    jensen_shannon_divergence,
    population_stability_index,
    render_prometheus,
)
from repro.runtime import ValidationService
from repro.runtime.streaming import StreamingValidator
from repro.serve import AsyncGateway, Client
from repro.serve.scheduler import RequestScheduler


def make_schema() -> TableSchema:
    return TableSchema(
        [
            ColumnSpec("x", ColumnKind.NUMERIC, "driver"),
            ColumnSpec("y", ColumnKind.NUMERIC, "2x + noise"),
            ColumnSpec("z", ColumnKind.NUMERIC, "1 - x + noise"),
            ColumnSpec("c", ColumnKind.CATEGORICAL, "band of x", categories=("lo", "hi")),
        ]
    )


def make_table(n: int, seed: int, shift: float = 0.0) -> Table:
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.1, 0.9, n)
    return Table(
        make_schema(),
        {
            "x": x + shift,
            "y": 2.0 * (x + shift) + rng.normal(0, 0.01, n),
            "z": 1.0 - x + rng.normal(0, 0.01, n),
            "c": np.where(x > 0.5, "hi", "lo"),
        },
    )


@pytest.fixture(scope="module")
def fitted() -> DQuaG:
    config = DQuaGConfig(hidden_dim=16, epochs=6, batch_size=64)
    return DQuaG(config).fit(make_table(500, seed=0), rng=0)


# ---------------------------------------------------------------------------
# drift math
# ---------------------------------------------------------------------------
class TestDriftScores:
    def test_identical_histograms_score_zero(self):
        counts = np.array([40, 30, 20, 10])
        assert population_stability_index(counts, counts) == pytest.approx(0.0, abs=1e-9)
        assert jensen_shannon_divergence(counts, counts) == pytest.approx(0.0, abs=1e-9)

    def test_shifted_mass_scores_high(self):
        expected = np.array([50, 30, 15, 5])
        observed = np.array([5, 15, 30, 50])
        assert population_stability_index(expected, observed) > 0.5
        assert jensen_shannon_divergence(expected, observed) > 0.1

    def test_js_is_symmetric_and_bounded(self):
        a, b = np.array([100, 0, 0]), np.array([0, 0, 100])
        forward = jensen_shannon_divergence(a, b)
        assert forward == pytest.approx(jensen_shannon_divergence(b, a))
        assert 0.0 <= forward <= 1.0

    def test_empty_observation_is_not_drift(self):
        expected = np.array([10, 20, 30])
        assert population_stability_index(expected, np.zeros(3)) == 0.0
        assert jensen_shannon_divergence(expected, np.zeros(3)) == 0.0

    def test_empty_segments_do_not_blow_up(self):
        score = population_stability_index(np.array([100, 0]), np.array([0, 100]))
        assert np.isfinite(score) and score > 1.0


class TestEwmaChart:
    def test_starts_at_center_without_alarm(self):
        chart = EwmaChart(center=0.05)
        assert chart.value == 0.05 and not chart.alarm

    def test_sustained_high_rate_alarms(self):
        chart = EwmaChart(center=0.05, alpha=0.3)
        fired = [chart.observe(0.4, n_rows=500) for _ in range(6)]
        assert fired[-1] and chart.value > chart.limit

    def test_on_target_rate_stays_quiet(self):
        chart = EwmaChart(center=0.05, alpha=0.3)
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert not chart.observe(rng.binomial(500, 0.05) / 500, n_rows=500)

    def test_reset(self):
        chart = EwmaChart(center=0.05)
        chart.observe(0.9, 100)
        chart.reset()
        assert chart.value == 0.05 and chart.n_observations == 0 and not chart.alarm

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            EwmaChart(center=0.05, alpha=0.0)
        with pytest.raises(ValueError):
            EwmaChart(center=0.05, sigma_limit=-1.0)


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------
class TestMonitorBaseline:
    def test_from_matrix_structure(self, fitted):
        baseline = fitted.monitor_baseline
        assert baseline.column_names == ["x", "y", "z", "c"]
        assert baseline.n_rows == 500
        categorical = baseline.columns[3]
        assert categorical.labels[0] == "<missing>" and categorical.labels[-1] == "<unknown>"
        assert "lo" in categorical.labels and "hi" in categorical.labels
        for column in baseline.columns:
            assert int(column.counts.sum()) == 500

    def test_binning_accounts_for_every_value(self, fitted):
        baseline = fitted.monitor_baseline
        matrix = fitted.preprocessor.transform(make_table(333, seed=9))
        for counts in baseline.bin_matrix(matrix):
            assert int(counts.sum()) == 333

    def test_sentinel_and_unknown_land_in_outer_segments(self, fitted):
        baseline = fitted.monitor_baseline
        categorical = baseline.columns[3]
        counts = categorical.bin(np.array([-1.0, -1.0, 1.5]))
        assert counts[0] == 2      # missing sentinel
        assert counts[-1] == 1     # unknown placement (1 + margin)

    def test_metadata_round_trip(self, fitted):
        baseline = fitted.monitor_baseline
        clone = MonitorBaseline.from_metadata(
            json.loads(json.dumps(baseline.to_metadata()))
        )
        assert clone.n_rows == baseline.n_rows
        assert clone.flag_rate == baseline.flag_rate
        for ours, theirs in zip(baseline.columns, clone.columns):
            np.testing.assert_array_equal(ours.edges, theirs.edges)
            np.testing.assert_array_equal(ours.counts, theirs.counts)
            assert ours.labels == theirs.labels

    def test_shape_mismatch_rejected(self, fitted):
        with pytest.raises(ReproError):
            fitted.monitor_baseline.bin_matrix(np.zeros((10, 99)))

    def test_zero_rows_rejected(self, fitted):
        with pytest.raises(ReproError):
            MonitorBaseline.from_matrix(fitted.preprocessor, np.empty((0, 4)), flag_rate=0.05)

    def test_missing_edge_follows_configured_sentinel(self):
        # A non-default sentinel (e.g. -0.1) must still land in the
        # <missing> segment, not inside the first category's.
        from repro.data.preprocess import TablePreprocessor

        table = make_table(200, seed=7)
        preprocessor = TablePreprocessor(table.schema, missing_sentinel=-0.1).fit(table)
        baseline = MonitorBaseline.from_matrix(
            preprocessor, preprocessor.transform(table), flag_rate=0.05
        )
        categorical = baseline.columns[3]
        counts = categorical.bin(np.array([-0.1, -0.1, 0.0]))
        assert counts[0] == 2, "sentinel values must hit the <missing> segment"
        assert counts[0] + counts[1] == 3

    def test_constant_column_detects_upward_and_downward_drift(self, fitted):
        # Quantile edges collapse on a constant column; the baseline must
        # still bracket the constant so shifts in either direction move
        # probability mass into a different segment.
        matrix = np.column_stack(
            [
                np.full(500, 0.5),
                np.linspace(0.0, 1.0, 500),
                np.linspace(0.0, 1.0, 500),
                np.zeros(500),
            ]
        )
        baseline = MonitorBaseline.from_matrix(fitted.preprocessor, matrix, flag_rate=0.05)
        constant = baseline.columns[0]
        at = constant.bin(np.full(100, 0.5))
        up = constant.bin(np.full(100, 0.9))
        down = constant.bin(np.full(100, 0.1))
        assert int(np.argmax(at)) not in (int(np.argmax(up)), int(np.argmax(down)))
        assert population_stability_index(constant.counts, up) > 0.25
        assert population_stability_index(constant.counts, down) > 0.25


# ---------------------------------------------------------------------------
# the monitor
# ---------------------------------------------------------------------------
class TestDriftMonitor:
    def test_clean_traffic_stays_quiet(self, fitted):
        monitor = fitted.monitor(window_chunks=8)
        for i in range(6):
            monitor.observe_table(make_table(200, seed=10 + i), n_flagged=9)
        snapshot = monitor.snapshot()
        assert not snapshot.has_drift
        assert snapshot.alerts == []
        assert snapshot.window_rows == 1200 and snapshot.total_rows == 1200

    def test_shifted_distribution_raises_alert(self, fitted):
        monitor = fitted.monitor(window_chunks=8)
        for i in range(6):
            monitor.observe_table(make_table(200, seed=30 + i, shift=0.5))
        snapshot = monitor.snapshot()
        assert snapshot.has_drift
        assert "x" in snapshot.drifted_columns
        metrics = {alert.metric for alert in snapshot.alerts}
        assert metrics & {"psi", "js"}

    def test_alerts_are_edge_triggered(self, fitted):
        monitor = fitted.monitor(window_chunks=32)
        for i in range(10):
            monitor.observe_table(make_table(200, seed=50 + i, shift=0.5))
        column_alerts = [a for a in monitor.alerts() if a.column == "x"]
        assert len(column_alerts) == 1  # staying drifted does not re-alert

    def test_window_recovers_after_drift_passes(self, fitted):
        monitor = fitted.monitor(window_chunks=3)
        for i in range(3):
            monitor.observe_table(make_table(200, seed=70 + i, shift=0.5))
        assert monitor.snapshot().has_drift
        # Clean chunks push the shifted ones out of the rolling window.
        for i in range(3):
            monitor.observe_table(make_table(200, seed=80 + i), n_flagged=9)
        snapshot = monitor.snapshot()
        assert not snapshot.drifted_columns
        assert snapshot.total_alerts >= 1  # history is retained

    def test_flag_rate_alarm_via_observe_flags(self, fitted):
        monitor = fitted.monitor(window_chunks=8, ewma_alpha=0.4)
        for _ in range(5):
            monitor.observe_flags(n_flagged=150, n_rows=500)
        snapshot = monitor.snapshot()
        assert snapshot.flag_rate_alarm
        assert any(alert.metric == "flag_rate" for alert in snapshot.alerts)

    def test_min_window_rows_gates_column_alerts(self, fitted):
        monitor = fitted.monitor(window_chunks=8, min_window_rows=10_000)
        for i in range(4):
            monitor.observe_table(make_table(200, seed=90 + i, shift=0.5))
        assert not monitor.snapshot().drifted_columns

    def test_injectable_clock_and_timestamps(self, fitted):
        ticks = iter([100.0, 200.0, 300.0])
        monitor = fitted.monitor(window_chunks=8, clock=lambda: next(ticks))
        for i in range(3):
            monitor.observe_table(make_table(50, seed=100 + i))
        snapshot = monitor.snapshot()
        assert snapshot.first_timestamp == 100.0 and snapshot.last_timestamp == 300.0

    def test_zero_row_observation_is_ignored(self, fitted):
        monitor = fitted.monitor()
        monitor.observe_table(make_table(200, seed=1).take(np.array([], dtype=int)))
        assert monitor.snapshot().total_observations == 0

    def test_observe_partial_with_and_without_matrix(self, fitted):
        streaming = fitted.streaming_validator(chunk_size=128, clock=lambda: 7.0)
        matrix = fitted.preprocessor.transform(make_table(100, seed=6))
        partial = streaming.validate_chunk(matrix)
        monitor = fitted.monitor(window_chunks=4)
        monitor.observe_partial(partial, matrix=matrix)
        snapshot = monitor.snapshot()
        assert snapshot.total_rows == 100 and snapshot.last_timestamp == 7.0
        # Without the matrix only the flag-rate chart advances.
        flags_only = fitted.monitor(window_chunks=4)
        flags_only.observe_partial(partial)
        snapshot = flags_only.snapshot()
        assert snapshot.total_rows == 0
        assert snapshot.flag_rate_ewma != snapshot.flag_rate_center

    def test_observe_matrix_without_preprocessor(self, fitted):
        monitor = DriftMonitor(fitted.monitor_baseline)
        matrix = fitted.preprocessor.transform(make_table(100, seed=2))
        monitor.observe_matrix(matrix, n_flagged=3)
        assert monitor.snapshot().total_rows == 100
        with pytest.raises(ReproError):
            monitor.observe_table(make_table(10, seed=3))

    def test_reset_clears_state_but_keeps_baseline(self, fitted):
        monitor = fitted.monitor(window_chunks=4)
        for i in range(4):
            monitor.observe_table(make_table(200, seed=110 + i, shift=0.5))
        monitor.reset()
        snapshot = monitor.snapshot()
        assert snapshot.total_rows == 0 and snapshot.alerts == []
        assert monitor.baseline is fitted.monitor_baseline

    def test_snapshot_wire_round_trip(self, fitted):
        monitor = fitted.monitor(window_chunks=4, clock=lambda: 42.0)
        for i in range(4):
            monitor.observe_table(make_table(200, seed=120 + i, shift=0.5))
        snapshot = monitor.snapshot()
        payload = json.loads(json.dumps(snapshot.to_dict()))
        clone = MonitorSnapshot.from_dict(payload)
        assert clone.to_dict() == snapshot.to_dict()
        assert clone.drifted_columns == snapshot.drifted_columns
        for alert in clone.alerts:
            assert isinstance(alert, DriftAlert)

    def test_generic_protocol_dispatch(self, fitted):
        from repro.api import from_dict, to_dict

        monitor = fitted.monitor(window_chunks=2, clock=lambda: 1.0)
        monitor.observe_table(make_table(100, seed=5))
        snapshot = monitor.snapshot()
        assert isinstance(from_dict(to_dict(snapshot)), MonitorSnapshot)
        alert = DriftAlert(metric="psi", column="x", value=0.4, threshold=0.25, message="m")
        assert from_dict(to_dict(alert)) == alert


# ---------------------------------------------------------------------------
# pipeline integration
# ---------------------------------------------------------------------------
class TestPipelineIntegration:
    def test_fit_builds_baseline(self, fitted):
        assert fitted.monitor_baseline is not None
        assert fitted.monitor_baseline.flag_rate == pytest.approx(0.05)

    def test_baseline_survives_save_load(self, fitted, tmp_path):
        archive = tmp_path / "weights.npz"
        fitted.save(archive)
        restored = DQuaG().load_weights(archive)
        assert restored.monitor_baseline is not None
        for ours, theirs in zip(
            fitted.monitor_baseline.columns, restored.monitor_baseline.columns
        ):
            np.testing.assert_array_equal(ours.counts, theirs.counts)
        # A restored pipeline monitors drift identically.
        monitor = restored.monitor(window_chunks=4)
        for i in range(4):
            monitor.observe_table(make_table(200, seed=130 + i, shift=0.5))
        assert monitor.snapshot().has_drift

    def test_monitor_without_baseline_raises(self, fitted, tmp_path):
        archive = tmp_path / "weights.npz"
        fitted.save(archive)
        restored = DQuaG().load_weights(archive)
        restored._monitor_baseline = None  # simulate a pre-monitoring archive
        with pytest.raises(ReproError, match="baseline"):
            restored.monitor()
        restored.fit_monitor_baseline(make_table(400, seed=140))
        assert restored.monitor() is not None

    def test_streaming_validator_feeds_monitor(self, fitted):
        monitor = fitted.monitor(window_chunks=16)
        streaming = fitted.streaming_validator(chunk_size=128, monitor=monitor)
        table = make_table(500, seed=150)
        summary = streaming.validate_table(table)
        snapshot = monitor.snapshot()
        assert snapshot.total_rows == 500
        assert snapshot.total_observations == summary.n_chunks

    def test_partial_timestamps_thread_through_fold(self, fitted):
        ticks = iter([10.0, 20.0, 30.0, 40.0])
        streaming = fitted.streaming_validator(chunk_size=128, clock=lambda: next(ticks))
        partials = list(
            streaming.iter_partials(
                fitted.preprocessor.transform_chunks(make_table(500, seed=160), 128)
            )
        )
        assert [p.timestamp for p in partials] == [10.0, 20.0, 30.0, 40.0]
        summary = streaming.fold(iter(partials))
        assert summary.first_timestamp == 10.0 and summary.last_timestamp == 40.0
        # Wire round-trip preserves the stamps exactly.
        clone = type(summary).from_dict(json.loads(json.dumps(summary.to_dict())))
        assert clone.first_timestamp == 10.0 and clone.last_timestamp == 40.0

    def test_unstamped_streams_stay_deterministic(self, fitted):
        streaming = fitted.streaming_validator(chunk_size=128)
        summary = streaming.validate_table(make_table(300, seed=170))
        assert summary.first_timestamp is None and summary.last_timestamp is None
        partial = streaming.validate_chunk(make_table(100, seed=171))
        assert partial.timestamp is None

    def test_codec_revision_1_payload_still_decodes(self, fitted):
        from repro.runtime.streaming import PartialReport, StreamSummary

        streaming = fitted.streaming_validator(chunk_size=128, clock=lambda: 5.0)
        partial = streaming.validate_chunk(make_table(64, seed=180))
        payload = partial.to_dict()
        del payload["timestamp"]  # what a revision-1 producer sends
        assert PartialReport.from_dict(payload).timestamp is None
        summary = streaming.validate_table(make_table(300, seed=181))
        summary_payload = summary.to_dict()
        del summary_payload["first_timestamp"]
        del summary_payload["last_timestamp"]
        decoded = StreamSummary.from_dict(summary_payload)
        assert decoded.first_timestamp is None and decoded.n_rows == 300


# ---------------------------------------------------------------------------
# service integration
# ---------------------------------------------------------------------------
class TestServiceMonitoring:
    @pytest.fixture()
    def service(self, fitted):
        with ValidationService(capacity=2) as service:
            service.add("demo", fitted)
            yield service

    def test_validate_feeds_monitor(self, service):
        service.validate("demo", make_table(300, seed=200))
        snapshot = service.monitor_snapshot("demo")
        assert snapshot.total_rows == 300 and snapshot.total_observations == 1

    def test_monitor_is_cached_per_generation(self, service, fitted):
        first = service.monitor_for("demo")
        assert service.monitor_for("demo") is first
        service.add("demo", fitted)  # re-add bumps the generation
        second = service.monitor_for("demo")
        assert second is not first  # the stale monitor is not resurrected

    def test_eviction_keeps_the_monitor(self, fitted, tmp_path):
        archive = tmp_path / "demo.npz"
        fitted.save(archive)
        with ValidationService(capacity=1) as service:
            service.register("a", archive)
            service.validate("a", make_table(100, seed=210))
            monitor = service.monitor_for("a")
            assert service.evict("a")
            assert service.monitor_for("a") is monitor
            assert monitor.snapshot().total_rows == 100

    def test_monitoring_disabled(self, fitted):
        with ValidationService(capacity=2, monitor_window=0) as service:
            service.add("demo", fitted)
            service.validate("demo", make_table(100, seed=220))
            assert service.monitor_for("demo") is None
            assert service.monitor_snapshot("demo") is None
            assert service.monitor_snapshots() == {}

    def test_stream_fallback_path_feeds_monitor(self, service, fitted):
        chunks = [make_table(128, seed=230 + i) for i in range(3)]
        summary = service.validator_for("demo").validate_stream(chunks)
        snapshot = service.monitor_snapshot("demo")
        assert snapshot.total_rows == summary.n_rows
        assert snapshot.total_observations == summary.n_chunks

    def test_snapshots_cover_only_live_monitors(self, service):
        assert service.monitor_snapshots() == {}
        service.validate("demo", make_table(100, seed=240))
        assert list(service.monitor_snapshots()) == ["demo"]


def one_chart_update(before: MonitorSnapshot, n_flagged: int, n_rows: int) -> tuple:
    """The flag-rate chart's (EWMA, limit) after ``before`` folds in one
    observation of ``n_flagged`` flagged rows out of ``n_rows``."""
    chart = EwmaChart(center=before.flag_rate_center)
    chart.value = before.flag_rate_ewma
    chart.observe(n_flagged / n_rows, n_rows)
    return chart.value, chart.limit


class TestMonitorHookContract:
    """What one call on each validate path adds to the pipeline monitor,
    and that a failing monitor never changes what a path returns."""

    @pytest.fixture(scope="class")
    def service(self, fitted):
        # One service for every case.
        with ValidationService(capacity=2) as service:
            service.add("demo", fitted)
            yield service

    @staticmethod
    def observed(service, call):
        """Run ``call``; return its result, the snapshot before it, and
        the observations and rows it added to the monitor."""
        before = service.monitor_snapshot("demo")
        result = call()
        after = service.monitor_snapshot("demo")
        added = (
            after.total_observations - before.total_observations,
            after.total_rows - before.total_rows,
        )
        return result, before, after, added

    def test_validate_observes_once(self, service):
        table = make_table(300, seed=400)
        report, before, after, added = self.observed(
            service, lambda: service.validate("demo", table)
        )
        assert added == (1, 300)
        assert (after.flag_rate_ewma, after.flag_rate_limit) == one_chart_update(
            before, report.n_flagged, 300
        )

    def test_coalesced_batch_observes_once(self, service):
        tables = [make_table(40 + 10 * i, seed=410 + i) for i in range(4)]

        def coalesced():
            with RequestScheduler(service, batch_window_ms=100.0) as scheduler:
                futures = [scheduler.submit("demo", table) for table in tables]
                reports = [future.result(timeout=30) for future in futures]
                return reports, scheduler.stats_snapshot().batches

        (reports, batches), before, after, added = self.observed(service, coalesced)
        assert batches == 1
        rows = sum(table.n_rows for table in tables)
        assert added == (1, rows)
        assert (after.flag_rate_ewma, after.flag_rate_limit) == one_chart_update(
            before, sum(report.n_flagged for report in reports), rows
        )

    def test_in_process_stream_observes_every_chunk(self, service):
        chunks = [make_table(128, seed=420 + i) for i in range(3)]
        summary, _, _, added = self.observed(
            service, lambda: service.validator_for("demo").validate_stream(chunks)
        )
        assert summary.n_chunks == 3
        assert added == (3, 3 * 128)

    def test_failing_monitor_changes_no_result(self, service, monkeypatch):
        table = make_table(300, seed=450)
        chunks = [make_table(128, seed=460 + i) for i in range(3)]

        def coalesced():
            with RequestScheduler(service, batch_window_ms=100.0) as scheduler:
                futures = [scheduler.submit("demo", t) for t in (table, chunks[0])]
                return [future.result(timeout=30).to_dict() for future in futures]

        paths = {
            "validate": lambda: service.validate("demo", table).to_dict(),
            "scheduler": coalesced,
            "stream": lambda: service.validator_for("demo").validate_stream(chunks).to_dict(),
        }
        monkeypatch.setattr(service, "monitor_window", 0)
        unmonitored = {name: path() for name, path in paths.items()}
        monkeypatch.undo()

        def broken(*args, **kwargs):
            raise RuntimeError("monitor down")

        monkeypatch.setattr(DriftMonitor, "observe_matrix", broken)
        monkeypatch.setattr(DriftMonitor, "observe_table", broken)
        assert service.monitor_for("demo") is not None
        assert {name: path() for name, path in paths.items()} == unmonitored


# ---------------------------------------------------------------------------
# gateway end-to-end (the acceptance criterion)
# ---------------------------------------------------------------------------
class TestGatewayMonitoring:
    @pytest.fixture(scope="class")
    def served(self, fitted):
        service = ValidationService(capacity=2)
        service.add("demo", fitted)
        with AsyncGateway(service, port=0) as gateway, Client(port=gateway.port) as client:
            yield gateway, client
        service.close()

    def test_drift_visible_through_monitor_and_metrics(self, served, fitted):
        _, client = served
        for i in range(4):
            client.validate("demo", make_table(200, seed=300 + i))
        snapshot = client.monitor("demo")
        assert not snapshot.has_drift  # in-distribution traffic stays quiet

        for i in range(6):
            client.validate("demo", make_table(200, seed=310 + i, shift=0.5))
        snapshot = client.monitor("demo")
        assert snapshot.has_drift
        assert snapshot.alerts, "shifted traffic must raise a DriftAlert"
        assert "x" in snapshot.drifted_columns

        text = client.metrics()
        assert 'repro_monitor_drift_detected{pipeline="demo"} 1' in text
        assert 'repro_monitor_column_drifted{pipeline="demo",column="x"} 1' in text
        assert 'repro_pipeline_validations_total{pipeline="demo"}' in text

    def test_monitor_unknown_pipeline_404(self, served):
        _, client = served
        with pytest.raises(GatewayError, match="404"):
            client.monitor("nope")

    def test_monitor_disabled_404(self, fitted):
        service = ValidationService(capacity=2, monitor_window=0)
        service.add("demo", fitted)
        with AsyncGateway(service, port=0) as gateway, Client(port=gateway.port) as client:
            with pytest.raises(GatewayError, match="no drift monitor"):
                client.monitor("demo")
        service.close()

    def test_streamed_chunks_feed_the_monitor(self, fitted):
        service = ValidationService(capacity=2)
        service.add("demo", fitted)
        with AsyncGateway(service, port=0) as gateway, Client(port=gateway.port) as client:
            chunks = [make_table(128, seed=320 + i) for i in range(3)]
            client.validate_stream("demo", chunks)
            snapshot = client.monitor("demo")
            assert snapshot.total_rows == 3 * 128
        service.close()


class TestPrometheusRendering:
    def test_label_escaping(self, fitted):
        monitor = fitted.monitor(window_chunks=2)
        monitor.observe_table(make_table(100, seed=400))
        from repro.runtime.service import ServiceStats

        stats = ServiceStats(
            registered=1, resident=1, loads=0, evictions=0, hits=1,
            validations=1, repairs=0, rows_validated=100,
            pipelines={'we"ird\n': {"validations": 1, "rows_validated": 100}},
        )
        text = render_prometheus(stats, {'we"ird\n': monitor.snapshot()})
        assert '\\"' in text and "\\n" in text
        # Prometheus text format: every non-comment line is NAME{...} VALUE.
        for line in text.strip().splitlines():
            if not line.startswith("#"):
                assert " " in line and line.split(" ")[-1] != ""
