"""Exact JSON round-trips for every object of the repro.api protocol.

Every payload goes through the full wire path — ``to_dict`` →
``json.dumps`` → ``json.loads`` → ``from_dict`` — and must come back
bit-for-bit, NumPy dtypes included.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import (
    SCHEMA_VERSION,
    RepairRequest,
    ValidateRequest,
    from_dict,
    render_summary,
    to_dict,
)
from repro.baselines.base import BatchVerdict
from repro.core.repair import RepairSummary
from repro.core.thresholds import ThresholdCalibration
from repro.core.validator import ValidationReport
from repro.data import ColumnKind, ColumnSpec, Table, TableSchema
from repro.exceptions import ProtocolError, SchemaError
from repro.experiments.reporting import ResultTable
from repro.runtime.service import ServiceStats
from repro.runtime.streaming import PartialReport, StreamSummary


def wire(payload: dict) -> dict:
    """The full JSON wire path."""
    return json.loads(json.dumps(payload))


def assert_array_identical(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual, expected)


@pytest.fixture
def report() -> ValidationReport:
    rng = np.random.default_rng(42)
    n_rows, n_features = 50, 6
    cell_errors = rng.random((n_rows, n_features))
    sample_errors = cell_errors.mean(axis=1)
    row_flags = sample_errors > 0.55
    cell_flags = (cell_errors > 0.9) & row_flags[:, None]
    return ValidationReport(
        sample_errors=sample_errors,
        cell_errors=cell_errors,
        row_flags=row_flags,
        cell_flags=cell_flags,
        threshold=0.55,
        flagged_fraction=float(row_flags.mean()),
        is_problematic=True,
        feature_names=[f"f{i}" for i in range(n_features)],
    )


class TestValidationReportRoundTrip:
    def test_dense_is_bit_for_bit(self, report):
        clone = ValidationReport.from_dict(wire(report.to_dict()))
        assert_array_identical(clone.sample_errors, report.sample_errors)
        assert_array_identical(clone.cell_errors, report.cell_errors)
        assert_array_identical(clone.row_flags, report.row_flags)
        assert_array_identical(clone.cell_flags, report.cell_flags)
        assert clone.threshold == report.threshold
        assert clone.flagged_fraction == report.flagged_fraction
        assert clone.is_problematic == report.is_problematic
        assert clone.feature_names == report.feature_names

    def test_dense_survives_awkward_floats(self, report):
        # Shortest-repr decimals must survive: subnormals, huge values,
        # and values with no short decimal form.
        report.sample_errors[:4] = [5e-324, 1.7976931348623157e308, 0.1 + 0.2, np.pi]
        clone = ValidationReport.from_dict(wire(report.to_dict()))
        assert_array_identical(clone.sample_errors, report.sample_errors)

    def test_sparse_keeps_flags_and_flagged_errors_exact(self, report):
        payload = wire(report.to_dict(errors="sparse"))
        clone = ValidationReport.from_dict(payload)
        assert_array_identical(clone.row_flags, report.row_flags)
        assert_array_identical(clone.cell_flags, report.cell_flags)
        assert clone.threshold == report.threshold
        assert clone.is_problematic == report.is_problematic
        flagged = report.row_flags
        np.testing.assert_array_equal(clone.sample_errors[flagged], report.sample_errors[flagged])
        np.testing.assert_array_equal(
            clone.cell_errors[report.cell_flags], report.cell_errors[report.cell_flags]
        )
        assert (clone.cell_errors[~report.cell_flags] == 0.0).all()

    def test_sparse_payload_is_small(self, report):
        # Sparse size tracks the damage, not the table: the dense form of
        # the same report must be much larger.
        sparse = len(json.dumps(report.to_dict(errors="sparse")))
        dense = len(json.dumps(report.to_dict()))
        assert sparse < dense / 3

    def test_errors_none_mode(self, report):
        clone = ValidationReport.from_dict(wire(report.to_dict(errors="none")))
        assert_array_identical(clone.row_flags, report.row_flags)
        assert (clone.cell_errors == 0.0).all()

    def test_unknown_errors_mode_rejected(self, report):
        with pytest.raises(ProtocolError):
            report.to_dict(errors="bogus")

    def test_tampered_errors_mode_rejected_on_decode(self, report):
        payload = report.to_dict()
        payload["errors"] = "bogus"
        with pytest.raises(ProtocolError, match="errors mode"):
            ValidationReport.from_dict(payload)
        del payload["errors"]
        with pytest.raises(ProtocolError, match="errors mode"):
            ValidationReport.from_dict(payload)


class TestEnvelopeGating:
    def test_schema_version_mismatch_rejected(self, report):
        payload = report.to_dict()
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ProtocolError, match="schema_version"):
            ValidationReport.from_dict(payload)

    def test_missing_schema_version_rejected(self, report):
        payload = report.to_dict()
        del payload["schema_version"]
        with pytest.raises(ProtocolError):
            ValidationReport.from_dict(payload)

    def test_kind_mismatch_rejected(self, report):
        payload = report.to_dict()
        payload["kind"] = "repair_summary"
        with pytest.raises(ProtocolError, match="kind"):
            ValidationReport.from_dict(payload)

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError):
            from_dict([1, 2, 3])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError, match="unknown payload kind"):
            from_dict({"schema_version": SCHEMA_VERSION, "kind": "mystery"})


class TestOtherObjectsRoundTrip:
    def test_batch_verdict(self):
        verdict = BatchVerdict(
            is_problematic=True,
            flagged_rows=np.array([3, 7, 9], dtype=np.int64),
            score=0.125,
            details={"threshold": 0.5, "columns": ["a", "b"]},
        )
        clone = BatchVerdict.from_dict(wire(verdict.to_dict()))
        assert_array_identical(clone.flagged_rows, verdict.flagged_rows)
        assert clone.is_problematic and clone.score == verdict.score
        assert clone.details == verdict.details

    def test_verdict_summary_renderer(self):
        summary = {
            "schema_version": SCHEMA_VERSION,
            "kind": "verdict_summary",
            "n_rows": 200,
            "n_flagged": 14,
            "flagged_fraction": 0.07,
            "threshold": 0.123456,
            "is_problematic": True,
        }
        verdict = BatchVerdict(is_problematic=True, details={"summary": summary})
        assert verdict.summary() == render_summary(summary)
        assert "14/200 rows flagged" in verdict.summary()
        # Baselines without the structured payload still render something.
        plain = BatchVerdict(is_problematic=False, score=0.25)
        assert "OK" in plain.summary()

    def test_repair_summary(self):
        summary = RepairSummary(n_rows_touched=4, n_cells_repaired=9, repairs_by_column={"a": 5, "b": 4})
        clone = RepairSummary.from_dict(wire(summary.to_dict()))
        assert clone == summary

    def test_threshold_calibration(self):
        calibration = ThresholdCalibration(
            threshold=0.1 + 0.2, percentile=95.0, clean_mean=0.1,
            clean_p50=0.09, clean_max=0.4, n_samples=1234,
        )
        clone = ThresholdCalibration.from_dict(wire(calibration.to_dict()))
        assert clone == calibration

    def test_partial_report_dense_and_bounded(self):
        rng = np.random.default_rng(1)
        n, f = 30, 4
        cell_errors = rng.random((n, f))
        cell_flags = cell_errors > 0.8
        rows, cols = np.nonzero(cell_flags)
        for keep in (True, False):
            partial = PartialReport(
                offset=60,
                n_rows=n,
                sample_errors=cell_errors.mean(axis=1),
                row_flags=cell_flags.any(axis=1),
                cell_rows=rows,
                cell_cols=cols,
                cell_errors=cell_errors if keep else None,
                cell_flags=cell_flags if keep else None,
            )
            clone = PartialReport.from_dict(wire(partial.to_dict()))
            assert clone.offset == partial.offset and clone.n_rows == partial.n_rows
            assert_array_identical(clone.sample_errors, partial.sample_errors)
            assert_array_identical(clone.row_flags, partial.row_flags)
            assert_array_identical(clone.cell_rows, partial.cell_rows)
            assert_array_identical(clone.cell_cols, partial.cell_cols)
            if keep:
                assert_array_identical(clone.cell_errors, partial.cell_errors)
                assert_array_identical(clone.cell_flags, partial.cell_flags)
            else:
                assert clone.cell_errors is None and clone.cell_flags is None
            np.testing.assert_array_equal(clone.flagged_rows, partial.flagged_rows)

    def test_stream_summary(self):
        summary = StreamSummary(
            n_rows=1000, n_chunks=8, n_flagged=17,
            flagged_rows=np.arange(17, dtype=np.int64) * 3,
            threshold=0.5, flagged_fraction=0.017, is_problematic=False,
            flagged_cells_by_column={"x": 9, "y": 8},
            mean_sample_error=0.21, max_sample_error=3.5,
        )
        clone = StreamSummary.from_dict(wire(summary.to_dict()))
        assert_array_identical(clone.flagged_rows, summary.flagged_rows)
        assert clone.flagged_cells_by_column == summary.flagged_cells_by_column
        assert clone.summary() == summary.summary()

    def test_service_stats(self):
        stats = ServiceStats(
            registered=3, resident=2, loads=5, evictions=1, hits=40,
            validations=30, repairs=2, rows_validated=9000,
            pipelines={
                "hotel": {
                    "resident": True, "pinned": False, "hits": 40,
                    "source": "models/hotel.npz", "loads": 5,
                    "validations": 30, "repairs": 2, "rows_validated": 9000,
                }
            },
        )
        clone = ServiceStats.from_dict(wire(stats.to_dict()))
        assert clone == stats
        # A revision-5 peer that still runs shard pools may send the
        # optional ``pool_reaps`` counter; it decodes and is dropped.
        older = stats.to_dict()
        assert "pool_reaps" not in older
        older["pool_reaps"] = 3
        assert ServiceStats.from_dict(wire(older)) == stats

    def test_result_table(self):
        table = ResultTable("Table 1", ["method", "f1"], notes=["smoke scale"])
        table.add_row("dquag", np.float64(0.91))
        table.add_row("deequ", 0.77)
        clone = ResultTable.from_dict(wire(table.to_dict()))
        assert clone.title == table.title and clone.headers == table.headers
        assert clone.rows == [["dquag", 0.91], ["deequ", 0.77]]
        assert clone.render().splitlines()[0] == "Table 1"

    def test_result_table_nan_cells_become_rfc_json_null(self):
        # Missing cells are float('nan') in result tables; the payload
        # must still be strict RFC 8259 JSON (no NaN tokens).
        table = ResultTable("T", ["a"], rows=[[float("nan")], [np.float64("inf")]])
        payload = table.to_dict()
        json.dumps(payload, allow_nan=False)  # raises on NaN/Infinity
        assert ResultTable.from_dict(wire(payload)).rows == [[None], [None]]


class TestGenericDispatch:
    def test_round_trip_through_generic_entry_points(self, report):
        objects = [
            report,
            RepairSummary(1, 2, {"a": 2}),
            ThresholdCalibration(0.5, 95.0, 0.1, 0.09, 0.9, 100),
            StreamSummary(10, 1, 0, np.empty(0, dtype=np.int64), 0.5, 0.0, False),
        ]
        for obj in objects:
            clone = from_dict(wire(to_dict(obj)))
            assert type(clone) is type(obj)

    def test_unencodable_type_rejected(self):
        with pytest.raises(ProtocolError):
            to_dict(object())

    def test_requests_route_through_generic_from_dict(self):
        request = ValidateRequest(records=[{"x": 1.0}], pipeline="p")
        clone = from_dict(wire(request.to_dict()))
        assert isinstance(clone, ValidateRequest) and clone.pipeline == "p"


class TestRequests:
    def test_validate_request_round_trip(self):
        request = ValidateRequest(
            records=[{"x": 1.5, "c": "a"}, {"x": None, "c": None}],
            pipeline="hotel",
            include_errors=True,
        )
        clone = ValidateRequest.from_dict(wire(request.to_dict()))
        assert clone == request

    def test_repair_request_round_trip_and_validation(self):
        request = RepairRequest(records=[{"x": 1.0}], pipeline="p", iterations=3)
        clone = RepairRequest.from_dict(wire(request.to_dict()))
        assert clone == request
        with pytest.raises(ProtocolError):
            RepairRequest(records=[], iterations=0)

    def test_repair_iterations_read_strictly_on_every_form(self):
        records = [{"x": 1.0}]
        enveloped = RepairRequest(records=records).to_dict()
        forms = (
            lambda extra: RepairRequest.from_payload({"records": records, **extra}),
            lambda extra: RepairRequest.from_dict({**enveloped, **extra}),
            lambda extra: RepairRequest.from_options(extra),
        )
        for build in forms:
            assert build({"iterations": None}).iterations == 1  # null means absent
            assert build({"iterations": 3}).iterations == 3
            for bad in ("banana", [1], 2.9, True):
                with pytest.raises(ProtocolError, match="'iterations' must be an integer"):
                    build({"iterations": bad})

    def test_bare_payload_accepted_enveloped_gated(self):
        bare = ValidateRequest.from_payload({"records": [{"x": 1.0}]}, pipeline="p")
        assert bare.pipeline == "p" and not bare.include_errors
        with pytest.raises(ProtocolError):
            ValidateRequest.from_payload({"schema_version": 99, "records": []})
        with pytest.raises(ProtocolError):
            ValidateRequest.from_payload({"records": "not-a-list"})


class TestTableRecords:
    @pytest.fixture
    def schema(self) -> TableSchema:
        return TableSchema(
            [
                ColumnSpec("x", ColumnKind.NUMERIC, "driver"),
                ColumnSpec("c", ColumnKind.CATEGORICAL, "band", categories=("a", "b")),
            ]
        )

    def test_round_trip_preserves_values_and_missingness(self, schema):
        table = Table(schema, {"x": [1.5, float("nan"), -2.25], "c": ["a", None, "b"]})
        records = wire({"records": table.to_records()})["records"]
        assert records[1] == {"x": None, "c": None}
        clone = Table.from_records(schema, records)
        np.testing.assert_array_equal(clone["x"][[0, 2]], table["x"][[0, 2]])
        assert np.isnan(clone["x"][1])
        assert list(clone["c"]) == ["a", None, "b"]

    def test_absent_fields_become_missing(self, schema):
        table = Table.from_records(schema, [{"x": 1.0}, {"c": "b"}])
        assert np.isnan(table["x"][1]) and table["c"][0] is None

    def test_unknown_fields_rejected(self, schema):
        with pytest.raises(SchemaError, match="typo"):
            Table.from_records(schema, [{"x": 1.0, "typo": 2.0}])

    def test_empty_records_make_empty_table(self, schema):
        table = Table.from_records(schema, [])
        assert table.n_rows == 0 and table.to_records() == []
