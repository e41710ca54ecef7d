"""Golden wire-protocol fixtures: the JSON forms are frozen on disk.

Every ``repro.api`` protocol kind has a canonical payload checked in
under ``tests/golden/``. These tests fail loudly when an encoder's
output for a fixed object no longer matches its golden file — the
signal that a wire-format change happened. Additive changes (new
optional fields) are allowed *deliberately*: bump
``repro.api.protocol.CODEC_REVISION``, regenerate the fixtures, and
review the diff. Renames/retypes/removals require a ``SCHEMA_VERSION``
bump instead.

Regenerate with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden.py

then inspect ``git diff tests/golden/`` before committing.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.api import protocol
from repro.api.requests import RepairRequest, ValidateRequest
from repro.baselines.base import BatchVerdict
from repro.core.repair import RepairSummary
from repro.core.thresholds import DatasetDecisionRule, ThresholdCalibration
from repro.core.validator import ValidationReport
from repro.experiments.reporting import ResultTable
from repro.monitor import ColumnDrift, DriftAlert, MonitorSnapshot
from repro.runtime.service import ServiceStats
from repro.rules import RuleOutcome, RuleReport, RuleSet
from repro.runtime.streaming import PartialReport, StreamSummary

GOLDEN_DIR = Path(__file__).parent / "golden"

BREAKAGE_HINT = (
    "\n\nThe wire encoding of {name!r} changed. If this is intentional and "
    "additive, bump CODEC_REVISION and regenerate the goldens "
    "(REPRO_REGEN_GOLDEN=1); if it renames/retypes/removes fields, it is a "
    "schema-breaking change and needs a SCHEMA_VERSION bump."
)


def canonical(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# deterministic sample objects, one per protocol kind
# ---------------------------------------------------------------------------
def sample_report() -> ValidationReport:
    return ValidationReport(
        sample_errors=np.array([0.5, 3.0, 0.25, 0.125], dtype=np.float64),
        cell_errors=np.array(
            [[0.25, 0.25], [5.0, 1.0], [0.125, 0.125], [0.0625, 0.0625]], dtype=np.float64
        ),
        row_flags=np.array([False, True, False, False]),
        cell_flags=np.array([[False, False], [True, False], [False, False], [False, False]]),
        threshold=1.5,
        flagged_fraction=0.25,
        is_problematic=True,
        feature_names=["a", "b"],
    )


def sample_partial() -> PartialReport:
    return PartialReport(
        offset=8,
        n_rows=3,
        sample_errors=np.array([0.5, 2.0, 0.25], dtype=np.float64),
        row_flags=np.array([False, True, False]),
        cell_rows=np.array([1], dtype=np.int64),
        cell_cols=np.array([0], dtype=np.int64),
        cell_errors=np.array([[0.25, 0.25], [3.0, 1.0], [0.125, 0.125]], dtype=np.float64),
        cell_flags=np.array([[False, False], [True, False], [False, False]]),
        timestamp=1700000000.5,
    )


def sample_stream_summary() -> StreamSummary:
    return StreamSummary(
        n_rows=4096,
        n_chunks=4,
        n_flagged=12,
        flagged_rows=np.array([7, 1030, 2050], dtype=np.int64),
        threshold=1.5,
        flagged_fraction=0.0029296875,
        is_problematic=False,
        flagged_cells_by_column={"a": 8, "b": 4},
        mean_sample_error=0.125,
        max_sample_error=6.5,
        first_timestamp=1700000000.0,
        last_timestamp=1700000360.0,
    )


def sample_monitor_snapshot() -> MonitorSnapshot:
    return MonitorSnapshot(
        window_capacity=32,
        window_chunks=4,
        window_rows=4096,
        total_observations=40,
        total_rows=40960,
        total_alerts=2,
        first_timestamp=1700000000.0,
        last_timestamp=1700000600.0,
        flag_rate_ewma=0.125,
        flag_rate_center=0.05,
        flag_rate_limit=0.0625,
        flag_rate_alarm=True,
        psi_threshold=0.25,
        js_threshold=0.1,
        columns=[
            ColumnDrift(name="a", kind="numeric", psi=0.5, js=0.25, drifted=True),
            ColumnDrift(name="b", kind="categorical", psi=0.0625, js=0.03125, drifted=False),
        ],
        alerts=[sample_drift_alert()],
    )


def sample_drift_alert() -> DriftAlert:
    return DriftAlert(
        metric="psi",
        column="a",
        value=0.5,
        threshold=0.25,
        message="column 'a' drifted: psi=0.5000 exceeds 0.2500 over 4096 window rows",
        timestamp=1700000300.0,
    )


def sample_ruleset() -> RuleSet:
    return RuleSet.from_payload(
        {
            "name": "golden-checks",
            "revision": 3,
            "rules": [
                {"id": "a-range", "severity": "error",
                 "predicate": {"type": "range", "column": "a", "min": 0, "max": 10}},
                {"id": "b-known", "severity": "warn",
                 "predicate": {"type": "in_set", "column": "b", "values": ["lo", "hi"]}},
                {"id": "a-unique", "severity": "info",
                 "predicate": {"type": "unique", "column": "a"}},
            ],
        }
    )


def sample_rule_report() -> RuleReport:
    return RuleReport(
        n_rows=4,
        feature_names=["a", "b"],
        cell_rows=np.array([1, 1, 3], dtype=np.int64),
        cell_cols=np.array([0, 1, 0], dtype=np.int64),
        cell_severity=np.array([2, 1, 0], dtype=np.int64),
        outcomes=[
            RuleOutcome(rule_id="a-range", scope="column", severity="error",
                        columns=("a",), n_cells=1, n_rows=1),
            RuleOutcome(rule_id="b-known", scope="column", severity="warn",
                        columns=("b",), n_cells=1, n_rows=1),
            RuleOutcome(rule_id="a-unique", scope="table", severity="info",
                        columns=("a",), n_cells=1, n_rows=1),
        ],
    )


def sample_fused_report() -> ValidationReport:
    report = sample_report()
    report.rule_report = sample_rule_report()
    return report


def build_cases() -> dict:
    """name → (payload, decode-then-reencode fn or None)."""
    report = sample_report()
    return {
        "validation_report_dense": (
            protocol.report_to_dict(report, errors="dense"),
            lambda p: protocol.report_to_dict(protocol.report_from_dict(p), errors="dense"),
        ),
        "validation_report_sparse": (
            protocol.report_to_dict(report, errors="sparse"),
            lambda p: protocol.report_to_dict(protocol.report_from_dict(p), errors="sparse"),
        ),
        "validation_report_none": (
            protocol.report_to_dict(report, errors="none"),
            lambda p: protocol.report_to_dict(protocol.report_from_dict(p), errors="none"),
        ),
        "validation_report_rules": (
            # fused form: the GNN payload plus the additive rule_report key
            protocol.report_to_dict(sample_fused_report(), errors="dense"),
            lambda p: protocol.report_to_dict(protocol.report_from_dict(p), errors="dense"),
        ),
        "rule_set": (
            protocol.rule_set_to_dict(sample_ruleset()),
            lambda p: protocol.rule_set_to_dict(protocol.rule_set_from_dict(p)),
        ),
        "rule_report": (
            protocol.rule_report_to_dict(sample_rule_report()),
            lambda p: protocol.rule_report_to_dict(protocol.rule_report_from_dict(p)),
        ),
        "verdict_summary": (protocol.summary_dict(report), None),
        "batch_verdict": (
            protocol.verdict_to_dict(
                BatchVerdict(
                    is_problematic=True,
                    flagged_rows=np.array([1, 3], dtype=np.int64),
                    score=0.5,
                    details={"threshold": 1.5, "note": "golden"},
                )
            ),
            lambda p: protocol.verdict_to_dict(protocol.verdict_from_dict(p)),
        ),
        "repair_summary": (
            protocol.repair_summary_to_dict(
                RepairSummary(n_rows_touched=2, n_cells_repaired=3, repairs_by_column={"a": 2, "b": 1})
            ),
            lambda p: protocol.repair_summary_to_dict(protocol.repair_summary_from_dict(p)),
        ),
        "partial_report": (
            protocol.partial_report_to_dict(sample_partial()),
            lambda p: protocol.partial_report_to_dict(protocol.partial_report_from_dict(p)),
        ),
        "stream_summary": (
            protocol.stream_summary_to_dict(sample_stream_summary()),
            lambda p: protocol.stream_summary_to_dict(protocol.stream_summary_from_dict(p)),
        ),
        "fold_context": (
            protocol.fold_context_to_dict(
                {
                    "threshold": 1.5,
                    "rule": DatasetDecisionRule(percentile=95.0, n_multiplier=1.2),
                    "feature_names": ["a", "b"],
                    "rules": sample_ruleset(),
                }
            ),
            lambda p: protocol.fold_context_to_dict(protocol.fold_context_from_dict(p)),
        ),
        "threshold_calibration": (
            protocol.calibration_to_dict(
                ThresholdCalibration(
                    threshold=1.5, percentile=95.0, clean_mean=0.25,
                    clean_p50=0.125, clean_max=2.0, n_samples=500,
                )
            ),
            lambda p: protocol.calibration_to_dict(protocol.calibration_from_dict(p)),
        ),
        "service_stats": (
            protocol.service_stats_to_dict(
                ServiceStats(
                    registered=2, resident=1, loads=3, evictions=1, hits=9,
                    validations=12, repairs=2, rows_validated=4096,
                    pipelines={
                        "hotel": {
                            "resident": True, "pinned": False, "hits": 9,
                            "source": "models/hotel.npz", "loads": 3,
                            "validations": 12, "repairs": 2, "rows_validated": 4096,
                        }
                    },
                )
            ),
            lambda p: protocol.service_stats_to_dict(protocol.service_stats_from_dict(p)),
        ),
        "monitor_snapshot": (
            protocol.monitor_snapshot_to_dict(sample_monitor_snapshot()),
            lambda p: protocol.monitor_snapshot_to_dict(protocol.monitor_snapshot_from_dict(p)),
        ),
        "drift_alert": (
            protocol.drift_alert_to_dict(sample_drift_alert()),
            lambda p: protocol.drift_alert_to_dict(protocol.drift_alert_from_dict(p)),
        ),
        "result_table": (
            protocol.result_table_to_dict(
                ResultTable("Golden", ["metric", "value"], rows=[["f1", 0.875]], notes=["note"])
            ),
            lambda p: protocol.result_table_to_dict(protocol.result_table_from_dict(p)),
        ),
        "validate_request": (
            ValidateRequest(
                records=[{"a": 0.5, "b": "lo"}, {"a": None, "b": "hi"}],
                pipeline="hotel",
                include_errors=True,
            ).to_dict(),
            lambda p: ValidateRequest.from_dict(p).to_dict(),
        ),
        "repair_request": (
            RepairRequest(
                records=[{"a": 0.5, "b": "lo"}],
                pipeline="hotel",
                iterations=2,
                include_errors=False,
            ).to_dict(),
            lambda p: RepairRequest.from_dict(p).to_dict(),
        ),
    }


CASES = build_cases()


@pytest.fixture(scope="module", autouse=True)
def regenerate_if_requested():
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        for name, (payload, _) in CASES.items():
            (GOLDEN_DIR / f"{name}.json").write_text(canonical(payload))


@pytest.mark.parametrize("name", sorted(CASES))
def test_encoding_matches_golden(name):
    payload, _ = CASES[name]
    golden_path = GOLDEN_DIR / f"{name}.json"
    assert golden_path.exists(), (
        f"missing golden fixture {golden_path}; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    assert canonical(payload) == golden_path.read_text(), BREAKAGE_HINT.format(name=name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_decodes_and_reencodes_identically(name):
    payload, roundtrip = CASES[name]
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    if roundtrip is None:
        pytest.skip("encode-only kind")
    assert roundtrip(golden) == golden, BREAKAGE_HINT.format(name=name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_envelope_is_version_gated(name):
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert golden["schema_version"] == protocol.SCHEMA_VERSION
    assert "kind" in golden
    from repro.exceptions import ProtocolError

    tampered = dict(golden, schema_version=protocol.SCHEMA_VERSION + 1)
    with pytest.raises(ProtocolError):
        protocol.check_envelope(tampered, golden["kind"])


def test_generic_dispatch_covers_every_decodable_golden():
    """``repro.api.from_dict`` must route every golden kind it claims."""
    for name, (payload, roundtrip) in CASES.items():
        if roundtrip is None or name == "validation_report_sparse" or name == "validation_report_none":
            continue
        decoded = protocol.from_dict(json.loads((GOLDEN_DIR / f"{name}.json").read_text()))
        assert decoded is not None, name
