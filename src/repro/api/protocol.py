"""The versioned wire protocol: exact JSON forms of every outcome object.

Every result the framework produces — :class:`ValidationReport`,
:class:`BatchVerdict`, :class:`RepairSummary`, the streaming
:class:`PartialReport`/:class:`StreamSummary` pair,
:class:`ThresholdCalibration`, and :class:`ServiceStats` — serializes to
a plain-JSON dict and back under one ``schema_version``:

* **exactness** — the default (``errors="dense"``) encoding round-trips
  bit-for-bit, NumPy dtypes included: floats travel as shortest-repr
  decimals (which IEEE-754 doubles survive exactly), arrays carry their
  dtype and shape;
* **sparsity** — boolean flag masks are always encoded as coordinate
  lists, and ``errors="sparse"`` additionally restricts error values to
  the flagged coordinates, so a million-row report with a handful of bad
  cells serializes in kilobytes (unflagged errors decode as zeros; the
  flags, threshold, and verdict stay exact);
* **gating** — :func:`check_envelope` rejects payloads whose
  ``schema_version`` or ``kind`` does not match, raising
  :class:`~repro.exceptions.ProtocolError` instead of mis-decoding.

The outcome classes keep thin ``to_dict()``/``from_dict()`` methods that
delegate here; :func:`to_dict`/:func:`from_dict` at the bottom dispatch
generically on object type / payload kind.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BatchVerdict
from repro.core.repair import RepairSummary
from repro.core.thresholds import ThresholdCalibration
from repro.core.validator import ValidationReport
from repro.exceptions import ProtocolError
from repro.experiments.reporting import ResultTable
from repro.monitor.monitor import DriftAlert, MonitorSnapshot
from repro.rules import RulePartial, RuleReport, RuleSet
from repro.runtime.service import ServiceStats
from repro.runtime.streaming import PartialReport, StreamSummary

__all__ = [
    "SCHEMA_VERSION",
    "CODEC_REVISION",
    "envelope",
    "check_envelope",
    "encode_array",
    "decode_array",
    "encode_mask",
    "decode_mask",
    "jsonable",
    "report_to_dict",
    "report_from_dict",
    "summary_dict",
    "render_summary",
    "verdict_to_dict",
    "verdict_from_dict",
    "repair_summary_to_dict",
    "repair_summary_from_dict",
    "partial_report_to_dict",
    "partial_report_from_dict",
    "stream_summary_to_dict",
    "stream_summary_from_dict",
    "calibration_to_dict",
    "calibration_from_dict",
    "service_stats_to_dict",
    "service_stats_from_dict",
    "drift_alert_to_dict",
    "drift_alert_from_dict",
    "monitor_snapshot_to_dict",
    "monitor_snapshot_from_dict",
    "result_table_to_dict",
    "result_table_from_dict",
    "rule_set_to_dict",
    "rule_set_from_dict",
    "rule_report_to_dict",
    "rule_report_from_dict",
    "to_dict",
    "from_dict",
]

#: Version of the wire format. Bump on any incompatible change; decoders
#: reject other versions outright rather than guessing.
SCHEMA_VERSION = 1

#: Additive codec revision *within* SCHEMA_VERSION 1. Revisions add
#: optional fields that old decoders ignore and new decoders default
#: (``payload.get``) — never rename, retype, or remove a field (that
#: takes a SCHEMA_VERSION bump, gated by the golden fixtures in
#: ``tests/golden/``). History:
#: 1 — PR 2 initial protocol.
#: 2 — observation timestamps on partial_report (``timestamp``) and
#:     stream_summary (``first_timestamp``/``last_timestamp``); new
#:     monitor_snapshot / drift_alert kinds.
#: 3 — binary columnar frame codec (:mod:`repro.api.framing`,
#:     ``application/x-repro-frame``) as a negotiated transport beside
#:     JSON; new health fields ``wire_formats``/``frame_version``. The
#:     frame payload itself is versioned independently by
#:     :data:`repro.api.framing.FRAME_VERSION`.
#: 4 — declarative rule engine (:mod:`repro.rules`): new ``rule_set``
#:     and ``rule_report`` kinds; optional ``rule_report`` on
#:     validation_report / stream_summary and ``rule_partial`` on
#:     partial_report. The new keys are *omitted* (not null) when rules
#:     are off, so rules-off payloads stay byte-identical to revision 3.
#: 5 — shared-memory data plane + idle-pool reaping: optional
#:     ``pool_reaps`` on service_stats and ``shm_ingest`` on health,
#:     both omitted when zero/false so quiescent payloads stay
#:     byte-identical to revision 4. The shard pools are gone since:
#:     ``pool_reaps`` is no longer sent (a revision-5 payload at zero)
#:     and is ignored when an older peer sends it. So is the slab
#:     hand-off: ``shm_ingest`` is no longer sent (a revision-5 health
#:     payload with ingest off) and is ignored when an older gateway
#:     sends it.
CODEC_REVISION = 5


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------
def envelope(kind: str) -> dict:
    """A fresh payload stamped with the protocol version and its kind."""
    return {"schema_version": SCHEMA_VERSION, "kind": kind}


def check_envelope(payload: object, kind: str | None = None) -> dict:
    """Validate the version/kind gate of an incoming payload."""
    if not isinstance(payload, dict):
        raise ProtocolError(f"expected a JSON object, got {type(payload).__name__}")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ProtocolError(
            f"unsupported schema_version {version!r}; this build speaks {SCHEMA_VERSION}"
        )
    if kind is not None and payload.get("kind") != kind:
        raise ProtocolError(f"expected kind {kind!r}, got {payload.get('kind')!r}")
    return payload


# ---------------------------------------------------------------------------
# array / mask codecs
# ---------------------------------------------------------------------------
def encode_array(array: np.ndarray) -> dict:
    """Dense array → ``{dtype, shape, data}`` (exact, dtype-preserving)."""
    array = np.asarray(array)
    return {"dtype": str(array.dtype), "shape": list(array.shape), "data": array.ravel().tolist()}


def decode_array(payload: dict) -> np.ndarray:
    return np.asarray(payload["data"], dtype=np.dtype(payload["dtype"])).reshape(
        tuple(payload["shape"])
    )


def encode_mask(mask: np.ndarray) -> dict:
    """Boolean mask → coordinates of its True cells (exact and sparse)."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim == 1:
        return {"shape": [int(mask.shape[0])], "indices": np.flatnonzero(mask).tolist()}
    if mask.ndim == 2:
        rows, cols = np.nonzero(mask)
        return {"shape": list(mask.shape), "rows": rows.tolist(), "cols": cols.tolist()}
    raise ProtocolError(f"masks must be 1-D or 2-D, got shape {mask.shape}")


def decode_mask(payload: dict) -> np.ndarray:
    shape = tuple(payload["shape"])
    mask = np.zeros(shape, dtype=bool)
    if len(shape) == 1:
        mask[np.asarray(payload["indices"], dtype=np.int64)] = True
    else:
        mask[
            np.asarray(payload["rows"], dtype=np.int64),
            np.asarray(payload["cols"], dtype=np.int64),
        ] = True
    return mask


def jsonable(value: object) -> object:
    """Recursively coerce NumPy scalars/arrays to JSON-native types.

    Non-finite floats become ``None``: RFC 8259 has no NaN/Infinity
    tokens, and free-form payloads (result-table cells, verdict details)
    must stay parseable by non-Python consumers. The dense array codec
    (:func:`encode_array`) is exempt — error matrices are finite by
    construction and keep exact float semantics.
    """
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return jsonable(value.tolist())
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


# ---------------------------------------------------------------------------
# ValidationReport
# ---------------------------------------------------------------------------
def report_to_dict(report: ValidationReport, errors: str = "dense") -> dict:
    """Serialize a :class:`ValidationReport`.

    ``errors`` selects how the error values travel:

    * ``"dense"`` — full ``sample_errors``/``cell_errors`` matrices
      (exact round-trip; size O(rows × features));
    * ``"sparse"`` — error values only at flagged rows/cells, riding the
      flag coordinate lists (size O(flagged); unflagged errors decode
      as zero);
    * ``"none"`` — flags and verdict only.
    """
    if errors not in ("dense", "sparse", "none"):
        raise ProtocolError(f"unknown errors mode {errors!r}")
    payload = envelope("validation_report")
    payload.update(
        n_rows=int(report.row_flags.shape[0]),
        n_flagged=int(report.n_flagged),
        feature_names=list(report.feature_names),
        threshold=float(report.threshold),
        flagged_fraction=float(report.flagged_fraction),
        is_problematic=bool(report.is_problematic),
        row_flags=encode_mask(report.row_flags),
        cell_flags=encode_mask(report.cell_flags),
        errors=errors,
    )
    if errors == "dense":
        payload["sample_errors"] = encode_array(report.sample_errors)
        payload["cell_errors"] = encode_array(report.cell_errors)
    elif errors == "sparse":
        flagged = np.flatnonzero(report.row_flags)
        rows, cols = np.nonzero(report.cell_flags)
        payload["sample_errors"] = {"values": np.asarray(report.sample_errors)[flagged].tolist()}
        payload["cell_errors"] = {"values": np.asarray(report.cell_errors)[rows, cols].tolist()}
    if report.rule_report is not None:  # omitted (not null) when rules are off
        payload["rule_report"] = report.rule_report.to_dict()
    return payload


def report_from_dict(payload: dict) -> ValidationReport:
    check_envelope(payload, "validation_report")
    row_flags = decode_mask(payload["row_flags"])
    cell_flags = decode_mask(payload["cell_flags"])
    mode = payload.get("errors")
    if mode not in ("dense", "sparse", "none"):
        raise ProtocolError(f"unknown errors mode {mode!r}")
    if mode == "dense":
        sample_errors = decode_array(payload["sample_errors"])
        cell_errors = decode_array(payload["cell_errors"])
    else:
        sample_errors = np.zeros(row_flags.shape[0], dtype=np.float64)
        cell_errors = np.zeros(cell_flags.shape, dtype=np.float64)
        if mode == "sparse":
            sample_errors[np.flatnonzero(row_flags)] = payload["sample_errors"]["values"]
            cell_errors[np.nonzero(cell_flags)] = payload["cell_errors"]["values"]
    rule_payload = payload.get("rule_report")  # absent before codec revision 4
    return ValidationReport(
        sample_errors=sample_errors,
        cell_errors=cell_errors,
        row_flags=row_flags,
        cell_flags=cell_flags,
        threshold=float(payload["threshold"]),
        flagged_fraction=float(payload["flagged_fraction"]),
        is_problematic=bool(payload["is_problematic"]),
        feature_names=list(payload["feature_names"]),
        rule_report=None if rule_payload is None else rule_report_from_dict(rule_payload),
    )


def summary_dict(report: ValidationReport) -> dict:
    """The structured batch-verdict summary (replaces pre-rendered text)."""
    payload = envelope("verdict_summary")
    payload.update(
        n_rows=int(report.row_flags.shape[0]),
        n_flagged=int(report.n_flagged),
        flagged_fraction=float(report.flagged_fraction),
        threshold=float(report.threshold),
        is_problematic=bool(report.is_problematic),
    )
    return payload


def render_summary(payload: dict) -> str:
    """Human rendering of a :func:`summary_dict` payload."""
    verdict = "PROBLEMATIC" if payload["is_problematic"] else "OK"
    return (
        f"{verdict}: {payload['n_flagged']}/{payload['n_rows']} rows flagged "
        f"({payload['flagged_fraction']:.2%}), threshold={payload['threshold']:.5f}"
    )


# ---------------------------------------------------------------------------
# BatchVerdict
# ---------------------------------------------------------------------------
def verdict_to_dict(verdict: BatchVerdict) -> dict:
    payload = envelope("batch_verdict")
    payload.update(
        is_problematic=bool(verdict.is_problematic),
        score=float(verdict.score),
        flagged_rows=encode_array(np.asarray(verdict.flagged_rows)),
        details=jsonable(verdict.details),
    )
    return payload


def verdict_from_dict(payload: dict) -> BatchVerdict:
    check_envelope(payload, "batch_verdict")
    return BatchVerdict(
        is_problematic=bool(payload["is_problematic"]),
        flagged_rows=decode_array(payload["flagged_rows"]),
        score=float(payload["score"]),
        details=dict(payload["details"]),
    )


# ---------------------------------------------------------------------------
# RepairSummary
# ---------------------------------------------------------------------------
def repair_summary_to_dict(summary: RepairSummary) -> dict:
    payload = envelope("repair_summary")
    payload.update(
        n_rows_touched=int(summary.n_rows_touched),
        n_cells_repaired=int(summary.n_cells_repaired),
        repairs_by_column={str(k): int(v) for k, v in summary.repairs_by_column.items()},
    )
    return payload


def repair_summary_from_dict(payload: dict) -> RepairSummary:
    check_envelope(payload, "repair_summary")
    return RepairSummary(
        n_rows_touched=int(payload["n_rows_touched"]),
        n_cells_repaired=int(payload["n_cells_repaired"]),
        repairs_by_column=dict(payload["repairs_by_column"]),
    )


# ---------------------------------------------------------------------------
# PartialReport / StreamSummary
# ---------------------------------------------------------------------------
def partial_report_to_dict(partial: PartialReport) -> dict:
    payload = envelope("partial_report")
    payload.update(
        offset=int(partial.offset),
        n_rows=int(partial.n_rows),
        sample_errors=encode_array(partial.sample_errors),
        row_flags=encode_mask(partial.row_flags),
        cell_rows=encode_array(partial.cell_rows),
        cell_cols=encode_array(partial.cell_cols),
        cell_errors=None if partial.cell_errors is None else encode_array(partial.cell_errors),
        cell_flags=None if partial.cell_flags is None else encode_mask(partial.cell_flags),
        timestamp=None if partial.timestamp is None else float(partial.timestamp),
    )
    if partial.rule_partial is not None:  # omitted (not null) when rules are off
        payload["rule_partial"] = partial.rule_partial.to_payload()
    return payload


def partial_report_from_dict(payload: dict) -> PartialReport:
    check_envelope(payload, "partial_report")
    timestamp = payload.get("timestamp")  # absent in codec revision 1
    rule_payload = payload.get("rule_partial")  # absent before codec revision 4
    return PartialReport(
        offset=int(payload["offset"]),
        n_rows=int(payload["n_rows"]),
        sample_errors=decode_array(payload["sample_errors"]),
        row_flags=decode_mask(payload["row_flags"]),
        cell_rows=decode_array(payload["cell_rows"]),
        cell_cols=decode_array(payload["cell_cols"]),
        cell_errors=(
            None if payload["cell_errors"] is None else decode_array(payload["cell_errors"])
        ),
        cell_flags=(
            None if payload["cell_flags"] is None else decode_mask(payload["cell_flags"])
        ),
        timestamp=None if timestamp is None else float(timestamp),
        rule_partial=None if rule_payload is None else RulePartial.from_payload(rule_payload),
    )


def stream_summary_to_dict(summary: StreamSummary) -> dict:
    payload = envelope("stream_summary")
    payload.update(
        n_rows=int(summary.n_rows),
        n_chunks=int(summary.n_chunks),
        n_flagged=int(summary.n_flagged),
        flagged_rows=encode_array(summary.flagged_rows),
        threshold=float(summary.threshold),
        flagged_fraction=float(summary.flagged_fraction),
        is_problematic=bool(summary.is_problematic),
        flagged_cells_by_column={
            str(k): int(v) for k, v in summary.flagged_cells_by_column.items()
        },
        mean_sample_error=float(summary.mean_sample_error),
        max_sample_error=float(summary.max_sample_error),
        first_timestamp=(
            None if summary.first_timestamp is None else float(summary.first_timestamp)
        ),
        last_timestamp=(
            None if summary.last_timestamp is None else float(summary.last_timestamp)
        ),
    )
    if summary.rule_report is not None:  # omitted (not null) when rules are off
        payload["rule_report"] = summary.rule_report.to_dict()
    return payload


def stream_summary_from_dict(payload: dict) -> StreamSummary:
    check_envelope(payload, "stream_summary")
    first_ts = payload.get("first_timestamp")  # absent in codec revision 1
    last_ts = payload.get("last_timestamp")
    rule_payload = payload.get("rule_report")  # absent before codec revision 4
    return StreamSummary(
        n_rows=int(payload["n_rows"]),
        n_chunks=int(payload["n_chunks"]),
        n_flagged=int(payload["n_flagged"]),
        flagged_rows=decode_array(payload["flagged_rows"]),
        threshold=float(payload["threshold"]),
        flagged_fraction=float(payload["flagged_fraction"]),
        is_problematic=bool(payload["is_problematic"]),
        flagged_cells_by_column=dict(payload["flagged_cells_by_column"]),
        mean_sample_error=float(payload["mean_sample_error"]),
        max_sample_error=float(payload["max_sample_error"]),
        first_timestamp=None if first_ts is None else float(first_ts),
        last_timestamp=None if last_ts is None else float(last_ts),
        rule_report=None if rule_payload is None else rule_report_from_dict(rule_payload),
    )


# ---------------------------------------------------------------------------
# ThresholdCalibration
# ---------------------------------------------------------------------------
def calibration_to_dict(calibration: ThresholdCalibration) -> dict:
    payload = envelope("threshold_calibration")
    payload.update(
        threshold=float(calibration.threshold),
        percentile=float(calibration.percentile),
        clean_mean=float(calibration.clean_mean),
        clean_p50=float(calibration.clean_p50),
        clean_max=float(calibration.clean_max),
        n_samples=int(calibration.n_samples),
    )
    return payload


def calibration_from_dict(payload: dict) -> ThresholdCalibration:
    check_envelope(payload, "threshold_calibration")
    return ThresholdCalibration(
        threshold=float(payload["threshold"]),
        percentile=float(payload["percentile"]),
        clean_mean=float(payload["clean_mean"]),
        clean_p50=float(payload["clean_p50"]),
        clean_max=float(payload["clean_max"]),
        n_samples=int(payload["n_samples"]),
    )


# ---------------------------------------------------------------------------
# ServiceStats
# ---------------------------------------------------------------------------
def service_stats_to_dict(stats: ServiceStats) -> dict:
    payload = envelope("service_stats")
    payload.update(
        registered=int(stats.registered),
        resident=int(stats.resident),
        loads=int(stats.loads),
        evictions=int(stats.evictions),
        hits=int(stats.hits),
        validations=int(stats.validations),
        repairs=int(stats.repairs),
        rows_validated=int(stats.rows_validated),
        pipelines=jsonable(stats.pipelines),
    )
    return payload


def service_stats_from_dict(payload: dict) -> ServiceStats:
    check_envelope(payload, "service_stats")
    return ServiceStats(
        registered=int(payload["registered"]),
        resident=int(payload["resident"]),
        loads=int(payload["loads"]),
        evictions=int(payload["evictions"]),
        hits=int(payload["hits"]),
        validations=int(payload["validations"]),
        repairs=int(payload["repairs"]),
        rows_validated=int(payload["rows_validated"]),
        pipelines={name: dict(entry) for name, entry in payload["pipelines"].items()},
    )


# ---------------------------------------------------------------------------
# MonitorSnapshot / DriftAlert (drift monitoring)
# ---------------------------------------------------------------------------
def drift_alert_to_dict(alert: "DriftAlert") -> dict:
    payload = envelope("drift_alert")
    payload.update(
        metric=str(alert.metric),
        column=None if alert.column is None else str(alert.column),
        value=float(alert.value),
        threshold=float(alert.threshold),
        message=str(alert.message),
        timestamp=None if alert.timestamp is None else float(alert.timestamp),
    )
    return payload


def drift_alert_from_dict(payload: dict) -> "DriftAlert":
    from repro.monitor.monitor import DriftAlert

    check_envelope(payload, "drift_alert")
    timestamp = payload.get("timestamp")
    return DriftAlert(
        metric=str(payload["metric"]),
        column=None if payload["column"] is None else str(payload["column"]),
        value=float(payload["value"]),
        threshold=float(payload["threshold"]),
        message=str(payload["message"]),
        timestamp=None if timestamp is None else float(timestamp),
    )


def monitor_snapshot_to_dict(snapshot: "MonitorSnapshot") -> dict:
    payload = envelope("monitor_snapshot")
    payload.update(
        window_capacity=int(snapshot.window_capacity),
        window_chunks=int(snapshot.window_chunks),
        window_rows=int(snapshot.window_rows),
        total_observations=int(snapshot.total_observations),
        total_rows=int(snapshot.total_rows),
        total_alerts=int(snapshot.total_alerts),
        first_timestamp=(
            None if snapshot.first_timestamp is None else float(snapshot.first_timestamp)
        ),
        last_timestamp=(
            None if snapshot.last_timestamp is None else float(snapshot.last_timestamp)
        ),
        flag_rate_ewma=float(snapshot.flag_rate_ewma),
        flag_rate_center=float(snapshot.flag_rate_center),
        flag_rate_limit=float(snapshot.flag_rate_limit),
        flag_rate_alarm=bool(snapshot.flag_rate_alarm),
        psi_threshold=float(snapshot.psi_threshold),
        js_threshold=float(snapshot.js_threshold),
        columns=[
            {
                "name": str(column.name),
                "kind": str(column.kind),
                "psi": float(column.psi),
                "js": float(column.js),
                "drifted": bool(column.drifted),
            }
            for column in snapshot.columns
        ],
        alerts=[drift_alert_to_dict(alert) for alert in snapshot.alerts],
    )
    return payload


def monitor_snapshot_from_dict(payload: dict) -> "MonitorSnapshot":
    from repro.monitor.monitor import ColumnDrift, MonitorSnapshot

    check_envelope(payload, "monitor_snapshot")
    first_ts = payload.get("first_timestamp")
    last_ts = payload.get("last_timestamp")
    return MonitorSnapshot(
        window_capacity=int(payload["window_capacity"]),
        window_chunks=int(payload["window_chunks"]),
        window_rows=int(payload["window_rows"]),
        total_observations=int(payload["total_observations"]),
        total_rows=int(payload["total_rows"]),
        total_alerts=int(payload["total_alerts"]),
        first_timestamp=None if first_ts is None else float(first_ts),
        last_timestamp=None if last_ts is None else float(last_ts),
        flag_rate_ewma=float(payload["flag_rate_ewma"]),
        flag_rate_center=float(payload["flag_rate_center"]),
        flag_rate_limit=float(payload["flag_rate_limit"]),
        flag_rate_alarm=bool(payload["flag_rate_alarm"]),
        psi_threshold=float(payload["psi_threshold"]),
        js_threshold=float(payload["js_threshold"]),
        columns=[
            ColumnDrift(
                name=str(column["name"]),
                kind=str(column["kind"]),
                psi=float(column["psi"]),
                js=float(column["js"]),
                drifted=bool(column["drifted"]),
            )
            for column in payload["columns"]
        ],
        alerts=[drift_alert_from_dict(alert) for alert in payload["alerts"]],
    )


# ---------------------------------------------------------------------------
# ResultTable (experiment outputs)
# ---------------------------------------------------------------------------
def result_table_to_dict(table: ResultTable) -> dict:
    payload = envelope("result_table")
    payload.update(
        title=str(table.title),
        headers=list(table.headers),
        rows=jsonable(table.rows),
        notes=list(table.notes),
    )
    return payload


def result_table_from_dict(payload: dict) -> ResultTable:
    check_envelope(payload, "result_table")
    return ResultTable(
        title=payload["title"],
        headers=list(payload["headers"]),
        rows=[list(row) for row in payload["rows"]],
        notes=list(payload["notes"]),
    )


# ---------------------------------------------------------------------------
# RuleSet / RuleReport (repro.rules) — codec revision 4
# ---------------------------------------------------------------------------
def rule_set_to_dict(ruleset: RuleSet) -> dict:
    return ruleset.to_dict()


def rule_set_from_dict(payload: dict) -> RuleSet:
    return RuleSet.from_dict(payload)


def rule_report_to_dict(report: RuleReport) -> dict:
    return report.to_dict()


def rule_report_from_dict(payload: dict) -> RuleReport:
    return RuleReport.from_dict(payload)


# ---------------------------------------------------------------------------
# generic dispatch
# ---------------------------------------------------------------------------
_BY_TYPE = {
    ValidationReport: report_to_dict,
    BatchVerdict: verdict_to_dict,
    RepairSummary: repair_summary_to_dict,
    PartialReport: partial_report_to_dict,
    StreamSummary: stream_summary_to_dict,
    ThresholdCalibration: calibration_to_dict,
    ServiceStats: service_stats_to_dict,
    DriftAlert: drift_alert_to_dict,
    MonitorSnapshot: monitor_snapshot_to_dict,
    ResultTable: result_table_to_dict,
    RuleSet: rule_set_to_dict,
    RuleReport: rule_report_to_dict,
}

_BY_KIND = {
    "validation_report": report_from_dict,
    "batch_verdict": verdict_from_dict,
    "repair_summary": repair_summary_from_dict,
    "partial_report": partial_report_from_dict,
    "stream_summary": stream_summary_from_dict,
    "threshold_calibration": calibration_from_dict,
    "service_stats": service_stats_from_dict,
    "drift_alert": drift_alert_from_dict,
    "monitor_snapshot": monitor_snapshot_from_dict,
    "result_table": result_table_from_dict,
    "rule_set": rule_set_from_dict,
    "rule_report": rule_report_from_dict,
}


def to_dict(obj: object) -> dict:
    """Serialize any protocol object (dispatches on its type)."""
    encoder = _BY_TYPE.get(type(obj))
    if encoder is None:
        raise ProtocolError(f"no wire encoding for {type(obj).__name__}")
    return encoder(obj)


def from_dict(payload: dict) -> object:
    """Decode any protocol payload (dispatches on its ``kind``)."""
    check_envelope(payload)
    decoder = _BY_KIND.get(payload.get("kind"))
    if decoder is None:
        # Request kinds live in repro.api.requests; route them too so the
        # generic entry point covers the whole protocol.
        from repro.api.requests import RepairRequest, ValidateRequest

        if payload.get("kind") == "validate_request":
            return ValidateRequest.from_dict(payload)
        if payload.get("kind") == "repair_request":
            return RepairRequest.from_dict(payload)
        raise ProtocolError(f"unknown payload kind {payload.get('kind')!r}")
    return decoder(payload)
