"""Output checks: every workload compares what the system returned with
a reference computed in process. A mismatch raises :class:`OutputMismatch`,
which fails the run before any metric is reported."""

from __future__ import annotations

import numpy as np


class OutputMismatch(AssertionError):
    """The system's output differs from the benchmark's reference."""


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _rule_dict(report):
    return None if report.rule_report is None else report.rule_report.to_dict()


def check_reports_identical(actual, reference, what: str = "report") -> None:
    """Every field of two :class:`ValidationReport` objects, bit for bit."""
    for name in ("sample_errors", "cell_errors", "row_flags", "cell_flags"):
        if not _same_bits(getattr(actual, name), getattr(reference, name)):
            raise OutputMismatch(f"{what}: {name} differs from the reference")
    for name in ("threshold", "flagged_fraction", "is_problematic", "feature_names"):
        if getattr(actual, name) != getattr(reference, name):
            raise OutputMismatch(f"{what}: {name} differs from the reference")
    if _rule_dict(actual) != _rule_dict(reference):
        raise OutputMismatch(f"{what}: rule report differs from the reference")


def check_response_matches(payload: dict, reference, what: str = "response") -> None:
    """A sparse wire report agrees with an in-process report on flags,
    threshold, verdict, flagged-row errors and rule outcomes."""
    from repro.core.validator import ValidationReport

    actual = ValidationReport.from_dict(payload)
    for name in ("row_flags", "cell_flags"):
        if not np.array_equal(getattr(actual, name), getattr(reference, name)):
            raise OutputMismatch(f"{what}: {name} differ from the in-process report")
    for name in ("threshold", "flagged_fraction", "is_problematic"):
        if getattr(actual, name) != getattr(reference, name):
            raise OutputMismatch(f"{what}: {name} differs from the in-process report")
    flagged = np.flatnonzero(reference.row_flags)
    if not np.array_equal(actual.sample_errors[flagged], reference.sample_errors[flagged]):
        raise OutputMismatch(f"{what}: flagged-row errors differ from the in-process report")
    if _rule_dict(actual) != _rule_dict(reference):
        raise OutputMismatch(f"{what}: rule report differs from the in-process report")


def check_tables_identical(actual, reference, what: str = "table") -> None:
    """Same schema and the same cell values (NaN where NaN)."""
    if actual.schema != reference.schema or actual.n_rows != reference.n_rows:
        raise OutputMismatch(f"{what}: shape or schema differs from the reference")
    for spec in reference.schema:
        got, want = actual.column(spec.name), reference.column(spec.name)
        same = (
            _same_bits(np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64))
            if spec.is_numeric
            else list(got) == list(want)
        )
        if not same:
            raise OutputMismatch(f"{what}: column {spec.name!r} differs from the reference")


def check_summaries_equal(payload: dict, reference, what: str = "stream summary") -> None:
    """A wire :class:`StreamSummary` equals the in-process one field for field."""
    from repro.runtime.streaming import StreamSummary

    actual = StreamSummary.from_dict(payload)
    if actual.to_dict() != reference.to_dict():
        raise OutputMismatch(f"{what}: differs from the in-process StreamingValidator summary")
