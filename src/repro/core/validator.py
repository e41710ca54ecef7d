"""Phase 2: the §3.2.1 decision report for unseen tables.

:func:`assemble_report` turns per-cell reconstruction errors into row
flags, cell flags and the 5%·n dataset verdict; :class:`ValidationReport`
is its outcome. The compiled :class:`~repro.runtime.engine.InferenceEngine`
holds the calibration context and is the only caller
(:meth:`~repro.runtime.engine.InferenceEngine.assemble`);
:class:`~repro.runtime.streaming.StreamingValidator` runs every validate
path through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.model import DQuaGModel
from repro.core.thresholds import DatasetDecisionRule, ThresholdCalibration, flag_feature_cells

__all__ = ["ValidationReport", "assemble_report"]


@dataclass
class ValidationReport:
    """Full outcome of validating one table.

    Attributes
    ----------
    sample_errors:
        (n_rows,) reconstruction error per row.
    cell_errors:
        (n_rows, n_features) per-cell squared errors.
    row_flags:
        rows exceeding the clean-data threshold.
    cell_flags:
        the μ+kσ per-feature outliers within flagged rows (§3.2.1) —
        the cells the repair phase will modify.
    flagged_fraction / is_problematic:
        the batch-level decision (R_error vs the 5%·n rule).
    rule_report:
        optional fused :class:`~repro.rules.RuleReport` when the
        validate ran with a declarative rule set attached. Purely
        additive: the GNN-derived fields above are never altered by
        rule evaluation, so a rules-off run stays bit-identical.
    """

    sample_errors: np.ndarray
    cell_errors: np.ndarray
    row_flags: np.ndarray
    cell_flags: np.ndarray
    threshold: float
    flagged_fraction: float
    is_problematic: bool
    feature_names: list[str] = field(default_factory=list)
    rule_report: "object | None" = None

    @property
    def flagged_rows(self) -> np.ndarray:
        """Indices of problematic instances, as the paper reports them."""
        return np.flatnonzero(self.row_flags)

    @property
    def n_flagged(self) -> int:
        return int(self.row_flags.sum())

    def flagged_features_of(self, row: int) -> list[str]:
        """Names of problematic features of one row."""
        return [name for j, name in enumerate(self.feature_names) if self.cell_flags[row, j]]

    # -- rule fusion (repro.rules) -----------------------------------------
    @property
    def combined_cell_flags(self) -> np.ndarray:
        """Model cell flags OR rule-violation cells (copy when fused)."""
        if self.rule_report is None:
            return self.cell_flags
        return self.cell_flags | self.rule_report.cell_mask()

    def cell_provenance(self, row: int, col: int) -> str | None:
        """Who flagged one cell: ``'model'``, ``'rule'``, ``'both'``, or None."""
        model = bool(self.cell_flags[row, col])
        rule = (
            self.rule_report is not None
            and bool(
                ((self.rule_report.cell_rows == row) & (self.rule_report.cell_cols == col)).any()
            )
        )
        if model and rule:
            return "both"
        if model:
            return "model"
        if rule:
            return "rule"
        return None

    def provenance_counts(self) -> dict:
        """Flagged-cell counts by provenance (model / rule / both)."""
        model = self.cell_flags
        if self.rule_report is None:
            return {"model": int(model.sum()), "rule": 0, "both": 0}
        rule = self.rule_report.cell_mask()
        both = int((model & rule).sum())
        return {
            "model": int(model.sum()) - both,
            "rule": int(rule.sum()) - both,
            "both": both,
        }

    def summary(self) -> str:
        verdict = "PROBLEMATIC" if self.is_problematic else "OK"
        text = (
            f"{verdict}: {self.n_flagged}/{len(self.sample_errors)} rows flagged "
            f"({self.flagged_fraction:.2%}), threshold={self.threshold:.5f}"
        )
        if self.rule_report is not None:
            text += f"; {self.rule_report.summary()}"
        return text

    # -- wire protocol (repro.api) ----------------------------------------
    def to_dict(self, errors: str = "dense") -> dict:
        """Versioned JSON form; see :func:`repro.api.protocol.report_to_dict`."""
        from repro.api.protocol import report_to_dict

        return report_to_dict(self, errors=errors)

    @staticmethod
    def from_dict(payload: dict) -> "ValidationReport":
        from repro.api.protocol import report_from_dict

        return report_from_dict(payload)


def assemble_report(
    cell_errors: np.ndarray,
    calibration: ThresholdCalibration,
    rule: DatasetDecisionRule,
    feature_sigma: float,
    feature_scales: np.ndarray | None = None,
    feature_thresholds: np.ndarray | None = None,
    feature_names: list[str] | None = None,
) -> ValidationReport:
    """Turn raw per-cell errors into the full §3.2.1 decision report.

    Called through :meth:`InferenceEngine.assemble
    <repro.runtime.engine.InferenceEngine.assemble>`, so every path
    applies identical scaling and flag rules. All decisions are row-local
    except ``flagged_fraction`` / ``is_problematic``, which is why chunked
    validation can reproduce the one-shot report exactly.
    """
    if feature_scales is not None:
        cell_errors = cell_errors / feature_scales[None, :]
    sample_errors = DQuaGModel.sample_errors(cell_errors)
    row_flags = calibration.flag_rows(sample_errors)
    cell_flags = flag_feature_cells(cell_errors, row_flags, sigma=feature_sigma)
    if feature_thresholds is not None:
        cell_flags |= (cell_errors > feature_thresholds[None, :]) & row_flags[:, None]
    flagged_fraction = float(row_flags.mean()) if row_flags.size else 0.0
    return ValidationReport(
        sample_errors=sample_errors,
        cell_errors=cell_errors,
        row_flags=row_flags,
        cell_flags=cell_flags,
        threshold=calibration.threshold,
        flagged_fraction=flagged_fraction,
        is_problematic=rule.is_problematic(flagged_fraction),
        feature_names=list(feature_names or []),
    )
