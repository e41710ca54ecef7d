"""Rule evaluation results: chunk partials, fused reports, exact folds.

Rule evaluation follows the same merge discipline as the GNN half of
the stack: every chunk produces a :class:`RulePartial` of chunk-local
sparse violation coordinates, and :func:`fold_rule_partials` combines
offset-tagged partials into one :class:`RuleReport` that is bit-exactly
identical to a one-shot evaluation. Row-local rules merge by coordinate
translation alone; ``unique`` (table-scoped) rules defer their per-chunk
encoded column values — O(rows), the same budget the streaming stack
already spends on ``sample_errors`` — and adjudicate duplicates at fold
time.

Folding needs only the rule *metadata* (ids, severities, columns) plus
the feature-name order, never a preprocessor — that is what lets the
router fold replica partials with no live pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.rules.ruleset import SEVERITIES, RuleSet

__all__ = ["RuleOutcome", "RulePartial", "RuleReport", "apply_rules", "fold_rule_partials"]


@dataclass
class RulePartial:
    """Rule evaluation of one chunk, in chunk-local row coordinates.

    ``violations`` holds one ``(rule_id, rows, cols)`` triple per
    non-unique rule (row-major sorted, possibly empty); ``unique_values``
    holds one ``(rule_id, rows, encoded_values)`` triple per ``unique``
    rule, carrying the present cells' encoded values for fold-time
    duplicate detection.
    """

    n_rows: int
    violations: list
    unique_values: list

    def to_payload(self) -> dict:
        from repro.api.protocol import encode_array

        return {
            "n_rows": int(self.n_rows),
            "violations": [
                {
                    "rule": rule_id,
                    "rows": np.asarray(rows, dtype=np.int64).tolist(),
                    "cols": np.asarray(cols, dtype=np.int64).tolist(),
                }
                for rule_id, rows, cols in self.violations
            ],
            "unique": [
                {
                    "rule": rule_id,
                    "rows": np.asarray(rows, dtype=np.int64).tolist(),
                    "values": encode_array(np.asarray(values, dtype=np.float64)),
                }
                for rule_id, rows, values in self.unique_values
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "RulePartial":
        from repro.api.protocol import decode_array

        violations = [
            (
                entry["rule"],
                np.asarray(entry["rows"], dtype=np.int64),
                np.asarray(entry["cols"], dtype=np.int64),
            )
            for entry in payload.get("violations", [])
        ]
        unique_values = [
            (
                entry["rule"],
                np.asarray(entry["rows"], dtype=np.int64),
                np.asarray(decode_array(entry["values"]), dtype=np.float64),
            )
            for entry in payload.get("unique", [])
        ]
        return cls(n_rows=int(payload["n_rows"]), violations=violations, unique_values=unique_values)


@dataclass
class RuleOutcome:
    """Per-rule rollup inside a :class:`RuleReport`."""

    rule_id: str
    scope: str
    severity: str
    columns: tuple
    n_cells: int
    n_rows: int

    def to_dict(self) -> dict:
        return {
            "id": self.rule_id,
            "scope": self.scope,
            "severity": self.severity,
            "columns": list(self.columns),
            "n_cells": int(self.n_cells),
            "n_rows": int(self.n_rows),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RuleOutcome":
        return cls(
            rule_id=payload["id"],
            scope=payload["scope"],
            severity=payload["severity"],
            columns=tuple(payload["columns"]),
            n_cells=int(payload["n_cells"]),
            n_rows=int(payload["n_rows"]),
        )


@dataclass
class RuleReport:
    """Fused result of evaluating a :class:`~repro.rules.RuleSet`.

    ``cell_rows``/``cell_cols`` list each violating cell once, sorted
    row-major; ``cell_severity`` carries the *maximum* severity code any
    rule assigned that cell (see ``repro.rules.SEVERITIES`` for the
    code → name mapping). ``outcomes`` roll up per-rule counts in rule
    order.
    """

    n_rows: int
    feature_names: list
    cell_rows: np.ndarray
    cell_cols: np.ndarray
    cell_severity: np.ndarray
    outcomes: list

    @property
    def n_cells(self) -> int:
        return int(self.cell_rows.size)

    @property
    def flagged_rows(self) -> np.ndarray:
        return np.unique(self.cell_rows)

    @property
    def n_flagged_rows(self) -> int:
        return int(self.flagged_rows.size)

    @property
    def max_severity(self) -> str | None:
        if self.cell_severity.size == 0:
            return None
        return SEVERITIES[int(self.cell_severity.max())]

    def by_severity(self) -> dict:
        """Distinct violating cells per (max-)severity tier."""
        counts = np.bincount(self.cell_severity, minlength=len(SEVERITIES))
        return {name: int(counts[code]) for code, name in enumerate(SEVERITIES)}

    def outcome(self, rule_id: str) -> RuleOutcome:
        for outcome in self.outcomes:
            if outcome.rule_id == rule_id:
                return outcome
        raise KeyError(rule_id)

    def cell_mask(self) -> np.ndarray:
        """Dense boolean (n_rows, n_features) mask of violating cells."""
        mask = np.zeros((self.n_rows, len(self.feature_names)), dtype=bool)
        if self.cell_rows.size:
            mask[self.cell_rows, self.cell_cols] = True
        return mask

    def severity_of(self, row: int, column) -> str | None:
        """Severity name at one cell (column by index or name), or None."""
        if isinstance(column, str):
            column = self.feature_names.index(column)
        hit = (self.cell_rows == row) & (self.cell_cols == column)
        if not hit.any():
            return None
        return SEVERITIES[int(self.cell_severity[np.flatnonzero(hit)[0]])]

    def summary(self) -> str:
        tiers = ", ".join(f"{name}={count}" for name, count in self.by_severity().items())
        return (
            f"rules: {self.n_cells} violating cell(s) across "
            f"{self.n_flagged_rows}/{self.n_rows} row(s) [{tiers}]"
        )

    def to_dict(self) -> dict:
        from repro.api.protocol import envelope

        payload = envelope("rule_report")
        payload.update(
            {
                "n_rows": int(self.n_rows),
                "feature_names": list(self.feature_names),
                "n_cells": self.n_cells,
                "cells": {
                    "rows": self.cell_rows.tolist(),
                    "cols": self.cell_cols.tolist(),
                    "severity": self.cell_severity.tolist(),
                },
                "by_severity": self.by_severity(),
                "max_severity": self.max_severity,
                "rules": [outcome.to_dict() for outcome in self.outcomes],
            }
        )
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RuleReport":
        from repro.api.protocol import check_envelope

        check_envelope(payload, "rule_report")
        cells = payload["cells"]
        return cls(
            n_rows=int(payload["n_rows"]),
            feature_names=list(payload["feature_names"]),
            cell_rows=np.asarray(cells["rows"], dtype=np.int64),
            cell_cols=np.asarray(cells["cols"], dtype=np.int64),
            cell_severity=np.asarray(cells["severity"], dtype=np.int64),
            outcomes=[RuleOutcome.from_dict(entry) for entry in payload["rules"]],
        )


_EMPTY = np.empty(0, dtype=np.int64)


def fold_rule_partials(parts, rules: RuleSet, feature_names) -> RuleReport:
    """Fold offset-tagged chunk partials into one exact :class:`RuleReport`.

    ``parts`` is an iterable of ``(offset, n_rows, RulePartial | None)``
    in ascending offset order (``None`` partials contribute rows but no
    rule data — a rules-off chunk). The result is bit-identical to
    evaluating the concatenated matrix in one shot.
    """
    feature_names = list(feature_names)
    index_of = {name: j for j, name in enumerate(feature_names)}
    n_features = len(feature_names)
    known = {rule.id for rule in rules}
    rows_by_rule: dict = {rule.id: [] for rule in rules}
    cols_by_rule: dict = {rule.id: [] for rule in rules}
    unique_rows: dict = {rule.id: [] for rule in rules if rule.predicate.type == "unique"}
    unique_vals: dict = {rule.id: [] for rule in rules if rule.predicate.type == "unique"}
    total_rows = 0
    for offset, n_rows, partial in parts:
        total_rows += int(n_rows)
        if partial is None:
            continue
        for rule_id, rows, cols in partial.violations:
            if rule_id not in known:
                raise ValidationError(f"rule partial references unknown rule {rule_id!r}")
            rows_by_rule[rule_id].append(np.asarray(rows, dtype=np.int64) + int(offset))
            cols_by_rule[rule_id].append(np.asarray(cols, dtype=np.int64))
        for rule_id, rows, values in partial.unique_values:
            if rule_id not in unique_rows:
                raise ValidationError(f"rule partial references unknown unique rule {rule_id!r}")
            unique_rows[rule_id].append(np.asarray(rows, dtype=np.int64) + int(offset))
            unique_vals[rule_id].append(np.asarray(values, dtype=np.float64))

    all_rows, all_cols, all_sev = [], [], []
    outcomes = []
    for rule in rules:
        if rule.predicate.type == "unique":
            gathered = unique_rows[rule.id]
            rows = np.concatenate(gathered) if gathered else _EMPTY
            values = (
                np.concatenate(unique_vals[rule.id])
                if unique_vals[rule.id]
                else np.empty(0, dtype=np.float64)
            )
            if values.size:
                _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
                rows = rows[counts[inverse] > 1]
            else:
                rows = _EMPTY
            cols = np.full(rows.size, index_of[rule.predicate.column], dtype=np.int64)
        else:
            gathered = rows_by_rule[rule.id]
            rows = np.concatenate(gathered) if gathered else _EMPTY
            cols = np.concatenate(cols_by_rule[rule.id]) if cols_by_rule[rule.id] else _EMPTY
        outcomes.append(
            RuleOutcome(
                rule_id=rule.id,
                scope=rule.scope,
                severity=rule.severity,
                columns=tuple(dict.fromkeys(rule.predicate.columns)),
                n_cells=int(rows.size),
                n_rows=int(np.unique(rows).size),
            )
        )
        all_rows.append(rows)
        all_cols.append(cols)
        all_sev.append(np.full(rows.size, rule.severity_code, dtype=np.int64))

    rows_cat = np.concatenate(all_rows) if all_rows else _EMPTY
    cols_cat = np.concatenate(all_cols) if all_cols else _EMPTY
    sev_cat = np.concatenate(all_sev) if all_sev else _EMPTY
    if rows_cat.size == 0:
        cell_rows = cell_cols = cell_sev = _EMPTY
    else:
        # Dedupe cells flagged by several rules, keeping the max
        # severity: sort by flat cell key, reduce per group.
        keys = rows_cat * n_features + cols_cat
        order = np.argsort(keys, kind="stable")
        keys_sorted = keys[order]
        sev_sorted = sev_cat[order]
        cell_keys, first = np.unique(keys_sorted, return_index=True)
        cell_sev = np.maximum.reduceat(sev_sorted, first)
        cell_rows = cell_keys // n_features
        cell_cols = cell_keys % n_features
    return RuleReport(
        n_rows=total_rows,
        feature_names=feature_names,
        cell_rows=cell_rows,
        cell_cols=cell_cols,
        cell_severity=cell_sev,
        outcomes=outcomes,
    )


def apply_rules(report, matrix, plan):
    """Evaluate ``plan`` over an encoded matrix and attach the fused
    :class:`RuleReport` to a :class:`~repro.core.validator.ValidationReport`.

    The GNN flags on ``report`` are never touched — fusion is purely
    additive, which is what keeps rules-off output bit-identical.
    """
    partial = plan.evaluate(matrix)
    report.rule_report = fold_rule_partials(
        [(0, int(partial.n_rows), partial)], plan.ruleset, list(report.feature_names)
    )
    return report
