"""Phase 2: repair-suggestion generation (§3.2.2).

Only cells flagged by the validator are modified. The repair decoder's
model-space proposal is mapped back to data space: numeric features are
denormalized; categorical features snap to the *nearest valid category*
of the fitted label encoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import DQuaGModel
from repro.core.validator import ValidationReport
from repro.data.preprocess import TablePreprocessor
from repro.data.table import Table
from repro.exceptions import RepairError, SchemaError

__all__ = ["RepairSummary", "RepairEngine"]


@dataclass
class RepairSummary:
    """What the repair pass changed."""

    n_rows_touched: int
    n_cells_repaired: int
    repairs_by_column: dict[str, int]

    def __repr__(self) -> str:
        return (
            f"RepairSummary(rows={self.n_rows_touched}, cells={self.n_cells_repaired}, "
            f"columns={sorted(self.repairs_by_column)})"
        )

    # -- wire protocol (repro.api) ----------------------------------------
    def to_dict(self) -> dict:
        from repro.api.protocol import repair_summary_to_dict

        return repair_summary_to_dict(self)

    @staticmethod
    def from_dict(payload: dict) -> "RepairSummary":
        from repro.api.protocol import repair_summary_from_dict

        return repair_summary_from_dict(payload)


class RepairEngine:
    """Generates repaired tables from validator output.

    Before querying the repair decoder, flagged cells are *masked* with
    the clean column centers (model-space medians of the training data):
    a corrupted value would otherwise poison its own node's embedding and
    drag the proposal toward the corruption. With the mask, proposals are
    conditioned only on the row's trustworthy cells.
    """

    def __init__(
        self,
        model: DQuaGModel,
        preprocessor: TablePreprocessor,
        clean_column_centers: np.ndarray | None = None,
        engine: "object | None" = None,
    ) -> None:
        self.model = model
        self.preprocessor = preprocessor
        if clean_column_centers is None:
            clean_column_centers = np.full(len(preprocessor.schema), 0.5)
        self.clean_column_centers = np.asarray(clean_column_centers, dtype=np.float64)
        # Optional compiled InferenceEngine: repair proposals then come
        # from the pure-NumPy repair-decoder kernel instead of autograd.
        self.engine = engine

    def repair(self, table: Table, report: ValidationReport) -> tuple[Table, RepairSummary]:
        """Return a repaired copy of ``table`` and a change summary.

        Missing cells are always repaired (they are sentinel outliers by
        construction); other cells only when flagged in ``report``.

        Proposals are computed only for *touched rows* — rows holding a
        flagged or missing cell — since no other row is written. Rows are
        independent through the model, so each touched row's proposals
        are bit-identical to a pass over the whole table; a table with
        nothing to repair never reaches the model.
        """
        if table.schema != self.preprocessor.schema:
            raise SchemaError("table schema does not match the trained pipeline")
        cell_flags = np.asarray(report.cell_flags, dtype=bool)
        if cell_flags.shape != (table.n_rows, table.n_columns):
            raise RepairError(
                f"report cell flags {cell_flags.shape} do not match table "
                f"({table.n_rows}, {table.n_columns})"
            )
        # Missing values are always in scope for repair.
        cell_flags = cell_flags | table.missing_mask()
        touched = np.flatnonzero(cell_flags.any(axis=1))

        # Every column is a copy of an already-normalized column, so the
        # result adopts them without the constructor's normalization pass.
        columns = {spec.name: table.column(spec.name).copy() for spec in table.schema}
        repairs_by_column: dict[str, int] = {}
        if touched.size:
            flags = cell_flags[touched]
            touched_table = Table._wrap(
                table.schema,
                {name: column[touched] for name, column in columns.items()},
                touched.size,
            )
            masked = self.preprocessor.compile().transform(touched_table)
            masked[flags] = np.broadcast_to(self.clean_column_centers, masked.shape)[flags]
            if self.engine is not None:
                proposals = self.engine.repair_values(masked)
            else:
                proposals = self.model.repair_values(masked)

            for j, spec in enumerate(table.schema):
                local = np.flatnonzero(flags[:, j])
                if not local.size:
                    continue
                values = proposals[local, j]
                if spec.is_categorical:
                    values = self._snap_categorical(spec.name, values)
                else:
                    values = self.preprocessor.normalizer(spec.name).inverse_transform(values)
                columns[spec.name][touched[local]] = values
                repairs_by_column[spec.name] = int(local.size)

        repaired = Table._wrap(table.schema, columns, table.n_rows)
        summary = RepairSummary(
            n_rows_touched=int(touched.size),
            n_cells_repaired=int(cell_flags.sum()),
            repairs_by_column=repairs_by_column,
        )
        return repaired, summary

    def _snap_categorical(self, name: str, scaled_values: np.ndarray) -> np.ndarray:
        """Map model-space proposals to the nearest valid category.

        Ties go to the lowest code and a NaN proposal to code 0, as
        ``np.argmin`` resolves them.
        """
        positions = self.preprocessor.valid_code_positions(name)
        classes = np.empty(len(positions), dtype=object)
        classes[:] = self.preprocessor.label_encoder(name).classes_
        nearest = np.argmin(np.abs(positions - scaled_values[:, None]), axis=1)
        return classes[nearest]
